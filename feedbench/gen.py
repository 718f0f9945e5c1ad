"""Seeded crawl generator: pages tables in the engine's input schema.

A crawl is a pages table ``(url, warc_ts, html, text, lang)``. ``html`` is
nav/footer boilerplate around one ``<article>`` element that holds exactly
``text`` (what the engine's frozen article extractor reads back), so a
DuckDB re-derivation over the ``text`` column must agree with the engine's
html -> text -> quads path. Text mixes filler words with the alias surface
forms of ``stages.extract_triples.ALIAS_PAIRS`` so pages carry mentions.

``Crawl.step`` produces the next crawl round: a share of pages change, most
of them edited in place, a few urls newly appearing and as many dropping
out. Every changed page's ``warc_ts`` advances to the round's crawl time.
Everything is a pure function of the seed.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from virtuoso_quad_log_ray.stages.extract_triples import ALIAS_PAIRS

SITES = ("news", "blog", "wiki", "shop", "docs", "forum", "papers", "lab")
LANGS = ("en", "de", "nl", "fr", "es")
FILLER = (
    "the of and a in to is was for on with as by at from that this it an be "
    "data engine record system page crawl graph node value result time build "
    "fast small large first last open change index update report note"
).split()
SURFACES = [s for s, _ in ALIAS_PAIRS]
NAV = {
    site: f"<nav>home | {site} | about | contact | archive</nav>" for site in SITES
}
FOOTER = "<footer>(c) example.org crawl corpus | terms | privacy</footer>"

CRAWL0_TS = 1_704_067_200  # 2024-01-01T00:00:00Z
ROUND_STEP_S = 3_600  # crawl rounds are an hour apart

SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("s")),
        ("html", pa.binary()),
        ("text", pa.string()),
        ("lang", pa.string()),
    ]
)

# Change mix of a sync round: most changed pages are edits, the rest split
# evenly between new urls and urls that disappear (corpus size stays put).
EDIT_SHARE = 0.8


def _text(rng: np.random.Generator) -> str:
    """Single-space separated tokens, 8..160 of them, ~1 in 6 an alias."""
    n = int(rng.integers(8, 161))
    words = rng.choice(FILLER, size=n)
    alias = rng.random(n) < 0.16
    words[alias] = rng.choice(SURFACES, size=int(alias.sum()))
    return " ".join(words.tolist())


def _html(site: str, text: str) -> bytes:
    return (
        f"<html><head><title>{site} | example.org</title></head><body>"
        f"{NAV[site]}<article>{text}</article>{FOOTER}</body></html>"
    ).encode()


class Crawl:
    """The current state of a seeded crawl; ``table()`` is the pages table."""

    def __init__(self, seed: int, n_pages: int):
        self.rng = np.random.default_rng(seed)
        self.round = 0
        self.next_id = 0
        # url -> (site, ts, text, lang); insertion order = url creation order
        self.pages: dict[str, tuple[str, int, str, str]] = {}
        for _ in range(n_pages):
            self._add(CRAWL0_TS)

    def _add(self, ts: int) -> None:
        site = SITES[int(self.rng.integers(len(SITES)))]
        lang = LANGS[int(self.rng.integers(len(LANGS)))]
        url = f"https://example.org/{site}/{self.next_id}"
        self.next_id += 1
        self.pages[url] = (site, ts, _text(self.rng), lang)

    @property
    def crawl_ts(self) -> int:
        return CRAWL0_TS + self.round * ROUND_STEP_S

    def step(self, change_share: float) -> None:
        """Advance one crawl round."""
        self.round += 1
        ts = self.crawl_ts
        n_changed = max(1, round(change_share * len(self.pages)))
        n_edit = round(EDIT_SHARE * n_changed)
        n_turn = (n_changed - n_edit) // 2
        urls = list(self.pages)
        picked = self.rng.choice(len(urls), size=n_edit + n_turn, replace=False)
        for i in picked[:n_edit].tolist():
            site, _, _, lang = self.pages[urls[i]]
            self.pages[urls[i]] = (site, ts, _text(self.rng), lang)
        for i in picked[n_edit:].tolist():
            del self.pages[urls[i]]
        for _ in range(n_turn):
            self._add(ts)

    def table(self) -> pa.Table:
        urls = list(self.pages)
        rows = list(self.pages.values())
        return pa.table(
            {
                "url": urls,
                "warc_ts": pa.array([r[1] for r in rows], type=pa.int64()).cast(
                    pa.timestamp("s")
                ),
                "html": [_html(r[0], r[2]) for r in rows],
                "text": [r[2] for r in rows],
                "lang": [r[3] for r in rows],
            },
            schema=SCHEMA,
        )

    def write(self, path: str) -> None:
        """Write the current crawl as one Parquet file."""
        pq.write_table(self.table(), path)
