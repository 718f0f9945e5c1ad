"""CLI — the operational surface of the reference's three entrypoints.

    python -m virtuoso_quad_log_ray dump    --sf DIR --out SINK [--epoch E]
    python -m virtuoso_quad_log_ray sync    --sf DIR --out SINK --checkpoint TS14
    python -m virtuoso_quad_log_ray publish --src SINK --pub DIR [--max-files N]
    python -m virtuoso_quad_log_ray materialize --sf DIR --out DIR [--buckets N]
    python -m virtuoso_quad_log_ray run     --sf DIR --out SINK --interval N [--max-runs K]
    python -m virtuoso_quad_log_ray export-warc --pages TABLE --out DIR [--buckets N]
    python -m virtuoso_quad_log_ray export-jsonl --pages TABLE --out DIR [--buckets N]
    python -m virtuoso_quad_log_ray validate --sf DIR [--out SINK]

dump, sync and run keep the stored quad-set snapshot that every sync diffs
against in SINK/snapshots, so the three commands address the same state.

Each invocation is one bounded run (the reference's poll loop,
quad-logger/entrypoint.sh:14-17, calls the run body once per interval; an
external scheduler calls this CLI the same way — the `ray job submit` unit).
The CLI owns the Ray session (guarded init; the library never inits)."""

from __future__ import annotations

import argparse
import datetime
import sys


def _init_ray(num_cpus: int | None) -> bool:
    """Guarded init; returns True iff THIS call started Ray (an embedding
    process — tests, a notebook — keeps ownership of its own session)."""
    import ray

    if ray.is_initialized():
        return False
    kwargs = {"address": "local", "include_dashboard": False, "logging_level": "ERROR"}
    if num_cpus:
        kwargs["num_cpus"] = num_cpus
    ray.init(**kwargs)
    return True


def _cfg(args) -> "EngineConfig":
    """EngineConfig from CLI flags (BUILDER_CLASS-style deployment seams:
    --extractor selects from stages.extract_text.EXTRACTORS)."""
    from virtuoso_quad_log_ray.config import DEFAULT_CONFIG, EngineConfig

    if getattr(args, "extractor", None):
        import dataclasses

        return dataclasses.replace(DEFAULT_CONFIG, extractor=args.extractor)
    return DEFAULT_CONFIG


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="virtuoso_quad_log_ray")
    p.add_argument("--num-cpus", type=int, default=None)
    p.add_argument(
        "--extractor",
        default=None,
        help="text-extractor registry name (default: the frozen article rule)",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    d = sub.add_parser("dump", help="initial full dump into a patch-file sink")
    d.add_argument("--sf", required=True)
    d.add_argument("--out", required=True)
    d.add_argument("--epoch", default=None)

    s = sub.add_parser("sync", help="incremental +/- changelog run")
    s.add_argument("--sf", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--checkpoint", required=True, help="ts14, must exceed the cursor")

    b = sub.add_parser("publish", help="bundle committed patch files into zips + metadata")
    b.add_argument("--src", required=True)
    b.add_argument("--pub", required=True)
    b.add_argument("--max-files", type=int, default=50_000)
    b.add_argument("--bundler", default=None, help="module:Class override")

    m = sub.add_parser("materialize", help="canonical quads -> sorted Parquet partitions")
    m.add_argument("--sf", required=True)
    m.add_argument("--out", required=True)
    m.add_argument("--buckets", type=int, default=None, help="default: adaptive (16/CPU)")
    m.add_argument("--epoch", default=None)

    r = sub.add_parser(
        "run", help="poll loop: dump-then-sync every --interval seconds (T8)"
    )
    r.add_argument("--sf", required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--interval", type=float, default=60.0, help="seconds between runs")
    r.add_argument("--max-runs", type=int, default=None, help="stop after N runs (default: forever)")
    r.add_argument("--epoch", default=None)

    w = sub.add_parser(
        "export-warc", help="pages corpus -> bucketed WARC shards + manifest"
    )
    w.add_argument("--pages", required=True, help="pages Parquet file/dir (input_hint schema)")
    w.add_argument("--out", required=True)
    w.add_argument("--buckets", type=int, default=None, help="default: adaptive (16/CPU)")
    w.add_argument("--epoch", default=None)

    j = sub.add_parser(
        "export-jsonl", help="pages corpus -> bucketed JSONL shards + manifest"
    )
    j.add_argument("--pages", required=True, help="pages Parquet file/dir (input_hint schema)")
    j.add_argument("--out", required=True)
    j.add_argument("--buckets", type=int, default=None, help="default: adaptive (16/CPU)")
    j.add_argument("--epoch", default=None)

    v = sub.add_parser("validate", help="startup checks only")
    v.add_argument("--sf", required=True)
    v.add_argument("--out", default=None)

    args = p.parse_args(argv)

    if args.cmd == "validate":
        from virtuoso_quad_log_ray.state.validate import validate_input, validate_sink

        validate_input(args.sf)
        if args.out:
            validate_sink(args.out)
        print("ok")
        return 0

    if args.cmd == "publish":
        from virtuoso_quad_log_ray.pipelines.publish import resolve_bundler

        cls = resolve_bundler(args.bundler)
        bundler = cls(args.src, args.pub, max_files=args.max_files)
        state = bundler.publish()
        written = bundler.publish_metadata()
        print(f"sealed={state.def_count} runs={state.run_count} metadata={written}")
        return 0

    owns_session = _init_ray(args.num_cpus)
    import ray

    try:
        epoch = getattr(args, "epoch", None) or datetime.datetime.now(
            datetime.timezone.utc
        ).strftime("%Y%m%d%H%M%S")
        if args.cmd == "dump":
            from virtuoso_quad_log_ray.pipelines.runs import run_dump

            man = run_dump(args.sf, args.out, epoch=epoch, cfg=_cfg(args))
            # a dump on a sink that has synced returns the committed sync
            unit = "quads" if man.kind == "dump" else "records"
            print(f"{man.kind}: {man.quad_count} {unit} in {man.file_count} files @ {man.checkpoint}")
        elif args.cmd == "sync":
            from virtuoso_quad_log_ray.pipelines.runs import run_sync

            man = run_sync(args.sf, args.out, checkpoint=args.checkpoint, cfg=_cfg(args))
            print(f"sync: {man.quad_count} records in {man.file_count} files @ {man.checkpoint}")
        elif args.cmd == "run":
            from virtuoso_quad_log_ray.pipelines.runs import run_loop

            mans = run_loop(
                args.sf,
                args.out,
                interval_s=args.interval,
                max_runs=args.max_runs,
                epoch=args.epoch,
                cfg=_cfg(args),
            )
            for man in mans:
                print(
                    f"{man.kind}[{man.run_index}]: {man.quad_count} records in "
                    f"{man.file_count} files @ {man.checkpoint}"
                )
        elif args.cmd == "export-warc":
            from virtuoso_quad_log_ray.sources.pages import read_pages_parquet
            from virtuoso_quad_log_ray.sources.warc import write_warc_corpus

            man = write_warc_corpus(
                read_pages_parquet(args.pages),
                args.out,
                epoch=epoch,
                n_buckets=args.buckets,
            )
            print(f"export-warc: {man.quad_count} records in {man.file_count} shards")
        elif args.cmd == "export-jsonl":
            from virtuoso_quad_log_ray.sources.pages import (
                read_pages_parquet,
                write_jsonl_corpus,
            )

            man = write_jsonl_corpus(
                read_pages_parquet(args.pages, include_html=False),
                args.out,
                epoch=epoch,
                n_buckets=args.buckets,
            )
            print(f"export-jsonl: {man.quad_count} records in {man.file_count} shards")
        elif args.cmd == "materialize":
            from virtuoso_quad_log_ray.pipelines.kg import build_quads, dedup_quads
            from virtuoso_quad_log_ray.pipelines.materialize import materialize_quads

            man = materialize_quads(
                dedup_quads(build_quads(args.sf, _cfg(args))),
                args.out,
                epoch=epoch,
                n_buckets=args.buckets,
            )
            print(f"materialize: {man.quad_count} quads in {man.file_count} partitions")
    finally:
        if owns_session:
            ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
