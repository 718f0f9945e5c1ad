"""One workload in one process: start Ray, set up, run closed-loop rounds.

Run through ``run.py``, which owns the watchdog; this module is the child it
starts. A round hands one crawl table to the engine, runs it
(``run_dump_pages`` or ``run_sync_pages`` with a ``snapshot_root``), then
``Bundler.publish`` and ``publish_metadata``; the next round starts only
after all three have returned and the round's correctness checks have run
(outside the timed region).

With ``--trace 1`` every round runs twice from the same input: once through
the production entrypoints (lineage A) and once re-composed from the
modules' public calls with a ``.materialize()`` at each layer boundary
(lineage B, see ``traced.py``). Both lineages must commit identical
manifests.

The last line on stdout is the JSON result; round lines before it are for
people.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
import traceback

from gen import CRAWL0_TS, Crawl

NUM_CPUS = 4  # logical Ray CPUs; see README.md for why not Ray's default
N_PAGES = 1000
BUNDLE_FILES = 250  # Bundler max_files: the set-up dump seals 4 zips, syncs open a 5th
MIN_ROUNDS = 4  # a traced run pairs each round with a traced one: 1 is enough there
OBJECT_STORE_BYTES = 256 * 2**20

# change share per sync round; bulk_dump re-dumps the same crawl each round
WORKLOADS = {"bulk_dump": None, "trickle_sync": 0.01, "churn_sync": 0.40}


def ts14(epoch_s: int) -> str:
    return time.strftime("%Y%m%d%H%M%S", time.gmtime(epoch_s))


EPOCH = ts14(CRAWL0_TS)


def start_ray(work: str) -> str:
    """Start this process's Ray session; returns its temp dir."""
    import ray
    import ray.data

    # AF_UNIX socket paths under the temp dir are capped at 107 bytes and
    # Ray appends up to 64 characters; a long checkout path falls back to /tmp.
    temp = os.path.join(os.path.dirname(work), "ray")
    if len(temp) > 40:
        temp = f"/tmp/feedbench-ray-{os.getpid()}"
    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        object_store_memory=OBJECT_STORE_BYTES,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        _temp_dir=temp,
    )
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    return temp


def publish_state(pub: str) -> dict[str, tuple[int, int, int]]:
    """(inode, mtime, size) of every file under the publish dir."""
    out = {}
    for d, _, names in os.walk(pub):
        for n in names:
            st = os.stat(os.path.join(d, n))
            out[os.path.relpath(os.path.join(d, n), pub)] = (st.st_ino, st.st_mtime_ns, st.st_size)
    return out


def written_bytes(before: dict, after: dict) -> int:
    """Bytes of the files new or rewritten between two publish_state snapshots."""
    return sum(v[2] for rel, v in after.items() if before.get(rel) != v)


def peak_rss_mb() -> float:
    """Highest VmHWM among this process and every process of its session
    (the Ray head processes and workers started by ``ray.init``)."""
    sid = os.getsid(0)
    peak = 0
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            if os.getsid(int(pid)) != sid:
                continue
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]))
        except (OSError, ValueError):
            continue
    return peak / 1024


class Lineage:
    """One sink + snapshot root + publish dir, and the engine calls on it."""

    def __init__(self, root: str):
        self.sink = os.path.join(root, "sink")
        self.snap = os.path.join(root, "snap")
        self.pub = os.path.join(root, "pub")

    def bundler(self):
        from virtuoso_quad_log_ray.pipelines.publish import Bundler

        return Bundler(self.sink, self.pub, max_files=BUNDLE_FILES)

    def run(self, pages_path: str, checkpoint: str | None) -> tuple[float, float, object]:
        """Untraced round: (engine_s, freshness_s, manifest)."""
        from virtuoso_quad_log_ray.pipelines.runs import run_dump_pages, run_sync_pages

        t0 = time.perf_counter()
        if checkpoint is None:
            man = run_dump_pages(pages_path, self.sink, epoch=EPOCH, snapshot_root=self.snap)
        else:
            man = run_sync_pages(
                pages_path, self.sink, checkpoint=checkpoint, snapshot_root=self.snap
            )
        t1 = time.perf_counter()
        b = self.bundler()
        b.publish()
        b.publish_metadata()
        return t1 - t0, time.perf_counter() - t0, man

    def copy_to(self, root: str) -> "Lineage":
        other = Lineage(root)
        for a, b in ((self.sink, other.sink), (self.snap, other.snap), (self.pub, other.pub)):
            shutil.copytree(a, b)
        return other


class Workload:
    def __init__(self, name: str, seed: int, work: str, trace: bool):
        from oracle import Oracle

        self.share = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.trace = trace
        self.oracle = Oracle()
        self.tracer = None
        if trace:
            from traced import Tracer

            self.tracer = Tracer()
        self.rounds: list[dict] = []

    # -- set-up --------------------------------------------------------------

    def setup(self, t_ray: float) -> float:
        """Generate the crawl, dump + publish it into lineage A, check it.
        For bulk_dump this is the warm-up; for the syncs it is the pre-state
        the rounds start from. Returns setup_s: process start to here."""
        from oracle import check_bundles, check_dump

        t0 = time.perf_counter()
        self.crawl = Crawl(self.seed, N_PAGES)
        self.pages0 = os.path.join(self.work, "crawl-000.parquet")
        self.crawl.write(self.pages0)
        self.a = Lineage(os.path.join(self.work, "a"))
        _, _, man = self.a.run(self.pages0, None)
        setup_s = t_ray + time.perf_counter() - t0
        self.dump_quads = self.oracle.expect(self.pages0)
        problems = check_dump(man, self.dump_quads) + check_bundles(self.a.sink, self.a.pub)
        if problems:
            raise RuntimeError(f"set-up failed its checks: {problems}")
        if self.trace and self.share is not None:
            self.b = self.a.copy_to(os.path.join(self.work, "b"))
        return setup_s

    # -- rounds --------------------------------------------------------------

    def next_input(self, k: int) -> tuple[str, str | None]:
        """(pages_path, checkpoint) of round k; checkpoint None = dump."""
        if self.share is None:
            return self.pages0, None
        self.crawl.step(self.share)
        path = os.path.join(self.work, f"crawl-{k:03d}.parquet")
        self.crawl.write(path)
        self.oracle.expect(path)
        checkpoint = ts14(self.crawl.crawl_ts)
        self.expected_records = self.oracle.keep_delta(checkpoint)
        return path, checkpoint

    def round(self, k: int) -> dict:
        from oracle import check_bundles, check_dump, check_sync, manifest_files

        path, checkpoint = self.next_input(k)
        if checkpoint is None:  # every bulk round dumps into a fresh lineage
            self.a = Lineage(os.path.join(self.work, f"bulk{k}"))
            if self.trace:
                self.b = Lineage(os.path.join(self.work, f"bulk{k}b"))
        before = publish_state(self.a.pub)
        os.sync()  # earlier writes must not be flushed inside the timing
        engine_s, fresh_s, man = self.a.run(path, checkpoint)
        t_check = time.perf_counter()
        rec = {
            "round": k,
            "freshness_s": fresh_s,
            "engine_s": engine_s,
            "pages_per_s": self.crawl_rows / engine_s,
            "published_bytes": written_bytes(before, publish_state(self.a.pub)),
        }
        if checkpoint is None:
            problems = check_dump(man, self.dump_quads)
        else:
            problems = check_sync(man, checkpoint, self.expected_records)
            rec["checkpoint"] = checkpoint
        problems += check_bundles(self.a.sink, self.a.pub)
        rec["check_s"] = time.perf_counter() - t_check
        if self.trace:
            rec["traced_s"] = self.tracer.round(self.b, path, checkpoint, EPOCH, k)
            rec["trace_overhead_s"] = rec["traced_s"] - fresh_s
            if manifest_files(self.b.sink) != manifest_files(self.a.sink):
                problems.append("traced lineage committed a different manifest")
        if checkpoint is None:
            shutil.rmtree(os.path.join(self.work, f"bulk{k}"))
            if self.trace:
                shutil.rmtree(os.path.join(self.work, f"bulk{k}b"))
        rec["problems"] = problems
        return rec

    def read_back(self) -> None:
        """Sync rounds: the one read-back of every published record."""
        from oracle import check_read_back

        syncs = {r["checkpoint"]: r for r in self.rounds if "checkpoint" in r}
        if not syncs:
            return
        t0 = time.perf_counter()
        view = os.path.join(self.work, "read-back")
        for cp, problems in check_read_back(self.oracle, self.a.sink, list(syncs), view).items():
            syncs[cp]["problems"] += problems
            if problems:
                print(f"  round {syncs[cp]['round']} read-back FAILED: {'; '.join(problems)}", flush=True)
        print(f"  read-back of {len(syncs)} rounds checked in {time.perf_counter() - t0:.2f} s", flush=True)

    @property
    def crawl_rows(self) -> int:
        return len(self.crawl.pages)


def summarize(rounds: list[dict], setup_s: float, peak_mb: float, tracer) -> dict:
    """The JSON result; metrics are medians over the rounds that completed."""
    done = [r for r in rounds if "freshness_s" in r]
    med = lambda key: statistics.median(r[key] for r in done)  # noqa: E731
    if not done:
        metrics = {}
    elif tracer is not None:
        metrics = tracer.metrics()
        metrics["trace.overhead_s"] = (med("trace_overhead_s"), "s")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "freshness_s": (med("freshness_s"), "s"),
            "pages_per_s": (med("pages_per_s"), "pages/s"),
            "published_bytes": (med("published_bytes"), "bytes"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
    failed = sum(1 for r in rounds if r["problems"])
    return {
        "correct": failed == 0,
        "attempted": len(rounds),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def report(rec: dict) -> None:
    if "freshness_s" not in rec:
        print(f"  round {rec['round']}: FAILED {'; '.join(rec['problems'])}", flush=True)
        return
    traced = f", traced round {rec['traced_s']:.3f} s" if "traced_s" in rec else ""
    status = "ok" if not rec["problems"] else "FAILED " + "; ".join(rec["problems"])
    print(
        f"  round {rec['round']}: freshness {rec['freshness_s']:.3f} s "
        f"(engine {rec['engine_s']:.3f} s), {rec['pages_per_s']:.0f} pages/s, "
        f"{rec['published_bytes']} bytes published, checked in {rec['check_s']:.2f} s"
        f"{traced}, {status}",
        flush=True,
    )


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work", required=True)
    p.add_argument("--t0", type=float, required=True, help="wall time the process was spawned")
    args = p.parse_args()

    import ray

    ray_temp = start_ray(args.work)
    t_ray = time.time() - args.t0
    wl = Workload(args.workload, args.seed, args.work, bool(args.trace))
    try:
        setup_s = wl.setup(t_ray)
        print(f"{args.workload}: set-up {setup_s:.2f} s, {wl.crawl_rows} pages", flush=True)
        deadline = time.perf_counter() + args.seconds
        min_rounds = 1 if wl.trace else MIN_ROUNDS
        k = 0
        while k < min_rounds or time.perf_counter() < deadline:
            k += 1
            try:
                rec = wl.round(k)
            except Exception:  # the round failed; the lineage state is unknown, so stop
                rec = {"round": k, "problems": [traceback.format_exc(limit=3).strip()]}
            wl.rounds.append(rec)
            report(rec)
            if "freshness_s" not in rec:
                break
        peak_mb = peak_rss_mb()
        wl.read_back()
        result = summarize(wl.rounds, setup_s, peak_mb, wl.tracer)
        if wl.tracer is not None:
            wl.tracer.dump(os.path.join(os.path.dirname(args.work), "traces"), args.workload, args.seed)
    finally:
        wl.oracle.close()
        ray.shutdown()
        shutil.rmtree(ray_temp, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
