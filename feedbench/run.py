"""Crawl-to-feed benchmark: one command, run from the repository root.

    python3 feedbench/run.py --workload trickle_sync --seed 1 --seconds 12 --trace 0
    python3 feedbench/run.py            # every workload in turn, seed 1

Each workload runs in a fresh child process (``workload.py``) under a
watchdog: a round that hangs is killed with the child's whole process
session (the Ray head and workers included) and counts as a failed round.
Every process started is stopped and waited for before this exits.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer ones with ``--trace 1``). Exit status 0 only if every round
passed its correctness checks.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".feedbench")  # all run data stays in the checkout
WORKLOADS = ("bulk_dump", "trickle_sync", "churn_sync")  # as in workload.py
WATCHDOG_S = 150  # the child must finish within this, set-up included
FAILED_OPS = "failed_ops"


def session_pids(sid: int) -> list[int]:
    """Live (non-zombie) processes of session ``sid``."""
    pids = []
    for p in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{p}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[0] != "Z" and int(fields[3]) == sid:
            pids.append(int(p))
    return pids


def stop_session(sid: int, grace_s: float = 5.0) -> None:
    """SIGTERM, then SIGKILL, every process of the child's session; wait
    until none is left."""
    for sig, wait in ((signal.SIGTERM, grace_s), (signal.SIGKILL, 10.0)):
        pids = session_pids(sid)
        if not pids:
            return
        for pid in pids:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        end = time.monotonic() + wait
        while session_pids(sid) and time.monotonic() < end:
            time.sleep(0.1)
    if session_pids(sid):
        raise RuntimeError(f"processes of session {sid} survived SIGKILL")


def run_workload(name: str, seed: int, seconds: float, trace: int) -> tuple[dict | None, int]:
    """Run one workload in a child process; returns (result, exit code)."""
    work = os.path.join(WORK, f"w{os.getpid()}")
    os.makedirs(work)
    env = dict(os.environ)
    # Ray workers import the engine by module path, not through sys.path
    env["PYTHONPATH"] = os.pathsep.join(p for p in (ROOT, HERE, env.get("PYTHONPATH")) if p)
    env["RAY_USAGE_STATS_ENABLED"] = "0"
    cmd = [
        sys.executable, os.path.join(HERE, "workload.py"),
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--work", work, "--t0", repr(time.time()),
    ]
    log_path = os.path.join(WORK, f"{name}-seed{seed}-trace{trace}.log")
    result = None
    rounds_seen = failed_seen = 0
    with open(log_path, "w") as log:
        child = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=log,
            start_new_session=True,
        )
        deadline = time.monotonic() + WATCHDOG_S
        ended = timed_out = False
        try:
            fd = child.stdout.fileno()
            buf = b""
            while True:
                left = deadline - time.monotonic()
                if left <= 0:
                    timed_out = True
                    break
                if not select.select([fd], [], [], min(left, 1.0))[0]:
                    continue
                chunk = os.read(fd, 65536)
                if not chunk:  # the child closed stdout: it has exited
                    ended = True
                    break
                buf += chunk
                *lines, buf = buf.split(b"\n")
                for line in map(bytes.decode, lines):
                    if line.startswith("{"):
                        result = json.loads(line)
                    else:
                        print(line, flush=True)
                        if line.lstrip().startswith("round "):
                            rounds_seen += 1
                            failed_seen += "FAILED" in line
        finally:  # also on SIGTERM/SIGINT: never leave the Ray session behind
            if not ended:
                stop_session(child.pid)
                # the killed child could not remove its Ray session dir
                for ray_dir in (os.path.join(WORK, "ray"), f"/tmp/feedbench-ray-{child.pid}"):
                    shutil.rmtree(ray_dir, ignore_errors=True)
            child.wait()
            stop_session(child.pid)
            child.stdout.close()
            shutil.rmtree(work, ignore_errors=True)
    if timed_out:
        print(f"{name}: watchdog fired after {WATCHDOG_S} s; the open round counts as failed",
              file=sys.stderr)
        return {
            "correct": False,
            "attempted": rounds_seen + 1,
            "failed": failed_seen + 1,
            "metrics": {},
        }, 1
    if child.returncode and result is None:
        with open(log_path) as f:
            sys.stderr.write(f.read()[-4000:])
    return result, child.returncode


def report(name: str, result: dict) -> None:
    for metric, m in result["metrics"].items():
        print(f"  {name} {metric} = {m['value']:.6g} {m['unit']}")
    share = result["failed"] / result["attempted"]
    print(f"  {name} {FAILED_OPS} = {share:.6g} share ({result['failed']}/{result['attempted']} rounds)")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=12)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isdir(os.path.join(ROOT, "virtuoso_quad_log_ray")):
        print(f"engine package virtuoso_quad_log_ray not found under {ROOT}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    code = 0
    for name in names:
        result, rc = run_workload(name, args.seed, args.seconds, args.trace)
        if result is None:
            print(f"{name}: no result (exit {rc})", file=sys.stderr)
            return rc or 1
        report(name, result)
        results[name] = result
        code = code or rc
    print(json.dumps(results[names[0]] if len(names) == 1 else results), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
