"""Benchmark of fptkit: seeded workloads, each in fresh subprocesses.

    python3 bench/run.py --workload scan_cusp --seed 1 --seconds 24 --trace 0
    python3 bench/run.py --workload all                    # every workload
    python3 bench/run.py --workload all --trace 1          # per-layer metrics

A run starts the workload's process once to run the workload (see
worker.py), and SETUP_PROBES more times, half before and half after, only
to time its set-up (interpreter start, ``import fptkit``, input
generation).  It prints a table of metrics and, as its last line, one JSON
object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` the per-layer
metrics of tracer.py, from passes that alternate with untraced ones.
An operation that fails its check, or that runs longer than OP_CAP_S,
counts in ``failed``; a hung operation also ends the run.  A run whose
passes are slow but not hung ends at RUN_CAP_S with the passes that
finished; only a run in which not one pass finished fails.  The exit code is
1, with no result line, when the workload's process cannot even start (for
example when the checkout holds no fptkit to import).
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
DIGESTS = HERE / "digests.json"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = tuple(workloads.WORKLOADS)
DIGEST_SEEDS = range(10)

SETUP_PROBES = 8
OP_CAP_S = 60.0
RUN_CAP_S = 150.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


class Worker:
    """A worker.py process whose JSON lines are read with a timeout."""

    def __init__(self, args: list[str]):
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(WORKER), *args],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, cwd=ROOT,
        )
        self.returncode: int | None = None
        self.maxrss_kb = 0
        self._buf = b""

    def read(self, timeout: float) -> dict | None:
        """Next record; None at end of output; TimeoutError if none comes."""
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise TimeoutError
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                return None
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return json.loads(line)

    def stop(self, grace: float = 10.0) -> None:
        """Reap the process, killing it if it has not exited within grace
        seconds; keep its peak RSS.  (Its output can end a moment before
        it has exited.)"""
        if self.returncode is not None:
            return
        deadline = time.monotonic() + grace
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() >= deadline:
                self.proc.kill()
                _, status, usage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.005)
        self.returncode = os.waitstatus_to_exitcode(status)
        self.proc.returncode = self.returncode
        self.maxrss_kb = usage.ru_maxrss
        self.proc.stdout.close()


def _expect_ready(w: Worker) -> float:
    try:
        rec = w.read(OP_CAP_S)
    except TimeoutError:
        w.stop(grace=0)
        raise BenchError(f"the workload process was not ready within {OP_CAP_S:.0f} s") from None
    if rec is None or rec.get("event") != "ready":
        w.stop()
        raise BenchError(f"the workload process did not start (exit code {w.returncode})")
    return time.perf_counter() - w.start


def time_setup(worker_args: list[str]) -> float:
    w = Worker(worker_args + ["--setup-only"])
    try:
        seconds = _expect_ready(w)
        while w.read(OP_CAP_S) is not None:
            pass
        w.stop()
    except TimeoutError:
        raise BenchError("a set-up probe did not finish") from None
    finally:
        w.stop(grace=0)
    if w.returncode != 0:
        raise BenchError(f"a set-up probe exited with code {w.returncode}")
    return seconds


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload; returns the result object plus its problems."""
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    # half the set-up probes before the workload and half after it, so the
    # median spans the run rather than the few seconds before it
    setups = [time_setup(args) for _ in range(SETUP_PROBES // 2)]
    OUT_DIR.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR)
    w = Worker(args + ["--out", out_dir])
    ops, pass_recs, problems, notes = [], [], [], []
    capped = False
    try:
        setups.append(_expect_ready(w))
        last = time.perf_counter()  # when the last operation ended
        while True:
            now = time.perf_counter()
            op_left, run_left = last + OP_CAP_S - now, w.start + RUN_CAP_S - now
            try:
                rec = w.read(min(op_left, run_left))
            except TimeoutError:
                if op_left <= run_left:
                    why = f"an operation ran longer than the operation cap of {OP_CAP_S:.0f} s"
                elif not pass_recs:
                    why = f"no pass finished within the run cap of {RUN_CAP_S:.0f} s"
                else:  # slow but not hung: keep the passes that finished
                    capped = True
                    notes.append(f"the run cap of {RUN_CAP_S:.0f} s ended the run after "
                                 f"{len(pass_recs)} passes; the pass in progress is left out")
                    break
                ops.append({"op": "(running)", "wall": time.perf_counter() - last, "traced": False,
                            "problems": [why]})
                break
            last = time.perf_counter()
            if rec is None:
                w.stop()
                break
            if rec["event"] == "op":
                ops.append(rec)
            elif rec["event"] == "pass":
                pass_recs.append(rec)
    finally:
        w.stop(grace=0)
        shutil.rmtree(out_dir, ignore_errors=True)
    setups += [time_setup(args) for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    if w.returncode != 0 and not capped:
        problems.append(f"workload process exited with code {w.returncode}")
    for op in ops:
        problems += [f"{op['op']}: {p}" for p in op["problems"]]
    failed = sum(1 for op in ops if op["problems"])

    wall = pass_wall(ops, pass_recs)
    if trace:
        metrics = layer_summary(pass_recs, ops, wall, problems)
    else:
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": w.maxrss_kb / 1024,
        }
    return {
        "correct": not problems,
        "attempted": max(len(ops), 1),
        "failed": failed if ops else 1,
        "metrics": metrics,
        "passes": len(pass_recs),
        "problems": problems,
        "notes": notes,
    }


def pass_wall(ops: list[dict], pass_recs: list[dict], traced: bool = False) -> float:
    """Time of one (untraced or traced) pass: the sum over its operations
    of each one's median time over the passes that finished.  Operation by
    operation, the median discards the passes that a few seconds of load
    from outside slowed down."""
    n = sum(1 for p in pass_recs if p["traced"] == traced)
    if n == 0:  # not one pass finished: charge the time the operations took
        return sum(op["wall"] for op in ops)
    walls: dict[str, list[float]] = {}
    for op in ops:
        if op["traced"] == traced:
            walls.setdefault(op["op"], []).append(op["wall"])
    return sum(statistics.median(w[:n]) for w in walls.values())


def layer_summary(pass_recs: list[dict], ops: list[dict], untraced_wall: float, problems: list[str]) -> dict:
    """Per-layer metrics: medians over traced passes for times; counts from
    the first traced pass, which every other traced pass must repeat."""
    traced = [p for p in pass_recs if p["traced"]]
    if not traced:
        problems.append("no traced pass finished")
        return {}
    layers = [p["layers"] for p in traced]
    metrics = {}
    for key in layers[0]:
        values = [layer[key] for layer in layers]
        if key in tracer.COUNTS:
            if len(set(values)) != 1:
                problems.append(f"{key} differs between traced passes: {values}")
            metrics[key] = values[0]
        else:
            metrics[key] = statistics.median(values)
    metrics["trace.overhead_s"] = pass_wall(ops, pass_recs, traced=True) - untraced_wall
    return metrics


def unit(metric: str) -> str:
    if metric in END_TO_END:
        return END_TO_END[metric]
    if metric.endswith("_s"):
        return "s"
    return "ratio" if metric.endswith("_ratio") else "count"


def print_table(name: str, seed: int, res: dict) -> None:
    ratio = res["failed"] / res["attempted"]
    print(f"{name} (seed {seed}): {res['passes']} passes, {res['attempted']} operations, "
          f"{res['failed']} failed; ops_failed_ratio {ratio:.4f} ratio")
    for metric, value in res["metrics"].items():
        print(f"  {metric:28s} {value:14.6f} {unit(metric)}")
    for note in res["notes"]:
        print(f"  note: {note}", file=sys.stderr)
    for problem in res["problems"][:20]:
        print(f"  problem: {problem}", file=sys.stderr)


def record_digests() -> None:
    """Write digests.json: every operation's output digest for DIGEST_SEEDS."""
    OUT_DIR.mkdir(exist_ok=True)
    table: dict = {}
    for name in WORKLOADS:
        table[name] = {}
        for seed in DIGEST_SEEDS:
            out_dir = tempfile.mkdtemp(dir=OUT_DIR)
            w = Worker(["--workload", name, "--seed", str(seed), "--seconds", "0", "--passes", "1",
                        "--out", out_dir])
            digests = []
            try:
                _expect_ready(w)
                while (rec := w.read(OP_CAP_S)) is not None:
                    if rec["event"] == "op":
                        if rec["problems"]:
                            raise BenchError(f"{name} seed {seed}: {rec['problems']}")
                        digests.append(rec["digest"])
                w.stop()
            finally:
                w.stop(grace=0)
                shutil.rmtree(out_dir, ignore_errors=True)
            table[name][str(seed)] = digests
    DIGESTS.write_text(json.dumps(table, indent=1) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=24.0, help="how long one workload measures")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true",
                    help=f"record output digests for seeds {DIGEST_SEEDS.start}..{DIGEST_SEEDS.stop - 1} and exit")
    args = ap.parse_args(argv)
    try:
        if args.record_digests:
            record_digests()
            return 0
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
            print_table(name, args.seed, results[name])
    except BenchError as ex:
        print(f"benchmark could not run: {ex}", file=sys.stderr)
        return 1
    if len(names) == 1:
        metrics = {k: {"value": v, "unit": unit(k)} for k, v in results[names[0]]["metrics"].items()}
    else:
        metrics = {f"{n}.{k}": {"value": v, "unit": unit(k)}
                   for n, res in results.items() for k, v in res["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
