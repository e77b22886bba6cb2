"""One workload in one process: the body that bench/run.py starts.

The process imports fptkit from the checkout's ``src/``, generates the
workload's operations from the seed, says ``ready``, and then repeats passes
over the operations (a closed loop: one operation at a time) until
``--seconds`` have gone by.  It reports on its standard output, one JSON
object a line: ``ready``, one ``op`` line per operation and one ``pass``
line per pass (with the per-layer metrics of a traced pass).

With ``--trace 1`` passes alternate between untraced and traced, so the
tracer's overhead is the difference of their wall times.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import time
import traceback
from pathlib import Path

import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".bench_out"
DIGESTS = Path(__file__).with_name("digests.json")

MIN_PASSES = 3
MIN_PASSES_TRACED = 4
# No pass starts after this many seconds, whatever --seconds says, so a
# regression that slows every pass cannot hold the run past its time limit.
LATEST_PASS_START_S = 100.0


def emit(**record) -> None:
    sys.__stdout__.write(json.dumps(record) + "\n")
    sys.__stdout__.flush()


def import_fptkit():
    sys.path.insert(0, str(ROOT / "src"))
    import fptkit.cli

    where = Path(fptkit.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise ImportError(f"fptkit was imported from {where}, not from this checkout")
    return fptkit.cli


def run_op(cli, op: workloads.Op, out_dir: str) -> tuple[workloads.Outcome, float]:
    argv = [a.replace("{out}", out_dir) for a in op.argv]
    for name in op.files:
        Path(out_dir, name).unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as ex:  # argparse rejecting the arguments
            rc = ex.code if isinstance(ex.code, int) else 2
        except Exception:  # a crash inside fptkit is a failed operation
            rc = -1
            traceback.print_exc()
    wall = time.perf_counter() - start
    files = {name: Path(out_dir, name).read_bytes() for name in op.files if Path(out_dir, name).exists()}
    return workloads.Outcome(rc, out.getvalue(), err.getvalue(), files), wall


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", help="directory for the report files operations write")
    ap.add_argument("--passes", type=int, default=0,
                    help="run this many passes, without comparing outputs with digests.json, "
                         "to record them (0: run by time and compare)")
    args = ap.parse_args(argv)
    if not args.setup_only and not args.out:
        ap.error("--out is required unless --setup-only is given")

    cli = import_fptkit()
    ops = workloads.generate(args.workload, args.seed)
    emit(event="ready")
    if not args.setup_only:
        run_passes(cli, ops, args)
    return 0


def run_passes(cli, ops: list[workloads.Op], args) -> None:
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() and not args.passes else {}
    expected = recorded.get(args.workload, {}).get(str(args.seed))
    first_payloads: list[bytes] = []
    min_passes = MIN_PASSES_TRACED if args.trace else MIN_PASSES
    kept_spans = None
    start = time.perf_counter()
    n = 0
    while True:
        elapsed = time.perf_counter() - start
        if args.passes:
            if n >= args.passes:
                break
        elif elapsed >= LATEST_PASS_START_S:
            break
        elif n >= min_passes and elapsed + elapsed / n > args.seconds:
            break  # the next pass would likely end after --seconds
        traced = bool(args.trace) and n % 2 == 1
        tr = tracing.Tracer()
        state: dict = {}
        pass_start = time.perf_counter()
        for i, op in enumerate(ops):
            with tr.installed() if traced else contextlib.nullcontext():
                outcome, wall = run_op(cli, op, args.out)
            try:
                problems = op.check(outcome, state)
            except Exception:  # output the check cannot even read
                problems = ["check failed: " + traceback.format_exc(limit=2)]
            if outcome.rc == -1:
                problems.append("crashed: " + outcome.stderr[-500:])
            payload = outcome.payload()
            sha = hashlib.sha256(payload).hexdigest()[:16]
            if n == 0:
                first_payloads.append(payload)
                if expected is not None and sha != expected[i]:
                    problems.append("output differs from the digest recorded for this seed")
            elif payload != first_payloads[i]:
                problems.append("output differs from the first pass")
            emit(event="op", op=op.name, wall=wall, traced=traced,
                 problems=problems, digest=sha)
        layers = None
        if traced:
            layers = tracing.layer_metrics(tr.spans)
            if kept_spans is None:
                kept_spans = tracing.span_records(tr.spans, pass_start)
        emit(event="pass", traced=traced, layers=layers)
        n += 1
    if kept_spans is not None:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace_{args.workload}_seed{args.seed}.json"
        path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                    "columns": ["name", "parent", "start_s", "end_s", "terms_in", "terms_out"],
                                    "spans": kept_spans}))


if __name__ == "__main__":
    sys.exit(main())
