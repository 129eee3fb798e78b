"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload honest-mid-defended --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the program is imported from
``src/auctionlab`` next to this directory, never from anywhere else.  One
process, one thread, a closed loop: each operation starts when the last one
has been checked.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates an
untraced and a traced pass over the seed's first round of operations, and
prints the per-layer metrics of the traced passes, per operation, with the
tracing overhead against the untraced passes.  The last line of standard
output is always the JSON result; a metric with no successful operation to
measure is null.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import tracer as tracer_mod
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 5

END_TO_END = {"setup_s": "s", "op_s_p50": "s", "ops_per_s": "1/s",
              "board_kib_per_op": "KiB", "peak_rss_mib": "MiB"}


def call_op(op, tally, tracer=None):
    """Time op.call(), inside a root span when traced.
    Returns (seconds, output), or None when the call raised."""
    tally["attempted"] += 1
    start = time.perf_counter()
    try:
        if tracer is None:
            output = op.call()
        else:
            with tracer.op():
                output = op.call()
    except Exception:
        tally["failed"] += 1
        print(f"FAILED {op.label}:\n{traceback.format_exc()}", file=sys.stderr)
        return None
    return time.perf_counter() - start, output


def check_op(op, output, tally):
    """Check an operation's output.  Returns its board bytes, or None when
    the check failed."""
    try:
        problems, size = op.check(output)
    except Exception:
        problems, size = [traceback.format_exc()], 0
    if problems:
        tally["failed"] += 1
        print(f"FAILED {op.label}: {'; '.join(problems)}", file=sys.stderr)
        return None
    return size


def run_op(op, tally):
    """Time op.call(), then check it.
    Returns (seconds, board bytes), or None when the operation failed."""
    called = call_op(op, tally)
    if called is None:
        return None
    size = check_op(op, called[1], tally)
    return None if size is None else (called[0], size)


def set_up(workload, workdir):
    """Import the program afresh, make the warm-up inputs and run one
    untimed warm-up operation.  Returns the fresh modules and the time taken."""
    start = time.perf_counter()
    lab = workloads.load_lab()
    if Path(lab.package.__file__).resolve().parent != ROOT / "src" / "auctionlab":
        sys.exit(f"auctionlab was imported from {lab.package.__file__}")
    warmup = workload.make_round(lab, "warmup", 0, workdir)[0]
    if run_op(warmup, {"attempted": 0, "failed": 0}) is None:
        sys.exit("warm-up operation failed")
    return lab, time.perf_counter() - start


def measure(workload, seed, seconds, workdir, tally):
    """Whole rounds of fresh operations until the time is spent.

    op_s_p50 is the median, over the rounds, of a round's mean operation
    time.  A round holds the same mix in every run: eight or two auctions,
    or one pass over the attack set.  A median over single operations would
    fall in the gap between scenario kinds whose costs differ a thousandfold,
    or between auctions with and without a restart, and it spread 13-24 %
    from run to run on a shared two-vCPU host.

    The set-up is repeated after each of the first rounds, so its SETUPS
    samples are spread over the run rather than taken back to back; the time
    it takes does not count towards ``seconds``.
    """
    lab, first = set_up(workload, workdir)
    setups = [first]
    round_means, sizes = [], []
    done_ops, spent, measured = 0, 0.0, 0.0
    index = 0
    while index == 0 or measured < seconds:
        round_start = time.perf_counter()
        round_ops, round_spent = 0, 0.0
        for op in workload.make_round(lab, seed, index, workdir):
            before = time.perf_counter()
            done = run_op(op, tally)
            round_spent += time.perf_counter() - before if done is None else done[0]
            if done is not None:
                round_ops += 1
                if index == 0:
                    sizes.append(done[1])
        measured += time.perf_counter() - round_start
        if round_ops:
            round_means.append(round_spent / round_ops)
        done_ops += round_ops
        spent += round_spent
        index += 1
        if len(setups) < SETUPS:
            lab, elapsed = set_up(workload, workdir)
            setups.append(elapsed)
    while len(setups) < SETUPS:
        setups.append(set_up(workload, workdir)[1])
    return {
        "setup_s": statistics.median(setups),
        "op_s_p50": statistics.median(round_means) if round_means else None,
        "ops_per_s": done_ops / spent,
        # Over the first round only, so the figure depends on the seed alone.
        "board_kib_per_op": statistics.fmean(sizes) / 1024 if sizes else None,
    }


def measure_traced(workload, seed, seconds, workdir, tally):
    """Alternate untraced and traced passes over the seed's first round."""
    lab = set_up(workload, workdir)[0]
    ops = workload.make_round(lab, seed, 0, workdir)
    tracer = tracer_mod.Tracer(lab.canonical_bytes)
    plain = traced = 0.0
    start = time.perf_counter()
    while tracer.ops == 0 or time.perf_counter() - start < seconds:
        for op in ops:
            done = run_op(op, tally)
            plain += done[0] if done else 0.0
        # Outputs are checked once the wrappers are gone: the checks encode
        # payloads too, and that is not the program's work.
        uninstall = tracer_mod.install(tracer, lab)
        try:
            called = [call_op(op, tally, tracer) for op in ops]
        finally:
            uninstall()
        for op, done in zip(ops, called):
            if done is not None and check_op(op, done[1], tally) is not None:
                traced += done[0]
    metrics = tracer.metrics()
    metrics["trace.overhead_pct"] = 100.0 * (traced / plain - 1.0) if plain else None
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()

    workload = workloads.WORKLOADS[args.workload]
    scratch = ROOT / ".bench_build"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="perfbench-", dir=scratch))
    tally = {"attempted": 0, "failed": 0}
    try:
        if args.trace:
            metrics = measure_traced(workload, args.seed, args.seconds, workdir, tally)
            units = dict(tracer_mod.PER_LAYER, **{"trace.overhead_pct": "%"})
        else:
            metrics = measure(workload, args.seed, args.seconds, workdir, tally)
            metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": tally["failed"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def _import_program() -> None:
    """Put this checkout's src/ first on the path, or stop: a benchmark run
    without the program's sources has nothing to measure."""
    if not (ROOT / "src" / "auctionlab" / "__init__.py").is_file():
        sys.exit(f"no program sources at {ROOT / 'src' / 'auctionlab'}")
    # One thread: keep numpy's BLAS pool from starting workers.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(ROOT / "src"))


if __name__ == "__main__":
    sys.exit(main())
