"""Benchmark for momentmix.

Usage, from the root of a checkout:

    python3 bench/run.py --workload exact-m5 --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --seed 1            # every workload, one process each

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer
ones from a run that records spans (see spans.py).  Full results and the
spans go to ``bench/out/``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# BLAS is pinned to one thread before numpy loads, in this process and in
# the processes it starts.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
NAMES = ("exact-m5", "noisy-m4", "mixture-m3")
IMPORT_REPEATS = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_seconds() -> float:
    """Median wall time of importing momentmix in a fresh interpreter."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import momentmix"
    times = []
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_all(args) -> int:
    status = 0
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status = subprocess.run(cmd, cwd=ROOT).returncode or status
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "momentmix" / "__init__.py").is_file():
        print(f"bench: no momentmix package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    setup_import = import_seconds()

    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    t0 = time.perf_counter()
    workload.prepare()
    setup_prepare = time.perf_counter() - t0
    tracer = spans.Tracer() if args.trace else None
    runner = workloads.Runner()
    setup_times, round_times, trials, first_round = [], [], [], []
    aborted = 0
    start = time.perf_counter()
    index = 0
    # A new round starts only if a round as long as the median one so far
    # still ends within --seconds, so that a run does not overrun by most
    # of a round.
    while index == 0 or (time.perf_counter() - start
                         + statistics.median(round_times) <= args.seconds):
        round_start = time.perf_counter()
        # A traced run records spans in its even rounds only; each odd
        # round repeats the inputs of the round before without spans, so
        # the two give the tracing overhead on the same work.
        runner.tracer = tracer if index % 2 == 0 else None
        t0 = time.perf_counter()
        round_inputs = workload.make_round(args.seed, index // 2 if tracer else index)
        setup_times.append(time.perf_counter() - t0)
        if runner.tracer:
            tracer.install()
        try:
            for trial in round_inputs:
                before = len(runner.outcomes)
                try:
                    workload.run_trial(trial, runner)
                except workloads.TrialAborted as exc:
                    aborted += 1
                    print(f"bench: trial aborted: {exc}", file=sys.stderr)
                    continue
                finally:
                    if index == 0:
                        first_round += runner.outcomes[before:]
                done = runner.outcomes[before:]
                if not trial.get("fault") and not any(o.failed for o in done):
                    firsts = [o for o in done if not o.repeat]
                    trials.append((sum(o.seconds for o in firsts),
                                   sum(o.scaled_s for o in firsts),
                                   runner.tracer is not None))
        finally:
            if runner.tracer:
                tracer.uninstall()
        round_times.append(time.perf_counter() - round_start)
        index += 1

    outcomes = runner.outcomes
    problems = [f"{o.op}: {p}" for o in outcomes for p in o.problems]
    failed = sum(o.failed for o in outcomes)
    def op_seconds(op):
        return [o.scaled_s for o in outcomes if o.op == op and not o.failed]

    solver, aux = op_seconds(workload.solver), op_seconds(workload.aux)
    result = {"correct": not problems, "attempted": len(outcomes), "failed": failed}
    if args.trace:
        metrics, coverage = spans.per_layer_metrics(
            tracer, outcomes, first_round, trials, workload.solver)
    else:
        metrics = {
            "setup_s": {"value": setup_import + setup_prepare + statistics.median(setup_times),
                        "unit": "s"},
            "solve_s": {"value": spans.median_or_zero(solver), "unit": "s"},
            "aux_op_s": {"value": spans.median_or_zero(aux), "unit": "s"},
            "trial_s": {"value": spans.median_or_zero([t for _, t, _ in trials]), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    result["metrics"] = metrics

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  rounds=index, aborted_trials=aborted, problems=problems,
                  setup_import_s=setup_import, setup_prepare_s=setup_prepare,
                  setup_round_s=setup_times, round_s=round_times, trial_s=trials,
                  ops=[{"op": o.op, "seconds": o.seconds, "probe_s": o.probe_s,
                        "scaled_s": o.scaled_s, "failed": o.failed} for o in outcomes])
    if args.trace:
        detail["coverage"] = coverage
        (OUT / f"spans-{stem}.json").write_text(json.dumps(tracer.dump()))
    (OUT / f"result-{stem}.json").write_text(json.dumps(detail, indent=1))
    for p in problems:
        print(f"bench: check failed: {p}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
