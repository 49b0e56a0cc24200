"""Benchmark of the bicomplex library and CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``./src`` and
nothing needs building.  ``NAME`` is one of ``elements``, ``census``,
``ntheory`` and ``cli`` (see ``workloads.py`` for what each runs and why),
or ``all`` to run the four in turn.  Every workload is a closed loop with a
single caller in a single process with one thread; each phase runs in a
fresh process, so caches start cold.

Times are scaled to a nominal machine speed: the worker runs a fixed
reference computation that uses no bicomplex code throughout each phase
(small or big-number arithmetic, or for ``cli`` the start of a bare Python
process; see ``worker.py``) and scales every time by (nominal slice time /
measured slice time).  On a
shared virtual machine the CPU speed can change by 20% and more from minute
to minute; the scaling cancels that while leaving every change of the
program's own speed in full.  The summary lines also print the times as
measured.

``--trace 0`` reports the end-to-end metrics, from untraced runs:

* ``ops_per_s``: operations attempted / summed wall time of the timed calls;
* ``op_p50_ms``, ``op_p90_ms``: median and 90th percentile of the per-call
  times, failed calls included (at least 100 calls, so at least 10 lie
  beyond the 90th percentile; the sample count is printed);
* ``ok_frac``: operations that passed their check / attempted.  The
  failure fraction is 1 - ok_frac; failed and attempted counts are also in
  the result line.  (A metric that is 0 on a clean run cannot carry a
  relative bound, so the passing share is the metric.)  No operation of any
  workload fails on the program as it stands, so it reads 1;
* ``setup_s``: import of bicomplex, generation of the first inputs and the
  warm-up, before timing starts; the median of five set-ups in fresh
  processes;
* ``peak_rss_mb``: peak resident memory of the measuring process (for
  ``cli``, of its largest child process).

``--trace 1`` runs the workload's fixed number of rounds twice in fresh
processes, untraced and then traced, and reports the per-layer metrics of
``tracer.py`` plus ``trace.overhead_frac`` (1 - traced ops_per_s / untraced
ops_per_s), ``census.numeric_agree_frac`` (the share of the traced round's
product polynomials on which the numeric root oracle, which is not a timed
operation, gives the exact real-root count), and the CLI metrics
``cli.startup_s`` (median time to start Python and import bicomplex.cli,
scaled by the start of a bare Python process),
``cli.main_s`` (median time of ``cli.main(argv)`` in process) and
``cli.exit_mismatch``.  Layers a workload does not reach report 0.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``failed`` counts every failed
operation; ``correct`` is false when any operation, warm-up included,
fails.  The exit code is 0 when the
benchmark ran, whatever the checks found; it is not 0 when the program
cannot be found or a phase crashes.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

from worker import REFERENCES

BENCH = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("elements", "census", "ntheory", "cli")
SETUP_SAMPLES = 5
STARTUP_SAMPLES = 5
RUN_LIMIT_S = 170


class PhaseError(RuntimeError):
    """A worker process crashed or printed no result."""


def _worker(args: list[str], deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        raise PhaseError(f"{' '.join(args)}: ran past the time limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PhaseError(f"{' '.join(args)}: exit {proc.returncode}")
    return json.loads(lines[-1])


def _startup_s() -> float:
    """Median wall time to start Python and import bicomplex.cli, each
    scaled by the start of a bare Python process right after it."""
    spawn_slice, nominal = REFERENCES["spawn"]
    env = dict(os.environ, PYTHONPATH=os.path.join(os.getcwd(), "src"))
    times = []
    for _ in range(STARTUP_SAMPLES):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import bicomplex.cli"], env=env, check=True)
        elapsed = perf_counter() - start
        times.append(elapsed * nominal / spawn_slice())
    return statistics.median(times)


def end_to_end(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    base = ["--workload", workload, "--seed", str(seed)]
    setups = [_worker(base + ["--setup-only"], deadline) for _ in range(SETUP_SAMPLES - 1)]
    run = _worker(base + ["--seconds", str(seconds)], deadline)
    setups.append(run)
    run["warmup_failed"] = sum(s["warmup_failed"] for s in setups)
    run["raw_setup_s"] = statistics.median(s["raw_setup_s"] for s in setups)
    metrics = {
        "ops_per_s": (run["ops_per_s"], "ops/s"),
        "op_p50_ms": (run["op_p50_ms"], "ms"),
        "op_p90_ms": (run["op_p90_ms"], "ms"),
        "ok_frac": (1 - run["failed"] / run["attempted"], "ratio"),
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MiB"),
    }
    return {"runs": [run], "metrics": metrics}


def per_layer(workload: str, seed: int, deadline: float) -> dict:
    base = ["--workload", workload, "--seed", str(seed), "--fixed-work"]
    plain = _worker(base, deadline)
    traced = _worker(base + ["--trace"], deadline)
    metrics = {name: tuple(value_unit) for name, value_unit in traced["layers"].items()}
    metrics["census.numeric_agree_frac"] = (traced.get("numeric_agree_frac", 0.0), "ratio")
    metrics["cli.startup_s"] = (_startup_s(), "s")
    metrics["cli.main_s"] = (traced.get("cli_main_s", 0.0), "s")
    metrics["cli.exit_mismatch"] = (traced.get("cli_exit_mismatch", 0), "count")
    metrics["trace.overhead_frac"] = (1 - traced["ops_per_s"] / plain["ops_per_s"], "ratio")
    return {"runs": [plain, traced], "metrics": metrics}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return the result object of the last line."""
    deadline = perf_counter() + RUN_LIMIT_S
    phase = per_layer(workload, seed, deadline) if trace else \
        end_to_end(workload, seed, seconds, deadline)
    attempted = sum(run["attempted"] for run in phase["runs"])
    failed = sum(run["failed"] for run in phase["runs"])
    warmup_failed = sum(run["warmup_failed"] for run in phase["runs"])
    for run in phase["runs"]:
        for err in run["errors"]:
            print(f"{workload}: failed {err}", file=sys.stderr)
    _print_summary(workload, phase, attempted, failed, warmup_failed)
    return {
        "correct": failed == 0 and warmup_failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in phase["metrics"].items()},
    }


def _print_summary(workload: str, phase: dict, attempted: int, failed: int, warmup_failed: int):
    run = phase["runs"][-1]
    print(f"{workload}: {attempted} operations in {sum(r['rounds'] for r in phase['runs'])} rounds, "
          f"{failed} failed (failed_frac {failed / attempted:.4g}), "
          f"{warmup_failed} warm-up failures; "
          f"{run['attempted']} samples in the last phase, {run['beyond_p90']} beyond p90")
    print(f"  as measured: ops_per_s={run['raw_ops_per_s']:.6g} op_p50_ms={run['raw_op_p50_ms']:.6g} "
          f"op_p90_ms={run['raw_op_p90_ms']:.6g} setup_s={run['raw_setup_s']:.6g}; "
          f"reference slice {run['ref_slice_ms']:.4g} ms (nominal {run['ref_nominal_ms']:g} ms)")
    for kind, entry in sorted(run["kinds"].items()):
        print(f"  {kind:16} n={entry['n']:<6} failed={entry['failed']:<5} "
              f"mean_ms={entry['time_s'] / entry['n'] * 1e3:.3f}")
    for name, (value, unit) in phase["metrics"].items():
        print(f"  {name} = {value:.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="bicomplex benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "bicomplex", "__init__.py")):
        print("error: src/bicomplex not found; run from the repository root", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: measure(name, args.seed, args.seconds, bool(args.trace))
                   for name in names}
    except PhaseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
