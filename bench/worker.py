"""One measured phase of a workload, in a fresh process.

    python3 bench/worker.py --workload NAME --seed N (--seconds S | --rounds R | --fixed-work | --setup-only) [--trace]

Run from the repository root; the package is imported from ``./src``.  The
worker imports ``bicomplex``, builds the workload's first inputs and runs
its warm-up operations (that is the set-up time), then runs whole rounds of
operations, timing each call on its own.  With ``--seconds`` it stops after
the round during which the time ran out, once at least ``MIN_OPS``
operations ran; with ``--rounds`` it runs exactly that many rounds, and with
``--fixed-work`` the workload's own number of rounds for traced runs.  With
``--trace`` the calls into ``bicomplex`` are wrapped in spans (see
``tracer.py``).  The last line of stdout is one JSON object.

On a shared virtual machine (2 vCPUs at 2.1 GHz, Python 3.11.7) the CPU
speed was seen to drift by 20% and more over tens of seconds, as other
tenants load the host.  So the worker also runs a fixed reference
computation that calls no bicomplex code after every
``REF_EVERY_S`` of timed operations and right after set-up.  Each
operation's time is scaled by (nominal slice time) / (median time of the
reference slices nearest to it), that is, to the machine speed at which a
slice takes its nominal time.  A change to the program moves scaled and raw
(as measured) times equally; a change of machine speed moves only the raw
ones.  The slowdowns do not hit all code alike: small-number interpreter
work (``cpu_slice``) was seen to take twice its time, big-integer arithmetic
(``bigint_slice``) much less.  So each workload names the slice that tracks
its own operations best (``Workload.reference``); the ``cli`` workload,
whose operations are process starts, uses the start of a bare
``python -c pass``.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

# With 100 timed operations, at least 10 lie above the 90th percentile.
MIN_OPS = 100
# A time-limited phase stops here even mid-round, so a run ends in time.
HARD_CAP_S = 110.0
REF_EVERY_S = 0.05
SETUP_REF_SLICES = 5
# Slices on each side of an operation whose median gives its local speed.
REF_NEIGHBOURS = 2


def cpu_slice() -> float:
    """Seconds taken by a fixed computation that uses no bicomplex code."""
    start = perf_counter()
    q, acc = Fraction(0), 0
    for i in range(1, 800):
        q += Fraction(i % 89, i % 97 + 1)
        acc += (i * i) % 7
    return perf_counter() - start


# Fractions whose numerators and denominators have 1400 to 2100 bits.
BIG_FRACTIONS = [Fraction(3 ** (900 + 7 * i) + i, 5 ** (600 + 5 * i) + 2 * i + 1)
                 for i in range(8)]


def bigint_slice() -> float:
    """Seconds taken by products and sums of large Fractions, that is by
    big-integer multiplication and gcd; uses no bicomplex code."""
    start = perf_counter()
    for i in range(len(BIG_FRACTIONS)):
        for j in range(i):
            BIG_FRACTIONS[i] * BIG_FRACTIONS[j] + BIG_FRACTIONS[j - 1]
    return perf_counter() - start


def spawn_slice() -> float:
    """Seconds taken to start and stop a Python process that does nothing."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return perf_counter() - start


# Reference slices by name, with their nominal times in seconds.
REFERENCES = {"cpu": (cpu_slice, 0.002), "bigint": (bigint_slice, 0.0015),
              "spawn": (spawn_slice, 0.04)}


def import_package(root: str):
    """Import bicomplex from ``root/src`` and nowhere else."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import bicomplex
    import bicomplex.cli  # noqa: F401  (the cli layer is traced too)
    if os.path.dirname(os.path.dirname(os.path.abspath(bicomplex.__file__))) != src:
        raise SystemExit(f"bicomplex was imported from {bicomplex.__file__}, not {src}")
    return bicomplex


def run_op(op, tracer=None) -> tuple[float, bool, str]:
    """Time one operation and check it: (seconds, ok, error text)."""
    if tracer is not None:
        tracer.active = True
    result = exc = None
    start = perf_counter()
    try:
        result = op.run()
    except Exception as caught:  # any raise is an outcome the check judges
        exc = caught
    elapsed = perf_counter() - start
    if tracer is not None:
        tracer.active = False
        tracer.fold()
    try:
        ok = bool(op.check(result, exc))
    except Exception as caught:  # a check that cannot read the result fails it
        ok, exc = False, caught
    return elapsed, ok, "" if ok else f"{op.kind}: {exc!r}" if exc else f"{op.kind}: wrong result"


def local_scales(slices: list[float], segments: list[int], nominal: float) -> list[float]:
    """Nominal slice time over the median of the slices around each segment."""
    k = REF_NEIGHBOURS
    scale = [nominal / statistics.median(slices[max(0, i - k):i + k + 1])
             for i in range(len(slices))]
    return [scale[i] for i in segments]


def summarize(records: list[tuple[str, float, bool]], scales: list[float] | None = None) -> dict:
    """End-to-end statistics of (kind, seconds, ok) records, each time
    multiplied by its entry in ``scales``."""
    scales = scales or [1.0] * len(records)
    records = [(kind, t * scale, ok) for (kind, t, ok), scale in zip(records, scales)]
    times = [t for _, t, _ in records]
    failed = sum(not ok for _, _, ok in records)
    p90 = statistics.quantiles(times, n=10, method="inclusive")[8] if len(times) > 1 else times[0]
    kinds: dict[str, dict] = {}
    for kind, t, ok in records:
        entry = kinds.setdefault(kind, {"n": 0, "failed": 0, "time_s": 0.0})
        entry["n"] += 1
        entry["failed"] += not ok
        entry["time_s"] += t
    return {
        "attempted": len(records),
        "failed": failed,
        "timed_s": sum(times),
        "ops_per_s": len(records) / sum(times),
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_p90_ms": p90 * 1e3,
        "beyond_p90": sum(t > p90 for t in times),
        "kinds": kinds,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--seconds", type=float)
    mode.add_argument("--rounds", type=int)
    mode.add_argument("--fixed-work", action="store_true")
    mode.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    setup_start = perf_counter()
    import_package(os.getcwd())
    import workloads
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(extra_namespaces=[workloads])
    workload = workloads.WORKLOADS[args.workload](args.seed)
    if args.fixed_work:
        args.rounds = workload.trace_rounds
    pending = workload.round(0)
    warmup_failures = [err for op in workload.warmup() for _, ok, err in [run_op(op)] if not ok]
    setup_s = perf_counter() - setup_start
    reference_slice, nominal = REFERENCES[workload.reference]
    setup_ref = statistics.median(reference_slice() for _ in range(SETUP_REF_SLICES))
    for err in warmup_failures:
        print(f"warm-up failure: {err}", file=sys.stderr)
    out = {"setup_s": setup_s * nominal / setup_ref, "raw_setup_s": setup_s,
           "warmup_failed": len(warmup_failures)}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    records: list[tuple[str, float, bool]] = []
    errors: list[str] = []
    # Operations between two reference slices form a segment; the slice
    # after a segment measures the machine speed during it.
    slices: list[float] = []
    segments: list[int] = []
    since_slice = 0.0
    loop_start = perf_counter()
    r = 0
    while True:
        ops = pending if r == 0 else workload.round(r)
        for op in ops:
            elapsed, ok, err = run_op(op, tracer)
            records.append((op.kind, elapsed, ok))
            segments.append(len(slices))
            since_slice += elapsed
            if since_slice >= REF_EVERY_S:
                slices.append(reference_slice())
                since_slice = 0.0
            if not ok:
                errors.append(err)
            if tracer is not None:
                workload.trace_extra(op, tracer)
            if perf_counter() - loop_start > HARD_CAP_S:
                break
        r += 1
        wall = perf_counter() - loop_start
        if args.rounds is not None and r >= args.rounds:
            break
        if args.seconds is not None and wall >= args.seconds and len(records) >= MIN_OPS:
            break
        if wall > HARD_CAP_S:
            print(f"stopped at the {HARD_CAP_S:.0f} s cap after {r} rounds", file=sys.stderr)
            break
    if since_slice:
        slices.append(reference_slice())
    scales = local_scales(slices, segments, nominal)
    ref_s = statistics.median(slices)
    out.update(summarize(records, scales))
    raw = summarize(records)
    out.update({f"raw_{k}": raw[k] for k in ("ops_per_s", "op_p50_ms", "op_p90_ms")})
    out["ref_slice_ms"] = ref_s * 1e3
    out["ref_nominal_ms"] = nominal * 1e3
    out["rounds"] = r
    out["wall_s"] = perf_counter() - loop_start
    usage = resource.RUSAGE_CHILDREN if workload.rss_of_children else resource.RUSAGE_SELF
    out["peak_rss_mb"] = resource.getrusage(usage).ru_maxrss / 1024
    out["errors"] = errors[:20]
    if tracer is not None:
        scale = nominal / ref_s
        out["layers"] = {name: (value * scale if unit == "s" else value, unit)
                         for name, (value, unit) in tracer.metrics().items()}
        if workload.name == "census":
            out["numeric_agree_frac"] = workload.numeric_agree / workload.numeric_calls
        if workload.name == "cli":
            out["cli_main_s"] = statistics.median(workload.main_s) * scale
            out["cli_exit_mismatch"] = workload.exit_mismatch
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
