"""Run-to-run spread of the benchmark, and A/B comparison of two trees.

    python3 bench/compare.py spread [--workloads W,...] [--first-seed 1]
    python3 bench/compare.py ab PARENT CHANGE [--workloads W,...] [--seeds dev|held_out]

Both run ``bench/run.py`` from this directory, so the two sides of an A/B
comparison use identical benchmark code; each tree is a source checkout
(for example ``git archive <rev> | tar -x -C DIR``) and runs with its own
``src``.  Run length and bounds come from ``BENCHMARK.json``.

``spread`` runs each workload once for each of ten seeds and prints, per
end-to-end metric, the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread (q3 - q1) / median against the metric's bound; for the times
it also prints the spread of the times as measured, before the scaling to the
reference speed (see ``worker.py``).  The last line is all of it as JSON.

``ab`` runs ten pairs, alternating which side goes first; pair ``i`` uses
seed ``base + i`` on both sides, with the base from ``baseline.json`` (a gain
claimed on the development seeds must also hold on the held-out ones).  For
each workload and metric it prints both sides' median and quartiles, the
pairs the change won, and a verdict:

* ``gain``: the change won at least 9 of the 10 pairs (ties count for
  neither), the medians differ by more than the parent's quartile distance,
  and the change's median failed share is not above the parent's (else
  ``no gain: more failures``);
* ``unresolved``: the parent's spread is wider than the metric's bound,
  unless every run of the change reads better than every run of the parent;
* ``regression``: the change's median is worse than the parent's by more
  than the bound;
* ``within bound``: none of these.

Runs that report ``correct: false`` are printed.  ``ab`` exits 1 on a
regression, or when the change has such runs and the parent has none.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
# Seeds per workload in ``spread``, and pairs in ``ab`` (choosing-metrics §8).
RUNS = 10
# run.py's summary line with the times as measured, before scaling.
RAW_LINE = re.compile(r"^  as measured: (.*?);")


def load_json(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def stats(values: list[float]) -> dict:
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("inf"),
            "values": values}


def run_once(tree: str, workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """The result object of one untraced run, and its times as measured."""
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {tree} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    raw = {}
    for line in lines:
        match = RAW_LINE.match(line)
        if match:
            raw = {k: float(v) for k, v in (kv.split("=") for kv in match.group(1).split())}
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(f"  {tree}: {workload} seed {seed} reports correct=false "
              f"({result['failed']} of {result['attempted']} failed)", flush=True)
    return result, raw


def spread(args, spec) -> int:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for workload in args.workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        raw_values: dict[str, list[float]] = {}
        for k in range(RUNS):
            seed = args.first_seed + k
            result, raw = run_once(os.getcwd(), workload, seed, spec["run_seconds"])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            for name, value in raw.items():
                raw_values.setdefault(name, []).append(value)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        report[workload] = {"scaled": {}, "as_measured": {}}
        for name, bound in bounds.items():
            entry = report[workload]["scaled"][name] = stats(values[name])
            flag = ("ok" if entry["spread"] < bound / 3 else
                    "within bound" if entry["spread"] <= bound else "TOO WIDE")
            line = (f"  {workload:9} {name:12} median={entry['median']:<12.6g} "
                    f"q1={entry['q1']:<12.6g} q3={entry['q3']:<12.6g} "
                    f"spread={entry['spread']:.4f} bound={bound} {flag}")
            if name in raw_values:
                raw_entry = report[workload]["as_measured"][name] = stats(raw_values[name])
                line += f"  (as measured: spread={raw_entry['spread']:.4f})"
            print(line)
    print(json.dumps(report))
    return 0


def verdict(parent: list[float], change: list[float], better: str, bound: float,
            more_failures: bool) -> tuple[str, int]:
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    pq1, pmed, pq3 = quartiles(parent)
    cmed = statistics.median(change)
    if wins >= 0.9 * RUNS and sign * (cmed - pmed) > pq3 - pq1:
        return ("no gain: more failures" if more_failures else "gain"), wins
    if (pq3 - pq1) / pmed > bound:
        all_better = min(sign * c for c in change) > max(sign * p for p in parent)
        return ("better in every run" if all_better else "unresolved"), wins
    if -sign * (cmed - pmed) / pmed > bound:
        return "regression", wins
    return "within bound", wins


def ab(args, spec) -> int:
    seed_base = load_json(os.path.join(BENCH, "baseline.json"))["seeds"][args.seeds]
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    regressions = 0
    newly_incorrect = False
    for workload in args.workloads:
        values = {side: {m["name"]: [] for m in spec["end_to_end"]} for side in sides}
        failed_share = {side: [] for side in sides}
        incorrect = {side: 0 for side in sides}
        for i in range(RUNS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                result, _ = run_once(sides[side], workload, seed_base + i, spec["run_seconds"])
                failed_share[side].append(result["failed"] / result["attempted"])
                incorrect[side] += not result["correct"]
                for name, entry in result["metrics"].items():
                    if name in values[side]:
                        values[side][name].append(entry["value"])
        more_failures = statistics.median(failed_share["change"]) > \
            statistics.median(failed_share["parent"])
        if incorrect["change"] and not incorrect["parent"]:
            newly_incorrect = True
        print(f"{workload:9} runs with correct=false: parent {incorrect['parent']}, "
              f"change {incorrect['change']}; median failed share: parent "
              f"{statistics.median(failed_share['parent']):.4g}, change "
              f"{statistics.median(failed_share['change']):.4g}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            parent, change = values["parent"][name], values["change"][name]
            label, wins = verdict(parent, change, metric["better"], metric["bound"], more_failures)
            regressions += label == "regression"
            pq, cq = quartiles(parent), quartiles(change)
            print(f"{workload:9} {name:12} parent {pq[1]:.6g} [{pq[0]:.6g}, {pq[2]:.6g}]  "
                  f"change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}]  "
                  f"wins {wins}/{len(parent)}  {label}", flush=True)
    return 1 if regressions or newly_incorrect else 0


def main(argv=None) -> int:
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("spread", help="spread of each metric over ten seeds")
    p.add_argument("--first-seed", type=int, default=1)
    p = sub.add_parser("ab", help="compare a parent tree with a change tree")
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--seeds", choices=("dev", "held_out"), default="dev")
    for p in sub.choices.values():
        p.add_argument("--workloads", type=lambda s: s.split(","), default=names)
    args = parser.parse_args(argv)
    return spread(args, spec) if args.command == "spread" else ab(args, spec)


if __name__ == "__main__":
    sys.exit(main())
