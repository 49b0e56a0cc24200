"""Self-tests of the benchmark itself.

    python3 bench/selftest.py        # from the repository root; about half a minute

1. One round of each workload, in a fresh process, passes its checks: no
   operation fails.
2. A traced round reports every per-layer metric named in BENCHMARK.json,
   and a traced ``census`` round reports the numeric oracle's agreement.
3. The checkers can fail: for one operation of every kind, a deliberately
   wrong result is rejected, and a worker phase whose round is made of such
   operations counts every one of them as failed.

Exits 1 when any test fails.  Not part of the repository's test suite.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import types

BENCH = os.path.dirname(os.path.abspath(__file__))
# Per-layer metrics added by run.py rather than by the traced worker.
RUN_LEVEL_METRICS = {"census.numeric_agree_frac", "cli.startup_s", "cli.main_s",
                     "cli.exit_mismatch", "trace.overhead_frac"}

failures: list[str] = []


def expect(ok: bool, message: str):
    print(f"{'ok  ' if ok else 'FAIL'} {message}")
    if not ok:
        failures.append(message)


def worker(*args: str) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "worker.py"), *args],
                          stdout=subprocess.PIPE, text=True, timeout=170)
    if proc.returncode != 0:
        raise SystemExit(f"worker {' '.join(args)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def short_runs(workloads):
    for name in workloads.WORKLOADS:
        out = worker("--workload", name, "--seed", "3", "--rounds", "1")
        failed = {k: e["failed"] for k, e in out["kinds"].items() if e["failed"]}
        expect(out["attempted"] > 0 and not failed and out["warmup_failed"] == 0,
               f"{name}: one round, {out['attempted']} operations, failures {failed or 'none'}")


def traced_round():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as handle:
        names = {m["name"] for m in json.load(handle)["per_layer"]}
    out = worker("--workload", "ntheory", "--seed", "3", "--rounds", "1", "--trace")
    missing = names - RUN_LEVEL_METRICS - set(out["layers"])
    expect(not missing and out["layers"]["zeta.busy_s"][0] > 0,
           f"traced ntheory round reports every per-layer metric (missing: {sorted(missing)})")
    out = worker("--workload", "census", "--seed", "3", "--rounds", "1", "--trace")
    agree = out.get("numeric_agree_frac")
    expect(agree is not None and 0 <= agree <= 1 and out["failed"] == 0
           and out["layers"]["census.numeric_roots.busy_s"][0] > 0,
           f"traced census round runs the numeric oracle outside the timed operations "
           f"(agreement {agree})")


def _changed(obj, **fields):
    return types.SimpleNamespace(**{**vars(obj), **fields})


def _corruptors(bc):
    """Per operation kind, a function turning a correct result into a wrong one."""
    def element(out):
        return {**out, "minpoly_at": bc.ONE}

    return {
        "qb": element, "qb_int": element, "qh": element, "qh_int": element, "quad": element,
        "cyclotomic": lambda c: _changed(c, real_roots=c.real_roots + 2),
        "product_census": lambda c: _changed(c, off_plane=c.off_plane + 1),
        "gauss_split": lambda out: (out[0], out[1] * bc.Poly.of(1, 1)),
        "factor": lambda f: dataclasses.replace(f, factors=f.factors[:-1]),
        "profile": lambda p: _changed(p, factor_count=p.factor_count + 1),
        "units": lambda info: _changed(info, finite=True),
        "zeta": lambda out: (out[0], out[1] * (1 + 1e-9)),
        "radix": lambda out: (out[0], out[1] + out[1]),
        "cli_readme": lambda out: (out[0], out[1] + b"x"),
        "cli_variant": lambda out: (out[0] ^ 1, out[1]),
        "cli_error": lambda out: (out[0], out[1] + b"x"),
    }


def _wrong_phase(worker_module, workloads, cls, ops) -> dict:
    """Run one worker phase, in this process, whose round is ``ops``."""
    class Wrong(cls):
        def round(self, r):
            return ops

        def warmup(self):
            return []

    workloads.WORKLOADS["wrong"] = Wrong
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        worker_module.main(["--workload", "wrong", "--seed", "3", "--rounds", "1"])
    del workloads.WORKLOADS["wrong"]
    return json.loads(out.getvalue().strip().splitlines()[-1])


def checkers_can_fail(worker_module, bc, workloads):
    corrupt = _corruptors(bc)
    for cls in list(workloads.WORKLOADS.values()):
        workload = cls(3)
        wrong, done = [], set()
        for op in workload.warmup() + workload.round(0):
            if op.kind in done:
                continue
            try:
                result = op.run()
            except Exception:  # an expected raise (radix -2+j) has nothing to corrupt
                continue
            if op.check(result, None):
                done.add(op.kind)
                bad = workloads.Op(op.kind, lambda op=op: corrupt[op.kind](op.run()), op.check)
                _, ok, _ = worker_module.run_op(bad)
                expect(not ok, f"{cls.name}/{op.kind}: a wrong result is rejected")
                wrong.append(bad)
        out = _wrong_phase(worker_module, workloads, cls, wrong)
        expect(out["attempted"] == out["failed"] == len(wrong) > 0,
               f"{cls.name}: a worker phase of {len(wrong)} wrong results counts "
               f"{out['failed']} of {out['attempted']} failed")


def main() -> int:
    if not os.path.isfile(os.path.join("src", "bicomplex", "__init__.py")):
        print("run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, BENCH)
    import worker as worker_module
    bc = worker_module.import_package(os.getcwd())
    import workloads
    short_runs(workloads)
    traced_round()
    checkers_can_fail(worker_module, bc, workloads)
    print(f"{len(failures)} self-test failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
