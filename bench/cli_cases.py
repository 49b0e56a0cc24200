"""Command lines of the ``cli`` workload and their golden outputs.

The pool holds the README command lines, seeded variants of them, and
usage-error (exit 1) and domain-error (exit 2) cases.  The golden file
records each case's exit code and exact stdout as produced by the commit
that defined the benchmark; a run passes only when both match byte for
byte.  Regenerate the golden file only when a change is meant to alter CLI
output, and say so in the change:

    python3 bench/cli_cases.py        # from the repository root
"""
from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from fractions import Fraction

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_golden.json")
ENTRY = "import sys; from bicomplex.cli import main; sys.exit(main())"

README = [
    ["minpoly", "1+i+j-k"],
    ["decompose", "1+i+j-k"],
    ["conj", "1+i+j-k", "--axis", "j"],
    ["norm", "[2, 2*i]"],
    ["charpoly4", "1+i+j-k"],
    ["census", "--poly", "X^3 - 2*X^2 + 4*X - 8"],
    ["census", "--cyclotomic", "12"],
    ["roots", "--poly", "X^2 + 1"],
    ["roots", "--element", "1+i+j-k", "--bicomplex"],
    ["factor", "[6, 35]", "--L", "Qh"],
    ["factor", "5", "--L", "QB"],
    ["primes-profile", "3", "--L", "QB"],
    ["units", "--L", "QB"],
    ["disc", "--L", "QB"],
    ["ideal-count", "--K", "QB", "--max", "20"],
    ["ideal-count", "--K", "Qh", "--max", "100", "--out", "table.csv"],
    ["zeta", "--K", "Qh", "--s", "2", "--N", "10000"],
    ["radix-encode", "[7, -4]", "--base", "split:-2"],
    ["radix-decode", "--base", "split:-2", "--digits", "1 4 3 0 3 5"],
]


def _number(rng, fractions: bool) -> Fraction:
    den = rng.choice((1, 1, 2, 3, 5)) if fractions else 1
    return Fraction(rng.randint(-9, 9), den)


def _term(coeff: Fraction, unit: str, first: bool) -> str:
    sign = "-" if coeff < 0 else ("" if first else "+")
    mag = abs(coeff)
    if not unit:
        return f"{sign}{mag}"
    return f"{sign}{unit}" if mag == 1 else f"{sign}{mag}*{unit}"


def _cartesian(rng, fractions: bool = True) -> str:
    """A Cartesian literal; it never starts with '-', which argparse would
    take for an option."""
    parts = []
    for unit in ("", "i", "j", "k"):
        c = _number(rng, fractions)
        if c:
            parts.append(_term(abs(c) if not parts else c, unit, not parts))
    return "".join(parts) or "1+j"


def _gaussian(rng, lo: int = -9, hi: int = 9) -> str:
    re, im = rng.randint(lo, hi), rng.randint(lo, hi)
    if im == 0:
        return str(re)
    return (_term(Fraction(re), "", True) if re else "") + _term(Fraction(im), "i", re == 0)


def _element(rng) -> str:
    if rng.random() < 0.6:
        return _cartesian(rng)
    return f"[{_gaussian(rng)}, {_gaussian(rng)}]"


def _poly(coeffs) -> str:
    """Polynomial literal from integer coefficients, lowest degree first."""
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        unit = "" if k == 0 else ("X" if k == 1 else f"X^{k}")
        parts.append(_term(Fraction(c), unit, not parts))
    return " ".join(parts).replace("+", "+ ").replace(" -", " - ")


def _squarefree_poly(rng) -> str:
    coeffs = [1]
    roots = rng.sample(range(-6, 7), rng.randint(1, 3))
    for r in roots:
        coeffs = [a - r * b for a, b in zip([0] + coeffs, coeffs + [0])]
    if rng.random() < 0.5:
        q = rng.randint(1, 9)
        coeffs = [a + q * b for a, b in zip([0, 0] + coeffs, coeffs + [0, 0])]
    return _poly(coeffs)


def _maybe_json(rng, argv):
    return argv + ["--json"] if rng.random() < 0.3 else argv


def variants(rng) -> list[list[str]]:
    out = []
    for _ in range(8):
        out.append(_maybe_json(rng, ["decompose", _element(rng)]))
        out.append(_maybe_json(rng, ["conj", _element(rng), "--axis", rng.choice("ijk")]))
        out.append(_maybe_json(rng, ["norm", _element(rng)]))
        out.append(_maybe_json(rng, ["minpoly", _element(rng)]))
        out.append(_maybe_json(rng, ["charpoly4", _cartesian(rng)]))
    for _ in range(6):
        out.append(_maybe_json(rng, ["census", "--poly", _squarefree_poly(rng)]))
        out.append(_maybe_json(rng, ["census", "--cyclotomic", str(rng.randint(2, 60))]))
        out.append(_maybe_json(rng, ["census", "--element", _cartesian(rng, False)]))
        out.append(_maybe_json(rng, ["roots", "--poly", f"X^2 + {rng.randint(1, 20)}"]))
        out.append(_maybe_json(rng, ["roots", "--element", _cartesian(rng, False), "--bicomplex"]))
    for _ in range(6):
        out.append(_maybe_json(rng, ["factor", f"[{_gaussian(rng, 2, 60)}, {_gaussian(rng, 2, 60)}]",
                                     "--L", "QB"]))
        out.append(_maybe_json(rng, ["factor", f"[{rng.randint(2, 999)}, {-rng.randint(2, 999)}]",
                                     "--L", "Qh"]))
        out.append(_maybe_json(rng, ["primes-profile", str(rng.choice((2, 3, 5, 7, 11, 13, 97, 101))),
                                     "--L", rng.choice(("QB", "Qh"))]))
    extensions = ["Qh", "QB", "custom:Q,Qi", "custom:Q(sqrt:2),Q", "custom:Q(sqrt:-3),Q(sqrt:-3)",
                  "custom:Q(sqrt:5),Q(sqrt:5)", "custom:Qi,Q(sqrt:-7)", "custom:Q(sqrt:13),Qi"]
    for L in extensions:
        out.append(_maybe_json(rng, ["units", "--L", L]))
        out.append(_maybe_json(rng, ["disc", "--L", L]))
    for _ in range(5):
        K = rng.choice(("Q", "Qi", "Qh", "QB"))
        out.append(_maybe_json(rng, ["ideal-count", "--K", K, "--max", str(rng.randint(5, 60))]))
        out.append(_maybe_json(rng, ["zeta", "--K", K, "--s", rng.choice(("2", "3", "5/2")),
                                     "--N", str(rng.randint(100, 5000))]))
    for _ in range(4):
        m, n, u, v = (rng.randint(-400, 400) for _ in range(4))
        out.append(_maybe_json(rng, ["radix-encode", f"[{m}, {n}]",
                                     "--base", rng.choice(("split:-2", "split:-3"))]))
        gauss = _term(Fraction(u), "", True) + _term(Fraction(v), "i", False)
        out.append(_maybe_json(rng, ["radix-encode", f"[{gauss}, {gauss}]",
                                     "--base", rng.choice(("gauss:-1+i", "gauss:-2-i"))]))
        digits = " ".join(str(rng.randint(0, 5)) for _ in range(rng.randint(1, 8)))
        out.append(_maybe_json(rng, ["radix-decode", "--base", "split:-2", "--digits", digits]))
        digits = " ".join(str(rng.randint(0, 1)) for _ in range(rng.randint(1, 12)))
        out.append(_maybe_json(rng, ["radix-decode", "--base", "gauss:-1-i", "--digits", digits]))
    return out


def errors(rng) -> list[list[str]]:
    """Usage errors (exit 1) and domain errors (exit 2)."""
    out = [
        ["minpoly", "1+*i"], ["decompose", "[1, 2"], ["norm", "2*q"],
        ["census", "--poly", "2X"], ["census", "--poly", "X^2 - 2*X + 1"],
        ["factor", "[6, 35]", "--L", "QX"], ["units", "--L", "custom:Q"], ["units"],
        ["radix-encode", "[7, -4]", "--base", "split:x"],
        ["radix-decode", "--base", "gauss:-1+i", "--digits", "1 a"],
        ["ideal-count", "--K", "QZ", "--max", "5"], ["zeta", "--K", "Qh", "--s", "1", "--N", "10"],
        ["conj", "1+i", "--axis", "q"], ["frobnicate"], ["minpoly", "-1+i"],
        ["factor", "1", "--L", "QB"], ["factor", "[0, 3]", "--L", "QB"],
        ["factor", "[1, -1]", "--L", "Qh"], ["radix-encode", "1+j", "--base", "jgauss:-2"],
    ]
    for _ in range(6):
        out.append(["factor", f"[0, {rng.randint(2, 99)}]", "--L", rng.choice(("QB", "Qh"))])
        out.append(["radix-encode", f"{2 * rng.randint(0, 14) + 1}/2+{rng.randint(1, 30)}*j",
                    "--base", "split:-2"])
        out.append(["minpoly", f"{rng.randint(1, 9)}+{rng.randint(1, 9)}*z"])
    return out


def pool() -> dict[str, list[list[str]]]:
    rng = random.Random("bicomplex-cli-pool")
    return {"readme": README, "variant": variants(rng), "error": errors(rng)}


def golden_cases() -> dict[str, list[dict]]:
    """The golden cases grouped as ``readme``, ``variant`` and ``error``."""
    with open(GOLDEN) as handle:
        cases = json.load(handle)
    grouped: dict[str, list[dict]] = {}
    for case in cases:
        grouped.setdefault(case["group"], []).append(case)
    return grouped


def _capture(argv, workdir, env) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, "-c", ENTRY, *argv], cwd=workdir, env=env,
                          capture_output=True, timeout=120)
    return proc.returncode, proc.stdout.decode()


def main() -> int:
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "bicomplex", "__init__.py")):
        print("run from the repository root", file=sys.stderr)
        return 2
    workdir = os.path.join(root, ".bench_work", "cli")
    os.makedirs(workdir, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=src)
    cases = []
    for group, argvs in pool().items():
        for argv in argvs:
            code, out = _capture(argv, workdir, env)
            if (code, out) != _capture(argv, workdir, env):
                print(f"nondeterministic output: {argv}", file=sys.stderr)
                return 1
            if (group == "error") != (code in (1, 2)) or code not in (0, 1, 2):
                print(f"unexpected exit {code} for {group} case {argv}", file=sys.stderr)
                return 1
            cases.append({"group": group, "argv": argv, "exit": code, "stdout": out})
    with open(GOLDEN, "w") as handle:
        json.dump(cases, handle, indent=1)
        handle.write("\n")
    print(f"wrote {len(cases)} cases to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
