import csv
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import bicomplex
from bicomplex import minpoly, polys
from bicomplex.cli import (
    _SUBCOMMANDS,
    JSON_SLICE,
    ParseError,
    build_parser,
    idempotent_literal,
    main,
    parse_element,
    parse_extension,
    parse_field,
    parse_poly,
    parse_radix_base,
    parse_table_key,
)
from bicomplex.element import BicomplexElement, format_cartesian
from bicomplex.minpoly import minpoly_bicomplex
from bicomplex.numtheory import RHO_STEP_LIMIT, WorkBudgetError
from bicomplex.polys import Poly, format_poly
from bicomplex.radix import GaussBase, HypGaussBase, HypSplitBase
from bicomplex.rings import PELL_BIT_LIMIT, ExtensionDescriptor, QB, QH, QuadraticField, Q_FIELD
from bicomplex.scalars import GaussianRational
from bicomplex.zeta import TABLE_LENGTH_LIMIT, coefficient_table


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_element_cartesian():
    assert parse_element("1+i+j-k") == BicomplexElement.from_cartesian(1, 1, 1, -1)
    assert parse_element("3/2 - 5/7*j") == BicomplexElement.from_cartesian(
        Fraction(3, 2), 0, Fraction(-5, 7), 0)
    assert parse_element("-k") == BicomplexElement.from_cartesian(0, 0, 0, -1)
    assert parse_element("0") == BicomplexElement.from_cartesian(0, 0, 0, 0)
    assert parse_element(" 2 * i + 1 ") == BicomplexElement.from_cartesian(1, 2, 0, 0)


def test_parse_element_idempotent():
    assert parse_element("[2, 2*i]") == BicomplexElement(GaussianRational(2, 0),
                                                         GaussianRational(0, 2))
    assert parse_element("[1/2+i, -3]") == BicomplexElement(
        GaussianRational(Fraction(1, 2), 1), GaussianRational(-3, 0))


def test_parse_element_errors_carry_positions():
    for text in ("1+", "2x", "[2, 2*i", "1+q", "3//2", "[1, 2] junk", "", "1 2", "i^2", "2*"):
        with pytest.raises(ParseError) as err:
            parse_element(text)
        assert "position" in str(err.value)


def test_parse_print_round_trip_corpus():
    rng = random.Random(91)
    for _ in range(1000):
        if rng.random() < 0.5:
            coords = [Fraction(rng.randrange(-20, 21), rng.randrange(1, 9))
                      for _ in range(4)]
            el = BicomplexElement.from_cartesian(*coords)
            text = format_cartesian(el.to_cartesian())
        else:
            parts = [Fraction(rng.randrange(-20, 21), rng.randrange(1, 9))
                     for _ in range(4)]
            el = BicomplexElement(GaussianRational(parts[0], parts[1]),
                                  GaussianRational(parts[2], parts[3]))
            text = idempotent_literal(el)
        assert parse_element(text) == el
    for _ in range(300):
        poly = Poly.of(*(Fraction(rng.randrange(-20, 21), rng.randrange(1, 9)) * rng.randrange(2)
                         for _ in range(rng.randrange(8))))
        assert parse_poly(format_poly(poly)) == poly


fractions = st.fractions(min_value=-50, max_value=50, max_denominator=20)
gaussians = st.builds(GaussianRational, fractions, fractions)
round_trips = settings(derandomize=True, max_examples=60, deadline=None)


@round_trips
@given(st.one_of(st.builds(BicomplexElement.from_cartesian, fractions, fractions, fractions,
                           fractions),
                 st.builds(BicomplexElement, gaussians, gaussians)))
def test_parse_element_reads_what_str_prints(x):
    assert parse_element(str(x)) == x
    assert parse_element(idempotent_literal(x)) == x


@round_trips
@given(st.lists(fractions, max_size=10))
def test_parse_poly_reads_what_format_poly_prints(coeffs):
    p = Poly.of(*coeffs)
    assert parse_poly(format_poly(p)) == p


def test_parse_poly():
    assert parse_poly("X^3 - 2*X^2 + 4*X - 8") == Poly.of(-8, 4, -2, 1)
    assert parse_poly("X") == Poly.of(0, 1)
    assert parse_poly("7") == Poly.of(7)
    assert parse_poly("1/2*X^2 + X") == Poly.of(0, 1, Fraction(1, 2))
    with pytest.raises(ParseError):
        parse_poly("2X")  # implicit multiplication is rejected
    for text in ("X^", "2*", "X^2 - 3*", "2*-X", "2^3", "X + 1 1"):
        with pytest.raises(ParseError):
            parse_poly(text)


def _random_terms(rng, units):
    """A random valid sum of terms over the unit letters ('' is a constant):
    signs, blanks between tokens, 'n/d' coefficients, repeated units and
    'X^k' with small k; and the coefficient it sums for each (unit, power)."""
    def blank():
        return rng.choice(("", "", " ", "  ", "\t"))

    text, value = "", {}
    for first in [True] + [False] * rng.randrange(6):
        sign = rng.choice("+-") if not first or rng.random() < 0.3 else ""
        unit = rng.choice(units)
        num, den = rng.randrange(50), rng.choice((1, 1, rng.randrange(1, 30)))
        coeff = f"{num}" if den == 1 and rng.random() < 0.5 else f"{num}{blank()}/{blank()}{den}"
        power = rng.randrange(6) if unit in ("X", "x") else 1
        if not unit:
            term, power = coeff, 0
        elif rng.random() < 0.5:
            term, num, den = unit, 1, 1
        else:
            term = f"{coeff}{blank()}*{blank()}{unit}"
        if unit in ("X", "x") and (power != 1 or rng.random() < 0.3):
            term += f"{blank()}^{blank()}{power}"
        text += f"{blank()}{sign}{blank()}{term}"
        key = unit.upper() if unit in ("X", "x") else unit, power
        value[key] = value.get(key, 0) + Fraction(-num if sign == "-" else num, den)
    return text + blank(), value


def test_parse_literal_grammar_property():
    rng = random.Random(25)
    for _ in range(400):
        text, value = _random_terms(rng, ("", "i", "j", "k", "i"))
        assert parse_element(text) == BicomplexElement.from_cartesian(
            value.get(("", 0), 0), *(value.get((u, 1), 0) for u in "ijk")), text
        parts = [_random_terms(rng, ("", "i")) for _ in range(2)]
        text = f"[{parts[0][0]},{parts[1][0]}]"
        assert parse_element(text) == BicomplexElement(*(
            GaussianRational(v.get(("", 0), 0), v.get(("i", 1), 0)) for _, v in parts)), text
        text, value = _random_terms(rng, ("", "X", "x", "X"))
        coeffs = [0] * 6
        for (_, power), c in value.items():
            coeffs[power] += c
        assert parse_poly(text) == Poly.of(*coeffs), text


def test_parse_random_strings_parse_or_report_a_position():
    alphabet = "0123456789/*+-^ \tijkXx[],q!"
    rng = random.Random(26)
    for _ in range(4000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(14)))
        if rng.random() < 0.5:  # one edit of a valid literal
            text, _ = _random_terms(rng, ("", "i", "X"))
            k = rng.randrange(len(text) + 1)
            text = text[:k] + rng.choice(alphabet) * rng.randrange(2) + text[k + rng.randrange(2):]
        if re.search(r"\^\s*\d{4}", text):
            continue  # powers stay small: past polys.DEGREE_LIMIT they raise WorkBudgetError
        for parse in (parse_element, parse_poly):
            try:
                parse(text)
            except ParseError as err:
                assert 0 <= err.pos <= len(text), text


def test_parse_descriptors():
    assert parse_extension("Qh") == QH
    assert parse_extension("QB") == QB
    assert parse_extension("custom:Q(sqrt:-3),Q") == ExtensionDescriptor(
        QuadraticField(-3), Q_FIELD)
    assert parse_field("Q") == Q_FIELD
    assert parse_table_key("Qi") == QuadraticField(-1)
    assert parse_radix_base("split:-2") == HypSplitBase(-2)
    assert parse_radix_base("jgauss:-3") == HypGaussBase(-3)
    assert parse_radix_base("gauss:-1+i") == GaussBase(-1, 1)
    assert parse_radix_base("gauss:-2-i") == GaussBase(-2, -1)
    for bad in ("Qx", "custom:Q", "custom:Q,Q,Q"):
        with pytest.raises(ParseError):
            parse_extension(bad)
    for bad in ("gauss:-1", "split:x", "weird:-2"):
        with pytest.raises(ParseError):
            parse_radix_base(bad)


def test_cli_minpoly_flagship_element(capsys):
    code, out, _ = run(capsys, "minpoly", "1+i+j-k")
    assert code == 0
    assert out.splitlines()[0] == "X^3 - 2*X^2 + 4*X - 8"


def test_cli_decompose(capsys):
    code, out, _ = run(capsys, "decompose", "1+i+j-k")
    assert code == 0
    assert out.strip() == "[2, 2*i]"


def test_cli_disc(capsys):
    code, out, _ = run(capsys, "disc", "--L", "QB")
    assert (code, out.strip()) == (0, "16")
    code, out, _ = run(capsys, "disc", "--L", "Qh")
    assert (code, out.strip()) == (0, "1")
    # a 31-digit radicand: squarefreeness is checked by factoring, no hang
    code, out, _ = run(capsys, "disc", "--L", "custom:Q(sqrt:1000000000000000000000000000001),Q")
    assert (code, out.strip()) == (0, "1000000000000000000000000000001")


def test_cli_ideal_count_json(capsys):
    code, out, _ = run(capsys, "ideal-count", "--K", "QB", "--max", "5", "--json")
    assert code == 0
    assert json.loads(out) == [1, 2, 0, 3, 4]


@pytest.mark.parametrize("key", ["Q", "Qi", "Qh", "QB"])
def test_cli_ideal_count_json_is_one_dumps(capsys, key):
    """The array goes out a slice at a time; its bytes are those of one
    json.dumps, at QB's first count past a byte (a(8840) = 256) and past a
    slice boundary too."""
    for n in (1, 20, 8841, JSON_SLICE + 1):
        code, out, _ = run(capsys, "ideal-count", "--K", key, "--max", str(n), "--json")
        values = coefficient_table(parse_table_key(key), n).values
        assert (code, out) == (0, json.dumps(values, sort_keys=True) + "\n")


def test_cli_ideal_count_csv(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, _ = run(capsys, "ideal-count", "--K", "Qh", "--max", "6", "--out", str(target))
    assert code == 0
    with open(target, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["n", "a_n"]
    assert rows[1:] == [["1", "1"], ["2", "2"], ["3", "2"], ["4", "3"], ["5", "2"], ["6", "4"]]


def test_cli_census(capsys):
    code, out, _ = run(capsys, "census", "--poly", "X^3 - 2*X^2 + 4*X - 8")
    assert code == 0
    assert "real roots: 1" in out
    assert "total bicomplex roots: 9" in out
    code, out, _ = run(capsys, "census", "--cyclotomic", "5", "--json")
    assert code == 0
    assert json.loads(out)["total"] == 16
    # The cyclotomic census is the closed form: no root count at degree 5760.
    code, out, _ = run(capsys, "census", "--cyclotomic", "30030")
    assert (code, out.splitlines()[1:3]) == (0, ["degree: 5760", "real roots: 0"])


def test_cli_census_counts_mignottes_cluster(capsys):
    # x^60 - 2(10^20 x - 1)^2: two real roots about 10^-620 apart
    code, out, _ = run(capsys, "census", "--poly", f"X^60 - {2 * 10 ** 40}*X^2 + {4 * 10 ** 20}*X - 2")
    assert (code, out.splitlines()[1:3]) == (0, ["degree: 60", "real roots: 4"])


def test_cli_census_exits_2_at_the_isolation_work_limit(capsys, monkeypatch):
    monkeypatch.setattr(polys, "ISOLATION_WORK_LIMIT", 10)
    code, out, err = run(capsys, "census", "--poly", "X^4 - 5*X^2 + 4")
    assert (code, out) == (2, "")
    assert "more than 10 Taylor-shift word additions" in err


def test_cli_norm_and_conj(capsys):
    code, out, _ = run(capsys, "norm", "[2, 2*i]")
    assert (code, out.strip()) == (0, "16")
    code, out, _ = run(capsys, "conj", "1+i+j-k", "--axis", "j")
    assert (code, out.strip()) == (0, "1-i+j+k")


def test_cli_factor(capsys):
    code, out, _ = run(capsys, "factor", "[6, 35]", "--L", "Qh")
    assert code == 0
    assert out.splitlines() == [
        "unit [1, 1]",
        "prime [2, 1] ^ 1",
        "prime [3, 1] ^ 1",
        "prime [1, 5] ^ 1",
        "prime [1, 7] ^ 1",
    ]


def test_cli_factor_accepts_cartesian_hyperbolic_literal(capsys):
    code, out, _ = run(capsys, "factor", "4+j", "--L", "Qh")  # 5*e1 + 3*e2
    assert code == 0
    assert out.splitlines() == ["unit [1, 1]", "prime [5, 1] ^ 1", "prime [1, 3] ^ 1"]


def test_cli_primes_profile(capsys):
    code, out, _ = run(capsys, "primes-profile", "3", "--L", "QB")
    assert code == 0
    assert "semiprime: yes" in out


def test_cli_primes_profile_of_twenty_digit_primes(capsys):
    code, out, _ = run(capsys, "primes-profile", "10000000000000000051", "--L", "QB")
    assert code == 0  # 3 mod 4: inert in both components
    assert "2 prime factors" in out and "semiprime: yes" in out
    code, out, _ = run(capsys, "primes-profile", "10000000000000000097", "--L", "QB")
    assert code == 0  # 1 mod 4: splits in both components
    assert "4 prime factors" in out and "semiprime: no" in out


def test_cli_units(capsys):
    code, out, _ = run(capsys, "units", "--L", "QB", "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["order"] == 16
    assert payload["structure"] == "Z/4 x Z/4"


def test_cli_zeta(capsys):
    code, out, _ = run(capsys, "zeta", "--K", "Qh", "--s", "2", "--N", "10000")
    assert code == 0
    assert abs(float(out) - 2.70581) < 2e-3


def test_cli_roots(capsys):
    code, out, _ = run(capsys, "roots", "--poly", "X^2 + 1")
    assert code == 0
    assert len(out.splitlines()) == 2
    code, out, _ = run(capsys, "roots", "--element", "1+i+j-k", "--bicomplex", "--json")
    payload = json.loads(out)
    assert code == 0
    assert len(payload["off_plane"]["roots"]) == 4


def test_cli_roots_bicomplex_rejects_a_repeated_root(capsys):
    # (2X + 1)^2: the exact root set would hold -1/2 once, not twice
    code, out, err = run(capsys, "roots", "--poly", "4*X^2+4*X+1", "--bicomplex")
    assert (code, out) == (1, "")
    assert "defined for squarefree polynomials only" in err


def test_cli_roots_element_bicomplex_computes_the_minpoly_once(capsys, monkeypatch):
    calls = []

    def spy(element):
        calls.append(element)
        return minpoly_bicomplex(element)

    monkeypatch.setattr(minpoly, "minpoly_bicomplex", spy)
    code, out, _ = run(capsys, "roots", "--element", "1+i+j-k", "--bicomplex", "--json")
    assert code == 0 and len(json.loads(out)["off_plane"]["roots"]) == 4
    assert calls == [parse_element("1+i+j-k")]


@pytest.mark.parametrize("s", ["100000", "1e400"])
def test_cli_zeta_exponent_past_the_float_range(capsys, s):
    # n^s overflows a float for n >= 2, and 1e400 itself does: only a(1) = 1 is left
    code, out, err = run(capsys, "zeta", "--K", "Q", "--s", s, "--N", "10")
    assert (code, out, err) == (0, "1\n", "")


@pytest.mark.parametrize("argv, named", [
    (["zeta", "--K", "Q", "--s", "1/0", "--N", "10"], "--s"),
    (["zeta", "--K", "Q", "--s", "two", "--N", "10"], "--s"),
    (["disc", "--L", "custom:Q(sqrt:abc),Q"], "Q(sqrt:abc)"),
    # the numeric root finder's tolerance is the constant census.TOL
    (["roots", "--poly", "X^2 + 1", "--tol", "0.5"], "--tol"),
    # exact bicomplex roots of a polynomial past degree 2 are out of reach
    (["roots", "--cyclotomic", "5", "--bicomplex"],
     "--bicomplex takes degrees 1 and 2 only, or an element with --element"),
    (["roots", "--poly", "X^3 - X", "--bicomplex"],
     "--bicomplex takes degrees 1 and 2 only, or an element with --element"),
])
def test_cli_bad_input_exits_1_naming_the_argument(capsys, argv, named):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert named in err and "Traceback" not in err


def test_cli_zeta_exponent_just_above_1(capsys):
    code, out, err = run(capsys, "zeta", "--K", "Q", "--s", "1.00000000000000000001", "--N", "10")
    assert (code, out, err) == (0, "2.92896825397\n", "")
    code, out, err = run(capsys, "zeta", "--K", "Q", "--s", "1", "--N", "10")
    assert (code, out) == (1, "") and "s > 1" in err


def test_cli_zeta_accepts_fraction_and_decimal_exponents(capsys):
    fraction = run(capsys, "zeta", "--K", "Q", "--s", "5/2", "--N", "10")
    decimal = run(capsys, "zeta", "--K", "Q", "--s", "2.5", "--N", "10")
    assert fraction[0] == 0 and fraction == decimal


ELEMENT_KEYS = {"cartesian", "idempotent"}
CENSUS_KEYS = {"degree", "real_roots", "complex_pairs", "i_plane", "j_plane", "k_plane",
               "off_plane", "total"}
PROFILE_KEYS = {"p", "factor_count", "semiprime", "factors"}
UNIT_KEYS = {"finite", "order", "class", "structure"}

# Each README command line with the key set that the README's "JSON shapes"
# lists for it (None: the bare array of ideal-count), then the two infinite
# unit groups, with and without an element type.
README_JSON_SHAPES = [
    (["minpoly", "1+i+j-k"], {"poly", "text", "kind", "components"}),
    (["decompose", "1+i+j-k"], ELEMENT_KEYS),
    (["conj", "1+i+j-k", "--axis", "j"], ELEMENT_KEYS),
    (["norm", "[2, 2*i]"], {"norm"}),
    (["charpoly4", "1+i+j-k"], {"poly", "text", "four_re", "A", "B", "N"}),
    (["census", "--poly", "X^3 - 2*X^2 + 4*X - 8"], CENSUS_KEYS),
    (["census", "--cyclotomic", "12"], CENSUS_KEYS),
    (["roots", "--poly", "X^2 + 1"], {"roots"}),
    (["roots", "--element", "1+i+j-k", "--bicomplex"],
     {"real", "i_plane", "j_plane", "k_plane", "off_plane"}),
    (["factor", "[6, 35]", "--L", "Qh"], {"unit", "factors"}),
    (["factor", "5", "--L", "QB"], {"unit", "factors"}),
    (["primes-profile", "3", "--L", "QB"], PROFILE_KEYS),
    (["units", "--L", "QB"], UNIT_KEYS),
    (["disc", "--L", "QB"], {"discriminant"}),
    (["ideal-count", "--K", "QB", "--max", "20"], None),
    (["ideal-count", "--K", "Qh", "--max", "100", "--out", "table.csv"], None),
    (["zeta", "--K", "Qh", "--s", "2", "--N", "10000"], {"value", "s", "N"}),
    (["radix-encode", "[7, -4]", "--base", "split:-2"], {"base", "digits_lsd_first"}),
    (["radix-decode", "--base", "split:-2", "--digits", "1 4 3 0 3 5"], ELEMENT_KEYS),
    (["units", "--L", "custom:Q(sqrt:2),Q"], UNIT_KEYS | {"infinite_order_unit"}),
    (["units", "--L", "custom:Q(sqrt:2),Q(sqrt:3)"], UNIT_KEYS),
]


@pytest.mark.parametrize("argv, keys", README_JSON_SHAPES,
                         ids=[" ".join(argv) for argv, _ in README_JSON_SHAPES])
def test_cli_json_shapes_match_the_readme(capsys, monkeypatch, tmp_path, argv, keys):
    monkeypatch.chdir(tmp_path)  # ideal-count --out writes table.csv here
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    payload = json.loads(out)
    if keys is None:
        assert isinstance(payload, list) and len(payload) == int(argv[argv.index("--max") + 1])
        return
    assert set(payload) == keys
    for entry in payload.get("factors", []):
        assert set(entry) == {"prime", "exponent"}
        assert "idempotent" in entry["prime"] and set(entry["prime"]) <= ELEMENT_KEYS
    if argv[0] == "roots" and "--bicomplex" in argv:
        assert all(set(locus) == {"roots", "factor"} for locus in payload.values())


def test_cli_radix_encode_json_decodes_back(capsys):
    code, out, _ = run(capsys, "radix-encode", "[7, -4]", "--base", "split:-2", "--json")
    payload = json.loads(out)
    assert code == 0 and payload["base"] == "split:-2"
    msd_first = " ".join(str(d) for d in reversed(payload["digits_lsd_first"]))
    code, out, _ = run(capsys, "radix-decode", "--base", "split:-2", "--digits", msd_first,
                       "--json")
    assert code == 0
    assert parse_element(json.loads(out)["idempotent"]) == parse_element("[7, -4]")


def test_cli_radix_round_trip(capsys):
    code, out, _ = run(capsys, "radix-encode", "[7, -4]", "--base", "split:-2")
    assert code == 0
    digits = out.splitlines()[1].split(": ")[1]
    assert digits == "1 4 3 0 3 5"
    code, out, _ = run(capsys, "radix-decode", "--base", "split:-2", "--digits", digits)
    assert (code, out.strip()) == (0, "[7, -4]")


def test_cli_exit_codes(capsys):
    code, _, err = run(capsys, "factor", "[1, 0]", "--L", "Qh")
    assert code == 2 and "zero norm" in err
    code, _, err = run(capsys, "radix-encode", "3", "--base", "jgauss:-2")
    assert code == 2 and "cycle" in err
    code, out, err = run(capsys, "roots", "--poly", "X^120 - 2")
    assert (code, out) == (2, "") and "non-finite iterate" in err
    code, _, err = run(capsys, "minpoly", "1+!")
    assert code == 1
    code, out, err = run(capsys, "census", "--poly", "X^2 - 2*")
    assert (code, out) == (1, "") and "end of input" in err
    code, _, err = run(capsys, "no-such-command")
    assert code == 1
    code, _, err = run(capsys, "factor", "[2, 3]", "--L", "custom:Q(sqrt:2),Q")
    assert code == 1


def _subparsers(parser):
    return next(a for a in parser._actions if a.dest == "command").choices


def test_a_subparser_built_alone_prints_the_same_help_and_usage():
    full = build_parser()
    every = _subparsers(full)
    assert list(every) == [name for name, *_ in _SUBCOMMANDS]
    for name, sub in every.items():
        alone = build_parser(name)
        assert list(_subparsers(alone)) == [name]
        assert alone.format_usage() == full.format_usage()
        assert _subparsers(alone)[name].format_help() == sub.format_help()
        assert _subparsers(alone)[name].format_usage() == sub.format_usage()


@pytest.mark.parametrize("argv, code, error", [
    ([], 1, "the following arguments are required: command"),
    (["frobnicate"], 1, "argument command: invalid choice: 'frobnicate'"),
    (["--json", "minpoly", "1"], 1, "unrecognized arguments: --json"),
    (["minpoly", "1", "extra"], 1, "unrecognized arguments: extra"),
])
def test_cli_usage_errors_print_the_usage_of_every_subcommand(capsys, argv, code, error):
    """Only a command line that starts with a subcommand's name builds that
    subparser alone; its usage line still names every subcommand."""
    usage = build_parser().format_usage()
    assert "{" + ",".join(_subparsers(build_parser())) + "}" in usage
    exit_code, out, err = run(capsys, *argv)
    assert (exit_code, out) == (code, "")
    assert err.startswith(f"{usage}bicomplex: error: {error}")  # 3.12 changed how choices are quoted


def test_cli_help_lists_every_subcommand(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")  # argparse wraps help text to the terminal width
    code, out, err = run(capsys, "-h")
    assert (code, out, err) == (0, build_parser().format_help(), "")
    for name, _, help_text, _ in _SUBCOMMANDS:
        assert re.search(rf"^    {re.escape(name)} +{re.escape(help_text)}$", out, re.M), name


PSI_12 = 318665857834031151167461  # 399165290221 * 798330580441, a strong pseudoprime to 2..37


def test_cli_factor_splits_a_strong_pseudoprime(capsys):
    code, out, _ = run(capsys, "factor", f"[{PSI_12}, 1]", "--L", "Qh")
    assert code == 0
    lines = out.splitlines()
    assert lines == ["unit [1, 1]", "prime [399165290221, 1] ^ 1", "prime [798330580441, 1] ^ 1"]
    product = parse_element(lines[0].removeprefix("unit "))
    for line in lines[1:]:
        prime, exponent = line.removeprefix("prime ").split(" ^ ")
        product = product * parse_element(prime) ** int(exponent)
    assert product == parse_element(f"[{PSI_12}, 1]")


def test_cli_primes_profile_rejects_a_strong_pseudoprime(capsys):
    code, out, err = run(capsys, "primes-profile", str(PSI_12), "--L", "QB")
    assert (code, out) == (1, "") and f"{PSI_12} is not prime" in err


def run_subprocess(*argv, timeout=60):
    """The CLI in a fresh interpreter: a budget that stops working fails the
    test at the timeout instead of stalling the run."""
    src = str(Path(bicomplex.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-m", "bicomplex.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=timeout)


def test_cli_factor_exits_2_at_the_rho_step_limit():
    # 2^128 + 1 = 59649589127497217 * 5704689200685129054721: rho would need
    # about 2.4e8 steps.
    done = run_subprocess("factor", f"[{2 ** 128 + 1}, 1]", "--L", "Qh")
    assert (done.returncode, done.stdout) == (2, "")
    assert str(RHO_STEP_LIMIT) in done.stderr and "rho steps" in done.stderr


def test_cli_factor_charges_rho_steps_by_size():
    # 2^512 + 1 = 2424833 * (a 491-bit composite with a 49-digit least prime
    # factor); a step on the cofactor is charged 3, so it reaches the limit
    # in about 1.5 times the time of 2^128 + 1 instead of 4 times.
    done = run_subprocess("factor", f"[{2 ** 512 + 1}, 1]", "--L", "Qh")
    assert (done.returncode, done.stdout) == (2, "")
    assert str(RHO_STEP_LIMIT) in done.stderr and "rho steps" in done.stderr


def test_cli_units_exits_2_at_the_pell_bit_limit():
    # The fundamental unit of Q(sqrt(1000000007)) has more digits than
    # CPython converts to a string; the continued fraction stops at the limit.
    done = run_subprocess("units", "--L", "custom:Q(sqrt:1000000007),Q")
    assert (done.returncode, done.stdout) == (2, "")
    assert str(PELL_BIT_LIMIT) in done.stderr and "Traceback" not in done.stderr


@pytest.mark.parametrize("argv", [
    ("ideal-count", "--K", "QB", "--max", "100000000"),
    ("zeta", "--K", "Qh", "--s", "2", "--N", "100000000"),
])
def test_cli_tables_exit_2_past_the_table_length_limit(argv):
    # refused before the table is allocated, so the timeout is generous
    done = run_subprocess(*argv, timeout=30)
    assert (done.returncode, done.stdout) == (2, "")
    assert str(TABLE_LENGTH_LIMIT) in done.stderr and "Traceback" not in done.stderr


def test_cli_census_cyclotomic_json_does_not_build_the_polynomial():
    # the closed form needs only N; Phi_N of degree 10^7 took about 15 s to build
    done = run_subprocess("census", "--cyclotomic", "10000019", "--json", timeout=10)
    assert done.returncode == 0
    assert json.loads(done.stdout)["degree"] == 10000018


@pytest.mark.parametrize("command", ["census", "roots"])
def test_cli_cyclotomic_exits_2_past_the_degree_limit(command):
    # phi(10000019) = 10000018: refused on the totient before Phi_N is built,
    # where building and printing it took about 15 s; the census text line is
    # rendered after the handler returns, so the handler must raise it
    done = run_subprocess(command, "--cyclotomic", "10000019", timeout=10)
    assert (done.returncode, done.stdout) == (2, "")
    assert str(polys.DEGREE_LIMIT) in done.stderr and "Traceback" not in done.stderr


def test_cli_poly_literal_exits_2_past_the_degree_limit(monkeypatch):
    # the largest power is checked before the coefficients are allocated:
    # X^20000000 - 1 took 42 s to fail with a MemoryError under a 3 GB
    # address-space limit, and this one did not end within the timeout
    done = run_subprocess("census", "--poly", "X^200001 - 3*X + 1", timeout=10)
    assert (done.returncode, done.stdout) == (2, "")
    assert str(polys.DEGREE_LIMIT) in done.stderr and "Traceback" not in done.stderr
    monkeypatch.setattr(polys, "DEGREE_LIMIT", 4)
    assert parse_poly("X^4 - 1") == Poly.of(-1, 0, 0, 0, 1)
    with pytest.raises(WorkBudgetError, match="degree 6, above the limit of 4"):
        parse_poly("X^4 - X^6 + X^6")


def test_cli_census_charges_the_coefficient_growth_of_a_taylor_shift():
    # the shift's partial sums outgrow the input's 2 bits by up to n bits;
    # charged by the input's bits alone, this count took about 15 s
    done = run_subprocess("census", "--poly", "X^10000 - 3*X + 1", timeout=8)
    assert (done.returncode, done.stdout) == (2, "")
    assert str(polys.ISOLATION_WORK_LIMIT) in done.stderr and "Traceback" not in done.stderr


def test_cli_census_squarefree_test_is_linear_on_a_sparse_input():
    # the Euclid mod q divides by a remainder of degree 1; rebuilding the
    # whole remainder at each of its 50000 steps took about 43 s
    done = run_subprocess("census", "--poly", "X^50000 - 3*X + 1", timeout=10)
    assert (done.returncode, done.stdout) == (2, "")
    assert str(polys.ISOLATION_WORK_LIMIT) in done.stderr and "Traceback" not in done.stderr


@pytest.mark.parametrize("where", ["missing/t.csv", "."], ids=["missing-directory", "directory"])
def test_cli_ideal_count_reports_an_unwritable_out_file(tmp_path, where):
    done = run_subprocess("ideal-count", "--K", "Qh", "--max", "10", "--out",
                          str(tmp_path / where), timeout=30)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr
    assert str(tmp_path) in done.stderr


def test_cli_zeta_cuts_the_sum_before_the_table_length_limit(capsys):
    # n^100000 passes 1e300 from n = 2 on, so only a(1) is summed
    code, out, err = run(capsys, "zeta", "--K", "Qh", "--s", "100000", "--N", "100000000")
    assert (code, out, err) == (0, "1\n", "")


def test_cli_json_round_trips_through_parser(capsys):
    code, out, _ = run(capsys, "conj", "1+i+j-k", "--axis", "k", "--json")
    payload = json.loads(out)
    expected = BicomplexElement.from_cartesian(1, -1, -1, -1)
    assert parse_element(payload["cartesian"]) == expected
    assert parse_element(payload["idempotent"]) == expected


def test_cli_deterministic_output(capsys):
    first = run(capsys, "factor", "[360, 49]", "--L", "Qh")
    second = run(capsys, "factor", "[360, 49]", "--L", "Qh")
    assert first == second
    first = run(capsys, "ideal-count", "--K", "QB", "--max", "50", "--json")
    second = run(capsys, "ideal-count", "--K", "QB", "--max", "50", "--json")
    assert first == second
