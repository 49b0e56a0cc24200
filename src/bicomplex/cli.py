"""Command-line front end.

Elements are written either in Cartesian form ``x+y*i+z*j+t*k`` (rational
coefficients; signs and bare units like ``-k`` allowed) or in idempotent
form ``[g1, g2]`` with Gaussian-rational components ``a+b*i``.  Polynomials
use ``X`` with explicit ``*`` and ``^``, e.g. ``X^3 - 2*X^2 + 4*X - 8``.

Exit codes: 0 on success, 1 on usage errors (bad syntax, unknown flags or
descriptors), 2 on domain errors (null cone, non-terminating expansions,
degenerate ideals, factoring a unit, an integer that rho cannot split within
``numtheory.RHO_STEP_LIMIT`` steps, a squarefree test past
``polys.SQUAREFREE_WORK_LIMIT`` coefficient updates, a real-root count past
``polys.ISOLATION_WORK_LIMIT``, a fundamental unit past
``rings.PELL_BIT_LIMIT`` bits, a table past ``zeta.TABLE_LENGTH_LIMIT``
entries, a polynomial literal or cyclotomic polynomial of degree past
``polys.DEGREE_LIMIT``); these are the subclasses of
``base.DomainError``.

Each ``_cmd_*`` handler returns (text lines, JSON payload) and prints
nothing; ``main`` alone renders one of them and maps errors to exit codes.
"""
from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction
from itertools import islice

# Every subcommand needs the element layer (which loads scalars and base, the
# error and record bases); the other modules, factoring included, are imported
# by the handler that uses them, and main builds the subparser of the command
# it runs alone, so one command line loads and builds only what it runs.
from .base import DomainError, WorkBudgetError
from .element import BicomplexElement, format_cartesian, idempotent_literal
from .scalars import GaussianRational

TYPE_CHECKING = False  # the names below appear in annotations only
if TYPE_CHECKING:
    from .polys import IntPoly, Poly
    from .rings import ExtensionDescriptor, QuadraticField, RationalField


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# One signed term of a literal, blanks allowed between tokens; _scan_terms
# checks the unit letters and which tokens a term must have.
_TERM = re.compile(r"""
    \s* (?P<sign> [+-] )?                   # a sign, required after the first term
    \s* (?: (?P<num> \d+ )                  # a coefficient n
            (?: \s* / \s* (?P<den> \d+ ) )? # or n/d
            \s* (?P<star> \* )? \s* )?      # '*' between a coefficient and a unit
    (?P<unit> [A-Za-z] )?                   # a unit u
    (?: (?<= [Xx] ) \s* \^ \s* (?P<power> \d+ ) )?  # a power n after X
    \s*""", re.VERBOSE)


def _scan_terms(text: str, pos: int, units: str) -> tuple[dict[tuple[str, int], Fraction], int]:
    """A sum of signed terms 'q', 'q*u' or 'u' over the unit letters, read
    from pos up to ',', ']' or the end, and the position where it stops.
    'X' (or 'x') may carry a power 'X^n'.  The coefficients are summed by
    (unit, power); a constant is ('', 0)."""
    terms: dict[tuple[str, int], Fraction] = {}
    while not terms or pos < len(text) and text[pos] not in ",]":
        m = _TERM.match(text, pos)
        num, den, unit = m["num"], m["den"], m["unit"]
        if terms and not m["sign"]:
            raise ParseError("expected '+' or '-'", pos)
        if unit is None and (m["star"] or not num):
            end = m.end()
            raise ParseError("unexpected end of input" if end == len(text)
                             else f"unexpected {text[end]!r}", end)
        if unit is not None and unit not in units:
            raise ParseError(f"unknown unit {unit!r}", m.start("unit"))
        if num and unit and not m["star"]:
            raise ParseError(f"write coefficient*{unit} with explicit '*'", m.start("unit"))
        if den and not int(den):
            raise ParseError("zero denominator", m.end("den"))
        value = Fraction(int(num or 1), int(den or 1))
        unit = "X" if unit in ("X", "x") else unit or ""
        key = unit, int(m["power"] or 1) if unit else 0
        terms[key] = terms.get(key, Fraction(0)) + (-value if m["sign"] == "-" else value)
        pos = m.end()
    return terms, pos


def _coefficients(text: str, pos: int, units: str) -> tuple[list[Fraction], int]:
    """The constant and then each unit's coefficient of one term sum, and
    the position where it stops."""
    terms, pos = _scan_terms(text, pos, units)
    return [terms.get(("", 0), Fraction(0))] + [terms.get((u, 1), Fraction(0)) for u in units], pos


def _expect(text: str, pos: int, token: str) -> int:
    """The position past token, which must stand at pos, and the blanks after it."""
    if text[pos:pos + 1] != token:
        raise ParseError(f"expected {token!r}", pos)
    return len(text) - len(text[pos + 1:].lstrip())


def parse_element(text: str) -> BicomplexElement:
    """Parse either element literal form, with position-reported errors."""
    if text.lstrip().startswith("["):
        part1, pos = _coefficients(text, text.index("[") + 1, "i")
        part2, pos = _coefficients(text, _expect(text, pos, ","), "i")
        pos = _expect(text, pos, "]")
        element = BicomplexElement(GaussianRational(*part1), GaussianRational(*part2))
    else:
        coeffs, pos = _coefficients(text, 0, "ijk")
        element = BicomplexElement.from_cartesian(*coeffs)
    if pos < len(text):
        raise ParseError("trailing input", pos)
    return element


def parse_poly(text: str) -> Poly:
    """Parse a polynomial in X with rational coefficients.  Its powers are
    held to ``polys.DEGREE_LIMIT`` before its coefficients are allocated."""
    from .polys import DEGREE_LIMIT, Poly

    terms, pos = _scan_terms(text, 0, "Xx")
    if pos < len(text):
        raise ParseError("trailing input", pos)
    top = max(power for _, power in terms)
    if top > DEGREE_LIMIT:
        raise WorkBudgetError(f"the polynomial has a term of degree {top}, above the limit of "
                              f"{DEGREE_LIMIT}")
    coeffs = [Fraction(0)] * (1 + top)
    for (_, power), value in terms.items():
        coeffs[power] += value
    return Poly.of(*coeffs)


def parse_int_poly(text: str) -> IntPoly:
    from .polys import content_primitive

    poly = parse_poly(text)
    if poly.is_zero:
        raise ParseError("the zero polynomial is not allowed here", 0)
    return content_primitive(poly)[1]


# -- descriptor flags ---------------------------------------------------------

def _named(text: str):
    """The named field or extension, or None; each parser accepts the names
    of its own type."""
    from .rings import GAUSSIAN_FIELD, QB, QH, Q_FIELD

    return {"Q": Q_FIELD, "Qi": GAUSSIAN_FIELD, "Q(i)": GAUSSIAN_FIELD,
            "Qh": QH, "QB": QB}.get(text)


def parse_field(text: str) -> RationalField | QuadraticField:
    from .rings import QuadraticField, RationalField

    named = _named(text)
    if isinstance(named, (RationalField, QuadraticField)):
        return named
    if text.startswith("Q(sqrt:") and text.endswith(")"):
        try:
            return QuadraticField(int(text[len("Q(sqrt:"):-1]))
        except ValueError as exc:
            raise ParseError(f"bad field {text!r}: {exc}", 0) from None
    raise ParseError(f"unknown field {text!r}; use Q, Qi or Q(sqrt:D)", 0)


def parse_extension(text: str) -> ExtensionDescriptor:
    from .rings import ExtensionDescriptor

    named = _named(text)
    if isinstance(named, ExtensionDescriptor):
        return named
    if text.startswith("custom:"):
        parts = text[len("custom:"):].split(",")
        if len(parts) != 2:
            raise ParseError("custom extension needs exactly two fields", 0)
        return ExtensionDescriptor(parse_field(parts[0]), parse_field(parts[1]))
    raise ParseError(f"unknown extension {text!r}; use Qh, QB or custom:K1,K2", 0)


def parse_table_key(text: str):
    """Field or extension names accepted by the counting commands."""
    named = _named(text)
    if named is not None:
        return named
    raise ParseError(f"unknown coefficient field {text!r}; use Q, Qi, Qh or QB", 0)


def parse_radix_base(text: str):
    from .radix import GaussBase, HypGaussBase, HypSplitBase

    kind, _, rest = text.partition(":")
    try:
        if kind == "split":
            return HypSplitBase(int(rest))
        if kind == "jgauss":
            return HypGaussBase(int(rest))
        if kind == "gauss":
            if rest.endswith("+i"):
                return GaussBase(int(rest[:-2]), 1)
            if rest.endswith("-i"):
                return GaussBase(int(rest[:-2]), -1)
    except ValueError as exc:
        raise ParseError(f"bad radix base {text!r}: {exc}", 0) from None
    raise ParseError(
        f"unknown radix base {text!r}; use split:A, jgauss:A or gauss:A+i / gauss:A-i", 0)


# -- subcommand handlers ---------------------------------------------------------

def element_payload(el: BicomplexElement) -> dict:
    payload = {"idempotent": idempotent_literal(el)}
    if el.has_cartesian_view:
        payload["cartesian"] = format_cartesian(el.to_cartesian())
    return payload


def _poly_coeff_list(poly: Poly) -> list:
    return [int(c) if c.denominator == 1 else str(c) for c in poly.coeffs]


def _prime_powers(factors) -> tuple[list[str], list[dict]]:
    """The text lines and the JSON list of a factorization's prime powers."""
    return ([f"prime {idempotent_literal(p)} ^ {e}" for p, e in factors],
            [{"prime": element_payload(p), "exponent": e} for p, e in factors])


def _cmd_decompose(args):
    el = parse_element(args.element)
    return [idempotent_literal(el)], element_payload(el)


def _cmd_conj(args):
    el = parse_element(args.element).conjugate(args.axis)
    return [str(el)], element_payload(el)


def _cmd_norm(args):
    value = parse_element(args.element).norm()
    return [str(value)], {"norm": str(value)}


def _cmd_minpoly(args):
    from .minpoly import minpoly_bicomplex

    result = minpoly_bicomplex(parse_element(args.element))
    return [str(result.poly), f"kind: {result.kind}"], {
        "poly": list(result.poly.coeffs),
        "text": str(result.poly),
        "kind": result.kind,
        "components": [list(p.coeffs) for p in result.component_polys],
    }


def _cmd_charpoly4(args):
    from .minpoly import quartic_charpoly
    from .polys import format_poly

    poly, coeffs = quartic_charpoly(parse_element(args.element))
    rows = (  # (text label, JSON key, value)
        ("4*Re", "four_re", coeffs.four_re),
        ("A", "A", coeffs.triple_sum),
        ("B", "B", coeffs.pair_sum),
        ("N", "N", coeffs.norm),
    )
    lines = [format_poly(poly)] + [f"{label} = {value}" for label, _, value in rows]
    payload = {key: str(value) for _, key, value in rows}
    return lines, payload | {"poly": _poly_coeff_list(poly), "text": format_poly(poly)}


def _input_int_poly(args) -> tuple[IntPoly, tuple[IntPoly, ...]]:
    """The input polynomial, and polynomials with the same roots that
    ``gaussian_root_set`` reads: the element's component polynomials, or
    the polynomial itself."""
    from .minpoly import minpoly_bicomplex
    from .polys import cyclotomic

    if args.element is not None:
        result = minpoly_bicomplex(parse_element(args.element))
        return result.poly, result.component_polys
    if args.cyclotomic is not None:
        poly = cyclotomic(args.cyclotomic)
    else:
        poly = parse_int_poly(args.poly)
    return poly, (poly,)


# (text label, JSON key) of each census count; complex_pairs is JSON only.
_CENSUS_ROWS = (
    ("degree", "degree"),
    ("real roots", "real_roots"),
    (None, "complex_pairs"),
    ("i-plane (non-real)", "i_plane"),
    ("j-plane (non-real)", "j_plane"),
    ("k-plane (non-real)", "k_plane"),
    ("off-plane", "off_plane"),
    ("total bicomplex roots", "total"),
)


def _cmd_census(args):
    from .census import census, census_cyclotomic
    from .polys import cyclotomic

    if args.cyclotomic is None:
        poly = _input_int_poly(args)[0]
        result = census(poly)
    else:
        # the closed form needs only N; Phi_N is built for the text line
        # alone, and here, so that its degree budget stops main before it prints
        result = census_cyclotomic(args.cyclotomic)
        poly = None if args.json else cyclotomic(args.cyclotomic)

    def lines():
        yield f"polynomial: {poly}"
        yield from (f"{label}: {getattr(result, key)}" for label, key in _CENSUS_ROWS if label)

    return lines(), {key: getattr(result, key) for _, key in _CENSUS_ROWS}


def _cmd_roots(args):
    from .census import enumerate_bicomplex_roots, gaussian_root_set, locus_factors, numeric_roots
    from .polys import format_poly, is_squarefree

    poly, sources = _input_int_poly(args)
    if not args.bicomplex:
        approx = numeric_roots(poly)
        lines = [f"{z.real:.12g}{z.imag:+.12g}*i" for z in approx]
        return lines, {"roots": [[z.real, z.imag] for z in approx]}
    if poly.degree < 1:
        raise ValueError("roots --bicomplex needs degree >= 1")
    if args.poly is not None and not is_squarefree(poly):
        raise ValueError("roots --bicomplex is defined for squarefree polynomials only")
    if args.element is None and poly.degree > 2:  # an element's components have degree <= 2
        raise ValueError("roots --bicomplex takes degrees 1 and 2 only, or an element with "
                         f"--element; this polynomial has degree {poly.degree}")
    roots = gaussian_root_set(sources)
    if roots is None:
        raise ValueError("roots are not Gaussian rationals; rerun without --bicomplex")
    partition = enumerate_bicomplex_roots(roots)
    factors = locus_factors(roots, poly.lead)
    lines = []
    payload = {}
    for name, members, factor_poly in (
            ("real", partition.real, factors.real),
            ("i-plane", partition.plane_i, factors.plane_i),
            ("j-plane", partition.plane_j, factors.plane_j),
            ("k-plane", partition.plane_k, factors.plane_k),
            ("off-plane", partition.generic, factors.generic)):
        shown = ", ".join(idempotent_literal(m) for m in members) or "(none)"
        lines.append(f"{name}: {shown}")
        lines.append(f"{name} factor: {format_poly(factor_poly)}")
        payload[name.replace("-", "_")] = {
            "roots": [idempotent_literal(m) for m in members],
            "factor": _poly_coeff_list(factor_poly),
        }
    return lines, payload


def _cmd_factor(args):
    from .rings import factor

    decomposition = factor(parse_element(args.element), parse_extension(args.L))
    prime_lines, prime_list = _prime_powers(decomposition.factors)
    lines = [f"unit {idempotent_literal(decomposition.unit)}"] + prime_lines
    return lines, {"unit": element_payload(decomposition.unit), "factors": prime_list}


def _cmd_primes_profile(args):
    from .rings import rational_prime_profile

    L = parse_extension(args.L)
    profile = rational_prime_profile(args.p, L)
    prime_lines, prime_list = _prime_powers(profile.factorization.factors)
    lines = [
        f"p = {args.p} in {L}: {profile.factor_count} prime factors (with multiplicity)",
        f"semiprime: {'yes' if profile.semiprime else 'no'}",
    ]
    return lines + prime_lines, {
        "p": args.p,
        "factor_count": profile.factor_count,
        "semiprime": profile.semiprime,
        "factors": prime_list,
    }


def _cmd_units(args):
    from .rings import unit_group

    info = unit_group(parse_extension(args.L))
    rows = [  # (text label, JSON key, text value, JSON value)
        ("finite", "finite", "yes" if info.finite else "no", info.finite),
        ("order", "order", info.order if info.finite else "infinite", info.order),
        ("class", "class", info.unit_class, info.unit_class),
        ("structure", "structure", info.structure, info.structure),
    ]
    if info.infinite_witness is not None:
        witness = idempotent_literal(info.infinite_witness)
        rows.append(("infinite-order unit", "infinite_order_unit", witness, witness))
    lines = [f"{label}: {text}" for label, _, text, _ in rows]
    return lines, {key: value for _, key, _, value in rows}


def _cmd_disc(args):
    from .rings import discriminant

    value = discriminant(parse_extension(args.L))
    return [str(value)], {"discriminant": value}


def _cmd_ideal_count(args):
    from .zeta import coefficient_table

    values = coefficient_table(parse_table_key(args.K), args.max).values
    # the rows and lines are streamed: a table may hold 10^7 counts
    if args.out:
        import csv

        try:
            with open(args.out, "w", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow(("n", "a_n"))
                writer.writerows(enumerate(values, start=1))
        except OSError as exc:  # reported like bad input: exit 1, no traceback
            raise ValueError(f"cannot write --out {args.out!r}: {exc.strerror}") from None
        return [], values
    return (f"{n} {a}" for n, a in enumerate(values, start=1)), values


def _cmd_zeta(args):
    from .zeta import zeta_partial

    try:
        s = Fraction(args.s)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad exponent --s {args.s!r}", 0) from None
    value = zeta_partial(parse_table_key(args.K), s, args.N)
    return [f"{value:.12g}"], {"value": value, "s": args.s, "N": args.N}


def _cmd_radix_encode(args):
    from .radix import encode

    base = parse_radix_base(args.base)
    digits = encode(parse_element(args.element), base)
    lines = [f"base {base}", f"digits (msd first): {digits}"]
    return lines, {"base": args.base, "digits_lsd_first": list(digits.digits)}


def _cmd_radix_decode(args):
    from .radix import DigitString, GaussBase, decode

    base = parse_radix_base(args.base)
    try:
        msd_digits = [int(d) for d in args.digits.replace(",", " ").split()]
    except ValueError:
        raise ParseError(f"bad digit list {args.digits!r}", 0) from None
    if not msd_digits:
        raise ParseError("empty digit list", 0)
    while len(msd_digits) > 1 and msd_digits[0] == 0:
        msd_digits.pop(0)
    value = decode(DigitString(tuple(reversed(msd_digits)), base))
    shown = str(value) if isinstance(base, GaussBase) else idempotent_literal(value)
    return [shown], element_payload(value)


# -- driver -----------------------------------------------------------------------

def _arg(*names, **options):
    """One ``add_argument`` call of a subcommand."""
    return names, options


_ELEMENT = _arg("element")
# one of these, required, names the input polynomial of census and roots
_POLY_SOURCE = [
    _arg("--poly", help="polynomial literal in X"),
    _arg("--element", help="use the element's minimal polynomial"),
    _arg("--cyclotomic", type=int, metavar="N", help="use the N-th cyclotomic polynomial"),
]
_FIELD_KEY = _arg("--K", required=True, help="Q, Qi, Qh or QB")

# Each subcommand: (name, handler, help text, arguments after --json); a list
# of arguments is a required mutually exclusive group.
_SUBCOMMANDS = (
    ("decompose", _cmd_decompose, "idempotent components of an element", (_ELEMENT,)),
    ("conj", _cmd_conj, "conjugate an element along an axis",
     (_ELEMENT, _arg("--axis", choices=("i", "j", "k"), required=True))),
    ("norm", _cmd_norm, "norm (product with the three conjugates)", (_ELEMENT,)),
    ("minpoly", _cmd_minpoly, "minimal polynomial of an element", (_ELEMENT,)),
    ("charpoly4", _cmd_charpoly4, "quartic characteristic polynomial", (_ELEMENT,)),
    ("census", _cmd_census, "bicomplex root census of a squarefree polynomial",
     (_POLY_SOURCE,)),
    ("roots", _cmd_roots, "numeric roots, or exact bicomplex root loci",
     (_POLY_SOURCE, _arg("--bicomplex", action="store_true",
                         help="enumerate the n^2 bicomplex roots exactly by locus"))),
    ("factor", _cmd_factor, "factor an integral element into primes",
     (_ELEMENT, _arg("--L", default="QB", help="Qh, QB or custom:K1,K2"))),
    ("primes-profile", _cmd_primes_profile, "how a rational prime factors",
     (_arg("p", type=int), _arg("--L", default="QB"))),
    ("units", _cmd_units, "unit group of the ring of integers", (_arg("--L", required=True),)),
    ("disc", _cmd_disc, "discriminant of the extension", (_arg("--L", required=True),)),
    ("ideal-count", _cmd_ideal_count, "ideal-count table a(1..N)",
     (_FIELD_KEY, _arg("--max", type=int, required=True),
      _arg("--out", help="write the table as CSV (header n,a_n)"))),
    ("zeta", _cmd_zeta, "truncated zeta sum of a(n)/n^s",
     (_FIELD_KEY, _arg("--s", required=True, help="exponent, s > 1 (fraction allowed)"),
      _arg("--N", type=int, required=True))),
    ("radix-encode", _cmd_radix_encode, "digit expansion of an integer element",
     (_ELEMENT, _arg("--base", required=True, help="split:A, jgauss:A, gauss:A+i or gauss:A-i"))),
    ("radix-decode", _cmd_radix_decode, "evaluate a digit string (msd first)",
     (_arg("--base", required=True),
      _arg("--digits", required=True, help="digits, msd first, space or comma separated"))),
)
_NAMES = tuple(name for name, *_ in _SUBCOMMANDS)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of the named one alone; its usage
    line names every subcommand either way."""
    parser = _Parser(prog="bicomplex",
                     description="Exact arithmetic of bicomplex algebraic numbers.")
    # with one subparser the usage line still names every subcommand; the full
    # parser keeps the default, since its errors name the argument by the metavar
    metavar = None if command is None else "{" + ",".join(_NAMES) + "}"
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser,
                                 metavar=metavar)
    for name, handler, help_text, arguments in _SUBCOMMANDS:
        if command not in (None, name):
            continue
        p = subs.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        for argument in arguments:
            if isinstance(argument, list):
                group = p.add_mutually_exclusive_group(required=True)
                for names, options in argument:
                    group.add_argument(*names, **options)
            else:
                names, options = argument
                p.add_argument(*names, **options)
        p.set_defaults(handler=handler)
    return parser


# Entries per json.dumps call when an array payload (an ideal-count table) is
# written; the slices' texts joined by ", " are the text of one dumps.
JSON_SLICE = 1 << 16


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a command line that starts with a subcommand's name builds that subparser
    # alone; help, a missing or unknown name and a leading option build them all
    command = argv[0] if argv and argv[0] in _NAMES else None
    try:
        args = build_parser(command).parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        lines, payload = args.handler(args)
    except (DomainError, ValueError) as exc:  # ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, DomainError) else 1
    if args.json:
        import json

        if isinstance(payload, tuple):
            # a table of 10^7 counts: one dumps would build its whole text beside it
            write = sys.stdout.write
            write("[")
            for start in range(0, len(payload), JSON_SLICE):
                write(", " if start else "")
                write(json.dumps(payload[start:start + JSON_SLICE], sort_keys=True)[1:-1])
            write("]\n")
        else:
            print(json.dumps(payload, sort_keys=True))
    else:
        # one write per chunk of lines: an unbuffered stdout writes each call through
        lines = iter(lines)
        while chunk := "".join([f"{line}\n" for line in islice(lines, 4096)]):
            sys.stdout.write(chunk)
    return 0


if __name__ == "__main__":
    sys.exit(main())
