"""Command-line interface.

Commands mirror the library layers: cheb and variety emit polynomials, word
and rep exercise the group-theoretic layer, intersect runs the full pipeline
and detect reads its slope verdict off the two certificates of the report's
one locus, alexander and slopes print the classical invariants, and
verify-paper replays every frozen datum and prints a named check table.
Each command's options are declared once, in SUBCOMMANDS: a well-formed argv
is read straight off that table, and the argparse parser of every command
is built just for help and for usage errors, so their texts are argparse's
own.
The x and longitude-trace approximations of intersect, and the r0 and x0
that rep builds its matrices from, are read off `IntersectionLocus.points`:
the exact field elements evaluated at the certified roots of the modulus G_n
(an integer Aberth iteration with inclusion discs), each within 1e-20
relative; no float formula recomputes them.  The report JSON keeps its
one-element "loci" list, and rep still prints "locus: 0".

Exit codes: 0 success, 1 verification failure or internal error (an exact
arithmetic invariant that failed inside the library), 2 usage error; intersect
opens its --json PATH before any work, so a PATH it cannot write exits 2 at
once, and a later failure leaves PATH empty. JSON
output is canonical (sorted keys, two-space indent, rationals as "num/den"
strings) so parsing and re-serializing is byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext

from .cheb import G_poly, f_poly, g_poly, require_family_index
from .golden import load_fixtures
from .intersect import build_intersection_report
from .knotgrp import (
    family_words,
    mat_trace,
    numeric_rep,
    relator_check,
    sorted_complex,
    standard_relator,
    two_bridge_word,
    word_eval,
)
from .ratpoly import ExactArithError
from .trace import VerificationError, alexander_poly, boundary_slope_candidates
from .variety import d_split, d_variety_poly, x_variety_poly
from .verify import all_passed, render_results, run_checks, run_property_checks

# Largest value each integer argument accepts, so that a run ends within about
# a minute on a 2-vCPU Xeon host; above it the command exits 2. The library
# functions take any value, so a caller who needs more calls them.
MAX_N = 128  # --n, the family index: detect --n 128 takes about 0.26 s (4 warm runs)
# verify-paper --n: the ranged checks compute every minimal polynomial for
# n <= --n; --n 48 takes about 1.9 s and --n 64 about 5.4 s (medians of 3 fresh
# processes, 2-vCPU Xeon, Python 3.11.7), and the time grows faster than n^4.
MAX_CHECK_N = 64
MAX_VARIETY_N = 32  # variety --n: the X model at n = 32 takes about 15-18 s
MAX_J = 1000  # cheb --j: G_1000, the slowest kind, takes about 0.5 s
MAX_WORD = 10 ** 6  # word --p and --q: a word of length 10^6 takes about 2.5 s


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def complex_str(z: complex) -> str:
    """12-significant-digit approximation in the form 'a + bi'."""
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real:.12g} {sign} {abs(z.imag):.12g}i"


# ---------------------------------------------------------------------------
# Subcommands. Each returns a process exit code.


def cmd_cheb(args) -> int:
    table = {"f": f_poly, "g": g_poly, "G": G_poly}
    poly = table[args.kind](args.j)
    if args.format == "json":
        print(canonical_json(poly.to_json()))
    else:
        print(poly)
    return 0


def cmd_variety(args) -> int:
    if args.split:
        if args.model != "D":
            raise ValueError("--split applies to the D model only")
        pair = d_split(args.n)
        if args.format == "json":
            obj = {"line": pair.line.to_json(), "quotient": pair.quotient.to_json()}
            print(canonical_json(obj))
        else:
            print(f"line: {pair.line}")
            print(f"quotient: {pair.quotient}")
        return 0
    poly = x_variety_poly(args.n) if args.model == "X" else d_variety_poly(args.n)
    if args.format == "json":
        print(canonical_json(poly.to_json()))
    else:
        print(poly)
    return 0


def _root_strs(values, degree: int) -> list:
    """Distinct 12-digit strings of the sorted values; exactly `degree` of them."""
    strs = list(dict.fromkeys(complex_str(z) for z in sorted_complex(values)))
    if len(strs) != degree:
        raise ExactArithError(f"{len(strs)} distinct approximations for {degree} roots")
    return strs


def _negated(z: complex) -> complex:
    """-z with no -0.0 part, which would print as '-0'."""
    return complex(0.0 - z.real, 0.0 - z.imag)


def _augmented_report_json(report) -> dict:
    """Report JSON plus 12-digit approximations of every root of the locus,
    read off `IntersectionLocus.points`: only the modulus is root-found, and
    x and the longitude trace at each root r0 are the images of the exact
    elements x^2 and tau under r -> r0, certified to 1e-20.
    """
    obj = report.to_json()
    locus = report.locus
    r0s, x0s, taus = zip(*locus.points)
    xs = [x for x0 in x0s for x in (x0, _negated(x0))]
    obj["loci"][0]["approx"] = {
        "modulus_roots": _root_strs(r0s, locus.modulus.degree),
        "x_roots": _root_strs(xs, locus.x_min_poly.degree),
        "longitude_roots": _root_strs(taus, locus.longitude_min_poly.degree),
    }
    return obj


def cmd_intersect(args) -> int:
    sink = nullcontext() if args.json is None else open(args.json, "w", encoding="utf-8")
    with sink as fh:
        text = canonical_json(_augmented_report_json(build_intersection_report(args.n)))
        print(text)
        if fh is not None:
            fh.write(text + "\n")
    return 0


def cmd_detect(args) -> int:
    report = build_intersection_report(args.n)
    slope = report.slope
    if args.json:
        obj = {"n": report.n, "slope": slope.to_json(), "status": report.status}
        print(canonical_json(obj))
    else:
        print(f"n: {report.n}")
        print(f"meridian trace integral: {'yes' if slope.meridian_integral else 'no'}")
        print(
            f"longitude trace integral: {'yes' if slope.longitude_integral else 'no'}"
        )
        print(f"detected boundary slope: {slope.detected_slope}")
        print(f"surface: {slope.surface_description}")
    return 0


def cmd_rep(args) -> int:
    # one point per root of the modulus G_n, of degree 2n - 2: check the
    # index before any work
    require_family_index(args.n)
    if not 0 <= args.root < 2 * args.n - 2:
        raise ValueError(f"root index must be in [0, {2 * args.n - 3}]")
    locus = build_intersection_report(args.n).locus
    r0, x0, _ = locus.points[args.root]
    rep = numeric_rep(args.n, r0, x0)
    fam = family_words(args.n)
    p, q = fam.two_bridge
    relators = (("family", fam.relator), (f"two-bridge ({p}, {q})", standard_relator(p, q)))
    verdicts = [(name, *relator_check(rep, word)) for name, word in relators]
    print(f"n: {args.n}  locus: 0  root: {args.root}")
    print(f"modulus: {locus.modulus}")
    print(f"r0 ~ {complex_str(r0)}")
    print(f"x0 ~ {complex_str(x0)}")
    print(f"mu ~ {complex_str(rep.mu)}")
    for name, residual, tol in verdicts:
        print(f"{name} relator residual < {tol:g}: {'yes' if residual < tol else 'no'}")
    print(f"tr(a) ~ {complex_str(mat_trace(rep.A))}")
    print(f"tr(a b^-1) ~ {complex_str(r0)}")
    print(f"tr(s1) ~ {complex_str(mat_trace(word_eval(rep, fam.s1)))}")
    print(f"tr(s2) ~ {complex_str(mat_trace(word_eval(rep, fam.s2)))}")
    print(f"tr(longitude) ~ {complex_str(mat_trace(word_eval(rep, fam.longitude)))}")
    if not all(residual < tol for _, residual, tol in verdicts):
        print("relator residual exceeds tolerance", file=sys.stderr)
        return 1
    return 0


def cmd_word(args) -> int:
    word = two_bridge_word(args.p, args.q)
    relator = standard_relator(args.p, args.q)
    print(f"word: {word}")
    print(f"length: {len(word)}")
    print(f"relator: {relator}")
    return 0


def cmd_alexander(args) -> int:
    poly, disc = alexander_poly(args.n)
    obj = {"n": args.n, "polynomial": poly.to_json(), "discriminant": str(disc)}
    print(canonical_json(obj))
    return 0


def cmd_slopes(args) -> int:
    candidates = boundary_slope_candidates(args.n)
    obj = {"n": args.n, "candidates": [c.to_json() for c in candidates]}
    print(canonical_json(obj))
    return 0


def cmd_verify_paper(args) -> int:
    if args.n is not None:
        results = run_property_checks(args.n)
    else:
        fixtures = load_fixtures(args.fixtures) if args.fixtures else None
        results = run_checks(fixtures=fixtures)
    print(render_results(results))
    return 0 if all_passed(results) else 1


# ---------------------------------------------------------------------------
# Parser.


def _int_at_most(ceiling: int):
    """An argparse type: an int no larger than ceiling."""

    def parse(text: str) -> int:
        value = int(text)
        if value > ceiling:
            raise argparse.ArgumentTypeError(f"{value} is above the ceiling {ceiling}")
        return value

    parse.__name__ = "int"  # argparse names the type in its invalid-value message
    return parse


def _n_option(ceiling: int = MAX_N):
    """The required --n declaration, for a family index up to ceiling."""
    return ("--n", {
        "type": _int_at_most(ceiling), "required": True,
        "help": f"family index, 2 <= n <= {ceiling}",
    })


# name -> (help line, handler, options, mutually exclusive flags), in the
# order the help lists them.  Each option is (flag, add_argument kwargs):
# build_parser replays them into argparse and _parse_fast reads them.
SUBCOMMANDS = {
    "cheb": ("print a trace polynomial f_j, g_j, or G_j", cmd_cheb, (
        ("--kind", {"choices": ("f", "g", "G"), "required": True}),
        ("--j", {"type": _int_at_most(MAX_J), "required": True, "help": f"index, at most {MAX_J}"}),
        ("--format", {"choices": ("json", "pretty"), "default": "pretty"}),
    ), ()),
    "variety": ("print a character variety polynomial", cmd_variety, (
        _n_option(MAX_VARIETY_N),
        ("--model", {"choices": ("X", "D"), "required": True}),
        ("--split", {"action": "store_true", "help": "factor D as line * quotient"}),
        ("--format", {"choices": ("json", "pretty"), "default": "pretty"}),
    ), ()),
    "intersect": ("full intersection report as JSON", cmd_intersect, (
        _n_option(),
        ("--json", {"metavar": "PATH", "help": "also write the report to PATH"}),
    ), ()),
    "detect": ("boundary slope detection verdict", cmd_detect, (
        _n_option(),
        ("--json", {"action": "store_true", "help": "emit JSON instead of text"}),
    ), ()),
    "rep": ("numeric representation at an intersection point", cmd_rep, (
        _n_option(),
        ("--root", {"type": int, "default": 0, "help": "root index in the locus"}),
    ), ()),
    "word": ("two-bridge word and relator for (p, q)", cmd_word, (
        ("--p", {"type": _int_at_most(MAX_WORD), "required": True}),
        ("--q", {"type": _int_at_most(MAX_WORD), "required": True}),
    ), ()),
    "alexander": ("Alexander polynomial and discriminant", cmd_alexander, (_n_option(),), ()),
    "slopes": ("boundary slope candidate list", cmd_slopes, (_n_option(),), ()),
    "verify-paper": ("replay all frozen data checks", cmd_verify_paper, (
        ("--fixtures", {"metavar": "PATH", "help": "override the frozen fixtures"}),
        ("--n", {
            "type": _int_at_most(MAX_CHECK_N),
            "help": f"run only the fixture-free property checks up through this n <= {MAX_CHECK_N}",
        }),
    ), ("--fixtures", "--n")),
}


def build_parser() -> argparse.ArgumentParser:
    """The cvtk parser, every subcommand replayed from SUBCOMMANDS.  main
    builds it only for the argv that _parse_fast leaves to argparse: help,
    and every usage error with its message."""
    parser = argparse.ArgumentParser(
        prog="cvtk",
        description="Exact character variety toolkit for the knot family J(2n, 2n)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, handler, options, exclusive) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        group = p.add_mutually_exclusive_group() if exclusive else p
        for flag, kwargs in options:
            (group if flag in exclusive else p).add_argument(flag, **kwargs)
        p.set_defaults(func=handler)
    return parser


def _parse_fast(argv):
    """The Namespace that build_parser().parse_args(argv) returns, read
    straight off SUBCOMMANDS, or None where argparse must answer.

    Only `<command> (--flag | --opt value)*` is read: each flag exactly as
    declared, no value starting with '-', each value converted by its type
    and inside its choices, every required option given and at most one
    flag of the exclusive group.  Everything else, help, abbreviations,
    --opt=value, type, choice, missing and conflicting options, is None, so
    argparse prints its own help and usage errors.  A declaration in
    SUBCOMMANDS that this cannot read fails test_fast_parse_agrees_with_argparse.
    """
    if not argv or argv[0] not in SUBCOMMANDS:
        return None
    _, handler, options, exclusive = SUBCOMMANDS[argv[0]]
    declared = dict(options)
    given = {}
    i = 1
    while i < len(argv):
        kwargs = declared.get(argv[i])
        if kwargs is None:
            return None
        if "action" in kwargs:
            given[argv[i]] = True
            i += 1
            continue
        if i + 1 == len(argv) or argv[i + 1].startswith("-"):
            return None
        try:
            value = kwargs.get("type", str)(argv[i + 1])
        except (ValueError, TypeError, argparse.ArgumentTypeError):
            return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        given[argv[i]] = value
        i += 2
    if len(given.keys() & exclusive) > 1:
        return None
    args = argparse.Namespace(command=argv[0], func=handler)
    for flag, kwargs in options:
        if flag in given:
            value = given[flag]
        elif kwargs.get("required"):
            return None
        else:
            value = kwargs.get("default", False if "action" in kwargs else None)
        setattr(args, flag.lstrip("-").replace("-", "_"), value)
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse_fast(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except ExactArithError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
