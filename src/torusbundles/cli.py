"""Command-line interface.

Subcommands: classify, homology, spectral (bundle-file input), swpoly, sw0
(inline parameters), verify-parity (grid sweep).  Each subcommand builds one
payload: --format=json prints it, and the default deterministic text is
rendered from it alone (the verify-parity header also echoes the raw --g and
--mn strings).  Exit codes: 0 success, 1 input error, 2 internal cross-check
inconsistency, which for sw0 and verify-parity is read off the payload.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Callable, Sequence

from ._record import Record
from .bundle import ParseError, TorusBundle, ValidationError, parse_bundle
from .classify import InternalInconsistencyError, is_symplectic
from .homology import betti, h1_total_space
from .spectral import e2_ranks
from .swcalc import (
    UnsupportedParityError,
    parity_sweep,
    sw4_zero_closed,
    sw4_zero_coset,
    sw_poly_circle_bundle,
)

SIGN_CONVENTION = (
    "values are reported with the sign(n) normalization; "
    "the underlying invariant is defined only up to a global sign"
)


class _CliInputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # input errors must exit 1, not argparse's 2
        raise _CliInputError(message)


def _parse_range(text: str, flag: str) -> range:
    """Inclusive integer range written a..b."""
    parts = text.split("..")
    if len(parts) != 2:
        raise _CliInputError(f"{flag} expects a range a..b, got {text!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise _CliInputError(f"{flag} expects integer bounds, got {text!r}") from None
    if hi < lo:
        raise _CliInputError(f"{flag} range {text!r} is empty (upper bound below lower)")
    return range(lo, hi + 1)


def _load_bundle(path: str) -> TorusBundle:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliInputError(f"cannot read bundle file {path}: {exc}") from None
    try:
        return parse_bundle(text)
    except ParseError as exc:
        raise _CliInputError(f"bundle file {path}: {exc}") from None


def _yesno(value: bool) -> str:
    return "yes" if value else "no"


def _agree(value: bool) -> str:
    return "agree" if value else "disagree"


def _fields(record: Record) -> dict[str, Any]:
    return {f: getattr(record, f) for f in record._fields}


def _cmd_classify(args: argparse.Namespace) -> dict[str, Any]:
    bundle = _load_bundle(args.bundle_file)
    report = is_symplectic(bundle)
    return {
        "genus": bundle.genus,
        "euler": list(bundle.euler),
        "principal": bundle.is_principal,
        "b1": report.b1,
        "b2": report.b2,
        "has_circle_action": report.has_circle_action,
        "fiber_class_nonzero": report.fiber_class_nonzero,
        "symplectic": report.symplectic,
        "rationale": [_fields(r) for r in report.rationale],
        "cross_checks": _fields(report.cross_checks),
    }


def _text_classify(p: dict[str, Any], args: argparse.Namespace) -> list[str]:
    spectral = p["cross_checks"]["spectral_oracle"]
    return [
        f"genus: {p['genus']}",
        "euler class: ({}, {})".format(*p["euler"]),
        f"principal (trivial monodromy): {_yesno(p['principal'])}",
        f"b1: {p['b1']}",
        f"b2: {p['b2']}",
        f"free circle action preserving fibers: {_yesno(p['has_circle_action'])}",
        f"fiber class nonzero in H_2(E; R): {_yesno(p['fiber_class_nonzero'])}",
        f"symplectic: {_yesno(p['symplectic'])} ({p['rationale'][0]['rule']})",
        "rationale:",
        *(f"  {r['rule']}: {r['statement']}" for r in p["rationale"]),
        "cross-checks:",
        f"  betti-oracle: {_agree(p['cross_checks']['betti_oracle'])}",
        "  spectral-oracle: "
        + ("skipped (monodromy violates the surface relation)" if spectral is None else _agree(spectral)),
    ]


def _cmd_homology(args: argparse.Namespace) -> dict[str, Any]:
    group = h1_total_space(_load_bundle(args.bundle_file))
    return {
        "h1": str(group),
        "free_rank": group.free_rank,
        "invariant_factors": list(group.invariant_factors),
        "b1": group.free_rank,
        "b2": 2 * group.free_rank - 2,
    }


def _text_homology(p: dict[str, Any], args: argparse.Namespace) -> list[str]:
    return [
        f"H1(E) = {p['h1']}",
        f"invariant factors: {p['invariant_factors']}",
        f"b1 = {p['b1']}",
        f"b2 = {p['b2']}",
    ]


def _cmd_spectral(args: argparse.Namespace) -> dict[str, Any]:
    bundle = _load_bundle(args.bundle_file)
    ranks = e2_ranks(bundle.genus, bundle.monodromy)
    _, b2 = betti(bundle)
    return {
        **_fields(ranks),
        "fiber_class_nonzero": ranks.fiber_class_nonzero(b2),
        "surface_relation_holds": bundle.surface_relation_holds(),
    }


def _text_spectral(p: dict[str, Any], args: argparse.Namespace) -> list[str]:
    lines = [
        "E2 ranks (rows q = 2, 1, 0; columns p = 0, 1, 2):",
        f"  q=2: {p['rank_e02']} {p['rank_e10']} {p['rank_e22']}",
        f"  q=1: {p['rank_e01']} {p['rank_e11']} {p['rank_e21']}",
        f"  q=0: {p['rank_e00']} {p['rank_e10']} {p['rank_e20']}",
        f"rank E11 = {p['rank_e11']} (depends only on monodromy)",
        f"fiber class nonzero (b2 == 2 + rank E11): {_yesno(p['fiber_class_nonzero'])}",
    ]
    if not p["surface_relation_holds"]:
        lines.append("warning: monodromy violates the surface relation; no fibration realizes this tuple")
    return lines


def _cmd_swpoly(args: argparse.Namespace) -> dict[str, Any]:
    try:
        poly = sw_poly_circle_bundle(args.genus, args.n)
    except ValueError as exc:
        raise _CliInputError(str(exc)) from None
    return {
        "genus": args.genus,
        "n": args.n,
        "modulus": poly.modulus,
        "coefficients": list(poly.coefficients),
        "polynomial": poly.render(),
        "sign_convention": SIGN_CONVENTION,
    }


def _text_swpoly(p: dict[str, Any], args: argparse.Namespace) -> list[str]:
    return [
        f"SW polynomial of the circle bundle: genus {p['genus']}, euler number {p['n']}",
        f"modulus: {p['modulus']}",
        f"polynomial: {p['polynomial']}",
        f"coefficients: {p['coefficients']}",
        f"note: {p['sign_convention']}",
    ]


def _cmd_sw0(args: argparse.Namespace) -> dict[str, Any]:
    try:
        coset = sw4_zero_coset(args.genus, args.m, args.n)
    except ValueError as exc:
        raise _CliInputError(str(exc)) from None
    closed: int | None
    try:
        closed = sw4_zero_closed(args.genus, args.m, args.n)
    except UnsupportedParityError:
        closed = None
    return {
        "genus": args.genus,
        "m": args.m,
        "n": args.n,
        "coset_route": coset,
        "closed_route": closed,
        "routes_agree": closed is None or closed == coset,
        "even": coset % 2 == 0,
        "sign_convention": SIGN_CONVENTION,
    }


def _text_sw0(p: dict[str, Any], args: argparse.Namespace) -> list[str]:
    closed = p["closed_route"]
    return [
        f"degree-zero SW invariant: genus {p['genus']}, m {p['m']}, n {p['n']}",
        f"coset route: {p['coset_route']}",
        (
            f"closed route: {closed}"
            if closed is not None
            else "closed route: unavailable (even n with odd m; the coset route is definitive)"
        ),
        f"routes agree: {'n/a' if closed is None else _yesno(p['routes_agree'])}",
        f"value even: {_yesno(p['even'])}",
        f"note: {p['sign_convention']}",
    ]


def _cmd_verify_parity(args: argparse.Namespace) -> dict[str, Any]:
    g_range = _parse_range(args.g, "--g")
    mn_range = _parse_range(args.mn, "--mn")
    if g_range.start < 2:
        raise _CliInputError(f"--g range must start at 2 or above, got {args.g}")
    report = parity_sweep(g_range, mn_range, mn_range)
    return {
        "cases": report.cases,
        "skipped": report.skipped,
        "all_even": report.all_even,
        "counterexamples": [_fields(c) for c in report.counterexamples],
    }


def _text_verify_parity(p: dict[str, Any], args: argparse.Namespace) -> list[str]:
    return [
        f"parity sweep: g in {args.g}, m and n in {args.mn}",
        f"cases evaluated: {p['cases']}",
        f"cells skipped (m or n = 0): {p['skipped']}",
        f"all values even: {_yesno(p['all_even'])}",
        f"counterexamples: {len(p['counterexamples'])}",
        *(f"  g={c['g']} m={c['m']} n={c['n']}: {c['kind']}: {c['detail']}" for c in p["counterexamples"]),
    ]


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="torusbundles",
        description="Exact classification of symplectic torus bundles over genus >= 2 surfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p: argparse.ArgumentParser, build: Callable, text: Callable) -> None:
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(build=build, text=text)

    p = sub.add_parser("classify", help="full classification report for a bundle file")
    p.add_argument("bundle_file")
    add_output(p, _cmd_classify, _text_classify)

    p = sub.add_parser("homology", help="H1 invariant factors and Betti numbers")
    p.add_argument("bundle_file")
    add_output(p, _cmd_homology, _text_homology)

    p = sub.add_parser("spectral", help="E2 ranks and the rank-based fiber-class verdict")
    p.add_argument("bundle_file")
    add_output(p, _cmd_spectral, _text_spectral)

    p = sub.add_parser("swpoly", help="SW polynomial of a circle bundle")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    add_output(p, _cmd_swpoly, _text_swpoly)

    p = sub.add_parser("sw0", help="degree-zero SW invariant by both routes")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    add_output(p, _cmd_sw0, _text_sw0)

    p = sub.add_parser("verify-parity", help="sweep the degree-zero invariant over a grid")
    p.add_argument("--g", required=True, help="inclusive genus range a..b")
    p.add_argument("--mn", required=True, help="inclusive range a..b applied to both m and n")
    add_output(p, _cmd_verify_parity, _text_verify_parity)

    return parser


_RANGE_FLAGS = ("--g", "--mn")


def _merge_range_values(argv: Sequence[str]) -> list[str]:
    """Join range flags with their values so negative bounds survive argparse."""
    out: list[str] = []
    i = 0
    tokens = list(argv)
    while i < len(tokens):
        tok = tokens[i]
        if tok in _RANGE_FLAGS and i + 1 < len(tokens):
            out.append(f"{tok}={tokens[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def run(argv: Sequence[str]) -> int:
    """Dispatch one invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(_merge_range_values(argv))
        payload = args.build(args)
        if args.format == "json":
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print("\n".join(args.text(payload, args)))
        if payload.get("routes_agree") is False:  # sw0's closed route contradicts its coset route
            print("internal inconsistency: evaluation routes disagree", file=sys.stderr)
            return 2
        return 2 if payload.get("counterexamples") else 0  # verify-parity found an odd value or a disagreement
    except SystemExit as exc:  # argparse --help
        code = exc.code
        return int(code) if isinstance(code, int) else 0
    except (_CliInputError, ParseError, ValidationError, UnsupportedParityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 2


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
