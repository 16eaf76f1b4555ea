"""Command-line interface.

Subcommands: classify, homology, spectral (bundle-file input), swpoly, sw0
(inline parameters), verify-parity (grid sweep).  Output is deterministic
text by default or JSON with --format=json.  Exit codes: 0 success, 1 input
error, 2 internal cross-check inconsistency.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Sequence

from .bundle import ParseError, TorusBundle, ValidationError, parse_bundle
from .classify import InternalInconsistencyError, is_symplectic
from .homology import h1_total_space
from .spectral import e2_ranks, fiber_class_via_spectral
from .swcalc import (
    SweepReport,
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


def _emit(payload: dict[str, Any], lines: list[str], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _yesno(value: bool) -> str:
    return "yes" if value else "no"


def _cmd_classify(args: argparse.Namespace) -> int:
    bundle = _load_bundle(args.bundle_file)
    report = is_symplectic(bundle)
    spectral_state = (
        "skipped (monodromy violates the surface relation)"
        if report.cross_checks.spectral_oracle is None
        else ("agree" if report.cross_checks.spectral_oracle else "disagree")
    )
    payload = {
        "genus": bundle.genus,
        "euler": list(bundle.euler),
        "principal": bundle.is_principal,
        "b1": report.b1,
        "b2": report.b2,
        "has_circle_action": report.has_circle_action,
        "fiber_class_nonzero": report.fiber_class_nonzero,
        "symplectic": report.symplectic,
        "rationale": [{"rule": r.rule, "statement": r.statement} for r in report.rationale],
        "cross_checks": {
            "betti_oracle": report.cross_checks.betti_oracle,
            "spectral_oracle": report.cross_checks.spectral_oracle,
        },
    }
    lines = [
        f"genus: {bundle.genus}",
        f"euler class: ({bundle.euler[0]}, {bundle.euler[1]})",
        f"principal (trivial monodromy): {_yesno(bundle.is_principal)}",
        f"b1: {report.b1}",
        f"b2: {report.b2}",
        f"free circle action preserving fibers: {_yesno(report.has_circle_action)}",
        f"fiber class nonzero in H_2(E; R): {_yesno(report.fiber_class_nonzero)}",
        f"symplectic: {_yesno(report.symplectic)} ({report.rationale[0].rule})",
        "rationale:",
    ]
    lines.extend(f"  {r.rule}: {r.statement}" for r in report.rationale)
    lines.append("cross-checks:")
    lines.append(f"  betti-oracle: {'agree' if report.cross_checks.betti_oracle else 'disagree'}")
    lines.append(f"  spectral-oracle: {spectral_state}")
    _emit(payload, lines, args.format)
    return 0


def _cmd_homology(args: argparse.Namespace) -> int:
    bundle = _load_bundle(args.bundle_file)
    group = h1_total_space(bundle)
    b1 = group.free_rank
    payload = {
        "h1": str(group),
        "free_rank": group.free_rank,
        "invariant_factors": list(group.invariant_factors),
        "b1": b1,
        "b2": 2 * b1 - 2,
    }
    lines = [
        f"H1(E) = {group}",
        f"invariant factors: {list(group.invariant_factors)}",
        f"b1 = {b1}",
        f"b2 = {2 * b1 - 2}",
    ]
    _emit(payload, lines, args.format)
    return 0


def _cmd_spectral(args: argparse.Namespace) -> int:
    bundle = _load_bundle(args.bundle_file)
    ranks = e2_ranks(bundle.genus, bundle.monodromy)
    verdict = fiber_class_via_spectral(bundle)
    payload = {
        "rank_e00": ranks.rank_e00,
        "rank_e01": ranks.rank_e01,
        "rank_e02": ranks.rank_e02,
        "rank_e10": ranks.rank_e10,
        "rank_e11": ranks.rank_e11,
        "rank_e20": ranks.rank_e20,
        "rank_e21": ranks.rank_e21,
        "rank_e22": ranks.rank_e22,
        "fiber_class_nonzero": verdict,
        "surface_relation_holds": bundle.surface_relation_holds(),
    }
    lines = [
        "E2 ranks (rows q = 2, 1, 0; columns p = 0, 1, 2):",
        f"  q=2: {ranks.rank_e02} {ranks.rank_e10} {ranks.rank_e22}",
        f"  q=1: {ranks.rank_e01} {ranks.rank_e11} {ranks.rank_e21}",
        f"  q=0: {ranks.rank_e00} {ranks.rank_e10} {ranks.rank_e20}",
        f"rank E11 = {ranks.rank_e11} (depends only on monodromy)",
        f"fiber class nonzero (b2 == 2 + rank E11): {_yesno(verdict)}",
    ]
    if not bundle.surface_relation_holds():
        lines.append(
            "warning: monodromy violates the surface relation; no fibration realizes this tuple"
        )
    _emit(payload, lines, args.format)
    return 0


def _cmd_swpoly(args: argparse.Namespace) -> int:
    try:
        poly = sw_poly_circle_bundle(args.genus, args.n)
    except ValueError as exc:
        raise _CliInputError(str(exc)) from None
    payload = {
        "genus": args.genus,
        "n": args.n,
        "modulus": poly.modulus,
        "coefficients": list(poly.coefficients),
        "polynomial": poly.render(),
        "sign_convention": SIGN_CONVENTION,
    }
    lines = [
        f"SW polynomial of the circle bundle: genus {args.genus}, euler number {args.n}",
        f"modulus: {poly.modulus}",
        f"polynomial: {poly.render()}",
        f"coefficients: {list(poly.coefficients)}",
        f"note: {SIGN_CONVENTION}",
    ]
    _emit(payload, lines, args.format)
    return 0


def _cmd_sw0(args: argparse.Namespace) -> int:
    try:
        coset = sw4_zero_coset(args.genus, args.m, args.n)
    except ValueError as exc:
        raise _CliInputError(str(exc)) from None
    closed: int | None
    try:
        closed = sw4_zero_closed(args.genus, args.m, args.n)
    except UnsupportedParityError:
        closed = None
    agree = closed is None or closed == coset
    payload = {
        "genus": args.genus,
        "m": args.m,
        "n": args.n,
        "coset_route": coset,
        "closed_route": closed,
        "routes_agree": agree,
        "even": coset % 2 == 0,
        "sign_convention": SIGN_CONVENTION,
    }
    lines = [
        f"degree-zero SW invariant: genus {args.genus}, m {args.m}, n {args.n}",
        f"coset route: {coset}",
        (
            f"closed route: {closed}"
            if closed is not None
            else "closed route: unavailable (even n with odd m; the coset route is definitive)"
        ),
        f"routes agree: {'yes' if closed is not None and agree else ('n/a' if closed is None else 'no')}",
        f"value even: {_yesno(coset % 2 == 0)}",
        f"note: {SIGN_CONVENTION}",
    ]
    _emit(payload, lines, args.format)
    if closed is not None and not agree:
        print("internal inconsistency: evaluation routes disagree", file=sys.stderr)
        return 2
    return 0


def _sweep_payload(report: SweepReport) -> dict[str, Any]:
    return {
        "cases": report.cases,
        "skipped": report.skipped,
        "all_even": report.all_even,
        "counterexamples": [
            {"g": c.g, "m": c.m, "n": c.n, "value": c.value, "kind": c.kind, "detail": c.detail}
            for c in report.counterexamples
        ],
    }


def _cmd_verify_parity(args: argparse.Namespace) -> int:
    g_range = _parse_range(args.g, "--g")
    mn_range = _parse_range(args.mn, "--mn")
    if g_range.start < 2:
        raise _CliInputError(f"--g range must start at 2 or above, got {args.g}")
    report = parity_sweep(g_range, mn_range, mn_range)
    lines = [
        f"parity sweep: g in {args.g}, m and n in {args.mn}",
        f"cases evaluated: {report.cases}",
        f"cells skipped (m or n = 0): {report.skipped}",
        f"all values even: {_yesno(report.all_even)}",
        f"counterexamples: {len(report.counterexamples)}",
    ]
    lines.extend(
        f"  g={c.g} m={c.m} n={c.n}: {c.kind}: {c.detail}" for c in report.counterexamples
    )
    _emit(_sweep_payload(report), lines, args.format)
    return 2 if report.counterexamples else 0


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="torusbundles",
        description="Exact classification of symplectic torus bundles over genus >= 2 surfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("classify", help="full classification report for a bundle file")
    p.add_argument("bundle_file")
    add_format(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("homology", help="H1 invariant factors and Betti numbers")
    p.add_argument("bundle_file")
    add_format(p)
    p.set_defaults(func=_cmd_homology)

    p = sub.add_parser("spectral", help="E2 ranks and the rank-based fiber-class verdict")
    p.add_argument("bundle_file")
    add_format(p)
    p.set_defaults(func=_cmd_spectral)

    p = sub.add_parser("swpoly", help="SW polynomial of a circle bundle")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    add_format(p)
    p.set_defaults(func=_cmd_swpoly)

    p = sub.add_parser("sw0", help="degree-zero SW invariant by both routes")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    add_format(p)
    p.set_defaults(func=_cmd_sw0)

    p = sub.add_parser("verify-parity", help="sweep the degree-zero invariant over a grid")
    p.add_argument("--g", required=True, help="inclusive genus range a..b")
    p.add_argument("--mn", required=True, help="inclusive range a..b applied to both m and n")
    add_format(p)
    p.set_defaults(func=_cmd_verify_parity)

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
        return args.func(args)
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
