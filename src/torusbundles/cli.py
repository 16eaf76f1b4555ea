"""Command-line interface: one row of COMMANDS per subcommand.

A row holds the name, help string and arguments, a payload builder and a text
renderer.  A payload holds the library's records as they are; json.dumps turns
them into JSON for --format=json, and the text is rendered from the payload alone
(the verify-parity header also echoes the raw --g and --mn strings).  Exit codes:
0 success, 1 input error (any ValueError) or closed stdout, 2 internal cross-check
inconsistency, which for sw0 and verify-parity is read off the payload.
Each builder imports the modules it calls, so a subcommand compiles only those.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator, Sequence

from ._record import InternalInconsistencyError

if TYPE_CHECKING:
    from .bundle import TorusBundle

SIGN_CONVENTION = (
    "values are reported with the sign(n) normalization; "
    "the underlying invariant is defined only up to a global sign"
)
_YES = {True: "yes", False: "no"}
# swpoly lists one coefficient per residue mod |n|.  At this modulus and MAX_SW_GENUS it writes 88 MB of text; the
# opt-in tests/test_cli.py::test_swpoly_lists_every_residue_at_the_listed_modulus_and_sw_genus_budgets times it
MAX_LISTED_MODULUS = 10**6
# verify-parity's largest grid, scored cells * (4 max(|m|, |n|)^3 + g^2) before any cell runs: a cell's subgroup order
# is at most max(|m|, |n|), whose closure check is cubic, and its two binomial rows cost about g^2.  The cubic term
# weighs 4 so that an order-heavy grid at the budget takes about as long as a genus-heavy one; the opt-in
# tests/test_cli.py::test_verify_parity_finishes_at_the_grid_budget_and_refuses_the_next_grid times each shape's edge
MAX_PARITY_WORK = 3 * 10**9
# classify and spectral walk the Fox relator once, but its entries can grow with the genus, so this stays an input
# bound until a work meter re-fits it; homology takes any genus.  Both must finish at this genus under
# FOX_EDGE_CEILING_S (tests/test_cli.py::test_classify_and_spectral_at_the_fox_genus_budget_finish_under_the_ceiling).
MAX_FOX_GENUS = 1000
# a cross-check flag of the classification; None means the spectral oracle did not apply
_AGREE = {True: "agree", False: "disagree", None: "skipped (monodromy violates the surface relation)"}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # input errors must exit 1, not argparse's 2
        raise ValueError(message)


def _parse_range(text: str, flag: str) -> range:
    """Inclusive integer range written a..b."""
    parts = text.split("..")
    if len(parts) != 2:
        raise ValueError(f"{flag} expects a range a..b, got {text!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"{flag} expects integer bounds, got {text!r}") from None
    if hi < lo:
        raise ValueError(f"{flag} range {text!r} is empty (upper bound below lower)")
    return range(lo, hi + 1)


def _load_bundle(path: str, max_genus: int | None = None) -> TorusBundle:
    """Parse a bundle file, refusing a genus above max_genus before any Fox matrix is built."""
    from .bundle import ParseError, parse_bundle

    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read bundle file {path}: {exc}") from None
    try:
        bundle = parse_bundle(text)
    except ParseError as exc:
        raise ValueError(f"bundle file {path}: {exc}") from None
    # The bundle parsed under the digit limit L, and d1*d2 divides each 2x2 minor of H1's relation matrix.  One is
    # 2 - tr(A) for each monodromy matrix A, of at most L + 1 digits; if every trace is 2, every entry has at most L
    # digits and every minor at most 2L + 1.  So an invariant factor has at most 2L + 1; 0 stays 0.  run restores L.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit and 2 * limit + 1)
    if max_genus is not None and bundle.genus > max_genus:
        raise ValueError(f"genus {bundle.genus} is above the {max_genus} that classify and spectral take")
    return bundle


def _classify(args: argparse.Namespace) -> dict[str, Any]:
    from .classify import is_symplectic

    bundle = _load_bundle(args.bundle_file, MAX_FOX_GENUS)
    report = is_symplectic(bundle)
    return {"genus": bundle.genus, "euler": bundle.euler, "principal": bundle.is_principal, **vars(report)}


def _classify_text(p: dict[str, Any], args: argparse.Namespace) -> Iterator[str]:
    yield f"genus: {p['genus']}"
    yield "euler class: ({}, {})".format(*p["euler"])
    yield f"principal (trivial monodromy): {_YES[p['principal']]}"
    yield f"b1: {p['b1']}"
    yield f"b2: {p['b2']}"
    yield f"free circle action preserving fibers: {_YES[p['has_circle_action']]}"
    yield f"fiber class nonzero in H_2(E; R): {_YES[p['fiber_class_nonzero']]}"
    yield f"symplectic: {_YES[p['symplectic']]} ({p['rationale'][0].rule})"
    yield "rationale:"
    yield from (f"  {r.rule}: {r.statement}" for r in p["rationale"])
    yield "cross-checks:"
    yield f"  betti-oracle: {_AGREE[p['cross_checks'].betti_oracle]}"
    yield f"  spectral-oracle: {_AGREE[p['cross_checks'].spectral_oracle]}"


def _homology(args: argparse.Namespace) -> dict[str, Any]:
    from .homology import h1_total_space

    group = h1_total_space(_load_bundle(args.bundle_file))
    return {**vars(group), "h1": str(group), "b1": group.free_rank, "b2": 2 * group.free_rank - 2}


def _homology_text(p: dict[str, Any], args: argparse.Namespace) -> Iterator[str]:
    yield f"H1(E) = {p['h1']}"
    yield f"invariant factors: {list(p['invariant_factors'])}"
    yield f"b1 = {p['b1']}"
    yield f"b2 = {p['b2']}"


def _spectral(args: argparse.Namespace) -> dict[str, Any]:
    from .homology import betti
    from .spectral import e2_ranks

    bundle = _load_bundle(args.bundle_file, MAX_FOX_GENUS)
    ranks = e2_ranks(bundle.genus, bundle.monodromy)
    _, b2 = betti(bundle)
    return {
        **vars(ranks),
        "fiber_class_nonzero": ranks.fiber_class_nonzero(b2),
        "surface_relation_holds": bundle.surface_relation_holds(),
    }


def _spectral_text(p: dict[str, Any], args: argparse.Namespace) -> Iterator[str]:
    yield "E2 ranks (rows q = 2, 1, 0; columns p = 0, 1, 2):"
    yield f"  q=2: {p['rank_e02']} {p['rank_e10']} {p['rank_e22']}"
    yield f"  q=1: {p['rank_e01']} {p['rank_e11']} {p['rank_e21']}"
    yield f"  q=0: {p['rank_e00']} {p['rank_e10']} {p['rank_e20']}"
    yield f"rank E11 = {p['rank_e11']} (depends only on monodromy)"
    yield f"fiber class nonzero (b2 == 2 + rank E11): {_YES[p['fiber_class_nonzero']]}"
    if not p["surface_relation_holds"]:
        yield "warning: monodromy violates the surface relation; no fibration realizes this tuple"


def _swpoly(args: argparse.Namespace) -> dict[str, Any]:
    from .swcalc import sw_poly_circle_bundle

    poly = sw_poly_circle_bundle(args.genus, args.n)
    if poly.modulus > MAX_LISTED_MODULUS:
        raise ValueError(f"--n must satisfy |n| <= {MAX_LISTED_MODULUS} for swpoly's dense coefficient list")
    return {
        "modulus": poly.modulus,
        "coefficients": list(poly.coefficients),
        "genus": args.genus,
        "n": args.n,
        "polynomial": poly.render(),
        "sign_convention": SIGN_CONVENTION,
    }


def _swpoly_text(p: dict[str, Any], args: argparse.Namespace) -> Iterator[str]:
    yield f"SW polynomial of the circle bundle: genus {p['genus']}, euler number {p['n']}"
    yield f"modulus: {p['modulus']}"
    yield f"polynomial: {p['polynomial']}"
    yield f"coefficients: {p['coefficients']}"
    yield f"note: {p['sign_convention']}"


def _sw0(args: argparse.Namespace) -> dict[str, Any]:
    from .swcalc import sw4_zero_routes

    coset, closed = sw4_zero_routes(args.genus, args.m, args.n)
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


def _sw0_text(p: dict[str, Any], args: argparse.Namespace) -> Iterator[str]:
    closed = p["closed_route"]
    yield f"degree-zero SW invariant: genus {p['genus']}, m {p['m']}, n {p['n']}"
    yield f"coset route: {p['coset_route']}"
    if closed is None:
        yield "closed route: unavailable (even n with odd m; the coset route is definitive)"
        yield "routes agree: n/a"
    else:
        yield f"closed route: {closed}"
        yield f"routes agree: {_YES[p['routes_agree']]}"
    yield f"value even: {_YES[p['even']]}"
    yield f"note: {p['sign_convention']}"


def _verify_parity(args: argparse.Namespace) -> dict[str, Any]:
    from .swcalc import parity_sweep

    g_range = _parse_range(args.g, "--g")
    mn_range = _parse_range(args.mn, "--mn")
    if g_range.start < 2:
        raise ValueError(f"--g range must start at 2 or above, got {args.g}")
    cells = (g_range.stop - g_range.start) * (mn_range.stop - mn_range.start) ** 2  # len() overflows past 2**63
    if cells * (4 * max(-mn_range.start, mn_range.stop - 1) ** 3 + (g_range.stop - 1) ** 2) > MAX_PARITY_WORK:
        raise ValueError(
            f"the grid --g {args.g} --mn {args.mn} scores cells * (4 max(|m|, |n|)^3 + g^2) above {MAX_PARITY_WORK}; "
            "narrow --mn or --g"
        )
    return vars(parity_sweep(g_range, mn_range, mn_range))


def _verify_parity_text(p: dict[str, Any], args: argparse.Namespace) -> Iterator[str]:
    yield f"parity sweep: g in {args.g}, m and n in {args.mn}"
    yield f"cases evaluated: {p['cases']}"
    yield f"cells skipped (m or n = 0): {p['skipped']}"
    yield f"all values even: {_YES[p['all_even']]}"
    yield f"counterexamples: {len(p['counterexamples'])}"
    yield from (f"  g={c.g} m={c.m} n={c.n}: {c.kind}: {c.detail}" for c in p["counterexamples"])


# argparse keyword arguments by flag; the --g and --mn ranges stay strings until the builder parses them
_BUNDLE_FILE = {"bundle_file": {}}
_INT = {"type": int, "required": True}
_RANGES = {
    "--g": {"required": True, "help": "inclusive genus range a..b"},
    "--mn": {"required": True, "help": "inclusive range a..b applied to both m and n"},
}

# one row per subcommand: name, help, arguments, payload builder, text renderer
COMMANDS = (
    ("classify", "full classification report for a bundle file", _BUNDLE_FILE, _classify, _classify_text),
    ("homology", "H1 invariant factors and Betti numbers", _BUNDLE_FILE, _homology, _homology_text),
    ("spectral", "E2 ranks and the rank-based fiber-class verdict", _BUNDLE_FILE, _spectral, _spectral_text),
    ("swpoly", "SW polynomial of a circle bundle", {"--genus": _INT, "--n": _INT}, _swpoly, _swpoly_text),
    (
        "sw0",
        "degree-zero SW invariant by both routes",
        {"--genus": _INT, "--m": _INT, "--n": _INT},
        _sw0,
        _sw0_text,
    ),
    ("verify-parity", "sweep the degree-zero invariant over a grid", _RANGES, _verify_parity, _verify_parity_text),
)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="torusbundles",
        description="Exact classification of symplectic torus bundles over genus >= 2 surfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary, arguments, build, text in COMMANDS:
        p = sub.add_parser(name, help=summary)
        for flag, spec in arguments.items():
            p.add_argument(flag, **spec)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(build=build, text=text)
    return parser


def _merge_range_values(argv: Sequence[str]) -> list[str]:
    """Join range flags with their values so negative bounds survive argparse."""
    out: list[str] = []
    tokens = iter(argv)
    for tok in tokens:
        value = next(tokens, None) if tok in _RANGES else None
        out.append(tok if value is None else f"{tok}={value}")
    return out


def run(argv: Sequence[str]) -> int:
    """Dispatch one invocation; returns the process exit code."""
    limit = sys.get_int_max_str_digits()
    try:
        args = _build_parser().parse_args(_merge_range_values(argv))
        payload = args.build(args)
        if args.format == "json":
            import json  # text output, the default, never needs it

            print(json.dumps(payload, indent=2, sort_keys=True, default=vars), flush=True)  # a record by its fields
        else:
            print(*args.text(payload, args), sep="\n", flush=True)  # a closed stdout raises in main's reach
        if payload.get("routes_agree") is False:  # sw0's closed route contradicts its coset route
            print("internal inconsistency: evaluation routes disagree", file=sys.stderr)
            return 2
        return 2 if payload.get("counterexamples") else 0  # verify-parity found an odd value or a disagreement
    except SystemExit:  # argparse --help
        return 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 2
    finally:
        sys.set_int_max_str_digits(limit)  # _load_bundle widened it for a bundle's output


def main() -> int:
    try:
        return run(sys.argv[1:])
    except BrokenPipeError:  # stdout closed early, as by `| head`; quiet the flush at exit as well
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
