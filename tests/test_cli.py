import ast
import importlib
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import torusbundles
import torusbundles.cli
from torusbundles import SweepCounterexample, SweepReport, e2_ranks
from torusbundles.cli import run

from support import count_calls, fresh_python

TRIVIAL_DOC = {
    "genus": 2,
    "monodromy": [[[1, 0], [0, 1]]] * 4,
    "euler": [1, 1],
}

_PRINCIPAL = str(Path(__file__).parent / "golden" / "bundles" / "principal.json")

ROTATION_DOC = {
    "genus": 2,
    "monodromy": [[[0, -1], [1, 0]]] + [[[1, 0], [0, 1]]] * 3,
    "euler": [5, 7],
}


@pytest.fixture
def principal_file(tmp_path):
    path = tmp_path / "principal.json"
    path.write_text(json.dumps(TRIVIAL_DOC))
    return str(path)


@pytest.fixture
def rotation_file(tmp_path):
    path = tmp_path / "rotation.json"
    path.write_text(json.dumps(ROTATION_DOC))
    return str(path)


class TestClassify:
    def test_principal_not_symplectic(self, principal_file, capsys):
        assert run(["classify", principal_file]) == 0
        out = capsys.readouterr().out
        assert "symplectic: no" in out
        assert "principal-both-euler-components-nonzero" in out

    def test_rotation_symplectic(self, rotation_file, capsys):
        assert run(["classify", rotation_file]) == 0
        out = capsys.readouterr().out
        assert "symplectic: yes" in out

    def test_json_mode_is_machine_readable(self, principal_file, capsys):
        assert run(["classify", principal_file, "--format=json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["symplectic"] is False
        assert payload["b1"] == 5
        assert payload["cross_checks"]["betti_oracle"] is True

    def test_output_is_deterministic(self, rotation_file, capsys):
        assert run(["classify", rotation_file, "--format=json"]) == 0
        first = capsys.readouterr().out
        assert run(["classify", rotation_file, "--format=json"]) == 0
        second = capsys.readouterr().out
        assert first == second


class TestHomologyAndSpectral:
    def test_homology_output(self, rotation_file, capsys):
        assert run(["homology", rotation_file]) == 0
        out = capsys.readouterr().out
        assert "H1(E) = Z^4 + Z_2" in out
        assert "b1 = 4" in out
        assert "b2 = 6" in out

    def test_spectral_output(self, rotation_file, capsys):
        assert run(["spectral", rotation_file]) == 0
        out = capsys.readouterr().out
        assert "rank E11 = 4" in out
        assert "fiber class nonzero (b2 == 2 + rank E11): yes" in out

    def test_spectral_builds_the_e2_page_once(self, rotation_file, monkeypatch, capsys):
        calls = count_calls(monkeypatch, e2_ranks)
        assert run(["spectral", rotation_file]) == 0
        assert len(calls) == 1


class TestSwCommands:
    def test_swpoly(self, capsys):
        assert run(["swpoly", "--genus", "2", "--n", "5"]) == 0
        out = capsys.readouterr().out
        assert "-2 + 1*t^1 + 1*t^4" in out
        assert "sign(n)" in out

    def test_sw0_routes_agree(self, capsys):
        assert run(["sw0", "--genus", "2", "--m", "3", "--n", "3"]) == 0
        out = capsys.readouterr().out
        assert "coset route: -2" in out
        assert "closed route: -2" in out
        assert "routes agree: yes" in out

    def test_sw0_even_n_odd_m(self, capsys):
        assert run(["sw0", "--genus", "2", "--m", "1", "--n", "2"]) == 0
        out = capsys.readouterr().out
        assert "closed route: unavailable" in out

    def test_swpoly_rejects_zero_n(self, capsys):
        assert run(["swpoly", "--genus", "2", "--n", "0"]) == 1

    def test_budgets_exit_1(self, capsys):
        assert run(["swpoly", "--genus", "2", "--n", str(-(10**6))]) == 0
        assert run(["swpoly", "--genus", "2", "--n", str(-(10**6) - 1)]) == 1
        assert "--n must satisfy |n| <= 1000000" in capsys.readouterr().err
        # no admitted grid reaches an order above 800: two values of m and n make four cells, 4 * 4 * 801^3 > 3e9
        assert run(["sw0", "--genus", "2", "--m", "900", "--n", "901"]) == 1
        assert "has order 901, above the 800" in capsys.readouterr().err
        start = time.perf_counter()
        assert run(["sw0", "--genus", "100000", "--m", "1", "--n", "3"]) == 1
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err == "error: genus 100000 is above the 7000 that the SW routes take\n"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_the_largest_sw_genus_prints(self, fmt, capsys):
        genus = str(torusbundles.swcalc.MAX_SW_GENUS)
        # at n = 4 both coefficients are +-2^(2g-3), and sw0 at m = 4 reads the one at residue 0
        assert run(["swpoly", "--genus", genus, "--n", "4", f"--format={fmt}"]) == 0
        assert run(["sw0", "--genus", genus, "--m", "4", "--n", "4", f"--format={fmt}"]) == 0
        assert run(["sw0", "--genus", genus, "--m", "1", "--n", "3", f"--format={fmt}"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert max(map(len, re.findall(r"\d+", captured.out))) == len(str(2 ** (2 * int(genus) - 3)))

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_sw0_route_disagreement_exits_2(self, fmt, monkeypatch, capsys):
        monkeypatch.setattr(torusbundles.swcalc, "sw4_zero_closed", lambda g, m, n: 99)
        assert run(["sw0", "--genus", "2", "--m", "3", "--n", "3", f"--format={fmt}"]) == 2
        captured = capsys.readouterr()
        assert "99" in captured.out
        assert captured.err == "internal inconsistency: evaluation routes disagree\n"

    def test_sw0_scaled_alternating_sum_exits_2(self, monkeypatch, capsys):
        # the closed route's kernel only; the coset route reads the folded product coefficients
        real = torusbundles.swcalc._alternating_binomial_sum
        tripled = lambda row, start, step: 3 * real(row, start, step)  # noqa: E731
        monkeypatch.setattr(torusbundles.swcalc, "_alternating_binomial_sum", tripled)
        assert run(["sw0", "--genus", "2", "--m", "3", "--n", "3"]) == 2
        captured = capsys.readouterr()
        assert "coset route: -2" in captured.out
        assert "closed route: -6" in captured.out
        assert captured.err == "internal inconsistency: evaluation routes disagree\n"


class TestVerifyParity:
    def test_small_sweep(self, capsys):
        assert run(["verify-parity", "--g", "2..3", "--mn", "-3..3"]) == 0
        out = capsys.readouterr().out
        assert "cases evaluated: 72" in out
        assert "all values even: yes" in out
        assert "counterexamples: 0" in out

    def test_json_sweep(self, capsys):
        assert run(["verify-parity", "--g", "2..2", "--mn", "1..2", "--format=json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cases"] == 4
        assert payload["all_even"] is True

    @pytest.mark.parametrize(
        "g, mn",
        [
            ("2..2", "790..792"),
            ("2..2", "691..693"),
            ("2..3", "-1000000000..1000000000"),
            ("2..3000", "1..2"),
            ("2..1443", "1..1"),
        ],
    )
    def test_a_grid_above_the_budget_is_refused_before_it_runs(self, g, mn, capsys):
        start = time.perf_counter()
        assert run(["verify-parity", "--g", g, "--mn", mn]) == 1
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err.endswith("above 3000000000; narrow --mn or --g\n")

    def test_the_grid_budget_is_inclusive(self, monkeypatch, capsys):
        sweeps = count_calls(monkeypatch, torusbundles.swcalc.parity_sweep)
        work = 4 * (4 * 2**3 + 2**2)  # 1 genus, 2 x 2 cells, max(|m|, |n|) = 2, g = 2
        monkeypatch.setattr(torusbundles.cli, "MAX_PARITY_WORK", work)
        assert run(["verify-parity", "--g", "2..2", "--mn", "1..2"]) == 0
        assert run(["verify-parity", "--g", "2..2", "--mn", "-2..-1"]) == 0
        monkeypatch.setattr(torusbundles.cli, "MAX_PARITY_WORK", work - 1)
        assert run(["verify-parity", "--g", "2..2", "--mn", "1..2"]) == 1
        assert len(sweeps) == 2

    @pytest.mark.parametrize("g", ["1443..1443", "3000..3000", "7000..7000"])
    def test_one_cell_at_a_large_genus_is_not_refused(self, g, capsys):
        """The genus enters the grid score as g^2, the cost of a cell's two binomial rows, not as g^3."""
        assert run(["verify-parity", "--g", g, "--mn", "1..1"]) == 0
        assert "cases evaluated: 1\n" in capsys.readouterr().out

    def test_bad_range_syntax(self, capsys):
        assert run(["verify-parity", "--g", "2-3", "--mn", "1..2"]) == 1

    def test_route_disagreement_exits_2(self, monkeypatch, capsys):
        monkeypatch.setattr(torusbundles.swcalc, "sw4_zero_closed", lambda g, m, n: 99)
        assert run(["verify-parity", "--g", "2..2", "--mn", "1..1"]) == 2
        assert "g=2 m=1 n=1: route-disagreement: coset 0 != closed 99" in capsys.readouterr().out

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_counterexample_exits_2(self, fmt, monkeypatch, capsys):
        odd = SweepCounterexample(2, 1, 3, 7, "odd-value", "value 7 is odd")
        report = SweepReport(cases=1, skipped=0, all_even=False, counterexamples=(odd,))
        monkeypatch.setattr(torusbundles.swcalc, "parity_sweep", lambda g, m, n: report)
        assert run(["verify-parity", "--g", "2..2", "--mn", "1..3", f"--format={fmt}"]) == 2
        captured = capsys.readouterr()
        assert "value 7 is odd" in captured.out
        assert captured.err == ""


class TestInputErrors:
    def test_missing_file(self, capsys):
        assert run(["classify", "/no/such/file.json"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run(["classify", str(path)]) == 1

    def test_semantic_error_names_field(self, tmp_path, capsys):
        doc = {
            "genus": 2,
            "monodromy": [[[1, 1], [1, 1]]] + [[[1, 0], [0, 1]]] * 3,
            "euler": [0, 0],
        }
        path = tmp_path / "det.json"
        path.write_text(json.dumps(doc))
        assert run(["classify", str(path)]) == 1
        assert "monodromy[0]" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["classify", "homology", "spectral"])
    def test_deeply_nested_json(self, command, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert run([command, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert str(path) in err

    @pytest.mark.parametrize("command", ["classify", "homology", "spectral"])
    def test_non_utf8_file(self, command, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"genus": 2, "note": "\xe9"}')
        assert run([command, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert str(path) in err

    @pytest.mark.parametrize("command", ["classify", "homology", "spectral"])
    def test_integer_literal_over_the_digit_limit(self, command, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text('{"genus": 2, "monodromy": [[[1, 0], [0, 1]]], "euler": [1%s, 0]}' % ("0" * 4300))
        assert run([command, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert str(path) in err

    def test_unknown_flag(self, capsys):
        assert run(["swpoly", "--genus", "2", "--n", "3", "--frobnicate"]) == 1

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0

    def test_fox_genus_budget_refuses_before_any_fox_matrix(self, principal_file, tmp_path, monkeypatch, capsys):
        """classify and spectral refuse a genus above MAX_FOX_GENUS before the Fox walk; homology takes any genus."""
        import torusbundles.spectral

        path = tmp_path / "genus3.json"
        path.write_text(json.dumps({"genus": 3, "monodromy": [[[1, 0], [0, 1]]] * 6, "euler": [1, 1]}))
        monkeypatch.setattr(torusbundles.cli, "MAX_FOX_GENUS", 2)
        fox = count_calls(monkeypatch, torusbundles.spectral.fox_boundary_matrices)
        for command in ("classify", "spectral"):
            assert run([command, str(path)]) == 1
            assert capsys.readouterr().err == "error: genus 3 is above the 2 that classify and spectral take\n"
        assert not fox
        assert run(["homology", str(path)]) == 0
        assert run(["spectral", principal_file]) == 0  # genus 2 sits at the budget
        assert len(fox) == 1


# classify and spectral at MAX_FOX_GENUS each took 1.4-3.3 s as a process, median 2.0 s over 50 runs, on a 2-vCPU
# Xeon host with Python 3.11.7.  The ceiling is three times the median: the slowest run is under it, and 24 of 26 runs
# of a Fox walk made four times slower (5.3-9.8 s, median 6.6 s) are over it.  The goldens error-*-huge-genus hold the
# refusal above it
FOX_EDGE_CEILING_S = 3 * 2.0
# sw0 --genus 3 --m 1 --n 800, at MAX_SUBGROUP_ORDER (subgroup orders 800 and 400), took 3.3-4.1 s as a process,
# median 3.5 s over 16 runs, on the same host; the ceiling is three times the median
SUBGROUP_EDGE_CEILING_S = 3 * 3.5
# swpoly --genus 7000 --n 3, at MAX_SW_GENUS, took 0.12-0.18 s as a process, median 0.14 s over 16 runs, on the same
# host; the ceiling is three times the median
SW_GENUS_EDGE_CEILING_S = 3 * 0.14
# swpoly --genus 7000 --n 1000000, at MAX_SW_GENUS and MAX_LISTED_MODULUS, took 4.9-5.5 s as a process with stdout
# discarded, median 5.1 s over 7 runs, on the same host; the ceiling is three times the median
LISTED_MODULUS_EDGE_CEILING_S = 3 * 5.1
# verify-parity's largest admitted grid of each shape, the first refused grid of that shape, and the admitted grid's
# median time as a process over 7 runs on the same host (ranges 2.77-3.04, 1.96-2.14, 1.92-2.08, 1.85-2.12, 2.19-2.51
# and 1.45-1.61 s): many genera at m = n = 1, then two, three, ten and forty values of m and n at g = 2
PARITY_EDGES = [
    ("2..1442", "1..1", "2..1443", "1..1", 2.91),
    ("2..2", "571..572", "2..2", "572..573", 2.05),
    ("2..2", "434..436", "2..2", "435..437", 2.01),
    ("2..2", "-436..-434", "2..2", "-437..-435", 1.96),
    ("2..2", "186..195", "2..2", "187..196", 2.35),
    ("2..2", "38..77", "2..2", "39..78", 1.56),
]


def _timed_cli(*argv: str, ceiling: float, stdout: int = subprocess.PIPE) -> subprocess.CompletedProcess:
    """Run the CLI on this checkout's source in a fresh interpreter, and assert that it exits within ceiling seconds."""
    src = str(Path(torusbundles.__file__).resolve().parents[1])
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "torusbundles.cli", *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=10 * ceiling,
    )
    elapsed = time.perf_counter() - start
    assert elapsed < ceiling, f"{' '.join(argv)} took {elapsed:.2f} s"
    return proc


@pytest.mark.slow
def test_classify_and_spectral_at_the_fox_genus_budget_finish_under_the_ceiling(tmp_path):
    g = torusbundles.cli.MAX_FOX_GENUS
    path = tmp_path / "max_genus.json"  # one unipotent generator, as in tests/test_scaling.py
    monodromy = [[[1, 1], [0, 1]]] + [[[1, 0], [0, 1]]] * (2 * g - 1)
    path.write_text(json.dumps({"genus": g, "monodromy": monodromy, "euler": [3, 0]}))
    for command in ("classify", "spectral"):
        proc = _timed_cli(command, str(path), ceiling=FOX_EDGE_CEILING_S)
        assert proc.returncode == 0, proc.stderr


@pytest.mark.slow
def test_sw0_finishes_at_the_subgroup_order_budget_and_refuses_one_above():
    n = torusbundles.swcalc.MAX_SUBGROUP_ORDER
    proc = _timed_cli("sw0", "--genus", "3", "--m", "1", "--n", str(n), ceiling=SUBGROUP_EDGE_CEILING_S)
    assert proc.returncode == 0, proc.stderr
    # the golden error-sw0-huge-order holds a refusal far above the budget; this is the first one
    proc = _timed_cli("sw0", "--genus", "3", "--m", "1", "--n", str(n + 1), ceiling=SUBGROUP_EDGE_CEILING_S)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == (
        f"error: the subgroup generated by m = 1 mod n = {n + 1} has order {n + 1}, "
        f"above the {n} that cyclic_subgroup enumerates\n"
    )


@pytest.mark.slow
def test_swpoly_finishes_at_the_sw_genus_budget_and_refuses_one_above():
    g = torusbundles.swcalc.MAX_SW_GENUS
    proc = _timed_cli("swpoly", "--genus", str(g), "--n", "3", ceiling=SW_GENUS_EDGE_CEILING_S)
    assert proc.returncode == 0, proc.stderr
    # the golden error-sw0-huge-genus holds a refusal far above the budget; this is the first one
    proc = _timed_cli("swpoly", "--genus", str(g + 1), "--n", "3", ceiling=SW_GENUS_EDGE_CEILING_S)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"error: genus {g + 1} is above the {g} that the SW routes take\n"


@pytest.mark.slow
def test_swpoly_lists_every_residue_at_the_listed_modulus_and_sw_genus_budgets():
    # test_budgets_exit_1 holds the refusal one above the modulus budget
    g, n = torusbundles.swcalc.MAX_SW_GENUS, torusbundles.cli.MAX_LISTED_MODULUS
    argv = ("swpoly", "--genus", str(g), "--n", str(n))
    proc = _timed_cli(*argv, ceiling=LISTED_MODULUS_EDGE_CEILING_S, stdout=subprocess.DEVNULL)
    assert (proc.returncode, proc.stderr) == (0, "")


@pytest.mark.slow
@pytest.mark.parametrize("g, mn, refused_g, refused_mn, median", PARITY_EDGES)
def test_verify_parity_finishes_at_the_grid_budget_and_refuses_the_next_grid(g, mn, refused_g, refused_mn, median):
    proc = _timed_cli("verify-parity", "--g", g, "--mn", mn, ceiling=3 * median)
    assert proc.returncode == 0, proc.stderr
    proc = _timed_cli("verify-parity", "--g", refused_g, "--mn", refused_mn, ceiling=3 * median)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == (
        f"error: the grid --g {refused_g} --mn {refused_mn} scores cells * (4 max(|m|, |n|)^3 + g^2) "
        f"above {torusbundles.cli.MAX_PARITY_WORK}; narrow --mn or --g\n"
    )


def test_every_budget_has_an_opt_in_edge_test():
    # a budget is a module-level MAX_* of the package; it has an edge test where a test marked slow in this file
    # reads it as a Name or an Attribute, as test_lazy_api.py counts the readers of a public name
    package = Path(torusbundles.__file__).resolve().parent
    budgets = {
        target.id: getattr(importlib.import_module(f"torusbundles.{path.stem}"), target.id)
        for path in package.glob("*.py")
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and target.id.startswith("MAX_")
    }
    assert {"MAX_FOX_GENUS", "MAX_SUBGROUP_ORDER"} <= budgets.keys()
    named = {
        node.id if isinstance(node, ast.Name) else node.attr
        for test in ast.walk(ast.parse(Path(__file__).read_text()))
        if isinstance(test, ast.FunctionDef) and "pytest.mark.slow" in map(ast.unparse, test.decorator_list)
        for node in ast.walk(test)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    assert sorted(budgets.keys() - named) == []
    # the edge tests and goldens are each edge's one check: ci/smoke.sh names no budget's value, nor the value one
    # above it, as a whole word, and so no budget's refusal message either
    smoke = (Path(__file__).resolve().parent.parent / "ci" / "smoke.sh").read_text()
    assert sorted(v for value in budgets.values() for v in (value, value + 1) if re.search(rf"\b{v}\b", smoke)) == []


class TestDigitLimit:
    HUGE_FACTOR = Path(__file__).parent / "golden" / "bundles" / "huge_factor.json"

    @pytest.fixture
    def digit_limit(self):
        """Set the interpreter's digit limit for one test; the limit before it comes back afterwards."""
        before = sys.get_int_max_str_digits()
        yield sys.set_int_max_str_digits
        sys.set_int_max_str_digits(before)

    @pytest.mark.parametrize(
        "argv, widened",
        [
            (["classify", _PRINCIPAL], True),
            (["homology", _PRINCIPAL], True),
            (["spectral", _PRINCIPAL], True),
            (["swpoly", "--genus", "2", "--n", "3"], False),
            (["sw0", "--genus", "2", "--m", "3", "--n", "3"], False),
            (["verify-parity", "--g", "2..2", "--mn", "1..2"], False),
        ],
        ids=["classify", "homology", "spectral", "swpoly", "sw0", "verify-parity"],
    )
    def test_a_bundle_renders_under_2L_plus_1_and_the_sw_commands_under_L(
        self, argv, widened, digit_limit, monkeypatch, capsys
    ):
        seen = []

        def spy(text):
            def render(p, args):
                seen.append(sys.get_int_max_str_digits())
                return text(p, args)

            return render

        rows = tuple((*row[:4], spy(row[4])) for row in torusbundles.cli.COMMANDS)
        monkeypatch.setattr(torusbundles.cli, "COMMANDS", rows)
        digit_limit(4300)
        assert run(argv) == 0
        assert seen == [2 * 4300 + 1 if widened else 4300]
        assert sys.get_int_max_str_digits() == 4300

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_an_unlimited_digit_limit_stays_unlimited(self, fmt, digit_limit, capsys):
        digit_limit(0)
        assert run(["homology", str(self.HUGE_FACTOR), f"--format={fmt}"]) == 0
        assert sys.get_int_max_str_digits() == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert max(map(len, re.findall(r"\d+", captured.out))) > 4300

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_an_sw_value_over_a_lowered_limit_exits_1(self, fmt, digit_limit, capsys):
        """sw0 prints under the interpreter's limit, as swpoly does: a 716-digit value refuses under 640."""
        digit_limit(640)
        assert run(["sw0", "--genus", "1500", "--m", "3", "--n", "3", f"--format={fmt}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: Exceeds the limit (640 digits)")
        assert sys.get_int_max_str_digits() == 640

    @pytest.mark.parametrize(
        "argv",
        [
            ["homology", str(HUGE_FACTOR)],
            ["homology", str(HUGE_FACTOR), "--format=json"],
            ["classify", "/no/such/file.json"],
            ["swpoly", "--genus", "1", "--n", "3"],
            ["--help"],
        ],
    )
    def test_run_restores_the_digit_limit(self, argv, capsys):
        before = sys.get_int_max_str_digits()
        run(argv)
        assert sys.get_int_max_str_digits() == before

    def test_run_restores_the_digit_limit_when_rendering_raises(self, monkeypatch, capsys):
        class Unprintable:
            def __format__(self, spec):
                raise RuntimeError("cannot render")

        odd = SweepCounterexample(2, 1, 3, 7, "odd-value", Unprintable())
        report = SweepReport(cases=1, skipped=0, all_even=False, counterexamples=(odd,))
        monkeypatch.setattr(torusbundles.swcalc, "parity_sweep", lambda g, m, n: report)
        before = sys.get_int_max_str_digits()
        with pytest.raises(RuntimeError, match="cannot render"):
            run(["verify-parity", "--g", "2..2", "--mn", "1..3"])
        assert sys.get_int_max_str_digits() == before


def test_cli_import_leaves_out_dataclasses_and_inspect():
    """Importing the CLI loads the package, _record and cli alone: no computing module, dataclasses, inspect or json."""
    code = (
        "import sys, torusbundles, torusbundles.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith(('torusbundles', 'dataclasses', 'inspect', 'json'))))"
    )
    assert fresh_python(code) == str(["torusbundles", "torusbundles._record", "torusbundles.cli"])


# text output needs no json, and the SW subcommands parse no bundle file
_SW_LEAVES_OUT = {"bundle", "exactla", "classify", "homology", "spectral", "json"}


@pytest.mark.parametrize(
    "argv, home, left_out",
    [
        (["sw0", "--genus", "2", "--m", "3", "--n", "3"], "swcalc", _SW_LEAVES_OUT),
        (["swpoly", "--genus", "2", "--n", "3"], "swcalc", _SW_LEAVES_OUT),
        (["verify-parity", "--g", "2..2", "--mn", "1..2"], "swcalc", _SW_LEAVES_OUT),
        (["homology", _PRINCIPAL], "homology", {"classify", "spectral", "swcalc"}),
        (["spectral", _PRINCIPAL], "spectral", {"classify", "swcalc"}),
        (["classify", _PRINCIPAL], "classify", {"swcalc"}),
    ],
    ids=["sw0", "swpoly", "verify-parity", "homology", "spectral", "classify"],
)
def test_a_subcommand_loads_only_the_modules_it_calls(argv, home, left_out):
    code = (
        "import contextlib, io, sys, torusbundles.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert torusbundles.cli.run({argv!r}) == 0\n"
        "print(' '.join(m.removeprefix('torusbundles.') for m in sys.modules))"
    )
    loaded = set(fresh_python(code).split())
    assert home in loaded
    assert not loaded & left_out


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_closed_stdout_exits_1_without_a_traceback(fmt):
    """The reader closes the pipe after one byte of an output far larger than the pipe buffer, as `| head` does."""
    src = str(Path(torusbundles.__file__).resolve().parents[1])
    argv = ["swpoly", "--genus", "2000", "--n", "100000", f"--format={fmt}"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "torusbundles.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.stdout.read(1)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 1
    assert err == ""  # no traceback, nor the "Exception ignored" note of a failed flush at exit


def _smoke_console(directory: Path, shim: str, **extra_env: str) -> subprocess.CompletedProcess:
    """Run `ci/smoke.sh console` with an executable `torusbundles` in directory, first on PATH, whose body is shim."""
    script = directory / "torusbundles"
    script.write_text(f"#!/usr/bin/env bash\n{shim}\n")
    script.chmod(0o755)
    env = {**os.environ, **extra_env, "PATH": f"{directory}{os.pathsep}{os.environ.get('PATH', '')}"}
    root = Path(__file__).resolve().parent.parent
    return subprocess.run(
        ["bash", str(root / "ci" / "smoke.sh"), "console"], env=env, capture_output=True, text=True, timeout=300
    )


def test_the_ci_console_smoke_script_runs_the_torusbundles_on_path(tmp_path):
    # the stub logs its arguments and exits 0, so the script stops at its first refusal check; FUNCNEST stops
    # a shell function named torusbundles that shadows the stub by calling itself
    log = tmp_path / "argv.txt"
    proc = _smoke_console(tmp_path, f'echo "$*" >> {shlex.quote(str(log))}', FUNCNEST="50")
    assert log.is_file(), proc.stdout + proc.stderr
    assert log.read_text().splitlines()[0] == "sw0 --genus 2 --m 3 --n 3"


@pytest.mark.slow
def test_the_ci_console_smoke_script_passes_on_the_source_tree(tmp_path):
    # the script CI runs on the installed console script, here run on this checkout's source by a shim
    src = Path(__file__).resolve().parent.parent / "src"
    proc = _smoke_console(tmp_path, f'exec {shlex.quote(sys.executable)} -m torusbundles.cli "$@"', PYTHONPATH=str(src))
    assert proc.returncode == 0, proc.stdout + proc.stderr
