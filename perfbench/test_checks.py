"""The benchmark's reference and checks: right answers pass, wrong answers count as failures."""

import random

import inputs as gen
import reference
from run import Counts, check_pass

ROTATION = (0, -1, 1, 0)
IDENTITY = reference.IDENTITY


def test_reference_matches_worked_examples():
    # H1 = Z^4 + Z_2 and symplectic, as the CLI tests state for this bundle
    rotation = reference.expected_classification(2, [ROTATION] + [IDENTITY] * 3, (5, 7))
    assert rotation["b1"] == 4 and rotation["symplectic"] is True
    principal = reference.expected_classification(2, [IDENTITY] * 4, (1, 1))
    assert principal["b1"] == 5 and principal["symplectic"] is False
    # "-2 + 1*t^1 + 1*t^4", as the CLI tests state for swpoly --genus 2 --n 5
    assert reference.circle_poly(2, 5) == [-2, 1, 0, 0, 1]


def test_generated_monodromy_satisfies_the_relation():
    rng = random.Random(7)
    for g in (2, 3, 5, 16):
        for _ in range(50):
            assert reference.relation_holds(gen.valid_monodromy(rng, g, 5))


def test_classify_check_counts_wrong_answers():
    want = reference.expected_classification(2, [IDENTITY] * 4, (1, 1))
    assert reference.check_classify(want, dict(want)) is None
    for key, wrong in (("symplectic", True), ("b1", 6), ("spectral_oracle", None)):
        assert reference.check_classify(want, {**want, key: wrong})
    assert reference.check_classify(want, {**want, "b2": 9})
    assert reference.check_classify(want, {"error": "ValueError: boom"})


def test_sw_checks_count_wrong_answers():
    g, m, n = 3, 2, 12
    value = reference.sw0_value(g, m, n)
    assert value % 2 == 0
    assert reference.check_sw0(g, m, n, {"coset": value, "closed": value}) is None
    assert reference.check_sw0(g, m, n, {"coset": value + 2, "closed": value + 2})
    assert reference.check_sw0(g, m, n, {"coset": value, "closed": value + 2})
    assert reference.check_sw0(g, 1, n, {"coset": reference.sw0_value(g, 1, n), "closed": 0})
    poly = reference.circle_poly(g, n)
    assert reference.check_poly_pair(g, n, poly, poly) is None
    assert reference.check_poly_pair(g, n, poly, [c + 1 for c in poly])
    good = {"cases": 40, "skipped": 1, "all_even": True, "counterexamples": 0}
    n_values = range(-20, 21)
    assert reference.check_sweep_row(3, n_values, good) is None
    assert reference.check_sweep_row(3, n_values, {**good, "counterexamples": 1})
    assert reference.check_sweep_row(3, n_values, {**good, "cases": 39})


def test_cli_check_counts_wrong_answers():
    op = {"command": "sw0", "format": "json", "genus": 2, "m": 3, "n": 5}
    value = reference.sw0_value(2, 3, 5)
    payload = f'{{"coset_route": {value}, "closed_route": {value}, "even": true}}'
    ok = {"returncode": 0, "stdout": payload, "stderr": ""}
    library = {"coset_route": value, "closed_route": value}
    assert reference.check_cli(op, ok, library) is None
    assert reference.check_cli(op, {**ok, "returncode": 1}, library)
    assert reference.check_cli(op, ok, {**library, "coset_route": value + 2})
    wrong = payload.replace(f'"coset_route": {value}', f'"coset_route": {value + 2}')
    assert reference.check_cli(op, {**ok, "stdout": wrong}, None)


def test_one_wrong_output_in_a_pass_is_one_failure():
    rng = random.Random(3)
    ops = gen.classify_inputs(rng)[:40]
    expected = [reference.expected_classification(op["genus"], op["mats"], op["euler"]) for op in ops]
    outputs = [dict(e) for e in expected]
    outputs[5]["symplectic"] = not outputs[5]["symplectic"]
    result = {"outputs": outputs, "extra": {}}
    counts = Counts()
    counts.add(check_pass("classify-mixed", {"ops": ops}, {"expected": expected}, result))
    assert (counts.attempted, counts.failed) == (40, 1)
    assert counts.reasons[0][0] == 5
