"""Fuzzed argv for every subcommand: each draw exits 0, 1 or 2 and raises nothing.

Integers run from small values up to 5,000 digits, past Python's 4,300-digit limit on parsing them.  Draws the
budgets accept stay small (genus at most 8, |m|, |n| at most 30, verify-parity bounds within 4), so the whole test
runs in a few seconds; the huge draws only finish because the SW genus, the subgroup order, the swpoly listing and
the verify-parity grid are refused before the work starts.
"""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torusbundles.cli import run

# decimal text of 7 to 5,000 digits, either sign, built as text: str() of an int past 4,300 digits raises
_HUGE = st.builds(
    "{}{}{}{}".format,
    st.sampled_from(["", "-"]),
    st.integers(1, 9),
    st.integers(0, 4993).map("0".__mul__),
    st.integers(100_000, 999_999),
)
_GENUS = st.one_of(st.integers(-1, 8).map(str), _HUGE)
_INT = st.one_of(st.integers(-30, 30).map(str), _HUGE)
_SMALL = st.integers(-4, 4).map(str)
_RANGE = st.one_of(
    st.builds("{}..{}".format, _SMALL, _SMALL),
    st.builds("{}..{}".format, st.one_of(_SMALL, _HUGE), _HUGE),
    st.sampled_from(["", "..", "2..", "..3", "2-3", "2..3..4", "a..b", "2.0..3", " 2..3", "0x2..3"]),
)
_G_RANGE = st.one_of(st.builds("{}..{}".format, st.integers(2, 3), st.integers(2, 4)), _RANGE)
_FLAGS = {
    "swpoly": {"--genus": _GENUS, "--n": _INT},
    "sw0": {"--genus": _GENUS, "--m": _INT, "--n": _INT},
    "verify-parity": {"--g": _G_RANGE, "--mn": _RANGE},
}
_EXTRA = st.sampled_from(
    [[], [], [], ["--format=json"], ["--format=json"], ["--format=xml"], ["--frobnicate"], ["-x", "7"], ["--n"], ["7"]]
)


@st.composite
def _sw_argv(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    left_out = draw(st.sampled_from([None] * 4 + list(_FLAGS[command])))
    argv = [command]
    for flag, values in _FLAGS[command].items():
        if flag != left_out:
            argv += [flag, draw(values)]
    return argv + draw(_EXTRA)


_ROW = "[[1, 0], [0, 1]]"
HOSTILE_BUNDLES = {
    "not-json": "{not json",
    "list": "[]",
    "wrong-count": json.dumps({"genus": 2, "monodromy": [[[1, 0], [0, 1]]] * 3, "euler": [0, 0]}),
    "float-genus": json.dumps({"genus": 2.0, "monodromy": [[[1, 0], [0, 1]]] * 4, "euler": [0, 0]}),
    "float-entry": json.dumps({"genus": 2, "monodromy": [[[1.0, 0], [0, 1]]] * 4, "euler": [0, 0]}),
    "string-euler": json.dumps({"genus": 2, "monodromy": [[[1, 0], [0, 1]]] * 4, "euler": ["1", 0]}),
    "short-euler": json.dumps({"genus": 2, "monodromy": [[[1, 0], [0, 1]]] * 4, "euler": [1]}),
    "determinant-two": json.dumps({"genus": 2, "monodromy": [[[1, 1], [1, 3]]] * 4, "euler": [0, 0]}),
    "genus-one": json.dumps({"genus": 1, "monodromy": [[[1, 0], [0, 1]]] * 2, "euler": [0, 0]}),
    "huge-genus": '{"genus": 1%s, "monodromy": [], "euler": [0, 0]}' % ("0" * 4000),
    "entry-past-digit-limit": '{"genus": 2, "monodromy": [[[1, 1%s], [0, 1]], %s, %s, %s], "euler": [0, 0]}'
    % ("0" * 5000, _ROW, _ROW, _ROW),
    "valid": json.dumps({"genus": 2, "monodromy": [[[1, 1], [0, 1]]] + [[[1, 0], [0, 1]]] * 3, "euler": [2, 0]}),
}


@pytest.fixture(scope="module")
def bundle_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("hostile")
    for name, text in HOSTILE_BUNDLES.items():
        (directory / f"{name}.json").write_text(text)
    return directory


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_sw_argv())  # the draws mostly end in a refusal, so each command gets one example that runs to exit 0
@example(["swpoly", "--genus", "4", "--n", "-7"])
@example(["sw0", "--genus", "3", "--m", "2", "--n", "-12", "--format=json"])
@example(["verify-parity", "--g", "2..3", "--mn", "-4..4"])
def test_sw_commands_exit_0_1_or_2(argv):
    assert run(argv) in (0, 1, 2)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    st.sampled_from(["classify", "homology", "spectral"]),
    st.sampled_from([*HOSTILE_BUNDLES, "missing", "."]),
    _EXTRA,
)
def test_bundle_commands_exit_0_1_or_2(bundle_dir, command, name, extra):
    path = bundle_dir if name == "." else bundle_dir / f"{name}.json"
    assert run([command, str(path), *extra]) in (0, 1, 2)
