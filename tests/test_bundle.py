import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from torusbundles import bundle as bundle_module
from torusbundles import (
    Lattice,
    ParseError,
    SL2Z,
    TorusBundle,
    ValidationError,
    fixed_sublattice,
    integer_kernel,
    parse_bundle,
)

from support import (
    IDENTITY,
    ROTATION,
    UPPER,
    apply,
    conjugate,
    conjugate_bundle,
    count_calls,
    random_arbitrary_monodromy,
    random_sl2z,
    random_valid_bundle,
    relation_sublattice,
    replace_everywhere,
    sl2z_with_column,
)


def bundle(monodromy, euler=(0, 0), genus=2):
    return TorusBundle(genus, tuple(monodromy), euler)


class TestSL2Z:
    def test_determinant_enforced(self):
        with pytest.raises(ValidationError):
            SL2Z(1, 1, 1, 1)

    def test_inverse_and_product(self):
        rng = random.Random(11)
        for _ in range(50):
            m = random_sl2z(rng)
            assert m * m.inverse() == IDENTITY
            p = m * ROTATION
            assert SL2Z(p.a, p.b, p.c, p.d) == p

    def test_apply(self):
        assert apply(UPPER, (0, 1)) == (1, 1)

    def test_checked_constructor_accepts_an_int_subclass(self):
        class I(int):
            pass

        m = SL2Z(I(2), I(1), I(1), I(1))
        assert (m.a, m.b, m.c, m.d) == (2, 1, 1, 1)

    @pytest.mark.parametrize("k", range(4))
    def test_checked_constructor_refuses_bool(self, k):
        entries = [1, 0, 0, 1]
        entries[k] = True
        with pytest.raises(ValidationError) as info:
            SL2Z(*entries)
        assert str(info.value) == "matrix entry True is not an integer"

    def test_product_with_a_non_sl2z_is_a_type_error(self):
        class FloatEntries:
            a, b, c, d = 1.0, 0.5, 0.0, 1.0

        for other in (3, FloatEntries()):
            with pytest.raises(TypeError):
                UPPER * other


@st.composite
def _big_sl2z(draw):
    """A checked SL(2,Z) matrix with entries up to 10**50: a primitive column (a, c) completed by Bezout."""
    return sl2z_with_column(draw(st.integers(-(10**50), 10**50)), draw(st.integers(-(10**50), 10**50)))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    st.lists(_big_sl2z(), min_size=1, max_size=4),
    st.lists(st.tuples(st.integers(0, 3), st.booleans()), max_size=8),
)
def test_trusted_arithmetic_stays_in_sl2z(generators, word):
    """Products, inverses, conjugates and the identity are built without the determinant check; each must
    still have determinant 1 and equal its rebuild through the checked constructor."""
    acc = SL2Z.identity()
    derived, letters = [acc], []
    for i, inverted in word:
        m = generators[i % len(generators)]
        m = m.inverse() if inverted else m
        letters.append(m)
        acc = acc * m
        derived += [m, acc, acc.inverse(), conjugate(m, acc), conjugate(acc, m)]
    for m in derived:
        assert SL2Z(m.a, m.b, m.c, m.d) == m
    undo = SL2Z.identity()
    for m in reversed(letters):
        undo = undo * m.inverse()
    assert acc * undo == SL2Z.identity() == undo * acc


class TestBundleBoundary:
    @pytest.mark.parametrize(
        "monodromy, euler, field",
        [
            ((IDENTITY,) * 4, 5, "euler"),
            ((IDENTITY,) * 4, (1, 2, 3), "euler"),
            ((IDENTITY,) * 4, (1,), "euler"),
            ((IDENTITY,) * 4, None, "euler"),
            (5, (0, 0), "monodromy"),
            (None, (0, 0), "monodromy"),
        ],
        ids=["euler-int", "euler-triple", "euler-single", "euler-none", "monodromy-int", "monodromy-none"],
    )
    def test_malformed_fields_are_validation_errors(self, monodromy, euler, field):
        with pytest.raises(ValidationError, match=field):
            TorusBundle(2, monodromy, euler)

    @pytest.mark.parametrize(
        "euler, message",
        [(5, "field euler must be an array [m, n]"), ([1, 2, 3], "field euler must be an array [m, n]")],
    )
    def test_document_messages_are_unchanged(self, euler, message):
        text = json.dumps({"genus": 2, "monodromy": [[[1, 0], [0, 1]]] * 4, "euler": euler})
        with pytest.raises(ParseError) as info:
            parse_bundle(text)
        assert str(info.value) == message


class TestParsing:
    def test_trivial_bundle_accepted(self):
        text = json.dumps(
            {"genus": 2, "monodromy": [[[1, 0], [0, 1]]] * 4, "euler": [0, 0]}
        )
        b = parse_bundle(text)
        assert b.genus == 2
        assert b.is_principal
        assert b.euler == (0, 0)

    def test_whitespace_insensitive(self):
        text = '  {\n "genus" : 2 ,\n"monodromy":[[[1,0],[0,1]],[[1,0],[0,1]],[[1,0],[0,1]],[[1,0],[0,1]]],\n\t"euler": [ 0 , 0 ]}  '
        assert parse_bundle(text).genus == 2

    def test_determinant_zero_rejected(self):
        text = json.dumps(
            {
                "genus": 2,
                "monodromy": [[[1, 1], [1, 1]]] + [[[1, 0], [0, 1]]] * 3,
                "euler": [0, 0],
            }
        )
        with pytest.raises(ValidationError, match=r"monodromy\[0\]"):
            parse_bundle(text)

    def test_genus_one_rejected(self):
        text = json.dumps({"genus": 1, "monodromy": [[[1, 0], [0, 1]]] * 2, "euler": [0, 0]})
        with pytest.raises(ValidationError, match="genus"):
            parse_bundle(text)

    def test_wrong_arity_rejected(self):
        text = json.dumps({"genus": 2, "monodromy": [[[1, 0], [0, 1]]] * 3, "euler": [0, 0]})
        with pytest.raises(ValidationError, match="monodromy has 3"):
            parse_bundle(text)

    def test_missing_field_is_parse_error(self):
        with pytest.raises(ParseError, match="euler"):
            parse_bundle(json.dumps({"genus": 2, "monodromy": []}))

    def test_invalid_json_is_parse_error(self):
        with pytest.raises(ParseError):
            parse_bundle("{genus: 2")

    def test_deeply_nested_json_is_parse_error(self):
        with pytest.raises(ParseError, match="invalid bundle document"):
            parse_bundle("[" * 100_000 + "]" * 100_000)

    def test_integer_literal_over_the_digit_limit_is_parse_error(self):
        text = '{"genus": 2, "monodromy": [[[1, 0], [0, 1]]], "euler": [1%s, 0]}' % ("0" * 4300)
        with pytest.raises(ParseError, match="invalid bundle document"):
            parse_bundle(text)

    @pytest.mark.parametrize(
        "doc, field",
        [
            # 2*genus and the determinant have more digits than Python will print
            ('{"genus": %s, "monodromy": [], "euler": [0, 0]}' % ("9" * 4300), "monodromy has 0"),
            (
                '{"genus": 2, "monodromy": [[[%s, 0], [0, %s]]], "euler": [0, 0]}' % ("9" * 4300, "9" * 4300),
                r"monodromy\[0\]: .* has determinant <\d+-bit integer>",
            ),
        ],
        ids=["genus", "determinant"],
    )
    def test_messages_survive_values_too_long_to_print(self, doc, field):
        with pytest.raises(ValidationError, match=field):
            parse_bundle(doc)

    @pytest.mark.parametrize(
        "matrix",
        [
            3,
            "ab",
            {"a": 1, "b": 2},
            [[1, 0]],
            [[1, 0], [0, 1], [0, 0]],
            [5, [0, 1]],
            [[1, 0], 5],
            ["ab", [0, 1]],
            [[1, 0], "ab"],
            [[1], [0, 1]],
            [[1, 0], [0]],
            [[1, 0, 0], [0, 1]],
            [[1, 0], [0, 1, 0]],
        ],
    )
    def test_a_matrix_of_the_wrong_shape_is_named(self, matrix):
        identity = [[1, 0], [0, 1]]
        text = json.dumps({"genus": 2, "monodromy": [identity, matrix, identity, identity], "euler": [0, 0]})
        with pytest.raises(ParseError) as info:
            parse_bundle(text)
        assert str(info.value) == "monodromy[1] must be a 2x2 array [[a,b],[c,d]]"

    def test_non_integer_entry_is_parse_error(self):
        text = json.dumps(
            {"genus": 2, "monodromy": [[[1.5, 0], [0, 1]]] + [[[1, 0], [0, 1]]] * 3, "euler": [0, 0]}
        )
        with pytest.raises(ParseError, match=r"monodromy\[0\]"):
            parse_bundle(text)

    @pytest.mark.parametrize("k", range(4))
    def test_first_non_integer_entry_is_named(self, k):
        entries = [1, 0, 0, 1]
        entries[k:] = ["x", True, None, 2.0][: 4 - k]  # every entry from k on is bad; the first is reported
        matrix = [entries[:2], entries[2:]]
        identity = [[1, 0], [0, 1]]
        text = json.dumps({"genus": 2, "monodromy": [identity, matrix, identity, identity], "euler": [0, 0]})
        with pytest.raises(ParseError) as info:
            parse_bundle(text)
        assert str(info.value) == f"field monodromy[1][{k // 2}][{k % 2}] must be an integer, got 'x'"

    def test_valid_matrix_entries_format_no_field_name(self, monkeypatch):
        fields = []
        require_int = bundle_module._require_int
        counted = lambda x, field: fields.append(field) or require_int(x, field)  # noqa: E731
        monkeypatch.setattr(bundle_module, "_require_int", counted)
        assert parse_bundle(json.dumps(bundle((UPPER,) * 10, (1, 2), genus=5).to_dict())).genus == 5
        assert fields == ["genus", "euler[0]", "euler[1]"]

    def test_bad_euler_shape(self):
        text = json.dumps({"genus": 2, "monodromy": [[[1, 0], [0, 1]]] * 4, "euler": [1]})
        with pytest.raises(ParseError, match="euler"):
            parse_bundle(text)

    def test_round_trip(self):
        rng = random.Random(8)
        for _ in range(25):
            b = random_valid_bundle(rng, rng.choice([2, 3]))
            assert parse_bundle(json.dumps(b.to_dict())) == b


class TestLattice:
    def test_rank_is_the_basis_size(self):
        assert Lattice(((1, 0),)).rank == 1
        assert Lattice(()).rank == 0
        assert Lattice(((1, 0), (0, 1))).rank == 2
        with pytest.raises(TypeError):
            Lattice(1, ((1, 0),))  # basis is the only field


class TestFixedSublattice:
    def test_trivial_monodromy_full_rank(self):
        assert fixed_sublattice(bundle([IDENTITY] * 4)).rank == 2

    def test_unipotent_fixes_a_line(self):
        lat = fixed_sublattice(bundle([UPPER, IDENTITY, IDENTITY, IDENTITY]))
        assert lat.rank == 1
        assert lat.basis == ((1, 0),)

    def test_rotation_fixes_nothing(self):
        assert fixed_sublattice(bundle([ROTATION, IDENTITY, IDENTITY, IDENTITY])).rank == 0


class TestRelationSublattice:
    def test_trivial_monodromy_rank_zero(self):
        assert relation_sublattice(bundle([IDENTITY] * 4)).rank == 0

    def test_unipotent_rank_one(self):
        lat = relation_sublattice(bundle([UPPER, IDENTITY, IDENTITY, IDENTITY]))
        assert lat.rank == 1
        assert lat.basis == ((1, 0),)

    def test_rotation_rank_two(self):
        assert relation_sublattice(bundle([ROTATION, IDENTITY, IDENTITY, IDENTITY])).rank == 2

    def test_rank_correlation_with_fixed_lattice(self):
        # holds for every determinant-1 tuple, relation-satisfying or not
        rng = random.Random(314)
        for _ in range(150):
            g = rng.choice([2, 3])
            b = bundle(random_arbitrary_monodromy(rng, g), genus=g)
            fixed = fixed_sublattice(b)
            rel = relation_sublattice(b)
            assert fixed.rank + rel.rank == 2
            if fixed.rank == 1:
                assert rel.rank <= 1
                if rel.rank == 1:
                    assert fixed.contains(rel.basis[0])

    def test_the_reference_never_calls_the_rule_routes_lattice(self, monkeypatch):
        rng = random.Random(315)
        bundles = [random_valid_bundle(rng, rng.choice([2, 3])) for _ in range(60)]
        expected = [relation_sublattice(b) for b in bundles]

        def refuse(b):
            raise AssertionError("the relation lattice reference called fixed_sublattice")

        replace_everywhere(monkeypatch, fixed_sublattice, refuse)
        monkeypatch.setattr(support, "fixed_sublattice", refuse)
        assert [relation_sublattice(b) for b in bundles] == expected
        assert {lat.rank for lat in expected} == {0, 1, 2}

    def test_the_reference_reads_integer_kernel_at_call_time(self, monkeypatch):
        # so a test that replaces integer_kernel everywhere, as the genus-1000 lattice test does, reaches it
        calls = count_calls(monkeypatch, integer_kernel)
        assert relation_sublattice(bundle([UPPER, IDENTITY, IDENTITY, IDENTITY])).basis == ((1, 0),)
        assert len(calls) == 2


class TestRelationCheck:
    def test_trivial_and_single_nontrivial_tuples_are_representations(self):
        assert bundle([IDENTITY] * 4).surface_relation_holds()
        assert bundle([UPPER, IDENTITY, IDENTITY, IDENTITY]).surface_relation_holds()

    def test_generator_produces_representations(self):
        rng = random.Random(2025)
        for _ in range(100):
            b = random_valid_bundle(rng, rng.choice([2, 3]))
            assert b.surface_relation_holds()

    def test_commutator_pair_fails_the_relation(self):
        lower = SL2Z(1, 0, 1, 1)
        assert not bundle([UPPER, lower, IDENTITY, IDENTITY]).surface_relation_holds()


class TestEquivariance:
    def test_fixed_lattice_moves_by_conjugation(self):
        rng = random.Random(99)
        for _ in range(60):
            g = rng.choice([2, 3])
            b = random_valid_bundle(rng, g)
            p = random_sl2z(rng, 4)
            moved = conjugate_bundle(b, p)
            before, after = fixed_sublattice(b), fixed_sublattice(moved)
            assert before.rank == after.rank
            for v in before.basis:
                assert after.contains(apply(p, v))
            inv = p.inverse()
            for w in after.basis:
                assert before.contains(apply(inv, w))


def _hostile(rng):
    """A JSON fragment of any kind a hostile document can put where an integer or an array belongs."""
    kind = rng.randrange(8)
    if kind < 2:  # at Python's 4,300-digit limit: the longest literals json accepts, and one digit more
        return "7" * rng.choice([4299, 4300, 4301])
    if kind == 2:
        return str(rng.randint(-(10**40), 10**40))
    if kind == 3:
        depth = rng.choice([rng.randint(1, 40), rng.randint(900, 1100), 100_000])
        return "[" * depth + "]" * depth
    return rng.choice(["-1", "0", "3", "true", "false", "null", "1.5", "1e400", "NaN", "-Infinity", '"2"', "{}"])


@st.composite
def _documents(draw):
    """A valid bundle document with at most one part replaced by something hostile.

    The choices come from a drawn Random, so every place and kind of damage has fixed odds; hypothesis'
    own choices favour the simplest alternatives, and with them the derandomized examples never held a
    4,300-digit literal where it breaks a message.
    """
    rng = random.Random(draw(st.integers(0, 2**32)))
    genus = rng.choice([2, 3])
    sl2z = [(1, 0, 0, 1), (1, 1, 0, 1), (0, -1, 1, 0), (2, 1, 1, 1)]
    mats = [[str(x) for x in rng.choice(sl2z)] for _ in range(2 * genus)]
    doc = {"genus": str(genus), "monodromy": None, "euler": [str(rng.randint(-3, 3)), "0"]}
    where = rng.choice(["none", "top", "key", "genus", "monodromy", "matrix", "entry", "arity", "euler"])
    bad, i = _hostile(rng), rng.randrange(2 * genus)
    if where == "top":
        return bad
    if where == "key":
        del doc[rng.choice(sorted(doc))]
    elif where == "genus":
        doc["genus"] = bad
    elif where == "entry":  # both diagonal or both off-diagonal entries make the determinant a product
        for k in rng.choice([(0,), (1,), (2,), (3,), (0, 3), (1, 2)]):
            mats[i][k] = bad
    elif where == "arity":
        mats = mats[: rng.randint(0, 2 * genus + 2)] + mats[:1] * rng.randint(0, 2)
    elif where == "euler":
        doc["euler"] = rng.choice([[bad, "0"], [bad], ["1", "2", "3"], bad])
    rows = [f"[[{a}, {b}], [{c}, {d}]]" for a, b, c, d in mats]
    if where == "matrix":
        rows[i] = rng.choice([bad, f"[{bad}, [0, 1]]", f"[[{bad}], [0, 1]]", "[[1, 0]]"])
    if "monodromy" in doc:
        doc["monodromy"] = bad if where == "monodromy" else "[" + ", ".join(rows) + "]"
    if isinstance(doc.get("euler"), list):
        doc["euler"] = "[" + ", ".join(doc["euler"]) + "]"
    return "{" + ", ".join(f'"{k}": {v}' for k, v in doc.items()) + "}"


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(_documents())
def test_parser_fuzz_raises_only_its_own_errors(text):
    """Any document parses to a bundle or raises ParseError/ValidationError, never another exception."""
    try:
        result = parse_bundle(text)
    except (ParseError, ValidationError):
        return
    assert isinstance(result, TorusBundle)
