import json
import random

import pytest

from torusbundles import (
    ParseError,
    SL2Z,
    TorusBundle,
    ValidationError,
    conjugate_bundle,
    fixed_sublattice,
    parse_bundle,
    relation_sublattice,
    serialize_bundle,
)

from support import (
    IDENTITY,
    ROTATION,
    UPPER,
    random_arbitrary_monodromy,
    random_sl2z,
    random_valid_bundle,
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
            assert (m * ROTATION).det == 1

    def test_apply(self):
        assert UPPER.apply((0, 1)) == (1, 1)


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

    def test_non_integer_entry_is_parse_error(self):
        text = json.dumps(
            {"genus": 2, "monodromy": [[[1.5, 0], [0, 1]]] + [[[1, 0], [0, 1]]] * 3, "euler": [0, 0]}
        )
        with pytest.raises(ParseError, match=r"monodromy\[0\]"):
            parse_bundle(text)

    def test_bad_euler_shape(self):
        text = json.dumps({"genus": 2, "monodromy": [[[1, 0], [0, 1]]] * 4, "euler": [1]})
        with pytest.raises(ParseError, match="euler"):
            parse_bundle(text)

    def test_round_trip(self):
        rng = random.Random(8)
        for _ in range(25):
            b = random_valid_bundle(rng, rng.choice([2, 3]))
            assert parse_bundle(serialize_bundle(b)) == b


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
                    assert fixed.spans_same_line(rel)


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
                assert after.contains(p.apply(v))
            inv = p.inverse()
            for w in after.basis:
                assert before.contains(inv.apply(w))
