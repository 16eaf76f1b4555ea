"""Torus-bundle data model.

A bundle over a genus-g surface is recorded by its monodromy (an ordered list
of 2g matrices in SL(2,Z), acting on column vectors on the left, in the fiber
basis x1 = (1,0), x2 = (0,1)) and its Euler class (m, n) expressed in that
same basis.  The rule route reads the common fixed lattice of the monodromy.
"""

from __future__ import annotations

import json
from math import gcd
from typing import Any

from ._record import Record, ValidationError, require_genus
from .exactla import IntMatrix, integer_kernel


class ParseError(ValueError):
    """Raised for syntactically or structurally malformed bundle documents."""


def _show(x: int) -> str:
    """Decimal text of x for a message, or its bit length where Python's digit limit refuses the text."""
    try:
        return str(x)
    except ValueError:
        return f"<{x.bit_length()}-bit integer>"


class SL2Z(Record):
    """2x2 integer matrix of determinant 1."""

    a: int
    b: int
    c: int
    d: int

    def __init__(self, a: int, b: int, c: int, d: int):
        # the checked boundary for matrices from outside; the package derives the rest unchecked.  Exact ints, what
        # JSON gives, pass one type test each; the loop refuses bool and names the first non-integer entry
        if not (type(a) is int and type(b) is int and type(c) is int and type(d) is int):
            for x in (a, b, c, d):
                if isinstance(x, bool) or not isinstance(x, int):
                    raise ValidationError(f"matrix entry {x!r} is not an integer")
        if a * d - b * c != 1:
            det = _show(a * d - b * c)
            raise ValidationError(f"matrix [[{a},{b}],[{c},{d}]] has determinant {det}, expected 1")
        self.__dict__.update(a=a, b=b, c=c, d=d)

    @classmethod
    def identity(cls) -> "SL2Z":
        return cls(1, 0, 0, 1)

    @property
    def is_identity(self) -> bool:
        return (self.a, self.b, self.c, self.d) == (1, 0, 0, 1)

    def __mul__(self, other: "SL2Z") -> "SL2Z":
        if other.__class__ is not SL2Z and not isinstance(other, SL2Z):
            return NotImplemented
        # built in place, unchecked; tests/test_scaling.py::test_fox_walk_inverts_each_matrix_once counts them
        m = object.__new__(SL2Z)
        m.__dict__.update(
            a=self.a * other.a + self.b * other.c,
            b=self.a * other.b + self.b * other.d,
            c=self.c * other.a + self.d * other.c,
            d=self.c * other.b + self.d * other.d,
        )
        return m

    def inverse(self) -> "SL2Z":
        m = object.__new__(SL2Z)
        m.__dict__.update(a=self.d, b=-self.b, c=-self.c, d=self.a)
        return m

    def rows(self) -> list[list[int]]:
        return [[self.a, self.b], [self.c, self.d]]


def require_monodromy(genus: int, monodromy: Any) -> tuple[SL2Z, ...]:
    """require_genus, then the monodromy as a tuple of exactly 2*genus SL2Z values."""
    require_genus(genus)
    try:
        mats = tuple(monodromy)
    except TypeError:
        raise ValidationError("monodromy must be a sequence of SL2Z values") from None
    if len(mats) != 2 * genus:
        raise ValidationError(f"monodromy has {len(mats)} matrices, expected 2*genus = {_show(2 * genus)}")
    for i, m in enumerate(mats):
        if not isinstance(m, SL2Z):
            raise ValidationError(f"monodromy[{i}] is not an SL2Z value")
    return mats


class Lattice(Record):
    """Saturated sublattice of Z^2 given by a primitive basis; its rank is the basis size."""

    basis: tuple[tuple[int, int], ...]

    @property
    def rank(self) -> int:
        return len(self.basis)

    def _check(self) -> None:
        for v in self.basis:
            if v == (0, 0):
                raise ValueError("zero vector in lattice basis")
            if gcd(abs(v[0]), abs(v[1])) != 1:
                raise ValueError(f"basis vector {v} is not primitive")

    def contains(self, v: tuple[int, int]) -> bool:
        """Exact membership of an integer vector in the lattice."""
        if v == (0, 0):
            return True
        if self.rank == 0:
            return False
        if self.rank == 2:
            return True
        (z1, z2) = self.basis[0]
        # multiples of the primitive generator are exactly the parallel vectors
        return v[0] * z2 - v[1] * z1 == 0


class TorusBundle(Record):
    """Orientable torus bundle over a genus-g surface, g >= 2."""

    genus: int
    monodromy: tuple[SL2Z, ...]
    euler: tuple[int, int]

    def _check(self) -> None:
        if isinstance(self.genus, bool) or not isinstance(self.genus, int):
            raise ValidationError(f"genus {self.genus!r} is not an integer")
        object.__setattr__(self, "monodromy", require_monodromy(self.genus, self.monodromy))
        try:
            m, n = self.euler
        except (TypeError, ValueError):
            raise ValidationError("euler must be a pair of integers (m, n)") from None
        for x in (m, n):
            if isinstance(x, bool) or not isinstance(x, int):
                raise ValidationError(f"euler entry {x!r} is not an integer")
        object.__setattr__(self, "euler", (m, n))

    @classmethod
    def _trusted(cls, genus: int, monodromy: tuple[SL2Z, ...], euler: tuple[int, int]) -> "TorusBundle":
        """Wrap fields the package has already checked, as `_check` would leave them, skipping `_check`."""
        b = object.__new__(cls)
        for name, value in zip(cls._fields, (genus, monodromy, euler)):
            object.__setattr__(b, name, value)
        return b

    @property
    def is_flat(self) -> bool:
        return self.euler == (0, 0)

    @property
    def is_principal(self) -> bool:
        return all(m.is_identity for m in self.monodromy)

    def flat_twin(self) -> "TorusBundle":
        """Same monodromy with the Euler class zeroed."""
        return TorusBundle._trusted(self.genus, self.monodromy, (0, 0))

    def surface_relation_holds(self) -> bool:
        """Whether the product of monodromy commutators is the identity.

        True exactly when the matrix tuple defines a homomorphism from the
        base surface group, i.e. when it is the monodromy of an honest
        bundle rather than a formal tuple.
        """
        p, q, r, s = 1, 0, 0, 1
        for x, y in zip(self.monodromy[::2], self.monodromy[1::2]):
            # right-multiply the running product by x, y, x^-1 and y^-1
            inverses = (x.d, -x.b, -x.c, x.a), (y.d, -y.b, -y.c, y.a)
            for a, b, c, d in ((x.a, x.b, x.c, x.d), (y.a, y.b, y.c, y.d), *inverses):
                p, q, r, s = p * a + q * c, p * b + q * d, r * a + s * c, r * b + s * d
        return (p, q, r, s) == (1, 0, 0, 1)

    def to_dict(self) -> dict[str, Any]:
        return {
            "genus": self.genus,
            "monodromy": [m.rows() for m in self.monodromy],
            "euler": [self.euler[0], self.euler[1]],
        }


def _require_int(value: Any, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"field {field} must be an integer, got {value!r}") from None
    return value


def parse_bundle(text: str) -> TorusBundle:
    """Parse the bundle file format.

    The format is a JSON object {"genus": g, "monodromy": [[[a,b],[c,d]], ...],
    "euler": [m, n]} with exactly 2g monodromy matrices, each of determinant
    1, and unbounded integers throughout.  An integer literal longer than
    Python's digit limit (4,300 digits unless the interpreter is configured
    otherwise) is refused with a ParseError, as is malformed or too deeply
    nested JSON.
    """
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError: JSONDecodeError or an integer literal over the digit limit; RecursionError: deep nesting
        raise ParseError(f"invalid bundle document: {exc}") from None
    # each field is checked once, here, so the bundle is built without `_check`
    if not isinstance(obj, dict):
        raise ParseError("bundle document must be an object with keys genus, monodromy, euler")
    for key in ("genus", "monodromy", "euler"):
        if key not in obj:
            raise ParseError(f"missing field {key}")
    genus = _require_int(obj["genus"], "genus")

    raw_monodromy = obj["monodromy"]
    if not isinstance(raw_monodromy, list):
        raise ParseError("field monodromy must be an array of 2x2 matrices")
    matrices = []
    for i, entry in enumerate(raw_monodromy):
        if not (
            isinstance(entry, list)
            and len(entry) == 2
            and isinstance(entry[0], list)
            and len(entry[0]) == 2
            and isinstance(entry[1], list)
            and len(entry[1]) == 2
        ):
            raise ParseError(f"monodromy[{i}] must be a 2x2 array [[a,b],[c,d]]")
        (a, b), (c, d) = entry
        try:
            matrices.append(SL2Z(a, b, c, d))
        except ValidationError as exc:  # SL2Z checks the entries; a non-integer one is reported by its field name
            for k, x in enumerate((a, b, c, d)):
                _require_int(x, f"monodromy[{i}][{k // 2}][{k % 2}]")
            raise ValidationError(f"monodromy[{i}]: {exc}") from None

    raw_euler = obj["euler"]
    if not isinstance(raw_euler, list) or len(raw_euler) != 2:
        raise ParseError("field euler must be an array [m, n]")
    euler = (_require_int(raw_euler[0], "euler[0]"), _require_int(raw_euler[1], "euler[1]"))
    return TorusBundle._trusted(genus, require_monodromy(genus, matrices), euler)


def fixed_sublattice(b: TorusBundle) -> Lattice:
    """Saturated lattice of vectors fixed by every monodromy matrix.

    Rank 2 exactly for trivial monodromy; rank >= 1 exactly when the bundle
    supports a free circle action preserving fibers.
    """
    # the 4g x 2 stack of the blocks A_i - I
    stacked = tuple(row for m in b.monodromy for row in ((m.a - 1, m.b), (m.c, m.d - 1)))
    kernel = integer_kernel(IntMatrix._trusted(stacked, 2))
    return Lattice(tuple(zip(*kernel.entries)))

