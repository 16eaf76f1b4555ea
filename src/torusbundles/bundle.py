"""Torus-bundle data model.

A bundle over a genus-g surface is recorded by its monodromy (an ordered list
of 2g matrices in SL(2,Z), acting on column vectors on the left, in the fiber
basis x1 = (1,0), x2 = (0,1)) and its Euler class (m, n) expressed in that
same basis.  The rule route reads the common fixed lattice of the monodromy.
The saturation of the subgroup generated by the vectors A*x - x is derived
too, but no package code calls it: the tests use it as the reference for the
rank of the Fox matrix D1 and in the Nielsen-move property.
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
        # the checked boundary for matrices from outside; the package derives the rest with _trusted
        for x in (a, b, c, d):
            if isinstance(x, bool) or not isinstance(x, int):
                raise ValidationError(f"matrix entry {x!r} is not an integer")
        if a * d - b * c != 1:
            det = _show(a * d - b * c)
            raise ValidationError(f"matrix [[{a},{b}],[{c},{d}]] has determinant {det}, expected 1")
        self.__dict__.update(a=a, b=b, c=c, d=d)

    @classmethod
    def _trusted(cls, a: int, b: int, c: int, d: int) -> "SL2Z":
        """Wrap integers of determinant 1 derived from checked matrices, skipping the check."""
        m = object.__new__(cls)
        m.__dict__.update(a=a, b=b, c=c, d=d)
        return m

    @classmethod
    def identity(cls) -> "SL2Z":
        return cls._trusted(1, 0, 0, 1)

    @property
    def is_identity(self) -> bool:
        return (self.a, self.b, self.c, self.d) == (1, 0, 0, 1)

    def __mul__(self, other: "SL2Z") -> "SL2Z":
        if not isinstance(other, SL2Z):
            return NotImplemented
        return SL2Z._trusted(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "SL2Z":
        return SL2Z._trusted(self.d, -self.b, -self.c, self.a)

    def apply(self, v: tuple[int, int]) -> tuple[int, int]:
        return (self.a * v[0] + self.b * v[1], self.c * v[0] + self.d * v[1])

    def conjugate(self, p: "SL2Z") -> "SL2Z":
        return p * self * p.inverse()

    def rows(self) -> list[list[int]]:
        return [[self.a, self.b], [self.c, self.d]]


class Lattice(Record):
    """Saturated sublattice of Z^2 given by a primitive basis."""

    rank: int
    basis: tuple[tuple[int, int], ...]

    def _check(self) -> None:
        if self.rank != len(self.basis):
            raise ValueError("rank disagrees with basis size")
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
        require_genus(self.genus)
        try:
            object.__setattr__(self, "monodromy", tuple(self.monodromy))
        except TypeError:
            raise ValidationError("monodromy must be a sequence of SL2Z values") from None
        _require_count(len(self.monodromy), self.genus)
        for i, m in enumerate(self.monodromy):
            if not isinstance(m, SL2Z):
                raise ValidationError(f"monodromy[{i}] is not an SL2Z value")
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


def _require_count(count: int, genus: int) -> None:
    if count != 2 * genus:
        raise ValidationError(f"monodromy has {count} matrices, expected 2*genus = {_show(2 * genus)}")


def _require_int(value: Any, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"field {field} must be an integer, got {value!r}") from None
    return value


def bundle_from_dict(obj: Any) -> TorusBundle:
    """Build a validated bundle from a parsed document object, checking each field once, here, so `_check` is skipped."""
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
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or any(not isinstance(row, list) or len(row) != 2 for row in entry)
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
    require_genus(genus)
    _require_count(len(matrices), genus)
    return TorusBundle._trusted(genus, tuple(matrices), euler)


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
    return bundle_from_dict(obj)


def _lattice_from_kernel_columns(basis_matrix: IntMatrix) -> Lattice:
    columns = tuple(zip(*basis_matrix.entries))
    return Lattice(len(columns), columns)


def fixed_sublattice(b: TorusBundle) -> Lattice:
    """Saturated lattice of vectors fixed by every monodromy matrix.

    Rank 2 exactly for trivial monodromy; rank >= 1 exactly when the bundle
    supports a free circle action preserving fibers.
    """
    # the 4g x 2 stack of the blocks A_i - I
    stacked = tuple(row for m in b.monodromy for row in ((m.a - 1, m.b), (m.c, m.d - 1)))
    return _lattice_from_kernel_columns(integer_kernel(IntMatrix._trusted(stacked, 2)))


def relation_sublattice(b: TorusBundle) -> Lattice:
    """Saturation of the subgroup of Z^2 generated by the vectors A*x - x.

    The generators are the columns of the matrices A_i - I.  Rank 0 exactly
    for trivial monodromy; rank 1 exactly for nontrivial monodromy with a
    common fixed vector, in which case the lattice spans the same line as
    fixed_sublattice.
    """
    # the 4g x 2 stack of the transposed blocks (A_i - I)^T, one row per generator
    generators = tuple(row for m in b.monodromy for row in ((m.a - 1, m.c), (m.b, m.d - 1)))
    orthogonal = integer_kernel(IntMatrix._trusted(generators, 2))
    saturation = integer_kernel(orthogonal.transpose())
    return _lattice_from_kernel_columns(saturation)


def conjugate_bundle(b: TorusBundle, p: SL2Z) -> TorusBundle:
    """Change of fiber basis: conjugate the monodromy by p and push the Euler class through p."""
    return TorusBundle(
        b.genus,
        tuple(m.conjugate(p) for m in b.monodromy),
        p.apply(b.euler),
    )
