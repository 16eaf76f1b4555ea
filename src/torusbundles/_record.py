"""What every module needs: immutable value records on one shared base, the genus check and the error types.

Records generate no methods per class.  Keep this module small: the CLI imports it before it knows the subcommand.
"""

from __future__ import annotations


class ValidationError(ValueError):
    """Raised for semantically invalid bundle data (determinant, arity, genus)."""


class InternalInconsistencyError(RuntimeError):
    """An oracle disagreed with the rule-based verdict: an implementation bug, never a valid outcome."""


def require_genus(g: int) -> None:
    """Reject a base genus below 2, the range every computation in the package supports."""
    if g < 2:
        raise ValidationError(f"genus {g} is below the supported range (need g >= 2)")


class Record:
    """Immutable record whose fields are its class annotations, in order, and its ``vars``: the CLI's JSON needs that.

    A class attribute beside an annotation is that field's default.  Fields are
    set with ``object.__setattr__``: writing ``__dict__`` slows later reads.
    ``SL2Z`` is the measured exception and writes ``__dict__`` on every product
    (README, "Design note: records").
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields += tuple(cls.__annotations__)
        cls._defaults = {f: getattr(cls, f) for f in cls._fields if hasattr(cls, f)}

    def __init__(self, *args: object, **kwargs: object) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):  # fill in keywords and defaults; a positional call skips this
            try:
                args += tuple([kwargs.pop(f) if f in kwargs else self._defaults[f] for f in fields[len(args) :]])
            except KeyError as exc:
                raise TypeError(f"{type(self).__name__}() missing argument {exc}") from None
            if kwargs or len(args) > len(fields):
                raise TypeError(f"{type(self).__name__}() takes the fields {fields}; got extra or unknown arguments")
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        self._check()

    def _check(self) -> None:
        """Validate the fields after construction; normalise one with ``object.__setattr__``."""

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple[object, ...]:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other: object) -> bool:
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"
