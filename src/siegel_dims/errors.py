"""Exception hierarchy.

Two families matter to callers: ``InputError`` covers everything a user can
trigger with bad arguments (the CLI maps it to exit status 1), while
``IntegralityError`` signals that an exact-rational computation failed to
collapse to an integer where the mathematics guarantees one (exit status 2;
always a bug in our tables or formulas, never a user mistake).

Two private helpers live here too, because every module already imports
this one: the ``_Frozen`` base, the one immutable-value protocol of the
package's value classes, and ``_require_int``, the one rule that an argument
the formulas read as an exact integer is an ``int`` (a ``bool``, a float or a
``str`` is refused with the error the caller names).
"""


class SiegelDimsError(Exception):
    """Base class for everything raised by this package."""


class InputError(SiegelDimsError, ValueError):
    """A precondition on user-supplied arguments was violated."""


class EvenLevelError(InputError):
    """An even level was passed where an odd one is required."""


class NotSquareFreeError(InputError):
    """A level with a repeated prime factor was passed.

    ``prime`` is the offending repeated prime.
    """

    def __init__(self, level: int, prime: int):
        super().__init__(f"level {level} is not square-free: {prime}^2 divides it")
        self.level = level
        self.prime = prime


class NotPrimeError(InputError):
    """A composite number was passed where a prime is required."""


class EvenPrimeError(InputError):
    """p = 2 (or another even number) was passed where an odd prime is required."""


class WeightOutOfRangeError(InputError):
    """The weight is below the validity range of the requested formula."""


class NotTabulatedError(InputError):
    """The requested value is outside the embedded reference tables and no
    formula for it is implemented."""


class IndexOutOfRangeError(InputError):
    """A representation index outside 1..17 was requested."""


# The default cap on listed solutions.  It lives here, beside the error it
# triggers, so the CLI's parsers read it without importing ``newforms``.
DEFAULT_SOLUTION_CAP = 10**6


class TooManySolutionsError(InputError):
    """Exhaustive enumeration was aborted because the solution set is (or
    would be) larger than the configured cap.

    ``count`` carries the exact solution count; it is ``None`` exactly when
    the target exceeds ``newforms.MAX_ENUMERATION_TARGET``.
    """

    def __init__(self, message: str, count: int | None = None):
        super().__init__(message)
        self.count = count


class IntegralityError(SiegelDimsError, ArithmeticError):
    """An exact rational that must reduce to a non-negative integer did not."""


def _require_int(value, what: str = "", error: type[InputError] = InputError) -> int:
    """``value`` itself if its type is exactly ``int``; otherwise raise
    ``error`` naming it, as ``f"{what}{value!r} is not an integer"``."""
    if type(value) is not int:
        raise error(f"{what}{value!r} is not an integer")
    return value


class _Frozen:
    """An immutable value whose fields are named by ``__match_args__``.

    A subclass declares its storage in ``__slots__`` and passes its values,
    in slot order, to ``_Frozen.__init__``, which fills the slots.
    Instances compare equal when their classes and field tuples are equal,
    hash by the field tuple, print as ``Name(field=value, ...)`` and copy
    and pickle through their constructor.  Assignment and deletion raise
    :class:`dataclasses.FrozenInstanceError`, the type callers caught when
    these classes were frozen dataclasses; it is imported only on that error
    path, so loading the package does not load ``dataclasses``.
    """

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    @staticmethod
    def _frozen(action: str, name: str) -> Exception:
        from dataclasses import FrozenInstanceError
        return FrozenInstanceError(f"cannot {action} field {name!r}")

    def __setattr__(self, name, value):
        raise self._frozen("assign to", name)

    def __delattr__(self, name):
        raise self._frozen("delete", name)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(
            [f"{name}={value!r}" for name, value in zip(self.__match_args__, self._fields())]
        )
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()
