"""Character degrees of the nontrivial irreducible representations of GSp(4,F_p).

The seventeen degrees are polynomials in p.  Rows 13-15 carry a factor 1/2;
they are stored as the doubled integer polynomial and halved after an
explicit evenness check, so integrality stays a verified invariant rather
than an assumption.  Rows 16 and 17 belong to non-unitary representations
and are excluded from newform counting.

Note: the degrees are not always pairwise distinct -- rows 9 and 10 both
evaluate to 40 at p = 3.  Decomposition enumeration therefore works with
representation indices, never with bare degree values.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache

from .arithmetic import require_odd_prime
from .errors import IndexOutOfRangeError, IntegralityError, _require_int


@dataclass(frozen=True)
class IrrepEntry:
    index: int
    formula: str
    unitary_relevant: bool
    halved: bool
    numerator: Callable[[int], int] = field(repr=False)

    def dim_at(self, p: int) -> int:
        return degrees_at(p)[self.index - 1]


_ROWS: list[tuple[str, bool, Callable[[int], int]]] = [
    ("(p^2+1)(p+1)^2", False, lambda p: (p * p + 1) * (p + 1) ** 2),
    ("p(p^2+1)(p+1)", False, lambda p: p * (p * p + 1) * (p + 1)),
    ("p^2(p^2+1)", False, lambda p: p * p * (p * p + 1)),
    ("p^4", False, lambda p: p**4),
    ("p^4-1", False, lambda p: p**4 - 1),
    ("p^2(p^2-1)", False, lambda p: p * p * (p * p - 1)),
    ("(p^2-1)^2", False, lambda p: (p * p - 1) ** 2),
    ("p(p^2+1)(p-1)", False, lambda p: p * (p * p + 1) * (p - 1)),
    ("(p^2+1)(p-1)^2", False, lambda p: (p * p + 1) * (p - 1) ** 2),
    ("(p^2+1)(p+1)", False, lambda p: (p * p + 1) * (p + 1)),
    ("p(p^2+1)", False, lambda p: p * (p * p + 1)),
    ("(p^2+1)(p-1)", False, lambda p: (p * p + 1) * (p - 1)),
    ("p(p+1)^2/2", True, lambda p: p * (p + 1) ** 2),
    ("p(p^2+1)/2", True, lambda p: p * (p * p + 1)),
    ("p(p-1)^2/2", True, lambda p: p * (p - 1) ** 2),
    ("p^2+1", False, lambda p: p * p + 1),
    ("p^2-1", False, lambda p: p * p - 1),
]

NON_UNITARY_INDICES = (16, 17)

TABLE: tuple[IrrepEntry, ...] = tuple(
    IrrepEntry(i, formula, i not in NON_UNITARY_INDICES, halved, fn)
    for i, (formula, halved, fn) in enumerate(_ROWS, start=1)
)


@lru_cache(maxsize=64)
def degrees_at(p: int) -> tuple[int, ...]:
    """The degrees a_1(p), ..., a_17(p) in row order.

    Every reader of the degree table passes through this cached tuple,
    which checks p to be an odd prime, and it is where the halved rows are
    checked for evenness.
    """
    require_odd_prime(p)
    degrees = []
    for e in TABLE:
        n = e.numerator(p)
        if e.halved:
            if n % 2:
                raise IntegralityError(
                    f"row {e.index}: {e.formula} has odd numerator {n} at p={p}"
                )
            n //= 2
        degrees.append(n)
    return tuple(degrees)


def irrep_dim(n: int, p: int) -> int:
    """Degree of row n (1..17) evaluated at the odd prime p."""
    if not 1 <= _require_int(n, "representation index ", IndexOutOfRangeError) <= len(TABLE):
        raise IndexOutOfRangeError(f"representation index must be in 1..{len(TABLE)}, got {n}")
    return degrees_at(p)[n - 1]


def unitary_dims(p: int) -> list[tuple[int, int]]:
    """(index, degree) for the unitary-relevant rows 1..15 at p, sorted by
    ascending degree with the index as tie-break."""
    degrees = degrees_at(p)
    pairs = [(e.index, degrees[e.index - 1]) for e in TABLE if e.unitary_relevant]
    pairs.sort(key=lambda t: (t[1], t[0]))
    return pairs


def table_at(p: int) -> list[dict]:
    """The full table evaluated at p, one dict per row (JSON-friendly)."""
    return [
        {
            "index": e.index,
            "formula": e.formula,
            "dimension": d,
            "unitary_relevant": e.unitary_relevant,
        }
        for e, d in zip(TABLE, degrees_at(p))
    ]
