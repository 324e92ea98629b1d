"""Independent reference values for the benchmark's output checks.

Nothing here imports siegel_dims.  The degree polynomials are a second copy of
the GSp(4,F_p) character degree table, and solution counts come from a dynamic
program that adds the degrees in the reverse order to the library's.

Run as a script, it reads ``{"<p>": [target, ...], ...}`` as JSON on stdin and
prints ``{"<p>": {"<target>": "<count>", ...}, ...}``.  The count workload
computes its references that way, in a separate process, so that the memory of
the reference tables does not show in the measured process's peak RSS.
"""

from __future__ import annotations

import json
import sys

# a_1(p) .. a_17(p); rows 13-15 carry a factor 1/2, rows 16-17 are non-unitary.
_POLYNOMIALS = (
    lambda p: (p**2 + 1) * (p + 1) ** 2,
    lambda p: p * (p**2 + 1) * (p + 1),
    lambda p: p**2 * (p**2 + 1),
    lambda p: p**4,
    lambda p: p**4 - 1,
    lambda p: p**2 * (p**2 - 1),
    lambda p: (p**2 - 1) ** 2,
    lambda p: p * (p**2 + 1) * (p - 1),
    lambda p: (p**2 + 1) * (p - 1) ** 2,
    lambda p: (p**2 + 1) * (p + 1),
    lambda p: p * (p**2 + 1),
    lambda p: (p**2 + 1) * (p - 1),
    lambda p: p * (p + 1) ** 2 // 2,
    lambda p: p * (p**2 + 1) // 2,
    lambda p: p * (p - 1) ** 2 // 2,
    lambda p: p**2 + 1,
    lambda p: p**2 - 1,
)
UNITARY_ROWS = 15


def degrees(p: int, include_nonunitary: bool = False) -> tuple[int, ...]:
    """(a_1(p), ..., a_15(p)), or through a_17(p) with the non-unitary rows."""
    rows = _POLYNOMIALS if include_nonunitary else _POLYNOMIALS[:UNITARY_ROWS]
    return tuple(f(p) for f in rows)


def count_table(p: int, limit: int) -> list[int]:
    """counts[D] = number of solutions of sum c_n a_n(p) = D, for D <= limit."""
    counts = [1] + [0] * limit
    for d in reversed(degrees(p)):
        for s in range(d, limit + 1):
            counts[s] += counts[s - d]
    return counts


def dp_cells(p: int, target: int, include_nonunitary: bool = False) -> int:
    """Cells the library's counting DP updates for one call (computed, not measured)."""
    return sum(max(0, target - d + 1) for d in degrees(p, include_nonunitary))


def is_small_prime(n: int) -> bool:
    """Trial-division primality, for the factors the benchmark generates (< 10^7)."""
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def main() -> int:
    request = json.load(sys.stdin)
    answer = {}
    for p, targets in request.items():
        counts = count_table(int(p), max(targets))
        answer[p] = {str(t): str(counts[t]) for t in targets}
    json.dump(answer, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
