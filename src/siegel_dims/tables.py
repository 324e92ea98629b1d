"""The family dispatch, and deterministic rendering of dimension tables and
character degree tables in text, csv, json and latex.

Output is a pure function of the arguments: no locale, no timestamps, big
integers printed without separators except for the optional digit grouping
in text format.
"""

from __future__ import annotations

from .arithmetic import PRIMALITY_CERTIFIED_BOUND, is_prime
from .dimensions import (
    _principal_at,
    dim_full_level,
    dim_gamma0,
    dim_paramodular_weight4,
)
from .errors import InputError, NotTabulatedError, _Frozen

FORMATS = ("text", "csv", "json", "latex")

# The one dispatch from a family to its formula: each entry maps a level
# (``None`` for ``full``) to k -> dim, so a level is checked and factored once
# per table.  Domain checks on k and N are the evaluators' own; ``_validate``
# checks only that a spec has the shape its family needs.
_EVALUATORS = {
    "full": lambda N: dim_full_level,
    "gamma0": lambda N: lambda k: dim_gamma0(k, N),
    "paramodular": lambda N: lambda k: dim_paramodular_weight4(N),
    "principal": _principal_at,
}
FAMILIES = tuple(_EVALUATORS)


class TableSpec(_Frozen):
    """What one table shows: a family, its weights and levels (one of the two
    may vary), the output format and digit grouping."""

    __slots__ = __match_args__ = ("family", "weights", "levels", "fmt", "group_digits")

    def __init__(self, family: str, weights: tuple[int, ...] = (), levels: tuple[int, ...] = (),
                 fmt: str = "text", group_digits: bool = False):
        weights, levels = tuple(weights), tuple(levels)
        for value in weights + levels:
            if type(value) is not int:
                raise InputError(f"weights and levels must be integers, got {value!r}")
        super().__init__(family, weights, levels, fmt, group_digits)


def _validate(spec: TableSpec) -> None:
    if spec.family not in FAMILIES:
        raise InputError(f"unknown family {spec.family!r}; choose from {FAMILIES}")
    if spec.fmt not in FORMATS:
        raise InputError(f"unknown format {spec.fmt!r}; choose from {FORMATS}")
    if len(spec.weights) > 1 and len(spec.levels) > 1:
        raise InputError("only one of the weight range and the level range may vary")
    if spec.family == "full":
        if spec.levels:
            raise InputError("the full modular group takes no level")
    elif not spec.levels:
        raise InputError(f"family {spec.family!r} requires a level (--level)")
    if spec.family == "gamma0" and len(spec.weights) != 1:
        raise InputError("family 'gamma0' takes exactly one weight (--weight)")
    if spec.family == "paramodular" and spec.weights not in ((), (4,)):
        raise NotTabulatedError("paramodular dimensions are implemented at weight 4 only")
    if spec.family in ("full", "principal") and not spec.weights:
        raise InputError(f"family {spec.family!r} requires a weight (--weight)")


def build_rows(spec: TableSpec) -> tuple[str, list[tuple[int, int]]]:
    """Compute (axis name, [(parameter, dimension), ...]) for the spec."""
    _validate(spec)
    at_level = _EVALUATORS[spec.family]
    if len(spec.weights) > 1 or not spec.levels:  # weight axis: full, or one level
        evaluate = at_level(spec.levels[0] if spec.levels else None)
        return "k", [(k, evaluate(k)) for k in spec.weights]
    k = spec.weights[0] if spec.weights else 4
    rows = [(N, at_level(N)(k)) for N in spec.levels]
    # A level at or above the certified bound is labelled not prime, so the
    # label never refuses a level its family has answered.
    prime = all(N < PRIMALITY_CERTIFIED_BOUND and is_prime(N) for N in spec.levels)
    return ("p" if prime else "N"), rows


def emit_table(spec: TableSpec) -> str:
    """Render the table; byte-identical output for identical specs."""
    axis, rows = build_rows(spec)

    if spec.fmt == "csv":
        lines = [f"{axis},dim"] + [f"{a},{d}" for a, d in rows]
        return "\n".join(lines) + "\n"

    if spec.fmt == "json":
        import json
        return json.dumps([{axis: a, "dim": d} for a, d in rows]) + "\n"

    if spec.fmt == "latex":
        header = " & ".join([f"${axis}$"] + [str(a) for a, _ in rows])
        values = " & ".join(["$\\dim$"] + [str(d) for _, d in rows])
        colspec = "|c||" + "c|" * len(rows)
        return (
            f"\\begin{{tabular}}{{{colspec}}}\n\\hline\n"
            f"{header} \\\\\n\\hline\\hline\n"
            f"{values} \\\\\n\\hline\n\\end{{tabular}}\n"
        )

    # text: aligned columns, optional digit grouping
    fmt = "{:,}".format if spec.group_digits else str
    body = [(axis, "dim")] + [(str(a), fmt(d)) for a, d in rows]
    wa = max(len(a) for a, _ in body)
    wd = max(len(d) for _, d in body)
    return "\n".join([f"{a:>{wa}} {d:>{wd}}" for a, d in body]) + "\n"


def emit_irreps(p: int, fmt: str = "text") -> str:
    """Render the GSp(4,F_p) character degree table at p in one of FORMATS."""
    if fmt not in FORMATS:
        raise InputError(f"unknown format {fmt!r}; choose from {FORMATS}")
    from .irreps import table_at
    rows = table_at(p)
    if fmt == "json":
        import json
        return json.dumps(rows) + "\n"
    if fmt == "csv":
        lines = ["index,formula,dimension,unitary_relevant"]
        for r in rows:
            lines.append(f"{r['index']},{r['formula']},{r['dimension']},{str(r['unitary_relevant']).lower()}")
    elif fmt == "latex":
        lines = ["\\begin{tabular}{|l|l|l|l|}", "\\hline", "index & degree & value & unitary \\\\",
                 "\\hline\\hline"]
        for r in rows:
            unitary = "yes" if r["unitary_relevant"] else "no"
            lines.append(f"$a_{{{r['index']}}}(p)$ & ${r['formula']}$ & {r['dimension']} & {unitary} \\\\")
        lines += ["\\hline", "\\end{tabular}"]
    else:
        width = max(len(r["formula"]) for r in rows)
        lines = []
        for r in rows:
            unitary = "" if r["unitary_relevant"] else "  (non-unitary)"
            lines.append(f"a{r['index']:<3} {r['formula']:<{width}} {r['dimension']}{unitary}")
    return "\n".join(lines) + "\n"
