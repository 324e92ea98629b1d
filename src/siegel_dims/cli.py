"""Command line interface.

Exit status: 0 on success, 1 for bad arguments or values outside a formula's
domain, 2 for internal integrity failures (an exact computation that should
have produced an integer did not, or a verification run found a mismatch).
Values go to stdout, one per line; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager

from .arithmetic import is_prime, parse_square_free_level
from .errors import DEFAULT_SOLUTION_CAP, InputError, IntegralityError
from .tables import FAMILIES, FORMATS, TableSpec, build_rows, emit_irreps, emit_table

# The longest --weights range a table accepts, checked before the range is built.
MAX_TABLE_WEIGHTS = 10_000


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_weights(text: str) -> tuple[int, ...]:
    try:
        a, b = map(int, text.split(".."))
    except ValueError:  # not two parts, or a part that is not an integer
        raise InputError(f"weight range must look like A..B, got {text!r}") from None
    if a > b:
        raise InputError(f"empty weight range {text!r}")
    if b - a + 1 > MAX_TABLE_WEIGHTS:
        raise InputError(
            f"weight range {text!r} has {b - a + 1} weights; "
            f"at most {MAX_TABLE_WEIGHTS} are allowed"
        )
    return tuple(range(a, b + 1))


def _parse_levels(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise InputError(f"levels must be a comma-separated list of integers, got {text!r}") from None


@contextmanager
def _unlimited_digits():
    """Print integers of any width: lift the int-to-str digit limit of
    Python 3.10.7+ (4300 digits by default) for the block and restore it
    after.  Handlers enter it only once the user's input is parsed, so
    ``int()`` of a flag keeps its guard; interpreters without the limit have
    nothing to lift."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def build_parser() -> _Parser:
    parser = _Parser(prog="siegel-dims", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_dim = sub.add_parser("dim", help="one dimension value")
    p_dim.add_argument("--family", required=True, choices=FAMILIES)
    p_dim.add_argument("--weight", type=int, help="a single weight k")
    p_dim.add_argument("--level", type=int, help="a single level N")
    p_dim.set_defaults(handler=_cmd_dim, weights=None, levels=None, format="text",
                       group_digits=False)

    p_table = sub.add_parser("table", help="a dimension table")
    p_table.add_argument("--family", required=True, choices=FAMILIES)
    p_table.add_argument("--weight", type=int, help="a single weight k")
    p_table.add_argument("--weights", help="inclusive weight range A..B")
    p_table.add_argument("--level", type=int, help="a single level N")
    p_table.add_argument("--levels", help="comma-separated levels L1,L2,...")
    p_table.add_argument("--format", default="text", choices=FORMATS)
    p_table.add_argument("--group-digits", action="store_true",
                         help="comma-group big integers (text format only)")
    p_table.set_defaults(handler=_cmd_table)

    p_bounds = sub.add_parser("bounds", help="newform dimension bounds")
    p_bounds.add_argument("--weight", type=int, required=True)
    p_bounds.add_argument("--level", type=int, required=True)
    p_bounds.add_argument("--integer-envelope", action="store_true",
                          help="print ceil(lower) and floor(upper) instead of fractions")
    p_bounds.set_defaults(handler=_cmd_bounds)

    p_dec = sub.add_parser("decompose", help="all multiplicity vectors reaching a target")
    p_dec.add_argument("--prime", type=int, required=True)
    p_dec.add_argument("--target", type=int, required=True)
    p_dec.add_argument("--include-nonunitary", action="store_true")
    p_dec.add_argument("--max-solutions", type=int, default=DEFAULT_SOLUTION_CAP)
    p_dec.add_argument("--format", default="text", choices=("text", "json"))
    p_dec.set_defaults(handler=_cmd_decompose)

    p_an = sub.add_parser("analyze", help="dimension, bounds and decomposition report")
    p_an.add_argument("--weight", type=int, required=True)
    p_an.add_argument("--prime", type=int, required=True)
    p_an.add_argument("--max-solutions", type=int, default=DEFAULT_SOLUTION_CAP)
    p_an.add_argument("--format", default="text", choices=("text", "json"))
    p_an.set_defaults(handler=_cmd_analyze)

    p_ir = sub.add_parser("irreps", help="the GSp(4,F_p) character degree table at p")
    p_ir.add_argument("--prime", type=int, required=True)
    p_ir.add_argument("--format", default="text", choices=FORMATS)
    p_ir.set_defaults(handler=_cmd_irreps)

    p_ver = sub.add_parser("verify", help="recompute every reference value")
    p_ver.add_argument("--format", default="text", choices=("text", "json"))
    p_ver.set_defaults(handler=_cmd_verify)

    return parser


def _resolve_axis(single, many, parse):
    if single is not None and many:
        raise InputError("give either the single flag or the range flag, not both")
    if single is not None:
        return (single,)
    if many:
        return parse(many)
    return ()


def _table_spec(args) -> TableSpec:
    return TableSpec(
        family=args.family,
        weights=_resolve_axis(args.weight, args.weights, _parse_weights),
        levels=_resolve_axis(args.level, args.levels, _parse_levels),
        fmt=args.format,
        group_digits=args.group_digits,
    )


def _cmd_dim(args) -> int:
    spec = _table_spec(args)
    with _unlimited_digits():
        _, [(_, value)] = build_rows(spec)
        print(value)
    return 0


def _cmd_table(args) -> int:
    spec = _table_spec(args)
    with _unlimited_digits():
        sys.stdout.write(emit_table(spec))
    return 0


def _cmd_bounds(args) -> int:
    from . import newforms

    if is_prime(args.level):
        pair = newforms.bounds_prime(args.weight, args.level)
    else:
        pair = newforms.bounds_squarefree(args.weight, parse_square_free_level(args.level))
    with _unlimited_digits():
        if args.integer_envelope:
            lo, hi = pair.integer_envelope()
            print(lo)
            print(hi)
        else:
            print(pair.lower)
            print(pair.upper)
    return 0


def _cmd_decompose(args) -> int:
    from . import newforms

    count, solutions = newforms.counted_decompositions(
        args.prime, args.target,
        include_nonunitary=args.include_nonunitary,
        max_solutions=args.max_solutions,
    )
    if args.format == "json":
        import json
        # The count is known before the walk, so the document is written as
        # the solutions arrive, in the same bytes json.dumps gives for it.
        head, _, tail = json.dumps({
            "prime": args.prime,
            "target": args.target,
            "include_nonunitary": args.include_nonunitary,
            "count": count,
            "solutions": [],
        }).rpartition("[]")
        sys.stdout.write(head + "[")
        separator = ""
        for sol in solutions:
            sys.stdout.write(separator + json.dumps(sol.to_json_dict()))
            separator = ", "
        sys.stdout.write("]" + tail + "\n")
    else:
        for sol in solutions:
            print(sol.to_text())
        print(f"{count} solution(s)", file=sys.stderr)
    return 0


def _cmd_analyze(args) -> int:
    from . import newforms

    with _unlimited_digits():
        report = newforms.analyze_level(args.weight, args.prime, max_solutions=args.max_solutions)
        if args.format == "json":
            import json
            print(json.dumps(report.to_json_dict()))
        else:
            print(report.to_text())
    return 0


def _cmd_irreps(args) -> int:
    sys.stdout.write(emit_irreps(args.prime, args.format))
    return 0


def _cmd_verify(args) -> int:
    from . import verification

    report = verification.run_all_checks()
    if args.format == "json":
        sys.stdout.write(report.to_json())
    else:
        sys.stdout.write(report.to_text())
    if not report.passed:
        print(f"{len(report.failures)} reference check(s) failed", file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:  # argparse usage errors and --help
        code = exc.code
        return code if isinstance(code, int) else 1
    except IntegralityError as exc:
        print(f"internal integrity failure: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
