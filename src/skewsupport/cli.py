"""Command-line interface.

Shapes are written as "outer/inner" with comma-separated parts, inner
omitted for straight shapes; single-digit parts may be run together, so
"4,3,1,1/2,1" and "4311/21" name the same shape.

Exit codes: 0 success, 1 usage or input error, 2 a checked theorem failed,
3 a conjecture counterexample or open-question discovery was found.
"""

import argparse
import json
import os
import sys
from itertools import islice

from skewsupport import __version__
from skewsupport.config import ENV_MAX_SIZE
from skewsupport.bases import expansion_of
from skewsupport.tableaux import BASES, enumerate_syt, f_expansion
from skewsupport.errors import SkewSupportError
from skewsupport.kernels import BACKEND
from skewsupport.overlaps import OverlapProfile, overlap_cols, rects
from skewsupport.posets import (
    build_nc,
    build_suppf,
    multfree_report,
    saturation_check,
    verify_conjecture,
)
from skewsupport.relations import check_implications, relate, verify_implications
from skewsupport.shapes import (
    enumerate_shapes,
    format_shape,
    parse_shape,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_THEOREM = 2
EXIT_DISCOVERY = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad args; usage errors must be 1 here
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _emit(obj) -> None:
    json.dump(obj, sys.stdout, indent=2, sort_keys=False)
    sys.stdout.write("\n")


def _parse_shard(text: str) -> tuple[int, int]:
    try:
        index, count = text.split("/")
        return int(index), int(count)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected INDEX/COUNT, got {text!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="skewsupport", description=__doc__.splitlines()[0])
    ap.add_argument("--version", action="version",
                    version=f"%(prog)s {__version__} ({BACKEND} backend)")
    ap.add_argument("--max-size", type=int, default=None,
                    help="size guard for one call (sets SKEWSUPPORT_MAX_SIZE)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("shapes", help="list shapes of a given size")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", action="store_true",
                   help="print only the number of shapes")

    p = sub.add_parser("expand", help="expand a shape in a basis")
    p.add_argument("shape")
    p.add_argument("--basis", choices=BASES, default="schur")

    p = sub.add_parser("overlaps", help="overlap profile and rectangle stats")
    p.add_argument("shape")

    p = sub.add_parser("compare", help="all pairwise relations of two shapes")
    p.add_argument("a")
    p.add_argument("b")

    p = sub.add_parser("verify", help="run a verification sweep")
    vsub = p.add_subparsers(dest="target", required=True)
    v = vsub.add_parser("figure6",
                        help="implication diagram sweep over all pairs")
    v.add_argument("--n", type=int, default=5,
                   help="largest shape size to sweep (default 5)")
    v = vsub.add_parser("conjecture",
                        help="support containment vs overlap dominance")
    v.add_argument("--n", type=int, default=6)
    v.add_argument("--shard", type=_parse_shard, default=(1, 1),
                   metavar="INDEX/COUNT",
                   help="run one 1-based shard of the pair sweep")
    v.add_argument("--jobs", type=int, default=None,
                   help="parallel workers for fingerprinting")

    p = sub.add_parser("poset", help="class poset as JSON or DOT")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--which", choices=("suppf", "nc"), default="suppf")
    p.add_argument("--format", choices=("json", "dot"), default="json",
                   dest="fmt")

    p = sub.add_parser("multfree",
                       help="multiplicity-free classification at size n")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("saturation",
                       help="does support containment survive scaling")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--scale", type=int, default=2)

    p = sub.add_parser("tableaux", help="standard fillings of a shape")
    p.add_argument("shape")
    p.add_argument("--limit", type=int, default=None,
                   help="print at most this many fillings")
    return ap


def _cmd_shapes(args) -> int:
    shapes = enumerate_shapes(args.n)
    if args.count:
        print(len(shapes))
    else:
        _emit({"n": args.n, "count": len(shapes),
               "shapes": [format_shape(s) for s in shapes]})
    return EXIT_OK


def _cmd_expand(args) -> int:
    shape = parse_shape(args.shape)
    exp = expansion_of(shape, args.basis)
    _emit({"shape": format_shape(shape), "basis": args.basis,
           "terms": exp.to_json_obj()})
    return EXIT_OK


def _cmd_overlaps(args) -> int:
    shape = parse_shape(args.shape)
    prof = OverlapProfile.of(shape)
    n_rows, n_cols = shape.n_rows, shape.n_cols
    _emit({
        "shape": format_shape(shape),
        "rows": [",".join(str(p) for p in r) for r in prof.rows],
        "cols": [
            ",".join(str(p) for p in overlap_cols(shape, k))
            for k in range(1, n_cols + 1)
            if overlap_cols(shape, k)
        ],
        "rects": {
            f"{k}x{l}": rects(shape, k, l)
            for k in range(1, n_rows + 1)
            for l in range(1, n_cols + 1)
            if rects(shape, k, l)
        },
    })
    return EXIT_OK


def _cmd_compare(args) -> int:
    a = parse_shape(args.a)
    b = parse_shape(args.b)
    matrix = relate(a, b)
    _emit(matrix.to_json_obj())
    return EXIT_THEOREM if check_implications(matrix) else EXIT_OK


def _cmd_verify_figure6(args) -> int:
    report = verify_implications(args.n)
    _emit(report)
    return EXIT_OK if report["pass"] else EXIT_THEOREM


def _cmd_verify_conjecture(args) -> int:
    report = verify_conjecture(args.n, shard=args.shard, jobs=args.jobs)
    _emit(report)
    if not report["pass_theorem"]:
        return EXIT_THEOREM
    if not report["pass_conjecture"]:
        return EXIT_DISCOVERY
    return EXIT_OK


def _cmd_poset(args) -> int:
    build = build_suppf if args.which == "suppf" else build_nc
    poset = build(args.n)
    if args.fmt == "dot":
        sys.stdout.write(poset.to_dot())
    else:
        _emit(poset.to_json_obj())
    return EXIT_OK


def _cmd_multfree(args) -> int:
    report = multfree_report(args.n)
    sub = report.pop("subposet")
    report["subposet"] = sub.to_json_obj()
    _emit(report)
    return EXIT_OK if report["pass"] else EXIT_THEOREM


def _cmd_saturation(args) -> int:
    report = saturation_check(args.n, args.scale)
    _emit(report)
    if not report["schur_regression"]["confirmed"]:
        return EXIT_THEOREM
    return EXIT_OK if report["agreement"] else EXIT_DISCOVERY


def _cmd_tableaux(args) -> int:
    if args.limit is not None and args.limit < 0:
        print("skewsupport: error: --limit must be >= 0", file=sys.stderr)
        return EXIT_USAGE
    shape = parse_shape(args.shape)
    # the count comes from the descent tally, so only shown fillings are built
    count = sum(f_expansion(shape).coeffs.values())
    shown = list(islice(enumerate_syt(shape), args.limit))
    _emit({
        "shape": format_shape(shape),
        "count": count,
        "truncated": len(shown) < count,
        "tableaux": [
            {
                "rows": [list(r) for r in t.rows],
                "descents": sorted(t.descent_set()),
                "composition": ",".join(
                    str(p) for p in t.descent_composition()
                ),
            }
            for t in shown
        ],
    })
    return EXIT_OK


_COMMANDS = {
    "shapes": _cmd_shapes,
    "expand": _cmd_expand,
    "overlaps": _cmd_overlaps,
    "compare": _cmd_compare,
    "poset": _cmd_poset,
    "multfree": _cmd_multfree,
    "saturation": _cmd_saturation,
    "tableaux": _cmd_tableaux,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    saved = os.environ.get(ENV_MAX_SIZE)
    if args.max_size is not None:
        if args.max_size < 1:
            print("skewsupport: error: --max-size must be >= 1",
                  file=sys.stderr)
            return EXIT_USAGE
        os.environ[ENV_MAX_SIZE] = str(args.max_size)
    try:
        if args.command == "verify":
            if args.target == "figure6":
                return _cmd_verify_figure6(args)
            return _cmd_verify_conjecture(args)
        return _COMMANDS[args.command](args)
    except SkewSupportError as exc:
        print(f"skewsupport: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if args.max_size is not None:
            if saved is None:
                os.environ.pop(ENV_MAX_SIZE, None)
            else:
                os.environ[ENV_MAX_SIZE] = saved


if __name__ == "__main__":
    sys.exit(main())
