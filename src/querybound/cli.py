"""Command-line front end: bound reports, strategy evaluation, the summary
table over the four reference workloads, and Monte-Carlo runs, all over
files (JSON/CSV) with deterministic output for fixed flags and seed."""

import argparse
import json
import math
import sys

import numpy as np

from .bounds import (
    bound_report,
    exhaustive_projection_family,
    predicate_projected_ratio,
    range_projected_ratio,
    range_projection_family,
    svdb_log,
)
from .exceptions import (
    DimensionMismatch,
    DimOutOfRange,
    NonFinite,
    NotPSD,
    QueryBoundError,
    SupportViolation,
)
from .logspace import fmt_log10, json_num, log10_of
from .mechanism import empirical_error
from .privacy import PrivacyParams
from .strategies import (
    evaluate_strategy,
    haar_strategy,
    hierarchical_strategy,
    identity_strategy,
    kron_strategy,
    load_strategy_csv,
    sqrt_strategy,
    workload_strategy,
)
from .workloads import (
    Workload,
    all_predicate_gram,
    all_range,
    data_cube,
    load_data_vector,
    load_gram_csv,
    load_workload_csv,
)

NOT_IMPLEMENTED_EIGEN = "not implemented: external mechanism"
# --threads is accepted in 1..THREAD_CAP for compatibility; every request runs serially
THREAD_CAP = 64


def _parse_ints(text: str) -> list:
    try:
        return [int(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise DimOutOfRange(f"expected comma-separated integers, got {text!r}")


def _parse_cuboids(text: str) -> list:
    # "1,2;3;;" -> [[1,2],[3],[]]: semicolons separate cuboids, commas attrs,
    # a trailing semicolon terminates (so ";;" at the end is one empty cuboid)
    parts = text.split(";")
    if len(parts) > 1 and parts[-1] == "":
        parts.pop()
    return [_parse_ints(part) for part in parts]


def build_workload(args):
    """Returns (workload, dims-or-None) from the --workload flag group."""
    spec = args.workload
    if spec.startswith("csv:"):
        path = spec[4:]
        with open(path) as fh:
            first = fh.readline().strip()
        W = load_gram_csv(path) if first.startswith("gram") else load_workload_csv(path)
        return W, None
    if spec == "all-range":
        dims = _parse_ints(args.dims) if args.dims else None
        if dims is None and args.cells:
            dims = [args.cells]
        if not dims:
            raise DimOutOfRange("all-range needs --dims or --cells")
        return all_range(dims), dims
    if spec == "all-predicate":
        if not args.cells:
            raise DimOutOfRange("all-predicate needs --cells")
        return all_predicate_gram(args.cells), None
    if spec == "data-cube":
        if not args.dims or args.cuboids is None:
            raise DimOutOfRange("data-cube needs --dims and --cuboids")
        dims = _parse_ints(args.dims)
        cuboids = _parse_cuboids(args.cuboids)
        weights = [float(w) for w in args.weights.split(",")] if args.weights \
            else [1.0] * len(cuboids)
        return data_cube(dims, cuboids, weights), dims
    raise DimOutOfRange(f"unknown workload spec {spec!r}")


def build_strategy(args, W: Workload, dims) -> Workload:
    spec = args.strategy
    if spec.startswith("csv:"):
        return load_strategy_csv(spec[4:])
    if spec == "identity":
        return identity_strategy(W.n)
    if spec == "workload":
        return workload_strategy(W)
    dims = dims or [W.n]  # one factor per grid dimension
    if spec == "hierarchical":
        return kron_strategy([hierarchical_strategy(d, args.fanout) for d in dims])
    if spec == "haar":
        return kron_strategy([haar_strategy(d) for d in dims])
    if spec == "sqrt":
        return sqrt_strategy(W, explicit=args.command == "run")
    raise DimOutOfRange(f"unknown strategy spec {spec!r}")


def load_projections_csv(path) -> list:
    family = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                family.append(tuple(_parse_ints(line)))
    if not family:
        raise DimOutOfRange(f"{path}: no subsets found")
    return family


def build_projections(args, W: Workload, dims):
    spec = args.projections
    if spec == "none":
        return None
    if spec == "ranges":
        return range_projection_family(dims if dims else [W.n])
    if spec == "exhaustive":
        return exhaustive_projection_family(W.n)
    if spec.startswith("csv:"):
        return load_projections_csv(spec[4:])
    raise DimOutOfRange(f"unknown projections spec {spec!r}")


def _emit(text: str, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj: dict, out):
    _emit(json.dumps(obj, indent=2, sort_keys=True) + "\n", out)


def cmd_bound(args) -> int:
    W, dims = build_workload(args)
    family = build_projections(args, W, dims)
    rep = bound_report(W, projections=family, epsilon=args.epsilon)
    _emit_json(rep.to_json_dict(), args.out)
    print(f"svdb={fmt_log10(rep.svdb_log10)} tight={str(rep.tight).lower()} "
          f"looseness={rep.looseness_factor:.6g}", file=sys.stderr)
    return 0


def cmd_eval(args) -> int:
    W, dims = build_workload(args)
    A = build_strategy(args, W, dims)
    params = PrivacyParams(args.epsilon, args.delta)
    rep = evaluate_strategy(W, A, params)
    _emit_json(rep.to_json_dict(), args.out)
    print(f"total_error_log10={rep.total_error_log10:.6f} "
          f"ratio_to_svdb={rep.ratio_to_svdb:.6g}", file=sys.stderr)
    return 0


def cmd_run(args) -> int:
    W, dims = build_workload(args)
    A = build_strategy(args, W, dims)
    x = load_data_vector(args.data) if args.data else np.zeros(W.n)
    params = PrivacyParams(args.epsilon, args.delta)
    mean, se = empirical_error(W, A, x, params, args.trials, seed=args.seed)
    analytic = evaluate_strategy(W, A, params).total_error
    z = (mean - analytic) / se if se > 0 else 0.0
    _emit_json({
        "mean": json_num(mean),
        "stderr": json_num(se),
        "analytic": json_num(analytic),
        "z": json_num(z),
        "trials": int(args.trials),
        "seed": int(args.seed),
    }, args.out)
    print(f"mean={mean:.6g} analytic={analytic:.6g} z={z:.3f}", file=sys.stderr)
    return 0


def _table_row(name, W, svdb_u_ratio, dims, fanout):
    s_log10 = log10_of(svdb_log(W))
    makers = [identity_strategy, lambda d: hierarchical_strategy(d, fanout), haar_strategy]
    ratios = [evaluate_strategy(W, kron_strategy([make(d) for d in dims])).ratio_to_svdb
              for make in makers]
    return [
        name,
        fmt_log10(s_log10),
        f"{s_log10:.6f}",
        f"{svdb_u_ratio:.6g}",
        *[f"{r:.6g}" for r in ratios],
        NOT_IMPLEMENTED_EIGEN,
    ]


def cmd_table2(args) -> int:
    rows = []
    for dims, name in [([2048], "AllRange(2048)"),
                       ([64, 32], "AllRange(64,32)"),
                       ([2] * 10, "AllRange(2x2x...x2, 10 dims)")]:
        u_ratio = math.prod(range_projected_ratio(d) for d in dims)
        rows.append(_table_row(name, all_range(dims), u_ratio, dims, args.fanout))
    n = 1024
    rows.append(_table_row("AllPredicate(1024)", all_predicate_gram(n),
                           predicate_projected_ratio(n), [n], args.fanout))
    header = ("workload,svdb,svdb_log10,svdb_u_ratio,identity_ratio,"
              "hierarchical_ratio,haar_ratio,eigen_design")
    lines = [header] + [",".join(f'"{c}"' if "," in c else c for c in row)
                        for row in rows]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _add_common_flags(p: argparse.ArgumentParser):
    p.add_argument("--workload", default="all-range",
                   help="all-range | all-predicate | data-cube | csv:<path>")
    p.add_argument("--dims", help="comma-separated grid dimensions, e.g. 64,32")
    p.add_argument("--cells", type=int, help="cell count n (1-D shorthand)")
    p.add_argument("--cuboids", help="data-cube cuboids, e.g. '1,2;3;;' (empty = total)")
    p.add_argument("--weights", help="comma-separated positive cuboid weights")
    p.add_argument("--strategy", default="identity",
                   help="identity | workload | hierarchical | haar | sqrt | csv:<path>")
    p.add_argument("--fanout", type=int, default=2, help="hierarchical tree fanout")
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--delta", type=float, default=1e-5)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--projections", default="none",
                   help="none | ranges | exhaustive | csv:<path>")
    p.add_argument("--data", help="CSV data vector (defaults to zeros)")
    p.add_argument("--out", help="output path (defaults to stdout)")
    p.add_argument("--threads", type=int, default=1,
                   help=f"accepted for compatibility, 1..{THREAD_CAP}; no effect "
                        "(requests run serially)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="querybound",
        description="Error bounds and strategies for private linear counting queries.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, short in [
        ("bound", "spectral bound report for a workload (JSON)"),
        ("eval", "analytic error of a strategy on a workload (JSON)"),
        ("table2", "summary table over the four reference workloads (CSV)"),
        ("run", "Monte-Carlo mechanism run vs the analytic value (JSON)"),
    ]:
        _add_common_flags(sub.add_parser(name, help=short))
    return parser


# built once per process; main only parses
PARSER = _build_parser()


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    # looked up on each call, so a cmd_* wrapped after import (tracing) still runs
    fn = {"bound": cmd_bound, "eval": cmd_eval, "table2": cmd_table2,
          "run": cmd_run}[args.command]
    try:
        if not 1 <= args.threads <= THREAD_CAP:
            raise DimOutOfRange(f"threads must be in 1..{THREAD_CAP}, got {args.threads}")
        return fn(args)
    except SupportViolation as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 4
    except DimensionMismatch as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 5
    except (NotPSD, NonFinite, np.linalg.LinAlgError) as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 3
    except (QueryBoundError, OSError, ValueError) as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
