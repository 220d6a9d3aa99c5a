"""Command-line front end.

Subcommands: predict, series, oracle, verify, sweep, n3line, lfactor,
redforms, segre.  Exit codes: 0 success, 2 validation error, 3 disagreement
with a proven-status prediction, 4 resource guard tripped.
"""

from __future__ import annotations

import argparse
import json
import sys

from .combinatorics import Partition, ProblemInstance, segre_report
from .oracle.runs import PrimeFieldConfig, ResourceGuardExceeded, oracle_run
from .predictor import (
    PredictionReport,
    linear_factor_predict,
    n3_secant_line,
    predict,
    reducible_forms_predict,
    threshold_l0,
)
from .series import (
    expand_rational,
    predicted_hilbert,
    reducible_numerator,
    series_pow,
)
from .workbench import SWEEP_FAMILIES, SweepConfig, sweep, verify_case

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DISAGREEMENT = 3
EXIT_GUARD = 4


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise ValueError(f"range must look like A:B, got {text!r}")
    try:
        return int(lo), int(hi)
    except ValueError as exc:
        raise ValueError(f"range must look like A:B, got {text!r}") from exc


def _report_lines(rep: PredictionReport) -> list[str]:
    inst = rep.instance
    part = inst.partition
    codim = inst.N - 1 - rep.predicted_dim
    lines = [
        f"n={inst.n} l={inst.l} partition={part.text()} "
        f"(d={part.d}, r={part.r}, s={part.s})",
        f"ambient P^{inst.N - 1}, dim X = {rep.dim_x}, "
        f"expected = {rep.expected_dim}",
        f"predicted = {rep.predicted_dim} (codim {codim})  "
        f"defect = {rep.defect}  epsilon = {rep.epsilon}  "
        f"fills = {'yes' if rep.fills else 'no'}",
        "status: " + rep.status + (f" ({rep.citation})" if rep.citation else ""),
    ]
    if rep.overly_fills:
        lines.append("overly fills: parameter count exceeds the ambient space")
    for note in rep.errata_notes:
        lines.append(f"note: {note}")
    return lines


def _print_report(rep: PredictionReport, as_json: bool) -> None:
    if as_json:
        print(json.dumps(rep.to_json(), indent=2))
    else:
        print("\n".join(_report_lines(rep)))


def _oracle_config(args) -> PrimeFieldConfig:
    return PrimeFieldConfig(
        p=args.prime,
        trials=args.trials,
        seed=args.seed,
        max_columns=args.max_columns,
    )


def _add_oracle_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--prime", type=int, default=1_000_003,
                     help="odd prime modulus for the rank computations")
    sub.add_argument("--trials", type=int, default=3,
                     help="independent sample points per rank (max wins)")
    sub.add_argument("--seed", type=int, default=0,
                     help="base seed; everything downstream derives from it")
    sub.add_argument("--max-columns", type=int, default=250_000,
                     help="refuse matrices wider than this many monomials")


def cmd_predict(args) -> int:
    inst = ProblemInstance(args.n, args.l, Partition.from_text(args.partition))
    _print_report(predict(inst), args.json)
    return EXIT_OK


def cmd_series(args) -> int:
    part = Partition.from_text(args.partition)
    inst = ProblemInstance(args.n, args.l, part)
    bound = args.truncate
    if bound < 0:
        raise ValueError(f"need --truncate >= 0, got {bound}")
    num = series_pow(reducible_numerator(part), inst.l, bound)
    if args.which == "numerator":
        series = num.as_series(bound)
    elif args.which == "join":
        series = expand_rational(num, inst.n, bound)
    elif args.which == "artinian":
        series = expand_rational(num, 2 * inst.l, bound)
    else:
        series = predicted_hilbert(inst.n, inst.l, part, bound)
    print(json.dumps(list(series.coeffs)))
    return EXIT_OK


def cmd_oracle(args) -> int:
    inst = ProblemInstance(args.n, args.l, Partition.from_text(args.partition))
    run = oracle_run(inst, _oracle_config(args), want_hilbert=args.full_hilbert)
    if args.json:
        print(json.dumps(run.to_json(), indent=2))
        return EXIT_OK
    print(f"oracle dimension = {run.secant_dim} (codim {run.codim}), "
          f"fills = {'yes' if run.fills else 'no'}")
    print(f"trial ranks: {', '.join(map(str, run.trial_ranks))}  "
          f"(p={run.p}, seed={run.seed}, columns={run.columns}, "
          f"eliminated={'yes' if run.eliminated else 'no'})")
    if run.hilbert is not None:
        print(f"hilbert function: {json.dumps(list(run.hilbert))}")
    return EXIT_OK


def cmd_verify(args) -> int:
    inst = ProblemInstance(args.n, args.l, Partition.from_text(args.partition))
    row = verify_case(inst, _oracle_config(args))
    print("\n".join(_report_lines(row.prediction)))
    if row.skipped_reason is not None:
        print(f"oracle skipped: {row.skipped_reason}")
        return EXIT_GUARD
    assert row.oracle is not None
    print(f"oracle dimension = {row.oracle.secant_dim} "
          f"(trial ranks {', '.join(map(str, row.oracle.trial_ranks))})")
    if row.agree:
        print("agreement: yes")
        return EXIT_OK
    if row.error is not None:
        print(row.error, file=sys.stderr)
        return EXIT_DISAGREEMENT
    print(f"finding: {row.finding}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = SweepConfig(
        n_range=_parse_range(args.n_range),
        l_range=_parse_range(args.l_range),
        d_max=args.d_max,
        r_max=args.r_max,
        families=tuple(args.families),
        oracle=_oracle_config(args),
        predictor_only=args.predictor_only,
        g_check_bound=args.g_check_bound,
        out_path=args.out,
        out_format=args.format,
        workers=args.workers,
    )
    rows, summary = sweep(cfg)
    print(json.dumps(summary, indent=2))
    if summary["proven_disagreements"]:
        return EXIT_DISAGREEMENT
    return EXIT_OK


def cmd_n3line(args) -> int:
    part = Partition.from_text(args.partition)
    res = n3_secant_line(part)
    ambient = ProblemInstance(3, 2, part).N - 1
    print(f"partition {part.text()}: {res.classification}")
    print(f"dimension = {res.dimension} (ambient P^{ambient}), "
          f"defect = {res.defect}, p = {res.p}, "
          f"exceptional = {'yes' if res.exceptional else 'no'}")
    return EXIT_OK


def cmd_lfactor(args) -> int:
    rep = linear_factor_predict(args.n, args.l, args.d)
    print("\n".join(_report_lines(rep)))
    print(f"filling threshold l0 = {threshold_l0('linear_factor', args.n, args.d)}")
    return EXIT_OK


def cmd_redforms(args) -> int:
    rep = reducible_forms_predict(args.n, args.l, args.d)
    print("\n".join(_report_lines(rep)))
    print(f"filling threshold l0 = "
          f"{threshold_l0('reducible_forms', args.n, args.d)}")
    return EXIT_OK


def cmd_segre(args) -> int:
    inst = ProblemInstance(args.n, args.l, Partition.from_text(args.partition))
    rep = segre_report(inst.n, inst.partition, inst.l, predict(inst))
    print(f"factor spaces: {' x '.join(f'P^{m - 1}' for m in rep.factors)}")
    print(f"balanced = {'yes' if rep.balanced else 'no'}")
    print(f"nondefective secant implied = "
          f"{'yes' if rep.nondefective_implied else 'no'}")
    return EXIT_OK


def _add_instance_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n", type=int, required=True,
                     help="number of variables")
    sub.add_argument("--l", type=int, required=True, help="secant index")
    sub.add_argument("--partition", required=True,
                     help='factor degrees, e.g. "3,2,2"')


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="redsecant",
        description="secant varieties of reducible hypersurfaces: "
                    "predictions and prime-field rank checks",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("predict", help="predicted dimension and defect")
    _add_instance_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_predict)

    p = subs.add_parser("series", help="Hilbert series pipeline pieces")
    _add_instance_flags(p)
    p.add_argument("--truncate", type=int, required=True,
                   help="last degree to print")
    p.add_argument("--which", default="predicted",
                   choices=("numerator", "join", "artinian", "predicted"),
                   help="numerator: l-th power of the defining numerator; "
                        "join: raw rational expansion in n variables; "
                        "artinian: expansion in 2l variables; "
                        "predicted: plus-truncated Hilbert function")
    p.set_defaults(func=cmd_series)

    p = subs.add_parser("oracle", help="Terracini rank check at random points")
    _add_instance_flags(p)
    _add_oracle_flags(p)
    p.add_argument("--full-hilbert", action="store_true",
                   help="also report the per-degree Hilbert function")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_oracle)

    p = subs.add_parser("verify", help="compare prediction against the oracle")
    _add_instance_flags(p)
    _add_oracle_flags(p)
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("sweep", help="grid verification campaign")
    p.add_argument("--n-range", required=True, help="inclusive A:B")
    p.add_argument("--l-range", required=True, help="inclusive A:B")
    p.add_argument("--d-max", type=int, required=True)
    p.add_argument("--r-max", type=int, default=4)
    p.add_argument("--families", nargs="+", default=["general"],
                   choices=SWEEP_FAMILIES)
    p.add_argument("--predictor-only", action="store_true")
    p.add_argument("--out", required=True, help="report file to write")
    p.add_argument("--format", default="csv", choices=("csv", "json"))
    p.add_argument("--g-check-bound", type=int, default=None,
                   help="also scan the spread-partition implication region "
                        "up to this bound")
    p.add_argument("--workers", type=int, default=None,
                   help="process pool size, at most one per CPU and per "
                        "cell (default: one per CPU)")
    _add_oracle_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = subs.add_parser("n3line",
                        help="secant lines of plane curves (n=3, l=2)")
    p.add_argument("--partition", required=True)
    p.set_defaults(func=cmd_n3line)

    p = subs.add_parser("lfactor",
                        help="family with one linear factor, [d-1,1]")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=cmd_lfactor)

    p = subs.add_parser("redforms",
                        help="secants of the full reducible-forms variety")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=cmd_redforms)

    p = subs.add_parser("segre", help="Segre-variety reading of a prediction")
    _add_instance_flags(p)
    p.set_defaults(func=cmd_segre)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ResourceGuardExceeded as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
