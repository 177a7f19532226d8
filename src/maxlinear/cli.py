"""Command line front end.

Subcommands: sample, marma, smith, validate, bench, inspect. All runs
are deterministic given --seed; exit code is zero iff every requested
operation completed (and, for validate, every check passed).

``sample`` and ``smith`` draw through ``run_prediction``. Without a
prediction matrix they pass a ``B`` with zero rows and summarize ``Z``;
otherwise they summarize ``Y``. ``validate`` runs the self-checks of
``maxlinear.oracles``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .conditional import conditional_law
from .errors import MaxLinearError, _converted, _integer, _json_field, _to_json
from .experiments import (
    _marma_predictions,
    bench_decomposition,
    coverage_experiment,
    projection_bias_experiment,
    summarize,
    summary_rows,
    write_sample_csv,
)
from .hitting import DEFAULT_REL_TOL
from .margins import standard_frechet
from .marma import load_marma_spec, marma_coefficients, marma_truncation_quality
from .model import load_model
from .oracles import validate_suite
from .sampler import PredictionTask, run_prediction
from .smith import load_smith_spec, smith_design


def _load_vector(path: str) -> np.ndarray:
    # one row or one column loads 1-d; validate_observations rejects the rest
    return np.loadtxt(path, delimiter=",", ndmin=1)


def _load_matrix(path: str):  # run_prediction checks the matrix
    if path.endswith(".json"):
        doc = json.loads(Path(path).read_text())
        return _json_field(doc, "B", "a prediction matrix") if isinstance(doc, dict) else doc
    return np.loadtxt(path, delimiter=",", ndmin=2)


def _parse_list(option: str, text: str, integers: bool = False) -> tuple:
    """The comma-separated numbers of ``option``, or a ValueError naming it;
    with ``integers``, each one an integer >= 1."""
    values = tuple(_converted(option, float, tok) for tok in text.split(","))
    return tuple(_integer(option, v, 1) for v in values) if integers else values


def _print_summary(table) -> None:
    rows = summary_rows(table)
    header = list(rows[0].keys())
    print(",".join(header))
    for row in rows:
        print(",".join(f"{row[k]:.10g}" if k != "coordinate" else str(row[k]) for k in header))


def _emit_json(doc: dict, out: str | None) -> None:
    # a NaN or an infinity is a ValueError, not a report that strict JSON
    # readers refuse
    text = json.dumps(doc, indent=2, default=_to_json, allow_nan=False)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _sample_and_report(args, A, margins, x, B, threshold=None) -> int:
    """Draw through ``run_prediction``, which validates the inputs, write
    the raw CSV if asked and print the summary: of ``Y`` when ``B`` has
    rows, of ``Z`` otherwise."""
    result = run_prediction(PredictionTask(
        A=A,
        B=B,
        margins=margins,
        x=x,
        num_samples=args.num,
        seed=args.seed,
        rel_tol=args.rel_tol,
    ))
    Y = result.Y if result.Y.shape[1] else None
    if args.out:
        write_sample_csv(args.out, Z=result.Z if (args.emit_z or Y is None) else None, Y=Y)
    target = result.Z if Y is None else Y
    _print_summary(summarize(target, _parse_list("--quantiles", args.quantiles), threshold))
    return 0


def cmd_sample(args) -> int:
    model = load_model(args.model)
    x = _load_vector(args.obs)
    B = _load_matrix(args.predict) if args.predict else np.zeros((0, model.p))
    return _sample_and_report(args, model.A, model.margins, x, B, args.threshold)


def cmd_inspect(args) -> int:
    model = load_model(args.model)
    x = _load_vector(args.obs)
    law = conditional_law(model, x, args.rel_tol)
    structure = law.structure
    doc = {
        "n": model.n,
        "p": model.p,
        "rank": structure.rank,
        "z_hat": structure.z_hat,
        "classes": structure.classes,
        "candidate_columns": structure.J,
        "class_weights": law.weights,
    }
    _emit_json(doc, args.out)
    return 0


def cmd_marma(args) -> int:
    spec = load_marma_spec(args.spec)
    if args.mode == "quality":
        doc = {
            "p": spec.p,
            "psi_sum": float(marma_coefficients(spec.phi, spec.theta, spec.p).sum()),
            "truncation_quality": marma_truncation_quality(spec.phi, spec.theta, spec.p),
        }
    elif args.mode == "coverage":
        doc = coverage_experiment(
            spec, reps=args.reps, num_samples=args.num, seed=args.seed
        )
    elif args.mode == "projection":
        doc = projection_bias_experiment(
            spec, reps=args.reps, num_samples=args.num, seed=args.seed
        )
    else:  # repetition 0 of the coverage and projection loop
        x_obs, y_true, Y = next(_marma_predictions(spec, 1, args.num, args.seed))
        table = summarize(Y, (0.5, 0.95))
        doc = {
            "observed": x_obs,
            "true_future": y_true,
            "future_median": table.medians,
            "future_q95": table.quantiles[0.95],
        }
    _emit_json(doc, args.out)
    return 0


def cmd_smith(args) -> int:
    spec = load_smith_spec(args.spec)
    design = smith_design(spec)
    margins = (standard_frechet(spec.alpha),) * design.A.shape[1]
    return _sample_and_report(args, design.A, margins, _load_vector(args.obs), design.B)


def cmd_validate(args) -> int:
    report = validate_suite(seed=args.seed, trials=args.trials, epsilon=args.epsilon)
    _emit_json(report, args.out)
    return 0 if report["passed"] else 1


def cmd_bench(args) -> int:
    cells = bench_decomposition(
        n_list=_parse_list("--n-list", args.n_list, integers=True),
        p_list=_parse_list("--p-list", args.p_list, integers=True),
        draws=args.draws,
        seed=args.seed,
    )
    _emit_json({"cells": cells}, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxlinear",
        description="Exact conditional sampling for max-linear factor models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, model=False, spec=False, obs=False, draws=False):
        if model:
            p.add_argument("--model", required=True, help="model JSON file")
        if spec:
            p.add_argument("--spec", required=True, help="spec JSON file")
        if obs:
            p.add_argument("--obs", required=True, help="observation CSV (one row)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="output file")
        if draws:
            p.add_argument("--num", type=int, default=1000)
            p.add_argument("--rel-tol", type=float, default=DEFAULT_REL_TOL)
            p.add_argument("--quantiles", default="0.5,0.95")
            p.add_argument("--emit-z", action="store_true")

    p = sub.add_parser("sample", help="draw conditional samples")
    common(p, model=True, obs=True, draws=True)
    p.add_argument("--predict", default=None, help="prediction matrix file")
    p.add_argument("--threshold", type=float, default=None)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("inspect", help="show the conditional decomposition")
    common(p, model=True, obs=True)
    p.add_argument("--rel-tol", type=float, default=DEFAULT_REL_TOL)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("marma", help="time-series prediction experiments")
    common(p, spec=True)
    p.add_argument(
        "--mode", choices=("predict", "coverage", "projection", "quality"),
        default="predict",
    )
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--num", type=int, default=500)
    p.set_defaults(func=cmd_marma)

    p = sub.add_parser("smith", help="spatial-model conditional sampling")
    common(p, spec=True, obs=True, draws=True)
    p.set_defaults(func=cmd_smith)

    p = sub.add_parser("validate", help="run the self-check suite")
    common(p)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--epsilon", type=float, default=0.01)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("bench", help="time the decomposition pipeline")
    common(p)
    p.add_argument("--n-list", default="1,5,10,50")
    p.add_argument("--p-list", default="2500,10000")
    p.add_argument("--draws", type=int, default=100)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (MaxLinearError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
