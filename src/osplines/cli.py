"""Command-line interface: fit models on CSV data, compare covariances,
convert prior scales, and run the bundled experiments.

Exit codes: 0 success, 2 usage / invalid arguments, 3 data errors,
4 numeric failures.  Every command is deterministic given --seed (timing
columns excepted).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .basis import MAX_ORDER, OSplineBasis, build_equal_knots
from .errors import DataError, InvalidArgumentError, NumericError
from .exact import _cov_tables
from .inference import (
    DEFAULT_POLY_PRIOR_SD,
    _interval_probs,
    _row_summaries,
    aghq_fit,
    build_model,
    condition_number,
    posterior_function,
    sum_coded_design,
)
from .prior import ExponentialPrior, PSDSpec, prior_from_psd, psd_to_sigma, sigma_to_psd
from .simbench import (
    _fmt,
    load_config_file,
    make_config,
    run_benchmark_study,
    run_correlation_study,
    run_gmm_study,
    write_csv,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


# ---------------------------------------------------------------------------
# CSV input
# ---------------------------------------------------------------------------


class DataTable:
    """Column-named table parsed from a headered, comma-separated CSV."""

    def __init__(self, columns: dict):
        self.columns = columns

    @classmethod
    def load(cls, path, required: list[str], numeric: list[str]):
        path = Path(path)
        if not path.exists():
            raise DataError(f"data file not found: {path}")
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise DataError(f"{path}: missing header row")
            for col in required:
                if col not in reader.fieldnames:
                    raise DataError(f"{path}: missing column '{col}'")
            raw = {col: [] for col in reader.fieldnames}
            for rownum, row in enumerate(reader, start=2):
                for col in reader.fieldnames:
                    val = row.get(col)
                    if col in required and (val is None or val.strip() == ""):
                        raise DataError(f"{path}: row {rownum}: missing value in column '{col}'")
                    raw[col].append(val)
        columns = {}
        for col, vals in raw.items():
            if col in numeric:
                try:
                    arr = np.array([float(v) for v in vals])
                except (TypeError, ValueError) as err:
                    bad = next(
                        i for i, v in enumerate(vals)
                        if v is None or not _is_float(v)
                    )
                    raise DataError(
                        f"{path}: row {bad + 2}: column '{col}' is not numeric ({vals[bad]!r})"
                    ) from err
                if not np.all(np.isfinite(arr)):
                    bad = int(np.argmax(~np.isfinite(arr)))
                    raise DataError(f"{path}: row {bad + 2}: non-finite value in column '{col}'")
                columns[col] = arr
            else:
                columns[col] = vals
        return cls(columns)

    def __getitem__(self, col):
        return self.columns[col]


def _is_float(v) -> bool:
    try:
        float(v)
        return True
    except (TypeError, ValueError):
        return False


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _psd_args(parser):
    parser.add_argument("--psd-h", type=float, help="prediction step for the PSD prior")
    parser.add_argument("--psd-u", type=float, help="PSD tail threshold u")
    parser.add_argument("--psd-alpha", type=float, help="PSD tail probability alpha")
    parser.add_argument(
        "--psd-median", type=float,
        help="shorthand for --psd-u MEDIAN --psd-alpha 0.5",
    )


def _comma_list(text: str, flag: str, convert, count: int = 0) -> list:
    """Non-empty items of a comma-separated flag value; bad items or counts are usage errors."""
    try:
        items = [convert(item) for item in text.split(",") if item.strip()]
        if count and len(items) != count:
            raise ValueError
    except ValueError:
        raise InvalidArgumentError(f"{flag} takes {count or 'a list of'} comma-separated "
                                   f"{convert.__name__} values (got {text!r})") from None
    return items


def _sigma_prior_from_args(args, order: int) -> ExponentialPrior:
    if args.psd_h is None:
        raise InvalidArgumentError("a PSD prior needs --psd-h")
    u, alpha = args.psd_u, args.psd_alpha
    if args.psd_median is not None:
        if u is not None or alpha is not None:
            raise InvalidArgumentError("--psd-median replaces --psd-u/--psd-alpha")
        u, alpha = args.psd_median, 0.5
    if u is None or alpha is None:
        raise InvalidArgumentError("PSD prior needs --psd-u and --psd-alpha (or --psd-median)")
    return prior_from_psd(PSDSpec(h=args.psd_h, order=order), u, alpha)


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def cmd_fit(args) -> int:
    if not 1 <= args.order <= MAX_ORDER:
        raise InvalidArgumentError(f"--order must lie in 1..{MAX_ORDER} (got {args.order})")
    if args.samples < 1:
        raise InvalidArgumentError(f"--samples must be at least 1 (got {args.samples})")
    derivs = _comma_list(args.deriv, "--deriv", int)
    if any(q < 0 or q >= args.order for q in derivs):
        raise InvalidArgumentError(
            f"--deriv orders must lie in 0..{args.order - 1} (got {derivs})"
        )
    if args.grid is not None and args.grid < 1:
        raise InvalidArgumentError(f"--grid must be at least 1 (got {args.grid})")

    numeric = [args.x, args.y]
    fixed_cols = _comma_list(args.fixed or "", "--fixed", str)
    table = DataTable.load(args.data, required=numeric + fixed_cols, numeric=numeric)
    x = table[args.x]
    y = table[args.y]
    family = args.family.replace("-", "_")
    if family != "gaussian" and np.any(y < 0):
        bad = int(np.argmax(y < 0))
        raise DataError(
            f"{args.data}: row {bad + 2}: negative count in column '{args.y}' ({y[bad]:g})"
        )

    fixed_design = fixed_names = None
    if fixed_cols:
        blocks, fixed_names = [], []
        for col in fixed_cols:
            mat, names = sum_coded_design(table[col])
            blocks.append(mat)
            fixed_names += [f"{col}:{n}" for n in names]
        fixed_design = np.hstack(blocks)

    basis = OSplineBasis(args.order, build_equal_knots(float(x.min()), float(x.max()), args.knots))
    sigma_prior = _sigma_prior_from_args(args, args.order)

    family_kwargs = {}
    if family == "gaussian":
        if args.noise_sd is not None:
            family_kwargs["family_hyper_fixed"] = args.noise_sd
        else:
            family_kwargs["family_hyper_prior"] = ExponentialPrior(
                rate=np.log(2.0) / args.noise_median
            )
    elif family == "poisson_od":
        family_kwargs["family_hyper_prior"] = ExponentialPrior(rate=np.log(2.0) / args.od_median)

    model = build_model(
        x, y, basis, family,
        sigma_prior=sigma_prior,
        poly_prior_sd=args.poly_sd,
        fixed_design=fixed_design,
        fixed_prior_sd=args.fixed_sd,
        **family_kwargs,
    )
    fit = aghq_fit(model, num_quad=args.quad, num_samples=args.samples, seed=args.seed)
    # before any file is written, so a numeric failure here leaves no partial output
    conds = [condition_number(a) for a in fit.approxes]

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    grid = np.unique(x) if args.grid is None else np.linspace(x.min(), x.max(), args.grid)
    files = []

    for q in derivs:
        transforms = [None, "exp"] if args.exp_transform and q in (0, 1) else [None]
        for transform in transforms:
            curve = posterior_function(fit, grid, q, transform=transform)
            path = out / f"curve_q{q}{'_exp' if transform else ''}.csv"
            # Python floats, which write_csv formats without converting numpy scalars
            columns = (curve.xs, curve.mean, curve.sd, curve.lower, curve.upper)
            xs, mean, sd, lower, upper = (col.tolist() for col in columns)
            write_csv(
                path, ["x", "q", "mean", "sd", "lower", "upper"],
                list(zip(xs, [q] * grid.size, mean, sd, lower, upper)),
            )
            files.append(path)

    spec = PSDSpec(h=args.psd_h, order=args.order)
    sigmas, hypers = fit.sigmas, fit.family_hypers
    weights, sigma_list, hyper_list = fit.weights.tolist(), sigmas.tolist(), hypers.tolist()
    hyper_rows = []
    for j in range(fit.weights.size):
        row = [j, weights[j], sigma_list[j], sigma_to_psd(spec, sigma_list[j])]
        if model.family_hyper_prior is not None:
            row.append(hyper_list[j])
        hyper_rows.append(row)
    hyper_header = ["point", "weight", "sigma", f"psd_h{_fmt(args.psd_h)}"]
    if model.family_hyper_prior is not None:
        hyper_header.append("kappa" if family == "gaussian" else "phi")
    path = out / "hyperparameters.csv"
    write_csv(path, hyper_header, hyper_rows)
    files.append(path)

    if fixed_design is not None:
        beta_cols = slice(
            model.n_spline + model.n_poly, model.n_spline + model.n_poly + model.n_fixed
        )
        betas = fit.samples[:, beta_cols]
        # one row per effect, the implied reference effect last
        effects = np.vstack([betas.T, -betas.sum(axis=1)])
        summary = _row_summaries(effects, *_interval_probs(0.95))
        path = out / "fixed_effects.csv"
        write_csv(
            path, ["effect", "mean", "sd", "lower", "upper"],
            list(zip(fixed_names + ["(reference)"], *(col.tolist() for col in summary))),
        )
        files.append(path)

    manifest = {
        "command": "fit",
        "seed": args.seed,
        "family": args.family,
        "order": args.order,
        "knots": args.knots,
        "quad": args.quad,
        "samples": args.samples,
        "region": [float(x.min()), float(x.max())],
        "log_marginal": fit.log_marginal,
        "theta_weights": fit.weights.tolist(),
        "sigma_grid": sigmas.tolist(),
        "condition_numbers": conds,
        "max_condition_number": max(conds),
        "versions": {"osplines": __version__, "numpy": np.__version__},
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    print(f"wrote {len(files) + 1} files to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# cov-compare
# ---------------------------------------------------------------------------


def cmd_cov_compare(args) -> int:
    a, b = _comma_list(args.region, "--region", float, count=2)
    knot_counts = _comma_list(args.knots_list, "--knots-list", int)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    sup_errors = {}
    for k in knot_counts:
        grid, exact, approx = _cov_tables(
            args.order, k, (a, b), max(args.grid, 10 * k), args.q1, args.q2
        )
        err = np.abs(exact - approx)
        sup_errors[k] = float(err.max())
        rows = [
            (s, t, args.q1, args.q2, exact[i, j], approx[i, j], err[i, j])
            for i, s in enumerate(grid)
            for j, t in enumerate(grid)
        ]
        path = out / f"covgrid_k{k}.csv"
        write_csv(path, ["s", "t", "q1", "q2", "exact", "approx", "abs_err"], rows)
        bound = 2.0 / k * (b - a) ** (2 * args.order - 1 - args.q1 - args.q2)
        print(
            f"p={args.order} k={k} q=({args.q1},{args.q2}) "
            f"sup_err={sup_errors[k]:.6g} bound={bound:.6g} "
            f"within_bound={sup_errors[k] <= bound + 1e-9}"
        )
    ks = sorted(sup_errors)
    for k in ks:
        if 2 * k in sup_errors:
            print(f"rate ratio k={k} vs {2*k}: {sup_errors[k] / sup_errors[2*k]:.3f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# psd
# ---------------------------------------------------------------------------


def cmd_psd(args) -> int:
    if (args.sigma is None) == (args.psd is None):
        raise InvalidArgumentError("give exactly one of --sigma or --psd")
    spec = PSDSpec(h=args.h, order=args.order)
    if args.sigma is not None:
        print(f"psd({_fmt(args.h)}) = {_fmt(sigma_to_psd(spec, args.sigma))}")
    else:
        print(f"sigma = {_fmt(psd_to_sigma(spec, args.psd))}")
    if args.u is not None and args.alpha is not None:
        prior = prior_from_psd(spec, args.u, args.alpha)
        print(f"exponential rate on sigma = {_fmt(prior.rate)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------


_RUNNERS = {
    "corr": run_correlation_study,
    "bench": run_benchmark_study,
    "gmm": run_gmm_study,
}


def cmd_experiment(args) -> int:
    overrides = load_config_file(args.config) if args.config else {}
    file_experiment = overrides.pop("experiment", None)
    if file_experiment is not None and file_experiment != args.experiment:
        raise InvalidArgumentError(
            f"config file is for experiment '{file_experiment}', not '{args.experiment}'"
        )
    if args.out:
        overrides["out"] = args.out
    if args.seed is not None:
        overrides["seed"] = args.seed
    config = make_config(args.experiment, profile=args.profile, overrides=overrides)
    result = _RUNNERS[args.experiment](config)
    for path in result.files:
        print(f"wrote {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="osplines",
        description="Model-based smoothing with integrated Wiener process priors.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit a model to CSV data")
    fit.add_argument("--data", required=True)
    fit.add_argument("--x", required=True, help="covariate column")
    fit.add_argument("--y", required=True, help="response column")
    fit.add_argument("--family", required=True, choices=["gaussian", "poisson", "poisson-od"])
    fit.add_argument("--order", type=int, required=True)
    fit.add_argument("--knots", type=int, required=True)
    _psd_args(fit)
    fit.add_argument("--noise-sd", type=float, help="fixed Gaussian noise SD")
    fit.add_argument("--noise-median", type=float, default=1.0,
                     help="prior median for the noise SD when it is estimated")
    fit.add_argument("--od-median", type=float, default=0.1,
                     help="prior median for the overdispersion SD")
    fit.add_argument("--poly-sd", type=float, default=DEFAULT_POLY_PRIOR_SD,
                     help="prior SD of the polynomial coefficients")
    fit.add_argument("--fixed", help="comma-separated categorical columns, sum-coded")
    fit.add_argument("--fixed-sd", type=float, default=10.0,
                     help="prior SD of fixed effects")
    fit.add_argument("--quad", type=int, default=10)
    fit.add_argument("--samples", type=int, default=3000)
    fit.add_argument("--deriv", default="0", help="comma-separated derivative orders")
    fit.add_argument("--grid", type=int, help="evaluate curves on a uniform grid of this size")
    fit.add_argument("--exp-transform", action="store_true",
                     help="also report exp(g) and g'*exp(g)")
    fit.add_argument("--seed", type=int, default=0)
    fit.add_argument("--out", required=True)
    fit.set_defaults(func=cmd_fit)

    cov = sub.add_parser("cov-compare", help="exact vs O-spline covariance grids")
    cov.add_argument("--order", type=int, required=True)
    cov.add_argument("--knots-list", required=True, help="comma-separated knot counts")
    cov.add_argument("--region", default="0,1", help="a,b")
    cov.add_argument("--q1", type=int, default=0)
    cov.add_argument("--q2", type=int, default=0)
    cov.add_argument("--grid", type=int, default=0, help="minimum grid density")
    cov.add_argument("--out", default="results/cov")
    cov.set_defaults(func=cmd_cov_compare)

    psd = sub.add_parser("psd", help="convert between sigma and predictive SD")
    psd.add_argument("--order", type=int, required=True)
    psd.add_argument("--h", type=float, required=True)
    psd.add_argument("--sigma", type=float)
    psd.add_argument("--psd", type=float)
    psd.add_argument("--u", type=float)
    psd.add_argument("--alpha", type=float)
    psd.set_defaults(func=cmd_psd)

    exp = sub.add_parser("experiment", help="run a bundled study")
    exp.add_argument("--experiment", required=True, choices=sorted(_RUNNERS))
    exp.add_argument("--config", help="key = value config file")
    exp.add_argument("--profile", default="full", choices=["full", "ci"])
    exp.add_argument("--seed", type=int)
    exp.add_argument("--out")
    exp.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InvalidArgumentError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as err:
        print(f"data error: {err}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as err:
        print(f"numeric error: {err}", file=sys.stderr)
        return EXIT_NUMERIC


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
