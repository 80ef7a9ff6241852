"""Seedable simulation studies: correlation convergence, runtime and
conditioning comparison against the dense exact method, and the
mixture-truth accuracy study.

Every study is a deterministic function of its config: all randomness flows
through generators keyed on (seed, replication), CSV floats are written with
``repr`` (shortest round-trip), and manifests carry no timestamps, so a rerun
under the same seed reproduces every non-timing output byte for byte.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .basis import OSplineBasis, build_equal_knots
from .errors import InvalidArgumentError, NumericError, _require
from .exact import IWPKernel, OSplineKernel, exact_hierarchical_fit
from .inference import (
    DEFAULT_POLY_PRIOR_SD,
    aghq_fit,
    build_model,
    max_condition_number,
    posterior_function,
    posterior_moments,
)
from .prior import PSDSpec, prior_from_psd


# ---------------------------------------------------------------------------
# configs: plain key = value files with per-experiment defaults
# ---------------------------------------------------------------------------


@dataclass
class CorrConfig:
    """Correlation-convergence study (auto- and cross-correlations vs exact).

    The comparison grid spans the region minus a left margin (fraction of the
    region length): the correlation of both processes is degenerate at the
    process origin and, inside the first knot cells, the approximation's
    correlation is carried by a handful of weights and does not converge
    pointwise, so the study quantifies accuracy on the bulk of the domain.
    """

    experiment: str = "corr"
    orders: tuple = (1, 2, 3, 4)
    knots: tuple = (5, 10, 30, 100)
    region: tuple = (0.0, 15.0)
    grid_points: int = 500
    grid_margin: float = 0.1
    reference_x: float = 5.0
    seed: int = 1
    out: str = "results/corr"


@dataclass
class BenchConfig:
    """Runtime/conditioning comparison of O-spline fits vs the dense exact fit.

    Each timed repetition runs the full pipeline: quadrature fit, posterior
    sampling and curve summaries for derivative orders 0..2 at the data
    locations, the O-spline's read off its fitted mixture and the dense
    comparator's exact moments beside its joint samples.  Condition numbers come from the matrices each method
    factorizes (latent precision for the weight-space fit, observation
    covariance for the dense comparator).  The weight-space fit's are
    computed outside the timed section; the dense comparator computes its
    own, one ``eigvalsh`` per quadrature point, inside every timed call.
    """

    experiment: str = "bench"
    order: int = 3
    n_values: tuple = (50, 100, 200, 500)
    knots: tuple = (10, 30, 50, 100)
    region: tuple = (0.0, 20.0)
    noise_sd: float = 1.0
    psd_h: float = 5.0
    psd_u: float = 3.0
    psd_alpha: float = 0.01
    num_quad: int = 10
    num_samples: int = 3000
    timing_reps: int = 10
    baseline_n: int = 50
    baseline_k: int = 10
    seed: int = 1
    out: str = "results/bench"


@dataclass
class GmmConfig:
    """Mixture-of-Gaussians truth study: rMSE of g, g', g'' across orders.

    The second-order comparator stands in for lumped-mass approaches that are
    out of scope here; labels in the report make the substitution explicit.
    """

    experiment: str = "gmm"
    order: int = 3
    comparison_order: int = 2
    knots: int = 100
    n: int = 100
    region: tuple = (0.0, 10.0)
    noise_sd: float = 0.1
    mixture_weights: tuple = (0.6, 0.3, 0.1)
    mean_center: float = 5.0
    mean_sd: float = 2.0
    psd_h: float = 1.0
    psd_u: float = 1.0
    psd_alpha: float = 0.5
    replications: int = 300
    num_quad: int = 10
    curve_rep: int = 0
    seed: int = 1
    out: str = "results/gmm"


_CONFIG_TYPES = {"corr": CorrConfig, "bench": BenchConfig, "gmm": GmmConfig}
_CI_OVERRIDES = {
    "corr": {},
    "bench": {"timing_reps": 3},
    "gmm": {"replications": 100},
}


def load_config_file(path) -> dict:
    """Parse a plain ``key = value`` file (``#`` comments, blank lines ok)."""
    values = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidArgumentError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        values[key.strip()] = val.strip()
    return values


def _coerce(raw: str, template):
    if isinstance(template, int):
        return int(raw)
    if isinstance(template, float):
        return float(raw)
    if isinstance(template, tuple):
        return tuple(type(template[0])(p) for p in raw.replace(",", " ").split())
    return raw


def make_config(experiment: str, profile: str = "full", overrides: dict | None = None):
    """Build a study config from defaults, profile adjustments and overrides."""
    _require(experiment in _CONFIG_TYPES, f"unknown experiment '{experiment}'")
    _require(profile in ("full", "ci"), f"unknown profile '{profile}' (use 'full' or 'ci')")
    cfg = _CONFIG_TYPES[experiment]()
    if profile == "ci":
        for key, val in _CI_OVERRIDES[experiment].items():
            setattr(cfg, key, val)
    fields = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)}
    for key, raw in (overrides or {}).items():
        if key not in fields:
            raise InvalidArgumentError(
                f"unknown config key '{key}' for experiment '{experiment}'"
            )
        setattr(cfg, key, _coerce(raw, fields[key]) if isinstance(raw, str) else raw)
    _require(cfg.experiment == experiment, "config 'experiment' key does not match")
    return cfg


# ---------------------------------------------------------------------------
# deterministic artifact writing
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path, header, rows) -> None:
    """Write rows with repr-formatted floats: byte-stable and round-trip exact."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_manifest(out_dir, config) -> Path:
    """JSON manifest: seed, config, config hash, versions.  No timestamps."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = dataclasses.asdict(config)
    cfg.pop("out", None)  # artifact location, not experiment identity
    blob = json.dumps(cfg, sort_keys=True).encode()
    payload = {
        "experiment": config.experiment,
        "seed": config.seed,
        "config": cfg,
        "config_sha256": hashlib.sha256(blob).hexdigest(),
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "osplines": __version__,
        },
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return path


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), *map(int, key)])


# ---------------------------------------------------------------------------
# correlation study
# ---------------------------------------------------------------------------


def _correlation_pairs(orders):
    """(p, q) combinations: auto-correlation everywhere, cross for higher p."""
    pairs = []
    for p in orders:
        pairs.append((p, 0))
        if p >= 2:
            pairs.append((p, 1))
        if p >= 4:
            pairs.append((p, 2))
    return pairs


@dataclass
class CorrStudyResult:
    config: CorrConfig
    xs: np.ndarray
    errors: dict
    max_errors: dict
    files: list


def run_correlation_study(config: CorrConfig) -> CorrStudyResult:
    """Exact vs approximate auto/cross correlations against a fixed reference.

    Correlations are computed with unit scale and no polynomial trend; the
    reference location is held at ``config.reference_x``.
    """
    a, b = config.region
    lo = a + config.grid_margin * (b - a)
    xs = np.linspace(lo, b, config.grid_points)
    x0 = np.array([config.reference_x])

    rows = []
    errors = {}
    max_errors = {}
    for p, q in _correlation_pairs(config.orders):
        kern = IWPKernel(p, 1.0)
        ref_var = kern.cov_matrix(x0 - a, x0 - a)[0, 0]
        exact_cross = kern.cov_matrix(x0 - a, xs - a, 0, q)[0]
        exact_var = np.diag(kern.cov_matrix(xs - a, xs - a, q, q))
        rho_exact = exact_cross / np.sqrt(ref_var * exact_var)
        for k in config.knots:
            approx = OSplineKernel(OSplineBasis(p, build_equal_knots(a, b, int(k))), 1.0)
            a_ref = approx.cov_matrix(x0, x0)[0, 0]
            a_cross = approx.cov_matrix(x0, xs, 0, q)[0]
            a_var = np.diag(approx.cov_matrix(xs, xs, q, q))
            rho_approx = a_cross / np.sqrt(a_ref * a_var)
            err = np.abs(rho_exact - rho_approx)
            errors[(p, k, q)] = err
            max_errors[(p, k, q)] = float(err.max())
            rows += [
                (p, k, q, x, re, ra)
                for x, re, ra in zip(xs, rho_exact, rho_approx)
            ]

    out = Path(config.out)
    write_csv(out / "corr_curves.csv", ["p", "k", "q", "x", "exact_corr", "approx_corr"], rows)
    write_csv(
        out / "corr_summary.csv",
        ["p", "k", "q", "max_abs_err"],
        [(p, k, q, e) for (p, k, q), e in sorted(max_errors.items())],
    )
    manifest = write_manifest(out, config)
    return CorrStudyResult(
        config=config,
        xs=xs,
        errors=errors,
        max_errors=max_errors,
        files=[out / "corr_curves.csv", out / "corr_summary.csv", manifest],
    )


# ---------------------------------------------------------------------------
# runtime / conditioning benchmark
# ---------------------------------------------------------------------------


def make_sine_data(n: int, seed: int, region=(0.0, 20.0), noise_sd: float = 1.0):
    """The benchmark's regression truth: sqrt(3) sin(x/2) plus unit noise."""
    a, b = region
    xs = np.linspace(a, b, int(n))
    rng = _rng(seed, int(n))
    ys = np.sqrt(3.0) * np.sin(xs / 2.0) + rng.normal(0.0, noise_sd, xs.size)
    return xs, ys


@dataclass
class BenchCell:
    n: int
    method: str
    status: str
    log10_cn_max: float
    mean_seconds: float
    sd_seconds: float
    mean_rel: float = np.nan
    sd_rel: float = np.nan


@dataclass
class BenchResult:
    config: BenchConfig
    cells: list
    files: list

    def cell(self, n: int, method: str) -> BenchCell:
        for c in self.cells:
            if c.n == n and c.method == method:
                return c
        raise KeyError((n, method))


def run_benchmark_study(config: BenchConfig) -> BenchResult:
    """Time both methods over the n grid and record their conditioning.

    Timings cover the full pipeline (fit, posterior sampling, curve
    summaries for derivative orders 0..2, the O-spline's read off its
    mixture).  A repetition count per cell comes from the config; the
    first (warm-up) run per cell is discarded.  Numerical
    failures of the dense comparator are recorded, not raised.
    """
    p = config.order
    a, b = config.region
    prior = prior_from_psd(PSDSpec(h=config.psd_h, order=p), config.psd_u, config.psd_alpha)
    derivs = (0, 1, 2)

    def ospline_pipeline(xs, ys, k, seed):
        basis = OSplineBasis(p, build_equal_knots(a, b, int(k)))
        model = build_model(
            xs, ys, basis, "gaussian",
            sigma_prior=prior, family_hyper_fixed=config.noise_sd,
        )
        fit = aghq_fit(model, num_quad=config.num_quad, num_samples=config.num_samples, seed=seed)
        for q in derivs:
            posterior_function(fit, xs, q)
        return fit

    def exact_pipeline(xs, ys, seed):
        return exact_hierarchical_fit(
            p, xs, ys, config.noise_sd, np.full(p, DEFAULT_POLY_PRIOR_SD), prior,
            derivs=derivs, num_quad=config.num_quad,
            num_samples=config.num_samples, seed=seed,
        )

    cells = []
    for n in config.n_values:
        xs, ys = make_sine_data(n, config.seed, (a, b), config.noise_sd)
        methods = [("exact", None)] + [(f"ospline_k{k}", k) for k in config.knots]
        for method, k in methods:
            run = (
                (lambda s: exact_pipeline(xs, ys, s))
                if k is None
                else (lambda s: ospline_pipeline(xs, ys, k, s))
            )
            try:
                fit = run(0)  # warm-up, also provides the conditioning numbers
                cn = fit.kappa_max if k is None else max_condition_number(fit)
                times = []
                for rep in range(config.timing_reps):
                    t0 = time.perf_counter()
                    run(rep)
                    times.append(time.perf_counter() - t0)
                times = np.asarray(times)
                cells.append(
                    BenchCell(
                        n=int(n), method=method, status="ok",
                        log10_cn_max=float(np.log10(cn)),
                        mean_seconds=float(times.mean()),
                        sd_seconds=float(times.std(ddof=1)) if times.size > 1 else 0.0,
                    )
                )
            except NumericError:
                cells.append(
                    BenchCell(
                        n=int(n), method=method, status="failed",
                        log10_cn_max=np.nan, mean_seconds=np.nan, sd_seconds=np.nan,
                    )
                )

    baseline = next(
        c for c in cells
        if c.n == config.baseline_n and c.method == f"ospline_k{config.baseline_k}"
    )
    for c in cells:
        c.mean_rel = c.mean_seconds / baseline.mean_seconds
        c.sd_rel = c.sd_seconds / baseline.mean_seconds

    out = Path(config.out)
    write_csv(
        out / "bench_conditioning.csv",
        ["n", "method", "status", "log10_cn_max"],
        [
            (c.n, c.method, c.status, c.log10_cn_max if c.status == "ok" else "--")
            for c in cells
        ],
    )
    write_csv(
        out / "bench_runtimes.csv",
        ["n", "method", "status", "mean_rel", "sd_rel", "mean_seconds", "sd_seconds"],
        [
            (c.n, c.method, c.status)
            + ((c.mean_rel, c.sd_rel, c.mean_seconds, c.sd_seconds) if c.status == "ok" else ("--",) * 4)
            for c in cells
        ],
    )
    manifest = write_manifest(out, config)
    return BenchResult(
        config=config,
        cells=cells,
        files=[out / "bench_conditioning.csv", out / "bench_runtimes.csv", manifest],
    )


# ---------------------------------------------------------------------------
# mixture-truth accuracy study
# ---------------------------------------------------------------------------


def gaussian_mixture_truth(rng: np.random.Generator, xs: np.ndarray, config: GmmConfig):
    """Standardized mixture-density truth and its first two derivatives.

    Component means are drawn fresh per replication; the function is scaled so
    the sample variance of g over the observation grid is exactly one, and its
    derivatives are scaled identically.
    """
    mus = rng.normal(config.mean_center, config.mean_sd, len(config.mixture_weights))
    dl = np.asarray(config.mixture_weights)
    z = xs[:, None] - mus[None, :]
    phi = np.exp(-0.5 * z**2) / np.sqrt(2.0 * np.pi)
    g = phi @ dl
    g1 = (-z * phi) @ dl
    g2 = ((z**2 - 1.0) * phi) @ dl
    scale = np.std(g, ddof=1)
    return g / scale, g1 / scale, g2 / scale


@dataclass
class RMSEReport:
    """Per-replication rMSE of g, g', g'' for each method, plus scaled ratios.

    Ratios divide by the reference method's median, so the reference method's
    median ratio is one by construction.
    """

    config: GmmConfig
    methods: tuple
    reference: str
    rmse: dict
    ratios: dict
    medians: dict
    files: list = field(default_factory=list)


def run_gmm_study(config: GmmConfig) -> RMSEReport:
    a, b = config.region
    xs = np.linspace(a, b, config.n)
    orders = {f"ospline_p{config.order}": config.order,
              f"ospline_p{config.comparison_order}": config.comparison_order}
    reference = f"ospline_p{config.order}"
    rmse = {(m, q): np.empty(config.replications) for m in orders for q in (0, 1, 2)}
    curve_rows = []

    for rep in range(config.replications):
        rng = _rng(config.seed, rep)
        g, g1, g2 = gaussian_mixture_truth(rng, xs, config)
        truth = {0: g, 1: g1, 2: g2}
        y = g + rng.normal(0.0, config.noise_sd, xs.size)
        for method, p in orders.items():
            prior = prior_from_psd(
                PSDSpec(h=config.psd_h, order=p), config.psd_u, config.psd_alpha
            )
            basis = OSplineBasis(p, build_equal_knots(a, b, config.knots))
            model = build_model(
                xs, y, basis, "gaussian",
                sigma_prior=prior, family_hyper_fixed=config.noise_sd,
            )
            fit = aghq_fit(model, num_quad=config.num_quad, num_samples=0)
            for q in (0, 1, 2):
                mean, sd = posterior_moments(fit, xs, q)
                rmse[(method, q)][rep] = np.sqrt(np.mean((mean - truth[q]) ** 2))
                if rep == config.curve_rep:
                    columns = (xs, truth[q], mean, sd)
                    curve_rows += [
                        (method, q, *values)
                        for values in zip(*(col.tolist() for col in columns))
                    ]

    medians = {key: float(np.median(vals)) for key, vals in rmse.items()}
    ratios = {
        (m, q): rmse[(m, q)] / medians[(reference, q)]
        for m in orders for q in (0, 1, 2)
    }

    out = Path(config.out)
    # Python floats, which write_csv formats without converting numpy scalars
    rmse_list = {key: vals.tolist() for key, vals in rmse.items()}
    ratio_list = {key: vals.tolist() for key, vals in ratios.items()}
    write_csv(
        out / "gmm_rmse.csv",
        ["rep", "method", "q", "rmse", "rmse_ratio"],
        [
            (rep, m, q, rmse_list[(m, q)][rep], ratio_list[(m, q)][rep])
            for rep in range(config.replications)
            for m in orders
            for q in (0, 1, 2)
        ],
    )
    write_csv(
        out / "gmm_summary.csv",
        ["method", "q", "median_rmse", "median_ratio"],
        [
            (m, q, medians[(m, q)], float(np.median(ratios[(m, q)])))
            for m in orders for q in (0, 1, 2)
        ],
    )
    write_csv(
        out / "gmm_curves.csv",
        ["method", "q", "x", "truth", "mean", "sd"],
        curve_rows,
    )
    manifest = write_manifest(out, config)
    return RMSEReport(
        config=config,
        methods=tuple(orders),
        reference=reference,
        rmse=rmse,
        ratios=ratios,
        medians=medians,
        files=[out / "gmm_rmse.csv", out / "gmm_summary.csv", out / "gmm_curves.csv", manifest],
    )
