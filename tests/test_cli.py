import csv
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import osplines
from osplines.cli import main
from osplines.inference import aghq_fit


def write_gaussian_csv(path, n=60, seed=3):
    rng = np.random.default_rng(seed)
    xs = np.linspace(0.0, 20.0, n)
    ys = np.sqrt(3.0) * np.sin(xs / 2.0) + rng.standard_normal(n)
    lines = ["x,y"] + [f"{float(a)!r},{float(b)!r}" for a, b in zip(xs, ys)]
    path.write_text("\n".join(lines) + "\n")
    return xs, ys


def write_count_csv(path, n=63, seed=5):
    rng = np.random.default_rng(seed)
    t = np.arange(n, dtype=float)
    weekdays = ["mon", "tue", "wed", "thu", "fri", "sat", "sun"]
    lam = np.exp(0.6 * np.sin(t / 9.0) + 0.4)
    y = rng.poisson(lam)
    lines = ["day,deaths,weekday"] + [
        f"{float(t[i])!r},{int(y[i])},{weekdays[i % 7]}" for i in range(n)
    ]
    path.write_text("\n".join(lines) + "\n")


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def test_fit_gaussian_matches_exact_comparator(tmp_path):
    """A full CLI run on simulated regression data lands within the oracle's
    posterior uncertainty."""
    data = tmp_path / "data.csv"
    xs, ys = write_gaussian_csv(data, n=60)
    out = tmp_path / "out"
    rc = main([
        "fit", "--data", str(data), "--x", "x", "--y", "y",
        "--family", "gaussian", "--order", "3", "--knots", "30",
        "--psd-h", "5", "--psd-u", "3", "--psd-alpha", "0.01",
        "--noise-sd", "1", "--deriv", "0,1,2", "--quad", "6",
        "--samples", "1500", "--seed", "1", "--out", str(out),
    ])
    assert rc == 0
    from osplines import exact_hierarchical_fit, prior_from_psd, PSDSpec

    prior = prior_from_psd(PSDSpec(h=5.0, order=3), 3.0, 0.01)
    ex = exact_hierarchical_fit(
        3, xs, ys, 1.0, np.full(3, np.sqrt(1000.0)), prior,
        predict_x=np.unique(xs), derivs=(0, 1, 2), num_quad=6,
    )
    for q in (0, 1, 2):
        rows = read_csv(out / f"curve_q{q}.csv")
        mean = np.array([float(r["mean"]) for r in rows])
        sd = np.array([float(r["sd"]) for r in rows])
        m_ex, s_ex = ex.moments(q)
        gap = np.abs(mean - m_ex)
        assert np.all(gap < 3.0 * np.maximum(sd, s_ex))

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 1
    assert len(manifest["theta_weights"]) == 6
    assert manifest["max_condition_number"] == max(manifest["condition_numbers"])


def test_fit_plain_poisson(tmp_path):
    data = tmp_path / "counts.csv"
    write_count_csv(data, n=35)
    out = tmp_path / "out"
    rc = main([
        "fit", "--data", str(data), "--x", "day", "--y", "deaths",
        "--family", "poisson", "--order", "2", "--knots", "10",
        "--psd-h", "7", "--psd-median", "1", "--deriv", "0,1",
        "--quad", "3", "--samples", "200", "--seed", "4", "--out", str(out),
    ])
    assert rc == 0
    rows = read_csv(out / "curve_q1.csv")
    assert len(rows) == 35


def test_fit_poisson_od_workflow(tmp_path):
    data = tmp_path / "counts.csv"
    write_count_csv(data)
    out = tmp_path / "out"
    rc = main([
        "fit", "--data", str(data), "--x", "day", "--y", "deaths",
        "--family", "poisson-od", "--order", "3", "--knots", "100",
        "--psd-h", "7", "--psd-median", "0.6931", "--fixed", "weekday",
        "--exp-transform", "--deriv", "0,1", "--quad", "3",
        "--samples", "400", "--seed", "2", "--out", str(out),
    ])
    assert rc == 0
    for name in (
        "curve_q0.csv", "curve_q0_exp.csv", "curve_q1.csv", "curve_q1_exp.csv",
        "fixed_effects.csv", "hyperparameters.csv", "manifest.json",
    ):
        assert (out / name).exists(), name
    effects = read_csv(out / "fixed_effects.csv")
    names = [r["effect"] for r in effects]
    assert "(reference)" in names and len(names) == 7
    # exp-transformed intensity must be positive everywhere
    rows = read_csv(out / "curve_q0_exp.csv")
    assert all(float(r["lower"]) > 0 for r in rows)
    hyper = read_csv(out / "hyperparameters.csv")
    assert len(hyper) == 9  # 3x3 grid over (sigma, phi)
    weights = np.array([float(r["weight"]) for r in hyper])
    assert weights.sum() == pytest.approx(1.0)


def test_fit_fixed_effects_are_order_statistics_of_the_draws(tmp_path, monkeypatch):
    """fixed_effects.csv: per effect (and the implied reference) the sample
    mean, SD and inverted-CDF 2.5%/97.5% order statistics of the draws."""
    from osplines import cli

    fits = []
    monkeypatch.setattr(cli, "aghq_fit", lambda *a, **k: fits.append(aghq_fit(*a, **k)) or fits[-1])
    data = tmp_path / "counts.csv"
    write_count_csv(data)
    rc = main([
        "fit", "--data", str(data), "--x", "day", "--y", "deaths",
        "--family", "gaussian", "--noise-sd", "1", "--order", "2", "--knots", "10",
        "--psd-h", "7", "--psd-median", "0.6931", "--fixed", "weekday", "--quad", "3",
        "--samples", "400", "--seed", "2", "--out", str(tmp_path / "out"),
    ])
    assert rc == 0
    model = fits[0].model
    start = model.n_spline + model.n_poly
    betas = fits[0].samples[:, start : start + model.n_fixed]
    draws = np.column_stack([betas, -betas.sum(axis=1)])
    rows = read_csv(tmp_path / "out" / "fixed_effects.csv")
    assert [r["effect"] for r in rows][-1] == "(reference)" and len(rows) == 7
    lower, upper = np.quantile(draws, [0.025, 0.975], axis=0, method="inverted_cdf")
    np.testing.assert_array_equal([float(r["lower"]) for r in rows], lower)
    np.testing.assert_array_equal([float(r["upper"]) for r in rows], upper)
    sd = draws.std(axis=0, ddof=1)
    np.testing.assert_allclose([float(r["sd"]) for r in rows], sd, rtol=1e-12)
    mean = np.array([float(r["mean"]) for r in rows])
    assert np.all(np.abs(mean - draws.mean(axis=0)) <= 1e-12 * sd)


def test_csv_rows_of_python_scalars_write_the_numpy_scalar_bytes(tmp_path, monkeypatch):
    """The fit command and the gmm study hand ``write_csv`` Python scalars,
    which it formats without converting each numpy scalar.  Every file they
    write is byte-identical to the same rows given as numpy scalars."""
    from osplines import cli, simbench

    real = simbench.write_csv
    written = []

    def as_numpy(value):
        if isinstance(value, float):
            return np.float64(value)
        return np.int64(value) if isinstance(value, int) else value

    def write(path, header, rows):
        rows = list(rows)
        real(path, header, rows)
        assert not any(isinstance(v, np.generic) for row in rows for v in row)
        twin = tmp_path / "numpy_scalars.csv"
        real(twin, header, [[as_numpy(v) for v in row] for row in rows])
        assert twin.read_bytes() == Path(path).read_bytes(), Path(path).name
        written.append(Path(path).name)

    monkeypatch.setattr(cli, "write_csv", write)
    monkeypatch.setattr(simbench, "write_csv", write)
    data = tmp_path / "counts.csv"
    write_count_csv(data)
    assert main([
        "fit", "--data", str(data), "--x", "day", "--y", "deaths",
        "--family", "poisson-od", "--order", "3", "--knots", "20",
        "--psd-h", "7", "--psd-median", "0.6931", "--fixed", "weekday",
        "--exp-transform", "--deriv", "0,1", "--quad", "3",
        "--samples", "400", "--seed", "2", "--out", str(tmp_path / "out"),
    ]) == 0
    simbench.run_gmm_study(simbench.make_config("gmm", overrides={
        "replications": 2, "knots": 20, "num_quad": 3, "out": str(tmp_path / "gmm")}))
    assert sorted(written) == sorted([
        "curve_q0.csv", "curve_q0_exp.csv", "curve_q1.csv", "curve_q1_exp.csv",
        "hyperparameters.csv", "fixed_effects.csv",
        "gmm_rmse.csv", "gmm_summary.csv", "gmm_curves.csv",
    ])


def test_fit_missing_column_exits_3(tmp_path, capsys):
    data = tmp_path / "data.csv"
    write_gaussian_csv(data, n=10)
    rc = main([
        "fit", "--data", str(data), "--x", "x", "--y", "count",
        "--family", "gaussian", "--order", "2", "--knots", "5",
        "--psd-h", "1", "--psd-median", "1", "--noise-sd", "1",
        "--out", str(tmp_path / "o"),
    ])
    assert rc == 3
    assert "count" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    (None, "data file not found"),
    ("", "missing header row"),
    ("x,y\n0.1,1\n0.2,\n", "row 3: missing value in column 'y'"),
    ("x,y\n0.1,1\n0.2\n", "row 3: missing value in column 'y'"),
    ("x,y\n0.1,1\n0.2,abc\n", "row 3: column 'y' is not numeric ('abc')"),
    ("x,y\n0.1,1\n0.2,inf\n", "row 3: non-finite value in column 'y'"),
], ids=["missing-file", "empty-file", "empty-value", "short-row", "not-numeric", "inf"])
def test_fit_bad_csv_exits_3_naming_file_row_and_column(tmp_path, capsys, text, message):
    data = tmp_path / "data.csv"
    if text is not None:
        data.write_text(text, encoding="utf-8")
    rc = main([
        "fit", "--data", str(data), "--x", "x", "--y", "y",
        "--family", "gaussian", "--order", "2", "--knots", "5",
        "--psd-h", "1", "--psd-median", "1", "--noise-sd", "1",
        "--out", str(tmp_path / "o"),
    ])
    assert rc == 3
    err = capsys.readouterr().err
    assert str(data) in err and message in err


def test_fit_numeric_failure_exits_4(tmp_path, capsys):
    # noise SD 1e-9 against unit scatter: the log marginal is so large that a
    # double no longer resolves its change with sigma, and the search stalls
    data = tmp_path / "data.csv"
    write_gaussian_csv(data, n=40)
    rc = main([
        "fit", "--data", str(data), "--x", "x", "--y", "y",
        "--family", "gaussian", "--order", "3", "--knots", "20",
        "--psd-h", "1", "--psd-median", "1", "--noise-sd", "1e-9",
        "--quad", "1", "--samples", "10", "--out", str(tmp_path / "o"),
    ])
    assert rc == 4
    assert "numeric error" in capsys.readouterr().err


def test_fit_deriv_at_or_above_order_exits_2(tmp_path):
    data = tmp_path / "data.csv"
    write_gaussian_csv(data, n=10)
    rc = main([
        "fit", "--data", str(data), "--x", "x", "--y", "y",
        "--family", "gaussian", "--order", "2", "--knots", "5",
        "--psd-h", "1", "--psd-median", "1", "--noise-sd", "1",
        "--deriv", "0,2", "--out", str(tmp_path / "o"),
    ])
    assert rc == 2


@pytest.mark.parametrize("family", ["poisson", "poisson-od"])
def test_fit_negative_count_exits_3_naming_the_row(tmp_path, capsys, family):
    data = tmp_path / "data.csv"
    rows = [f"{float(i)},{c}" for i, c in enumerate([3, 1, 0, 2, -4, 5, 1, 2, 0, 3])]
    data.write_text("\n".join(["x,y"] + rows) + "\n", encoding="utf-8")
    rc = main([
        "fit", "--data", str(data), "--x", "x", "--y", "y",
        "--family", family, "--order", "2", "--knots", "5",
        "--psd-h", "1", "--psd-median", "1", "--out", str(tmp_path / "o"),
    ])
    assert rc == 3
    err = capsys.readouterr().err
    assert str(data) in err and "row 6: negative count in column 'y'" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("grid", ["0", "-1"])
def test_fit_grid_below_one_exits_2(tmp_path, capsys, grid):
    data = tmp_path / "data.csv"
    write_gaussian_csv(data, n=10)
    rc = main([
        "fit", "--data", str(data), "--x", "x", "--y", "y",
        "--family", "gaussian", "--order", "2", "--knots", "5",
        "--psd-h", "1", "--psd-median", "1", "--noise-sd", "1",
        "--grid", grid, "--out", str(tmp_path / "o"),
    ])
    assert rc == 2
    assert "--grid must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, message", [
    ("--samples", "0", "--samples must be at least 1 (got 0)"),
    ("--samples", "-5", "--samples must be at least 1 (got -5)"),
    ("--order", "0", "--order must lie in 1..20 (got 0)"),
    ("--order", "21", "--order must lie in 1..20 (got 21)"),
])
def test_fit_usage_errors_exit_2_before_any_work(tmp_path, capsys, monkeypatch, flag, value, message):
    """Bad --samples and --order are named and rejected before the data are
    read or a fit is run, so no output directory is left behind."""
    from osplines import cli

    monkeypatch.setattr(cli, "aghq_fit", lambda *a, **k: pytest.fail("fit ran"))
    data = tmp_path / "data.csv"
    write_gaussian_csv(data, n=10)
    argv = {
        "--data": str(data), "--x": "x", "--y": "y", "--family": "gaussian",
        "--order": "2", "--knots": "5", "--psd-h": "1", "--psd-median": "1",
        "--noise-sd": "1", "--out": str(tmp_path / "o"), flag: value,
    }
    rc = main(["fit"] + [part for item in argv.items() for part in item])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, flag, value", [
    ("fit", "--deriv", "a"),
    ("fit", "--deriv", "0;1"),
    ("cov-compare", "--knots-list", "a"),
    ("cov-compare", "--region", "1"),
    ("cov-compare", "--region", "0,x"),
])
def test_malformed_comma_lists_exit_2(tmp_path, capsys, command, flag, value):
    """A comma-separated flag that does not parse is a usage error, named,
    before any output directory is made."""
    data = tmp_path / "data.csv"
    write_gaussian_csv(data, n=10)
    out = tmp_path / "o"
    if command == "fit":
        argv = ["fit", "--data", str(data), "--x", "x", "--y", "y", "--family", "gaussian",
                "--order", "2", "--knots", "5", "--psd-h", "1", "--psd-median", "1",
                "--noise-sd", "1"]
    else:
        argv = ["cov-compare", "--order", "2", "--knots-list", "5"]
    rc = main(argv + [flag, value, "--out", str(out)])
    assert rc == 2
    assert f"error: {flag} takes" in capsys.readouterr().err
    assert not out.exists()


def test_fit_with_the_noise_sd_free_goes_through_the_pencil(tmp_path, monkeypatch):
    """The CLI's default Gaussian fit (no --noise-sd: kappa on the grid)
    makes no Newton call, and the weights it writes are the Newton oracle's
    at the same grid points to 1e-8."""
    from oracles import newton_oracle
    from osplines import cli, inference

    calls, fits, grids = [], [], []
    newton, adapt = inference.newton_mode, inference.adapt_quadrature
    monkeypatch.setattr(inference, "newton_mode",
                        lambda *a, **k: calls.append(a) or newton(*a, **k))
    monkeypatch.setattr(inference, "adapt_quadrature",
                        lambda *a: grids.append(adapt(*a)) or grids[-1])
    monkeypatch.setattr(cli, "aghq_fit", lambda *a, **k: fits.append(aghq_fit(*a, **k)) or fits[-1])
    data = tmp_path / "data.csv"
    write_gaussian_csv(data, n=60)
    out = tmp_path / "out"
    rc = main([
        "fit", "--data", str(data), "--x", "x", "--y", "y",
        "--family", "gaussian", "--order", "3", "--knots", "15",
        "--psd-h", "5", "--psd-u", "3", "--psd-alpha", "0.01",
        "--quad", "5", "--samples", "200", "--seed", "2", "--out", str(out),
    ])
    assert rc == 0
    assert calls == []
    rows = read_csv(out / "hyperparameters.csv")
    assert "kappa" in rows[0] and len(rows) == 25
    _, ref = newton_oracle(fits[0], grids[0])
    weights = np.array([float(r["weight"]) for r in rows])
    np.testing.assert_allclose(weights, ref.weights, rtol=1e-8, atol=1e-14)


def test_fit_is_deterministic_given_seed(tmp_path):
    data = tmp_path / "data.csv"
    write_gaussian_csv(data, n=30)
    args = [
        "fit", "--data", str(data), "--x", "x", "--y", "y",
        "--family", "gaussian", "--order", "2", "--knots", "10",
        "--psd-h", "1", "--psd-median", "1", "--noise-sd", "1",
        "--deriv", "0,1", "--quad", "3", "--samples", "200", "--seed", "7",
    ]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    for name in ("curve_q0.csv", "curve_q1.csv", "hyperparameters.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def poisson_od_fit_argv(tmp_path, n):
    """An ``osplines fit --family poisson-od`` run on n overdispersed counts
    in the benchmark's shape (order 3, 50 knots), on a 3 x 3 grid."""
    rng = np.random.default_rng([7, n])
    x = np.arange(n, dtype=float)
    g = 2.5 + np.sin(2.0 * np.pi * x / 120.0)
    y = rng.poisson(np.exp(g + rng.normal(0.0, 0.1, n)))
    data = tmp_path / "counts.csv"
    data.write_text("day,count\n" + "".join(f"{i},{c}\n" for i, c in enumerate(y)))
    return [
        "fit", "--data", str(data), "--x", "day", "--y", "count", "--family", "poisson-od",
        "--order", "3", "--knots", "50", "--psd-h", "30", "--psd-u", "1", "--psd-alpha", "0.01",
        "--quad", "3", "--samples", "200", "--deriv", "0,1", "--seed", "3",
    ]


def test_fit_poisson_od_forms_no_full_precision(tmp_path, monkeypatch):
    """At n = 1000 the full precision over (a, eps) would be 1050^2; the
    manifest's condition numbers are read by Lanczos without it."""
    from osplines import inference

    formed = []
    monkeypatch.setattr(inference, "_arrow_precision", lambda *a: formed.append(1))
    out = tmp_path / "out"
    assert main(poisson_od_fit_argv(tmp_path, 1000) + ["--out", str(out)]) == 0
    assert formed == []
    conds = json.loads((out / "manifest.json").read_text())["condition_numbers"]
    assert len(conds) == 9 and all(np.isfinite(conds)) and min(conds) > 1.0


def test_fit_poisson_od_lanczos_failure_exits_4_writing_nothing(tmp_path, capsys, monkeypatch):
    import scipy.sparse.linalg as sla

    def stalled(op, *args, **kwargs):
        raise sla.ArpackNoConvergence("No convergence", np.empty(0), np.empty((op.shape[0], 0)))

    monkeypatch.setattr(sla, "eigsh", stalled)
    rc = main(poisson_od_fit_argv(tmp_path, 300) + ["--out", str(tmp_path / "o")])
    assert rc == 4
    assert "Lanczos did not converge" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_fit_poisson_od_is_deterministic_given_seed(tmp_path):
    """Two seeded poisson-od runs write the same bytes, the manifest's
    Lanczos condition numbers included."""
    argv = poisson_od_fit_argv(tmp_path, 300)
    assert main(argv + ["--out", str(tmp_path / "a")]) == 0
    assert main(argv + ["--out", str(tmp_path / "b")]) == 0
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert "manifest.json" in names
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


# ---------------------------------------------------------------------------
# cov-compare / psd
# ---------------------------------------------------------------------------


def test_cov_compare_outputs_and_bound(tmp_path, capsys):
    rc = main([
        "cov-compare", "--order", "2", "--knots-list", "5,10",
        "--region", "0,1", "--q1", "0", "--q2", "0", "--out", str(tmp_path),
    ])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "within_bound=True" in printed
    assert "rate ratio k=5 vs 10" in printed
    rows = read_csv(tmp_path / "covgrid_k5.csv")
    # identity at s == t for the normalized difference: exact equals approx at knots
    by_key = {(r["s"], r["t"]): r for r in rows}
    assert all(float(r["abs_err"]) >= 0 for r in rows)
    # file round-trips through repr exactly
    some = rows[len(rows) // 2]
    assert float(some["exact"]) == float(repr(float(some["exact"])))


def test_cov_compare_sup_error_is_sup_cov_error(tmp_path, capsys):
    """The CLI tabulates the same grid as ``sup_cov_error``, origin shift
    included, so its printed and written maxima are that function's value."""
    from osplines import sup_cov_error

    rc = main([
        "cov-compare", "--order", "3", "--knots-list", "5,10",
        "--region", "2,7", "--q1", "1", "--q2", "0", "--out", str(tmp_path),
    ])
    assert rc == 0
    printed = capsys.readouterr().out
    for k in (5, 10):
        want = sup_cov_error(3, k, (2.0, 7.0), q1=1, q2=0)
        assert f"p=3 k={k} q=(1,0) sup_err={want:.6g} " in printed
        rows = read_csv(tmp_path / f"covgrid_k{k}.csv")
        assert len(rows) == (10 * k) ** 2
        assert max(float(r["abs_err"]) for r in rows) == want


def test_cov_compare_bound_scales_with_the_region(tmp_path, capsys):
    """Both covariances scale by (b - a)^(2p - 1 - q1 - q2) with the region,
    5^4 = 625 here, and the printed bound 2/k scales with them."""
    from osplines import sup_cov_error

    rc = main([
        "cov-compare", "--order", "3", "--knots-list", "5,10",
        "--region", "2,7", "--q1", "1", "--q2", "0", "--out", str(tmp_path),
    ])
    assert rc == 0
    printed = capsys.readouterr().out
    for k in (5, 10):
        ratio = sup_cov_error(3, k, (2.0, 7.0), q1=1, q2=0) / sup_cov_error(3, k, q1=1, q2=0)
        assert ratio == pytest.approx(625.0, rel=1e-9)
        assert f"bound={2.0 / k * 625.0:.6g} within_bound=True" in printed


def test_psd_command_conversions(capsys):
    assert main(["psd", "--order", "3", "--h", "1", "--sigma", "1"]) == 0
    out = capsys.readouterr().out
    assert repr(float(1.0 / (2.0 * np.sqrt(5.0)))) in out

    assert main(["psd", "--order", "1", "--h", "1", "--psd", "0.25"]) == 0
    assert "0.25" in capsys.readouterr().out

    assert main(["psd", "--order", "3", "--h", "5", "--sigma", "1",
                 "--u", "3", "--alpha", "0.01"]) == 0
    assert "rate" in capsys.readouterr().out


def test_psd_command_usage_errors():
    assert main(["psd", "--order", "3", "--h", "1"]) == 2
    assert main(["psd", "--order", "3", "--h", "1", "--sigma", "1", "--psd", "1"]) == 2


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------


def test_experiment_corr_ci_profile_under_two_minutes(tmp_path):
    t0 = time.monotonic()
    rc = main([
        "experiment", "--experiment", "corr", "--profile", "ci",
        "--out", str(tmp_path), "--seed", "1",
    ])
    elapsed = time.monotonic() - t0
    assert rc == 0
    assert elapsed < 120.0
    assert (tmp_path / "corr_curves.csv").exists()
    assert (tmp_path / "manifest.json").exists()


def test_experiment_invalid_config_key_named(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("experiment = corr\nknotz = 5\n")
    rc = main([
        "experiment", "--experiment", "corr", "--config", str(cfg),
        "--out", str(tmp_path / "o"),
    ])
    assert rc == 2
    assert "knotz" in capsys.readouterr().err


def test_experiment_unknown_id_is_usage_error():
    assert main(["experiment", "--experiment", "nope"]) == 2


def test_experiment_bench_with_config_file(tmp_path):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(
        "experiment = bench\n"
        "n_values = 30, 60\n"
        "knots = 5, 10\n"
        "baseline_n = 30\n"
        "baseline_k = 5\n"
        "timing_reps = 1\n"
        "num_samples = 100\n"
        "num_quad = 3\n"
    )
    rc = main([
        "experiment", "--experiment", "bench", "--config", str(cfg),
        "--out", str(tmp_path / "b"),
    ])
    assert rc == 0
    cond = read_csv(tmp_path / "b" / "bench_conditioning.csv")
    assert {r["method"] for r in cond} == {"exact", "ospline_k5", "ospline_k10"}
    runtimes = read_csv(tmp_path / "b" / "bench_runtimes.csv")
    base = next(r for r in runtimes if r["n"] == "30" and r["method"] == "ospline_k5")
    assert float(base["mean_rel"]) == pytest.approx(1.0)


def test_experiment_gmm_with_config_file(tmp_path):
    cfg = tmp_path / "gmm.cfg"
    cfg.write_text(
        "experiment = gmm\nreplications = 2\nknots = 25\nnum_quad = 3\nseed = 4\n"
    )
    rc = main([
        "experiment", "--experiment", "gmm", "--config", str(cfg),
        "--out", str(tmp_path / "g"),
    ])
    assert rc == 0
    rows = read_csv(tmp_path / "g" / "gmm_rmse.csv")
    assert {r["method"] for r in rows} == {"ospline_p3", "ospline_p2"}
    manifest = json.loads((tmp_path / "g" / "manifest.json").read_text())
    assert manifest["seed"] == 4


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "osplines.cli", "psd", "--order", "2", "--h", "2", "--sigma", "1"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(Path(osplines.__file__).parents[1])},
    )
    assert proc.returncode == 0
    assert "psd(2.0)" in proc.stdout


def test_importing_the_library_and_cli_loads_no_mpmath():
    """mpmath backs the test oracles only; the library runs on numpy and scipy."""
    src = Path(osplines.__file__).parents[1]
    code = 'import osplines, osplines.cli, sys; assert "mpmath" not in sys.modules'
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr


def test_fit_computes_each_condition_number_once(tmp_path, monkeypatch):
    from osplines import cli, inference

    calls = 0
    real = inference.condition_number

    def counted(approx):
        nonlocal calls
        calls += 1
        return real(approx)

    # both bindings: the CLI's own and the one inference's helpers call
    monkeypatch.setattr(cli, "condition_number", counted)
    monkeypatch.setattr(inference, "condition_number", counted)
    data = tmp_path / "data.csv"
    write_gaussian_csv(data, n=25)
    out = tmp_path / "out"
    rc = main([
        "fit", "--data", str(data), "--x", "x", "--y", "y",
        "--family", "gaussian", "--order", "2", "--knots", "8",
        "--psd-h", "1", "--psd-median", "1", "--noise-median", "1",
        "--quad", "3", "--samples", "100", "--seed", "0", "--out", str(out),
    ])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["theta_weights"]) == 9
    assert calls == 9
    assert manifest["max_condition_number"] == max(manifest["condition_numbers"])


def test_curve_csv_round_trip(tmp_path):
    data = tmp_path / "data.csv"
    write_gaussian_csv(data, n=25)
    out = tmp_path / "out"
    rc = main([
        "fit", "--data", str(data), "--x", "x", "--y", "y",
        "--family", "gaussian", "--order", "2", "--knots", "8",
        "--psd-h", "1", "--psd-median", "1", "--noise-sd", "1",
        "--quad", "3", "--samples", "100", "--seed", "0", "--out", str(out),
    ])
    assert rc == 0
    rows = read_csv(out / "curve_q0.csv")
    text = (out / "curve_q0.csv").read_text().splitlines()
    rebuilt = ["x,q,mean,sd,lower,upper"]
    for r in rows:
        rebuilt.append(
            ",".join(
                repr(float(r[c])) if c != "q" else r[c]
                for c in ("x", "q", "mean", "sd", "lower", "upper")
            )
        )
    assert rebuilt == text
