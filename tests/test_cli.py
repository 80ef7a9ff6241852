import csv
import json
import subprocess
import sys
import time

import numpy as np
import pytest

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


def test_fit_numeric_failure_exits_4(tmp_path, capsys):
    # noise far below double precision's reach for the gradient criterion
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
    )
    assert proc.returncode == 0
    assert "psd(2.0)" in proc.stdout


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
