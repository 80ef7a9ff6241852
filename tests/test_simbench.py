import numpy as np
import numpy.testing as npt
import pytest

from osplines import InvalidArgumentError
from osplines.simbench import (
    BenchConfig,
    CorrConfig,
    GmmConfig,
    gaussian_mixture_truth,
    load_config_file,
    make_config,
    make_sine_data,
    run_benchmark_study,
    run_correlation_study,
    run_gmm_study,
)


# ---------------------------------------------------------------------------
# configs
# ---------------------------------------------------------------------------


def test_config_file_round_trip(tmp_path):
    cfg_file = tmp_path / "corr.cfg"
    cfg_file.write_text(
        "# comment\n"
        "experiment = corr\n"
        "orders = 1,2\n"
        "knots = 5, 10\n"
        "grid_points = 50\n"
        "seed = 9\n"
    )
    overrides = load_config_file(cfg_file)
    assert overrides.pop("experiment") == "corr"
    cfg = make_config("corr", overrides=overrides)
    assert cfg.orders == (1, 2)
    assert cfg.knots == (5, 10)
    assert cfg.grid_points == 50
    assert cfg.seed == 9


def test_config_rejects_unknown_key():
    with pytest.raises(InvalidArgumentError) as exc:
        make_config("corr", overrides={"knotz": "5"})
    assert "knotz" in str(exc.value)


def test_config_profiles():
    assert make_config("gmm", profile="ci").replications == 100
    assert make_config("gmm", profile="full").replications == 300
    assert make_config("bench", profile="ci").timing_reps == 3
    with pytest.raises(InvalidArgumentError):
        make_config("corr", profile="fast")
    with pytest.raises(InvalidArgumentError):
        make_config("nope")


# ---------------------------------------------------------------------------
# correlation study
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_corr(tmp_path_factory):
    out = tmp_path_factory.mktemp("corr")
    cfg = make_config(
        "corr",
        overrides={"orders": (1, 2), "knots": (5, 10, 30), "grid_points": 120, "out": str(out)},
    )
    return run_correlation_study(cfg)


def test_corr_reference_self_correlation(small_corr):
    """At the reference point the auto-correlation is one for both curves."""
    from osplines import IWPKernel

    x0 = np.array([5.0])
    for p in (1, 2, 3, 4):
        kern = IWPKernel(p, 1.0)
        cross = kern.cov_matrix(x0, x0, 0, 0)[0, 0]
        rho = cross / np.sqrt(
            kern.cov_matrix(x0, x0)[0, 0] * kern.cov_matrix(x0, x0)[0, 0]
        )
        assert rho == pytest.approx(1.0, abs=1e-14)

    cfg = small_corr.config
    xs = small_corr.xs
    i = int(np.argmin(np.abs(xs - cfg.reference_x)))
    # grid point nearest the reference: correlation within grid resolution of 1
    for (p, k, q), err in small_corr.errors.items():
        if q == 0:
            assert err[i] < 0.02


def test_corr_knot_aligned_reference_is_exact():
    """First-order approximation reproduces exact correlations at knot points
    when the reference location itself is a knot."""
    from osplines import IWPKernel, OSplineBasis, OSplineKernel, build_equal_knots

    kern = IWPKernel(1, 1.0)
    for k in (3, 6, 30):  # 5.0 is a knot of each of these grids on [0, 15]
        basis = OSplineBasis(1, build_equal_knots(0.0, 15.0, k))
        knots = basis.knot_set.knots
        x0 = np.array([5.0])
        assert np.any(np.isclose(knots, 5.0))
        rho_e = kern.cov_matrix(x0, knots)[0] / np.sqrt(
            kern.cov_matrix(x0, x0)[0, 0] * np.diag(kern.cov_matrix(knots, knots))
        )
        approx = OSplineKernel(basis, 1.0)
        rho_a = approx.cov_matrix(x0, knots)[0] / np.sqrt(
            approx.cov_matrix(x0, x0)[0, 0] * np.diag(approx.cov_matrix(knots, knots))
        )
        npt.assert_allclose(rho_a, rho_e, atol=1e-12)


def test_corr_error_monotone_in_k(small_corr):
    """Refining the knots does not increase the error at (almost) any point."""
    cfg = small_corr.config
    for p in cfg.orders:
        qs = [0] + ([1] if p >= 2 else [])
        for q in qs:
            for k1, k2 in zip(cfg.knots[:-1], cfg.knots[1:]):
                e1 = small_corr.errors[(p, k1, q)]
                e2 = small_corr.errors[(p, k2, q)]
                frac = np.mean(e2 <= e1 + 1e-12)
                assert frac >= 0.95, (p, q, k1, k2, frac)


def test_corr_study_k30_threshold(small_corr):
    for (p, k, q), err in small_corr.max_errors.items():
        if k == 30:
            assert err <= 0.05, (p, q, err)


def test_corr_outputs_written(small_corr):
    for path in small_corr.files:
        assert path.exists()


# ---------------------------------------------------------------------------
# benchmark study
# ---------------------------------------------------------------------------


def test_sine_data_deterministic():
    x1, y1 = make_sine_data(40, seed=3)
    x2, y2 = make_sine_data(40, seed=3)
    npt.assert_array_equal(y1, y2)
    npt.assert_allclose(x1, np.linspace(0, 20, 40))


@pytest.fixture(scope="module")
def tiny_bench(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    cfg = make_config(
        "bench",
        overrides={
            "n_values": (30, 60),
            "knots": (5, 10),
            "baseline_n": 30,
            "baseline_k": 5,
            "timing_reps": 2,
            "num_samples": 200,
            "num_quad": 4,
            "out": str(out),
        },
    )
    return run_benchmark_study(cfg)


def test_bench_baseline_normalization(tiny_bench):
    cell = tiny_bench.cell(30, "ospline_k5")
    assert cell.mean_rel == pytest.approx(1.0)


def test_bench_conditioning_ordering(tiny_bench):
    for n in (30, 60):
        exact = tiny_bench.cell(n, "exact")
        assert exact.status == "ok"
        for k in (5, 10):
            cell = tiny_bench.cell(n, f"ospline_k{k}")
            assert cell.log10_cn_max < exact.log10_cn_max


def test_bench_files_written(tiny_bench):
    for path in tiny_bench.files:
        assert path.exists()
    text = (tiny_bench.files[0]).read_text()
    assert text.startswith("n,method,status,log10_cn_max")


# ---------------------------------------------------------------------------
# mixture study
# ---------------------------------------------------------------------------


def test_mixture_truth_standardized(rng):
    cfg = GmmConfig()
    xs = np.linspace(0.0, 10.0, 100)
    for rep in range(5):
        g, g1, g2 = gaussian_mixture_truth(np.random.default_rng([1, rep]), xs, cfg)
        assert np.var(g, ddof=1) == pytest.approx(1.0, abs=1e-12)


def test_mixture_derivatives_match_finite_differences():
    cfg = GmmConfig()
    xs = np.linspace(0.0, 10.0, 100)
    step = 1e-6

    def at(points):
        return gaussian_mixture_truth(np.random.default_rng([2, 0]), points, cfg)

    g, g1, g2 = at(xs)
    gu, _, _ = at(xs + step)
    gd, _, _ = at(xs - step)
    npt.assert_allclose(g1, (gu - gd) / (2 * step), atol=1e-4)
    npt.assert_allclose(g2, (gu - 2 * g + gd) / step**2, atol=1e-2)


def test_gmm_noiseless_near_interpolation(tmp_path):
    # smallest noise for which the 1e-8 relative gradient criterion is
    # reachable in double precision: the likelihood gradient scales with
    # 1/noise^2, so its evaluation floor crosses the threshold below ~1e-3
    cfg = make_config(
        "gmm",
        overrides={"replications": 1, "noise_sd": 1e-3, "out": str(tmp_path / "g")},
    )
    report = run_gmm_study(cfg)
    assert report.rmse[(report.reference, 0)][0] < 0.01


def test_gmm_reference_ratio_is_one(tmp_path):
    cfg = make_config(
        "gmm",
        overrides={"replications": 5, "knots": 40, "num_quad": 4, "out": str(tmp_path / "g")},
    )
    report = run_gmm_study(cfg)
    for q in (0, 1, 2):
        assert np.median(report.ratios[(report.reference, q)]) == pytest.approx(1.0)
    assert set(report.methods) == {"ospline_p3", "ospline_p2"}


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def _read_all(paths):
    return {p.name: p.read_bytes() for p in paths}


def test_corr_rerun_is_byte_identical(tmp_path):
    overrides = {"orders": (1, 2), "knots": (5, 10), "grid_points": 40}
    a = run_correlation_study(make_config("corr", overrides={**overrides, "out": str(tmp_path / "a")}))
    b = run_correlation_study(make_config("corr", overrides={**overrides, "out": str(tmp_path / "b")}))
    assert _read_all(a.files) == _read_all(b.files)


def test_gmm_rerun_is_byte_identical(tmp_path):
    overrides = {"replications": 2, "knots": 30, "num_quad": 3, "seed": 5}
    a = run_gmm_study(make_config("gmm", overrides={**overrides, "out": str(tmp_path / "a")}))
    b = run_gmm_study(make_config("gmm", overrides={**overrides, "out": str(tmp_path / "b")}))
    assert _read_all(a.files) == _read_all(b.files)


def test_bench_rerun_non_timing_outputs_identical(tmp_path):
    overrides = {
        "n_values": (30,),
        "knots": (5,),
        "baseline_n": 30,
        "baseline_k": 5,
        "timing_reps": 1,
        "num_samples": 100,
        "num_quad": 3,
        "seed": 2,
    }
    a = run_benchmark_study(make_config("bench", overrides={**overrides, "out": str(tmp_path / "a")}))
    b = run_benchmark_study(make_config("bench", overrides={**overrides, "out": str(tmp_path / "b")}))
    for name in ("bench_conditioning.csv", "manifest.json"):
        fa = next(p for p in a.files if p.name == name)
        fb = next(p for p in b.files if p.name == name)
        assert fa.read_bytes() == fb.read_bytes()
