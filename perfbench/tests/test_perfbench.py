"""Tests of the benchmark's own logic: its correctness checks catch
perturbed outputs, its self-time arithmetic is right, its traced run puts
every swapped name back, and BENCHMARK.json names what the runs print.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import hostspeed  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from osplines import basis as ob  # noqa: E402
from osplines import inference  # noqa: E402
from osplines.errors import IterationError  # noqa: E402
from osplines.prior import ExponentialPrior, PSDSpec, prior_from_psd  # noqa: E402

REGION, K, ORDER, NOISE = (0.0, 10.0), 20, 3, 0.5
PSD = dict(h=2.0, u=1.0, alpha=0.1)


@pytest.fixture(scope="module")
def gaussian_fit():
    rng = np.random.default_rng(7)
    x = np.sort(rng.uniform(*REGION, 200))
    y = np.sin(x) + rng.normal(0.0, NOISE, x.size)
    model = inference.build_model(
        x, y, ob.OSplineBasis(ORDER, ob.build_equal_knots(*REGION, K)), "gaussian",
        sigma_prior=prior_from_psd(PSDSpec(h=PSD["h"], order=ORDER), PSD["u"], PSD["alpha"]),
        family_hyper_fixed=NOISE, poly_prior_sd=workloads.POLY_SD,
    )
    return x, y, inference.aghq_fit(model, num_quad=5, num_samples=0)


def _conjugate_problems(x, y, fit):
    X = reference.design(x, REGION, K, ORDER)
    rate = reference.exponential_rate_from_psd(ORDER, **PSD)
    return workloads.check_conjugate(fit, x, y, REGION, K, ORDER, NOISE, rate, (X, X.T @ X))


def _with_heaviest(fit, **changes):
    j = int(np.argmax(fit.weights))
    approxes = list(fit.approxes)
    approxes[j] = dataclasses.replace(approxes[j], **changes)
    return dataclasses.replace(fit, approxes=approxes)


def test_reference_design_matches_library():
    x = np.linspace(*REGION, 57)
    for q in range(ORDER + 1):
        lib = np.hstack([
            ob.design_matrix(ob.OSplineBasis(ORDER, ob.build_equal_knots(*REGION, K)), x, q).values,
            ob.polynomial_design(x, ORDER, q),
        ])
        np.testing.assert_allclose(reference.design(x, REGION, K, ORDER, q), lib,
                                   rtol=1e-12, atol=1e-12)


def test_conjugate_check_passes_the_fit(gaussian_fit):
    x, y, fit = gaussian_fit
    assert _conjugate_problems(x, y, fit) == []


def test_conjugate_check_catches_a_perturbed_mode(gaussian_fit):
    x, y, fit = gaussian_fit
    j = int(np.argmax(fit.weights))
    mode = fit.approxes[j].mode.copy()
    mode[3] += 1e-6 * np.max(np.abs(mode))
    problems = _conjugate_problems(x, y, _with_heaviest(fit, mode=mode))
    assert len(problems) == 1 and "mode" in problems[0]


def test_conjugate_check_catches_a_perturbed_log_marginal(gaussian_fit):
    x, y, fit = gaussian_fit
    lj = fit.approxes[int(np.argmax(fit.weights))].log_joint_at_mode
    problems = _conjugate_problems(x, y, _with_heaviest(fit, log_joint_at_mode=lj * (1 + 1e-7)))
    assert len(problems) == 1 and "log marginal" in problems[0]


def test_stationarity_check_catches_a_perturbed_mode():
    rng = np.random.default_rng(3)
    x = np.arange(80, dtype=float)
    y = rng.poisson(np.exp(2.0 + np.sin(x / 10.0))).astype(float)
    model = inference.build_model(
        x, y, ob.OSplineBasis(3, ob.build_equal_knots(0.0, 79.0, 15)), "poisson_od",
        sigma_prior=prior_from_psd(PSDSpec(h=10.0, order=3), 1.0, 0.01),
        poly_prior_sd=workloads.POLY_SD,
        family_hyper_prior=ExponentialPrior(rate=math.log(2.0) / 0.1),
    )
    theta = np.log([0.05, 0.1])
    approx = inference.newton_mode(model, theta)
    assert workloads.stationarity_error(model, theta, approx.mode, approx.precision) \
        <= workloads.STATIONARY_TOL
    mode = approx.mode.copy()
    mode[5] += 1e-3 / math.sqrt(approx.precision[5, 5])
    assert workloads.stationarity_error(model, theta, mode, approx.precision) \
        > workloads.STATIONARY_TOL


class SmallPoissonOdCli(workloads.PoissonOdCli):
    datasets, n, k, num_quad, num_samples = 1, 80, 15, 3, 500
    psd = dict(h=10.0, u=1.0, alpha=0.01)


def _edit_csv(path, row, col, change):
    lines = path.read_text().splitlines()
    header, cells = lines[0].split(","), lines[row + 1].split(",")
    cells[header.index(col)] = repr(change(float(cells[header.index(col)]), header, cells))
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_poisson_cli_check_catches_perturbed_outputs(tmp_path, capsys):
    wl = SmallPoissonOdCli(2, tmp_path)
    out = wl.run(0)
    assert wl._check(0, out) == []

    saved = (out / "manifest.json").read_text()
    manifest = json.loads(saved)
    manifest["condition_numbers"][0] *= 1.01
    (out / "manifest.json").write_text(json.dumps(manifest))
    problems = wl._check(0, out)
    assert len(problems) == 1 and "condition numbers" in problems[0]
    (out / "manifest.json").write_text(saved)

    # ten MC standard errors: the sampled SD over sqrt(samples)
    _edit_csv(out / "curve_q1.csv", 7, "mean",
              lambda v, h, c: v + 10.0 * float(c[h.index("sd")]) / math.sqrt(wl.num_samples))
    problems = wl._check(0, out)
    assert len(problems) == 1 and "curve q=1" in problems[0]


def test_gmm_check_catches_a_perturbed_curve(tmp_path):
    wl = workloads.GmmBatch(1, tmp_path)
    report = wl.run(0)
    assert wl._check(report) == []
    path = wl.out / "gmm_curves.csv"
    lines = path.read_text().splitlines()
    header, row = lines[0].split(","), lines[1].split(",")
    mean, sd = header.index("mean"), header.index("sd")
    row[mean] = repr(float(row[mean]) + 1e-2 * float(row[sd]))
    path.write_text("\n".join([lines[0], ",".join(row)] + lines[2:]) + "\n")
    problems = wl._check(report)
    assert len(problems) == 1 and "q=0" in problems[0]


class _InstantWorkload:
    datasets = 3

    def run(self, i):
        time.sleep(0.01)
        return i

    def check(self, i, out):
        return [] if out == i else ["wrong"]


def test_untraced_runs_time_whole_dataset_cycles():
    for seconds in (0.0, 0.06, 0.1):
        rec = worker.timed(_InstantWorkload(), seconds)
        assert len(rec["times"]) % 3 == 0 and len(rec["times"]) >= 3
        assert len(rec["probe_s"]) >= hostspeed.MIN_PROBES * (len(rec["times"]) + 1)
        assert rec["failed"] == 0


def test_pipeline_problems_say_whether_the_library_raised():
    class Raising(_InstantWorkload):
        def run(self, i):
            raise IterationError("no convergence")

    class Wrong(_InstantWorkload):
        def check(self, i, out):
            return ["mode off"]

    class RaisingCheck(_InstantWorkload):
        def check(self, i, out):
            raise IterationError("no convergence")

    assert worker.run_pipeline(Raising(), 0)[1:] == (
        ["IterationError: no convergence"], "raised")
    assert worker.run_pipeline(RaisingCheck(), 0)[1:] == (
        ["check: IterationError: no convergence"], "raised")
    assert worker.run_pipeline(Wrong(), 0)[1:] == (["mode off"], "wrong output")
    assert worker.run_pipeline(_InstantWorkload(), 0)[1] == []


def test_host_factor_is_reference_over_median_probe():
    ref = hostspeed.REFERENCE_PROBE_S
    assert hostspeed.factor([ref, 2.0 * ref, 2.0 * ref, 9.0 * ref]) == pytest.approx(0.5)


def _span(name, start, end, parent):
    return tracing.Span(name, start, end, parent, pipeline=0)


def test_self_times_on_a_synthetic_tree():
    spans = [
        _span("root", 0.0, 10.0, None),
        _span("a", 1.0, 4.0, 0),
        _span("b", 3.0, 6.0, 0),       # overlaps a: together they cover [1, 6]
        _span("a1", 2.0, 3.0, 1),
        _span("late", 9.5, 11.0, 0),   # sticks out of root: only [9.5, 10] counts
    ]
    assert tracing.self_times(spans) == pytest.approx([4.5, 2.0, 3.0, 1.0, 1.5])


def test_layer_metrics_sum_spans_and_self_times():
    spans = [
        _span("pipeline", 0.0, 10.0, None),
        _span("inference.aghq_fit", 0.0, 6.0, 0),
        _span("aghq.adapt_quadrature", 0.5, 5.5, 1),
        _span("inference.newton_mode", 1.0, 2.0, 2),
        _span("inference.newton_mode", 3.0, 5.0, 2),
    ]
    spans[2].attrs.update(log_post_calls=7, grid_points=4, grid_ess=2.0, edge_mass=0.1)
    for sp in spans[3:]:
        sp.attrs.update(iterations=3, latent_dim=12)
    m = {k: v["value"] for k, v in tracing.layer_metrics(spans, 10.0, 0.25).items()}
    assert m["inference.newton_mode.calls"] == 2
    assert m["inference.newton_mode.s"] == pytest.approx(3.0)
    assert m["inference.newton_mode.per_call_s"] == pytest.approx(1.5)
    assert m["inference.newton_mode.iterations"] == 6
    assert m["aghq.adapt_quadrature.self_s"] == pytest.approx(2.0)
    assert m["inference.aghq_fit.self_s"] == pytest.approx(1.0)
    assert m["aghq.kept_solve_ratio"] == pytest.approx(2.0)
    assert m["aghq.log_post.calls"] == 7
    assert m["exact.exact_hierarchical_fit.s"] == 0
    assert m["trace.overhead_frac"] == pytest.approx(0.25)


def _bindings():
    return {
        (spec, layer.attr): vars(tracing._owner(spec)).get(layer.attr)
        for layer in tracing.LAYERS for spec in layer.owners
    }


def test_traced_run_restores_every_binding(gaussian_fit, tmp_path):
    before = _bindings()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError, match="stop"):
        with tracing.installed(tracer):
            swapped = _bindings()
            assert all(swapped[key] is not raw for key, raw in before.items() if raw is not None)
            with tracer.pipeline(0):
                wl = workloads.ExactComparator(1, tmp_path)
                wl.num_samples = 50
                wl.check(0, wl.run(0))
            raise RuntimeError("stop")
    after = _bindings()
    assert all(after[key] is raw for key, raw in before.items())
    names = {sp.name for sp in tracer.spans}
    assert {"pipeline", "exact.exact_hierarchical_fit", "aghq.adapt_quadrature",
            "exact.IWPKernel.cov_matrix"} <= names


def test_spans_are_recorded_only_inside_pipelines(gaussian_fit):
    x, _, fit = gaussian_fit
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        inference.posterior_moments(fit, x[:5], 0)
        assert tracer.spans == []
        with tracer.pipeline(3):
            inference.posterior_moments(fit, x[:5], 0)
    assert [(sp.name, sp.pipeline) for sp in tracer.spans] == [
        ("pipeline", 3), ("inference.posterior_moments", 3), ("basis.design_matrix", 3)
    ]


def test_benchmark_json_names_what_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert sorted(run.WORKLOADS) == sorted(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert run.tail(list(range(19))) is None
    t = run.tail([float(v) for v in range(40, 0, -1)])
    assert t == {"value": 30.0, "percentile": 75.0, "count": 40}
