"""One workload in one fresh process; writes its measurements as JSON.

Started by ``run.py`` with the BLAS thread variables already set to 1, so
numpy sees them before it is imported and ``peak_mem_mb``/``setup_s``
belong to this workload alone.

Untraced: set up, then run whole cycles over the workload's datasets
(pipeline ``i`` uses dataset ``i mod datasets``) while one more cycle is
expected to end nearer ``--seconds``, checking each pipeline's output
outside the timed section.  Every run of a seed therefore times the same
datasets, each equally often, however fast the code under test is.  A
host-speed probe runs between the pipelines (see ``hostspeed``).
Traced: run one cycle, each dataset once untraced and once with the layer
wrappers installed, alternating which goes first; the pairs give the
tracing overhead and the counts repeat exactly for a given seed.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402  (imports scipy and osplines: part of set-up)
from osplines.errors import IterationError, NumericError  # noqa: E402

FAILURES = (NumericError, IterationError, workloads.PipelineFailed)


def run_pipeline(wl, i: int, wrap=None):
    """Time one pipeline and check it; returns (seconds, problems, kind).

    ``kind`` says what the problems are: "raised" when the library reported
    a numeric failure, in the pipeline or in the check, "wrong output" when
    the check found the output incorrect.
    """
    t0 = time.perf_counter()
    try:
        if wrap is None:
            out = wl.run(i)
        else:
            with wrap(i):
                out = wl.run(i)
    except FAILURES as err:
        return time.perf_counter() - t0, [f"{type(err).__name__}: {err}"], "raised"
    seconds = time.perf_counter() - t0
    try:
        return seconds, wl.check(i, out), "wrong output"
    except FAILURES as err:
        # a check may run library code again, as the poisson-od check does
        # with its cold-started Newton modes
        return seconds, [f"check: {type(err).__name__}: {err}"], "raised"


def timed(wl, seconds: float) -> dict:
    """Run whole dataset cycles while one more is expected to end nearer ``seconds``.

    The host-speed probe runs before the first pipeline and after each one,
    outside the timed sections.
    """
    times, probes, problems, failed = [], hostspeed.sample(), [], 0
    cycles = []
    while not cycles or sum(cycles) + cycles[-1] / 2 < seconds:
        start = len(times)
        for i in range(start, start + wl.datasets):
            dt, found, kind = run_pipeline(wl, i)
            times.append(dt)
            probes += hostspeed.sample(hostspeed.PROBE_SHARE * dt)
            if found:
                failed += 1
                problems.append({"pipeline": i, "kind": kind, "problems": found})
        cycles.append(sum(times[start:]))
    return {
        "times": times,
        "probe_s": probes,
        "host_factor": hostspeed.factor(probes),
        "failed": failed,
        "problems": problems,
    }


def traced(wl, out_dir: Path) -> dict:
    tracer = tracing.Tracer()
    pairs, problems = [], []
    for i in range(wl.datasets):
        result = {}
        for mode in ("untraced", "traced")[:: 1 if i % 2 == 0 else -1]:
            if mode == "traced":
                with tracing.installed(tracer):
                    result[mode] = run_pipeline(wl, i, tracer.pipeline)
            else:
                result[mode] = run_pipeline(wl, i)
            dt, found, kind = result[mode]
            if found:
                problems.append({"pass": mode, "pipeline": i, "kind": kind, "problems": found})
        pairs.append((result["traced"][0], result["untraced"][0]))
    (out_dir / "spans.json").write_text(json.dumps(tracing.span_records(tracer.spans)) + "\n")
    return {
        "attempted": 2 * wl.datasets,
        "failed": len(problems),
        "problems": problems,
        "per_layer": tracing.layer_metrics(
            tracer.spans,
            sum(t for t, _ in pairs),
            statistics.median([t / u for t, u in pairs]) - 1.0,
        ),
    }


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": sys.version.split()[0],
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", required=True, help="directory for inputs, outputs and results")
    args = parser.parse_args(argv)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, out_dir)
    setup_s = time.perf_counter() - _T0
    record = {
        "setup_s": setup_s,
        "setup_host_factor": hostspeed.factor(hostspeed.sample(hostspeed.SETUP_PROBE_S)),
    }
    if not args.setup_only:
        if args.trace:
            record.update(traced(wl, out_dir))
        else:
            record.update(timed(wl, args.seconds))
            record["fits_per_pipeline"] = wl.fits_per_pipeline
        record["peak_mem_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        record["environment"] = environment(args.seed)
    (out_dir / "worker.json").write_text(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
