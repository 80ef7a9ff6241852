"""osplines benchmark: run one workload and print its metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload gauss_large_n --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1

Every workload runs in fresh worker processes with single-threaded BLAS,
importing ``osplines`` from ``src/`` of the checkout.  ``--trace 0`` prints
the end-to-end metrics (the set-up time is the median of several fresh
processes); ``--trace 1`` prints the per-layer metrics of a traced pass.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Each run also
leaves ``result.json`` (with git SHA, library versions, BLAS vendor, CPU
count and seed) and, when traced, ``spans.json`` under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("gauss_large_n", "poisson_od_cli", "gmm_batch", "exact_comparator")
END_TO_END_UNITS = {"pipeline_s": "s", "fits_per_s": "1/s", "peak_mem_mb": "MB", "setup_s": "s"}
SETUP_PROCESSES = 5
WORKER_TIMEOUT_S = 170
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS",
)


def git_sha(root: Path) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["TMPDIR"] = str(OUT)
    return env


def run_worker(workload: str, seed: int, seconds: float, trace: int, out: Path,
               setup_only: bool = False) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--out", str(out),
    ] + (["--setup-only"] if setup_only else [])
    # the worker's own output (the CLI workload prints) goes to stderr
    subprocess.run(cmd, env=worker_env(), stdout=sys.stderr, check=True,
                   timeout=WORKER_TIMEOUT_S, cwd=ROOT)
    return json.loads((out / "worker.json").read_text())


def tail(times: list) -> dict | None:
    """Highest percentile with at least ten pipelines beyond it (20+ pipelines)."""
    n = len(times)
    if n < 20:
        return None
    return {"value": sorted(times)[n - 11], "percentile": 100.0 * (n - 10) / n, "count": n}


def measure(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    out = OUT / f"{workload}-seed{seed}-trace{trace}-{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    setups, adjusted = [], []
    if not trace:
        for i in range(SETUP_PROCESSES - 1):
            probe = out / f"setup{i}"
            setups.append(run_worker(workload, seed, seconds, trace, probe, True))
            shutil.rmtree(probe)
    rec = run_worker(workload, seed, seconds, trace, out / "run")
    setups.append(rec)
    if trace:
        attempted, metrics = rec["attempted"], rec["per_layer"]
    else:
        times = rec["times"]
        adjusted = [t * rec["host_factor"] for t in times]
        attempted = len(times)
        fits = (attempted - rec["failed"]) * rec["fits_per_pipeline"]
        metrics = {
            "pipeline_s": statistics.median(adjusted),
            "fits_per_s": fits / sum(adjusted),
            "peak_mem_mb": rec["peak_mem_mb"],
            "setup_s": statistics.median([r["setup_s"] * r["setup_host_factor"] for r in setups]),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    summary = {
        # a reported numeric failure counts in ``failed``; only a checked
        # output that is wrong makes the run incorrect
        "correct": all(p["kind"] == "raised" for p in rec["problems"]),
        "attempted": attempted,
        "failed": rec["failed"],
        "metrics": metrics,
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "git_sha": git_sha(ROOT), "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)), **rec["environment"],
        "setup_s_samples": [r["setup_s"] for r in setups],
        "setup_host_factors": [r["setup_host_factor"] for r in setups],
        "peak_mem_mb": rec["peak_mem_mb"],
        "pipeline_times": rec.get("times"), "probe_s": rec.get("probe_s"),
        "host_factor": rec.get("host_factor"),
        "pipeline_wall_s": statistics.median(rec["times"]) if "times" in rec else None,
        "pipeline_tail_s": tail(adjusted),
        "problems": rec["problems"], **summary,
    }
    (out / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    return summary, record


def report(summary: dict, record: dict) -> None:
    print(
        f"{record['workload']}  seed={record['seed']}  trace={record['trace']}  "
        f"git={record['git_sha'][:12]}  numpy={record['numpy']}  scipy={record['scipy']}  "
        f"blas={record['blas']}  nproc={record['nproc']}"
    )
    for name, m in summary["metrics"].items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    if record["pipeline_wall_s"] is not None:
        print(f"  {'pipeline_wall_s (not host-adjusted)':<40} {record['pipeline_wall_s']:.6g} s")
    if record["pipeline_tail_s"]:
        t = record["pipeline_tail_s"]
        print(f"  {'pipeline_tail_s':<40} {t['value']:.6g} s "
              f"(p{t['percentile']:.0f} of {t['count']} pipelines)")
    print(f"  {'fail_frac':<40} {summary['failed'] / summary['attempted']:.6g} "
          f"({summary['failed']}/{summary['attempted']} pipelines)")
    for problem in record["problems"]:
        print(f"  FAILED ({problem['kind']}) pipeline {problem['pipeline']}: {problem['problems']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "osplines" / "__init__.py").is_file():
        print(f"error: no osplines sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    compileall.compile_dir(str(SRC), quiet=1)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = {}
    for name in names:
        summary, record = measure(name, args.seed, args.seconds, args.trace)
        report(summary, record)
        summaries[name] = summary
    if len(names) == 1:
        result = summaries[names[0]]
    else:
        result = {
            "correct": all(s["correct"] for s in summaries.values()),
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": sum(s["failed"] for s in summaries.values()),
            "metrics": {
                f"{w}.{k}": v for w, s in summaries.items() for k, v in s["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
