"""fcslab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; the program is
imported from the checkout's ``src/``.  Each workload command runs as users
run it: a fresh process, then ``fcslab.cli.main([...])`` on a config made
from the seed (see ``workloads.py``).  Commands are repeated, each in its own
process, until S seconds of command time are measured.

``--trace 0`` reports the end-to-end metrics: ``run_s`` (the ``cli.main``
call), ``setup_s`` (fresh interpreter through ``import fcslab`` and
``parse_config``, median of several processes) and ``peak_rss_mb`` (peak
resident memory of the command's process).  ``--trace 1`` runs the same
commands untraced, then once more with every public function of the fcslab
layers wrapped in spans (``tracer.py``), and reports per-layer self time and
counts, the tracing overhead, and a scaling table of one sweep cell for chain
sizes n = 3..8.  Every command's outputs are checked; failures are counted,
never raised.  Metric names and units come from ``BENCHMARK.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report.  Spans and full results are written under
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS
from workloads import BASE_CONFIG, WORKLOADS, Gate, Workload

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(ROOT / "src"))  # the correctness gate imports fcslab
DEADLINE_S = 170.0  # per workload; a run must end within 180 s
SETUP_PROBES = 5
SCALE_SIZES = tuple(range(3, 9))
# One sweep cell at t = 5 for the scaling table.
SCALE_ARGS = ("sweep", "--t-grid", "5", "--lambda-grid", "0.2", "--workers", "1")
# Sweep-side layers shown in the scaling table.
SCALE_LAYERS = (
    "dynamics.with_lam", "dynamics.unitary_coupled", "linalg.eig_hermitian",
    "linalg.op_norm", "linalg.positive_sqrt", "modular.initial_vector",
    "states.from_points", "states.char", "fcs.reservoir_fcs", "fcs.system_fcs",
    "fcs.derivative_moments", "fcs.system_char_limit",
)
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def run_metadata() -> dict:
    import numpy
    import scipy

    sha = "unknown (not a git checkout)"
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def _spawn(args: list, out: Path, log: Path, deadline: float) -> tuple[dict | None, float]:
    """Run the worker; return (its result or None on failure, wall seconds)."""
    start = time.monotonic()
    try:
        with open(log, "ab") as fh:
            proc = subprocess.run([sys.executable, str(WORKER), *map(str, args), "--out", str(out)],
                                  stdout=fh, stderr=subprocess.STDOUT, cwd=ROOT,
                                  timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        return None, time.monotonic() - start
    wall = time.monotonic() - start
    if proc.returncode != 0 or not out.exists():
        return None, wall
    return json.loads(out.read_text()), wall


def _run_jobs(work: Path, label: str, jobs: list, trace: bool, deadline: float):
    jobs_path = work / f"jobs-{label}.json"
    jobs_path.write_text(json.dumps(jobs))
    args = ["run", "--jobs", jobs_path] + (["--trace"] if trace else [])
    res, wall = _spawn(args, work / f"result-{label}.json", work / "worker.log", deadline)
    return (res["jobs"] if res else [None] * len(jobs)), wall


def _job(w: Workload, cfg: Path, out_dir: Path, seed: int, label: str) -> dict:
    return {"argv": w.argv(cfg, out_dir, seed), "label": label, "workers": w.workers}


def percentile_note(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return "no percentile has >=10 samples beyond it (needs n >= 11)"
    k = n - 10
    return f"p{100 * k / n:.0f} {sorted(samples)[k - 1]:.6g}"


def run_workload(w: Workload, seed: int, seconds: float, trace: bool,
                 scale_sizes=SCALE_SIZES, setup_probes: int = SETUP_PROBES) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    work = OUT / w.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg = work / "config.json"
    cfg.write_text(json.dumps(w.config(ROOT, seed), indent=2))

    setup = []
    if not trace:
        for k in range(setup_probes):
            res, wall = _spawn(["setup", "--config", cfg, "--t0", time.monotonic()],
                               work / f"setup{k}.json", work / "worker.log", deadline)
            setup.append(res["setup_s"] if res else wall)

    # Untraced commands, each in a fresh process, until `seconds` are measured.
    reps = []  # (out_dir, job result or None, wall)
    measured = 0.0
    while True:
        out_dir = work / f"rep{len(reps)}"
        (res,), wall = _run_jobs(work, f"rep{len(reps)}", [_job(w, cfg, out_dir, seed, "main")],
                                 False, deadline)
        reps.append((out_dir, res, wall))
        measured += res["run_s"] if res else wall
        if res is None or measured >= seconds or time.monotonic() + 1.2 * wall > deadline:
            break

    traced, scale = None, []
    if trace:
        scale_cfgs = []
        jobs = [_job(w, cfg, work / "traced", seed, "traced")]
        for n in scale_sizes:
            sw = Workload(f"scale_n{n}", n, 0.0, SCALE_ARGS)
            scfg = work / f"scale_n{n}.json"
            scfg.write_text(json.dumps(sw.config(ROOT, seed)))
            scale_cfgs.append((sw, scfg))
            jobs.append(_job(sw, scfg, work / f"scale_n{n}", seed, f"scale_n{n}"))
        results, _ = _run_jobs(work, "traced", jobs, True, deadline)
        traced, scale = results[0], list(zip(scale_cfgs, results[1:]))

    # Correctness, outside every timed region.
    gate = Gate(w, cfg)
    attempted = failed = 0
    problems = []
    checked = [(out_dir, res) for out_dir, res, _ in reps]
    if trace:
        checked.append((work / "traced", traced))
    for out_dir, res in checked:
        rc = res["rc"] if res else None
        a, f, p = gate.check(out_dir, rc)
        attempted, failed, problems = attempted + a, failed + f, problems + p
        if res and res["error"]:
            problems.append(res["error"])
    for (sw, scfg), res in scale:
        a, f, p = Gate(sw, scfg).check(work / sw.name, res["rc"] if res else None)
        attempted, failed, problems = attempted + a, failed + f, problems + [f"{sw.name}: {x}" for x in p]

    run_samples = [res["run_s"] if res else wall for _, res, wall in reps]
    samples = {"run_s": run_samples}
    metrics = {"run_s": statistics.median(run_samples)}
    if not trace:
        rss = [res["peak_rss_mb"] for _, res, _ in reps if res]
        samples.update(setup_s=setup, peak_rss_mb=rss)
        metrics.update(setup_s=statistics.median(setup),
                       peak_rss_mb=statistics.median(rss) if rss else 0.0)
    if traced:
        layers = traced["layers"]
        for name, row in layers.items():
            metrics[f"{name}.self_s"] = row["self_s"]
            metrics[f"{name}.calls"] = row["calls"]
        metrics.update(traced["counts"])
        for layer in LAYERS:
            metrics[f"layer.{layer}.self_s"] = sum(
                row["self_s"] for name, row in layers.items() if name.startswith(layer + ".")
            )
        metrics["fcs.limit_sweep.busy_ratio"] = traced["busy_ratio"]
        metrics["trace.run_s"] = traced["run_s"]
        metrics["trace.overhead_s"] = traced["run_s"] - statistics.median(run_samples)
        metrics["trace.uncovered_s"] = traced["uncovered_s"]
        metrics["trace.spans"] = traced["spans"]
    for (sw, _), res in scale:
        if res:
            metrics[f"scale.n{sw.n}.run_s"] = res["run_s"]

    result = {
        "workload": w.name, "seed": seed, "seconds": seconds, "trace": trace,
        "meta": run_metadata(), "attempted": attempted, "failed": failed,
        "problems": problems, "samples": samples, "metrics": metrics,
        "scale": [{"n": sw.n, "d": 2 * 2**sw.n, "run_s": res["run_s"], "layers": res["layers"]}
                  for (sw, _), res in scale if res],
    }
    (work / "result.json").write_text(json.dumps(result, indent=2))
    return result


def report_lines(result: dict, units: dict) -> list[str]:
    name = result["workload"]
    lines = [f"# {name}: seed {result['seed']}, trace {int(result['trace'])}, "
             f"{len(result['samples']['run_s'])} command(s)",
             f"# meta {json.dumps(result['meta'], sort_keys=True)}"]
    for metric, samples in result["samples"].items():
        lines.append(f"{name} {metric}: median {statistics.median(samples):.6g} {units[metric]}, "
                     f"n={len(samples)}, {percentile_note(samples)}" if samples else
                     f"{name} {metric}: no samples")
    att, fail = result["attempted"], result["failed"]
    lines.append(f"{name} failed_frac: {fail}/{att} = {fail / max(att, 1):.6g} ratio, "
                 f"n={len(result['samples']['run_s'])} command(s)")
    lines += [f"# problem: {p}" for p in result["problems"][:20]]
    if result["trace"]:
        m = result["metrics"]
        rows = sorted(((k[:-len(".self_s")], v) for k, v in m.items() if k.endswith(".self_s")
                       and not k.startswith("layer.")), key=lambda kv: -kv[1])
        lines.append(f"# {'span':40s} {'calls':>8s} {'self_s':>10s}")
        lines += [f"# {k:40s} {m.get(k + '.calls', 0):8d} {v:10.4f}" for k, v in rows]
        lines += [f"# {k} = {v:.6g}" for k, v in sorted(m.items())
                  if k.startswith(("layer.", "trace.", "numpy.", "fcs.limit_sweep.busy"))
                  or k.endswith((".evals", ".points_in", ".atoms_out", ".dropped_mass"))]
        if result["scale"]:
            lines.append("# scaling: one sweep cell at t = 5, self_s per layer")
            lines.append("# " + " ".join(f"{c:>10s}" for c in ("n", "d", "run_s")) + "  "
                         + " ".join(f"{c.split('.', 1)[1][:14]:>14s}" for c in SCALE_LAYERS))
            for row in result["scale"]:
                selfs = [row["layers"].get(c, {}).get("self_s", 0.0) for c in SCALE_LAYERS]
                lines.append("# " + f"{row['n']:>10d} {row['d']:>10d} {row['run_s']:>10.4f}  "
                             + " ".join(f"{s:>14.4f}" for s in selfs))
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    missing = [p for p in (spec_path, ROOT / "src" / "fcslab" / "cli.py", ROOT / BASE_CONFIG)
               if not p.is_file()]
    if missing:
        print(f"error: not a checkout of the repository; missing {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        for line in report_lines(result, units):
            print(line)
        correct &= result["failed"] == 0 and result["attempted"] > 0
        attempted += result["attempted"]
        failed += result["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        for m in wanted:
            metrics[prefix + m["name"]] = {"value": result["metrics"].get(m["name"], 0),
                                           "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
