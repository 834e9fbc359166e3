"""One fresh fcslab process of the benchmark.

    python3 perfbench/worker.py setup --config CFG --t0 T --out RESULT
    python3 perfbench/worker.py run --jobs JOBS [--trace] --out RESULT

``setup`` imports fcslab, parses CFG and reports the time since ``t0``, a
``time.monotonic()`` reading the parent took just before starting this
process (the clock is system-wide on Linux).  ``run`` runs each job's
``fcslab.cli.main(argv)`` in this process and times it; with ``--trace``
every job is traced and its spans are written beside RESULT.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _import_fcslab():
    import fcslab

    if Path(fcslab.__file__).resolve().parent != ROOT / "src" / "fcslab":
        raise SystemExit(f"imported fcslab from {fcslab.__file__}, not from this checkout")


def cmd_setup(args) -> dict:
    _import_fcslab()
    imported = time.monotonic()
    from fcslab.scenarios import parse_config

    parse_config(args.config)
    done = time.monotonic()
    return {"setup_s": done - args.t0, "import_s": imported - args.t0}


def _run_job(argv: list[str]) -> dict:
    from fcslab import cli

    error = None
    start = time.perf_counter()
    try:
        rc = cli.main(argv)
    except Exception as exc:  # noqa: BLE001 - a raising command is a counted failure
        rc, error = None, f"{type(exc).__name__}: {exc}"
    run_s = time.perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"rc": rc, "error": error, "run_s": run_s, "peak_rss_mb": peak_kb / 1024.0}


def cmd_run(args) -> dict:
    jobs = json.loads(Path(args.jobs).read_text())
    _import_fcslab()
    if not args.trace:
        return {"jobs": [_run_job(job["argv"]) for job in jobs]}

    import tracer as tracing

    tr = tracing.Tracer()
    tr.install()
    results = []
    for job in jobs:
        tr.reset()
        res = _run_job(job["argv"])
        spans = tr.spans
        main_thread = threading.main_thread().ident
        covered = sum(e - s for _, parent, _, tid, s, e in spans if parent == 0 and tid == main_thread)
        res.update(
            layers=tracing.summarize(spans),
            counts=dict(tr.counts),
            busy_ratio=tracing.busy_ratio(spans, "fcs.limit_sweep", job["workers"]),
            uncovered_s=res["run_s"] - covered,
            spans=len(spans),
        )
        with open(Path(args.out).with_name(f"spans-{job['label']}.jsonl"), "w") as fh:
            for sid, parent, name, tid, s, e in spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "thread": tid, "start": s, "end": e}) + "\n")
        results.append(res)
    return {"jobs": results}


def main() -> None:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="mode", required=True)
    p_setup = sub.add_parser("setup")
    p_setup.add_argument("--config", required=True)
    p_setup.add_argument("--t0", type=float, required=True)
    p_setup.add_argument("--out", required=True)
    p_run = sub.add_parser("run")
    p_run.add_argument("--jobs", required=True)
    p_run.add_argument("--trace", action="store_true")
    p_run.add_argument("--out", required=True)
    args = parser.parse_args()
    result = cmd_setup(args) if args.mode == "setup" else cmd_run(args)
    Path(args.out).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
