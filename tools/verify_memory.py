#!/usr/bin/env python3
"""Memory of each check of ``verify --suite all``, under tracemalloc.

    python tools/verify_memory.py CONFIG [--seed N] [--top K]

The model is built from CONFIG before tracing starts.  The script then runs
every suite, as ``verify --suite all --seed N`` does, and for each check
prints two figures: the traced peak since the previous check's residual was
recorded, and the memory still held when this check's residual is recorded.
Both are given in MiB and in units of one complex d x d matrix (16 d^2
bytes, d the model's dimension).  Rows are sorted by peak, largest first;
``--top K`` prints only the first K.  The last line gives the peak of the
whole run.

The residuals are recorded in one place, ``checks._result``; the script
replaces that binding for the run, as ``perfbench/tracer.py`` replaces the
library's bindings, so the library has no option for it.  tracemalloc sees
numpy's array buffers and Python objects, not memory that BLAS or the
allocator keeps for itself.
"""

from __future__ import annotations

import argparse
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fcslab import checks  # noqa: E402
from fcslab.scenarios import parse_config  # noqa: E402

MIB = 2.0**20


def check_memory(config, seed: int = 0) -> tuple[list[tuple[str, int, int]], int, int]:
    """([(check, peak bytes, held bytes)] in report order, peak of the run, d)."""
    run = parse_config(config)
    rows = []
    record = checks._result

    def recording(name, *args, **kwargs):
        result = record(name, *args, **kwargs)
        held, peak = tracemalloc.get_traced_memory()
        rows.append((name, peak, held))
        tracemalloc.reset_peak()
        return result

    checks._result = recording
    tracemalloc.start()
    try:
        checks.run_suites(run.scenario, "all", seed=seed, quad_tol=run.quad_tol)
        total_peak = max([peak for _, peak, _ in rows] + [tracemalloc.get_traced_memory()[1]])
    finally:
        tracemalloc.stop()
        checks._result = record
    return rows, total_peak, run.scenario.dim


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config", type=Path)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--top", type=int, default=None, help="print only the K largest peaks")
    args = parser.parse_args(argv)
    rows, total_peak, d = check_memory(args.config, args.seed)
    unit = 16.0 * d * d
    print(f"d = {d}; one complex d x d matrix = {unit / MIB:.3f} MiB")
    print(f"{'check':<36} {'peak MiB':>9} {'peak dxd':>9} {'held MiB':>9} {'held dxd':>9}")
    for name, peak, held in sorted(rows, key=lambda row: -row[1])[: args.top]:
        print(f"{name:<36} {peak / MIB:9.3f} {peak / unit:9.1f} {held / MIB:9.3f} {held / unit:9.1f}")
    print(f"run peak {total_peak / MIB:.3f} MiB = {total_peak / unit:.1f} complex d x d")
    return 0


if __name__ == "__main__":
    sys.exit(main())
