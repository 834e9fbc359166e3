"""The benchmark's workloads: the scenario config each one makes from the
seed, the fcslab command line it runs, and the check of that command's
outputs.

Every workload is one closed-loop client running one command at a time, as
a user runs ``fcslab``.  Configs are the shipped ``configs/qubit_chain6.json``
with the chain size (and, where stated, seeded site-field disorder) changed.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from pathlib import Path

import numpy as np

BASE_CONFIG = Path("configs") / "qubit_chain6.json"


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    n: int  # reservoir chain sites; the joint dimension is d = 2 * 2**n
    disorder: float  # std of the site-field disorder, drawn from the benchmark seed
    args: tuple  # fcslab arguments; "{seed}" is replaced by the benchmark seed

    @property
    def command(self) -> str:
        return self.args[0]

    @property
    def workers(self) -> int:
        return int(self.option("--workers", "1"))

    def option(self, flag: str, default: str | None = None) -> str | None:
        return self.args[self.args.index(flag) + 1] if flag in self.args else default

    def at_size(self, n: int) -> "Workload":
        return dataclasses.replace(self, n=n)

    def config(self, root: Path, seed: int) -> dict:
        cfg = json.loads((root / BASE_CONFIG).read_text())
        cfg["reservoir"]["n"] = self.n
        if self.disorder:
            cfg["reservoir"]["disorder"] = self.disorder
            cfg["reservoir"]["seed"] = seed
        return cfg

    def argv(self, config_path: Path, out_dir: Path, seed: int) -> list[str]:
        rest = [a.format(seed=seed) for a in self.args[1:]]
        return [self.command, "--config", str(config_path), *rest, "--out-dir", str(out_dir)]


WORKLOADS = {
    w.name: w
    for w in (
        # The identity suite at d = 128.  Almost all of the time is in the
        # checks and fcs identity layers: the O(d^5) matrix-unit loop of
        # operator_balance_check, the Dyson RK4, the two-time oracle and the
        # modular suite.  It merges the atoms of one time only, so it is the
        # workload on which the sweep-side layers should not move.  With this
        # n the config is the shipped qubit_chain6.json unchanged.
        Workload("verify_chain6", 6, 0.0, ("verify", "--suite", "all", "--seed", "{seed}")),
        # One lambda, seven times, d = 512 on a clean chain.  All seven cells
        # could share one coupled eigendecomposition; each merges 262144 raw
        # atoms and evaluates 64 contour points.  This exercises atom merging,
        # contour moments and per-lambda reuse, and runs no operator-balance
        # or Dyson code.
        Workload(
            "sweep_t_chain8", 8, 0.0,
            ("sweep", "--t-grid", "0:30:7", "--lambda-grid", "0.2", "--workers", "1"),
        ),
        # Seven lambdas at two times, d = 256, disordered chain, two threads.
        # Every cell has its own lambda, so per-lambda reuse brings nothing,
        # while with_lam rebuilds and re-validates a Scenario per cell.  It is
        # the only workload on the threaded path of limit_sweep, where the
        # threads also run multithreaded BLAS (the thread settings are
        # recorded, never set).
        Workload(
            "scan_lambda_chain7_w2", 7, 0.3,
            ("sweep", "--t-grid", "0,10", "--lambda-grid", "0.05:0.35:7", "--workers", "2"),
        ),
    )
}


def parse_grid(text: str) -> np.ndarray:
    """A grid argument as the fcslab CLI documents it: 'a,b,c' or 'lo:hi:n'."""
    if ":" in text:
        lo, hi, n = text.split(":")
        return np.linspace(float(lo), float(hi), int(n))
    return np.array([float(x) for x in text.split(",")])


class Gate:
    """Correctness check of one workload's outputs.

    An operation is a check record for ``verify``, and a sweep cell or a
    per-lambda verdict for ``sweep``.  A command that raised or exited
    non-zero fails every operation of its run.  The reference values for the
    sweeps are computed once here, outside any timed region.  A sweep without
    a t = 0 baseline (a single scaling cell) has no verdict to check.
    """

    def __init__(self, workload: Workload, config_path: Path):
        self.workload = workload
        self.expected = {}
        if workload.command == "sweep":
            from fcslab.dynamics import delta_q_direct
            from fcslab.scenarios import parse_config

            run = parse_config(config_path)
            # The mean_identity tolerance of checks.suite_fcs.
            self.tol = run.quad_tol + 1e-8
            self.lams = [float(x) for x in parse_grid(workload.option("--lambda-grid"))]
            self.ts = [float(x) for x in parse_grid(workload.option("--t-grid"))]
            self.verdict_lams = self.lams if 0.0 in self.ts else []
            for lam in self.lams:
                cell = run.scenario.with_lam(lam)
                for t in self.ts:
                    self.expected[(lam, t)] = delta_q_direct(cell, t)

    def check(self, out_dir: Path, rc: int | None) -> tuple[int, int, list[str]]:
        """Return (attempted, failed, problems) for one command's outputs."""
        if self.workload.command == "verify":
            return self._check_verify(out_dir, rc)
        return self._check_sweep(out_dir, rc)

    def _check_verify(self, out_dir: Path, rc: int | None) -> tuple[int, int, list[str]]:
        report = out_dir / "verify_report.json"
        if not report.exists():
            return 1, 1, [f"no verify_report.json (exit {rc})"]
        records = json.loads(report.read_text())
        problems = [
            f"check {r['check_name']} failed: residual {r['residual']:.3e} > {r['tolerance']:.1e}"
            for r in records
            if not r["pass"]
        ]
        attempted = max(len(records), 1)
        if rc != 0:
            return attempted, attempted, problems + [f"exit code {rc}"]
        return attempted, len(problems), problems

    def _check_sweep(self, out_dir: Path, rc: int | None) -> tuple[int, int, list[str]]:
        attempted = len(self.expected) + len(self.verdict_lams)
        sweep_csv, verdict_json = out_dir / "sweep.csv", out_dir / "verdict.json"
        if rc != 0 or not sweep_csv.exists() or not verdict_json.exists():
            return attempted, attempted, [f"exit code {rc}, or outputs missing"]
        with open(sweep_csv) as fh:
            rows = list(csv.DictReader(fh))
        problems = []
        if len(rows) != len(self.expected):
            problems.append(f"sweep.csv has {len(rows)} rows, expected {len(self.expected)}")
        seen, good = set(), set()
        for row in rows:
            key = (float(row["lambda"]), float(row["t"]))
            if key not in self.expected or key in seen:
                problems.append(f"unexpected or repeated cell {key}")
                continue
            seen.add(key)
            dq_s, dq_r = self.expected[key]
            err = max(abs(float(row["mean_R"]) - dq_r), abs(float(row["mean_S"]) - dq_s))
            if err <= self.tol:
                good.add(key)
            else:
                problems.append(f"cell {key}: mean off delta_q_direct by {err:.3e} > {self.tol:.1e}")
        verdicts = {float(v["lambda"]): v for v in json.loads(verdict_json.read_text())}
        bad_verdicts = [lam for lam in self.verdict_lams if verdicts.get(lam, {}).get("pass") is not True]
        problems += [f"verdict for lambda={lam} missing or failing" for lam in bad_verdicts]
        failed = len(self.expected) - len(good) + len(bad_verdicts)
        if problems and failed == 0:  # extra rows only
            failed = 1
        return attempted, failed, problems
