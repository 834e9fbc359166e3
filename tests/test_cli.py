import argparse
import dataclasses
import json
import re
import shlex

import numpy as np
import pytest

from fcslab import checks, cli
from fcslab.cli import build_parser, main
from fcslab.fcs import FcsAtTime, fcs_at
from fcslab.linalg import NotPositiveError, positive_sqrt
from fcslab.scenarios import RunConfig, matrix_to_pairs, parse_config, scenario_to_config

from test_scenarios import ROOT, shipped_config


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(shipped_config("qubit_qubit")))
    return str(path)


def test_validate_ok(config_path, capsys):
    assert main(["validate", "--config", config_path]) == 0
    assert "d_S=2" in capsys.readouterr().out


def test_validate_missing_file(tmp_path, capsys):
    assert main(["validate", "--config", str(tmp_path / "nope.json")]) == 2


def test_validate_corrupted_state(tmp_path, capsys):
    cfg = shipped_config("qubit_qubit")
    cfg["system"]["initial_state"] = {
        "matrix": matrix_to_pairs(np.diag([0.7, 0.4]).astype(complex))
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["validate", "--config", str(path)]) == 2
    assert "trace" in capsys.readouterr().err


def test_verify_all_pass(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["verify", "--config", config_path, "--out-dir", str(out)])
    assert code == 0
    report = json.loads((out / "verify_report.json").read_text())
    assert all(rec["pass"] for rec in report)
    names = {rec["check_name"] for rec in report}
    assert "reservoir_fcs_two_route" in names and "cstar_identity" in names


def test_verify_suite_selector(config_path, tmp_path):
    out = tmp_path / "out"
    assert main(["verify", "--config", config_path, "--suite", "modular",
                 "--out-dir", str(out)]) == 0
    report = json.loads((out / "verify_report.json").read_text())
    names = {rec["check_name"] for rec in report}
    assert "modular_identities" in names
    assert "cstar_identity" not in names  # operator suite not run


def test_suite_names_come_from_the_builders(config_path, capsys):
    from fcslab.checks import run_suites
    from fcslab.scenarios import parse_config

    assert main(["verify", "--config", config_path, "--suite", "bogus"]) == 2
    assert "'all', 'operator', 'states', 'modular', 'fcs'" in capsys.readouterr().err
    with pytest.raises(ValueError, match=r"unknown suite 'bogus'; options: \('all', 'operator', 'states', 'modular', 'fcs'\)"):
        run_suites(parse_config(config_path).scenario, "bogus")


def test_fcs_uncoupled_single_rows(tmp_path):
    cfg = shipped_config("qubit_qubit")
    cfg["coupling"]["lambda"] = 0.0
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["fcs", "--config", str(path), "--t", "2.0", "--out-dir", str(out)]) == 0
    lines = (out / "measures.csv").read_text().strip().splitlines()
    assert lines[0] == "location,weight,which"
    assert len(lines) == 3  # one row per measure
    for line in lines[1:]:
        loc, weight, which = line.split(",")
        assert abs(float(loc)) <= 1e-12
        assert abs(float(weight) - 1.0) <= 1e-12


def test_fcs_zero_time_point_masses(config_path, tmp_path):
    out = tmp_path / "out"
    assert main(["fcs", "--config", config_path, "--t", "0.0", "--out-dir", str(out)]) == 0
    lines = (out / "measures.csv").read_text().strip().splitlines()
    assert len(lines) == 3
    summary = json.loads((out / "summary.json").read_text())
    assert abs(summary["mean_system"]) <= 1e-12
    assert abs(summary["mean_reservoir"]) <= 1e-12


def test_fcs_summary_balance(config_path, tmp_path):
    out = tmp_path / "out"
    assert main(["fcs", "--config", config_path, "--t", "1.5", "--out-dir", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["balance_residual"] <= 1e-10
    assert summary["mean_identity_residual"] <= 1e-10
    assert 0.0 <= summary["dropped_mass_system"] <= 1e-10 and 0.0 <= summary["dropped_mass_reservoir"] <= 1e-10
    char_lines = (out / "char.csv").read_text().strip().splitlines()
    assert char_lines[0] == "gamma,re,im,source"
    assert any(line.endswith("reservoir") for line in char_lines[1:])


def test_fcs_forms_the_free_basis_unitary_once(tmp_path, monkeypatch):
    from pathlib import Path

    from fcslab import fcs as fcsmod

    calls = []
    sector_unitary = fcsmod._sector_unitary

    def counting(sector, t, *rows):
        calls.append((len(sector.rows), t))
        return sector_unitary(sector, t, *rows)

    monkeypatch.setattr(fcsmod, "_sector_unitary", counting)
    config = Path(__file__).resolve().parent.parent / "configs" / "qubit_chain3.json"
    assert main(["fcs", "--config", str(config), "--t", "5.0", "--out-dir", str(tmp_path)]) == 0
    # one U~(t), one block per parity sector, feeds the system and the reservoir measure
    assert calls == [(8, 5.0), (8, 5.0)]


def test_fcs_forms_u_t_twice(tmp_path, monkeypatch):
    from pathlib import Path

    from fcslab.dynamics import Scenario

    calls = []
    unitary = Scenario.unitary_coupled
    monkeypatch.setattr(Scenario, "unitary_coupled", lambda self, t: calls.append(t) or unitary(self, t))
    config = Path(__file__).resolve().parent.parent / "configs" / "qubit_chain3.json"
    assert main(["fcs", "--config", str(config), "--t", "5.0", "--out-dir", str(tmp_path)]) == 0
    assert calls == [5.0, 5.0]  # delta_q_direct and balance_check, one each


def test_oracle_runs_within_the_dense_budget(tmp_path, monkeypatch):
    # At n = 4 (d = 32), with the budget at the dense estimate, the config
    # builds and the two-time oracle, a few d x d arrays, runs with it.
    from fcslab import scenarios

    monkeypatch.setattr(scenarios, "MEMORY_BUDGET_BYTES", scenarios.DENSE_MATRICES * 16 * 32**2)
    cfg = shipped_config("qubit_chain3")
    cfg["reservoir"]["n"] = 4
    path = tmp_path / "chain4.json"
    path.write_text(json.dumps(cfg))
    assert main(["validate", "--config", str(path)]) == 0
    assert main(["verify", "--config", str(path), "--suite", "fcs"]) == 0


@pytest.mark.parametrize("disorder", [None, 0.27224210453])
def test_fcs_measures_are_the_library_atoms(tmp_path, disorder):
    # At disorder 0.27224210453 (seed 1) two distinct reservoir atoms lie
    # 4.0e-9 apart: merged at 1e-9 the reservoir would have 27 atoms, at the
    # library's MERGE_TOL (1e-8) it has 21.
    cfg = shipped_config("qubit_chain3")
    if disorder is not None:
        cfg["reservoir"].update(disorder=disorder, seed=1)
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(cfg))
    assert main(["fcs", "--config", str(path), "--t", "5.0", "--out-dir", str(tmp_path)]) == 0
    run = parse_config(path)
    fa = fcs_at(run.scenario, 5.0)
    expected = [
        f"{x!r},{w!r},{which}"
        for which, mu in (("system", fa.system_measure), ("reservoir", fa.reservoir_measure))
        for x, w in zip(mu.locations.tolist(), mu.weights.tolist())
    ]
    assert (tmp_path / "measures.csv").read_text().splitlines()[1:] == expected


def test_sweep_single_point_matches_fcs(config_path, tmp_path):
    out_f = tmp_path / "f"
    out_s = tmp_path / "s"
    assert main(["fcs", "--config", config_path, "--t", "1.0", "--out-dir", str(out_f)]) == 0
    assert main([
        "sweep", "--config", config_path, "--t-grid", "1.0", "--lambda-grid", "0.2",
        "--out-dir", str(out_s),
    ]) == 0
    summary = json.loads((out_f / "summary.json").read_text())
    row = (out_s / "sweep.csv").read_text().strip().splitlines()[1].split(",")
    assert row[0] == "0.2" and row[1] == "1.0"
    assert float(row[3]) == pytest.approx(summary["mean_reservoir"], abs=1e-12)
    assert float(row[4]) == pytest.approx(summary["mean_system"], abs=1e-12)


def test_sweep_worker_invariance(config_path, tmp_path):
    outs = []
    for workers in ("1", "3"):
        out = tmp_path / f"w{workers}"
        assert main([
            "sweep", "--config", config_path, "--t-grid", "0:2:3",
            "--lambda-grid", "0.0,0.2", "--workers", workers, "--out-dir", str(out),
        ]) == 0
        outs.append((out / "sweep.csv").read_bytes())
    assert outs[0] == outs[1]


def test_readme_commands_parse():
    # an example that drifts from the CLI fails here, not in a user's shell:
    # each `fcslab ...` line of the README's sh blocks, continuations joined
    blocks = re.findall(r"```sh\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("fcslab ")]
    assert {argv[0] for argv in commands} == {"validate", "verify", "fcs", "sweep"}
    for argv in commands:
        args = build_parser().parse_args(argv)
        assert (ROOT / args.config).is_file(), argv


def test_sweep_uncoupled_verdict(config_path, tmp_path):
    out = tmp_path / "out"
    assert main([
        "sweep", "--config", config_path, "--t-grid", "0:4:5",
        "--lambda-grid", "0.0", "--out-dir", str(out),
    ]) == 0
    verdicts = json.loads((out / "verdict.json").read_text())
    assert len(verdicts) == 1
    # uncoupled runs never move off the baseline
    assert verdicts[0]["pass"] is False
    assert verdicts[0]["plateau_distance"] == pytest.approx(verdicts[0]["baseline_t0"])


def test_usage_error_exit_code():
    assert main(["fcs", "--config"]) == 2


def test_numerical_failure_exit_code(tmp_path, capsys):
    cfg = shipped_config("qubit_qubit")
    cfg.setdefault("tolerances", {})["quad_tol"] = 1e-16
    path = tmp_path / "tight.json"
    path.write_text(json.dumps(cfg))
    assert main(["verify", "--config", str(path), "--suite", "fcs"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical error: ") and "quadrature" in err
    assert "Traceback" not in err


def test_rank_deficient_reference_is_a_numerical_failure(tmp_path, capsys):
    # at beta = 40 the chain's smallest thermal weight is 2.5e-73, below the
    # rank tolerance: the config is valid, the modular suite cannot run
    cfg = shipped_config("qubit_chain3")
    cfg["beta"] = 40.0
    path = tmp_path / "cold.json"
    path.write_text(json.dumps(cfg))
    assert main(["validate", "--config", str(path)]) == 0
    assert main(["verify", "--config", str(path), "--suite", "modular"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical error: ") and "not full rank" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_state_below_the_square_root_floor_is_a_config_error(tmp_path, capsys, scenario_factory):
    # -8e-13 lies above -1e-12 but below -1e-12 * max|w| = -5e-13, the floor
    # under which positive_sqrt refuses the state: validation refuses it too
    rho = np.diag([0.5, 0.5 + 8e-13, -8e-13]).astype(complex)
    with pytest.raises(NotPositiveError):
        positive_sqrt(rho)
    cfg = scenario_to_config(RunConfig(scenario=scenario_factory(3, d_sys=3, d_res=2)))
    cfg["system"]["initial_state"] = {"matrix": matrix_to_pairs(rho)}
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(cfg))
    assert main(["validate", "--config", str(path)]) == 2
    assert main(["verify", "--config", str(path), "--suite", "fcs"]) == 2
    err = capsys.readouterr().err
    assert err.count("negative eigenvalue -8.000e-13") == 2 and "numerical error" not in err


def test_dyson_check_uses_the_configured_quad_tol(tmp_path, capsys):
    # at lambda = 16 the cocycle's a-priori error is about 1.4e-8: within a
    # configured quad_tol of 1e-6, above the 1e-8 default
    cfg = shipped_config("qubit_qubit")
    cfg["coupling"]["lambda"] = 16.0
    cfg["tolerances"] = {"quad_tol": 1e-6}
    path = tmp_path / "strong.json"
    path.write_text(json.dumps(cfg))
    assert main(["verify", "--config", str(path), "--suite", "fcs"]) == 0
    assert "all 15 checks passed" in capsys.readouterr().out


@pytest.mark.parametrize("path, value", [
    *((("reservoir", "seed"), seed) for seed in ("abc", 1.5, {"a": 1}, True, [1, 2], -1)),
    (("reservoir", "seed"), None),  # none given: disorder alone would draw new fields every run
    (("reservoir", "n"), True),
    (("beta",), True),
    (("system", "dim"), True),
    (("coupling", "lambda"), False),
])
def test_config_integers_and_the_disorder_seed(tmp_path, capsys, path, value):
    cfg = shipped_config("qubit_chain3")
    cfg["reservoir"]["disorder"] = 0.3
    cfg["reservoir"]["seed"] = 1
    *parents, key = path
    node = cfg
    for name in parents:
        node = node[name]
    if value is None:
        del node[key]
    else:
        node[key] = value
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(cfg))
    assert main(["validate", "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {'.'.join(path)}: ")


def test_nan_cluster_tol_is_a_config_error(tmp_path, capsys):
    # cluster_tol is no setting (system levels group by the library rule):
    # a config that sets it, NaN or not, is refused by name before any output
    cfg = shipped_config("qubit_chain3")
    cfg["tolerances"] = {"cluster_tol": float("nan")}
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(cfg))
    assert main(["fcs", "--config", str(path), "--t", "5.0", "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: tolerances.cluster_tol: ")
    assert not (tmp_path / "measures.csv").exists()


def test_lapack_failure_exit_code(config_path, monkeypatch, capsys):
    def failing_eigh(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    assert main(["verify", "--config", config_path, "--suite", "fcs"]) == 3
    err = capsys.readouterr().err
    assert err == "numerical error: Eigenvalues did not converge\n"


@pytest.mark.parametrize("defect", ["non_hermitian", "wrong_size"])
def test_bad_coupling_factor_exits_as_config_error(defect, tmp_path, monkeypatch, capsys):
    # the edge_hopping preset passes its factors unchecked; Scenario validates each
    from fcslab import scenarios

    if defect == "non_hermitian":
        monkeypatch.setattr(scenarios, "hopping_operator", lambda dim: np.triu(np.ones((dim, dim)), 1))
        expected = "coupling term 0 system factor is not Hermitian"
    else:
        build = scenarios.build_chain_reservoir

        def clipped_edge(*args, **kwargs):
            h, edge = build(*args, **kwargs)
            return h, edge[:-1, :-1]

        monkeypatch.setattr(scenarios, "build_chain_reservoir", clipped_edge)
        expected = "coupling term 0 reservoir factor has dimension 7, not d_R = 8"
    path = tmp_path / "chain3.json"
    path.write_text(json.dumps(shipped_config("qubit_chain3")))
    assert main(["validate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and expected in err


def poison_free_basis_coupling(monkeypatch):
    """Put a NaN into the first sector block of the coupling in the free
    eigenbasis, which every sweep cell diagonalizes."""
    from fcslab.dynamics import Scenario

    build = Scenario.__dict__["_free_basis_coupling"].func

    def poisoned(self):
        (rows, e, v), *rest = build(self)
        v = v.copy()
        v[0, 0] = np.nan
        return [(rows, e, v), *rest]

    monkeypatch.setattr(Scenario, "_free_basis_coupling", property(poisoned))


def test_non_finite_coupled_hamiltonian_exit_code(config_path, tmp_path, monkeypatch, capsys):
    # eigh alone returns NaNs without raising for some such inputs; the
    # diagonalization of each sector refuses them as a numerical failure
    poison_free_basis_coupling(monkeypatch)
    assert main([
        "sweep", "--config", config_path, "--t-grid", "0,1", "--lambda-grid", "0.2",
        "--out-dir", str(tmp_path / "out"),
    ]) == 3
    assert capsys.readouterr().err == "numerical error: matrix to diagonalize has a non-finite entry\n"


def test_sweep_worker_invariance_where_blas_threads(tmp_path):
    # d = 256: large enough that OpenBLAS, were the sweep not pinned to one
    # BLAS thread, would run its products and eigh on several threads; the
    # d <= 16 invariance tests never reach that size
    cfg = shipped_config("qubit_chain3")
    cfg["reservoir"].update(n=7, disorder=0.3, seed=5)
    path = tmp_path / "chain7.json"
    path.write_text(json.dumps(cfg))
    outs = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}"
        assert main([
            "sweep", "--config", str(path), "--t-grid", "0,10",
            "--lambda-grid", "0.1,0.2,0.3", "--workers", workers, "--out-dir", str(out),
        ]) == 0
        outs.append(((out / "sweep.csv").read_bytes(), (out / "verdict.json").read_bytes()))
    assert outs[0] == outs[1]


@pytest.mark.parametrize("argv, flag", [
    (["sweep", "--t-grid", "nan", "--lambda-grid", "0.2"], "--t-grid"),
    (["sweep", "--t-grid", "0,inf", "--lambda-grid", "0.2"], "--t-grid"),
    (["sweep", "--t-grid", "0:nan:3", "--lambda-grid", "0.2"], "--t-grid"),
    (["sweep", "--t-grid", "0,1", "--lambda-grid", "0.2,nan"], "--lambda-grid"),
    (["sweep", "--t-grid", "0,1", "--lambda-grid", "0.2,x"], "--lambda-grid"),
    (["fcs", "--t", "nan"], "--t"),
    (["fcs", "--t=-inf"], "--t"),
    (["fcs", "--t", "one"], "--t"),
    (["sweep", "--t-grid", "1:2:0", "--lambda-grid", "0.2"], "--t-grid"),
    (["sweep", "--t-grid", "0,1", "--lambda-grid", "0.2:0.3:0"], "--lambda-grid"),
    (["sweep", "--t-grid", "1:2", "--lambda-grid", "0.2"], "--t-grid"),
    (["sweep", "--t-grid", "0,1", "--lambda-grid", "0:1:x"], "--lambda-grid"),
    (["sweep", "--t-grid", "0,1", "--lambda-grid", "0.2", "--workers", "0"], "--workers"),
    (["sweep", "--t-grid", "0,1", "--lambda-grid", "0.2", "--workers", "two"], "--workers"),
    (["verify", "--seed", "-1"], "--seed"),
    (["verify", "--seed", "1.5"], "--seed"),
])
def test_non_finite_grid_or_time_is_a_usage_error(argv, flag, tmp_path, capsys):
    # these once exited 0 with NaN distances, all-zero means or empty measures,
    # or exited 2 with an error from numpy or the library that named no flag
    cfg = tmp_path / "chain3.json"
    cfg.write_text(json.dumps(shipped_config("qubit_chain3")))
    out = tmp_path / "out"
    assert main([argv[0], "--config", str(cfg), *argv[1:], "--out-dir", str(out)]) == 2
    assert f"argument {flag}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["sweep", "--t-grid", "0,1e308", "--lambda-grid", "0.2"],
    ["fcs", "--t", "1e308"],
])
def test_overflowing_time_is_a_numerical_error(argv, tmp_path, capsys):
    # a finite t whose phases t * w overflow: NaN weights reach from_points
    cfg = tmp_path / "chain3.json"
    cfg.write_text(json.dumps(shipped_config("qubit_chain3")))
    with np.errstate(invalid="ignore", over="ignore"):
        rc = main([argv[0], "--config", str(cfg), *argv[1:], "--out-dir", str(tmp_path / "out")])
    assert rc == 3
    assert capsys.readouterr().err == "numerical error: atom with a non-finite location or weight\n"


@pytest.mark.parametrize("beta, verify_code", [(0.01, 0), (0.001, 0), (1e80, 1)])
def test_hot_and_cold_reservoirs_run_the_contour_route(beta, verify_code, tmp_path, capsys):
    # the contour circle once shrank with beta below beta * span ~ 1.1
    # (moment_consistency 6.3e-6 at beta = 0.01, and the sweep exited 3), and
    # its beta**k overflowed with a traceback past beta ~ 1.3e77.  At 1e80
    # only the strip checks fail, on their NaN residuals
    cfg = shipped_config("qubit_chain3")
    cfg["beta"] = beta
    path = tmp_path / "chain3.json"
    path.write_text(json.dumps(cfg))
    with np.errstate(all="ignore"):
        assert main(["sweep", "--config", str(path), *"--t-grid 0:30:7 --lambda-grid 0.2".split(),
                     "--out-dir", str(tmp_path / "out")]) == 0
        assert main(["verify", "--config", str(path), "--suite", "fcs"]) == verify_code
    out = capsys.readouterr().out
    assert "[pass] moment_consistency" in out
    assert verify_code == 0 or re.findall(r"\[FAIL\] (\w+): residual nan", out) == ["half_line_identity", "strip_growth_bound"]


@pytest.mark.parametrize("error", [OverflowError, ZeroDivisionError])
def test_an_arithmetic_error_is_a_numerical_failure(error, config_path, tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise error("planted")

    monkeypatch.setattr(cli.fcsmod, "limit_sweep", fail)
    assert main(["sweep", "--config", config_path, "--t-grid", "0,1", "--lambda-grid", "0.2",
                 "--out-dir", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == "numerical error: planted\n"


def test_sweep_moment_defect_exit_code(config_path, tmp_path, monkeypatch, capsys):
    exact = FcsAtTime.exact_moments
    monkeypatch.setattr(FcsAtTime, "exact_moments", lambda fa: exact(fa) + [0.0, 0.0, 1e-5, 0.0])
    assert main([
        "sweep", "--config", config_path, "--t-grid", "0,1", "--lambda-grid", "0.2",
        "--out-dir", str(tmp_path / "out"),
    ]) == 3
    assert "numerical error: moment routes disagree" in capsys.readouterr().err


def test_sweep_nan_moment_gap_exit_code(config_path, tmp_path, monkeypatch, capsys):
    exact = FcsAtTime.exact_moments
    monkeypatch.setattr(FcsAtTime, "exact_moments", lambda fa: exact(fa) + [0.0, 0.0, np.nan, 0.0])
    assert main([
        "sweep", "--config", config_path, "--t-grid", "0,1", "--lambda-grid", "0.2",
        "--out-dir", str(tmp_path / "out"),
    ]) == 3
    assert "numerical error: moment routes disagree at (lam=0.2, t=0.0): gap nan" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_infinite_residual_is_null_in_a_strict_report(config_path, tmp_path, monkeypatch, capsys):
    # measure_distance is inf when the two routes' atom counts differ
    monkeypatch.setattr(checks, "measure_distance", lambda mu_a, mu_b: float("inf"))
    out = tmp_path / "out"
    assert main(["verify", "--config", config_path, "--suite", "fcs", "--out-dir", str(out)]) == 1
    assert "[FAIL] reservoir_fcs_two_route: residual inf" in capsys.readouterr().out
    report = json.loads((out / "verify_report.json").read_text(), parse_constant=refuse_constant)
    failed = [rec for rec in report if not rec["pass"]]
    assert failed == [{"check_name": "reservoir_fcs_two_route", "pass": False, "residual": None,
                       "tolerance": 1e-10}]


def test_non_finite_summary_value_is_a_numerical_error(config_path, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "balance_check", lambda scn, t: float("nan"))
    out = tmp_path / "out"
    assert main(["fcs", "--config", config_path, "--t", "1.0", "--out-dir", str(out)]) == 3
    assert "numerical error: summary.json: Out of range float values" in capsys.readouterr().err
    assert not out.exists()  # all outputs or none


def test_non_finite_csv_value_is_a_numerical_error(config_path, tmp_path, monkeypatch, capsys):
    # a NaN in one char.csv row: no file is written, the finite measures.csv included
    reservoir_fcs = cli.fcsmod.reservoir_fcs

    def with_nan_sample(fa):
        res = reservoir_fcs(fa)
        samples = list(res.char_samples)
        samples[1] = (samples[1][0], complex(np.nan, 0.0))
        return dataclasses.replace(res, char_samples=samples)

    monkeypatch.setattr(cli.fcsmod, "reservoir_fcs", with_nan_sample)
    out = tmp_path / "out"
    assert main(["fcs", "--config", config_path, "--t", "1.0", "--out-dir", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical error: char.csv: non-finite value nan in row ")
    assert not out.exists()


def test_sweep_worker_invariance_at_n8(tmp_path):
    # d = 512, two parity sectors of A per lambda, products large enough for
    # BLAS threads were the sweep not pinned to one
    cfg = shipped_config("qubit_chain6")
    cfg["reservoir"]["n"] = 8
    path = tmp_path / "chain8.json"
    path.write_text(json.dumps(cfg))
    outs = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}"
        assert main([
            "sweep", "--config", str(path), "--t-grid", "0,10",
            "--lambda-grid", "0.1,0.2", "--workers", workers, "--out-dir", str(out),
        ]) == 0
        outs.append(((out / "sweep.csv").read_bytes(), (out / "verdict.json").read_bytes()))
    assert outs[0] == outs[1]


def test_sweep_restores_the_blas_thread_count_after_a_numerical_error(
    config_path, tmp_path, monkeypatch, openblas_threads
):
    get, set_ = openblas_threads
    set_(2)
    poison_free_basis_coupling(monkeypatch)
    assert main([
        "sweep", "--config", config_path, "--t-grid", "0,1", "--lambda-grid", "0.2",
        "--out-dir", str(tmp_path / "out"),
    ]) == 3
    assert get() == 2


def test_sweep_bytes_do_not_depend_on_the_callers_blas_threads(tmp_path, openblas_threads):
    # eigh's bits depend on the OpenBLAS thread count: at d = 512 the sweep
    # once moved by up to 1.3e-15 between one thread and two
    get, set_ = openblas_threads
    cfg = shipped_config("qubit_chain6")
    cfg["reservoir"]["n"] = 8
    path = tmp_path / "chain8.json"
    path.write_text(json.dumps(cfg))
    outs = []
    for threads in (1, 2):
        set_(threads)
        out = tmp_path / f"b{threads}"
        assert main([
            "sweep", "--config", str(path), "--t-grid", "0,10",
            "--lambda-grid", "0.1,0.2", "--out-dir", str(out),
        ]) == 0
        assert get() == threads
        outs.append(((out / "sweep.csv").read_bytes(), (out / "verdict.json").read_bytes()))
    assert outs[0] == outs[1]


def test_every_long_option_is_in_the_readme():
    # an option the README does not name is one no reader can find; argparse's own --help aside
    readme = (ROOT / "README.md").read_text()
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        opt for p in sub.choices.values() for a in p._actions if not isinstance(a, argparse._HelpAction)
        for opt in a.option_strings if opt.startswith("--")
    }
    assert options >= {"--config", "--t", "--t-grid", "--workers"}
    assert sorted(o for o in options if not re.search(rf"{re.escape(o)}(?![\w-])", readme)) == []
