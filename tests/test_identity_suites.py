"""The identity suites' fast routes, pinned against the constructions they
replace.  The references below are the earlier code of each route, kept as
it was: scipy's matrix exponential at the Dyson nodes, the oracle's einsum
per projector pair, and the flux integrands by explicit Heisenberg evolution.
The modular weights, inverses and half powers are pinned, uncached, to their
spectral formulas."""

import ast
import importlib
import json
import pkgutil
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import quad_vec

import fcslab
from fcslab import dynamics as dynmod
from fcslab import fcs as fcsmod
from fcslab.checks import CHECKS, _result, measure_distance, run_suites, suite_modular, tolerance, two_time_reservoir_oracle
from fcslab.dynamics import DEFAULT_QUAD_TOL, Scenario, delta_q_flux, dyson_cocycle
from fcslab.fcs import operator_balance_check
from fcslab.linalg import dagger, eig_hermitian, expm, expm_hermitian, tensor
from fcslab.modular import modular_pair, relative_modular
from fcslab.scenarios import chain_scenario, parse_config, random_scenario
from fcslab.states import AtomicMeasure, random_density

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fcslab"


def rel_err(a, b):
    return np.linalg.norm(a - b, 1) / np.linalg.norm(b, 1)


# -- references: the earlier routes ------------------------------------------------


def einsum_loop_oracle(scn, t):
    """Reference: the two-time oracle with one einsum per projector pair."""
    dec = eig_hermitian(scn.h_res)
    i_sys = np.eye(scn.dim_sys)
    u = scn.unitary_coupled(t)
    evolved = [u @ tensor(i_sys, p) @ dagger(u) for p in dec.projectors]
    locs, wts = [], []
    for e1, p1 in zip(dec.eigenvalues, dec.projectors):
        p1f = tensor(i_sys, p1)
        start = p1f @ scn.rho_init @ p1f
        for e2, p2t in zip(dec.eigenvalues, evolved):
            locs.append(e1 - e2)
            wts.append(float(np.einsum("ij,ji->", start, p2t).real))
    return AtomicMeasure.from_points(np.array(locs), np.array(wts))


def evolved_expectation(scn, phi, s):
    """Reference flux integrand: tr(rho U(s) phi U(s)*) by d x d products."""
    return float(np.trace(scn.rho_init @ scn.evolve(phi, s)).real)


def quad_vec_balance(scn, t, quad_tol=DEFAULT_QUAD_TOL):
    """Reference: operator_balance_check integrating U(s) phi_R U(s)* itself."""
    w_res, v_res = scn._eig_res
    e = np.exp(-scn.beta * (w_res - w_res.min()))
    log_static = tensor(np.eye(scn.dim_sys), (v_res * np.log(e / e.sum())) @ dagger(v_res))
    log_flowed = scn.evolve(log_static, t)
    phi_r = scn.phi_res
    flux_int = 0.0
    if t != 0.0:
        flux_int, _ = quad_vec(lambda s: scn.evolve(phi_r, s), 0.0, t, epsabs=quad_tol, epsrel=1e-13)
    return float(np.max(np.abs(log_flowed - log_static - scn.beta * flux_int)))


@pytest.fixture(scope="module")
def chain6():
    return parse_config(ROOT / "configs" / "qubit_chain6.json").scenario


SCENARIOS = {
    "random_2x4": lambda: random_scenario(np.random.default_rng(51), 2, 4),
    "random_3x3": lambda: random_scenario(np.random.default_rng(52), 3, 3),
    "random_2x3": lambda: random_scenario(np.random.default_rng(53), 2, 3),
    "random_3x4": lambda: random_scenario(np.random.default_rng(54), 3, 4),
    "chain4": lambda: chain_scenario(4, disorder=0.3, seed=1),
    "chain4_clean": lambda: chain_scenario(4),  # degenerate reservoir levels
}


# -- linalg.expm -----------------------------------------------------------------


class TestExpm:
    @pytest.mark.parametrize("norm", [1e-3, 1e-2, 0.1, 1.0, 5.0, 30.0, 1e2])
    @pytest.mark.parametrize("d", [1, 2, 5, 16, 40])
    def test_matches_scipy_on_random_complex(self, norm, d):
        g = np.random.default_rng(d).normal(size=(d, d, 2)) @ [1.0, 1j]
        a = g * (norm / np.linalg.norm(g, 1))
        # measured <= 1.2e-14 at ||a||_1 = 100, where five squarings
        # amplify the rounding of both routes; <= 7e-16 up to ||a||_1 = 5
        assert rel_err(expm(a), scipy.linalg.expm(a)) <= 1e-13

    def test_zero_and_diagonal(self):
        assert rel_err(expm(np.zeros((3, 3))), np.eye(3)) <= 1e-15
        diag = np.array([-2.0, 0.5, 7.0])
        assert rel_err(expm(np.diag(diag)), np.diag(np.exp(diag))) <= 1e-14

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e2])
    def test_hermitian_times_i_matches_eigenbasis(self, rng, scale):
        g = rng.normal(size=(24, 24)) + 1j * rng.normal(size=(24, 24))
        h = (g + dagger(g)) * (scale / np.linalg.norm(g + dagger(g), 1))
        assert rel_err(expm(1j * h), expm_hermitian(h, 1j)) <= 1e-13

    def test_every_dyson_node_of_qubit_chain6(self, chain6, monkeypatch):
        nodes = []

        def recording(a):
            nodes.append(a)
            return expm(a)

        monkeypatch.setattr(dynmod, "expm", recording)
        dyson_cocycle(chain6, 1.0, 4)  # the dyson_truncation_bound call of suite_fcs
        assert len(nodes) == 10
        assert max(rel_err(expm(a), scipy.linalg.expm(a)) for a in nodes) <= 1e-13


# -- the two-time oracle -----------------------------------------------------------


class TestOracle:
    @pytest.mark.parametrize("t", [0.0, 1.0, 3.7])
    @pytest.mark.parametrize("case", sorted(SCENARIOS))
    def test_matches_einsum_loop(self, case, t):
        scn = SCENARIOS[case]()
        assert measure_distance(two_time_reservoir_oracle(scn, t), einsum_loop_oracle(scn, t)) <= 1e-14

    def test_reads_neither_free_basis_unitary_nor_sectors(self, monkeypatch):
        def fail(*args):
            pytest.fail("the oracle read the modular route's free-basis data")

        scn = chain_scenario(4)
        monkeypatch.setattr(fcsmod, "_sector_unitary", fail)
        monkeypatch.setattr(Scenario, "_free_basis_sectors", property(fail))
        assert measure_distance(two_time_reservoir_oracle(scn, 1.0), einsum_loop_oracle(scn, 1.0)) <= 1e-14

    def test_first_measurement_dephases_a_correlated_state(self):
        # every shipped rho_init is block diagonal in the reservoir levels, so
        # only a correlated state sees the first projective measurement
        scn = chain_scenario(3)
        scn.__dict__["rho_init"] = random_density(scn.dim, np.random.default_rng(7))
        assert measure_distance(two_time_reservoir_oracle(scn, 1.0), einsum_loop_oracle(scn, 1.0)) <= 1e-14

    def test_peak_memory_is_a_few_d_by_d_arrays(self):
        # a few complex d x d arrays: far below one per reservoir level (64 here)
        scn = chain_scenario(6)
        scn._eig_coupled, scn.rho_init  # the model's own caches, built before the count
        tracemalloc.start()
        try:
            two_time_reservoir_oracle(scn, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 16 * scn.dim**2


# -- modular caches ----------------------------------------------------------------


class TestModularCaches:
    def test_delta_and_half_powers_bitwise_uncached(self, rng):
        rho = random_density(6, rng)
        ms = modular_pair(rho)
        w, v = np.linalg.eigh(rho)
        for _ in range(3):
            x = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
            assert np.array_equal(ms.delta(x), ((v * w) @ dagger(v)) @ x @ ((v / w) @ dagger(v)))
            for alpha in (0.5, -0.5):
                expected = ((v * w.astype(complex) ** alpha) @ dagger(v)) @ x @ (
                    (v * w.astype(complex) ** -alpha) @ dagger(v))
                assert np.array_equal(ms.delta_power(alpha, x), expected)

    def test_relative_apply_bitwise_uncached(self, rng):
        eta, omega = random_density(5, rng), random_density(5, rng)
        rel = relative_modular(eta, omega)
        (w_eta, v_eta), (w_omega, v_omega) = np.linalg.eigh(eta), np.linalg.eigh(omega)
        for _ in range(3):
            x = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
            expected = ((v_eta * w_eta) @ dagger(v_eta)) @ x @ ((v_omega / w_omega) @ dagger(v_omega))
            assert np.array_equal(rel.apply(x), expected)

    def test_suite_modular_diagonalises_nothing_at_size_d(self, monkeypatch):
        # every weight comes from the eigh of H_S, H_R and rho_S; the one eigh
        # of size d is the independent route positive_sqrt(gibbs(H_coupled))
        scn = chain_scenario(3)
        eigh_sizes, inv_sizes = [], []
        eigh, inv = np.linalg.eigh, np.linalg.inv
        monkeypatch.setattr(np.linalg, "eigh", lambda a, *args: eigh_sizes.append(len(a)) or eigh(a, *args))
        monkeypatch.setattr(np.linalg, "inv", lambda a: inv_sizes.append(len(a)) or inv(a))
        suite_modular(scn)
        assert eigh_sizes.count(scn.dim) == 1 and inv_sizes == []


# -- flux quadratures in the coupled eigenbasis --------------------------------------


class TestFluxQuadratures:
    @pytest.mark.parametrize("case", sorted(SCENARIOS))
    def test_integrands_match_evolved_expectations(self, case, monkeypatch):
        scn = SCENARIOS[case]()
        integrands = []
        quad = dynmod.quad

        def recording(f, *args, **kw):
            integrands.append(f)
            return quad(f, *args, **kw)

        monkeypatch.setattr(dynmod, "quad", recording)
        delta_q_flux(scn, 2.0)
        for f, phi in zip(integrands, (scn.phi_sys, scn.phi_res)):
            for s in (0.0, 0.4, 1.3, 2.0, -0.9):
                assert abs(f(s) - evolved_expectation(scn, phi, s)) <= 1e-13

    @pytest.mark.parametrize("case", sorted(SCENARIOS))
    def test_balance_integrand_rotates_back_to_evolved_flux(self, case, monkeypatch):
        scn = SCENARIOS[case]()
        integrands = []

        def recording(f, *args, **kw):
            integrands.append(f)
            return quad_vec(f, *args, **kw)

        monkeypatch.setattr(fcsmod, "quad_vec", recording)
        operator_balance_check(scn, 1.5)
        (f,) = integrands
        v = scn._eig_coupled[1]
        phi_r = scn.phi_res
        for s in (0.0, 0.4, 1.5, -0.9):
            assert np.max(np.abs(v @ f(s) @ dagger(v) - scn.evolve(phi_r, s))) <= 1e-13

    @pytest.mark.parametrize("t", [0.0, 1.0, 2.5])
    @pytest.mark.parametrize("case", sorted(SCENARIOS))
    def test_balance_matches_quad_vec_route(self, case, t):
        scn = SCENARIOS[case]()
        assert abs(operator_balance_check(scn, t) - quad_vec_balance(scn, t)) <= 1e-13

    def test_expect_matches_trace_of_product(self, rng):
        scn = SCENARIOS["random_3x4"]()
        a = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        a = a + dagger(a)
        assert abs(scn.expect(a) - np.trace(scn.rho_init @ a).real) <= 1e-14


# -- one BLAS pool ---------------------------------------------------------------
#
# numpy and scipy each ship their own OpenBLAS.  Alternating one numpy and one
# scipy 128 x 128 complex product costs 10-12 ms per pair on 2 vCPUs, against
# about 0.7 ms for two numpy products: the idle pool's threads spin and starve
# the other.  The library therefore keeps to numpy's BLAS.


def _imports_scipy_linalg(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name == "scipy.linalg" or a.name.startswith("scipy.linalg.") for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module == "scipy.linalg" or node.module.startswith("scipy.linalg."):
                return True
            if node.module == "scipy" and any(a.name == "linalg" for a in node.names):
                return True
    return False


def test_no_module_imports_scipy_linalg():
    offenders = [p.name for p in sorted(SRC.glob("*.py")) if _imports_scipy_linalg(ast.parse(p.read_text()))]
    assert offenders == []


def test_suites_run_with_scipy_expm_disabled(qubit_qubit, monkeypatch):
    original = scipy.linalg.expm

    def refuse(*args, **kw):
        raise AssertionError("scipy.linalg.expm called")

    monkeypatch.setattr(scipy.linalg, "expm", refuse)
    for info in pkgutil.iter_modules(fcslab.__path__):
        mod = importlib.import_module(f"fcslab.{info.name}")
        for name, value in list(vars(mod).items()):
            if value is original:
                monkeypatch.setattr(mod, name, refuse)
    results = run_suites(qubit_qubit, "all")
    assert len(results) == 41 and all(r.passed for r in results)


# -- the table of checks -----------------------------------------------------------


def test_suites_report_the_table_in_order(qubit_qubit):
    records = run_suites(qubit_qubit, "all")
    assert [r.check_name for r in records] == list(CHECKS)
    for r in records:
        assert r.tolerance == tolerance(r.check_name, qubit_qubit, DEFAULT_QUAD_TOL), r.check_name
    assert [name for name, check in CHECKS.items() if check.inner_tol is not None] == [
        "cone_generation", "cone_preserved_by_flow", "strip_growth_bound",
        "system_delta_uncoupled", "reservoir_delta_uncoupled", "system_delta_instant", "reservoir_delta_instant",
    ]


def test_scenario_rows_resolve_to_the_reference_tolerances():
    run = parse_config(ROOT / "configs" / "qubit_chain6.json")
    report = json.loads((ROOT / "tests" / "reference" / "verify_qubit_chain6" / "verify_report.json").read_text())
    recorded = {r["check_name"]: r["tolerance"] for r in report}
    scenario_rows = [name for name, check in CHECKS.items() if callable(check.tol)]
    assert scenario_rows == ["mean_identity", "exchange_balance", "flux_vs_direct", "operator_balance"]
    for name in scenario_rows:
        assert tolerance(name, run.scenario, run.quad_tol) == recorded[name], name
    assert tolerance("moment_consistency") == recorded["moment_consistency"]


def test_a_check_missing_from_the_table_is_an_error():
    with pytest.raises(KeyError, match="no_such_check"):
        _result("no_such_check", 0.0)


# -- the memory of verify ----------------------------------------------------------


def test_all_suites_peak_within_24_complex_matrices():
    # Each quadrature keeps no node values and each modular probe dies with its
    # check: 19.3 complex d x d at d = 128, where holding them took 38.6.
    scn = parse_config(ROOT / "configs" / "qubit_chain6.json").scenario
    tracemalloc.start()
    try:
        run_suites(scn, "all")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * 16 * scn.dim**2
