import dataclasses
import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad_vec

from fcslab.checks import measure_distance, suite_fcs, two_time_reservoir_oracle
from fcslab import dynamics, linalg, states
from fcslab.dynamics import DEFAULT_QUAD_TOL, QuadratureError, Scenario, delta_q_direct, delta_q_flux, exact_cocycle
from fcslab import fcs as fcsmod
from fcslab.fcs import (
    FcsAtTime,
    SweepRow,
    default_gamma_grid,
    derivative_moments,
    fcs_at,
    half_line_identity_check,
    limit_sweep,
    mean_identity_check,
    operator_balance_check,
    reservoir_char,
    reservoir_fcs,
    strip_bounds_check,
    system_char_limit,
    system_fcs,
)
from fcslab.linalg import dagger, eig_hermitian, eigenvalue_clusters, eigh_blocks, positive_sqrt, tensor
from fcslab.modular import initial_vector
from fcslab.scenarios import chain_scenario, config_to_scenario, random_scenario
from fcslab.states import AtomicMeasure, gibbs, random_density

from test_dynamics import SECTOR_SCENARIOS, cancelling_coupling, dense_free_basis_unitary
from test_scenarios import shipped_config


# -- independent oracles (raw numpy, no library reuse) -------------------------


def _expm_i(h, t):
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * t * w)) @ v.conj().T


def system_two_time_oracle(scn, t):
    """Double-sum law over system eigenprojectors, raw numpy route."""
    w, v = np.linalg.eigh(scn.h_sys)
    projs = [np.outer(v[:, k], v[:, k].conj()) for k in range(len(w))]
    u = _expm_i(np.asarray(scn.h_coupled), t)
    rho_r = np.asarray(scn.rho_res)
    locs, wts = [], []
    for ei, pi in zip(w, projs):
        start = np.kron(pi @ np.asarray(scn.rho_sys) @ pi, rho_r)
        for ej, pj in zip(w, projs):
            pj_t = u @ np.kron(pj, np.eye(scn.dim_res)) @ u.conj().T
            locs.append(float(ej - ei))
            wts.append(np.trace(start @ pj_t).real)
    return np.array(locs), np.array(wts)


def reservoir_two_time_oracle(scn, t):
    """Double-sum law over reservoir eigenprojectors, atoms at first - second."""
    w, v = np.linalg.eigh(scn.h_res)
    projs = [np.outer(v[:, k], v[:, k].conj()) for k in range(len(w))]
    u = _expm_i(np.asarray(scn.h_coupled), t)
    eye_s = np.eye(scn.dim_sys)
    rho0 = np.kron(np.asarray(scn.rho_sys), np.asarray(scn.rho_res))
    locs, wts = [], []
    for e1, p1 in zip(w, projs):
        p1f = np.kron(eye_s, p1)
        start = p1f @ rho0 @ p1f
        for e2, p2 in zip(w, projs):
            p2_t = u @ np.kron(eye_s, p2) @ u.conj().T
            locs.append(float(e1 - e2))
            wts.append(np.trace(start @ p2_t).real)
    return np.array(locs), np.array(wts)


def operator_balance_loop(scn, t, quad_tol=1e-8):
    """Reference: both sides of the operator balance applied to every matrix
    unit E_kl as superoperators, largest entrywise residual (O(d^5))."""
    d = scn.dim
    w_res, v_res = np.linalg.eigh(scn.h_res)
    e = np.exp(-scn.beta * (w_res - w_res.min()))
    log_rho_res = (v_res * np.log(e / e.sum())) @ v_res.conj().T
    log_static = np.kron(np.eye(scn.dim_sys), log_rho_res)
    u = _expm_i(np.asarray(scn.h_coupled), t)
    log_flowed = u @ log_static @ u.conj().T
    h_r = np.asarray(scn.h_res_full)
    v = np.asarray(scn.v)
    phi_r = scn.lam * 1j * (h_r @ v - v @ h_r)
    if t == 0.0:
        flux_int = np.zeros((d, d), dtype=complex)
    else:
        def evolved(s):
            us = _expm_i(np.asarray(scn.h_coupled), s)
            return us @ phi_r @ us.conj().T

        flux_int, _ = quad_vec(evolved, 0.0, t, epsabs=quad_tol, epsrel=1e-13)
    worst = 0.0
    basis = np.zeros((d, d), dtype=complex)
    for k in range(d):
        for l in range(d):
            basis[k, l] = 1.0
            lhs = log_flowed @ basis - basis @ log_static
            rhs = log_static @ basis - basis @ log_static + scn.beta * (flux_int @ basis)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
            basis[k, l] = 0.0
    return worst


def raw_reservoir_atoms(scn, t):
    """Reference: all d^2 atoms of the relative modular operator, one per
    pair of product eigenvectors, before grouping by reservoir level.  The
    levels come from the Scenario's eigensolver, linalg.eigh_blocks."""
    w_res, v_res = eigh_blocks(scn.h_res)
    v_full = np.kron(np.eye(scn.dim_sys), v_res)
    u_full = scn.unitary_coupled(t) @ v_full
    energies = np.tile(w_res, scn.dim_sys)  # column k carries energy w_res[k % d_R]
    overlaps = u_full.conj().T @ initial_vector(scn) @ v_full
    return (energies[None, :] - energies[:, None]).ravel(), (np.abs(overlaps) ** 2).ravel()


def matrix_product_system_measure(scn, t):
    """Reference: the system FCS from u (P_j (x) 1) u* for every level j, with
    clustered projectors P_i of H_S, as full d x d matrix products."""
    dec = eig_hermitian(scn.h_sys)
    u = scn.unitary_coupled(t)
    evolved = [u @ np.kron(p, np.eye(scn.dim_res)) @ u.conj().T for p in dec.projectors]
    locs, wts = [], []
    for lam_i, p_i in zip(dec.eigenvalues, dec.projectors):
        start = np.kron(p_i @ scn.rho_sys @ p_i, scn.rho_res)
        for lam_j, pj_t in zip(dec.eigenvalues, evolved):
            locs.append(lam_j - lam_i)
            wts.append(float(np.einsum("ij,ji->", start, pj_t).real))
    return AtomicMeasure.from_points(np.array(locs), np.array(wts))


def matrix_product_reservoir_atoms(scn, t):
    """Reference: the d_R^2 grouped reservoir atoms, the raw overlap-matrix
    atoms summed over the system indices (flat over (a, b))."""
    x, w = raw_reservoir_atoms(scn, t)
    shape = (scn.dim_sys, scn.dim_res, scn.dim_sys, scn.dim_res)
    return x.reshape(shape)[0, :, 0, :].ravel(), w.reshape(shape).sum(axis=(0, 2)).ravel()


def per_atom_char(locations, weights, beta, alpha):
    """Reference: F(alpha) = sum_k weights_k exp(alpha beta locations_k)."""
    return np.exp(np.multiply.outer(alpha * beta, locations)) @ weights


def match_atoms(measure, oracle, tol=1e-10, window=1e-8):
    locs, wts = oracle
    matched = np.zeros(len(locs), dtype=bool)
    for x, wgt in zip(measure.locations, measure.weights):
        sel = np.abs(locs - x) <= window
        assert sel.any(), f"no oracle atom near {x}"
        matched |= sel
        w_or = wts[sel].sum()
        x_or = np.dot(locs[sel], wts[sel]) / w_or if w_or > 0 else x
        assert abs(w_or - wgt) <= tol
        assert abs(x_or - x) <= tol
    assert wts[~matched].sum() <= 1e-12


class TestSystemFcs:
    def test_zero_time_point_mass(self, qubit_qubit):
        mu = system_fcs(fcs_at(qubit_qubit, 0.0)).measure
        assert len(mu) == 1 and abs(mu.locations[0]) <= 1e-12
        assert abs(mu.weights[0] - 1.0) <= 1e-12

    def test_uncoupled_point_mass(self, qubit_qubit):
        mu = system_fcs(fcs_at(qubit_qubit.with_lam(0.0), 3.0)).measure
        assert len(mu) == 1 and abs(mu.locations[0]) <= 1e-12
        assert abs(mu.weights[0] - 1.0) <= 1e-12

    def test_qubit_qubit_double_sum(self, qubit_qubit):
        res = system_fcs(fcs_at(qubit_qubit, 1.0))
        assert np.allclose(res.measure.locations, [-1.0, 0.0, 1.0], atol=1e-12)
        match_atoms(res.measure, system_two_time_oracle(qubit_qubit, 1.0))

    def test_probability_measure(self, scenario_factory):
        scn = scenario_factory(41, d_sys=3, d_res=4)
        res = system_fcs(fcs_at(scn, 2.0))
        assert abs(res.measure.mass - 1.0) <= 1e-10
        assert all(w >= 0 for w in res.measure.weights)

    def test_mean_matches_moments(self, scenario_factory):
        res = system_fcs(fcs_at(scenario_factory(42), 1.5))
        assert abs(res.mean - res.moments[0]) <= 1e-12


class TestSystemCharLimit:
    def test_at_zero(self, qubit_qubit):
        assert system_char_limit(qubit_qubit, 0.0) == pytest.approx(1.0)

    def test_thermal_start_gives_square_modulus(self, qubit_qubit):
        scn = qubit_qubit
        thermal = type(scn)(scn.h_sys, scn.h_res, scn.v, scn.lam, scn.beta,
                            scn.rho_sys_thermal)
        val = system_char_limit(thermal, 1.3)
        w = np.linalg.eigvalsh(scn.h_sys)
        z = np.exp(-scn.beta * w).sum()
        expected = abs(np.sum(np.exp(-scn.beta * w + 1.3j * w)) / z) ** 2
        assert val == pytest.approx(expected)
        assert val.imag == pytest.approx(0.0, abs=1e-12)

    def test_closed_form_at_pi(self):
        # H_S = diag(0,1), beta = 1, rho_sys = ground: value is
        # (1 - e^-1)/(1 + e^-1) * 1 at gamma = pi
        scn = random_scenario(np.random.default_rng(0), 2, 2)
        scn = type(scn)(np.diag([0.0, 1.0]).astype(complex), scn.h_res, scn.v,
                        scn.lam, 1.0, np.diag([1.0, 0.0]).astype(complex))
        expected = (1.0 - np.exp(-1.0)) / (1.0 + np.exp(-1.0))
        val = system_char_limit(scn, np.pi)
        assert abs(val - expected) <= 1e-12
        assert abs(val - 0.4621171572600098) <= 1e-12


class TestDefaultGammaGrid:
    @pytest.mark.parametrize("h_diag", [None, (0.0, 1e-12, 1.0), (0.5, 0.5, 0.5)])
    @pytest.mark.parametrize("seed", range(3))
    def test_cached_eigh_gives_the_clustered_grid(self, seed, h_diag, monkeypatch):
        # bitwise the grid of eig_hermitian's clustered levels, with no new eigh;
        # a split cluster and a single level (dE = 1) included
        scn = random_scenario(np.random.default_rng(seed), 3, 2)
        if h_diag is not None:
            scn = Scenario(np.diag(h_diag), scn.h_res, scn.v, scn.lam, scn.beta, scn.rho_sys)
        gaps = np.diff(eig_hermitian(scn.h_sys).eigenvalues)
        de = float(gaps.min()) if len(gaps) else 1.0
        scn._eig_sys  # built before eigh is replaced
        monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: pytest.fail("new eigh"))
        assert np.array_equal(default_gamma_grid(scn), np.linspace(-np.pi / de, np.pi / de, 41))


class TestReservoirFcs:
    def test_zero_time_point_mass(self, qubit_qubit):
        mu = reservoir_fcs(fcs_at(qubit_qubit, 0.0)).measure
        assert len(mu) == 1 and abs(mu.locations[0]) <= 1e-12
        assert abs(mu.weights[0] - 1.0) <= 1e-12

    def test_uncoupled_point_mass(self, qubit_qubit):
        mu = reservoir_fcs(fcs_at(qubit_qubit.with_lam(0.0), 4.0)).measure
        assert len(mu) == 1 and abs(mu.locations[0]) <= 1e-12
        assert abs(mu.weights[0] - 1.0) <= 1e-12

    def test_qubit_qubit_matches_protocol(self, qubit_qubit):
        res = reservoir_fcs(fcs_at(qubit_qubit, 1.0))
        match_atoms(res.measure, reservoir_two_time_oracle(qubit_qubit, 1.0))

    def test_random_scenarios_match_protocol(self):
        for k in range(8):
            scn = random_scenario(np.random.default_rng(500 + k), 2, 4)
            t = 0.7 + 0.4 * k
            match_atoms(reservoir_fcs(fcs_at(scn, t)).measure, reservoir_two_time_oracle(scn, t))

    def test_mean_equals_energy_drop(self, scenario_factory):
        scn = scenario_factory(51, d_sys=2, d_res=4)
        res = reservoir_fcs(fcs_at(scn, 2.0))
        _, dq_r = delta_q_direct(scn, 2.0)
        assert abs(res.mean - dq_r) <= 1e-12

    @pytest.mark.parametrize(
        "seed, d_sys, d_res, t",
        [(11, 2, 4, 1.3), (12, 2, 3, 4.0), (13, 3, 3, 0.8), (14, 3, 4, 2.5), (None, 2, 16, 5.0)],
    )
    def test_grouped_atoms_match_raw_atoms(self, seed, d_sys, d_res, t):
        if seed is None:
            scn = chain_scenario(4, disorder=0.3, seed=1)
        else:
            scn = random_scenario(np.random.default_rng(seed), d_sys, d_res)
        assert (scn.dim_sys, scn.dim_res) == (d_sys, d_res)
        x, w = raw_reservoir_atoms(scn, t)
        raw = AtomicMeasure.from_points(x, w)
        assert measure_distance(reservoir_fcs(fcs_at(scn, t)).measure, raw) <= 1e-14
        for alpha in (0.0, 0.3, 0.5 + 1j, 1.0, 0.25j, -0.7j, 0.8 - 2j):
            expected = np.sum(w * np.exp(alpha * scn.beta * x))
            assert abs(reservoir_char(fcs_at(scn, t), alpha) - expected) <= 1e-13


class TestReservoirChar:
    def test_at_zero(self, qubit_qubit):
        assert reservoir_char(fcs_at(qubit_qubit, 1.0), 0.0) == pytest.approx(1.0)

    def test_uncoupled_constant_one(self, qubit_qubit):
        scn = qubit_qubit.with_lam(0.0)
        for alpha in (0.3, 0.5 + 1j, 1.0, 0.25j):
            assert reservoir_char(fcs_at(scn, 2.0), alpha) == pytest.approx(1.0, abs=1e-10)

    def test_alpha_one_real_bounded_and_dual_route(self, scenario_factory):
        scn = scenario_factory(61, d_sys=2, d_res=3)
        t = 1.2
        val = reservoir_char(fcs_at(scn, t), 1.0)
        assert abs(val.imag) <= 1e-10
        assert -1e-10 <= val.real <= scn.dim_sys + 1e-10
        # independent route: squared norm of the dressed, cocycle-rotated weight
        from fcslab.modular import reservoir_weight_vector
        from fcslab.linalg import positive_sqrt, tensor, hs_norm

        dressed = tensor(positive_sqrt(scn.rho_sys), np.eye(scn.dim_res)) @ (
            exact_cocycle(scn, t) @ reservoir_weight_vector(scn)
        )
        assert abs(val.real - hs_norm(dressed) ** 2) <= 1e-10

    def test_rejects_outside_strip(self, qubit_qubit):
        with pytest.raises(ValueError, match="strip"):
            reservoir_char(fcs_at(qubit_qubit, 1.0), -0.1)
        with pytest.raises(ValueError, match="strip"):
            reservoir_char(fcs_at(qubit_qubit, 1.0), 1.2 + 0.5j)

    def test_conjugate_symmetry(self, scenario_factory):
        scn = scenario_factory(62)
        for g in (0.3, 1.1, 2.9):
            plus = reservoir_char(fcs_at(scn, 1.0), 1j * g / scn.beta)
            minus = reservoir_char(fcs_at(scn, 1.0), -1j * g / scn.beta)
            assert abs(np.conjugate(plus) - minus) <= 1e-12

    def test_matches_measure_char(self, scenario_factory):
        scn = scenario_factory(63)
        res = reservoir_fcs(fcs_at(scn, 1.5))
        for g in (0.0, 0.7, -1.3):
            direct = reservoir_char(fcs_at(scn, 1.5), 1j * g / scn.beta)
            assert abs(direct - res.measure.char(g)) <= 1e-10

    def test_array_matches_scalar_calls(self, scenario_factory):
        scn = scenario_factory(64, d_sys=3, d_res=4)
        alphas = np.array([[0.0, 0.25 - 1.0j], [0.5 + 2.0j, 1.0], [0.7j, 0.9 - 0.3j]])
        vals = reservoir_char(fcs_at(scn, 1.3), alphas)
        assert vals.shape == alphas.shape
        scalar = np.array([[reservoir_char(fcs_at(scn, 1.3), a) for a in row] for row in alphas])
        assert np.max(np.abs(vals - scalar)) <= 1e-14

    def test_array_with_one_point_off_strip_raises(self, qubit_qubit):
        with pytest.raises(ValueError, match="strip"):
            reservoir_char(fcs_at(qubit_qubit, 1.0), np.array([0.0, 0.5j, 1.0 + 1e-9, 0.3]))


def mean_gap(scn, t):
    """The mean identity residual against the flux-integrated drop at the default quad_tol."""
    return mean_identity_check(fcs_at(scn, t), delta_q_flux(scn, t)[1])


class TestIdentities:
    def test_mean_identity_trivial_cases(self, qubit_qubit):
        assert mean_gap(qubit_qubit.with_lam(0.0), 2.0) <= 1e-12
        assert mean_gap(qubit_qubit, 0.0) <= 1e-12

    def test_mean_identity_random(self, scenario_factory):
        scn = scenario_factory(71, d_sys=2, d_res=4, lam=0.3)
        assert mean_gap(scn, 2.0) <= 1e-7

    def test_operator_balance_zero_time(self, qubit_qubit):
        assert operator_balance_check(qubit_qubit, 0.0) <= 1e-12

    def test_operator_balance_uncoupled(self, qubit_qubit):
        assert operator_balance_check(qubit_qubit.with_lam(0.0), 1.5) <= 1e-10

    def test_operator_balance_small_scenario(self, scenario_factory):
        scn = scenario_factory(72, d_sys=2, d_res=2)
        assert operator_balance_check(scn, 1.0) <= 1e-6

    @pytest.mark.parametrize(
        "seed, d_sys, d_res, lam, t",
        [(72, 2, 2, None, 1.0), (5, 2, 4, None, 2.5), (6, 3, 2, 0.4, 0.7),
         (7, 2, 3, None, 0.0), (8, 2, 4, 0.0, 1.5)],
    )
    def test_operator_balance_matches_matrix_unit_loop(self, seed, d_sys, d_res, lam, t):
        scn = random_scenario(np.random.default_rng(seed), d_sys, d_res)
        if lam is not None:
            scn = scn.with_lam(lam)
        loop = operator_balance_loop(scn, t)
        assert abs(operator_balance_check(scn, t) - loop) <= 1e-13

    def test_operator_balance_reports_quadrature_failure(self):
        scn = random_scenario(np.random.default_rng(72), 2, 4)
        with pytest.raises(QuadratureError) as info:
            operator_balance_check(scn, 50.0, quad_tol=1e-16)
        assert info.value.achieved > 1e-16

    def test_operator_balance_finite_at_large_beta(self):
        # the upper reservoir populations e^{-beta (w - w_min)} underflow to
        # 0 at beta = 300; log rho_res must not be taken of them
        scn = chain_scenario(3, beta=300.0)
        tol = DEFAULT_QUAD_TOL * scn.beta * scn.energy_scale + 1e-8  # the fcs suite's tolerance at t = 1
        assert operator_balance_check(scn, 1.0) <= tol

    def test_half_line_reduction_at_origin(self, qubit_qubit):
        from fcslab.linalg import hs_inner, tensor, positive_sqrt
        from fcslab.modular import initial_vector, reservoir_weight_vector

        fa = fcs_at(qubit_qubit, 0.0)
        overlap = hs_inner(
            tensor(positive_sqrt(qubit_qubit.rho_sys), np.eye(2))
            @ initial_vector(qubit_qubit),
            reservoir_weight_vector(qubit_qubit),
        )
        assert abs(fa.char(0.5) - overlap) <= 1e-12
        assert half_line_identity_check(fa, [0.0]) <= 1e-12

    def test_half_line_uncoupled(self, qubit_qubit):
        assert half_line_identity_check(fcs_at(qubit_qubit.with_lam(0.0), 2.0), [0.8]) <= 1e-10

    def test_half_line_grid(self, scenario_factory):
        scn = scenario_factory(73, d_sys=2, d_res=4)
        grid = (-2.0, -1.0, 0.0, 1.0, 2.0)
        worst = max(half_line_identity_check(fcs_at(scn, t), grid) for t in grid)
        assert worst <= 1e-8

    @pytest.mark.parametrize("seed, d_sys", [(74, 3), (75, 2), (76, 3), (None, 2)])
    def test_omega_hat_constructions_agree(self, scenario_factory, seed, d_sys):
        # Omega_hat = (rho_S^(1/2) (x) 1) Omega, the check's one route, equals
        # J pi(rho_S^(1/2) (x) 1) J Omega in the standard representation, also
        # for a rho_S that is not diagonal (seed None: the diagonal one of qubit_chain3)
        if seed is None:
            scn = config_to_scenario(shipped_config("qubit_chain3")).scenario
        else:
            scn = scenario_factory(seed, d_sys=d_sys, d_res=3)
        if seed is not None:
            assert np.abs(scn.rho_sys - np.diag(np.diag(scn.rho_sys))).max() > 1e-3
        r_op = tensor(positive_sqrt(scn.rho_sys), np.eye(scn.dim_res))
        omega = initial_vector(scn)
        left_mult = r_op @ omega
        conjugated = (r_op @ omega.conj().T).conj().T
        assert np.linalg.norm(left_mult - conjugated) <= 1e-14


class TestFirstLawOfAverages:
    def test_system_mean_equals_energy_gain_for_commuting_start(self):
        # no first-measurement back-action when the initial system state
        # commutes with the system Hamiltonian
        scn = random_scenario(np.random.default_rng(85), 2, 4, lam=0.3,
                              commuting_init=True)
        t = 2.0
        res = system_fcs(fcs_at(scn, t))
        dq_s, _ = delta_q_direct(scn, t)
        assert abs(res.mean - dq_s) <= 1e-10

    def test_combined_first_law(self):
        scn = random_scenario(np.random.default_rng(86), 3, 4, lam=0.4,
                              commuting_init=True)
        t = 1.6
        mean_r = reservoir_fcs(fcs_at(scn, t)).mean
        mean_s = system_fcs(fcs_at(scn, t)).mean
        coupling = scn.lam * (scn.expect(scn.evolve(scn.v, t)) - scn.expect(scn.v))
        assert abs(mean_r - mean_s - coupling) <= 1e-8

    def test_back_action_shifts_system_mean(self):
        # a coherent (non-commuting) start generically breaks the naive
        # mean identity for the system measure at finite time
        scn = random_scenario(np.random.default_rng(87), 2, 4, lam=0.4)
        assert np.abs(scn.rho_sys @ scn.h_sys - scn.h_sys @ scn.rho_sys).max() > 1e-3
        t = 2.0
        res = system_fcs(fcs_at(scn, t))
        dq_s, _ = delta_q_direct(scn, t)
        assert abs(res.mean - dq_s) > 1e-6


class TestStripBounds:
    def test_bound_holds_on_grid(self, scenario_factory):
        scn = scenario_factory(81, d_sys=2, d_res=8)
        grid = np.array(
            [a + 1j * b for a in np.linspace(0, 1, 5) for b in np.linspace(-2, 2, 5)]
        )
        assert strip_bounds_check(fcs_at(scn, 2.0), grid) <= 0.0

    def test_value_at_zero_saturates(self, qubit_qubit):
        fa = fcs_at(qubit_qubit, 1.0)
        assert strip_bounds_check(fa, np.array([0.0])) <= 0.0
        # |F(0)| = 1 exactly: slack equals the tolerance only
        assert 1.0 + 1e-10 - abs(fa.char(0.0)) <= 1e-9

    def test_uncoupled_at_one(self, qubit_qubit):
        fa = fcs_at(qubit_qubit.with_lam(0.0), 3.0)
        assert abs(fa.char(1.0).real - 1.0) <= 1e-10
        assert strip_bounds_check(fa, np.array([1.0])) <= 0.0

    def test_rejects_off_strip_grid(self, qubit_qubit):
        with pytest.raises(ValueError, match="strip"):
            strip_bounds_check(fcs_at(qubit_qubit, 1.0), np.array([-0.2]))


class TestMoments:
    def test_derivative_route_matches_atoms(self, scenario_factory):
        scn = scenario_factory(91, d_sys=2, d_res=4)
        res = reservoir_fcs(fcs_at(scn, 1.7))
        deriv = derivative_moments(fcs_at(scn, 1.7))
        assert np.max(np.abs(deriv - res.moments)) <= 1e-6

    def test_first_derivative_moment_is_energy_drop(self, scenario_factory):
        scn = scenario_factory(92)
        _, dq_r = delta_q_direct(scn, 1.1)
        assert abs(derivative_moments(fcs_at(scn, 1.1))[0] - dq_r) <= 1e-8


def per_cell_sweep_rows(scn, t_grid, lam_grid, gamma_grid):
    """The per-cell sweep loop: a with_lam and a limit law for every (lam, t),
    the reservoir columns read from W (chi_R on the strip's imaginary axis,
    the exact moments of the unmerged atoms)."""
    rows = []
    for lam in lam_grid:
        for t in t_grid:
            cell = scn.with_lam(float(lam))
            data = fcs_at(cell, float(t))
            moments = data.exact_moments()
            sys = system_fcs(fcs_at(cell, float(t)), gamma_grid=gamma_grid)
            limit_vals = np.array([system_char_limit(cell, g) for g in gamma_grid])
            fcs_vals = reservoir_char(data, 1j * gamma_grid / cell.beta)
            rows.append(SweepRow(
                lam=float(lam),
                t=float(t),
                distance=float(np.max(np.abs(fcs_vals - limit_vals))),
                mean_res=float(moments[0]),
                mean_sys=sys.mean,
                moments_res=moments,
                moment_gap=float(np.max(np.abs(data.contour_moments() - moments))),
            ))
    return rows


class TestLimitSweep:
    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("which", ["qubit_qubit", "chain3"])
    def test_rows_equal_per_cell_loop(self, qubit_qubit, which, workers):
        scn = qubit_qubit if which == "qubit_qubit" else chain_scenario(3, disorder=0.3, seed=2)
        t_grid, lam_grid = np.array([0.0, 1.5, 4.0]), np.array([0.0, 0.2, 0.2])
        gam = default_gamma_grid(scn)
        sweep = limit_sweep(scn, t_grid, lam_grid, workers=workers)
        expected = per_cell_sweep_rows(scn, t_grid, lam_grid, gam)
        assert len(sweep.rows) == len(expected) == 9
        for row, ref in zip(sweep.rows, expected):
            for f in dataclasses.fields(SweepRow):
                a, b = getattr(row, f.name), getattr(ref, f.name)
                assert np.array_equal(a, b), (f.name, row.lam, row.t, a, b)
                assert type(a) is type(b), f.name

    @pytest.mark.parametrize("workers", [1, 3])
    def test_sweep_runs_blas_on_one_thread_and_restores_it(self, openblas_threads, monkeypatch, workers):
        get, set_ = openblas_threads
        set_(2)
        seen = []
        sweep_cell = fcsmod._sweep_cell

        def recording(*args):
            seen.append(get())
            return sweep_cell(*args)

        monkeypatch.setattr(fcsmod, "_sweep_cell", recording)
        limit_sweep(chain_scenario(3), np.array([0.0, 1.0]), np.array([0.1, 0.2, 0.3]), workers=workers)
        assert seen == [1] * 6
        assert get() == 2

    def test_blas_thread_count_restored_after_a_quadrature_error(self, qubit_qubit, openblas_threads):
        get, set_ = openblas_threads
        set_(2)
        t_grid, lam_grid = np.array([0.0, 1.0]), np.array([0.3])
        gap = max(r.moment_gap for r in limit_sweep(qubit_qubit, t_grid, lam_grid).rows)
        with pytest.raises(QuadratureError):
            limit_sweep(qubit_qubit, t_grid, lam_grid, moment_tol=gap / 2)
        assert get() == 2

    def test_unpinnable_blas_runs_the_lambdas_serially(self, monkeypatch):
        # a numpy on another BLAS: its thread count cannot be pinned, so the
        # worker threads would make the bits depend on --workers
        monkeypatch.setattr(linalg, "_openblas_thread_controls", lambda: None)
        scn = chain_scenario(3, disorder=0.3, seed=2)
        t_grid, lam_grid = np.array([0.0, 1.5, 4.0]), np.array([0.0, 0.2, 0.3])
        expected = limit_sweep(scn, t_grid, lam_grid, workers=1).rows
        threads = []
        sweep_lam = fcsmod._sweep_lam

        def recording(*args):
            threads.append(threading.get_ident())
            return sweep_lam(*args)

        monkeypatch.setattr(fcsmod, "_sweep_lam", recording)
        rows = limit_sweep(scn, t_grid, lam_grid, workers=3).rows
        assert threads == [threading.get_ident()] * 3
        assert len(rows) == len(expected) == 9
        for row, ref in zip(rows, expected):
            for f in dataclasses.fields(SweepRow):
                a, b = getattr(row, f.name), getattr(ref, f.name)
                assert np.array_equal(a, b), (f.name, row.lam, row.t, a, b)
                assert type(a) is type(b), f.name

    def test_one_scenario_per_lambda(self, qubit_qubit, monkeypatch):
        calls = []
        with_lam = Scenario.with_lam

        def counting(self, lam):
            calls.append(lam)
            return with_lam(self, lam)

        monkeypatch.setattr(Scenario, "with_lam", counting)
        sweep = limit_sweep(qubit_qubit, np.array([0.0, 1.0, 2.0, 3.0]), np.array([0.0, 0.1, 0.2]))
        assert len(sweep.rows) == 12
        assert calls == [0.0, 0.1, 0.2]

    def test_moment_gap_above_tol_is_a_quadrature_error(self, qubit_qubit):
        t_grid, lam_grid = np.array([0.0, 1.0]), np.array([0.3])
        gap = max(r.moment_gap for r in limit_sweep(qubit_qubit, t_grid, lam_grid).rows)
        assert gap > 0.0
        with pytest.raises(QuadratureError, match="moment routes disagree") as exc:
            limit_sweep(qubit_qubit, t_grid, lam_grid, moment_tol=gap / 2)
        assert exc.value.achieved == gap

    def test_uncoupled_column_is_baseline(self, qubit_qubit):
        gam = default_gamma_grid(qubit_qubit, 11)
        sweep = limit_sweep(qubit_qubit, np.array([0.0, 1.0, 2.0]), np.array([0.0]),
                            gamma_grid=gam)
        baseline = max(abs(1.0 - system_char_limit(qubit_qubit, g)) for g in gam)
        for row in sweep.rows:
            assert row.distance == pytest.approx(baseline, abs=1e-12)

    def test_zero_time_row_is_baseline(self, qubit_qubit):
        gam = default_gamma_grid(qubit_qubit, 11)
        sweep = limit_sweep(qubit_qubit, np.array([0.0]), np.array([0.0, 0.2, 0.4]),
                            gamma_grid=gam)
        baseline = max(abs(1.0 - system_char_limit(qubit_qubit, g)) for g in gam)
        for row in sweep.rows:
            assert row.distance == pytest.approx(baseline, abs=1e-12)

    def test_worker_count_invariance(self, qubit_qubit):
        grid_t = np.array([0.0, 0.5, 1.0])
        grid_l = np.array([0.0, 0.2])
        a = limit_sweep(qubit_qubit, grid_t, grid_l, workers=1)
        b = limit_sweep(qubit_qubit, grid_t, grid_l, workers=4)
        for ra, rb in zip(a.rows, b.rows):
            assert (ra.lam, ra.t, ra.distance, ra.mean_res) == (rb.lam, rb.t, rb.distance, rb.mean_res)

    def test_moment_consistency_enforced(self, qubit_qubit):
        sweep = limit_sweep(qubit_qubit, np.array([0.0, 1.0]), np.array([0.0, 0.3]))
        for row in sweep.rows:
            assert row.moment_gap <= 1e-6

    def test_verdicts(self):
        scn = chain_scenario(3)
        sweep = limit_sweep(scn, np.linspace(0.0, 30.0, 7), np.array([0.0, 0.2]))
        uncoupled, coupled = sweep.verdicts()
        assert uncoupled["lambda"] == 0.0 and uncoupled["pass"] is False
        assert uncoupled["plateau_distance"] == pytest.approx(uncoupled["baseline_t0"], abs=1e-12)
        assert coupled["lambda"] == 0.2 and coupled["pass"] is True
        assert coupled["plateau_distance"] < coupled["baseline_t0"]
        # without a t = 0 row there is no baseline to improve on
        (late_only,) = limit_sweep(scn, np.array([10.0, 20.0]), np.array([0.2])).verdicts()
        assert late_only["baseline_t0"] is None and late_only["pass"] is False

    def test_rejects_empty_grid(self, qubit_qubit):
        with pytest.raises(ValueError, match="nonempty"):
            limit_sweep(qubit_qubit, np.array([]), np.array([0.1]))


W_ROUTE_SCENARIOS = {
    "chain6": lambda: chain_scenario(6),
    "chain5-0.3": lambda: chain_scenario(5, disorder=0.3, seed=1),
}


class TestSweepReadsW:
    """The sweep reads chi_R, the mean and the moments from W, the d_R^2
    unmerged atoms; the merged atoms serve fcs and verify."""

    @pytest.mark.parametrize("which", sorted(W_ROUTE_SCENARIOS))
    def test_w_route_against_the_merged_atoms(self, which):
        scn = W_ROUTE_SCENARIOS[which]()
        gam = default_gamma_grid(scn)
        for t in (1.7, 9.0, 30.0):
            fa = fcs_at(scn, t)
            merged = fa.reservoir_measure
            chi_w = reservoir_char(fa, 1j * gam / scn.beta)
            # merging keeps each cluster's first moment, so chi moves by the dropped mass
            assert np.max(np.abs(chi_w - merged.char(gam))) <= merged.dropped_mass + 1e-14, t
            # the merged mean misses this by up to 1.8e-12
            assert abs(fa.exact_moments()[0] - delta_q_direct(scn, t)[1]) <= 1e-13, t

    def test_exact_moments_sum_over_w(self, qubit_qubit):
        fa = fcs_at(qubit_qubit, 1.3)
        x, w = fa.locations.ravel(), fa.weights.ravel()
        expected = [math.fsum(w * x**k) for k in range(1, 5)]
        assert np.allclose(fa.exact_moments(), expected, rtol=1e-14, atol=1e-16)

    def test_sweep_merges_no_reservoir_atoms(self, monkeypatch):
        def fail(*args):
            pytest.fail("the sweep merged the reservoir atoms or evaluated chi on merged atoms")

        monkeypatch.setattr(fcsmod, "reservoir_fcs", fail)
        monkeypatch.setattr(FcsAtTime, "reservoir_measure", property(fail))
        monkeypatch.setattr(AtomicMeasure, "char", fail)
        sweep = limit_sweep(chain_scenario(6), np.linspace(0.0, 30.0, 4), np.array([0.0, 0.2]))
        assert len(sweep.rows) == 8 and [v["pass"] for v in sweep.verdicts()] == [False, True]

    @pytest.mark.parametrize("defect", ["k3_plus_1e-5", "transposed_locations"])
    def test_a_defect_in_the_exact_moments_fails_the_sweep(self, monkeypatch, defect):
        # both routes read W, but moment_gap still catches a fault in the sums over W
        if defect == "k3_plus_1e-5":
            exact = FcsAtTime.exact_moments
            monkeypatch.setattr(FcsAtTime, "exact_moments", lambda fa: exact(fa) + [0.0, 0.0, 1e-5, 0.0])
        else:
            monkeypatch.setattr(
                FcsAtTime, "exact_moments",
                lambda fa: np.array([(fa.weights * fa.locations.T**k).sum() for k in range(1, 5)]),
            )
        with pytest.raises(QuadratureError, match="moment routes disagree") as exc:
            limit_sweep(chain_scenario(6), np.array([0.0, 9.0]), np.array([0.2]))
        if defect == "k3_plus_1e-5":
            assert exc.value.achieved == pytest.approx(1e-5, rel=1e-3)


def count_diagonalizations(monkeypatch):
    """(shapes passed to np.linalg.eigh outside a block decomposition, shapes
    of the matrices decomposed block by block), filled as the code under test
    runs.  A block decomposition by linalg.eigh_blocks counts once, in every
    module that calls it."""
    eigh_shapes, block_shapes, inside = [], [], []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kw):
        if not inside:
            eigh_shapes.append(np.shape(a))
        return eigh(a, *args, **kw)

    def counting(decompose):
        def counted(a):
            if not inside:
                block_shapes.append(np.shape(a))
            inside.append(a)
            try:
                return decompose(a)
            finally:
                inside.pop()

        return counted

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    counted = counting(linalg.eigh_blocks)
    for module in (linalg, states, dynamics):
        monkeypatch.setattr(module, "eigh_blocks", counted)
    return eigh_shapes, block_shapes


class TestReservoirSpectrum:
    """The Scenario owns the one eigendecomposition of h_res and the one root
    of rho_res; every reservoir-side consumer reads them from it."""

    def test_sweep_diagonalizes_the_reservoir_once(self, monkeypatch):
        scn = chain_scenario(3)  # d_R = 8, d = 16
        two_norm_shapes = []
        norm = np.linalg.norm

        def counting_norm(x, ord=None, *args, **kw):
            if ord == 2:
                two_norm_shapes.append(np.shape(x))
            return norm(x, ord, *args, **kw)

        eigh_shapes, block_shapes = count_diagonalizations(monkeypatch)
        monkeypatch.setattr(np.linalg, "norm", counting_norm)
        limit_sweep(scn, np.array([0.0, 1.0, 2.0]), np.array([0.2]))
        # one block decomposition of h_res only: the sweep reads the thermal
        # populations from it and needs no root of rho_res; no SVD of a
        # reservoir-sized or joint matrix, because every Hermiticity check
        # passes cheaply.  The parity blocks of h_res are counted as one block
        # decomposition (the (2, 2) ones are the system's spectrum); the only
        # plain eigh calls are the two (d/2, d/2) sectors of the coupling, and
        # nothing of size d is diagonalized.
        assert eigh_shapes == [(8, 8)] * 2
        assert block_shapes.count((8, 8)) == 1 and (16, 16) not in block_shapes
        assert [s for s in two_norm_shapes if s in ((8, 8), (16, 16))] == []

    @pytest.mark.parametrize("which", ["qubit_qubit", "chain3", "random"])
    def test_cached_spectrum_is_bitwise_the_public_route(self, qubit_qubit, which):
        scn = {
            "qubit_qubit": qubit_qubit,
            "chain3": chain_scenario(3, disorder=0.3, seed=4),
            "random": random_scenario(np.random.default_rng(9), 3, 4),
        }[which]
        assert np.array_equal(scn.rho_res, gibbs(scn.h_res, scn.beta))
        assert np.array_equal(scn.rho_sys_thermal, gibbs(scn.h_sys, scn.beta))
        w, v = eigh_blocks(scn.h_res)
        sqrt_rho_res = (v * np.sqrt(states.gibbs_weights(w, scn.beta))) @ v.conj().T
        expected = tensor(positive_sqrt(scn.rho_sys), sqrt_rho_res)
        assert np.array_equal(initial_vector(scn), expected)


# -- FCS invariants over random scenarios ----------------------------------------


class TestFcsInvariants:
    """Each invariant at the tolerance its check in the fcs suite uses."""

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([2, 3]),
        st.sampled_from([2, 3, 4]),
        st.floats(0.1, 5.0),
    )
    def test_invariants(self, seed, d_sys, d_res, t):
        scn = random_scenario(np.random.default_rng(seed), d_sys, d_res)
        fa = fcs_at(scn, t)
        res = reservoir_fcs(fcs_at(scn, t))
        assert abs(res.measure.mass - 1.0) <= 1e-10
        gammas = default_gamma_grid(scn, 11)
        plus = reservoir_char(fa, 1j * gammas / scn.beta)
        minus = reservoir_char(fa, -1j * gammas / scn.beta)
        assert np.max(np.abs(np.conjugate(plus) - minus)) <= 1e-12
        assert abs(res.mean - delta_q_direct(scn, t)[1]) <= DEFAULT_QUAD_TOL + 1e-8
        grid = np.array([0.0, 0.25, 0.5, 0.75, 1.0]) + 1j * np.array([0.0, -1.0, 2.0, 0.5, 0.0])
        assert strip_bounds_check(fa, grid) <= 1e-12
        for variant, tt in ((scn.with_lam(0.0), t), (scn, 0.0)):
            for mu in (system_fcs(fcs_at(variant, tt)).measure, reservoir_fcs(fcs_at(variant, tt)).measure):
                assert len(mu) == 1 and abs(mu.locations[0]) < 1e-12
                assert abs(mu.mass - 1.0) <= 1e-12


# -- FCS weights in the free eigenbasis ------------------------------------------


def degenerate_scenario(lam=0.3):
    """H_S with a doubly degenerate level and rho_S coherent inside it."""
    rng = np.random.default_rng(5)
    base = random_scenario(rng, 3, 3, lam=lam)
    rho_sys = random_density(3, rng)
    assert abs(rho_sys[1, 2]) > 0.05
    return Scenario(h_sys=np.diag([0.0, 1.0, 1.0]), h_res=base.h_res, v=base.v, lam=lam,
                    beta=base.beta, rho_sys=rho_sys)


FREE_BASIS_CASES = {
    "random_2x4": lambda: random_scenario(np.random.default_rng(31), 2, 4),
    "random_3x3": lambda: random_scenario(np.random.default_rng(32), 3, 3),
    "random_3x4": lambda: random_scenario(np.random.default_rng(33), 3, 4),
    "degenerate_h_sys": degenerate_scenario,
    "uncoupled": lambda: random_scenario(np.random.default_rng(34), 3, 4).with_lam(0.0),
    "chain4": lambda: chain_scenario(4, disorder=0.3, seed=1),
}


class TestFreeBasisWeights:
    """Both FCS weight sets read from U~ = exp(itH) in the free eigenbasis,
    against the matrix-product constructions they replace.  Weights are sums
    of O(d) products of unit-scale numbers: 1e-13 leaves d * eps room."""

    @pytest.mark.parametrize("t", [-1.3, 0.0, 2.1])
    @pytest.mark.parametrize("case", sorted(FREE_BASIS_CASES))
    def test_weights_match_matrix_products(self, case, t):
        scn = FREE_BASIS_CASES[case]()
        assert measure_distance(system_fcs(fcs_at(scn, t)).measure, matrix_product_system_measure(scn, t)) <= 1e-13
        x_ref, w_ref = matrix_product_reservoir_atoms(scn, t)
        data = fcs_at(scn, t)
        assert np.array_equal(data.locations.ravel(), x_ref)
        assert np.max(np.abs(data.weights.ravel() - w_ref)) <= 1e-13
        merged_ref = AtomicMeasure.from_points(x_ref, w_ref)
        assert measure_distance(reservoir_fcs(fcs_at(scn, t)).measure, merged_ref) <= 1e-13
        alphas = np.array([0.0, 0.3, 1.0, 0.5 + 1.0j, 0.25j, -0.7j, 0.8 - 2.0j])
        ref = per_atom_char(x_ref, w_ref, scn.beta, alphas)
        assert np.max(np.abs(data.char(alphas) - ref)) <= 1e-13

    def test_degenerate_level_is_one_atom_pair(self):
        scn = degenerate_scenario()
        assert sorted(set(np.round(system_fcs(fcs_at(scn, 1.5)).measure.locations, 12))) == [-1.0, 0.0, 1.0]

    def test_strip_function_at_large_beta_span(self):
        # levels far from 0 and beta * span = 50: uncentred exponentials of
        # the levels would overflow; the centred bilinear form must not
        base = random_scenario(np.random.default_rng(41), 2, 4, beta=1.0)
        w = np.linalg.eigvalsh(base.h_res)
        h_res = base.h_res * (50.0 / (w[-1] - w[0])) + 800.0 * np.eye(4)
        scn = Scenario(h_sys=base.h_sys, h_res=h_res, v=base.v, lam=0.5, beta=1.0, rho_sys=base.rho_sys)
        t = 0.7
        data = fcs_at(scn, t)
        assert scn.beta * (data.levels[-1] - data.levels[0]) == pytest.approx(50.0)
        alphas = np.add.outer(np.linspace(0.0, 1.0, 9), 1j * np.array([-3.0, 0.0, 0.4, 2.0])).ravel()
        with np.errstate(over="raise", invalid="raise"):
            vals = data.char(alphas)
            moments = data.contour_moments()
        ref = per_atom_char(data.locations.ravel(), data.weights.ravel(), scn.beta, alphas)
        assert np.max(np.abs(vals - ref) / np.maximum(np.abs(ref), 1.0)) <= 1e-12
        assert np.all(np.isfinite(moments))
        # populations e^{-50} keep their relative accuracy in W, so F(1)
        # still matches the squared norm of the dressed, cocycle-rotated
        # weight (the overlap-matrix route missed it by 6e-3 here)
        from fcslab.linalg import hs_norm
        from fcslab.modular import reservoir_weight_vector

        dressed = tensor(positive_sqrt(scn.rho_sys), np.eye(scn.dim_res)) @ (
            exact_cocycle(scn, t) @ reservoir_weight_vector(scn)
        )
        assert abs(data.char(1.0) - hs_norm(dressed) ** 2) <= 1e-12

    def test_contour_moments_match_per_atom_contour(self):
        scn = chain_scenario(4, disorder=0.3, seed=1)
        data = fcs_at(scn, 5.0)
        x_ref, w_ref = matrix_product_reservoir_atoms(scn, 5.0)
        radius = min(0.45, 0.5 / max(1.0, scn.beta * float(np.max(np.abs(x_ref)))))
        nodes = np.exp(2j * np.pi * np.arange(64) / 64)
        values = per_atom_char(x_ref, w_ref, scn.beta, radius * nodes)
        ref = [math.factorial(k) * np.mean(values * nodes ** (-k)).real / radius**k / scn.beta**k
               for k in range(1, 5)]
        assert np.max(np.abs(data.contour_moments() - ref)) <= 1e-9

    def test_sweep_uses_one_coupled_eigh_per_lambda_and_no_unitary_coupled(self, monkeypatch):
        scn = chain_scenario(3)  # d = 16
        ts, lams = [0.0, 1.0, 2.0], [0.0, 0.2, 0.3]
        unitary_calls, blocks_formed = [], []
        unitary, sector_unitary = Scenario.unitary_coupled, fcsmod._sector_unitary

        def counting_unitary(self, t):
            unitary_calls.append(t)
            return unitary(self, t)

        eigh_shapes, block_shapes = count_diagonalizations(monkeypatch)
        monkeypatch.setattr(Scenario, "unitary_coupled", counting_unitary)
        monkeypatch.setattr(fcsmod, "_sector_unitary", lambda sec, t: blocks_formed.append(t) or sector_unitary(sec, t))
        limit_sweep(scn, np.array(ts), np.array(lams))
        # one reservoir block decomposition for the sweep (besides the system's
        # (2, 2) spectrum), one eigh per sector per lambda, and none of size d;
        # one U~(t) per cell, one block per sector, feeds both weight sets
        assert [s for s in block_shapes if s != (2, 2)] == [(8, 8)]
        assert eigh_shapes == [(8, 8)] * 2 * len(lams)
        sectors_per_cell = sum(len(scn.with_lam(lam)._free_basis_sectors) for lam in lams)
        assert unitary_calls == [] and sorted(blocks_formed) == sorted(ts * sectors_per_cell)
        two_time_reservoir_oracle(scn, 1.0)  # the independent route keeps U(t)
        assert unitary_calls == [1.0]


def dense_system_measure(scn, u_tilde, cluster_tol=None):
    """Reference: the system FCS read from the whole U~, the weight of the
    level pair (i, j) being tr((sigma_ii (x) diag p) U~_ij U~_ij*)."""
    w_s, v_s = scn._eig_sys
    groups = eigenvalue_clusters(w_s, cluster_tol)
    levels, starts = np.array([w_s[g].mean() for g in groups]), [g[0] for g in groups]
    sigma = dagger(v_s) @ scn.rho_sys @ v_s
    u4 = u_tilde.reshape(scn.dim_sys, scn.dim_res, scn.dim_sys, scn.dim_res)
    locs, wts = [], []
    for lam_i, g in zip(levels, groups):
        rows = u4[g[0]:g[-1] + 1]  # rows (s, a) with s in level i; columns (s', b)
        x_rows = np.tensordot(sigma[np.ix_(g, g)], rows, 1)
        x_rows *= scn.gibbs_weights_res[:, None, None]
        per_col = np.einsum("sacb,sacb->c", rows.conj(), x_rows).real
        locs.extend(levels - lam_i)
        wts.extend(np.add.reduceat(per_col, starts))
    return AtomicMeasure.from_points(np.array(locs), np.array(wts))


def dense_reservoir_weights(scn, u_tilde):
    """Reference: W read from the whole U~, W[a, b] = p_b sum over s, s' of
    |N_{(s', b), (s, a)}|^2 with N = (S~ (x) 1) U~, S~ = V_S* rho_S^(1/2) V_S."""
    d_s, d_r = scn.dim_sys, scn.dim_res
    root = dagger(scn._eig_sys[1]) @ positive_sqrt(scn.rho_sys) @ scn._eig_sys[1]
    n = (root @ u_tilde.reshape(d_s, -1)).reshape(d_s, d_r, d_s, d_r)
    return ((np.abs(n) ** 2).sum(axis=(0, 2)) * scn.gibbs_weights_res[:, None]).T


def coherent_chain4():
    """chain_scenario(4) with a qubit state coherent between its levels: the
    coherence pairs rows (0, b) and (1, b), which lie in different parity
    sectors, so it adds nothing to either weight set."""
    base = chain_scenario(4)
    return Scenario(base.h_sys, base.h_res, base.v, base.lam, base.beta, random_density(2, np.random.default_rng(12)))


class TestSectorReads:
    """fcs_at reads both weight sets sector by sector; the dense readers of the
    whole U~ it replaced are the reference.  Weights are sums of O(d)
    products of unit-scale numbers: 1e-13 leaves d * eps room."""

    CASES = {
        **SECTOR_SCENARIOS,
        "random_3x4": lambda: random_scenario(np.random.default_rng(3), 3, 4),
        "random_3x4_uncoupled": lambda: random_scenario(np.random.default_rng(3), 3, 4).with_lam(0.0),
        "chain4_uncoupled": lambda: chain_scenario(4).with_lam(0.0),
        "coherent_chain4": coherent_chain4,
        "degenerate_h_sys": degenerate_scenario,
        "cancelling_coupling": cancelling_coupling,
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_weights_match_the_dense_readers(self, case):
        scn = self.CASES[case]()
        for t in (-1.3, 0.0, 2.1, 30.0):
            u = dense_free_basis_unitary(scn, t)
            fa = fcs_at(scn, t)
            assert np.max(np.abs(fa.weights - dense_reservoir_weights(scn, u))) <= 1e-13
            assert measure_distance(fa.system_measure, dense_system_measure(scn, u)) <= 1e-13

    def test_coherences_inside_and_across_a_degenerate_level(self):
        # H_S = diag(0, 1, 1): sigma = rho_S, coherent inside the level {1, 2},
        # which the system weights keep, and across levels, which only W keeps
        scn = degenerate_scenario()
        (sector,) = scn._free_basis_sectors
        first, second = sector.pairs
        assert len(first) == scn.dim_res * 3  # d_R d_S (d_S - 1) / 2
        systems = {tuple(sorted(x)) for x in zip(sector.rows[first] // scn.dim_res, sector.rows[second] // scn.dim_res)}
        assert systems == {(0, 1), (0, 2), (1, 2)}
        assert min(abs(scn.rho_sys[0, 1]), abs(scn.rho_sys[0, 2]), abs(scn.rho_sys[1, 2])) > 0.05

    def test_parity_chain_sectors_have_no_shared_levels(self):
        for sector in chain_scenario(4, disorder=0.3, seed=1)._free_basis_sectors:
            assert all(len(x) == 0 for x in sector.pairs)

    def test_dropped_mass_closes_the_weight_sum(self):
        fa = fcs_at(chain_scenario(6), 30.0)
        mu = fa.reservoir_measure
        assert mu.dropped_mass > 0
        assert abs(mu.mass + mu.dropped_mass - fa.weights.sum()) <= 1e-15


class TestSweepPathHoldsNoDenseMatrix:
    """The sweep reads the coupled spectrum in its sectors: neither a d x d
    model matrix, nor the d x d eigenvector matrix, nor U(t), and no d x d
    array inside fcs_at."""

    def test_sweep_reads_neither_dense_eigenvectors_nor_unitary(self, monkeypatch):
        # nor any d x d model matrix: the sectors come from the factor spectra and V
        def fail(*args):
            pytest.fail("the sweep read a d x d coupled or model matrix")

        for name in ("h_coupled", "h_free", "h_sys_full", "h_res_full", "_eig_coupled"):
            monkeypatch.setattr(Scenario, name, property(fail))
        monkeypatch.setattr(Scenario, "unitary_coupled", fail)
        sweep = limit_sweep(chain_scenario(5), np.linspace(0.0, 30.0, 4), np.array([0.0, 0.2]))
        assert len(sweep.rows) == 8 and [v["pass"] for v in sweep.verdicts()] == [False, True]

    def test_fcs_at_peaks_below_one_complex_d_by_d_array(self):
        # 3.0 d x d complex arrays when U~ was formed whole
        scn = chain_scenario(6)
        fcs_at(scn, 1.0)  # the per-lambda sectors, built before the count
        tracemalloc.start()
        try:
            fcs_at(scn, 30.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * scn.dim**2

    def test_is_hermitian_peaks_below_a_quarter_complex_d_by_d_array(self):
        # 2 d x d complex arrays when the defect a - a* was formed whole
        a = states.random_hermitian(512, np.random.default_rng(7), scale=10.0)
        tracemalloc.start()
        try:
            assert linalg.is_hermitian(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * len(a) ** 2 / 4

    def test_rayleigh_quotients_peak_within_the_chunk_budget(self):
        # two extended-precision temporaries of 2^16 terms each, and the
        # block's vectors; 2^18-term chunks and out-of-place products took 4.4 MiB
        scn = chain_scenario(8)
        v_r = scn._eig_res[1]
        tracemalloc.start()
        try:
            linalg.rayleigh_quotients(scn.h_res, v_r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**16 * np.dtype(np.longdouble).itemsize


class TestSuiteFcsSharing:
    def test_spectral_data_built_once_per_distinct_scenario_and_time(self, qubit_qubit, monkeypatch):
        built, unitaries = [], []
        build, sector_unitary = fcsmod.fcs_at, fcsmod._sector_unitary

        def counting(scn, t, cluster_tol=None):
            built.append((scn.lam, t))
            return build(scn, t, cluster_tol)

        monkeypatch.setattr(fcsmod, "fcs_at", counting)
        monkeypatch.setattr(fcsmod, "_sector_unitary", lambda sec, t: unitaries.append(t) or sector_unitary(sec, t))
        results = suite_fcs(qubit_qubit)
        assert all(r.passed for r in results)
        # the shared (scn, t = 1) build, then the lam = 0 and t = 0 variants
        assert built == [(0.2, 1.0), (0.0, 1.0), (0.2, 0.0)]
        # one U~ per build, one block per sector: each trivial variant feeds
        # both of its measures from one
        n_coupled, n_uncoupled = (len(x._free_basis_sectors) for x in (qubit_qubit, qubit_qubit.with_lam(0.0)))
        assert unitaries == [1.0] * n_coupled + [1.0] * n_uncoupled + [0.0] * n_coupled

    def test_half_line_forms_each_propagator_once(self, monkeypatch):
        from fcslab.linalg import hs_inner
        from fcslab.modular import Liouvilleans, reservoir_weight_vector

        scn = chain_scenario(3, disorder=0.3, seed=2)
        t, grid = 1.5, (-1.0, 0.0, 0.7)
        fa = fcs_at(scn, t)
        worst = half_line_identity_check(fa, grid)

        def exp_half(x, s):  # e^{i beta s L_half} X, its factors formed per call
            left, right = Liouvilleans(scn).half_factors(scn.beta * s)
            return left @ x @ right

        # the route through exp_half and scn.evolve, one s at a time, bitwise
        omega_hat = tensor(positive_sqrt(scn.rho_sys), np.eye(scn.dim_res)) @ initial_vector(scn)
        assert worst == max(
            abs(fa.char(0.5 + 1j * s)
                - hs_inner(exp_half(omega_hat, s), scn.evolve(exp_half(reservoir_weight_vector(scn), s), t)))
            for s in grid
        )
        calls = []
        unitary = Scenario.unitary_coupled
        monkeypatch.setattr(Scenario, "unitary_coupled", lambda self, x: calls.append(x) or unitary(self, x))
        half_line_identity_check(fa, grid)
        assert calls == [t] + [scn.beta * s for s in grid]

    def test_suite_forms_u_t_once_per_check(self, monkeypatch):
        # oracle, delta_q_direct, balance_check, operator_balance_check, the
        # half-line check and the Dyson check's exact_cocycle: one U(1.0) each,
        # and one U(beta s) per s of the half-line grid
        from collections import Counter

        scn = config_to_scenario(shipped_config("qubit_chain6")).scenario
        calls = []
        unitary = Scenario.unitary_coupled
        monkeypatch.setattr(Scenario, "unitary_coupled", lambda self, x: calls.append(x) or unitary(self, x))
        assert all(r.passed for r in suite_fcs(scn))
        assert Counter(calls) == Counter({1.0: 6, **{scn.beta * s: 1 for s in (-1.0, 0.0, 0.7)}})
