import dataclasses
import json
from functools import cached_property

import numpy as np
import pytest

from fcslab.checks import suite_modular
from fcslab.cli import main
from fcslab.dynamics import exact_cocycle
from fcslab.fcs import default_gamma_grid, fcs_at, reservoir_char
from fcslab.linalg import (
    NotPositiveError,
    RankDeficientError,
    dagger,
    hs_inner,
    hs_norm,
    positive_sqrt,
    tensor,
)
from fcslab.modular import (
    Liouvilleans,
    RelativeModular,
    cone_membership,
    equilibrium_modular,
    equilibrium_vector,
    initial_modular,
    initial_vector,
    mixing_diagnostic,
    modular_pair,
    perturbed_gibbs_vector,
    relative_modular,
    reservoir_modular,
    reservoir_weight_vector,
)
from fcslab.scenarios import chain_scenario, config_to_scenario, matrix_to_pairs, random_scenario
from fcslab.states import gibbs, maximally_mixed, random_density

from test_scenarios import shipped_config


def rand_mat(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


class TestStandardGns:
    """The standard vector of a state is rho^(1/2); observables act on it by
    left multiplication."""

    def test_identity_normalization(self, rng):
        omega = modular_pair(random_density(4, rng)).omega
        assert abs(hs_inner(omega, omega) - 1.0) <= 1e-12

    def test_pure_state_vector_is_projector(self, rng):
        # a pure state is not faithful: it has no modular structure, but its
        # vector rho^(1/2) is the projector itself
        psi = rng.normal(size=3)
        psi /= np.linalg.norm(psi)
        p = np.outer(psi, psi.conj())
        assert np.allclose(positive_sqrt(p), p, atol=1e-12)

    def test_trace_agreement(self, rng):
        rho = random_density(4, rng)
        omega = modular_pair(rho).omega
        for _ in range(20):
            a = rand_mat(rng, 4)
            assert abs(hs_inner(omega, a @ omega) - np.trace(rho @ a)) <= 1e-12


class TestModularStructure:
    def test_tracial_reference_is_trivial(self, rng):
        ms = modular_pair(maximally_mixed(3))
        x = rand_mat(rng, 3)
        assert np.allclose(ms.delta(x), x, atol=1e-12)
        assert np.allclose(ms.conjugation(x), dagger(x))

    def test_vacuum_invariance(self, rng):
        ms = modular_pair(random_density(4, rng))
        assert hs_norm(ms.delta(ms.omega) - ms.omega) <= 1e-12

    def test_star_action_on_algebra_vectors(self, rng):
        ms = modular_pair(random_density(3, rng))
        for _ in range(50):
            a = rand_mat(rng, 3)
            assert hs_norm(ms.star(a @ ms.omega) - dagger(a) @ ms.omega) <= 1e-10

    def test_conjugation_antiunitary_involution(self, rng):
        ms = modular_pair(random_density(4, rng))
        x, y = rand_mat(rng, 4), rand_mat(rng, 4)
        assert abs(hs_inner(ms.conjugation(x), ms.conjugation(y)) - hs_inner(y, x)) <= 1e-10
        assert hs_norm(ms.conjugation(ms.conjugation(x)) - x) <= 1e-12

    def test_polar_identities(self, rng):
        ms = modular_pair(random_density(4, rng))
        x = rand_mat(rng, 4)
        # Delta = F S
        assert hs_norm(ms.commutant_star(ms.star(x)) - ms.delta(x)) <= 1e-10 * hs_norm(x)
        # Delta^(-1/2) = J Delta^(1/2) J
        lhs = ms.conjugation(ms.delta_power(0.5, ms.conjugation(x)))
        assert hs_norm(lhs - ms.delta_power(-0.5, x)) <= 1e-10 * hs_norm(x)
        # commutant star operator acts by the sandwiched adjoint
        r = ms.rho_ref
        sandwich = positive_sqrt(r) @ dagger(x) @ np.linalg.inv(positive_sqrt(r))
        assert hs_norm(ms.commutant_star(x) - sandwich) <= 1e-9 * hs_norm(x)

    def test_rejects_rank_deficient_reference(self):
        with pytest.raises(RankDeficientError, match="eigenvalue"):
            modular_pair(np.diag([1.0, 0.0]).astype(complex))

    def test_kms_boundary_condition(self, rng):
        ms = modular_pair(random_density(3, rng))
        omega = ms.omega
        for _ in range(20):
            a, b = rand_mat(rng, 3), rand_mat(rng, 3)
            lhs = hs_inner(omega, a @ ms.delta(b @ omega))
            rhs = hs_inner(omega, b @ a @ omega)
            assert abs(lhs - rhs) <= 1e-10

    def test_tomita_takesaki_commutation(self, rng):
        ms = modular_pair(random_density(3, rng))
        a, b, x = rand_mat(rng, 3), rand_mat(rng, 3), rand_mat(rng, 3)
        jaj = lambda y: ms.conjugation(a @ ms.conjugation(y))
        assert hs_norm(jaj(b @ x) - b @ jaj(x)) <= 1e-10 * hs_norm(x)
        # modular flow maps left multipliers to left multipliers
        t = 0.9
        flowed = ms.delta_power(1j * t, a @ ms.delta_power(-1j * t, x))
        mult = ms.ref_power(1j * t) @ a @ ms.ref_power(-1j * t)
        assert hs_norm(flowed - mult @ x) <= 1e-9 * hs_norm(x)


class TestRelativeModular:
    def test_reduces_to_modular(self, rng):
        rho = random_density(3, rng)
        rel = relative_modular(rho, rho)
        ms = modular_pair(rho)
        x = rand_mat(rng, 3)
        assert hs_norm(rel.apply(x) - ms.delta(x)) <= 1e-10 * hs_norm(x)

    def test_total_mass_of_weight(self, rng):
        eta = 2.7 * random_density(4, rng)  # non-normalized weight
        omega_state = random_density(4, rng)
        rel = relative_modular(eta, omega_state)
        omega = positive_sqrt(omega_state)
        val = hs_inner(omega, rel.apply(np.eye(4) @ omega))
        assert abs(val - 2.7) <= 1e-10

    def test_radon_nikodym(self, rng):
        eta = random_density(4, rng)
        omega_state = random_density(4, rng)
        rel = relative_modular(eta, omega_state)
        omega = positive_sqrt(omega_state)
        for _ in range(100):
            a = rand_mat(rng, 4)
            lhs = hs_inner(omega, rel.apply(a @ omega))
            assert abs(lhs - np.trace(eta @ a)) <= 1e-10

    def test_positive_self_adjoint_on_hs_space(self, rng):
        rel = relative_modular(random_density(3, rng), random_density(3, rng))
        x, y = rand_mat(rng, 3), rand_mat(rng, 3)
        assert abs(hs_inner(x, rel.apply(y)) - hs_inner(rel.apply(x), y)) <= 1e-10
        assert hs_inner(x, rel.apply(x)).real >= -1e-12

    def test_power_interpolates(self, rng):
        rel = relative_modular(random_density(3, rng), random_density(3, rng))
        x = rand_mat(rng, 3)
        assert np.allclose(rel.power(1.0, x), rel.apply(x))
        assert np.allclose(rel.power(0.0, x), x)

    def test_rejects_singular_denominator(self, rng):
        with pytest.raises(RankDeficientError):
            relative_modular(random_density(2, rng), np.diag([1.0, 0.0]).astype(complex))

    def test_rejects_non_positive_weight(self):
        with pytest.raises(NotPositiveError, match="rho_eta"):
            relative_modular(np.diag([1.0, -0.5]).astype(complex), np.eye(2))

    def test_product_spectra_are_read_by_their_minimum(self):
        # a product spectrum is not sorted: its smallest weight need not come first
        eye = np.eye(2, dtype=complex)
        with pytest.raises(RankDeficientError, match="0.000e"):
            RelativeModular((np.array([1.0, 0.5]), eye), (np.array([1.0, 0.0]), eye))
        with pytest.raises(NotPositiveError, match="-5.000e-01"):
            RelativeModular((np.array([1.0, -0.5]), eye), (np.array([1.0, 0.5]), eye))
        rel = RelativeModular((np.array([1.0, 0.0]), eye), (np.array([1.0, 0.5]), eye))
        with pytest.raises(RankDeficientError, match=r"min eigenvalue 0\.000e\+00"):
            rel.power(-0.5, eye)

    def test_modular_structure_is_the_case_eta_equals_omega(self, rng):
        ms = modular_pair(random_density(4, rng))
        assert isinstance(ms, RelativeModular)
        assert ms.eig_eta is ms.eig_omega and ms.rho_ref is ms.rho_eta
        x = rand_mat(rng, 4)
        assert np.array_equal(ms.delta(x), ms.apply(x))
        for alpha in (0.5, -0.5, 0.3j, 1.2 - 0.7j):
            assert np.array_equal(ms.delta_power(alpha, x), ms.power(alpha, x))

    def test_each_weight_diagonalized_once(self, rng, monkeypatch):
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or eigh(a))
        x = rand_mat(rng, 3)
        ms = modular_pair(random_density(3, rng))
        ms.power(0.3, x), ms.delta_power(0.7j, x), ms.star(x), ms.omega
        assert len(calls) == 1
        rel = relative_modular(random_density(3, rng), random_density(3, rng))
        rel.power(0.3, x), rel.power(-1.1j, x)
        assert len(calls) == 3


class TestNaturalCone:
    def test_reference_vector_in_cone(self, rng):
        ms = modular_pair(random_density(3, rng))
        assert cone_membership(ms.omega)

    def test_negated_positive_outside(self, rng):
        assert not cone_membership(-random_density(3, rng))

    def test_generated_vectors_inside(self, rng):
        ms = modular_pair(random_density(4, rng))
        for _ in range(100):
            a = rand_mat(rng, 4)
            vec = a @ ms.omega @ dagger(a)  # A (J A J) reference
            assert cone_membership(vec, 1e-10)

    def test_positive_input_needs_no_eigvalsh(self, rng, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: pytest.fail("eigvalsh called"))
        ms = modular_pair(random_density(4, rng))
        for _ in range(10):
            a = rand_mat(rng, 4)
            assert cone_membership(a @ ms.omega @ dagger(a), 1e-10)

    @pytest.mark.parametrize("top", [1e-3, 0.5, 1.0])
    def test_floor_is_minus_tol_up_to_unit_norm(self, rng, top):
        # ||x|| = top <= 1, so the floor is -tol itself: a relative 1e-3 on
        # either side of it decides
        tol = 1e-10
        q, _ = np.linalg.qr(rand_mat(rng, 5))
        for factor, inside in ((1 + 1e-3, False), (1 - 1e-3, True)):
            w = np.array([-tol * factor, 0.0, 0.1 * top, 0.2 * top, top])
            assert cone_membership((q * w) @ dagger(q), tol) is inside

    def test_cone_is_exactly_psd(self, rng):
        # every PSD matrix arises as A (J A J) applied to the reference
        ms = modular_pair(random_density(3, rng))
        p = random_density(3, rng)
        a = positive_sqrt(p) @ np.linalg.inv(positive_sqrt(ms.omega))
        assert np.allclose(a @ ms.omega @ dagger(a), p, atol=1e-10)


class TestScenarioVectors:
    def test_uncoupled_perturbed_vector_is_equilibrium(self, qubit_qubit):
        scn = qubit_qubit.with_lam(0.0)
        assert hs_norm(perturbed_gibbs_vector(scn) - equilibrium_vector(scn)) <= 1e-12

    def test_perturbed_vector_matches_coupled_gibbs(self, qubit_qubit):
        scn = qubit_qubit.with_lam(0.5)
        target = positive_sqrt(gibbs(scn.h_coupled, scn.beta))
        assert hs_norm(perturbed_gibbs_vector(scn) - target) <= 1e-10

    def test_perturbed_vector_normalized_and_in_cone(self, scenario_factory):
        scn = scenario_factory(21, d_sys=3, d_res=3)
        vec = perturbed_gibbs_vector(scn)
        assert abs(hs_norm(vec) - 1.0) <= 1e-12
        assert cone_membership(vec, 1e-10)

    def test_weight_vector_norm(self, qubit_qubit):
        assert abs(hs_norm(reservoir_weight_vector(qubit_qubit)) ** 2 - 2.0) <= 1e-12

    def test_liouvilleans_kill_their_vectors(self, scenario_factory):
        scn = scenario_factory(5, d_sys=2, d_res=4)
        lv = Liouvilleans(scn)
        assert hs_norm(lv.free(equilibrium_vector(scn))) <= 1e-10
        assert hs_norm(lv.coupled(perturbed_gibbs_vector(scn))) <= 1e-10

    def test_liouvilleans_hermitian_on_hs_space(self, scenario_factory, rng):
        scn = scenario_factory(6, d_sys=2, d_res=3)
        lv = Liouvilleans(scn)
        d = scn.dim
        h_r = np.kron(np.eye(scn.dim_sys), scn.h_res)
        half = lambda x: scn.h_coupled @ x - x @ h_r  # generates half_factors
        for op in (lv.free, lv.coupled, half):
            x, y = rand_mat(rng, d), rand_mat(rng, d)
            assert abs(hs_inner(x, op(y)) - hs_inner(op(x), y)) <= 1e-10

    def test_coupled_liouvillean_decomposition(self, scenario_factory, rng):
        scn = scenario_factory(8, d_sys=2, d_res=4)
        lv = Liouvilleans(scn)
        x = rand_mat(rng, scn.dim)
        assert hs_norm(lv.coupled(x) - lv.coupled_decomposed(x)) <= 1e-12 * hs_norm(x)

    def test_flow_preserves_cone(self, scenario_factory, rng):
        scn = scenario_factory(9, d_sys=2, d_res=3)
        lv = Liouvilleans(scn)
        omega = equilibrium_vector(scn)
        for _ in range(20):
            a = rand_mat(rng, scn.dim)
            vec = a @ omega @ dagger(a)
            assert cone_membership(scn.evolve(vec, 1.7), 1e-10)


class TestCocycle:
    def test_zero_time_identity(self, qubit_qubit):
        assert np.allclose(exact_cocycle(qubit_qubit, 0.0), np.eye(4), atol=1e-12)

    def test_uncoupled_identity(self, qubit_qubit):
        scn = qubit_qubit.with_lam(0.0)
        assert np.allclose(exact_cocycle(scn, 2.3), np.eye(4), atol=1e-12)

    def test_conjugation_identity(self, scenario_factory, rng):
        # cocycle-conjugated weight modular operator equals the flowed one
        scn = scenario_factory(31, d_sys=2, d_res=4)
        t = 1.3
        gam = exact_cocycle(scn, t)
        static = tensor(np.eye(scn.dim_sys), scn.rho_res)
        rel_t = reservoir_modular(scn, t)
        conj_weight = gam @ static @ dagger(gam)
        for _ in range(10):
            x = rand_mat(rng, scn.dim)
            lhs = rel_t.apply(x)
            rhs = conj_weight @ x @ np.linalg.inv(static)
            assert hs_norm(lhs - rhs) <= 1e-10 * hs_norm(x)

    def test_left_multiplier_membership(self, scenario_factory, rng):
        # acting on HS vectors commutes with every right multiplication
        scn = scenario_factory(32, d_sys=2, d_res=3)
        gam = exact_cocycle(scn, 0.9)
        b, x = rand_mat(rng, scn.dim), rand_mat(rng, scn.dim)
        assert hs_norm(gam @ (x @ b) - (gam @ x) @ b) <= 1e-12 * hs_norm(x) * hs_norm(b)


SCENARIO_CASES = {
    "chain3": lambda: chain_scenario(3),
    "chain4_disordered": lambda: chain_scenario(4, disorder=0.3, seed=1),
    "random_3x4": lambda: random_scenario(np.random.default_rng(3), 3, 4),
}


class TestScenarioWeights:
    """The weights of a Scenario, from the eigh of H_S, H_R and rho_S: in
    Q = V_S (x) V_R, rho_eq as the spectrum of ``equilibrium_modular`` and
    rho_init as the factors of ``initial_modular``; the dense weights of
    ``reservoir_modular``."""

    @pytest.mark.parametrize("case", sorted(SCENARIO_CASES))
    def test_weights_match_their_matrices(self, case):
        scn = SCENARIO_CASES[case]()
        t = 1.7
        q = tensor(scn._eig_sys[1], scn._eig_res[1])
        eq = equilibrium_modular(scn)
        assert np.abs((q * eq.spectrum) @ dagger(q) - scn.rho_eq).max() <= 1e-14
        rel = initial_modular(scn, eq)
        (b, u), p = rel.eta_sys, rel.eta_res
        eta = np.kron((u * b) @ dagger(u), np.diag(p))  # B (x) diag(p)
        assert np.abs(q @ eta @ dagger(q) - scn.rho_init).max() <= 1e-14
        static = tensor(np.eye(scn.dim_sys), scn.rho_res)
        rel_t = reservoir_modular(scn, t)
        assert np.abs(rel_t.rho_eta - scn.evolve(static, t)).max() <= 1e-14
        inv_static = np.linalg.inv(static)
        assert np.abs(rel_t._inv_omega - inv_static).max() <= 1e-12 * np.abs(inv_static).max()

    @pytest.mark.parametrize("case", sorted(SCENARIO_CASES))
    def test_initial_modular_shares_the_equilibrium_inverse(self, case):
        # rho_eq^(-1) acts through the spectrum of the one equilibrium structure
        scn = SCENARIO_CASES[case]()
        eq = equilibrium_modular(scn)
        assert initial_modular(scn, eq).omega is eq.spectrum

    def test_suite_modular_forms_one_dense_inverse(self, monkeypatch):
        # rho_eq^(-1) is never formed; the one dense inverse is (1 (x) rho_R)^(-1),
        # of cocycle_conjugation's reservoir modular operator
        scn = chain_scenario(3)
        w_static = np.tile(scn.gibbs_weights_res, scn.dim_sys)
        formed = []
        inverse = RelativeModular._inv_omega.func

        def recording(self):
            formed.append(np.array_equal(self.eig_omega[0], w_static))
            return inverse(self)

        prop = cached_property(recording)
        prop.__set_name__(RelativeModular, "_inv_omega")
        monkeypatch.setattr(RelativeModular, "_inv_omega", prop)
        assert all(r.passed for r in suite_modular(scn))
        assert formed == [True]

    @pytest.mark.parametrize("case", sorted(SCENARIO_CASES))
    def test_reservoir_fcs_from_the_relative_modular_operator(self, case):
        # F(alpha) = <Omega, Delta(flowed | static)^alpha Omega> from the two
        # spectra: with X = V_eta* Omega V_omega, sum_ij |X_ij|^2 (eta_i / omega_j)^alpha
        scn = SCENARIO_CASES[case]()
        t = 1.7
        rel_t = reservoir_modular(scn, t)
        (w_eta, v_eta), (w_omega, v_omega) = rel_t.eig_eta, rel_t.eig_omega
        x2 = np.abs(dagger(v_eta) @ initial_vector(scn) @ v_omega) ** 2
        ratio = (w_eta[:, None] / w_omega[None, :]).astype(complex)
        gammas = default_gamma_grid(scn, 11)
        alphas = np.concatenate([1j * gammas / scn.beta, -1j * gammas / scn.beta, [0.25, 0.5, 0.75, 1.0]])
        spectral = np.array([np.sum(x2 * ratio**alpha) for alpha in alphas])
        fa = fcs_at(scn, t)
        assert np.max(np.abs(spectral - reservoir_char(fa, alphas))) <= 1e-12
        # a random positive W in place of the true one is told apart
        w_rand = np.random.default_rng(0).uniform(size=fa.weights.shape)
        wrong = dataclasses.replace(fa, weights=w_rand / w_rand.sum())
        assert np.max(np.abs(spectral - reservoir_char(wrong, alphas))) > 1e-3


def coherent_chain3() -> dict:
    """qubit_chain3 started in a coherent initial_state.matrix: V_S* rho_S V_S is a full block."""
    cfg = shipped_config("qubit_chain3")
    cfg["system"]["initial_state"] = {"matrix": matrix_to_pairs(np.array([[0.7, 0.2 + 0.1j], [0.2 - 0.1j, 0.3]]))}
    return cfg


FREE_BASIS_CONFIGS = {
    "qubit_chain3": lambda: shipped_config("qubit_chain3"),
    "qutrit_chain2": lambda: shipped_config("qutrit_chain2"),
    "coherent_chain3": coherent_chain3,
}


class TestFreeBasisModular:
    """``equilibrium_modular`` and ``initial_modular`` act on X~ = Q* X Q, Q =
    V_S (x) V_R; moved back with Q, each action is the dense operator's."""

    @pytest.mark.parametrize("case", sorted(FREE_BASIS_CONFIGS))
    def test_actions_match_the_dense_operators(self, case):
        scn = config_to_scenario(FREE_BASIS_CONFIGS[case]()).scenario
        q = tensor(scn._eig_sys[1], scn._eig_res[1])
        back = lambda y: q @ y @ dagger(q)
        eq = equilibrium_modular(scn)
        rel = initial_modular(scn, eq)
        dense_eq, dense_rel = modular_pair(scn.rho_eq), relative_modular(scn.rho_init, scn.rho_eq)
        assert np.abs(back(eq.omega) - dense_eq.omega).max() <= 1e-12
        rng = np.random.default_rng(5)
        for _ in range(3):
            x = rand_mat(rng, scn.dim)
            x_q = dagger(q) @ x @ q
            pairs = [(eq.delta(x_q), dense_eq.delta(x)), (eq.star(x_q), dense_eq.star(x)),
                     (eq.commutant_star(x_q), dense_eq.commutant_star(x)), (rel.apply(x_q), dense_rel.apply(x)),
                     (eq.vector_of(x_q), x @ dense_eq.omega)]
            pairs += [(eq.delta_power(alpha, x_q), dense_eq.delta_power(alpha, x)) for alpha in (0.5, -0.5, 0.7j, -0.7j)]
            for got, want in pairs:
                assert np.abs(back(got) - want).max() <= 1e-12

    def test_verify_modular_passes_on_a_coherent_state(self, tmp_path):
        path = tmp_path / "coherent_chain3.json"
        path.write_text(json.dumps(coherent_chain3()))
        assert main(["verify", "--config", str(path), "--suite", "modular"]) == 0

    def test_rank_deficient_initial_state_keeps_the_power_rule(self, rng):
        scn = config_to_scenario(shipped_config("qubit_chain3")).scenario  # excited: rho_S has rank 1
        rel = initial_modular(scn, equilibrium_modular(scn))
        x = rand_mat(rng, scn.dim)
        assert np.all(np.isfinite(rel.power(0.5, x)))
        for alpha in (-0.5, 0.7j):
            with pytest.raises(RankDeficientError, match="singular weight"):
                rel.power(alpha, x)


class TestMixingDiagnostic:
    def test_degenerate_window(self, qubit_qubit):
        # at t = 0 the evolution is the identity map, so the report must
        # equal the distance of the identity from the rank-one projector
        rep = mixing_diagnostic(qubit_qubit, (0.0, 0.0), 2, n_vectors=4, seed=3)
        rng = np.random.default_rng(3)
        d = qubit_qubit.dim
        vecs = []
        for _ in range(4):
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            vecs.append(g / hs_norm(g))
        omega_lam = perturbed_gibbs_vector(qubit_qubit)
        expected = max(
            abs(hs_inner(xi, xj) - hs_inner(xi, omega_lam) * hs_inner(omega_lam, xj))
            for xi in vecs
            for xj in vecs
        )
        assert rep.grid == 1
        assert rep.distance == pytest.approx(expected, abs=1e-12)

    def test_tiny_reservoir_flagged(self):
        scn = chain_scenario(1, lam=0.2)
        rep = mixing_diagnostic(scn, (0.0, 40.0), 21)
        assert not rep.mixing_like

    def test_trivial_reservoir_flagged(self):
        # dimension-one reservoir: the system is isolated and quasi-periodic
        from fcslab.dynamics import Scenario

        h_sys = np.diag([0.0, 1.0]).astype(complex)
        scn = Scenario(h_sys, np.zeros((1, 1)), 0.3 * np.array([[0, 1], [1, 0]],
                       dtype=complex), 0.5, 1.0, np.diag([0.2, 0.8]).astype(complex))
        rep = mixing_diagnostic(scn, (0.0, 40.0), 21)
        assert rep.dim_res == 1 and not rep.mixing_like

    def test_distance_shrinks_with_reservoir(self):
        small = mixing_diagnostic(chain_scenario(3), (0.0, 40.0), 21)
        large = mixing_diagnostic(chain_scenario(6), (0.0, 40.0), 21)
        assert large.distance < small.distance
