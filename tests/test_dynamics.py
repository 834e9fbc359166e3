import sys
from concurrent.futures import ThreadPoolExecutor
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad_vec

from fcslab import dynamics

from fcslab.dynamics import (
    QuadratureError,
    Scenario,
    balance_check,
    delta_q_direct,
    delta_q_flux,
    dyson_cocycle,
    dyson_error_bound,
    exact_cocycle,
)
from fcslab.fcs import _sector_unitary, fcs_at, system_char_limit
from fcslab.linalg import NonHermitianError, dagger, exp_complex, expm_hermitian, op_norm, positive_sqrt, tensor
from fcslab.modular import Liouvilleans, equilibrium_modular, initial_modular, perturbed_gibbs_vector
from fcslab.scenarios import chain_scenario, config_to_scenario, random_scenario
from fcslab.states import gibbs, random_hermitian

from test_scenarios import shipped_config

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


class TestScenario:
    def test_rejects_non_hermitian_coupling(self):
        v = np.zeros((4, 4), dtype=complex)
        v[0, 1] = 1.0
        with pytest.raises(ValueError):
            Scenario(SZ, SZ, v, 0.1, 1.0, np.eye(2, dtype=complex) / 2)

    def test_rejects_bad_beta(self):
        v = np.kron(SX, SX)
        with pytest.raises(ValueError, match="beta"):
            Scenario(SZ, SZ, v, 0.1, -1.0, np.eye(2, dtype=complex) / 2)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            Scenario(SZ, SZ, np.kron(SX, np.eye(3)), 0.1, 1.0, np.eye(2, dtype=complex) / 2)

    def test_non_square_coupling_names_the_coupling_dimension(self):
        with pytest.raises(ValueError, match="coupling dimension"):
            Scenario(SZ, SZ, np.zeros((4, 2)), 0.1, 1.0, np.eye(2, dtype=complex) / 2)

    def test_inputs_frozen(self, qubit_qubit):
        with pytest.raises(ValueError):
            qubit_qubit.h_sys[0, 0] = 5.0
        for a, b in chain_scenario(2).coupling.terms + qubit_qubit.coupling.terms:
            with pytest.raises(ValueError):
                b[0, 0] = 5.0


    def test_real_data_is_held_real(self):
        # every array of a real model, from a preset or a config, is float64;
        # complex storage is kept for a model with a complex entry
        for scn in (chain_scenario(4, disorder=0.3, seed=1), config_to_scenario(shipped_config("qubit_chain3")).scenario):
            arrays = [scn.h_sys, scn.h_res, scn.rho_sys, *(x for term in scn.coupling.terms for x in term), scn._eig_res[1]]
            arrays += [v for _, _, v in scn._free_basis_coupling] + [sec.a for sec in scn._free_basis_sectors]
            assert [x.dtype for x in arrays] == [np.float64] * len(arrays)
        scn = random_scenario(np.random.default_rng(2), 2, 3)
        arrays = [scn.h_sys, scn.h_res, scn.rho_sys, scn.v, scn._eig_res[1]] + [sec.a for sec in scn._free_basis_sectors]
        assert [x.dtype for x in arrays] == [np.complex128] * len(arrays)

    @staticmethod
    def dense_arrays(scn):
        """The dense model matrices verify and fcs read, and the eigenvectors of the
        initial weight's system factor, V_S* v_rho (the equilibrium one's are 1)."""
        return [scn.v, scn.h_free, scn.h_coupled, scn.rho_init, scn.rho_eq,
                scn._eig_coupled[1], initial_modular(scn, equilibrium_modular(scn)).eta_sys[1]]

    @pytest.mark.parametrize("source", ["chain_scenario", "qubit_qubit", "qubit_chain3", "qutrit_chain2"])
    def test_the_dense_route_of_a_real_model_is_real(self, source):
        scn = chain_scenario(3) if source == "chain_scenario" else config_to_scenario(shipped_config(source)).scenario
        assert [x.dtype for x in self.dense_arrays(scn)] == [np.float64] * 7

    def test_the_dense_route_of_a_complex_model_is_complex(self):
        scn = random_scenario(np.random.default_rng(3), 2, 4)
        assert [x.dtype for x in self.dense_arrays(scn)] == [np.complex128] * 7


class TestCouplingTerms:
    """V held as its Kronecker terms (A_k, B_k): the chain's one term, or the
    nonzero d_R x d_R blocks of a matrix V, through one term loop."""

    @pytest.mark.parametrize("n, disorder", [(4, 0.0), (5, 0.3)])
    def test_factored_and_matrix_couplings_agree_bitwise(self, n, disorder):
        factored = chain_scenario(n, disorder=disorder, seed=2)
        (term,) = factored.coupling.terms
        dense = Scenario(factored.h_sys, factored.h_res, tensor(*term), factored.lam, factored.beta, factored.rho_sys)
        assert len(dense.coupling.terms) == 2  # the blocks (0, 1) and (1, 0), as views of V
        assert all(np.shares_memory(b, dense.v) for _, b in dense.coupling.terms)
        assert same_bits(factored._free_basis_coupling, dense._free_basis_coupling)
        for t in (0.0, 2.5, 30.0):
            f, g = fcs_at(factored, t), fcs_at(dense, t)
            assert same_bits(f.weights, g.weights), t
            assert same_bits(f.system_measure.weights, g.system_measure.weights), t
        assert "matrix" not in vars(factored.coupling)
        assert same_bits(factored.v, dense.v) and factored.with_lam(0.3).v is factored.v

    def test_a_sum_of_terms_is_its_matrix(self):
        # complex factors and a complex system eigenbasis: the sectors and
        # weights of sum_k A_k (x) B_k match those of the matrix it stands for
        rng = np.random.default_rng(14)
        h_sys, h_res = random_hermitian(2, rng), random_hermitian(4, rng)
        terms = ((SX, random_hermitian(4, rng)), (SY, random_hermitian(4, rng)), (SZ, np.eye(4)))
        factored = Scenario(h_sys, h_res, terms, 0.3, 1.2, np.diag([0.4, 0.6]))
        assert np.array_equal(factored.v, sum(np.kron(a, b) for a, b in terms))
        dense = Scenario(h_sys, h_res, factored.v.copy(), 0.3, 1.2, np.diag([0.4, 0.6]))
        for (rows, e, v), (rows_d, e_d, v_d) in zip(factored._free_basis_coupling, dense._free_basis_coupling,
                                                    strict=True):
            assert np.array_equal(rows, rows_d) and np.array_equal(e, e_d)
            assert np.max(np.abs(v - v_d)) <= 1e-14
        f, g = fcs_at(factored, 2.0), fcs_at(dense, 2.0)
        assert np.max(np.abs(f.weights - g.weights)) <= 1e-14

    def test_no_terms_is_no_coupling(self):
        scn = Scenario(SZ, np.diag([0.0, 0.5, 2.0]), (), 0.4, 1.0, np.diag([0.2, 0.8]))
        assert [len(rows) for rows, _, _ in scn._free_basis_coupling] == [1] * 6
        assert not scn.v.any() and scn.v.shape == (6, 6)

    def test_each_factor_is_validated(self):
        rho = np.eye(2) / 2
        with pytest.raises(ValueError, match="coupling term 0 reservoir factor has dimension 4, not d_R = 2"):
            Scenario(SZ, SZ, ((SX, np.eye(4)),), 0.1, 1.0, rho)
        with pytest.raises(ValueError, match="coupling term 1 system factor must be a square matrix"):
            Scenario(SZ, SZ, ((SX, SZ), (SX[:1], SZ)), 0.1, 1.0, rho)
        with pytest.raises(NonHermitianError, match="coupling term 1 system factor is not Hermitian"):
            Scenario(SZ, SZ, ((SX, SZ), (np.triu(np.ones((2, 2))), SX)), 0.1, 1.0, rho)
        with pytest.raises(NonHermitianError, match="reservoir factor is not Hermitian: non-finite"):
            Scenario(SZ, SZ, ((SX, np.diag([1.0, np.nan])),), 0.1, 1.0, rho)


def same_bits(a, b) -> bool:
    """Bitwise equality of a cached value: an array, a float, or nested tuples and lists of them."""
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(same_bits(x, y) for x, y in zip(a, b))
    return np.asarray(a).dtype == np.asarray(b).dtype and np.array_equal(a, b)


WITH_LAM_CASES = {
    "chain3": lambda: chain_scenario(3, disorder=0.3, seed=4),
    "random": lambda: random_scenario(np.random.default_rng(11), 3, 4),
}


class TestWithLam:
    """with_lam(lam) is the fresh Scenario at lam, and shares every lam-free cache."""

    CACHES = [name for name, attr in vars(Scenario).items() if isinstance(attr, cached_property)]

    @pytest.mark.parametrize("case", ["qubit_qubit", *sorted(WITH_LAM_CASES)])
    def test_every_cache_equals_a_fresh_scenario(self, case, qubit_qubit):
        scn = qubit_qubit if case == "qubit_qubit" else WITH_LAM_CASES[case]()
        assert set(dynamics._COUPLING_CACHES) <= set(self.CACHES)
        for name in self.CACHES:
            getattr(scn, name)
        lam = scn.lam + 0.17
        cell = scn.with_lam(lam)
        fresh = Scenario(scn.h_sys, scn.h_res, scn.v, lam, scn.beta, scn.rho_sys)
        assert cell.lam == lam and all(getattr(cell, f) is getattr(scn, f) for f in ("h_sys", "h_res", "v", "rho_sys"))
        for name in self.CACHES:
            assert same_bits(getattr(cell, name), getattr(fresh, name)), name
            assert (getattr(cell, name) is getattr(scn, name)) == (name not in dynamics._COUPLING_CACHES), name

    def test_the_free_spectra_are_built_once_per_model(self):
        scn = chain_scenario(3)
        first, second = scn.with_lam(0.1), scn.with_lam(0.3)
        for name in ("_free_basis_coupling", "_eig_sys", "_eig_res", "gibbs_weights_res"):
            assert getattr(first, name) is getattr(second, name) is scn.__dict__[name], name

    def test_the_coupling_norm_is_taken_once_per_model(self, monkeypatch):
        scn = chain_scenario(3)
        norms_of_v = []
        norm = dynamics.op_norm
        monkeypatch.setattr(dynamics, "op_norm", lambda a: norms_of_v.append(a is scn.v) or norm(a))
        scn.energy_scale, dyson_error_bound(scn, 1.0, 4), dyson_cocycle(scn, 1.0, 4)
        cell = scn.with_lam(0.3)  # made after the model holds the norm, as verify's uncoupled case is
        cell.energy_scale, dyson_error_bound(cell, 1.0, 4), dyson_cocycle(cell, 1.0, 4)
        assert sum(norms_of_v) == 1 and scn.v_norm == norm(scn.v)

    def test_cells_made_on_many_threads_match_serial_cells(self):
        # more threads than cores and a short switch interval, on a fresh model
        # whose free caches the first with_lam calls build concurrently
        lams = np.linspace(0.0, 0.4, 12)

        def cell_unitary(scn, lam):  # the sector blocks of U~(1.0), and the weights read from them
            cell = scn.with_lam(lam)
            blocks = [_sector_unitary(sec, 1.0) for sec in cell._free_basis_sectors]
            fa = fcs_at(cell, 1.0)
            return blocks, fa.weights, fa.system_measure.weights

        scn = chain_scenario(3, disorder=0.3, seed=4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                threaded = list(pool.map(lambda lam: cell_unitary(scn, lam), lams, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        serial = chain_scenario(3, disorder=0.3, seed=4)
        assert all(same_bits(u, cell_unitary(serial, lam)) for u, lam in zip(threaded, lams))

    def test_rejects_non_finite_lam(self, qubit_qubit):
        with pytest.raises(ValueError, match="finite"):
            qubit_qubit.with_lam(float("nan"))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]), st.sampled_from([2, 3, 4]), st.floats(-5.0, 5.0))
def test_free_model_routes_match_the_dense_matrices(seed, d_sys, d_res, t):
    """unitary_free and perturbed_gibbs_vector, built from the factor spectra
    of H_S and H_R, against the matrices they stand for."""
    scn = random_scenario(np.random.default_rng(seed), d_sys, d_res)
    assert np.max(np.abs(scn.unitary_free(t) - expm_hermitian(scn.h_free, 1j * t))) <= 1e-12
    target = positive_sqrt(gibbs(scn.h_coupled, scn.beta))
    assert np.max(np.abs(perturbed_gibbs_vector(scn) - target)) <= 1e-12


def heisenberg(a, h, t):
    """e^{itH} a e^{-itH} by Scenario.evolve, with h the whole coupled
    Hamiltonian: a one-level reservoir and no coupling."""
    d = h.shape[0]
    scn = Scenario(h, np.zeros((1, 1)), np.zeros((d, d)), 0.0, 1.0, np.eye(d) / d)
    return scn.evolve(a, t)


def dense_free_basis_vectors(scn):
    """A = (V_S (x) V_R)* v_c as one Kronecker product, from the Scenario's spectra."""
    return dagger(np.kron(scn._eig_sys[1], scn._eig_res[1])) @ scn._eig_coupled[1]


def dense_free_basis_unitary(scn, t):
    """U~ = exp(itH) in the free eigenbasis as one d x d product, (A e^{itw}) A*."""
    a = dense_free_basis_vectors(scn)
    return (a * exp_complex(1j * t * scn._eig_coupled[0])) @ dagger(a)


def sector_block(sector, t):
    re, im = _sector_unitary(sector, t)
    return re + 1j * im


def complex_parity_chain():
    """chain_scenario(3) plus a sx sy term on the first bond: h_res is complex
    and still conserves the parity, so A splits into two complex sectors."""
    scn = chain_scenario(3)
    h_res = scn.h_res + 0.2 * tensor(SX, SY, np.eye(2))
    return Scenario(scn.h_sys, h_res, scn.v, scn.lam, scn.beta, scn.rho_sys)


def cancelling_coupling():
    """lam V cancels every off-diagonal entry of 1 (x) H_R exactly, so H_coupled
    is diagonal, with six one-level blocks; in the free eigenbasis V~ couples
    the levels of one system level, so the sectors are the two of size 3."""
    h_res = random_hermitian(3, np.random.default_rng(8)).real
    hopping = h_res - np.diag(np.diag(h_res))
    return Scenario(np.diag([0.0, 1.0]), h_res, tensor(np.eye(2), -hopping / 0.5), 0.5, 1.0, np.diag([0.3, 0.7]))


SECTOR_SCENARIOS = {
    **{f"chain{n}-{dis}": (lambda n=n, dis=dis: chain_scenario(n, disorder=dis, seed=n))
       for n in range(3, 7) for dis in (0.0, 0.3)},
    "qutrit_chain2": lambda: config_to_scenario(shipped_config("qutrit_chain2")).scenario,
    "complex_chain3": complex_parity_chain,
}


class TestFreeBasisSectors:
    """U~ = exp(itH) in the free eigenbasis, formed one sector of A at a time,
    against the one d x d product of the dense A."""

    SCENARIOS = SECTOR_SCENARIOS

    @staticmethod
    def assert_sectors_tile_the_dense_product(scn, times):
        """The sector rows partition the free levels, the sector spectra are
        the dense spectrum, each sector's columns are orthonormal and span the
        dense A's columns there, and its block of U~ is the dense U~ there;
        the dense U~ is zero outside the sector blocks."""
        sectors = scn._free_basis_sectors
        assert np.array_equal(np.sort(np.concatenate([sec.rows for sec in sectors])), np.arange(scn.dim))
        w = np.sort(np.concatenate([sec.w for sec in sectors]))
        assert np.max(np.abs(w - scn._eig_coupled[0])) <= 1e-13  # two diagonalizations of one H
        a = dense_free_basis_vectors(scn)
        inside = np.zeros((scn.dim, scn.dim), dtype=bool)
        for sec in sectors:
            assert np.max(np.abs(dagger(sec.a) @ sec.a - np.eye(len(sec.w)))) <= 1e-13
            cols = np.flatnonzero(np.any(a[sec.rows] != 0, axis=0))  # the dense A's columns on the sector
            dense = a[np.ix_(sec.rows, cols)]
            assert np.max(np.abs(dense @ dagger(dense) - sec.a @ dagger(sec.a))) <= 1e-14
            inside[np.ix_(sec.rows, sec.rows)] = True
        for t in times:
            u = dense_free_basis_unitary(scn, t)
            for sec in sectors:
                assert np.max(np.abs(sector_block(sec, t) - u[np.ix_(sec.rows, sec.rows)])) <= 1e-13
            assert np.max(np.abs(u[~inside]), initial=0.0) <= 1e-15

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_sector_product_matches_dense_product(self, name):
        scn = self.SCENARIOS[name]()
        sectors = scn._free_basis_sectors
        assert len(sectors) == 2
        a = dense_free_basis_vectors(scn)
        for sec in sectors:
            assert np.iscomplexobj(sec.a) == name.startswith("complex")
            cols = np.flatnonzero(np.any(a[sec.rows] != 0, axis=0))  # the dense A's columns on the sector
            assert np.max(np.abs(scn._eig_coupled[0][cols] - sec.w)) <= 1e-13  # two diagonalizations of one H
        self.assert_sectors_tile_the_dense_product(scn, (-1.3, 0.0, 2.1, 30.0))

    def test_one_sector_is_the_whole_factored_product(self):
        scn = random_scenario(np.random.default_rng(7), 3, 4)
        (sec,) = scn._free_basis_sectors
        assert np.array_equal(sec.rows, np.arange(scn.dim))
        self.assert_sectors_tile_the_dense_product(scn, (-1.3, 0.0, 2.1))

    def test_blocks_reaching_one_free_level_are_joined(self):
        scn = cancelling_coupling()
        assert sorted(len(sec.rows) for sec in scn._free_basis_sectors) == [3, 3]
        self.assert_sectors_tile_the_dense_product(scn, (-1.3, 0.0, 2.1))

    @pytest.mark.parametrize("name", ["chain4-0.3", "qutrit_chain2"])
    def test_uncoupled_sectors_tile_the_dense_product(self, name):
        coupled = self.SCENARIOS[name]()
        scn = coupled.with_lam(0.0)
        assert [sec.rows.tolist() for sec in scn._free_basis_sectors] == [
            sec.rows.tolist() for sec in coupled._free_basis_sectors
        ]
        self.assert_sectors_tile_the_dense_product(scn, (-1.3, 2.1))


class TestUnitModulusPhases:
    """The unitaries read their phases from linalg.exp_i, bitwise the
    exp_complex(1j * t * w) they were built from."""

    @pytest.mark.parametrize("t", [-1.3, 0.0, 2.1])
    def test_unitaries_bitwise_exp_complex(self, qubit_qubit, t):
        w, u = qubit_qubit._eig_coupled
        assert np.array_equal(qubit_qubit.unitary_coupled(t), (u * exp_complex(1j * t * w)) @ dagger(u))
        factors = [(v * exp_complex(1j * t * w)) @ dagger(v) for w, v in (qubit_qubit._eig_sys, qubit_qubit._eig_res)]
        assert np.array_equal(qubit_qubit.unitary_free(t), tensor(*factors))
        w, v = qubit_qubit._eig_res
        right = tensor(np.eye(2), (v * exp_complex(-1j * t * w)) @ dagger(v))
        assert np.array_equal(Liouvilleans(qubit_qubit).half_factors(t)[1], right)

    @pytest.mark.parametrize("source", ["qubit_chain3", "random_scenario"])
    def test_unitary_coupled_agrees_with_the_complex_form(self, source):
        # real eigenvectors: two real products written into the real and
        # imaginary views; complex ones: the one complex product
        scn = (config_to_scenario(shipped_config(source)).scenario if source == "qubit_chain3"
               else random_scenario(np.random.default_rng(4), 2, 4))
        w, u = scn._eig_coupled
        assert u.dtype == (np.float64 if source == "qubit_chain3" else np.complex128)
        for t in (-1.3, 0.0, 2.1):
            helper = dynamics._exp_i_eigh(u, t * w)
            assert np.abs(helper - (u * exp_complex(1j * t * w)) @ dagger(u)).max() <= 1e-14
            assert np.array_equal(scn.unitary_coupled(t), helper)

    def test_characteristic_functions_bitwise_exp_complex(self, qubit_qubit):
        mu = fcs_at(qubit_qubit, 1.7).reservoir_measure
        gamma = np.linspace(-3.0, 3.0, 41)
        ref = exp_complex(1j * np.multiply.outer(gamma, mu.locations)) @ mu.weights
        assert np.array_equal(mu.char(gamma), ref)
        w, v = qubit_qubit._eig_sys
        for g in gamma:
            phase_p = (v * exp_complex(1j * g * w)) @ dagger(v)
            ref = np.trace(qubit_qubit.rho_sys_thermal @ phase_p) * np.trace(qubit_qubit.rho_sys @ dagger(phase_p))
            assert system_char_limit(qubit_qubit, g) == complex(ref)


class TestHeisenberg:
    def test_time_zero(self, rng):
        a = random_hermitian(3, rng)
        h = random_hermitian(3, rng)
        assert np.allclose(heisenberg(a, h, 0.0), a)

    def test_commuting_invariant(self):
        assert np.allclose(heisenberg(SZ, 2.0 * SZ, 1.7), SZ, atol=1e-12)

    def test_pauli_rotation_closed_form(self):
        t = 0.83
        expected = np.cos(2 * t) * SX - np.sin(2 * t) * SY
        assert np.allclose(heisenberg(SX, SZ, t), expected, atol=1e-12)

    def test_group_law(self, rng):
        a = random_hermitian(4, rng)
        h = random_hermitian(4, rng)
        lhs = heisenberg(a, h, 0.9 + 1.4)
        rhs = heisenberg(heisenberg(a, h, 1.4), h, 0.9)
        assert op_norm(lhs - rhs) <= 1e-10

    def test_isometry(self, rng):
        a = random_hermitian(4, rng)
        h = random_hermitian(4, rng)
        assert abs(op_norm(heisenberg(a, h, 2.3)) - op_norm(a)) <= 1e-10


class TestFluxObservables:
    def test_hermitian_and_split(self, qubit_qubit):
        scn = qubit_qubit
        assert op_norm(scn.phi_sys - dagger(scn.phi_sys)) <= 1e-12
        assert op_norm(scn.phi_res - dagger(scn.phi_res)) <= 1e-12
        total = scn.lam * 1j * (scn.h_free @ scn.v - scn.v @ scn.h_free)
        assert op_norm(scn.phi_sys + scn.phi_res - total) <= 1e-12


class TestDeltaQ:
    def test_zero_time(self, qubit_qubit):
        assert delta_q_direct(qubit_qubit, 0.0) == (0.0, 0.0)
        assert delta_q_flux(qubit_qubit, 0.0) == (0.0, 0.0)

    def test_uncoupled_invariance(self, qubit_qubit):
        scn = qubit_qubit.with_lam(0.0)
        dq_s, dq_r = delta_q_direct(scn, 3.7)
        assert abs(dq_s) <= 1e-12 and abs(dq_r) <= 1e-12

    def test_flux_vanishes_for_commuting_coupling(self):
        # V built from H_free eigenprojectors commutes with H_free
        h_s = np.diag([0.0, 1.0]).astype(complex)
        h_r = np.diag([0.0, 2.0]).astype(complex)
        v = tensor(h_s, np.eye(2)) @ tensor(np.eye(2), h_r)
        scn = Scenario(h_s, h_r, v, 0.4, 1.0, np.diag([0.6, 0.4]).astype(complex))
        dq_s, dq_r = delta_q_flux(scn, 2.0)
        assert abs(dq_s) <= 1e-12 and abs(dq_r) <= 1e-12

    def test_direct_agrees_with_flux(self, scenario_factory):
        scn = scenario_factory(7, d_sys=2, d_res=4)
        direct = delta_q_direct(scn, 2.0)
        flux = delta_q_flux(scn, 2.0, quad_tol=1e-10)
        assert abs(direct[0] - flux[0]) <= 1e-8
        assert abs(direct[1] - flux[1]) <= 1e-8

    def test_direct_agrees_with_flux_many(self):
        master = np.random.default_rng(321)
        for k in range(50):
            d_s = int(master.integers(2, 4))
            d_r = int(master.integers(2, 9))
            scn = random_scenario(np.random.default_rng(1000 + k), d_s, d_r)
            t = float(master.uniform(0.0, 3.0))
            direct = delta_q_direct(scn, t)
            flux = delta_q_flux(scn, t, quad_tol=1e-9)
            assert abs(direct[0] - flux[0]) <= 1e-8
            assert abs(direct[1] - flux[1]) <= 1e-8

    def test_energy_conservation_total(self, scenario_factory):
        scn = scenario_factory(13, d_sys=3, d_res=4)
        for t in (0.5, 2.0, 7.0):
            drift = scn.expect(scn.evolve(scn.h_coupled, t)) - scn.expect(scn.h_coupled)
            assert abs(drift) <= 1e-10 * scn.energy_scale


class TestBalance:
    def test_uncoupled(self, qubit_qubit):
        assert balance_check(qubit_qubit.with_lam(0.0), 4.0) <= 1e-14

    def test_zero_time(self, qubit_qubit, monkeypatch):
        monkeypatch.setattr(Scenario, "unitary_coupled", lambda self, t: pytest.fail("U(0) formed"))
        assert balance_check(qubit_qubit, 0.0) == 0.0

    def test_random_scenario(self):
        scn = random_scenario(np.random.default_rng(99), 2, 8, lam=0.3)
        assert balance_check(scn, 5.0) <= 1e-10 * scn.energy_scale


HEISENBERG_CASES = {
    **{name: lambda name=name: config_to_scenario(shipped_config(name)).scenario
       for name in ("qubit_qubit", "qubit_chain3", "qutrit_chain2")},
    "random_3x5": lambda: random_scenario(np.random.default_rng(5), 3, 5),  # complex, 9 block terms
}


@pytest.mark.parametrize("t", [0.7, -2.3])
@pytest.mark.parametrize("case", sorted(HEISENBERG_CASES))
def test_direct_route_matches_the_heisenberg_picture(case, t):
    # the reference evolves each observable as U A U*; the route evolves the state once
    scn = HEISENBERG_CASES[case]()
    u = scn.unitary_coupled(t)
    observables = (tensor(scn.h_sys, np.eye(scn.dim_res)), tensor(np.eye(scn.dim_sys), scn.h_res), scn.v)
    gain_s, gain_r, gain_v = (scn.expect(u @ a @ dagger(u)) - scn.expect(a) for a in observables)
    dq_s, dq_r = delta_q_direct(scn, t)
    assert abs(dq_s - gain_s) <= 1e-13 and abs(dq_r + gain_r) <= 1e-13
    assert abs(balance_check(scn, t) - abs((-gain_r - gain_s) - scn.lam * gain_v)) <= 1e-13


class TestDyson:
    def test_uncoupled_is_identity(self, qubit_qubit):
        scn = qubit_qubit.with_lam(0.0)
        assert np.allclose(dyson_cocycle(scn, 2.0, 4), np.eye(4))

    def test_zero_time_is_identity(self, qubit_qubit):
        assert np.allclose(dyson_cocycle(qubit_qubit, 0.0, 4), np.eye(4))

    def test_order_six_matches_exact(self, scenario_factory):
        scn = scenario_factory(3, d_sys=2, d_res=2).with_lam(0.1)
        approx = dyson_cocycle(scn, 1.0, 6)
        assert op_norm(approx - exact_cocycle(scn, 1.0)) <= 1e-8

    def test_truncation_error_below_envelope_and_monotone(self, scenario_factory):
        scn = scenario_factory(17, d_sys=2, d_res=3, lam=0.4)
        t = 0.8 / (abs(scn.lam) * op_norm(scn.v))  # lam ||V|| t = 0.8
        exact = exact_cocycle(scn, t)
        errors = []
        for order in range(1, 7):
            err = op_norm(dyson_cocycle(scn, t, order) - exact)
            assert err <= dyson_error_bound(scn, t, order) + 1e-8
            errors.append(err)
        assert all(e2 < e1 for e1, e2 in zip(errors, errors[1:]))

    def test_reports_integration_failure(self, qubit_qubit):
        with pytest.raises(QuadratureError, match="estimate"):
            dyson_cocycle(qubit_qubit, 3.0, 3, quad_tol=1e-16)

    def test_order_one_is_integrated_coupling(self, scenario_factory):
        scn = scenario_factory(23, d_sys=2, d_res=3, lam=0.3)
        t = 1.7
        w0, u0 = np.linalg.eigh(scn.h_free)

        def w_at(s):
            u = (u0 * np.exp(1j * s * w0)) @ dagger(u0)
            return u @ scn.v @ dagger(u)

        integral, _ = quad_vec(w_at, 0.0, t, epsabs=1e-13, epsrel=1e-13)
        first = dyson_cocycle(scn, t, 1) - np.eye(scn.dim)
        assert op_norm(first - 1j * scn.lam * integral) <= 1e-10

    def test_high_order_matches_exact(self, scenario_factory):
        scn = scenario_factory(29, d_sys=2, d_res=4, lam=0.5)
        t = 1.0 / (abs(scn.lam) * op_norm(scn.v))  # lam ||V|| t = 1
        assert dyson_error_bound(scn, t, 20) <= 1e-18
        assert op_norm(dyson_cocycle(scn, t, 20) - exact_cocycle(scn, t)) <= 1e-12

    def test_exact_cocycle_is_unitary(self, qubit_qubit):
        g = exact_cocycle(qubit_qubit, 1.3)
        assert op_norm(g @ dagger(g) - np.eye(4)) <= 1e-12
