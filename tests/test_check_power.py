"""Each check of ``suite_modular`` that runs in the free product eigenbasis,
and each check of ``suite_operator``, fails when one of its routes carries a
planted defect.

A defect goes into one side of a check's identity only: the dense state it
compares against, built at another beta or from another system state, or one
action of the modular structure, built from the weight at another beta or
from a reference vector that is not positive, while the other actions keep
the true weight.  The structure is ``checks.equilibrium_modular``'s,
replaced for the run; an action is planted on the instance.  Each case
asserts that its check's row fails.

An operator check's defect is planted in the norm or in the spectral
decomposition that ``checks`` reads; the other side of its identity is the
direct computation.

A states check's defect is planted in a name its route reads: ``checks``'
own imports ``entropy`` and ``measure``, the ``states`` names that
``gibbs_variational_check`` and ``measure`` read, or the scenario's thermal
state.

An fcs check's defect is planted in one of ``checks``' own names (the
two-time oracle, a flux, direct or Dyson route), in the ``fcs`` module as
``checks`` sees it (the weights W, or the merged atoms, of the FCS it
reads), or in a scenario cache (the coupled eigenbasis, the reservoir flux,
the sector eigenvectors, or ``with_lam``).  ``char_conjugate_symmetry`` is
moved by no defect: F(-i gamma / beta) is the conjugate of F(i gamma / beta)
for any real W, so its residual is exactly 0.0.
"""

import dataclasses
import types

import numpy as np
import pytest

from fcslab import checks, states
from fcslab import fcs as fcsmod
from fcslab.checks import two_time_reservoir_oracle
from fcslab.dynamics import Scenario, delta_q_direct, delta_q_flux, dyson_cocycle
from fcslab.linalg import eig_hermitian, hs_norm, tensor
from fcslab.modular import equilibrium_modular
from fcslab.scenarios import config_to_scenario
from fcslab.states import AtomicMeasure, entropy, gibbs, maximally_mixed, measure

from test_scenarios import shipped_config

HOT = 1.01  # the other beta, as a factor
EPS = 1e-6  # an operator defect's size, far above each operator tolerance


def chain3() -> Scenario:
    return config_to_scenario(shipped_config("qubit_chain3")).scenario


def at_beta(scn: Scenario, beta: float) -> Scenario:
    return Scenario(scn.h_sys, scn.h_res, scn.v, scn.lam, beta, scn.rho_sys)


def dense_rho_eq_at_hot_beta(scn, ms, hot):
    scn.__dict__["rho_eq"] = tensor(gibbs(scn.h_sys, HOT * scn.beta), gibbs(scn.h_res, HOT * scn.beta))


def dense_rho_init_of_another_state(scn, ms, hot):
    scn.__dict__["rho_init"] = tensor(maximally_mixed(scn.dim_sys), scn.rho_res)


def planted(name):
    """A plant that gives ms the action ``name`` of the structure at the other beta."""
    def plant(scn, ms, hot):
        ms.__dict__[name] = getattr(hot, name)
    return plant


def with_a_hot_right_factor(name):
    """A plant that makes ms's action ``name`` X -> r^a X r'^(-a), r' the weight
    at the other beta: it fixes no vector that Delta^a fixes, and it is no
    automorphism, as Delta^a is."""
    def plant(scn, ms, hot):
        power = lambda alpha, x: x * (ms.spectrum ** alpha)[:, None] * hot.spectrum ** -alpha
        ms.__dict__[name] = power if name == "delta_power" else lambda x: power(1.0, x)
    return plant


def non_positive_omega(scn, ms, hot):
    omega = ms.omega.copy()
    omega[0, 0] *= -1.0
    ms.__dict__["vector_of"] = lambda a: a @ omega


# (check, plant): one side of the check's identity is built otherwise
PLANTS = [
    ("gns_trace_agreement", dense_rho_eq_at_hot_beta),
    ("modular_identities", planted("delta")),
    ("vacuum_invariance", with_a_hot_right_factor("delta")),
    ("star_operator_action", planted("vector_of")),
    ("modular_flow_stability", with_a_hot_right_factor("delta_power")),
    ("kms_from_modular", planted("delta")),
    ("radon_nikodym", dense_rho_init_of_another_state),
    ("cone_generation", non_positive_omega),
]


def rows(monkeypatch, plant=None) -> dict:
    scn = chain3()

    def structure(s):
        ms = equilibrium_modular(s)
        if plant is not None:
            plant(s, ms, equilibrium_modular(at_beta(s, HOT * s.beta)))
        return ms

    monkeypatch.setattr(checks, "equilibrium_modular", structure)
    return {r.check_name: r for r in checks.suite_modular(scn)}


def test_every_converted_check_passes_unplanted(monkeypatch):
    passed = rows(monkeypatch)
    assert all(passed[check].passed for check, _ in PLANTS)


@pytest.mark.parametrize("check, plant", PLANTS, ids=[check for check, _ in PLANTS])
def test_a_defect_in_one_route_fails_the_check(monkeypatch, check, plant):
    row = rows(monkeypatch, plant)[check]
    assert not row.passed, row


def decomposed_otherwise(change):
    """A plant that has ``checks`` decompose a matrix by ``eig_hermitian``,
    then ``change`` the decomposition."""
    def plant(monkeypatch):
        monkeypatch.setattr(checks, "eig_hermitian", lambda a: change(eig_hermitian(a)))
    return plant


def frobenius_op_norm(monkeypatch):
    monkeypatch.setattr(checks, "op_norm", hs_norm)


# (check, plant): the norm, or the decomposition, is built otherwise
OPERATOR_PLANTS = [
    ("cstar_identity", frobenius_op_norm),
    ("spectral_reconstruction", decomposed_otherwise(
        lambda dec: dataclasses.replace(dec, projectors=[p + EPS * np.eye(len(p)) for p in dec.projectors]))),
    ("spectral_mapping", decomposed_otherwise(
        lambda dec: dataclasses.replace(dec, eigenvalues=(1 + EPS) * dec.eigenvalues))),
    ("calculus_homomorphism", decomposed_otherwise(  # projectors that are not idempotent
        lambda dec: dataclasses.replace(dec, projectors=[(1 + EPS) * p for p in dec.projectors]))),
]


def operator_rows(monkeypatch, plant=None) -> dict:
    if plant is not None:
        plant(monkeypatch)
    return {r.check_name: r for r in checks.suite_operator(chain3())}


def test_every_operator_check_passes_unplanted(monkeypatch):
    passed = operator_rows(monkeypatch)
    assert list(passed) == [check for check, _ in OPERATOR_PLANTS]
    assert all(row.passed for row in passed.values())


@pytest.mark.parametrize("check, plant", OPERATOR_PLANTS, ids=[check for check, _ in OPERATOR_PLANTS])
def test_a_defect_in_the_operator_route_fails_the_check(monkeypatch, check, plant):
    row = operator_rows(monkeypatch, plant)[check]
    assert not row.passed, row


def entropy_in_bits(monkeypatch, scn):
    monkeypatch.setattr(checks, "entropy", lambda rho: entropy(rho) / np.log(2))
    monkeypatch.setattr(states, "entropy", lambda rho: entropy(rho) / np.log(2))


def gibbs_at_hot_beta(monkeypatch, scn):
    monkeypatch.setattr(states, "gibbs", lambda h, beta: gibbs(h, HOT * beta))


def thermal_state_at_hot_beta(monkeypatch, scn):
    scn.__dict__["rho_sys_thermal"] = gibbs(scn.h_sys, HOT * scn.beta)


def last_projector_dropped(monkeypatch, scn):
    # chain3's qubit starts excited: the last level carries all the weight
    def decompose(a):
        dec = eig_hermitian(a)
        return dataclasses.replace(dec, eigenvalues=dec.eigenvalues[:-1], projectors=dec.projectors[:-1])
    monkeypatch.setattr(states, "eig_hermitian", decompose)


def post_states_scaled(monkeypatch, scn):
    def scaled(rho, a):
        res = measure(rho, a)
        return dataclasses.replace(res, post_states=[(1 + EPS) * p for p in res.post_states])
    monkeypatch.setattr(checks, "measure", scaled)


# (check, plant): one route of the check reads a defective name
STATES_PLANTS = [
    ("entropy_bounds", entropy_in_bits),
    ("gibbs_variational_inequality", entropy_in_bits),
    ("gibbs_variational_equality", gibbs_at_hot_beta),
    ("kms_defect_at_thermal", thermal_state_at_hot_beta),
    ("measurement_normalization", last_projector_dropped),
    ("post_state_validity", post_states_scaled),
]


def states_rows(monkeypatch, plant=None) -> dict:
    scn = chain3()
    if plant is not None:
        plant(monkeypatch, scn)
    return {r.check_name: r for r in checks.suite_states(scn)}


def test_every_states_check_passes_unplanted(monkeypatch):
    passed = states_rows(monkeypatch)
    assert list(passed) == [check for check, _ in STATES_PLANTS]
    assert all(row.passed for row in passed.values())


@pytest.mark.parametrize("check, plant", STATES_PLANTS, ids=[check for check, _ in STATES_PLANTS])
def test_a_defect_in_a_states_route_fails_the_check(monkeypatch, check, plant):
    row = states_rows(monkeypatch, plant)[check]
    assert not row.passed, row


def fcs_seen_by_checks(monkeypatch, **names):
    """Give ``checks`` the fcs module with ``names`` replaced; every other
    caller keeps the true one."""
    module = types.ModuleType(fcsmod.__name__)
    module.__dict__.update(vars(fcsmod), **names)
    monkeypatch.setattr(checks, "fcsmod", module)


def fcs_at_otherwise(change):
    """A plant that has ``checks`` read ``change(fcs_at(scn, t), scn, t)``."""
    def plant(monkeypatch, scn):
        fcs_seen_by_checks(monkeypatch, fcs_at=lambda s, t: change(fcsmod.fcs_at(s, t), s, t))
    return plant


def oracle_at_hot_beta(monkeypatch, scn):
    monkeypatch.setattr(checks, "two_time_reservoir_oracle",
                        lambda s, t: two_time_reservoir_oracle(at_beta(s, HOT * s.beta), t))


def flux_at_hot_beta(monkeypatch, scn):
    monkeypatch.setattr(checks, "delta_q_flux",
                        lambda s, t, tol: delta_q_flux(at_beta(s, HOT * s.beta), t, tol))


def direct_at_hot_beta(monkeypatch, scn):
    monkeypatch.setattr(checks, "delta_q_direct", lambda s, t: delta_q_direct(at_beta(s, HOT * s.beta), t))


def evolved_at_another_coupling(monkeypatch, scn):
    # U(t) generated by H_free + HOT lam V, read against lam V
    scn.__dict__["_eig_coupled"] = scn.with_lam(HOT * scn.lam)._eig_coupled


def reservoir_flux_scaled(monkeypatch, scn):
    scn.__dict__["phi_res"] = HOT * scn.phi_res


def coupling_kept_at_lam_zero(monkeypatch, scn):
    scn.__dict__["with_lam"] = lambda lam: scn


def sector_vectors_scaled(monkeypatch, scn):
    # eigenvectors that are not unit vectors: U~(0) = (1 + EPS)^2 on every sector
    scn.__dict__["_free_basis_sectors"] = [s._replace(a=(1 + EPS) * s.a) for s in scn._free_basis_sectors]


def dyson_two_orders_short(monkeypatch, scn):
    monkeypatch.setattr(checks, "dyson_cocycle", lambda s, t, k, tol: dyson_cocycle(s, t, k - 2, tol))


weights_scaled = fcs_at_otherwise(lambda fa, s, t: dataclasses.replace(fa, weights=(1 + EPS) * fa.weights))
# W of a later time, filed under t: the Liouvillean side still evolves to t
weights_at_a_later_time = fcs_at_otherwise(lambda fa, s, t: dataclasses.replace(fcsmod.fcs_at(s, HOT * t), t=t))


def atoms_displaced(fa, s, t):
    # the merged atoms only; W, which the contour reads, is the true one
    mu = fa.reservoir_measure
    fa.__dict__["reservoir_measure"] = AtomicMeasure(HOT * mu.locations, mu.weights)
    return fa


# (check, plant): one route of the check reads a defective name or cache
FCS_PLANTS = [
    ("reservoir_fcs_two_route", oracle_at_hot_beta),
    ("probability_mass", weights_scaled),
    ("mean_identity", flux_at_hot_beta),
    ("exchange_balance", evolved_at_another_coupling),
    ("flux_vs_direct", direct_at_hot_beta),
    ("operator_balance", reservoir_flux_scaled),
    ("half_line_identity", weights_at_a_later_time),
    ("strip_growth_bound", weights_scaled),
    ("moment_consistency", fcs_at_otherwise(atoms_displaced)),
    ("system_delta_uncoupled", coupling_kept_at_lam_zero),
    ("reservoir_delta_uncoupled", coupling_kept_at_lam_zero),
    ("system_delta_instant", sector_vectors_scaled),
    ("reservoir_delta_instant", sector_vectors_scaled),
    ("dyson_truncation_bound", dyson_two_orders_short),
]


def fcs_rows(monkeypatch, plant=None) -> dict:
    scn = chain3()
    if plant is not None:
        plant(monkeypatch, scn)
    return {r.check_name: r for r in checks.suite_fcs(scn)}


def test_every_fcs_check_passes_unplanted(monkeypatch):
    passed = fcs_rows(monkeypatch)
    assert set(passed) == {check for check, _ in FCS_PLANTS} | {"char_conjugate_symmetry"}
    assert all(row.passed for row in passed.values())


@pytest.mark.parametrize("check, plant", FCS_PLANTS, ids=[check for check, _ in FCS_PLANTS])
def test_a_defect_in_an_fcs_route_fails_the_check(monkeypatch, check, plant):
    row = fcs_rows(monkeypatch, plant)[check]
    assert not row.passed, row


def test_char_conjugate_symmetry_is_moved_by_no_defect(monkeypatch):
    # a blind spot: F(-i gamma / beta) is the conjugate of F(i gamma / beta) for any real W
    assert fcs_rows(monkeypatch, weights_at_a_later_time)["char_conjugate_symmetry"].residual == 0.0
