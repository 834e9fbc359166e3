"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The finite-(t, lambda) identities are exact up to stated tolerances;
the long-time/weak-coupling behaviour is checked as a convergence trend on
chain reservoirs of growing size.
"""

import time

import numpy as np
import pytest

from fcslab.checks import CHECKS
from fcslab.dynamics import (
    balance_check,
    delta_q_flux,
    dyson_cocycle,
    dyson_error_bound,
    exact_cocycle,
)
from fcslab.fcs import (
    default_gamma_grid,
    derivative_moments,
    fcs_at,
    half_line_identity_check,
    reservoir_fcs,
    strip_bounds_check,
    system_char_limit,
    system_fcs,
)
from fcslab.linalg import (
    _max_residual,
    dagger,
    hs_inner,
    hs_norm,
    op_norm,
    positive_sqrt,
)
from fcslab.modular import (
    Liouvilleans,
    modular_pair,
    perturbed_gibbs_vector,
    relative_modular,
)
from fcslab.scenarios import chain_scenario, config_to_scenario, random_scenario
from fcslab.states import gibbs, kms_defect, random_hermitian

from test_fcs import match_atoms, reservoir_two_time_oracle
from test_scenarios import shipped_config


def _verdict(num, name, ok, detail=""):
    print(f"criterion {num:2d} [{name}]: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def scenario_suite():
    """25 scenarios with d_S in {2,3}, d_R in {2,4,8}, lam in [0,0.5], t in [0,5]."""
    suite = []
    master = np.random.default_rng(715)
    dims = [(ds, dr) for ds in (2, 3) for dr in (2, 4, 8)]
    for k in range(25):
        d_s, d_r = dims[k % len(dims)]
        lam = 0.0 if k == 0 else float(master.uniform(0.0, 0.5))
        t = 0.0 if k == 1 else float(master.uniform(0.0, 5.0))
        scn = random_scenario(np.random.default_rng(9000 + k), d_s, d_r, lam=lam)
        suite.append((scn, t))
    return suite


def test_criterion_1_modular_vs_protocol(scenario_suite):
    start = time.monotonic()
    for scn, t in scenario_suite:
        mu = reservoir_fcs(fcs_at(scn, t)).measure
        match_atoms(mu, reservoir_two_time_oracle(scn, t), tol=1e-10)
    elapsed = time.monotonic() - start
    _verdict(1, "modular-vs-protocol equivalence", elapsed < 30.0,
             f"(25 scenarios, atoms within 1e-10, {elapsed:.1f}s)")


def test_criterion_2_mean_identity(scenario_suite):
    def residuals():
        for scn, t in scenario_suite:
            mean_r = reservoir_fcs(fcs_at(scn, t)).mean
            _, dq_r = delta_q_flux(scn, t, quad_tol=1e-8)
            yield abs(mean_r - dq_r)
    worst = _max_residual(residuals())
    _verdict(2, "mean identity", worst <= 1e-7, f"(max residual {worst:.2e})")


def test_criterion_3_balance_identity(scenario_suite):
    worst = _max_residual(balance_check(scn, t) / scn.energy_scale for scn, t in scenario_suite)
    _verdict(3, "exchange balance", worst <= 1e-10, f"(max scaled residual {worst:.2e})")


def test_a_nan_residual_fails_a_criterion(scenario_suite, monkeypatch):
    # a NaN balance residual on the middle scenario fails criterion 3
    original, calls = balance_check, []

    def nan_in_the_middle(scn, t):
        calls.append(t)
        return float("nan") if len(calls) == len(scenario_suite) // 2 + 1 else original(scn, t)

    monkeypatch.setitem(globals(), "balance_check", nan_in_the_middle)
    with pytest.raises(AssertionError, match="criterion 3"):
        test_criterion_3_balance_identity(scenario_suite)
    assert len(calls) == len(scenario_suite)


def test_criterion_4_operator_balance():
    from fcslab.fcs import operator_balance_check

    def residuals():
        for k in range(10):
            d_r = 2 if k % 2 == 0 else 4
            scn = random_scenario(np.random.default_rng(4400 + k), 2, d_r)
            yield operator_balance_check(scn, 1.0 + 0.2 * k, quad_tol=1e-10)
    worst = _max_residual(residuals())
    _verdict(4, "operator-level balance", worst <= 1e-6, f"(max residual {worst:.2e})")


def test_criterion_5_half_line_identity(scenario_suite):
    grid = (-2.0, -1.0, 0.0, 1.0, 2.0)
    worst = _max_residual(half_line_identity_check(fcs_at(scn, t), grid) for scn, _ in scenario_suite[:10] for t in grid)
    _verdict(5, "half-line identity", worst <= 1e-8, f"(max residual {worst:.2e})")


def test_criterion_6_strip_bounds(scenario_suite):
    grid = np.array(
        [a + 1j * b for a in np.linspace(0.0, 1.0, 5) for b in np.linspace(-2.0, 2.0, 5)]
    )
    inner_tol = CHECKS["strip_growth_bound"].inner_tol
    worst = float(np.max([strip_bounds_check(fcs_at(scn, t), grid, inner_tol) for scn, t in scenario_suite]))  # signed
    _verdict(6, "strip growth bounds", worst <= 0.0, f"(max violation {worst:.2e})")


def test_criterion_7_modular_suite():
    rng = np.random.default_rng(77)

    def residuals():
        h = random_hermitian(4, rng)
        rho_b = gibbs(h, 1.3)
        pairs = [(random_hermitian(4, rng), random_hermitian(4, rng)) for _ in range(100)]
        yield kms_defect(rho_b, h, 1.3, pairs)

        scn = random_scenario(np.random.default_rng(78), 2, 4, lam=0.35)
        d = scn.dim
        ms = modular_pair(scn.rho_eq)
        omega = ms.omega

        def rand():
            return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))

        for _ in range(25):
            x, y, a, b = rand(), rand(), rand(), rand()
            # polar-decomposition identities
            yield abs(hs_inner(ms.conjugation(x), ms.conjugation(y)) - hs_inner(y, x))
            yield hs_norm(ms.conjugation(ms.conjugation(x)) - x)
            yield hs_norm(ms.commutant_star(ms.star(x)) - ms.delta(x)) / hs_norm(x)
            lhs = ms.conjugation(ms.delta_power(0.5, ms.conjugation(x)))
            yield hs_norm(lhs - ms.delta_power(-0.5, x)) / hs_norm(x)
            yield hs_norm(ms.star(a @ omega) - dagger(a) @ omega) / hs_norm(a)
            # commutation of conjugated observables with the algebra
            jaj = lambda z: ms.conjugation(a @ ms.conjugation(z))
            yield hs_norm(jaj(b @ x) - b @ jaj(x)) / hs_norm(x)

        rel = relative_modular(scn.rho_init, scn.rho_eq)
        for _ in range(25):
            a = rand()
            yield abs(hs_inner(omega, rel.apply(a @ omega)) - np.trace(scn.rho_init @ a))

        lv = Liouvilleans(scn)
        for _ in range(25):
            x = rand()
            yield hs_norm(lv.coupled(x) - lv.coupled_decomposed(x)) / hs_norm(x)

        vec = perturbed_gibbs_vector(scn)
        yield hs_norm(lv.coupled(vec))
        yield hs_norm(vec - positive_sqrt(gibbs(scn.h_coupled, scn.beta)))

    worst = _max_residual(residuals())
    _verdict(7, "modular suite", worst <= 1e-10, f"(max residual {worst:.2e})")


def test_criterion_8_trivial_limits():
    scenarios = [config_to_scenario(shipped_config(n)).scenario
                 for n in ("qubit_qubit", "qubit_chain3", "qutrit_chain2")]
    scenarios.append(chain_scenario(2))

    def residuals():
        for scn in scenarios:
            for variant, t in ((scn.with_lam(0.0), 2.5), (scn, 0.0)):
                for mu in (system_fcs(fcs_at(variant, t)).measure, reservoir_fcs(fcs_at(variant, t)).measure):
                    ok = len(mu) == 1 and abs(mu.locations[0]) <= 1e-12
                    yield abs(mu.weights[0] - 1.0) if ok else 1.0
    worst = _max_residual(residuals())
    _verdict(8, "trivial limits are point masses", worst <= 1e-12,
             f"(max weight defect {worst:.2e})")


def test_criterion_9_dyson_truncation():
    scn = random_scenario(np.random.default_rng(99), 2, 3, lam=0.4)
    t = 1.0 / (abs(scn.lam) * op_norm(scn.v))  # lam ||V|| t = 1
    exact = exact_cocycle(scn, t)
    errors = []
    ok = True
    for order in range(1, 7):
        err = op_norm(dyson_cocycle(scn, t, order) - exact)
        ok = ok and err <= dyson_error_bound(scn, t, order) + 1e-8
        errors.append(err)
    monotone = all(e2 < e1 for e1, e2 in zip(errors, errors[1:]))
    _verdict(9, "dyson truncation envelope", ok and monotone,
             f"(errors {['%.1e' % e for e in errors]})")


def test_criterion_10_convergence_trend():
    start = time.monotonic()
    plateau_ts = np.linspace(10.0, 30.0, 9)
    results = {}
    for n in (3, 6):
        scn = chain_scenario(n, lam=0.2, beta=1.0)
        gammas = default_gamma_grid(scn)
        limit = np.array([system_char_limit(scn, g) for g in gammas])

        def distance(t):
            res = reservoir_fcs(fcs_at(scn, t), gamma_grid=gammas)
            vals = np.array([v for _, v in res.char_samples])
            return float(np.max(np.abs(vals - limit)))

        baseline = distance(0.0)
        plateau = float(np.mean([distance(t) for t in plateau_ts]))
        results[n] = (baseline, plateau)
    elapsed = time.monotonic() - start
    b3, p3 = results[3]
    b6, p6 = results[6]
    ok = p6 < b6 and p3 < b3 and p6 <= p3 and elapsed < 300.0
    _verdict(10, "convergence trend", ok,
             f"(baseline {b6:.3f}; plateau n=3 {p3:.3f}, n=6 {p6:.3f}; {elapsed:.0f}s)")


def test_criterion_11_moment_consistency(scenario_suite):
    worst = 0.0
    for scn, t in scenario_suite:
        fa = fcs_at(scn, t)
        atom_moments = reservoir_fcs(fa).moments
        deriv = derivative_moments(fa)
        worst = max(worst, float(np.max(np.abs(atom_moments - deriv))))
    _verdict(11, "moment route consistency", worst <= 1e-6, f"(max gap {worst:.2e})")
