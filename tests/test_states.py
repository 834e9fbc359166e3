import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcslab.linalg import NumericalError, op_norm
from fcslab.states import (
    MERGE_TOL,
    WEIGHT_DROP_TOL,
    AtomicMeasure,
    entropy,
    gibbs,
    gibbs_variational_check,
    kms_defect,
    maximally_mixed,
    measure,
    random_density,
    random_hermitian,
)

SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def from_points_loop(locations, weights):
    """Reference: the sequential merge loop that AtomicMeasure.from_points
    replaced.  Returns (locations, weights, dropped mass) of the merged atoms."""
    locations = np.asarray(locations, dtype=float).ravel()
    weights = np.clip(np.asarray(weights, dtype=float).ravel(), 0.0, None)
    order = np.argsort(locations)
    locations, weights = locations[order], weights[order]
    locs, wts, dropped = [], [], 0.0
    i = 0
    while i < len(locations):
        j = i
        while j + 1 < len(locations) and locations[j + 1] - locations[j] <= MERGE_TOL:
            j += 1
        w = weights[i : j + 1].sum()
        if w > WEIGHT_DROP_TOL:
            locs.append(float(np.dot(locations[i : j + 1], weights[i : j + 1]) / w))
            wts.append(float(w))
        else:
            dropped += w
        i = j + 1
    return np.array(locs), np.array(wts), dropped


def assert_matches_loop(locations, weights, dropped=None):
    """Same atoms and dropped mass as the loop up to summation order:
    locations to 1e-15 (relative beyond |x| = 1), weights to 1e-15 relative,
    dropped mass to 1e-14 relative (a sum of at most 40 nonnegative terms,
    40 eps < 1e-14).  ``dropped``, if given, is the dropped mass expected
    exactly."""
    mu = AtomicMeasure.from_points(locations, weights)
    ref_x, ref_w, ref_dropped = from_points_loop(locations, weights)
    assert len(mu) == len(ref_x)
    assert np.all(np.abs(mu.locations - ref_x) <= 1e-15 * np.maximum(1.0, np.abs(ref_x)))
    assert np.all(np.abs(mu.weights - ref_w) <= 1e-15 * ref_w)
    assert abs(mu.dropped_mass - ref_dropped) <= 1e-14 * ref_dropped
    assert dropped is None or mu.dropped_mass == dropped
    return mu


class TestGibbs:
    def test_two_level_closed_form(self):
        # independent closed form: weights (1, e^-1)/(1 + e^-1)
        z = 1.0 + np.exp(-1.0)
        rho = gibbs(np.diag([0.0, 1.0]).astype(complex), 1.0)
        assert np.allclose(rho, np.diag([1.0 / z, np.exp(-1.0) / z]), atol=1e-14)
        assert abs(rho[0, 0].real - 0.7310585786300049) <= 1e-12

    def test_infinite_temperature(self):
        assert np.allclose(gibbs(np.diag([0.0, 1.0, 3.0]).astype(complex), 0.0), np.eye(3) / 3)

    def test_hamiltonian_proportional_to_identity(self):
        assert np.allclose(gibbs(np.eye(4, dtype=complex), 7.3), np.eye(4) / 4)

    def test_overflow_guard(self):
        rho = gibbs(np.diag([0.0, 2000.0]).astype(complex), 1.0)
        assert np.allclose(rho, np.diag([1.0, 0.0]))

    def test_commutes_with_hamiltonian(self, rng):
        h = random_hermitian(4, rng)
        rho = gibbs(h, 1.3)
        assert op_norm(h @ rho - rho @ h) <= 1e-12

    def test_energy_monotone_in_beta(self, rng):
        h = random_hermitian(4, rng)
        betas = np.linspace(-3.0, 3.0, 25)
        energies = [np.trace(h @ gibbs(h, b)).real for b in betas]
        assert all(e2 <= e1 + 1e-12 for e1, e2 in zip(energies, energies[1:]))

    def test_low_temperature_limits(self, rng):
        h = random_hermitian(3, rng)
        w = np.linalg.eigvalsh(h)
        gap = min(np.diff(w))
        for beta, target in ((40.0, w[0]), (-40.0, w[-1])):
            e = np.trace(h @ gibbs(h, beta)).real
            assert abs(e - target) <= 3 * np.exp(-abs(beta) * gap) + 1e-12


class TestEntropy:
    def test_maximally_mixed(self):
        for d in (2, 3, 5):
            assert abs(entropy(maximally_mixed(d)) - np.log(d)) <= 1e-12

    def test_pure_state(self, rng):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        assert entropy(np.outer(psi, psi.conj())) <= 1e-12

    def test_direct_formula(self):
        # oracle: -(3/4 log 3/4 + 1/4 log 1/4)
        expected = -(0.75 * np.log(0.75) + 0.25 * np.log(0.25))
        assert abs(expected - 0.5623351446188083) <= 1e-12
        assert abs(entropy(np.diag([0.75, 0.25]).astype(complex)) - expected) <= 1e-12

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 6))
    def test_bounds(self, seed, d):
        rho = random_density(d, np.random.default_rng(seed))
        s = entropy(rho)
        assert -1e-12 <= s <= np.log(d) + 1e-12


class TestVariational:
    def test_equality_at_thermal(self, rng):
        h = random_hermitian(3, rng)
        rep = gibbs_variational_check(h, 1.2, trials=30, rng_seed=5)
        assert abs(rep.equality_gap) <= 1e-10
        assert rep.max_violation <= 1e-10

    def test_pure_ground_state_gap(self):
        # oracle: gap = log(1 + e^-1) for nu = ground state of diag(0, 1)
        h = np.diag([0.0, 1.0]).astype(complex)
        nu = np.diag([1.0, 0.0]).astype(complex)
        log_z = np.log(1.0 + np.exp(-1.0))
        value = np.trace(nu @ (-h)).real + entropy(nu)
        assert abs((log_z - value) - np.log1p(np.exp(-1.0))) <= 1e-12
        rep = gibbs_variational_check(h, 1.0, trials=5, rng_seed=0)
        assert rep.max_violation <= 1e-10

    def test_zero_hamiltonian_reduces_to_entropy_bound(self, rng):
        rep = gibbs_variational_check(np.zeros((3, 3), dtype=complex), 1.0, trials=40, rng_seed=2)
        # log tr e^0 = log d; the functional is S(nu) <= log d
        assert rep.max_violation <= 1e-10


class TestMeasure:
    def test_eigenstate_untouched(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        res = measure(rho, SZ)
        assert len(res.outcomes) == 1
        assert res.outcomes.locations[0] == pytest.approx(1.0)
        assert np.allclose(res.post_states[0], rho)

    def test_mixed_state_sz(self):
        res = measure(maximally_mixed(2), SZ)
        assert np.allclose(np.sort(res.outcomes.locations), [-1.0, 1.0])
        assert np.allclose(res.outcomes.weights, [0.5, 0.5])
        for loc, post in zip(res.outcomes.locations, res.post_states):
            expected = np.diag([1.0, 0.0]) if loc > 0 else np.diag([0.0, 1.0])
            assert np.allclose(post, expected)

    def test_scalar_observable(self, rng):
        rho = random_density(3, rng)
        res = measure(rho, 2.5 * np.eye(3, dtype=complex))
        assert len(res.outcomes) == 1
        assert res.outcomes.locations[0] == pytest.approx(2.5)
        assert res.outcomes.weights[0] == pytest.approx(1.0)

    def test_expectation_matches_trace(self, rng):
        rho = random_density(4, rng)
        a = random_hermitian(4, rng)
        res = measure(rho, a)
        assert abs(res.expectation - np.trace(rho @ a).real) <= 1e-12
        assert abs(res.outcomes.mass - 1.0) <= 1e-12


class TestSpectralMeasure:
    def test_polynomial_integration(self, rng):
        rho = random_density(5, rng)
        a = random_hermitian(5, rng)
        mu = measure(rho, a).outcomes  # the spectral measure of (a, rho)
        lhs = mu.moment(3) - 2 * mu.moment(1)
        rhs = np.trace(rho @ (a @ a @ a - 2 * a)).real
        assert abs(lhs - rhs) <= 1e-10


class TestKmsDefect:
    def test_vanishes_at_thermal(self, rng):
        h = random_hermitian(3, rng)
        rho = gibbs(h, 1.7)
        pairs = [(random_hermitian(3, rng), random_hermitian(3, rng)) for _ in range(100)]
        assert kms_defect(rho, h, 1.7, pairs) <= 1e-10

    def test_detects_wrong_temperature(self, rng):
        h = np.diag([0.0, 1.0, 2.3]).astype(complex)  # nondegenerate
        rho = gibbs(h, 0.5)
        pairs = [(random_hermitian(3, rng), random_hermitian(3, rng)) for _ in range(20)]
        assert kms_defect(rho, h, 1.5, pairs) > 1e-6

    def test_identity_pair_contributes_zero(self, rng):
        h = random_hermitian(3, rng)
        eye = np.eye(3, dtype=complex)
        assert kms_defect(random_density(3, rng), h, 1.0, [(eye, eye)]) <= 1e-12


class TestAtomicMeasure:
    def test_merging_preserves_mean(self):
        mu = AtomicMeasure.from_points(
            np.array([0.0, 1e-10, 1.0]), np.array([0.3, 0.3, 0.4])
        )
        assert len(mu) == 2
        assert abs(mu.mass - 1.0) <= 1e-15
        assert abs(mu.mean - (0.3 * 1e-10 + 0.4)) <= 1e-15

    def test_drops_negligible_weights(self):
        mu = AtomicMeasure.from_points(np.array([0.0, 5.0]), np.array([1.0, 1e-16]))
        assert len(mu) == 1

    def test_dropped_mass_is_recorded(self):
        # three sub-tolerance atoms, two of them one merged cluster still below
        # WEIGHT_DROP_TOL; a cluster whose sum exceeds it is kept whole
        locations = np.array([0.0, 1.0, 2.0, 2.0 + 1e-12, 3.0, 3.0 + 1e-12])
        weights = np.array([1.0 - 1.2e-13, 5e-14, 2e-14, 3e-14, 6e-14, 6e-14])
        mu = AtomicMeasure.from_points(locations, weights)
        assert len(mu) == 2 and mu.weights[1] == 1.2e-13
        assert mu.dropped_mass == 5e-14 + (2e-14 + 3e-14)
        assert mu.mass + mu.dropped_mass == pytest.approx(weights.sum(), abs=1e-16)
        assert AtomicMeasure.from_points(np.array([0.0]), np.array([1.0])).dropped_mass == 0.0
        assert AtomicMeasure(np.array([0.0]), np.array([1.0])).dropped_mass == 0.0

    def test_measurement_records_its_dropped_outcomes(self):
        rho = np.diag([1.0 - 4e-14, 4e-14]).astype(complex)
        outcomes = measure(rho, SZ).outcomes
        assert len(outcomes) == 1 and outcomes.dropped_mass == pytest.approx(4e-14, rel=1e-6)

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError, match="negative"):
            AtomicMeasure.from_points(np.array([0.0]), np.array([-0.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["locations", "weights"])
    def test_non_finite_point_raises_numerical_error(self, bad, where):
        # a NaN weight passes the negativity check and fails mass > WEIGHT_DROP_TOL,
        # so without the guard every atom would be dropped without a word
        points = {"locations": np.array([0.0, 1.0]), "weights": np.array([0.5, 0.5])}
        points[where][1] = bad
        with pytest.raises(NumericalError, match="non-finite"):
            AtomicMeasure.from_points(points["locations"], points["weights"])

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 20))
    def test_merge_separation_invariant(self, seed, n):
        # normal locations scaled so that MERGE_TOL plays the part of a 0.3 gap
        g = np.random.default_rng(seed)
        mu = assert_matches_loop(g.normal(size=n) * (MERGE_TOL / 0.3), g.uniform(0.1, 1.0, size=n))
        if len(mu) > 1:
            assert np.min(np.diff(mu.locations)) > MERGE_TOL * 0.999
        assert abs(mu.mass - sum(mu.weights)) <= 1e-12

    @pytest.mark.parametrize(
        "locations, weights, kw",
        [
            ([0.3, -1.0, 0.3, -1.0, 0.3], [0.1, 0.15, 0.2, 0.25, 0.3], {}),  # exact ties
            (0.2 + 0.999e-8 * np.arange(6), np.linspace(0.1, 0.6, 6), {}),  # chain under tol
            (0.2 + 1.001e-8 * np.arange(6), np.linspace(0.1, 0.6, 6), {}),  # gaps over tol
            (0.2 + np.cumsum([0, 0.999e-8, 1.001e-8, 0.999e-8, 0.999e-8, 1.001e-8]),
             np.full(6, 1 / 6), {}),  # chains broken by gaps just over tol
            ([-0.5, 0.0, 0.5, 0.5], [0.0, 0.5, 0.0, 0.5], {}),  # zero weights
            ([-0.5, 0.0, 0.5], [0.0, 0.0, 1.0], {"dropped": 0.0}),  # zero-mass atoms dropped
            ([0.0, 0.1, 0.1, 0.2], [WEIGHT_DROP_TOL, 0.6 * WEIGHT_DROP_TOL,
                                    0.6 * WEIGHT_DROP_TOL, 1.0],
             {"dropped": WEIGHT_DROP_TOL}),  # weights at WEIGHT_DROP_TOL
            ([0.7], [1.0], {}),  # single point
            ([], [], {}),  # empty
        ],
    )
    def test_matches_loop_on_edge_cases(self, locations, weights, kw):
        assert_matches_loop(locations, weights, **kw)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 40))
    def test_matches_loop_reference(self, seed, n):
        g = np.random.default_rng(seed)
        # Gaps of exact ties, just under and just over MERGE_TOL, and wide.
        gaps = g.choice([0.0, 0.999 * MERGE_TOL, 1.001 * MERGE_TOL, 0.05], size=n)
        locations = g.permutation(np.cumsum(gaps) - 0.5)
        weights = g.uniform(0.0, 1.0, size=n)
        weights[g.random(n) < 0.2] = 0.0
        weights[g.random(n) < 0.2] = WEIGHT_DROP_TOL
        assert_matches_loop(locations, weights)

    def test_char_at_zero_is_mass(self, rng):
        mu = AtomicMeasure.from_points(rng.normal(size=5), rng.uniform(0.1, 1, size=5))
        assert mu.char(0.0) == pytest.approx(mu.mass)
