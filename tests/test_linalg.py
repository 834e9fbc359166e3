from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcslab import linalg
from fcslab.linalg import (
    NonHermitianError,
    NotPositiveError,
    SpectrumDomainError,
    assert_hermitian,
    dagger,
    eig_hermitian,
    eigenvalue_clusters,
    eigh_blocks,
    exp_complex,
    exp_i,
    expm_hermitian,
    hs_norm,
    is_hermitian,
    op_norm,
    positive_sqrt,
    rayleigh_quotients,
    tensor,
)
from fcslab.modular import cone_membership, relative_modular
from fcslab.scenarios import chain_scenario, parse_config
from fcslab.states import random_hermitian

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


class TestEigHermitian:
    def test_degenerate_diagonal_merges(self):
        dec = eig_hermitian(np.diag([1.0, 1.0, 2.0]).astype(complex))
        assert np.allclose(dec.eigenvalues, [1.0, 2.0])
        assert np.allclose(dec.projectors[0], np.diag([1, 1, 0]))
        assert np.allclose(dec.projectors[1], np.diag([0, 0, 1]))

    def test_pauli_x_closed_form(self):
        dec = eig_hermitian(SX)
        assert np.allclose(dec.eigenvalues, [-1.0, 1.0])
        assert np.allclose(dec.projectors[0], (np.eye(2) + SX) / 2) or np.allclose(
            dec.projectors[0], (np.eye(2) - SX) / 2
        )
        # eigenvalue -1 comes first, so its projector is (1 - sx)/2
        assert np.allclose(dec.projectors[0], (np.eye(2) - SX) / 2, atol=1e-12)
        assert np.allclose(dec.projectors[1], (np.eye(2) + SX) / 2, atol=1e-12)

    @pytest.mark.parametrize("gap, n_levels", [(2e-9, 2), (6e-9, 3)])
    def test_default_tolerance_is_relative_to_the_norm(self, gap, n_levels):
        # ||a|| = 5 clusters gaps below 5e-9, whichever end of the spectrum
        # carries the norm; eig_hermitian's levels are eigenvalue_clusters'
        for w in ([1e-3, 5.0, 5.0 + gap], [-5.0 - gap, -5.0, 1e-3]):
            dec = eig_hermitian(np.diag(w).astype(complex))
            assert len(dec.eigenvalues) == n_levels
            ranks = [round(np.trace(p).real) for p in dec.projectors]
            groups, levels = eigenvalue_clusters(np.array(w))
            assert [len(g) for g in groups] == ranks
            assert levels.tolist() == dec.eigenvalues.tolist() == [np.mean(np.array(w)[g]) for g in groups]

    def test_identity_single_cluster(self):
        dec = eig_hermitian(np.eye(5, dtype=complex))
        assert len(dec.projectors) == 1
        assert np.allclose(dec.eigenvalues, [1.0])
        assert np.allclose(dec.projectors[0], np.eye(5))

    def test_rejects_non_hermitian_with_norm(self):
        bad = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(NonHermitianError, match="asymmetry"):
            eig_hermitian(bad)

    def test_projector_invariants(self, rng):
        a = random_hermitian(6, rng)
        dec = eig_hermitian(a)
        total = np.zeros((6, 6), dtype=complex)
        for p in dec.projectors:
            assert op_norm(p @ p - p) <= 1e-12
            assert op_norm(p - dagger(p)) <= 1e-12
            total += p
        for i, p in enumerate(dec.projectors):
            for q in dec.projectors[i + 1 :]:
                assert op_norm(p @ q) <= 1e-12
        assert op_norm(total - np.eye(6)) <= 1e-12
        assert op_norm(dec.reconstruct() - a) <= 1e-12 * op_norm(a)


def permuted_block_diagonal(rng, eigenvalues, sizes):
    """A random permutation of a block-diagonal Hermitian matrix with the given
    block sizes and spectrum, and the index set of each block after the permutation."""
    d = sum(sizes)
    a = np.zeros((d, d), dtype=complex)
    start = 0
    for size in sizes:
        q, _ = np.linalg.qr(rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size)))
        a[start:start + size, start:start + size] = (q * eigenvalues[start:start + size]) @ dagger(q)
        start += size
    perm = rng.permutation(d)
    inverse = np.argsort(perm)
    starts = np.cumsum([0, *sizes])
    blocks = [np.sort(inverse[lo:hi]) for lo, hi in zip(starts[:-1], starts[1:])]
    return a[np.ix_(perm, perm)], blocks


class TestEighBlocks:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.integers(1, 5), min_size=1, max_size=5),
        st.booleans(),
    )
    def test_decomposes_permuted_block_diagonal(self, seed, sizes, degenerate):
        rng = np.random.default_rng(seed)
        d = sum(sizes)
        # degenerate: eigenvalues drawn from {-1, 0, 1, 2}, so ties fall across blocks
        eigenvalues = rng.integers(-1, 3, size=d).astype(float) if degenerate else rng.normal(size=d)
        a, blocks = permuted_block_diagonal(rng, eigenvalues, sizes)
        w, v = eigh_blocks(a)
        scale = max(1.0, op_norm(a))
        assert np.all(np.diff(w) >= 0)
        assert np.max(np.abs(w - np.linalg.eigvalsh(a))) <= 1e-12 * scale
        assert np.max(np.abs((v * w) @ dagger(v) - a)) <= 1e-12 * scale
        assert np.max(np.abs(dagger(v) @ v - np.eye(d))) <= 1e-12
        # every eigenvector lives on exactly one block
        on_block = np.array([[np.any(v[idx, k] != 0) for idx in blocks] for k in range(d)])
        assert np.all(on_block.sum(axis=1) == 1)

    def test_single_block_is_bitwise_eigh(self, rng):
        a = random_hermitian(7, rng)
        w, v = eigh_blocks(a)
        w_ref, v_ref = np.linalg.eigh(a)
        assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref)

    @pytest.mark.parametrize("sizes", [[1, 2, 3], [5]])
    def test_blocks_reach_eigh_in_the_input_dtype(self, rng, sizes, monkeypatch):
        d = sum(sizes)
        real = permuted_block_diagonal(rng, rng.normal(size=d), sizes)[0].real
        dtypes = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda b: dtypes.append(b.dtype) or eigh(b))
        for a in (real, real.astype(complex)):  # a complex-typed real matrix is diagonalized as complex
            dtypes.clear()
            w, v = eigh_blocks(a)
            assert dtypes == [a.dtype] * len(sizes) and v.dtype == a.dtype and w.dtype == np.dtype(float)
            assert np.max(np.abs((v * w) @ dagger(v) - a)) <= 1e-12
            assert np.max(np.abs(w - np.linalg.eigvalsh(real))) <= 1e-12

    def test_each_block_stays_real_and_assembles_bitwise(self, rng):
        real, blocks = permuted_block_diagonal(rng, rng.normal(size=6), [1, 2, 3])
        a = real.real
        w, v = eigh_blocks(a)
        assert v.dtype == np.dtype(float)
        for idx in blocks:  # each block's own eigh, bitwise
            cols = np.flatnonzero(np.any(v[idx] != 0, axis=0))
            w_k, v_k = np.linalg.eigh(a[np.ix_(idx, idx)])
            assert np.array_equal(w[cols], w_k) and np.array_equal(v[np.ix_(idx, cols)], v_k)

    def test_one_eigh_per_block(self, rng, monkeypatch):
        a, _ = permuted_block_diagonal(rng, rng.normal(size=6), [1, 2, 3])
        shapes = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda b: shapes.append(b.shape) or eigh(b))
        eigh_blocks(a)
        assert sorted(shapes) == [(1, 1), (2, 2), (3, 3)]

    def test_non_finite_raises_linalg_error(self, rng):
        a, _ = permuted_block_diagonal(rng, rng.normal(size=6), [3, 3])
        for bad in (np.nan, np.inf):
            b = a.copy()
            b[0, 0] = bad
            with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
                eigh_blocks(b)

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_chain_coupling_splits_into_two_parity_blocks(self, n, monkeypatch):
        # H_coupled conserves the parity of sz on the qubit and every chain site
        scn = chain_scenario(n, disorder=0.4, seed=n).with_lam(0.2)
        shapes = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda b: shapes.append(b.shape) or eigh(b))
        eigh_blocks(scn.h_coupled)
        assert shapes == [(scn.dim // 2, scn.dim // 2)] * 2

    @pytest.mark.parametrize("name", ["qubit_qubit", "qubit_chain3", "qubit_chain6", "qutrit_chain2"])
    def test_shipped_configs_split_in_two(self, name, monkeypatch):
        scn = parse_config(Path(__file__).resolve().parent.parent / "configs" / f"{name}.json").scenario
        shapes = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda b: shapes.append(b.shape) or eigh(b))
        scn._eig_coupled
        assert shapes == [(scn.dim // 2, scn.dim // 2)] * 2


@pytest.mark.skipif(np.finfo(np.longdouble).nmant <= np.finfo(float).nmant, reason="no extended precision")
class TestRayleighQuotients:
    @pytest.mark.parametrize("hop", [1.0, 1j])
    def test_path_levels_to_their_rounding(self, hop):
        """The levels 0.75 + 2 cos(pi k / 65) of a 64-site path, against a
        reference in extended precision; the hop i is a gauge of the hop 1.
        eigh's own eigenvalues err by 9.3e-16 here."""
        n = 64
        a = np.diag(np.full(n - 1, hop), 1)
        a = a + dagger(a) + 0.75 * np.eye(n)
        pi = np.arccos(np.longdouble(-1))
        exact = np.sort(0.75 + 2 * np.cos(pi * np.arange(1, n + 1) / (n + 1)))
        w = rayleigh_quotients(a, np.linalg.eigh(a)[1])
        assert w.dtype == np.dtype(float)
        assert np.max(np.abs(w - exact)) <= 2.3e-16  # half an ulp below 4


class TestExpI:
    """exp_i(theta) against exp_complex(1j * theta) in each form a caller uses."""

    def test_bitwise_exp_complex_of_imaginary_argument(self, rng):
        theta = np.concatenate([rng.uniform(-200, 200, 300), rng.normal(size=300) * 1e-12, [0.0, 1e300]])
        assert np.array_equal(exp_i(theta), exp_complex(1j * theta))
        t, s, w = 2.7, 0.3, rng.normal(size=64)
        assert np.array_equal(exp_i(t * w), exp_complex(1j * t * w))
        assert np.array_equal(exp_i(-s * w), exp_complex(-1j * s * w))
        gamma, x = rng.normal(size=41), rng.normal(size=500)
        assert np.array_equal(exp_i(np.multiply.outer(gamma, x)), exp_complex(1j * np.multiply.outer(gamma, x)))
        assert exp_i(0.0) == 1.0 and exp_i(0.0).dtype == complex


class TestExpComplex:
    ULP = 4 * np.finfo(float).eps

    @pytest.mark.parametrize("kind", ["random", "imaginary", "zero"])
    def test_matches_numpy_exp(self, rng, kind):
        shape = (64, 256)
        re = {"random": rng.uniform(-30, 30, shape), "imaginary": np.zeros(shape), "zero": np.zeros(shape)}[kind]
        im = np.zeros(shape) if kind == "zero" else rng.uniform(-200, 200, shape)
        z = re + 1j * im
        ref = np.exp(z)
        got = exp_complex(z)
        assert got.dtype == complex and got.shape == shape
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= self.ULP

    def test_scalars_and_real_input(self, rng):
        assert exp_complex(0.5 + 2j) == pytest.approx(np.exp(0.5 + 2j), rel=self.ULP)
        assert exp_complex(1j * 0.0) == 1.0
        x = rng.normal(size=9)
        assert np.array_equal(exp_complex(x), np.exp(x))


class TestFuncCalc:
    """The functional calculus, ``SpectralDecomposition.apply``."""

    def test_diagonal_sqrt(self):
        out = eig_hermitian(np.diag([1.0, 4.0]).astype(complex)).apply(np.sqrt)
        assert np.allclose(out, np.diag([1.0, 2.0]))

    def test_diagonal_exponential(self):
        out = eig_hermitian(np.diag([0.0, 1.0]).astype(complex)).apply(lambda x: np.exp(-x))
        assert np.allclose(out, np.diag([1.0, np.exp(-1.0)]))

    def test_square_of_pauli_x(self):
        # direct multiply oracle: sx @ sx = identity
        assert np.allclose(SX @ SX, np.eye(2))
        assert np.allclose(eig_hermitian(SX).apply(lambda x: x * x), np.eye(2), atol=1e-12)

    def test_log_at_zero_names_eigenvalue(self):
        with pytest.raises(SpectrumDomainError, match="eigenvalue"):
            eig_hermitian(np.diag([0.0, 1.0]).astype(complex)).apply(
                lambda x: np.log(x) / 1.0 if x > 0 else float("nan"))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_spectral_mapping_polynomial(self, seed):
        a = random_hermitian(4, np.random.default_rng(seed))
        poly = lambda x: 3.0 * x**3 - 2.0 * x + 1.0
        mapped = np.sort(np.linalg.eigvalsh(eig_hermitian(a).apply(poly)))
        direct = np.sort([poly(x) for x in np.linalg.eigvalsh(a)])
        assert np.max(np.abs(mapped - direct)) <= 1e-9

    def test_homomorphism_product(self, rng):
        dec = eig_hermitian(random_hermitian(5, rng))
        f = lambda x: x**2 - 0.5
        g = lambda x: np.cos(x)
        assert op_norm(dec.apply(lambda x: f(x) * g(x)) - dec.apply(f) @ dec.apply(g)) <= 1e-10


class TestPositiveSqrt:
    def test_diagonal(self):
        assert np.allclose(positive_sqrt(np.diag([4.0, 9.0]).astype(complex)), np.diag([2.0, 3.0]))

    def test_identity(self):
        assert np.allclose(positive_sqrt(np.eye(3, dtype=complex)), np.eye(3))

    def test_projector_is_own_root(self):
        p = (np.eye(2) + SX) / 2
        assert np.allclose(p @ p, p)  # projector oracle
        assert np.allclose(positive_sqrt(p), p, atol=1e-12)

    def test_square_reproduces_input(self, rng):
        g = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        a = g @ dagger(g)
        b = positive_sqrt(a)
        assert op_norm(b @ b - a) <= 1e-10 * op_norm(a)
        assert np.linalg.eigvalsh(b)[0] >= -1e-12

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(NotPositiveError, match="-1"):
            positive_sqrt(np.diag([-1.0, 2.0]).astype(complex))


class TestTensorPartialTrace:
    def test_tensor_identity(self):
        assert np.allclose(tensor(np.eye(2), np.eye(3)), np.eye(6))

    def test_tensor_spectra_multiply(self):
        w = np.sort(np.linalg.eigvalsh(tensor(SX, SX)))
        assert np.allclose(w, [-1, -1, 1, 1])

    def test_tensor_keeps_its_factors_dtype(self):
        sx, sy = np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([[0, -1j], [1j, 0]])
        real = tensor(sx, np.eye(2), sx)
        assert real.dtype == np.dtype(float) and np.array_equal(real, np.kron(np.kron(sx, np.eye(2)), sx))
        mixed = tensor(sx, sy, np.eye(2))
        assert mixed.dtype == np.dtype(complex) and np.array_equal(mixed, np.kron(np.kron(sx, sy), np.eye(2)))


class TestNormSpectralCheck:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 8))
    def test_cstar_identity(self, seed, d):
        g = np.random.default_rng(seed)
        a = g.normal(size=(d, d)) + 1j * g.normal(size=(d, d))
        n2 = op_norm(a) ** 2
        assert abs(op_norm(dagger(a) @ a) - n2) <= 1e-10 * n2


class TestExpPow:
    def test_unitary_exponential(self, rng):
        h = random_hermitian(4, rng)
        u = expm_hermitian(h, 1j * 0.7)
        assert op_norm(u @ dagger(u) - np.eye(4)) <= 1e-12

    def test_fractional_power_roundtrip(self, rng):
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        a = g @ dagger(g) + 0.1 * np.eye(3)
        half = relative_modular(a, np.eye(3)).power(0.5, np.eye(3))
        assert op_norm(half @ half - a) <= 1e-10 * op_norm(a)

    def test_singular_inverse_power_rejected(self):
        from fcslab.linalg import RankDeficientError

        with pytest.raises(RankDeficientError):
            relative_modular(np.diag([0.0, 1.0]).astype(complex), np.eye(2)).power(-0.5, np.eye(2))


def test_numerical_errors_share_one_base():
    # a caller tells a numerical failure from bad input by type; the old
    # bases stay, so existing handlers still catch them
    from fcslab.dynamics import QuadratureError
    from fcslab.linalg import NumericalError, RankDeficientError

    for err in (NotPositiveError, RankDeficientError, SpectrumDomainError):
        assert issubclass(err, NumericalError) and issubclass(err, ValueError)
    assert issubclass(QuadratureError, NumericalError) and issubclass(QuadratureError, RuntimeError)
    assert issubclass(NumericalError, ArithmeticError) and not issubclass(NonHermitianError, NumericalError)


# -- the one reducer of check residuals ------------------------------------------

RESIDUALS = st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from([0.0, -0.0])),
                     max_size=12)


class TestMaxResidual:
    @settings(max_examples=200, deadline=None)
    @given(RESIDUALS)
    def test_finite_is_bitwise_the_sequential_max_from_zero(self, residuals):
        expected = 0.0
        for r in residuals:
            expected = max(expected, r)
        assert np.float64(linalg._max_residual(residuals)).tobytes() == np.float64(expected).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(RESIDUALS, st.integers(min_value=0), st.sampled_from([float("nan"), np.float64("nan")]))
    def test_a_nan_anywhere_is_nan(self, residuals, at, nan):
        residuals.insert(at % (len(residuals) + 1), nan)
        assert np.isnan(linalg._max_residual(residuals))
        assert np.isnan(linalg._max_residual(iter(residuals)))

    def test_reads_every_residual_after_a_nan(self):
        seen = []

        def residuals():
            for r in (0.1, float("nan"), 0.2):
                seen.append(r)
                yield r

        assert np.isnan(linalg._max_residual(residuals())) and len(seen) == 3
        assert linalg._max_residual(()) == 0.0


# -- the Hermiticity rule against the two-SVD reference -------------------------


def two_svd_hermitian(a, rtol):
    """Reference verdict: both operator norms taken by full SVDs."""
    return op_norm(a - dagger(a)) <= rtol * max(1.0, op_norm(a))


def two_svd_cone(x, tol):
    """Reference cone verdict: Hermiticity and positivity, both against the
    operator-norm scale."""
    scale = max(1.0, op_norm(x))
    if op_norm(x - dagger(x)) > tol * scale:
        return False
    return bool(np.linalg.eigvalsh((x + dagger(x)) / 2)[0] >= -tol * scale)


def near_threshold(seed, d, norm, herm_factor, pos_factor, rtol):
    """Matrix of norm about ``norm`` whose Hermiticity defect is
    ``herm_factor`` times the threshold rtol * max(1, norm) and whose
    Hermitian part has lowest eigenvalue -pos_factor times that threshold."""
    g = np.random.default_rng(seed)
    threshold = rtol * max(1.0, norm)
    q, _ = np.linalg.qr(g.normal(size=(d, d)) + 1j * g.normal(size=(d, d)))
    w = norm * g.uniform(0.0, 1.0, size=d)
    w[-1] = norm
    w[0] = -pos_factor * threshold
    k = g.normal(size=(d, d)) + 1j * g.normal(size=(d, d))
    k = (k - dagger(k)) / 2
    k /= op_norm(k)  # anti-Hermitian with unit norm: a - a* = herm_factor * threshold * k
    return (q * w) @ dagger(q) + 0.5 * herm_factor * threshold * k


FACTORS = (0.0, 0.3, 0.999, 1.001, 1.5, 3.0, 1000.0)


class TestHermiticityRule:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 8),
        st.floats(-3.0, 4.0),
        st.sampled_from(FACTORS),
        st.sampled_from(FACTORS),
        st.sampled_from((1e-12, 1e-10)),
    )
    def test_verdicts_match_two_svd_rule(self, seed, d, log_norm, herm_f, pos_f, rtol):
        a = near_threshold(seed, d, 10.0**log_norm, herm_f, pos_f, rtol)
        expected = two_svd_hermitian(a, rtol)
        assert is_hermitian(a, rtol) is expected
        if expected:
            assert_hermitian(a, rtol)
        else:
            with pytest.raises(NonHermitianError, match="asymmetry norm"):
                assert_hermitian(a, rtol)
        assert cone_membership(a, rtol) is two_svd_cone(a, rtol)

    @pytest.mark.parametrize("factor", [0.999, 1.001])
    def test_scale_decides_above_unit_norm(self, factor):
        # ||a|| = 1e4: the defect is far above rtol in the HS norm, so only
        # the operator-norm comparison against the scale can pass it.
        a = near_threshold(3, 6, 1e4, factor, 0.0, 1e-12)
        assert hs_norm(a - dagger(a)) > 1e-12
        assert is_hermitian(a) is (factor < 1) is two_svd_hermitian(a, 1e-12)

    def test_constructed_defects_straddle_threshold(self):
        for factor in FACTORS:
            a = near_threshold(5, 4, 20.0, factor, 0.0, 1e-12)
            assert two_svd_hermitian(a, 1e-12) is (factor < 1)

    def test_exactly_hermitian_takes_no_norm(self, monkeypatch):
        # each norm is two BLAS calls that wake OpenBLAS's idle threads
        a = random_hermitian(512, np.random.default_rng(7), scale=10.0)
        perturbed = a.copy()
        perturbed[3, 5] += 1e-14
        defect = perturbed - dagger(perturbed)
        norm_rule = hs_norm(defect) <= 1e-12 or op_norm(defect) <= 1e-12 * max(1.0, op_norm(perturbed))
        assert norm_rule is two_svd_hermitian(perturbed, 1e-12) is True

        def fail(*args):
            pytest.fail("a norm was taken of an exactly Hermitian matrix")

        with monkeypatch.context() as m:
            m.setattr(linalg, "hs_norm", fail)
            m.setattr(linalg, "op_norm", fail)
            assert is_hermitian(a) is True
            assert_hermitian(a)
        assert is_hermitian(perturbed) is norm_rule

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_non_finite_never_passes(self, bad, where, monkeypatch):
        # no norm, so no SVD that fails to converge on a NaN and no NaN norm
        # from an Inf; the verdict is False and the error names the entry
        def fail(*args):
            pytest.fail("a norm was taken of a non-finite matrix")

        monkeypatch.setattr(linalg, "hs_norm", fail)
        monkeypatch.setattr(linalg, "op_norm", fail)
        a = np.eye(3, dtype=complex)
        a[where] = bad
        with pytest.raises(NonHermitianError, match=rf"non-finite entry .* at \({where[0]}, {where[1]}\)$"):
            assert_hermitian(a)
        assert is_hermitian(a) is False
        assert cone_membership(a) is False
