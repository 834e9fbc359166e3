"""Dense complex linear algebra on square matrices, and the one quadrature.

Hamiltonians are diagonalized one invariant block at a time
(:func:`eigh_blocks`), each block by :func:`eigh_finite`, which refuses a
non-finite entry; the blocks are the connected components of the exact
nonzero pattern (:func:`_components`), also for the sectors of the coupling
in the free eigenbasis, and :func:`rayleigh_quotients` refines eigenvalues in
extended precision.  Measurements and the functional calculus use the
clustered :func:`eig_hermitian`.  Roots, powers and unitary exponentials are
assembled in an eigenbasis; only :func:`expm`, for matrices that are not
Hermitian, is rational.
:func:`gauss_kronrod` integrates the flux over time.  The library runs on numpy alone;
:func:`one_blas_thread` pins numpy's bundled OpenBLAS through ctypes.
"""

from __future__ import annotations

import ctypes
import heapq
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# Relative tolerance for accepting a matrix as Hermitian / positive.
HERMITICITY_RTOL = 1e-12
POSITIVITY_RTOL = 1e-12
# Default eigenvalue clustering: relative to the spectral norm.  FCS atom
# locations are energy differences, so spuriously split near-degenerate
# eigenvalues would fragment atoms.
CLUSTER_RTOL = 1e-9


class NonHermitianError(ValueError):
    """Input required to be Hermitian is not, beyond tolerance."""


class NumericalError(ArithmeticError):
    """A numerical failure, as opposed to bad input: a state that is not
    positive or not of full rank, a function off its domain, a missed
    quadrature tolerance."""


class NotPositiveError(NumericalError, ValueError):
    """Input required to be positive semidefinite has a negative eigenvalue."""


class SpectrumDomainError(NumericalError, ValueError):
    """A scalar function is undefined at an eigenvalue of its argument."""


class RankDeficientError(NumericalError, ValueError):
    """An operator required to be full rank is (numerically) singular."""


def dagger(a: np.ndarray) -> np.ndarray:
    """Adjoint (conjugate transpose)."""
    return a.conj().T


def op_norm(a: np.ndarray) -> float:
    """Operator norm (largest singular value)."""
    return float(np.linalg.norm(a, 2))


def hs_norm(a: np.ndarray) -> float:
    """Hilbert-Schmidt (Frobenius) norm."""
    return float(np.linalg.norm(a))


def hs_inner(x: np.ndarray, y: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product tr(x* y), antilinear in the first slot."""
    return complex(np.vdot(x, y))


def exp_i(theta) -> np.ndarray:
    """cos(theta) + i sin(theta) elementwise for real theta, written into the
    real and imaginary views of the result: numpy's complex exp calls libm's
    cexp, which runs many times slower after any AVX matrix product.  Bitwise
    ``exp_complex(1j * theta)`` for finite theta, since exp(0) = 1 exactly."""
    theta = np.asarray(theta, dtype=float)
    out = np.empty(theta.shape, dtype=complex)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


def exp_complex(z) -> np.ndarray:
    """exp(z) elementwise, as np.exp gives it.  Complex z is computed as
    exp(Re z) exp_i(Im z); real z goes to np.exp.  For finite results only:
    exp(Re z) = inf times a zero sine gives NaN."""
    z = np.asarray(z)
    if not np.iscomplexobj(z):
        return np.exp(z)
    out = exp_i(z.imag)
    r = np.exp(z.real)
    out.real *= r
    out.imag *= r
    return out


def is_hermitian(a: np.ndarray, rtol: float = HERMITICITY_RTOL) -> bool:
    """Whether ||a - a*|| <= rtol * max(1, ||a||) in the operator norm.

    An input equal to its adjoint entry by entry, every entry finite, passes
    with no norm (a norm is two BLAS calls, which wake OpenBLAS's idle
    threads) and no d x d temporary: rows are compared with the matching
    columns about 2^15 entries at a time.  A non-finite entry fails, with no
    norm either.  Otherwise ||.|| <= ||.||_HS and the scale is >= 1, so
    ||a - a*||_HS <= rtol passes without an SVD, and the operator norms
    decide the rest."""
    rows = max(1, 2**15 // max(a.shape[-1], 1))
    if all(np.array_equal(a[s:s + rows], a[:, s:s + rows].T.conj()) and np.isfinite(a[s:s + rows]).all()
           for s in range(0, len(a), rows)):
        return True
    if not np.isfinite(a).all():
        return False
    defect = a - dagger(a)
    return hs_norm(defect) <= rtol or op_norm(defect) <= rtol * max(1.0, op_norm(a))


def assert_hermitian(a: np.ndarray, rtol: float = HERMITICITY_RTOL, name: str = "operator") -> None:
    """Raise NonHermitianError unless :func:`is_hermitian`, naming the first
    non-finite entry if there is one, else the asymmetry norm."""
    if is_hermitian(a, rtol):
        return
    bad = np.argwhere(~np.isfinite(a))
    if len(bad):
        i, j = bad[0]
        raise NonHermitianError(f"{name} is not Hermitian: non-finite entry {a[i, j]} at ({i}, {j})")
    raise NonHermitianError(
        f"{name} is not Hermitian: asymmetry norm {op_norm(a - dagger(a)):.3e} exceeds "
        f"{rtol:.1e} * {max(1.0, op_norm(a)):.3e}"
    )


def assert_square(a: np.ndarray, name: str = "operator") -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {a.shape}")


@dataclass(frozen=True)
class SpectralDecomposition:
    """Clustered spectral resolution of a Hermitian matrix.

    ``eigenvalues`` are ascending cluster representatives (one per merged
    cluster); ``projectors[i]`` is the orthogonal projector onto the
    corresponding eigenspace.  The projectors are Hermitian, idempotent,
    mutually orthogonal and sum to the identity.
    """

    eigenvalues: np.ndarray
    projectors: list = field(repr=False)
    multiplicities: np.ndarray = field(repr=False)

    def reconstruct(self) -> np.ndarray:
        """Sum of eigenvalue * projector."""
        out = np.zeros_like(self.projectors[0])
        for lam, p in zip(self.eigenvalues, self.projectors):
            out = out + lam * p
        return out

    def apply(self, f: Callable[[float], complex]) -> np.ndarray:
        """Assemble sum of f(eigenvalue) * projector, checking f's domain."""
        out = np.zeros(self.projectors[0].shape, dtype=complex)
        for lam, p in zip(self.eigenvalues, self.projectors):
            try:
                val = complex(f(float(lam)))
            except (ValueError, ZeroDivisionError, FloatingPointError, OverflowError) as exc:
                raise SpectrumDomainError(
                    f"function undefined at eigenvalue {lam!r}: {exc}"
                ) from exc
            if not np.isfinite(val):
                raise SpectrumDomainError(f"function not finite at eigenvalue {lam!r}")
            out += val * p
        return out


def cluster_starts(values: np.ndarray, tol: float) -> np.ndarray:
    """Start index of each cluster of ascending values.

    Greedy chain clustering: a new cluster starts wherever the gap to the
    previous value exceeds ``tol``, so a chain of small gaps is one cluster.
    Shared by eigenvalue clustering and atom merging; empty input has no
    clusters.
    """
    return np.flatnonzero(np.concatenate(([len(values) > 0], np.diff(values) > tol)))


def eigenvalue_clusters(w: np.ndarray, cluster_tol: float | None = None) -> list[np.ndarray]:
    """Index groups of ascending eigenvalues ``w`` of a Hermitian matrix that
    lie within ``cluster_tol`` of each other (default 1e-9 * max|w|, which is
    1e-9 times the operator norm)."""
    if cluster_tol is None:
        cluster_tol = CLUSTER_RTOL * max(abs(w[0]), abs(w[-1]), 1e-300)
    if cluster_tol <= 0:
        raise ValueError("cluster_tol must be positive")
    return np.split(np.arange(len(w)), cluster_starts(w, cluster_tol)[1:])


def eig_hermitian(a: np.ndarray, cluster_tol: float | None = None) -> SpectralDecomposition:
    """Clustered eigendecomposition of a Hermitian matrix.

    Eigenvalues lying within ``cluster_tol`` of each other (default
    1e-9 * ||a||) are merged into a single projector; the cluster
    representative is the mean of the merged eigenvalues.
    """
    assert_square(a)
    assert_hermitian(a)
    w, v = np.linalg.eigh(a)
    groups = eigenvalue_clusters(w, cluster_tol)
    return SpectralDecomposition(
        eigenvalues=np.array([float(np.mean(w[g])) for g in groups]),
        projectors=[v[:, g] @ dagger(v[:, g]) for g in groups],
        multiplicities=np.array([len(g) for g in groups]),
    )


def _components(mask: np.ndarray) -> list[np.ndarray]:
    """Index sets of the connected components of the graph whose adjacency is
    the symmetrized boolean matrix ``mask``, in order of their smallest index,
    by breadth-first search over whole frontiers."""
    adj = mask | mask.T
    label = np.full(len(adj), -1)
    blocks = []
    while (unseen := np.flatnonzero(label < 0)).size:
        frontier = unseen[:1]
        label[frontier] = len(blocks)
        while frontier.size:
            frontier = np.flatnonzero(adj[frontier].any(axis=0) & (label < 0))
            label[frontier] = len(blocks)
        blocks.append(np.flatnonzero(label == len(blocks)))
    return blocks


def eigh_finite(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh(a)``, but a non-finite entry raises LinAlgError, which
    eigh alone does only for some inputs."""
    if not np.all(np.isfinite(a)):
        raise np.linalg.LinAlgError("matrix to diagonalize has a non-finite entry")
    return np.linalg.eigh(a)


def eigh_blocks(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh(a)`` of a Hermitian matrix, one :func:`eigh_finite` per
    connected component of its nonzero pattern (a conserved quantity such as
    a spin-chain parity splits d^3 work into a sum of block cubes): ascending
    eigenvalues (stable sort, so ties keep block order), each eigenvector
    exactly zero outside its block.  A complex ``a`` with zero imaginary part
    is diagonalized in float64, 2-3x faster, into real-valued complex
    eigenvectors."""
    assert_square(a)
    w, v = np.empty(len(a)), np.zeros(a.shape, dtype=np.result_type(a.dtype, float))
    if np.iscomplexobj(a) and not a.imag.any():
        a = a.real
    col = 0
    for idx in _components(a != 0):
        cols = np.arange(col, col + len(idx))
        w[cols], v[np.ix_(idx, cols)] = eigh_finite(a[np.ix_(idx, idx)])
        col += len(idx)
    order = np.argsort(w, kind="stable")
    return w[order], v[:, order]


def rayleigh_quotients(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """v_k* a v_k / v_k* v_k for each column v_k of ``v``, summed in numpy's
    extended precision (np.longdouble: a 64-bit mantissa on x86) over the
    nonzero entries of each invariant block of ``a``, 2^16 terms at a time
    with the products formed in place: a chunk holds two extended-precision
    temporaries of 2^16 terms at any size.  For eigh's eigenvectors this is
    the eigenvalue to its rounding (the error is the residual squared), where
    eigh's own errs by a few eps ||a||."""
    a, v = (x.real if np.iscomplexobj(x) and not x.imag.any() else x for x in (a, v))
    ext = np.clongdouble if np.iscomplexobj(a) or np.iscomplexobj(v) else np.longdouble
    q, norm = np.zeros(v.shape[1], dtype=ext), np.zeros(v.shape[1], dtype=ext)
    for idx in _components(a != 0):
        cols = np.flatnonzero(np.any(v[idx] != 0, axis=0))
        x = v[np.ix_(idx, cols)].astype(ext)
        norm[cols] += np.einsum("ik,ik->k", x.conj(), x)
        r, c = np.nonzero(a[np.ix_(idx, idx)])
        step = 2**16 // max(len(cols), 1) + 1
        for s in range(0, len(r), step):
            rs, cs = r[s:s + step], c[s:s + step]
            terms = x[rs]
            np.conjugate(terms, out=terms)
            terms *= a[idx[rs], idx[cs]][:, None]
            terms *= x[cs]
            q[cols] += terms.sum(axis=0)
    return (q / norm).real.astype(float)


def func_calc(
    a: np.ndarray,
    f: Callable[[float], complex],
    cluster_tol: float | None = None,
) -> np.ndarray:
    """Apply a scalar function to a Hermitian matrix through its spectrum.

    Returns sum of f(eigenvalue) * projector.  The spectral mapping property
    holds: the spectrum of the result is f applied to the spectrum of ``a``.
    Raises SpectrumDomainError naming the offending eigenvalue if f is
    undefined there.
    """
    return eig_hermitian(a, cluster_tol).apply(f)


def positivity_floor(w: np.ndarray) -> float:
    """Most negative eigenvalue taken for roundoff in a positive semidefinite
    matrix with ascending spectrum w: -1e-12 * ||a||."""
    return -POSITIVITY_RTOL * max(abs(w[0]), abs(w[-1]), 1e-300)


def positive_sqrt(a: np.ndarray) -> np.ndarray:
    """Unique positive square root of a positive semidefinite matrix.

    Eigenvalues in [positivity_floor, 0) are clamped to zero (roundoff);
    anything more negative raises NotPositiveError.
    """
    assert_square(a)
    assert_hermitian(a)
    w, v = np.linalg.eigh(a)
    floor = positivity_floor(w)
    if w[0] < floor:
        raise NotPositiveError(
            f"matrix is not positive: eigenvalue {w[0]:.6e} below tolerance {floor:.1e}"
        )
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ dagger(v)


def expm_hermitian(h: np.ndarray, z: complex = 1.0) -> np.ndarray:
    """exp(z * h) for Hermitian h, assembled in the eigenbasis.

    For purely imaginary z the result is unitary up to roundoff.
    """
    assert_square(h)
    assert_hermitian(h)
    w, v = np.linalg.eigh(h)
    return (v * exp_complex(z * w)) @ dagger(v)


# Degree-13 Pade coefficients and the 1-norm up to which they meet unit
# roundoff without scaling (Higham, SIAM J. Matrix Anal. Appl. 26(4), 2005).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
           129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
           40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def expm(a: np.ndarray) -> np.ndarray:
    """exp(a) of a square matrix by Pade 13 with scaling and squaring, as in
    ``scipy.linalg.expm`` but on numpy's BLAS alone (one thread pool)."""
    assert_square(a)
    norm = np.linalg.norm(a, 1)
    s = int(np.ceil(np.log2(norm / _THETA13))) if norm > _THETA13 else 0
    a = a / 2.0**s
    b, ident = _PADE13, np.eye(a.shape[0])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


# The Gauss-Kronrod 21-point rule (QUADPACK qk21: Piessens et al., QUADPACK, 1983), the same
# doubles as scipy.integrate._quad_vec (BSD-3): Kronrod nodes in descending order with their
# weights; the 10-point Gauss rule uses the odd-indexed nodes.
_GK21_X = (0.9956571630258081, 0.9739065285171717, 0.9301574913557082, 0.8650633666889845, 0.7808177265864169,
           0.6794095682990244, 0.5627571346686047, 0.4333953941292472, 0.2943928627014602, 0.14887433898163122)
_GK21_X = _GK21_X + (0.0,) + tuple(-x for x in reversed(_GK21_X))
_GK21_K = (0.011694638867371874, 0.032558162307964725, 0.054755896574351995, 0.07503967481091996,
           0.0931254545836976, 0.10938715880229764, 0.12349197626206584, 0.13470921731147334,
           0.14277593857706009, 0.14773910490133849, 0.1494455540029169)
_GK21_K = _GK21_K + _GK21_K[-2::-1]
_GK21_G = (0.06667134430868814, 0.1494513491505806, 0.21908636251598204, 0.26926671930999635, 0.29552422471475287)
_GK21_G = _GK21_G + _GK21_G[::-1]


def _norm(x) -> float:
    """Frobenius norm of an array, modulus of a scalar."""
    return float(np.linalg.norm(x) if isinstance(x, np.ndarray) else abs(x))


def _gk21(f, a: float, b: float):
    """(integral, error, rounding error) of f over [a, b] by one 21-point rule with
    QUADPACK's error estimate; f is called at one node at a time, summed in scipy's order."""
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    values, s_k, s_g, s_abs, s_dabs = [], 0.0, 0.0, 0.0, 0.0
    for i, (x, v) in enumerate(zip(_GK21_X, _GK21_K)):
        values.append(f(c + h * x))
        s_k += v * values[-1]
        s_abs += v * abs(values[-1])
        if i % 2:
            s_g += _GK21_G[i // 2] * values[-1]
    y0 = s_k / 2.0
    for v, ff in zip(_GK21_K, values):
        s_dabs += v * abs(ff - y0)
    err, dabs = _norm((s_k - s_g) * h), _norm(s_dabs * h)
    if dabs != 0 and err != 0:
        err = dabs * min(1.0, (200 * err / dabs) ** 1.5)
    round_err = _norm(50 * sys.float_info.epsilon * h * s_abs)
    if round_err > sys.float_info.min:
        err = max(err, round_err)
    return h * s_k, err, round_err


def gauss_kronrod(f, a: float, b: float, epsabs: float, epsrel: float, limit: int = 10000):
    """(integral, error + rounding error) of a scalar- or array-valued f over [a, b] by the
    loop of ``scipy.integrate.quad_vec`` on the 21-point rule.  Each round bisects the
    largest-error intervals until the rest could meet the tolerance; after it the loop stops
    if the summed error is below max(epsabs, epsrel * ||I||) / 8 or the summed rounding
    error, or is not finite, or at ``limit`` intervals."""
    total, err, rnd = _gk21(f, a, b)
    heap = [(-err, a, b, total)]
    while len(heap) < limit:
        tol, picked, err_sum = max(epsabs, epsrel * _norm(total)), [], 0.0
        for j in range(128):
            if not heap or (j and err_sum > err - tol / 8):
                break
            picked.append(heapq.heappop(heap))
            err_sum -= picked[-1][0]
        for neg_err, x1, x2, part in picked:
            mid = 0.5 * (x1 + x2)
            (s1, e1, r1), (s2, e2, r2) = _gk21(f, x1, mid), _gk21(f, mid, x2)
            total, err, rnd = total + (s1 + s2 - part), err + (e1 + e2 + neg_err), rnd + (r1 + r2)
            heapq.heappush(heap, (-e1, x1, mid, s1))
            heapq.heappush(heap, (-e2, mid, x2, s2))
        if err < max(epsabs, epsrel * _norm(total)) / 8 or err < rnd or not np.isfinite(err + rnd):
            break
    return total, err + rnd


def tensor(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product in (system (x) reservoir) order."""
    out = np.asarray(ops[0], dtype=complex)
    for b in ops[1:]:
        out = np.kron(out, np.asarray(b, dtype=complex))
    return out


def _openblas_thread_controls():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None
    when numpy is built on another BLAS.  dlsym on numpy's core extension
    searches the libraries it links, so the lookup needs no library path."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


@contextmanager
def one_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread; yield whether it is
    pinned (False, and nothing changed, when numpy's BLAS is not its bundled
    OpenBLAS).  The count read on entry is restored on every exit.  The count
    is process-wide: it holds for every thread of the process while the block
    runs, and two blocks running at once on different threads would restore
    each other's counts."""
    controls = _openblas_thread_controls()
    if controls is None:
        yield False
        return
    get, set_ = controls
    before = get()
    set_(1)
    try:
        yield True
    finally:
        set_(before)
