"""The standard (Hilbert-Schmidt) representation and its modular toolbox.

Observables act by left multiplication on matrices carrying the trace inner
product <X, Y> = tr(X* Y); a state rho is represented by the vector
rho^(1/2).  In this representation the modular conjugation of any full-rank
positive reference is the plain adjoint X -> X*, the modular operator acts by
two-sided conjugation X -> rho X rho^(-1), and the natural positive cone is
exactly the set of positive semidefinite matrices.  Relative modular
operators X -> rho_eta X rho_omega^(-1) carry the non-commutative
Radon-Nikodym structure; Liouvilleans implement the dynamics as Hermitian
operators on this space.  Everything is realized as superoperator actions on
d x d matrices: nothing is materialized at size d^2 x d^2.

A scenario's own weights act in the free product eigenbasis
Q = V_S (x) V_R, on X~ = Q* X Q.  Q diagonalizes rho_eq, so
:func:`equilibrium_modular` holds it as its spectrum, the Gibbs weights of
H_S (x) those of H_R, and Delta^a, S, F and A -> A Omega scale rows and
columns, O(d^2).  :func:`initial_modular` holds rho_init = rho_S (x) rho_R
there as B (x) diag(p_R), B = V_S* rho_S V_S, so its actions add one
d_S x d_S contraction, O(d_S d^2), the same for every rho_S, coherent or
not.  X -> Q* X Q is unitary on the standard space and commutes with products
and adjoints, so every identity reads the same in either basis.
:func:`modular_pair`, :func:`relative_modular` and :func:`reservoir_modular`
(whose flowed weight has the eigenvectors U(t)) act on dense matrices in the
standard basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dynamics import Scenario
from .linalg import (
    NotPositiveError,
    RankDeficientError,
    assert_hermitian,
    assert_square,
    dagger,
    exp_i,
    hs_inner,
    hs_norm,
    is_hermitian,
    op_norm,
    positive_sqrt,
    tensor,
)
from .states import gibbs_weights

RANK_TOL = 1e-12


def _powers(w: np.ndarray, alpha: complex) -> np.ndarray:
    """Principal powers w^alpha of a weight's eigenvalues.  Those at or below
    RANK_TOL, negative roundoff included, map to zero, which is only valid
    for Re(alpha) > 0: other powers of a singular weight raise
    RankDeficientError."""
    zero = w <= RANK_TOL
    if np.any(zero) and alpha.real <= 0:
        raise RankDeficientError(f"power {alpha} of a singular weight (min eigenvalue {w.min():.3e})")
    powered = np.zeros(len(w), dtype=complex)
    powered[~zero] = w[~zero].astype(complex) ** alpha
    return powered


def _weight_power(eig: tuple[np.ndarray, np.ndarray], alpha: complex) -> np.ndarray:
    """Principal power (v * w^alpha) v* of a weight from its eigh (w, v), by :func:`_powers`."""
    w, v = eig
    return (v * _powers(w, alpha)) @ dagger(v)


def _check_weights(w_eta: np.ndarray, w_omega: np.ndarray) -> None:
    """The spectra of a pair (eta, omega): same size, eta positive and omega
    full rank, each read by its minimum (a product spectrum is not sorted)."""
    if w_eta.shape != w_omega.shape:
        raise ValueError("weight dimensions differ")
    if w_eta.min() < -RANK_TOL:
        raise NotPositiveError(f"rho_eta is not positive: eigenvalue {w_eta.min():.3e}")
    if w_omega.min() <= RANK_TOL:
        raise RankDeficientError(f"rho_omega is not full rank: min eigenvalue {w_omega.min():.3e} <= {RANK_TOL:.1e}")


@dataclass(frozen=True, eq=False)
class RelativeModular:
    """Relative modular operator of a pair (eta, omega) of positive weights,
    each given by its eigendecomposition (w, v): the weight is (v * w) v*.

    Acts on the standard representation space as X -> rho_eta X rho_omega^(-1)
    with fractional powers X -> rho_eta^a X rho_omega^(-a); positive and
    self-adjoint in the trace inner product.  eta may be non-normalized and
    rank deficient (powers then require Re a > 0); omega must be full rank,
    as an epsilon floor in its place would corrupt FCS atoms.  Both are
    checked on construction, by each spectrum's minimum (a product spectrum
    is not sorted).  For eta = omega this is :class:`ModularStructure`.
    """

    eig_eta: tuple[np.ndarray, np.ndarray]
    eig_omega: tuple[np.ndarray, np.ndarray]

    def __post_init__(self):
        _check_weights(self.eig_eta[0], self.eig_omega[0])

    @cached_property
    def rho_eta(self) -> np.ndarray:
        w, v = self.eig_eta
        return (v * w) @ dagger(v)

    @cached_property
    def _inv_omega(self) -> np.ndarray:
        w, v = self.eig_omega
        return (v / w) @ dagger(v)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.rho_eta @ x @ self._inv_omega

    def power(self, alpha: complex, x: np.ndarray) -> np.ndarray:
        if alpha == 0:
            return x.copy()
        return _weight_power(self.eig_eta, alpha) @ x @ _weight_power(self.eig_omega, -alpha)


class _ModularMaps:
    """J, S and F of a modular structure, from its ``delta_power``."""

    def conjugation(self, x: np.ndarray) -> np.ndarray:
        """Modular conjugation J: the adjoint map (antiunitary, J^2 = 1)."""
        return dagger(x)

    def star(self, x: np.ndarray) -> np.ndarray:
        """S = J Delta^(1/2): maps A Omega to A* Omega."""
        return self.conjugation(self.delta_power(0.5, x))

    def commutant_star(self, x: np.ndarray) -> np.ndarray:
        """F = J Delta^(-1/2): acts as X -> r^(1/2) X* r^(-1/2)."""
        return self.conjugation(self.delta_power(-0.5, x))


@dataclass(frozen=True, eq=False, init=False)
class ModularStructure(RelativeModular, _ModularMaps):
    """Modular data of a full-rank positive reference in the standard rep:
    the relative modular operator with eta = omega, both ``eig_ref``.

    Actions: conjugation J X = X*, modular operator Delta X = r X r^(-1),
    fractional powers Delta^a X = r^a X r^(-a), the star operator
    S = J Delta^(1/2) (sending A Omega to A* Omega), and the commutant star
    operator F = J Delta^(-1/2), which acts as X -> r^(1/2) X* r^(-1/2).
    """

    def __init__(self, eig_ref: tuple[np.ndarray, np.ndarray]):
        super().__init__(eig_eta=eig_ref, eig_omega=eig_ref)

    @property
    def rho_ref(self) -> np.ndarray:
        return self.rho_eta

    @property
    def omega(self) -> np.ndarray:
        """Reference vector rho_ref^(1/2)."""
        return self.ref_power(0.5)

    def ref_power(self, alpha: complex) -> np.ndarray:
        """Principal power rho_ref^alpha as a matrix."""
        return _weight_power(self.eig_eta, alpha)

    delta = RelativeModular.apply

    def delta_power(self, alpha: complex, x: np.ndarray) -> np.ndarray:
        """Delta^alpha X = r^alpha X r^(-alpha)."""
        return self.ref_power(alpha) @ x @ self.ref_power(-alpha)


@dataclass(frozen=True, eq=False)
class _FreeBasisModular(_ModularMaps):
    """:class:`ModularStructure` of a weight that the free product eigenbasis
    diagonalizes, held as its spectrum w, acting on matrices in that basis:
    Delta^a X = w^a X w^(-a) scales X's rows by w^a and its columns by
    w^(-a), O(d^2).  The spectrum is checked as the dense operator checks it."""

    spectrum: np.ndarray

    def __post_init__(self):
        _check_weights(self.spectrum, self.spectrum)

    def delta_power(self, alpha: complex, x: np.ndarray) -> np.ndarray:
        y = x * (self.spectrum ** alpha)[:, None]
        y *= self.spectrum ** -alpha
        return y

    def delta(self, x: np.ndarray) -> np.ndarray:
        return self.delta_power(1.0, x)

    @cached_property
    def omega(self) -> np.ndarray:
        """Reference vector diag(w^(1/2))."""
        return np.diag(np.sqrt(self.spectrum))

    def vector_of(self, a: np.ndarray) -> np.ndarray:
        """A Omega = A diag(w^(1/2)), O(d^2)."""
        return a * np.sqrt(self.spectrum)


@dataclass(frozen=True, eq=False)
class _FreeBasisRelative:
    """:class:`RelativeModular` in the free product eigenbasis, of eta =
    B (x) diag(p), held as the eigh (b, u) of its d_S x d_S block B and the
    reservoir spectrum p, against an omega that the basis diagonalizes, held
    as its spectrum.  X -> eta^a X omega^(-a) contracts B^a with the system
    index of X's rows, then scales the rows by p^a and the columns by
    omega^(-a), O(d_S d^2); B^a and p^a by the rule of :func:`_powers`."""

    eta_sys: tuple[np.ndarray, np.ndarray]
    eta_res: np.ndarray
    omega: np.ndarray

    def __post_init__(self):
        _check_weights(np.kron(self.eta_sys[0], self.eta_res), self.omega)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.power(1.0, x)

    def power(self, alpha: complex, x: np.ndarray) -> np.ndarray:
        b, p = _weight_power(self.eta_sys, alpha), _powers(self.eta_res, alpha)
        y = (b @ x.reshape(len(b), -1)).reshape(len(b), len(p), -1)
        y *= p[:, None]
        y = y.reshape(x.shape)
        y *= self.omega ** -alpha
        return y


def _eigh_weight(a: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
    """eigh of a weight given as a matrix, once it is square and Hermitian."""
    assert_square(a, name)
    assert_hermitian(a, name=name)
    return np.linalg.eigh(a)


def modular_pair(rho_ref: np.ndarray) -> ModularStructure:
    """Modular structure of a full-rank positive reference matrix."""
    return ModularStructure(_eigh_weight(rho_ref, "reference"))


def relative_modular(rho_eta: np.ndarray, rho_omega: np.ndarray) -> RelativeModular:
    """Relative modular operator of a weight matrix eta against a full-rank omega,
    with <Omega_omega, Delta_rel pi(A) Omega_omega> = tr(rho_eta A) (Radon-Nikodym)."""
    return RelativeModular(_eigh_weight(rho_eta, "rho_eta"), _eigh_weight(rho_omega, "rho_omega"))


def cone_membership(x: np.ndarray, tol: float = 1e-10) -> bool:
    """Test membership in the natural positive cone of the standard rep.

    The cone {A J A J Omega} closes to exactly the positive semidefinite
    matrices, so membership is Hermiticity plus positivity within ``tol``
    (relative to max(1, ||x||)).  The scale is at least 1, so a Cholesky
    factor of the Hermitian part plus tol accepts without an eigvalsh or ||x||.
    """
    assert_square(x)
    if not is_hermitian(x, tol):
        return False
    h = (x + dagger(x)) / 2
    try:
        np.linalg.cholesky(h + tol * np.eye(len(h)))
        return True
    except np.linalg.LinAlgError:
        return bool(np.linalg.eigvalsh(h)[0] >= -tol * max(1.0, op_norm(x)))


# -- scenario-level vectors and Liouvilleans ---------------------------------


def initial_vector(scn: Scenario) -> np.ndarray:
    """Vector representative of the initial state: rho_sys^(1/2) (x) rho_res^(1/2)."""
    return tensor(positive_sqrt(scn.rho_sys), scn.sqrt_rho_res)


def equilibrium_vector(scn: Scenario) -> np.ndarray:
    """Vector representative of the uncoupled equilibrium state."""
    return tensor(positive_sqrt(scn.rho_sys_thermal), scn.sqrt_rho_res)


def reservoir_weight_vector(scn: Scenario) -> np.ndarray:
    """Vector 1 (x) rho_res^(1/2) of the reservoir weight.

    Deliberately *not* normalized: its squared norm is d_S, which the
    half-line identity and the strip bound rely on.
    """
    return tensor(np.eye(scn.dim_sys), scn.sqrt_rho_res)


def equilibrium_modular(scn: Scenario) -> _FreeBasisModular:
    """Modular structure of rho_eq = rho_S,beta (x) rho_R in the free product
    eigenbasis, which diagonalizes it: the Gibbs weights of H_S (x) those of H_R."""
    return _FreeBasisModular(np.kron(gibbs_weights(scn._eig_sys[0], scn.beta), scn.gibbs_weights_res))


def initial_modular(scn: Scenario, eq: _FreeBasisModular) -> _FreeBasisRelative:
    """Delta(rho_init | rho_eq) in the free product eigenbasis, rho_init =
    rho_S (x) rho_R: rho_S enters as V_S* rho_S V_S, by the eigh of rho_S,
    and rho_eq as the spectrum of ``eq = equilibrium_modular(scn)``."""
    w, v = np.linalg.eigh(scn.rho_sys)
    return _FreeBasisRelative((w, dagger(scn._eig_sys[1]) @ v), scn.gibbs_weights_res, eq.spectrum)


def reservoir_modular(scn: Scenario, t: float) -> RelativeModular:
    """Delta(flowed | static) of the reservoir weight 1 (x) rho_R: eta is its
    pull-back e^{itH} (1 (x) rho_R) e^{-itH} through the coupled flow.  Both
    spectra are 1 (x) p_R; the flowed eigenvectors are U(t) (1 (x) V_R)."""
    w, v = np.tile(scn.gibbs_weights_res, scn.dim_sys), tensor(np.eye(scn.dim_sys), scn._eig_res[1])
    return RelativeModular((w, scn.unitary_coupled(t) @ v), (w, v))


@dataclass(frozen=True, eq=False)
class Liouvilleans:
    """The generators of the standard dynamics on HS vectors.

    free:     X -> H_free X - X H_free        (annihilates the equilibrium vector)
    coupled:  X -> H_coupled X - X H_coupled  (annihilates the coupled one)
    Both are Hermitian as operators in the trace inner product; e^{itL_coupled}
    is ``scn.evolve``.  The half-line generator X -> H_coupled X - X (1 (x) H_R)
    enters only through its exponential, :meth:`half_factors`.
    """

    scn: Scenario

    def free(self, x: np.ndarray) -> np.ndarray:
        return self.scn.h_free @ x - x @ self.scn.h_free

    def coupled(self, x: np.ndarray) -> np.ndarray:
        return self.scn.h_coupled @ x - x @ self.scn.h_coupled

    def half_factors(self, s: float) -> tuple[np.ndarray, np.ndarray]:
        """(e^{isH_coupled}, 1 (x) e^{-isH_R}): e^{is L_half} X is their product around X."""
        w, v = self.scn._eig_res
        right = tensor(np.eye(self.scn.dim_sys), (v * exp_i(-s * w)) @ dagger(v))
        return self.scn.unitary_coupled(s), right

    def coupled_decomposed(self, x: np.ndarray) -> np.ndarray:
        """free + lam pi(V) - lam J pi(V) J, for the identity check."""
        return self.free(x) + self.scn.lam * (self.scn.v @ x) - self.scn.lam * (x @ self.scn.v)


def perturbed_gibbs_vector(scn: Scenario) -> np.ndarray:
    """Normalized vector e^{-beta(L_free + lam pi(V))/2} Omega_eq.

    This is the cone representative of the coupled equilibrium state; it
    coincides with gibbs(H_coupled, beta)^(1/2).  The two exponentials are
    spectrum-shifted before assembly (the shifts cancel against the final
    normalization), so large beta * ||H|| is safe.
    """
    wl, vl = scn._eig_coupled
    # e^{-beta(L0 + lam pi(V))/2} X = e^{-beta Hc/2} X e^{+beta H0/2}, and
    # e^{beta H0/2} = e^{beta H_S/2} (x) e^{beta H_R/2}
    left = (vl * np.exp(-scn.beta / 2 * (wl - wl.min()))) @ dagger(vl)
    right = tensor(*((v * np.exp(scn.beta / 2 * (w - w.max()))) @ dagger(v)
                     for w, v in (scn._eig_sys, scn._eig_res)))
    vec = left @ equilibrium_vector(scn) @ right
    return vec / hs_norm(vec)


@dataclass(frozen=True)
class MixingReport:
    """Ergodic-average distance of the coupled evolution from its rank-one limit."""

    distance: float
    window: tuple[float, float]
    grid: int
    n_vectors: int
    dim_res: int

    @property
    def mixing_like(self) -> bool:
        return self.distance < 0.1


def mixing_diagnostic(
    scn: Scenario,
    window: tuple[float, float],
    grid: int,
    n_vectors: int = 6,
    seed: int = 7,
) -> MixingReport:
    """Quantify how close the finite model is to a mixing system.

    Averages the matrix elements <X_i, e^{itL} X_j> of the coupled evolution
    over a time window against a fixed normalized test-vector set and reports
    the max deviation from the rank-one projector onto the coupled
    equilibrium vector.  Exact mixing would drive the distance to zero; at
    finite reservoir size it saturates, and it should shrink as the reservoir
    grows within a model family.
    """
    if grid < 2 and window[0] != window[1]:
        raise ValueError("grid must be >= 2 for a nondegenerate window")
    rng = np.random.default_rng(seed)
    d = scn.dim
    vecs = []
    for _ in range(n_vectors):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        vecs.append(g / hs_norm(g))
    omega_lam = perturbed_gibbs_vector(scn)
    times = (
        np.array([window[0]])
        if window[0] == window[1]
        else np.linspace(window[0], window[1], grid)
    )
    avg = np.zeros((n_vectors, n_vectors), dtype=complex)
    for t in times:
        u = scn.unitary_coupled(t)  # scn.evolve, with one U(t) for all vectors
        evolved = [u @ x @ dagger(u) for x in vecs]
        for j, ex in enumerate(evolved):
            for i, xi in enumerate(vecs):
                avg[i, j] += hs_inner(xi, ex)
    avg /= len(times)
    target = np.array(
        [
            [hs_inner(xi, omega_lam) * hs_inner(omega_lam, xj) for xj in vecs]
            for xi in vecs
        ]
    )
    return MixingReport(
        distance=float(np.max(np.abs(avg - target))),
        window=window,
        grid=len(times),
        n_vectors=n_vectors,
        dim_res=scn.dim_res,
    )
