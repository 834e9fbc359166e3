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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

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

RANK_TOL = 1e-12


def left_mult(a: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Left multiplication X -> a X: the representation of an observable."""

    def act(x: np.ndarray) -> np.ndarray:
        return a @ x

    return act


def standard_gns(rho: np.ndarray) -> tuple[Callable, np.ndarray]:
    """Standard representation of a state: (left multiplication, rho^(1/2)).

    The vector Omega = rho^(1/2) satisfies <Omega, pi(A) Omega> = tr(rho A);
    pi is an exact homomorphism.  rho may be rank deficient (the vector is
    then not separating, but the identity above still holds).
    """
    omega = positive_sqrt(rho)
    return left_mult, omega


def _weight_power(eig: tuple[np.ndarray, np.ndarray], alpha: complex) -> np.ndarray:
    """Principal power (v * w^alpha) v* of a weight from its eigh (w, v).

    Eigenvalues at or below RANK_TOL, negative roundoff included, map to
    zero, which is only valid for Re(alpha) > 0: other powers of a singular
    weight raise RankDeficientError.
    """
    w, v = eig
    zero = w <= RANK_TOL
    if np.any(zero) and alpha.real <= 0:
        raise RankDeficientError(f"power {alpha} of a singular weight (min eigenvalue {w[0]:.3e})")
    powered = np.zeros(len(w), dtype=complex)
    powered[~zero] = w[~zero].astype(complex) ** alpha
    return (v * powered) @ dagger(v)


@dataclass(frozen=True, eq=False)
class RelativeModular:
    """Relative modular operator of a pair (eta, omega) of positive weights.

    Acts on the standard representation space as X -> rho_eta X rho_omega^(-1)
    with fractional powers X -> rho_eta^a X rho_omega^(-a); positive and
    self-adjoint in the trace inner product.  ``rho_eta`` may be a
    non-normalized weight and may be rank deficient (powers then require
    Re a > 0); ``rho_omega`` must be full rank.  Each weight is diagonalized
    once, on first use.  For eta = omega this is the modular operator, see
    :class:`ModularStructure`.
    """

    rho_eta: np.ndarray
    rho_omega: np.ndarray

    @cached_property
    def _eig_eta(self) -> tuple[np.ndarray, np.ndarray]:
        return np.linalg.eigh(self.rho_eta)

    @cached_property
    def _eig_omega(self) -> tuple[np.ndarray, np.ndarray]:
        return self._eig_eta if self.rho_omega is self.rho_eta else np.linalg.eigh(self.rho_omega)

    @cached_property
    def _inv_omega(self) -> np.ndarray:
        return np.linalg.inv(self.rho_omega)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.rho_eta @ x @ self._inv_omega

    def power(self, alpha: complex, x: np.ndarray) -> np.ndarray:
        if alpha == 0:
            return x.copy()
        return _weight_power(self._eig_eta, alpha) @ x @ _weight_power(self._eig_omega, -alpha)


@dataclass(frozen=True, eq=False, init=False)
class ModularStructure(RelativeModular):
    """Modular data of a full-rank positive reference in the standard rep:
    the relative modular operator with eta = omega = ``rho_ref``.

    Actions: conjugation J X = X*, modular operator Delta X = r X r^(-1),
    fractional powers Delta^a X = r^a X r^(-a), the star operator
    S = J Delta^(1/2) (sending A Omega to A* Omega), and the commutant star
    operator F = J Delta^(-1/2), which acts as X -> r^(1/2) X* r^(-1/2).
    """

    def __init__(self, rho_ref: np.ndarray):
        super().__init__(rho_eta=rho_ref, rho_omega=rho_ref)

    @property
    def rho_ref(self) -> np.ndarray:
        return self.rho_eta

    @property
    def omega(self) -> np.ndarray:
        """Reference vector rho_ref^(1/2)."""
        return self.ref_power(0.5)

    @cached_property
    def _half_powers(self) -> dict:
        """rho_ref^(+-1/2), which star and commutant_star reuse; no other power
        is kept.  They are handed to every caller, so they are read-only."""
        powers = {alpha: _weight_power(self._eig_eta, alpha) for alpha in (0.5, -0.5)}
        for p in powers.values():
            p.setflags(write=False)
        return powers

    def ref_power(self, alpha: complex) -> np.ndarray:
        """Principal power rho_ref^alpha as a matrix."""
        return self._half_powers[alpha] if alpha in (0.5, -0.5) else _weight_power(self._eig_eta, alpha)

    def conjugation(self, x: np.ndarray) -> np.ndarray:
        """Modular conjugation J: the adjoint map (antiunitary, J^2 = 1)."""
        return dagger(x)

    delta = RelativeModular.apply

    def delta_power(self, alpha: complex, x: np.ndarray) -> np.ndarray:
        """Delta^alpha X = r^alpha X r^(-alpha), the half powers from the cache."""
        return self.ref_power(alpha) @ x @ self.ref_power(-alpha)

    def star(self, x: np.ndarray) -> np.ndarray:
        """S = J Delta^(1/2): maps A Omega to A* Omega."""
        return self.conjugation(self.delta_power(0.5, x))

    def commutant_star(self, x: np.ndarray) -> np.ndarray:
        """F = J Delta^(-1/2): acts as X -> r^(1/2) X* r^(-1/2)."""
        return self.conjugation(self.delta_power(-0.5, x))


def _validated(rel: RelativeModular, eta: str, omega: str) -> RelativeModular:
    """``rel`` once both weights are square and Hermitian, eta is positive and omega
    is full rank, read from each weight's one eigh.  A rank-deficient omega has no
    separating vector; an epsilon floor in its place would corrupt FCS atoms."""
    for a, name in ((rel.rho_eta, eta), (rel.rho_omega, omega)):
        assert_square(a, name)
        assert_hermitian(a, name=name)
    if rel.rho_eta.shape != rel.rho_omega.shape:
        raise ValueError("weight dimensions differ")
    w = rel._eig_eta[0][0]
    if w < -RANK_TOL:
        raise NotPositiveError(f"{eta} is not positive: eigenvalue {w:.3e}")
    w = rel._eig_omega[0][0]
    if w <= RANK_TOL:
        raise RankDeficientError(f"{omega} is not full rank: min eigenvalue {w:.3e} <= {RANK_TOL:.1e}")
    return rel


def modular_pair(rho_ref: np.ndarray) -> ModularStructure:
    """Modular structure of a full-rank positive reference."""
    return _validated(ModularStructure(rho_ref), "reference", "reference")


def relative_modular(rho_eta: np.ndarray, rho_omega: np.ndarray) -> RelativeModular:
    """Relative modular operator for a weight eta against a full-rank omega.

    Satisfies the Radon-Nikodym property
    <Omega_omega, Delta_rel pi(A) Omega_omega> = tr(rho_eta A).
    """
    return _validated(RelativeModular(rho_eta=rho_eta, rho_omega=rho_omega), "rho_eta", "rho_omega")


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


def evolved_reservoir_weight(scn: Scenario, t: float) -> np.ndarray:
    """Weight operator of the reservoir state pulled back through the flow:
    e^{itH} (1 (x) rho_res) e^{-itH} with the coupled H."""
    return scn.evolve(tensor(np.eye(scn.dim_sys), scn.rho_res), t)


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
