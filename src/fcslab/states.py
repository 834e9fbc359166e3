"""Density matrices, entropy, Gibbs equilibrium, projective measurement,
and atomic measures on the real line."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import numpy.random  # noqa: F401 - numpy loads it lazily; load it with the package, not in a command's first draw

from .linalg import (
    NumericalError,
    _max_residual,
    assert_hermitian,
    assert_square,
    cluster_starts,
    dagger,
    eig_hermitian,
    eigh_blocks,
    exp_i,
    expm_hermitian,
    op_norm,
    positivity_floor,
)

DENSITY_TOL = 1e-12
# Atoms closer than this are merged; lighter atoms are dropped as roundoff.
MERGE_TOL = 1e-8
WEIGHT_DROP_TOL = 1e-13


def assert_density(rho: np.ndarray, name: str = "state") -> None:
    """Validate Hermiticity, positivity (the floor positive_sqrt accepts) and
    unit trace (within DENSITY_TOL)."""
    assert_square(rho, name)
    assert_hermitian(rho, name=name)
    w = np.linalg.eigvalsh(rho)
    if w[0] < positivity_floor(w):
        raise ValueError(f"{name} has negative eigenvalue {w[0]:.3e}")
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > DENSITY_TOL:
        raise ValueError(f"{name} has trace {tr!r}, expected 1")


def maximally_mixed(dim: int) -> np.ndarray:
    return np.eye(dim) / dim


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    """G G*/tr(G G*) with iid complex standard normal G: full support a.s."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ dagger(g)
    return rho / np.trace(rho).real


def random_hermitian(dim: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (g + dagger(g)) / 2
    norm = op_norm(h)
    return h * (scale / norm) if norm > 0 else h


@dataclass(frozen=True)
class AtomicMeasure:
    """Finite positive point measure on the real line.

    Locations are strictly ascending; weights are nonnegative.  Construction
    through :meth:`from_points` merges points closer than MERGE_TOL
    (weight-averaged location, so the first moment is preserved exactly) and
    drops atoms of weight at most WEIGHT_DROP_TOL, whose total it records as
    ``dropped_mass`` (0.0 for a measure built directly).  These two constants
    are the one rule for which FCS atoms are one.
    """

    locations: np.ndarray
    weights: np.ndarray
    dropped_mass: float = 0.0

    @classmethod
    def from_points(cls, locations: np.ndarray, weights: np.ndarray) -> "AtomicMeasure":
        """Sort the points and merge them with the eigenvalue clustering rule
        of :func:`~fcslab.linalg.cluster_starts`: a new atom starts wherever
        the gap to the previous point exceeds MERGE_TOL.  Each atom carries
        its cluster's total weight at the weighted-mean location; atoms of
        weight at most WEIGHT_DROP_TOL are dropped, so every atom kept has
        positive mass, and their total weight is the measure's
        ``dropped_mass``.  A non-finite location or weight raises
        NumericalError: NaN weights would otherwise be dropped silently."""
        locations = np.asarray(locations, dtype=float).ravel()
        weights = np.asarray(weights, dtype=float).ravel()
        if locations.shape != weights.shape:
            raise ValueError("locations and weights must have equal length")
        if not (np.all(np.isfinite(locations)) and np.all(np.isfinite(weights))):
            raise NumericalError("atom with a non-finite location or weight")
        if weights.size and weights.min() < -1e-12:
            raise ValueError(f"negative weight {weights.min():.3e}")
        weights = np.clip(weights, 0.0, None)
        order = np.argsort(locations)
        locations, weights = locations[order], weights[order]
        starts = cluster_starts(locations, MERGE_TOL)
        mass = np.add.reduceat(weights, starts)
        moment = np.add.reduceat(locations * weights, starts)
        keep = mass > WEIGHT_DROP_TOL
        dropped = float(mass[~keep].sum())
        return cls(moment[keep] / mass[keep], mass[keep], dropped)

    def __len__(self) -> int:
        return len(self.locations)

    @property
    def mass(self) -> float:
        return float(self.weights.sum())

    @property
    def mean(self) -> float:
        return float(np.dot(self.locations, self.weights))

    def moment(self, order: int) -> float:
        return float(np.dot(self.locations**order, self.weights))

    def char(self, gamma: np.ndarray | float) -> np.ndarray | complex:
        """Characteristic function: sum of w * exp(i gamma x)."""
        gamma = np.asarray(gamma, dtype=float)
        vals = exp_i(np.multiply.outer(gamma, self.locations)) @ self.weights
        return complex(vals) if vals.ndim == 0 else vals

def gibbs_weights(w: np.ndarray, beta: float) -> np.ndarray:
    """Thermal populations of the levels w; exponents are shifted by their
    minimum, so any finite beta is safe."""
    e = np.exp(-(beta * w - np.min(beta * w)))
    return e / e.sum()


def gibbs(h: np.ndarray, beta: float) -> np.ndarray:
    """Thermal state exp(-beta h)/tr(exp(-beta h)), from ``linalg.eigh_blocks``
    of h (so a Scenario's ``rho_res`` and ``rho_sys_thermal`` are bitwise
    ``gibbs(h_res, beta)`` and ``gibbs(h_sys, beta)``)."""
    assert_square(h)
    assert_hermitian(h)
    if not math.isfinite(beta):
        raise ValueError("beta must be finite")
    w, v = eigh_blocks(h)
    return (v * gibbs_weights(w, beta)) @ dagger(v)


def entropy(rho: np.ndarray) -> float:
    """von Neumann entropy -tr(rho log rho), with 0 log 0 = 0."""
    assert_density(rho)
    w = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
    nz = w > 0
    return float(-np.dot(w[nz], np.log(w[nz])))


@dataclass(frozen=True)
class VariationalReport:
    """Outcome of the Gibbs variational test log tr(e^A) = max(tr(rho A) + S).

    ``max_violation`` is the largest of tr(nu A) + S(nu) - log tr(e^A) over
    the trial states, NaN if any of them is NaN; ``equality_gap`` is that
    difference at the thermal state."""

    max_violation: float
    equality_gap: float
    trials: int


def gibbs_variational_check(
    h: np.ndarray, beta: float, trials: int, rng_seed: int = 0
) -> VariationalReport:
    """Check the variational identity behind the maximum-entropy principle.

    With A = -beta h, every state nu satisfies
    tr(nu A) + S(nu) <= log tr(e^A), with equality at the thermal state.
    Random states are drawn with :func:`random_density`.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(rng_seed)
    a = -beta * h
    w = np.linalg.eigvalsh(a)
    log_z = float(np.log(np.sum(np.exp(w - w.max()))) + w.max())

    def functional(nu: np.ndarray) -> float:
        return float(np.trace(nu @ a).real) + entropy(nu)

    violations = [functional(random_density(h.shape[0], rng)) - log_z for _ in range(trials)]
    gap = functional(gibbs(h, beta)) - log_z
    return VariationalReport(max_violation=float(np.max(violations)), equality_gap=gap, trials=trials)


@dataclass(frozen=True)
class MeasurementResult:
    """Projective measurement outcome law and conditional post states.

    ``post_states[k]`` is the normalized state after observing
    ``outcomes.locations[k]``; zero-probability outcomes are absent
    from ``outcomes`` and carry no post state.
    """

    outcomes: AtomicMeasure
    post_states: list = field(repr=False)

    @property
    def expectation(self) -> float:
        return self.outcomes.mean


def measure(rho: np.ndarray, a: np.ndarray) -> MeasurementResult:
    """Projective measurement of a Hermitian observable in a state.

    Outcome weight at eigenvalue x is tr(rho P_x); the conditional post state
    is P_x rho P_x / tr(rho P_x).  Eigenvalues within 1e-9 * ||a|| of each
    other (clustered by :func:`~fcslab.linalg.eig_hermitian`) yield a single
    outcome; outcomes of weight at most WEIGHT_DROP_TOL are left out,
    and their total is the outcome law's ``dropped_mass``.
    """
    assert_density(rho)
    if rho.shape != a.shape:
        raise ValueError(f"state dim {rho.shape[0]} != observable dim {a.shape[0]}")
    dec = eig_hermitian(a)
    locs, wts, posts, dropped = [], [], [], 0.0
    for lam, p in zip(dec.eigenvalues, dec.projectors):
        w = float(np.trace(rho @ p).real)
        if w > WEIGHT_DROP_TOL:
            locs.append(lam)
            wts.append(w)
            posts.append(p @ rho @ p / w)
        else:
            dropped += max(w, 0.0)
    outcomes = AtomicMeasure(np.array(locs), np.array(wts), dropped)
    return MeasurementResult(outcomes=outcomes, post_states=posts)


def kms_defect(
    rho: np.ndarray,
    h: np.ndarray,
    beta: float,
    pairs: list[tuple[np.ndarray, np.ndarray]],
) -> float:
    """Worst-case violation of the equilibrium boundary condition.

    Returns max over pairs (A, B) of
    |tr(rho A e^{-beta h} B e^{beta h}) - tr(rho B A)|.
    The defect vanishes exactly when rho is the thermal state of h at
    inverse temperature beta.  It is NaN if the defect of any pair is NaN.
    """
    if not pairs:
        raise ValueError("at least one (A, B) pair is required")
    assert_density(rho)
    # Centering the spectrum keeps both exponentials bounded; the conjugation
    # e^{-beta h} B e^{beta h} is invariant under the shift.
    w = np.linalg.eigvalsh(h)
    h0 = h - np.eye(h.shape[0]) * ((w[0] + w[-1]) / 2)
    em = expm_hermitian(h0, -beta)
    ep = expm_hermitian(h0, beta)
    return _max_residual(
        abs(complex(np.trace(rho @ a @ em @ b @ ep)) - complex(np.trace(rho @ b @ a)))
        for a, b in pairs
    )
