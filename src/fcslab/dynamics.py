"""Coupled system+reservoir models: Heisenberg dynamics, energy fluxes,
two-time energy bookkeeping, and truncated Dyson cocycles."""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .linalg import (
    NumericalError,
    assemble_blocks,
    assert_hermitian,
    assert_square,
    bipartite_sectors,
    dagger,
    eigh_blocks,
    eigh_each_block,
    exp_i,
    expm,
    gauss_kronrod,
    op_norm,
    tensor,
)
from .states import assert_density, gibbs_weights

DEFAULT_QUAD_TOL = 1e-8


class QuadratureError(NumericalError, RuntimeError):
    """Numerical integration failed to reach the requested tolerance."""

    def __init__(self, message: str, achieved: float):
        super().__init__(message)
        self.achieved = achieved


class FreeBasisSector(NamedTuple):
    """One sector of the coupled eigenvectors in the free product eigenbasis:
    ``a`` = A[rows, columns] (real where its imaginary part is zero), the
    coupled eigenvalues ``w`` of its columns, and the positions (first,
    second) of the rows that share a reservoir level.  A row (s, b) is the
    free level s * d_R + b."""

    rows: np.ndarray
    w: np.ndarray
    a: np.ndarray
    pairs: tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True, eq=False)
class Scenario:
    """A confined system+reservoir model.

    Fields: the system Hamiltonian ``h_sys`` (dim d_S), reservoir Hamiltonian
    ``h_res`` (dim d_R), Hermitian coupling ``v`` on the product space,
    coupling strength ``lam``, inverse temperature ``beta > 0``, and the
    system's initial state ``rho_sys``.  The reservoir starts in its thermal
    state at ``beta``.  Instances are immutable; derived matrices are cached.
    """

    h_sys: np.ndarray
    h_res: np.ndarray
    v: np.ndarray
    lam: float
    beta: float
    rho_sys: np.ndarray

    def __post_init__(self):
        for name in ("h_sys", "h_res", "v", "rho_sys"):
            arr = np.array(getattr(self, name), dtype=complex)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        assert_square(self.h_sys, "h_sys")
        assert_square(self.h_res, "h_res")
        d = self.h_sys.shape[0] * self.h_res.shape[0]
        if self.v.shape != (d, d):
            raise ValueError(f"coupling dimension {self.v.shape} != (d_S*d_R, d_S*d_R) = {(d, d)}")
        if self.rho_sys.shape != self.h_sys.shape:
            raise ValueError("rho_sys dimension does not match h_sys")
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise ValueError(f"beta must be positive and finite, got {self.beta!r}")
        if not math.isfinite(self.lam):
            raise ValueError("lam must be finite")
        assert_hermitian(self.h_sys, name="h_sys")
        assert_hermitian(self.h_res, name="h_res")
        assert_hermitian(self.v, name="v")
        assert_density(self.rho_sys, name="rho_sys")

    @property
    def dim_sys(self) -> int:
        return self.h_sys.shape[0]

    @property
    def dim_res(self) -> int:
        return self.h_res.shape[0]

    @property
    def dim(self) -> int:
        return self.dim_sys * self.dim_res

    @cached_property
    def h_sys_full(self) -> np.ndarray:
        return tensor(self.h_sys, np.eye(self.dim_res))

    @cached_property
    def h_res_full(self) -> np.ndarray:
        return tensor(np.eye(self.dim_sys), self.h_res)

    @cached_property
    def h_free(self) -> np.ndarray:
        """Uncoupled Hamiltonian H_S (x) 1 + 1 (x) H_R."""
        return self.h_sys_full + self.h_res_full

    @cached_property
    def h_coupled(self) -> np.ndarray:
        """H_free + lam * V."""
        return self.h_free + self.lam * self.v

    @cached_property
    def _eig_sys(self) -> tuple[np.ndarray, np.ndarray]:
        """eigh of h_sys by ``linalg.eigh_blocks``, as for h_res."""
        return eigh_blocks(self.h_sys)

    @cached_property
    def _eig_res(self) -> tuple[np.ndarray, np.ndarray]:
        """eigh of h_res by ``linalg.eigh_blocks``, as in ``states.gibbs``: each
        eigenvector of a parity-conserving chain has a definite parity."""
        return eigh_blocks(self.h_res)

    @cached_property
    def gibbs_weights_res(self) -> np.ndarray:
        """Thermal populations of the reservoir levels, in ``_eig_res`` order."""
        return gibbs_weights(self._eig_res[0], self.beta)

    @cached_property
    def rho_res(self) -> np.ndarray:
        """Reservoir thermal state at beta, from the one eigh of h_res."""
        return (self._eig_res[1] * self.gibbs_weights_res) @ dagger(self._eig_res[1])

    @cached_property
    def sqrt_rho_res(self) -> np.ndarray:
        """rho_res^(1/2) = (V_R sqrt(p)) V_R*, from the one eigh of h_res."""
        return (self._eig_res[1] * np.sqrt(self.gibbs_weights_res)) @ dagger(self._eig_res[1])

    @cached_property
    def rho_sys_thermal(self) -> np.ndarray:
        """System thermal state at beta, from the one eigh of h_sys (bitwise ``gibbs(h_sys, beta)``)."""
        w, v = self._eig_sys
        return (v * gibbs_weights(w, self.beta)) @ dagger(v)

    @cached_property
    def rho_init(self) -> np.ndarray:
        """Initial joint state rho_sys (x) rho_res."""
        return tensor(self.rho_sys, self.rho_res)

    @cached_property
    def rho_eq(self) -> np.ndarray:
        """Uncoupled equilibrium state gibbs(H_S) (x) gibbs(H_R)."""
        return tensor(self.rho_sys_thermal, self.rho_res)

    @cached_property
    def _coupled_blocks(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """eigh of H_coupled, one (indices, eigenvalues, eigenvectors) per
        invariant block (``linalg.eigh_each_block``), real where H_coupled is."""
        return eigh_each_block(self.h_coupled)

    @cached_property
    def _eig_coupled(self) -> tuple[np.ndarray, np.ndarray]:
        """eigh of H_coupled as one d x d eigenvector matrix, assembled from
        ``_coupled_blocks`` for the callers that need it dense (bitwise
        ``linalg.eigh_blocks(h_coupled)``)."""
        return assemble_blocks(self._coupled_blocks, complex)

    @cached_property
    def _free_basis_sectors(self) -> list[FreeBasisSector]:
        """The coupled eigenvectors in the free product eigenbasis,
        A = (V_S (x) V_R)* v_c, split into sectors: one per connected component
        of the bipartite graph of A's nonzero entries, with no tolerance.  A is
        unitary, so each sector is square, and U~ = (A e^{itw}) A* is zero
        outside the (rows, rows) blocks.  A is built block by block of
        H_coupled, each on the free levels it reaches
        (:meth:`_free_basis_columns`), so its zeros outside the blocks are
        never stored; blocks that reach a common free level are joined first."""
        v_s, v_r = (v if v.imag.any() else v.real for _, v in (self._eig_sys, self._eig_res))
        pieces = [self._free_basis_columns(v_s, v_r, *block) for block in self._coupled_blocks]
        sectors = []
        for rows, w, a in _join_shared_rows(pieces, self.dim):
            for r, c in bipartite_sectors(a != 0):
                blk = a[np.ix_(r, c)]
                if np.iscomplexobj(blk) and not blk.imag.any():
                    blk = blk.real.copy()
                sectors.append(FreeBasisSector(rows[r], w[c], blk, self._shared_level_pairs(rows[r])))
        return sectors

    def _free_basis_columns(self, v_s, v_r, idx, w, v) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, w, A[rows, block]) for the block (idx, w, v) of H_coupled: its
        columns of A are (V_S (x) V_R)*[:, idx] v, applied factor by factor
        (V_R* on each system index, then V_S*) on the free levels they can reach,
        in real arithmetic where v and the factors are real."""
        d_r = self.dim_res
        sys_of, res_of = np.divmod(idx, d_r)
        reached = {}  # system index s -> (reservoir levels, V_R*[levels, r] v[(s, r)])
        for s in range(self.dim_sys):
            on_s = sys_of == s
            if on_s.any():
                r = res_of[on_s]
                levels = np.flatnonzero((v_r[r] != 0).any(axis=0))
                reached[s] = levels, dagger(v_r[np.ix_(r, levels)]) @ v[on_s]
        rows, parts = [], []
        for s2 in range(self.dim_sys):
            terms = [(np.conj(v_s[s, s2]), *reached[s]) for s in reached if v_s[s, s2] != 0]
            if not terms:
                continue
            levels = np.flatnonzero(np.bincount(np.concatenate([lv for _, lv, _ in terms]), minlength=d_r))
            part = np.zeros((len(levels), v.shape[1]), dtype=np.result_type(v_s, *(x for *_, x in terms)))
            for c, lv, x in terms:
                part[np.searchsorted(levels, lv)] += c * x
            rows.append(s2 * d_r + levels)
            parts.append(part)
        return np.concatenate(rows), w, np.concatenate(parts)

    def _shared_level_pairs(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Positions (first, second), first < second, of the pairs of free levels
        in ``rows`` with the same reservoir level: a level occurs at most d_S
        times, so the pairs are the equal keys m = 1 .. d_S - 1 apart in sorted order."""
        keys = rows % self.dim_res
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        first, second = [np.empty(0, dtype=int)], [np.empty(0, dtype=int)]
        for m in range(1, self.dim_sys):
            same = keys[m:] == keys[:-m]
            first.append(order[:-m][same])
            second.append(order[m:][same])
        return np.concatenate(first), np.concatenate(second)

    def unitary_coupled(self, t: float) -> np.ndarray:
        """exp(i t H_coupled)."""
        w, u = self._eig_coupled
        return (u * exp_i(t * w)) @ dagger(u)

    def unitary_free(self, t: float) -> np.ndarray:
        """exp(i t H_free) = e^{itH_S} (x) e^{itH_R}, from the two factor spectra."""
        return tensor(*((v * exp_i(t * w)) @ dagger(v) for w, v in (self._eig_sys, self._eig_res)))

    def evolve(self, a: np.ndarray, t: float) -> np.ndarray:
        """Coupled Heisenberg evolution e^{itH} a e^{-itH}."""
        u = self.unitary_coupled(t)
        return u @ a @ dagger(u)

    def expect(self, a: np.ndarray) -> float:
        """Expectation of a Hermitian observable in the initial state: tr(rho a)
        summed entrywise, O(d^2)."""
        return float(np.einsum("ij,ji->", self.rho_init, a).real)

    def with_lam(self, lam: float) -> "Scenario":
        """This model at coupling ``lam``: the fields and every lam-free cache
        are shared by reference (the arrays are read-only), not re-validated;
        the caches every coupling reads are built first, so a sweep decomposes
        H_S and H_R once.  ``_COUPLING_CACHES`` are not inherited."""
        if not math.isfinite(lam):
            raise ValueError("lam must be finite")
        self.h_free, self._eig_sys, self.gibbs_weights_res  # built once, before the copy shares them
        cell = copy.copy(self)
        object.__setattr__(cell, "lam", lam)
        for name in _COUPLING_CACHES:
            cell.__dict__.pop(name, None)
        return cell

    @cached_property
    def phi_sys(self) -> np.ndarray:
        """System energy current lam * i [H_S (x) 1, V]."""
        return self.lam * 1j * (self.h_sys_full @ self.v - self.v @ self.h_sys_full)

    @cached_property
    def phi_res(self) -> np.ndarray:
        """Reservoir energy current lam * i [1 (x) H_R, V]; phi_sys + phi_res =
        lam * i [H_free, V], the total-energy current into the coupling term."""
        return self.lam * 1j * (self.h_res_full @ self.v - self.v @ self.h_res_full)

    @cached_property
    def v_norm(self) -> float:
        """Operator norm of the coupling V: lam-free, so ``with_lam`` shares it once built."""
        return op_norm(self.v)

    @cached_property
    def energy_scale(self) -> float:
        return max(1.0, op_norm(self.h_free) + abs(self.lam) * self.v_norm)


_COUPLING_CACHES = (
    "h_coupled", "_coupled_blocks", "_eig_coupled", "_free_basis_sectors", "phi_sys", "phi_res", "energy_scale",
)


def _join_shared_rows(pieces: list, d: int) -> list:
    """The pieces (rows, w, a) of A, with those that share a row joined into
    one, their columns side by side.  Each block of H_coupled is a union of
    blocks of H_free, and so reaches free levels of its own, unless lam V
    cancels an entry of H_free exactly."""
    owner = np.full(d, -1)
    groups = {}
    for k, piece in enumerate(pieces):
        hit = sorted(set(owner[piece[0]].tolist()) - {-1})
        groups[k] = [p for h in hit for p in groups.pop(h)] + [piece]
        for rows, _, _ in groups[k]:
            owner[rows] = k
    joined = []
    for group in groups.values():
        if len(group) == 1:
            joined.append(group[0])
            continue
        rows = np.flatnonzero(np.bincount(np.concatenate([r for r, _, _ in group]), minlength=d))
        a = np.zeros((len(rows), sum(x.shape[1] for _, _, x in group)), dtype=np.result_type(*(x for _, _, x in group)))
        col = 0
        for r, _, x in group:
            a[np.searchsorted(rows, r), col:col + x.shape[1]] = x
            col += x.shape[1]
        joined.append((rows, np.concatenate([w for _, w, _ in group]), a))
    return joined


def _expectation_changes(scn: Scenario, t: float, observables: tuple) -> list[float]:
    """<tau^t(A)> - <A> for each observable A, every tau^t from one U(t)."""
    u = scn.unitary_coupled(t)
    return [scn.expect(u @ a @ dagger(u)) - scn.expect(a) for a in observables]


def delta_q_direct(scn: Scenario, t: float) -> tuple[float, float]:
    """Two-time energy bookkeeping from expectation values.

    Returns (dq_sys, dq_res): the increase of the system energy and the
    decrease of the reservoir energy between times 0 and t,
    dq_sys = <tau^t(H_S)> - <H_S>, dq_res = <H_R> - <tau^t(H_R)>.
    """
    if t == 0.0:
        return 0.0, 0.0
    gain_s, gain_r = _expectation_changes(scn, t, (scn.h_sys_full, scn.h_res_full))
    return gain_s, 0.0 - gain_r  # not -gain_r: a zero change is +0.0, as <H_R> - <tau^t(H_R)> gives


def quad(f, a: float, b: float, epsabs: float, epsrel: float, limit: int = 10000):
    """:func:`~fcslab.linalg.gauss_kronrod` on a scalar f; its evaluations are counted apart from ``fcs.quad_vec``."""
    return gauss_kronrod(f, a, b, epsabs, epsrel, limit)


def check_flux_error(err: float, quad_tol: float) -> None:
    """QuadratureError unless a flux integral's error is within quad_tol; NaN fails."""
    if not err <= quad_tol + 1e-14:
        raise QuadratureError(f"flux-integral quadrature error {err:.3e} > {quad_tol:.3e}", err)


def _quad_expect_flux(scn: Scenario, rho_c: np.ndarray, phi: np.ndarray, t: float, quad_tol: float) -> float:
    """Integral of <tau^s(phi)> over [0, t].  In the coupled eigenbasis v, with
    e(s) = e^{isw}, the integrand is e(s)^T M e(-s), M = rho_c . (v* phi v)
    entrywise, rho_c = (v* rho v)^T: O(d^2) per evaluation."""
    w, v = scn._eig_coupled
    m = rho_c * (dagger(v) @ phi @ v)

    def integrand(s: float) -> float:
        return float((exp_i(s * w) @ m @ exp_i(-s * w)).real)

    val, err = quad(integrand, 0.0, t, epsabs=quad_tol, epsrel=1e-13, limit=400)
    check_flux_error(err, quad_tol)
    return float(val)


def delta_q_flux(
    scn: Scenario, t: float, quad_tol: float = DEFAULT_QUAD_TOL
) -> tuple[float, float]:
    """Two-time energy bookkeeping from time-integrated fluxes.

    dq_res = integral of <tau^s(phi_res)> over [0, t]; integrating the system
    flux gives the *decrease* of system energy, so dq_sys carries a minus
    sign.  Agrees with :func:`delta_q_direct` within the quadrature
    tolerance.
    """
    if quad_tol <= 0:
        raise ValueError("quad_tol must be positive")
    if t == 0.0:
        return 0.0, 0.0
    v = scn._eig_coupled[1]
    rho_c = (dagger(v) @ scn.rho_init @ v).T
    dq_s = -_quad_expect_flux(scn, rho_c, scn.phi_sys, t, quad_tol)
    dq_r = _quad_expect_flux(scn, rho_c, scn.phi_res, t, quad_tol)
    return dq_s, dq_r


def balance_check(scn: Scenario, t: float) -> float:
    """Residual of the exchanged-energy balance identity.

    |(dq_res - dq_sys) - lam * (<tau^t(V)> - <V>)| with both energies as in
    :func:`delta_q_direct` and all three observables evolved by one U(t);
    vanishes up to roundoff for every (lam, t).
    """
    gain_s, gain_r, gain_v = _expectation_changes(scn, t, (scn.h_sys_full, scn.h_res_full, scn.v))
    if t == 0.0:  # delta_q_direct's exact zeros
        gain_s = gain_r = 0.0
    return abs((-gain_r - gain_s) - scn.lam * gain_v)


def exact_cocycle(scn: Scenario, t: float) -> np.ndarray:
    """Interaction-picture cocycle e^{itH_coupled} e^{-itH_free}.  On HS vectors,
    left multiplication by it is e^{it(L_free + lam pi(V))} e^{-itL_free}."""
    return scn.unitary_coupled(t) @ scn.unitary_free(-t)


def _dyson_tail(x: float, order: int) -> float:
    return x ** (order + 1) * math.exp(x) / math.factorial(order + 1)


def dyson_error_bound(scn: Scenario, t: float, order: int) -> float:
    """Tail bound for the truncated Dyson series of the cocycle.

    (|lam| ||V|| |t|)^(order+1) * exp(|lam| ||V|| |t|) / (order+1)!.
    """
    return _dyson_tail(abs(scn.lam) * scn.v_norm * abs(t), order)


def dyson_cocycle(
    scn: Scenario, t: float, order: int, quad_tol: float = DEFAULT_QUAD_TOL
) -> np.ndarray:
    """Order-truncated Dyson expansion of the interaction-picture cocycle.

    G(mu) = e^{it(H_free + mu V)} e^{-itH_free} is entire in mu, and its
    mu^n Taylor term at mu = lam is the n-th Dyson term Y_n.  Y_0..Y_order
    are summed with the trapezoid rule for Taylor coefficients on the circle
    |mu| = |lam| (Trefethen and Weideman, SIAM Review 56, 2014): with nodes
    mu_j = lam w_j, w_j the N-th roots of unity, the sum is the mean of
    e^{it(H_free + mu_j V)} sum_{n <= order} w_j^{-n}, times e^{-itH_free}.
    Orders n + pN (p >= 1) alias into order n; for N > order they are
    distinct orders >= N, so the aliasing error is at most
    ``dyson_error_bound(scn, t, N - 1)``.  N is the smallest count > order
    that puts this bound below the rounding floor e^x d eps of the node
    exponentials, x = |lam| ||V|| |t|.  Each node costs one d x d
    exponential from :func:`linalg.expm`, on numpy's BLAS alone: no second
    BLAS thread pool is woken between nodes.  The single (order+1)d block
    exponential of Van Loan gives the same terms but holds (order+1)^2 times
    the memory.

    The truncation error against :func:`exact_cocycle` is bounded by
    :func:`dyson_error_bound` plus this a-priori error (aliasing bound plus
    rounding floor); if the a-priori error exceeds ``quad_tol``, a
    QuadratureError is raised.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if t == 0.0 or scn.lam == 0.0 or order == 0:
        return np.eye(scn.dim, dtype=complex)
    x = abs(scn.lam) * scn.v_norm * abs(t)
    floor = math.exp(x) * scn.dim * np.finfo(float).eps
    n_nodes = order + 1
    while floor <= quad_tol and _dyson_tail(x, n_nodes - 1) > floor:
        n_nodes += 1
    est = _dyson_tail(x, n_nodes - 1) + floor
    if est > quad_tol:
        raise QuadratureError(
            f"cocycle error estimate {est:.3e} > {quad_tol:.3e}", est
        )
    nodes = exp_i(2 * np.pi * np.arange(n_nodes) / n_nodes)
    weights = (nodes[:, None] ** -np.arange(order + 1)).sum(axis=1) / n_nodes
    total = np.zeros((scn.dim, scn.dim), dtype=complex)
    for z, wgt in zip(nodes, weights):
        total += wgt * expm(1j * t * (scn.h_free + scn.lam * z * scn.v))
    return total @ scn.unitary_free(-t)
