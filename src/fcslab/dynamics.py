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
    _components,
    assert_hermitian,
    assert_square,
    dagger,
    eigh_blocks,
    eigh_finite,
    exp_i,
    expm,
    gauss_kronrod,
    op_norm,
    rayleigh_quotients,
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
    """One sector of H_coupled in the free product eigenbasis: its free levels
    ``rows`` (a row (s, b) is the free level s * d_R + b), the eigenvalues
    ``w`` and eigenvectors ``a`` of its block, which is A's block on the
    sector (real where the block is), and the positions (first, second) of
    the rows that share a reservoir level."""

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
    def _eig_coupled(self) -> tuple[np.ndarray, np.ndarray]:
        """eigh of H_coupled as one d x d eigenvector matrix by ``linalg.eigh_blocks``,
        for the callers that need it dense; the eigenvalues are refined to
        their rounding by ``linalg.rayleigh_quotients``, as the sectors' are."""
        v = eigh_blocks(self.h_coupled)[1]
        return rayleigh_quotients(self.h_coupled, v), v

    @cached_property
    def _free_basis_coupling(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """V~ = (V_S (x) V_R)* V (V_S (x) V_R), the coupling in the free product
        eigenbasis, split into the connected components of its nonzero pattern
        with no tolerance: one (rows, e_s + e_r, V~[rows, rows]) per sector, the
        levels by ``linalg.rayleigh_quotients``, taken before V~ is allocated so
        that their temporaries do not stack on it.  V~ is the sum of (V_S* E_ij V_S) (x) (V_R* B_ij V_R) over the nonzero
        d_R x d_R blocks B_ij of V, real where V and the factors are; on a
        parity chain V_R is block diagonal by parity, so the zeros across
        sectors are exact.  lam-free: every ``with_lam`` cell shares it."""
        v_s, v_r = (v if v.imag.any() else v.real for _, v in (self._eig_sys, self._eig_res))
        e = np.add.outer(rayleigh_quotients(self.h_sys, v_s), rayleigh_quotients(self.h_res, v_r)).ravel()
        d_s, d_r = self.dim_sys, self.dim_res
        b = self.v.reshape(d_s, d_r, d_s, d_r)
        if not b.imag.any():
            b = b.real
        v_tilde = np.zeros((d_s, d_r, d_s, d_r), dtype=np.result_type(v_s, v_r, b))
        for i, j in zip(*np.nonzero(b.any(axis=(1, 3)))):
            c = dagger(v_r) @ b[i, :, j] @ v_r
            coef = np.outer(v_s[i].conj(), v_s[j])  # V_S* E_ij V_S
            for k, l in zip(*np.nonzero(coef)):
                v_tilde[k, :, l] += coef[k, l] * c
        v_tilde = v_tilde.reshape(self.dim, self.dim)
        return [(rows, e[rows], v_tilde[np.ix_(rows, rows)]) for rows in _components(v_tilde != 0)]

    @cached_property
    def _free_basis_sectors(self) -> list[FreeBasisSector]:
        """The coupled eigenvectors in the free product eigenbasis,
        A = (V_S (x) V_R)* v_c, one sector at a time: H_coupled there is
        H~ = diag(e_s + e_r) + lam V~, and one eigh of its block on each
        sector of :attr:`_free_basis_coupling` gives that sector's block of A,
        and w is its columns' Rayleigh quotients, the free part, most of ||H||,
        summed in extended precision.  U~ = (A e^{itw}) A* is zero outside the
        sectors' (rows, rows) blocks, as A is."""
        sectors = []
        for rows, e, v in self._free_basis_coupling:
            a = eigh_finite(np.diag(e) + self.lam * v)[1]
            x = a.astype(np.clongdouble if np.iscomplexobj(a) else np.longdouble)
            p = (x.conj() * x).real
            w = (e @ p + self.lam * np.einsum("ik,ik->k", a.conj(), v @ a).real) / p.sum(axis=0)
            sectors.append(FreeBasisSector(rows, w.astype(float), a, self._shared_level_pairs(rows)))
        return sectors

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
        H_S and H_R and builds V~ once.  ``_COUPLING_CACHES`` are not inherited."""
        if not math.isfinite(lam):
            raise ValueError("lam must be finite")
        self._free_basis_coupling, self.gibbs_weights_res  # built once, before the copy shares them
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
    "h_coupled", "_eig_coupled", "_free_basis_sectors", "phi_sys", "phi_res", "energy_scale",
)


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
