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
    real_or_complex,
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
class Coupling:
    """The coupling V = sum_k A_k (x) B_k on C^d_S (x) C^d_R, held as its
    Kronecker terms (A_k, B_k), read-only.  ``matrix`` is V as one d x d
    array, built from the terms on its first read; a coupling given as that
    matrix (:meth:`of_matrix`) keeps it, and its terms are its nonzero
    d_R x d_R blocks E_ij (x) B_ij, as views.  ``with_lam`` cells share the
    one object, so the matrix, once built, is shared too."""

    terms: tuple[tuple[np.ndarray, np.ndarray], ...]
    dims: tuple[int, int]

    @classmethod
    def of_factors(cls, terms, d_s: int, d_r: int) -> "Coupling":
        """The coupling sum_k A_k (x) B_k, each factor validated on its own:
        A_k square of size d_S, B_k of size d_R, each finite and Hermitian, so
        that A_k (x) B_k is Hermitian (ValueError or NonHermitianError)."""
        terms = tuple((real_or_complex(a), real_or_complex(b)) for a, b in terms)
        for k, term in enumerate(terms):
            for factor, which, dim, size in zip(term, ("system", "reservoir"), ("d_S", "d_R"), (d_s, d_r)):
                name = f"coupling term {k} {which} factor"
                assert_square(factor, name)
                if len(factor) != size:
                    raise ValueError(f"{name} has dimension {len(factor)}, not {dim} = {size}")
                assert_hermitian(factor, name=name)
        return cls(terms, (d_s, d_r))

    @classmethod
    def of_matrix(cls, v, d_s: int, d_r: int) -> "Coupling":
        """The coupling given as a Hermitian d x d matrix, stored once."""
        v = real_or_complex(v)
        d = d_s * d_r
        if v.shape != (d, d):
            raise ValueError(f"coupling dimension {v.shape} != (d_S*d_R, d_S*d_R) = {(d, d)}")
        assert_hermitian(v, name="v")
        blocks = v.reshape(d_s, d_r, d_s, d_r)
        terms = []
        for i, j in zip(*np.nonzero(blocks.any(axis=(1, 3)))):
            unit = np.zeros((d_s, d_s))
            unit[i, j] = 1.0
            terms.append((unit, blocks[i, :, j]))
        coupling = cls(tuple(terms), (d_s, d_r))
        coupling.__dict__["matrix"] = v
        return coupling

    @cached_property
    def matrix(self) -> np.ndarray:
        d = self.dims[0] * self.dims[1]
        v = np.zeros((d, d), dtype=np.result_type(float, *(x for term in self.terms for x in term)))
        for a, b in self.terms:
            v += np.kron(a, b)
        v.setflags(write=False)
        return v


def _term_sum(terms, s_i, s_j, r_i, r_j) -> np.ndarray:
    """sum_k A_k[s_i, s_j] B_k[r_i, r_j] over the terms (A_k, B_k), in their
    order, broadcast over the index arrays: the entries of sum_k A_k (x) B_k
    at the levels (s_i, r_i), (s_j, r_j)."""
    dtype = np.result_type(float, *(x for term in terms for x in term))
    total = np.zeros(np.broadcast(s_i, s_j, r_i, r_j).shape, dtype=dtype)
    for a, b in terms:
        total += a[s_i, s_j] * b[r_i, r_j]
    return total


def _exp_i_eigh(u: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """(u * e^{i theta}) u* for a unitary u.  A real u gives (u cos) u^T +
    i (u sin) u^T, two real products written into the real and imaginary
    views of the result, where the complex form would cast u^T to complex."""
    if np.iscomplexobj(u):
        return (u * exp_i(theta)) @ dagger(u)
    out = np.empty(u.shape, dtype=complex)
    np.matmul(u * np.cos(theta), u.T, out=out.real)
    np.matmul(u * np.sin(theta), u.T, out=out.imag)
    return out


@dataclass(frozen=True, eq=False, init=False)
class Scenario:
    """A confined system+reservoir model.

    Fields: the system Hamiltonian ``h_sys`` (dim d_S), reservoir Hamiltonian
    ``h_res`` (dim d_R), the Hermitian ``coupling`` V on the product space,
    coupling strength ``lam``, inverse temperature ``beta > 0``, and the
    system's initial state ``rho_sys``.  The reservoir starts in its thermal
    state at ``beta``.  The constructor takes V as ``v``: a d x d matrix, or
    a tuple of its Kronecker terms ((A_1, B_1), ...), V = sum_k A_k (x) B_k,
    as the chain presets give it (see :class:`Coupling`).  V is held in that
    one form; ``v`` is the d x d matrix, built on first read by the dense
    callers (``h_coupled``, the fluxes, the direct energy bookkeeping,
    ``v_norm``, Dyson, ``Liouvilleans``, configs) and never by the sweep.
    Instances are immutable; derived matrices are cached.
    """

    h_sys: np.ndarray
    h_res: np.ndarray
    coupling: Coupling
    lam: float
    beta: float
    rho_sys: np.ndarray

    def __init__(self, h_sys, h_res, v, lam: float, beta: float, rho_sys):
        for name, value in (("h_sys", h_sys), ("h_res", h_res), ("rho_sys", rho_sys)):
            object.__setattr__(self, name, real_or_complex(value))
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "beta", beta)
        assert_square(self.h_sys, "h_sys")
        assert_square(self.h_res, "h_res")
        if self.rho_sys.shape != self.h_sys.shape:
            raise ValueError("rho_sys dimension does not match h_sys")
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise ValueError(f"beta must be positive and finite, got {self.beta!r}")
        if not math.isfinite(self.lam):
            raise ValueError("lam must be finite")
        assert_hermitian(self.h_sys, name="h_sys")
        assert_hermitian(self.h_res, name="h_res")
        build = Coupling.of_factors if isinstance(v, tuple) else Coupling.of_matrix
        object.__setattr__(self, "coupling", build(v, len(self.h_sys), len(self.h_res)))
        assert_density(self.rho_sys, name="rho_sys")

    @property
    def v(self) -> np.ndarray:
        """The coupling V as a d x d matrix, built once per model on first read."""
        return self.coupling.matrix

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
    def h_free(self) -> np.ndarray:
        """Uncoupled Hamiltonian H_S (x) 1 + 1 (x) H_R."""
        return tensor(self.h_sys, np.eye(self.dim_res)) + tensor(np.eye(self.dim_sys), self.h_res)

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
        levels by ``linalg.rayleigh_quotients``.  V~ is never formed: each
        Kronecker term A_k (x) B_k of V (:class:`Coupling`, for a matrix V its
        blocks) gives A~_k = V_S* A_k V_S and B~_k = V_R* B_k V_R, real where
        the factors are, and V~ = sum_k A~_k (x) B~_k.  The pattern is taken
        one d_R x d_R block of V~ at a time into one d x d boolean array, and
        each sector's block is sum_k A~_k[s_i, s_j] B~_k[r_i, r_j] at its levels
        (s, r).  On a parity chain V_R is block diagonal by parity, so the zeros
        across sectors are exact.  lam-free: every ``with_lam`` cell shares it."""
        v_s, v_r = self._eig_sys[1], self._eig_res[1]
        e = np.add.outer(rayleigh_quotients(self.h_sys, v_s), rayleigh_quotients(self.h_res, v_r)).ravel()
        terms = [(dagger(v_s) @ a @ v_s, dagger(v_r) @ b @ v_r) for a, b in self.coupling.terms]
        d_s, d_r = self.dim_sys, self.dim_res
        levels = np.arange(d_r)
        pattern = np.empty((d_s, d_r, d_s, d_r), dtype=bool)
        for i, j in np.ndindex(d_s, d_s):
            pattern[i, :, j] = _term_sum(terms, i, j, levels[:, None], levels) != 0
        sectors = []
        for rows in _components(pattern.reshape(self.dim, self.dim)):
            s, r = np.divmod(rows, d_r)
            sectors.append((rows, e[rows], _term_sum(terms, s[:, None], s, r[:, None], r)))
        return sectors

    @cached_property
    def _free_basis_sectors(self) -> list[FreeBasisSector]:
        """The coupled eigenvectors in the free product eigenbasis,
        A = (V_S (x) V_R)* v_c, one sector at a time: H_coupled there is
        H~ = diag(e_s + e_r) + lam V~, and one eigh of its block on each
        sector of :attr:`_free_basis_coupling` gives that sector's block of A,
        and w is its columns' Rayleigh quotients, the free part, most of ||H||,
        summed in extended precision about 2^16 terms at a time, each column's
        sums in row order.  U~ = (A e^{itw}) A* is zero outside the sectors'
        (rows, rows) blocks, as A is."""
        sectors = []
        for rows, e, v in self._free_basis_coupling:
            a = eigh_finite(np.diag(e) + self.lam * v)[1]
            is_complex = np.iscomplexobj(a)
            free_and_norm = np.vstack((e, np.ones(len(e))))
            sums = np.empty((2, len(e)), dtype=np.longdouble)
            step = max(1, 2**16 // len(e))
            for c in range(0, len(e), step):
                x = a[:, c:c + step].astype(np.clongdouble if is_complex else np.longdouble)
                x = (x.conj() * x).real if is_complex else np.multiply(x, x, out=x)  # a real chunk: in place
                sums[:, c:c + step] = free_and_norm @ x
            del x  # not held into the next sector's eigh
            w = (sums[0] + self.lam * np.einsum("ik,ik->k", a.conj() if is_complex else a, v @ a).real) / sums[1]
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
        return _exp_i_eigh(u, t * w)

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
        h = tensor(self.h_sys, np.eye(self.dim_res))
        return self.lam * 1j * (h @ self.v - self.v @ h)

    @cached_property
    def phi_res(self) -> np.ndarray:
        """Reservoir energy current lam * i [1 (x) H_R, V]; phi_sys + phi_res =
        lam * i [H_free, V], the total-energy current into the coupling term."""
        h = tensor(np.eye(self.dim_sys), self.h_res)
        return self.lam * 1j * (h @ self.v - self.v @ h)

    @cached_property
    def v_norm(self) -> float:
        """Operator norm of the coupling V: lam-free, so ``with_lam`` shares it once built."""
        return op_norm(self.v)

    @cached_property
    def energy_scale(self) -> float:
        """max(1, ||H_free|| + |lam| ||V||), with ||H_free|| exactly max(|e_S,max + e_R,max|,
        |e_S,min + e_R,min|) from the factor spectra: H_free's spectrum is every sum e_S + e_R."""
        (e_s, _), (e_r, _) = self._eig_sys, self._eig_res
        h_free_norm = max(abs(e_s[-1] + e_r[-1]), abs(e_s[0] + e_r[0]))
        return float(max(1.0, h_free_norm + abs(self.lam) * self.v_norm))


_COUPLING_CACHES = (
    "h_coupled", "_eig_coupled", "_free_basis_sectors", "phi_sys", "phi_res", "energy_scale",
)


def _energy_changes(scn: Scenario, t: float) -> tuple[float, float, float]:
    """<tau^t(A)> - <A> for A = H_S (x) 1, 1 (x) H_R and V, read in O(d^2) from the one
    evolved state rho_t = U(t)* rho_init U(t), viewed as a (d_S, d_R, d_S, d_R) array:
    its partial traces against h_sys and h_res, and an entrywise sum against V."""

    def energies(rho):
        blocks = rho.reshape(scn.dim_sys, scn.dim_res, scn.dim_sys, scn.dim_res)
        pairs = (np.einsum("ibjb->ij", blocks), scn.h_sys), (np.einsum("ibic->bc", blocks), scn.h_res), (rho, scn.v)
        return [float(np.einsum("ij,ji->", x, a).real) for x, a in pairs]

    u = scn.unitary_coupled(t)
    return tuple(after - before for after, before in zip(energies(dagger(u) @ scn.rho_init @ u), energies(scn.rho_init)))


def delta_q_direct(scn: Scenario, t: float) -> tuple[float, float]:
    """Two-time energy bookkeeping from expectation values.

    Returns (dq_sys, dq_res): the increase of the system energy and the
    decrease of the reservoir energy between times 0 and t,
    dq_sys = <tau^t(H_S)> - <H_S>, dq_res = <H_R> - <tau^t(H_R)>, read from one
    evolved state, its U(t) from the dense eigh of H_coupled, not the FCS's sectors.
    """
    if t == 0.0:
        return 0.0, 0.0
    gain_s, gain_r, _ = _energy_changes(scn, t)
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
    :func:`delta_q_direct` and all three read from its own one evolved state;
    vanishes up to roundoff for every (lam, t), and is 0.0 at t = 0, where
    no U(t) is formed.
    """
    if t == 0.0:
        return 0.0
    gain_s, gain_r, gain_v = _energy_changes(scn, t)
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
