"""Energy full counting statistics of system and reservoir.

The system FCS is the two-time measurement distribution of the system energy
change; the reservoir FCS is the spectral measure of (1/beta) log of the
relative modular operator between the flowed and static reservoir weights,
taken in the initial-state vector.  Both are atomic at finite size, and
``fcs_at`` reads both for one (scenario, t) from the sector blocks of one
propagator; this module computes them, their characteristic functions on
the complex strip 0 <= Re(alpha) <= 1, and the identities tying the two
routes together: the mean/flux identity, the operator-level balance between
the modular log and the time-integrated flux, the half-line identity at
Re(alpha) = 1/2, the strip growth bound, and the weak-coupling/long-time
limit sweeps.  A sweep cell reads the reservoir characteristic function, mean
and moments from the d_R^2 unmerged atoms, the weight matrix W; only ``fcs``
and ``verify`` merge them.  ``derivative_moments`` is the one contour route to
the moments, for ``verify`` and the sweep alike.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dynamics import DEFAULT_QUAD_TOL, FreeBasisSector, QuadratureError, Scenario, check_flux_error
from .linalg import _max_residual, dagger, eigenvalue_clusters, exp_complex, exp_i, gauss_kronrod, hs_inner, one_blas_thread, positive_sqrt, tensor
from .modular import Liouvilleans, initial_vector, reservoir_weight_vector
from .states import AtomicMeasure

N_MOMENTS = 4
# Largest accepted gap between an atom route to the moments (over W, or the
# merged atoms in verify) and the contour route.
MOMENT_TOL = 1e-6


@dataclass(frozen=True)
class FcsResult:
    """An energy full counting statistics measure with derived summaries.

    ``measure`` is a probability measure; ``mean`` its first moment;
    ``moments[k-1]`` the k-th moment; ``char_samples`` the characteristic
    function sampled on a gamma grid.
    """

    measure: AtomicMeasure
    mean: float
    moments: np.ndarray
    char_samples: list = field(repr=False)

    @classmethod
    def from_measure(cls, mu: AtomicMeasure, gamma_grid: np.ndarray) -> "FcsResult":
        values = mu.char(gamma_grid)
        samples = [(float(g), complex(val)) for g, val in zip(gamma_grid, np.atleast_1d(values))]
        return cls(measure=mu, mean=mu.mean, moments=atom_moments(mu), char_samples=samples)


def atom_moments(mu: AtomicMeasure) -> np.ndarray:
    """Moments 1..N_MOMENTS of the atoms of mu."""
    return np.array([mu.moment(k) for k in range(1, N_MOMENTS + 1)])


def default_gamma_grid(scn: Scenario, n: int = 41) -> np.ndarray:
    """Grid of n points on [-pi/dE, pi/dE], dE the smallest system gap.

    Resolves every system atom without aliasing; falls back to dE = 1 when
    the system Hamiltonian has a single (clustered) level.
    """
    gaps = np.diff(eigenvalue_clusters(scn._eig_sys[0])[1])
    de = float(gaps.min()) if len(gaps) else 1.0
    return np.linspace(-np.pi / de, np.pi / de, n)


@dataclass(frozen=True, eq=False)
class FcsAtTime:
    """Both energy FCS of one (scenario, t), read from the sector blocks of
    U~ = exp(itH) in the free product eigenbasis V_S (x) V_R, each formed
    once.  Build it with :func:`fcs_at`.

    ``system_measure`` holds the merged atoms of the system two-time law (see
    :func:`system_fcs`).  The reservoir law is the spectral measure of the
    relative modular operator of the flowed weight e^{itH}(1 (x) rho_R)
    e^{-itH} to the static weight 1 (x) rho_R.  Its eigenvalues are
    exp(beta (e_j - e_i)) over pairs of product levels i = (s, a),
    j = (s', b), e_i = w_res[a], with weights |<u_i, Omega v_j>|^2.  Every
    (s, s') gives the same location w_res[b] - w_res[a], so the measure has
    d_R^2 atoms, the matrix W[a, b] of weights summed over s and s'.  The
    atoms merged at MERGE_TOL are ``reservoir_measure``, which ``fcs`` and
    ``verify`` read; the sweep reads W itself, through ``char`` and
    ``exact_moments``, and drops no mass.

    The strip function F(alpha) = sum_ab W_ab exp(alpha beta (w_b - w_a)) is
    the bilinear form e(-alpha)^T W e(alpha), e(alpha)_b =
    exp(alpha beta (w_b - c)) with c the spectrum midpoint, so no exponent
    exceeds Re(alpha) beta span / 2: 2 d_R exponentials per alpha.  F is
    entire at finite size; ``char`` takes any complex alpha or an array.
    """

    scn: Scenario
    t: float
    system_measure: AtomicMeasure
    levels: np.ndarray  # w_res, ascending
    weights: np.ndarray  # W[a, b], the atom at w_res[b] - w_res[a] (first - second)

    @property
    def locations(self) -> np.ndarray:
        return self.levels[None, :] - self.levels[:, None]

    @cached_property
    def reservoir_measure(self) -> AtomicMeasure:
        return AtomicMeasure.from_points(self.locations, self.weights)

    def char(self, alpha: complex | np.ndarray) -> complex | np.ndarray:
        """F at each alpha.  The exponentials are a (d_R, k) complex array e,
        and W^T e is one real product over its float64 view (real and imaginary
        parts side by side), so W is never cast to complex."""
        alpha = np.asarray(alpha, dtype=complex)
        x = np.multiply.outer(self.levels - (self.levels[0] + self.levels[-1]) / 2, alpha.ravel() * self.scn.beta)
        e = exp_complex(-x)
        vals = ((self.weights.T @ e.view(np.float64)).view(np.complex128) * exp_complex(x)).sum(axis=0)
        vals = vals.reshape(alpha.shape)
        return complex(vals) if vals.ndim == 0 else vals

    def exact_moments(self) -> np.ndarray:
        """Moments 1..N_MOMENTS of the unmerged atoms: sum_ab W_ab (w_b - w_a)^k."""
        locations = self.locations
        term = self.weights.copy()
        out = np.empty(N_MOMENTS)
        for k in range(N_MOMENTS):
            term *= locations
            out[k] = term.sum()
        return out


def fcs_at(scn: Scenario, t: float) -> FcsAtTime:
    """Both FCS of (scn, t), read from U~ = exp(itH) in the free eigenbasis
    one sector block at a time; U~ is never formed whole.  The system levels
    are those of :func:`~fcslab.linalg.eigenvalue_clusters`, as in ``verify``
    and the sweep; the reservoir atoms merge in ``AtomicMeasure.from_points``.

    With sigma = V_S* rho_S V_S and p the reservoir populations, both weight
    sets are sums over the columns (s, a) of U~ of p_b u* sigma u, where u
    is the part of column (s, a) on the rows (., b) of one reservoir level b:
    W[a, b] sums them (sigma = S~^2 turns |(S~ (x) 1) U~|^2 into this form),
    and the system weight of the level pair (i, j) sums those with rows in
    level i, columns in level j and sigma dephased between system levels.
    U~ is zero outside the sectors' (rows, rows) blocks (each sector's
    eigenvectors come from one eigh of H_coupled written in the free
    eigenbasis, ``Scenario._free_basis_sectors``), so each sector's block B
    gives its share: p_b sigma_ss |B|^2 row by row, plus
    2 p_b Re(conj(B_1) sigma_12 B_2) for each pair of its rows that share
    a reservoir level (none on a parity chain).  So only the rows with
    sigma_ss != 0 or in such a coherent pair are formed, with every column:
    a positive sigma has no coherence on a row whose sigma_ss is 0, so the
    rows left out carry zero weight (half of them for an excited qubit), and
    a full-rank rho_S forms them all.
    """
    d_r = scn.dim_res
    w_s, v_s = scn._eig_sys
    groups, levels = eigenvalue_clusters(w_s)
    level_of = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
    in_level = (level_of[:, None] == np.arange(len(levels))).astype(float)
    sigma = dagger(v_s) @ scn.rho_sys @ v_s
    p = scn.gibbs_weights_res
    res_w, sys_w = np.zeros(d_r * d_r), np.zeros((len(levels), len(levels)))
    for sector in scn._free_basis_sectors:
        s, r = np.divmod(sector.rows, d_r)
        first, second = sector.pairs
        coherent = sigma[s[first], s[second]] != 0
        first, second = first[coherent], second[coherent]
        weighed = sigma.real[s, s] != 0
        weighed[first] = weighed[second] = True
        keep = slice(None) if weighed.all() else np.flatnonzero(weighed)
        re, im = _sector_unitary(sector, t, keep)
        at = np.cumsum(weighed) - 1  # a sector position's row in re and im
        first, second = at[first], at[second]
        s_k, r_k = s[keep], r[keep]
        cross = 2 * p[r_k[first], None] * (
            (re[first] - 1j * im[first]) * sigma[s_k[first], s_k[second], None] * (re[second] + 1j * im[second])
        ).real
        quad = re * re
        quad += im * im
        del re, im
        quad *= (p[r_k] * sigma.real[s_k, s_k])[:, None]
        same = level_of[s_k[first]] == level_of[s_k[second]]
        np.add.at(quad, first[same], cross[same])  # sigma dephased between system levels
        sys_w += in_level[s_k].T @ quad @ in_level[s]
        np.add.at(quad, first[~same], cross[~same])
        res_w += np.bincount((r * d_r + r_k[:, None]).ravel(), quad.ravel(), d_r * d_r)
    system = AtomicMeasure.from_points(levels[None, :] - levels[:, None], sys_w)
    return FcsAtTime(scn, t, system, scn._eig_res[0], res_w.reshape(d_r, d_r))


def _sector_unitary(sector: FreeBasisSector, t: float, keep=slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of the rows ``keep`` (sector positions, by
    default all) of U~[rows, rows] = (a e^{itw}) a* for one sector, every
    column kept; a real block takes two real products."""
    a, phase = sector.a, exp_i(t * sector.w)
    left = a[keep]
    if np.iscomplexobj(a):
        block = (left * phase) @ dagger(a)
        return block.real, block.imag
    return (left * phase.real) @ a.T, (left * phase.imag) @ a.T


def system_fcs(fa: FcsAtTime) -> FcsResult:
    """Two-time measurement statistics of the system energy change.

    Measure the system energy, evolve for time t under the coupled dynamics,
    measure again; atoms sit at differences (second - first) of clustered
    system levels, weighted by the joint outcome law.  Reduces to a point
    mass at zero for t = 0 or lam = 0.  Its characteristic function, as in
    :func:`reservoir_fcs`, is sampled on the model's ``default_gamma_grid``.
    """
    return FcsResult.from_measure(fa.system_measure, default_gamma_grid(fa.scn))


def system_char_limit(scn: Scenario, gamma: float) -> complex:
    """Characteristic function of the decoupled long-time system FCS limit.

    tr(rho_thermal e^{i gamma H_S}) * tr(rho_sys e^{-i gamma H_S}).
    """
    w, v = scn._eig_sys
    phase_p = (v * exp_i(gamma * w)) @ dagger(v)
    phase_m = dagger(phase_p)
    return complex(
        np.trace(scn.rho_sys_thermal @ phase_p) * np.trace(scn.rho_sys @ phase_m)
    )


def reservoir_fcs(fa: FcsAtTime) -> FcsResult:
    """Reservoir energy statistics from the relative modular operator.

    Spectral measure of (1/beta) log Delta(flowed weight | static weight) in
    the initial-state vector.  Atoms sit at the *decrease* of the reservoir
    energy between the two measurements, so the mean equals the
    reservoir-energy drop dq_res; a point mass at zero for t = 0 or lam = 0.
    Its characteristic function is sampled on ``default_gamma_grid(fa.scn)``.
    """
    return FcsResult.from_measure(fa.reservoir_measure, default_gamma_grid(fa.scn))


def _in_strip(alpha: complex | np.ndarray) -> np.ndarray:
    """alpha as a complex array; ValueError naming a point off the strip."""
    alpha = np.asarray(alpha, dtype=complex)
    outside = ~((alpha.real >= 0.0) & (alpha.real <= 1.0))
    if np.any(outside):
        raise ValueError(f"alpha = {complex(alpha[outside][0])} outside the strip 0 <= Re(alpha) <= 1")
    return alpha


def reservoir_char(fa: FcsAtTime, alpha: complex | np.ndarray) -> complex | np.ndarray:
    """The strip function F(alpha) = <Omega, Delta_rel^alpha Omega>.

    Defined for alpha in the closed strip 0 <= Re(alpha) <= 1 (the domain on
    which the bound |F| <= 1 + (d_S - 1) Re(alpha) holds); F(i gamma/beta) is
    the characteristic function of the reservoir FCS and F(0) = 1.  An array
    of alpha gives the array of values.
    """
    return fa.char(_in_strip(alpha))


def quad_vec(f, a: float, b: float, epsabs: float, epsrel: float):
    """:func:`~fcslab.linalg.gauss_kronrod` on an array-valued f; its evaluations are counted apart from ``dynamics.quad``."""
    return gauss_kronrod(f, a, b, epsabs, epsrel)


def mean_identity_check(fa: FcsAtTime, flux_drop: float) -> float:
    """|mean of the reservoir FCS - ``flux_drop``|, the flux-integrated
    reservoir energy drop ``delta_q_flux(fa.scn, fa.t, quad_tol)[1]``."""
    return abs(fa.reservoir_measure.mean - flux_drop)


def operator_balance_check(
    scn: Scenario, t: float, quad_tol: float = DEFAULT_QUAD_TOL
) -> float:
    """Operator-level balance between the modular log and the flux integral.

    Checks log Delta(flowed|static) = log Delta(static) + beta * pi(I_t)
    with I_t the time integral of the evolved reservoir flux.  As
    superoperators, log Delta(flowed|static) X = log_flowed X - X log_static
    and log Delta(static) X = log_static X - X log_static, so on every
    matrix unit E_kl the two sides differ by
    (log_flowed - log_static - beta I_t) E_kl: the right-acting terms cancel,
    and A E_kl moves column k of A to column l.  The largest entrywise
    residual over the whole matrix-unit basis is therefore the largest entry
    of log_flowed - log_static - beta I_t, which is returned.  Raises
    QuadratureError when the flux integral misses ``quad_tol``.
    """
    w_res, v_res = scn._eig_res
    x = -scn.beta * (w_res - w_res.min())  # log rho_res = x - log sum e^x, finite at any beta
    log_rho_res = (v_res * (x - np.log(np.exp(x).sum()))) @ dagger(v_res)
    log_static = tensor(np.eye(scn.dim_sys), log_rho_res)
    log_flowed = scn.evolve(log_static, t)

    if t == 0.0:
        flux_int = 0.0
    else:
        # tau^s(phi_R) = v (e(s) e(-s)^T . phi_c) v*, phi_c = v* phi_R v, e(s) = e^{isw}:
        # integrated in the coupled eigenbasis, rotated back once.  The quadrature's
        # Frobenius error norm does not change under the rotation.
        w, v = scn._eig_coupled
        phi_c = dagger(v) @ scn.phi_res @ v
        flux_c, err = quad_vec(
            lambda s: np.outer(exp_i(s * w), exp_i(-s * w)) * phi_c,
            0.0, t, epsabs=quad_tol, epsrel=1e-13,
        )
        check_flux_error(err, quad_tol)
        flux_int = v @ flux_c @ dagger(v)
    return float(np.max(np.abs(log_flowed - log_static - scn.beta * flux_int)))


def half_line_identity_check(fa: FcsAtTime, s_grid: np.ndarray) -> float:
    """Worst residual over ``s_grid`` of the identity for F(1/2 + is)
    against the Liouvillean route.

    F(1/2 + is) = <e^{i beta s L_half} Omega_hat,
                   e^{itL_coupled} e^{i beta s L_half} Omega_eta>
    where L_half generates the coupled flow against the bare reservoir
    rotation and Omega_hat = (rho_S^(1/2) (x) 1) Omega dresses the initial
    vector with the square root of the system state.  U(t) is formed once
    for the grid, U(beta s) and 1 (x) e^{-i beta s H_R} once per s.  F is
    evaluated one s at a time: an array call sums in another order.  The
    result is NaN if the residual at any s is NaN.  An empty grid is a
    ValueError, raised before anything is formed.
    """
    grid = np.atleast_1d(s_grid)
    if grid.size == 0:
        raise ValueError("s_grid has no points")
    scn = fa.scn
    omega_hat = tensor(positive_sqrt(scn.rho_sys), np.eye(scn.dim_res)) @ initial_vector(scn)
    omega_eta = reservoir_weight_vector(scn)
    u = scn.unitary_coupled(fa.t)
    liouvilleans = Liouvilleans(scn)

    def residual(s: float) -> float:
        left, right = liouvilleans.half_factors(scn.beta * s)
        ket = u @ (left @ omega_eta @ right) @ dagger(u)
        return abs(fa.char(0.5 + 1j * s) - hs_inner(left @ omega_hat @ right, ket))

    return _max_residual(residual(float(s)) for s in grid)


def strip_bounds_check(fa: FcsAtTime, alpha_grid: np.ndarray, tol: float) -> float:
    """Largest violation of |F(alpha)| <= 1 + (d_S - 1) Re(alpha) + tol on a
    strip grid and of F(1) <= d_S + tol, tol the slack for roundoff; the
    bounds hold where it is <= 0.  It is negative when every bound holds with
    room, and NaN if any violation is NaN.  An empty grid is a ValueError."""
    grid = np.atleast_1d(_in_strip(alpha_grid))
    if grid.size == 0:
        raise ValueError("alpha_grid has no points")
    d_s = fa.scn.dim_sys
    bound = 1.0 + (d_s - 1) * grid.real + tol
    vals = np.abs(fa.char(grid))
    return float(np.max(np.append(vals - bound, fa.char(1.0).real - (d_s + tol))))


def derivative_moments(fa: FcsAtTime) -> np.ndarray:
    """Moments of the reservoir FCS from derivatives of F at alpha = 0.

    F(alpha) is entire at finite size, and moment k is the k-th derivative
    at 0 of G(z) = F(z / beta), z = alpha beta: a contour integral over the
    circle |z| = 0.5 / span (span the width of the reservoir spectrum; 0.5
    for a one-level reservoir), on which no centred exponent of F exceeds
    1/4 in modulus.  It is evaluated with the 64-node trapezoid rule
    (spectrally accurate) and divided by the radius^k; no power of beta is
    formed, so a hot reservoir loses no digits and a cold one no overflow.
    The contour route of both ``verify`` and the limit sweep.
    """
    span = float(fa.levels[-1] - fa.levels[0])
    radius = 0.5 / span if span > 0 else 0.5
    nodes = exp_i(2 * np.pi * np.arange(64) / 64)
    values = fa.char(radius * nodes / fa.scn.beta)
    out = np.empty(N_MOMENTS)
    for k in range(1, N_MOMENTS + 1):
        deriv = math.factorial(k) * np.mean(values * nodes ** (-k)) / radius**k
        out[k - 1] = deriv.real
    return out


@dataclass(frozen=True)
class SweepRow:
    """One (lam, t) cell of a limit sweep.

    ``distance`` is the sup over the gamma grid of |chi_R - chi_limit|;
    ``mean_res`` and ``moments_res`` (orders 1..N_MOMENTS) are the exact sums
    over the unmerged reservoir atoms W, and ``moment_gap`` is their largest
    distance from the contour moments.  ``mean_sys`` is the system FCS mean.
    """

    lam: float
    t: float
    distance: float
    mean_res: float
    mean_sys: float
    moments_res: np.ndarray
    moment_gap: float


@dataclass(frozen=True)
class SweepResult:
    """Limit-sweep table over a (lam, t) grid, in deterministic grid order; each
    ``distance`` is over the model's ``default_gamma_grid``, which is not stored."""

    rows: list

    def verdicts(self) -> list[dict]:
        """Convergence verdict per lambda, in grid order.

        A lambda passes when its late-time plateau (mean distance over the
        upper half of the positive t range) is below its t = 0 baseline
        distance, strictly and beyond roundoff; without a t = 0 row or a
        plateau row it fails.
        """
        ts = [r.t for r in self.rows]
        t_mid = (min(ts) + max(ts)) / 2
        out = []
        for lam in dict.fromkeys(r.lam for r in self.rows):
            lam_rows = [r for r in self.rows if r.lam == lam]
            base = next((r.distance for r in lam_rows if r.t == 0.0), None)
            late = [r.distance for r in lam_rows if r.t > 0 and r.t >= t_mid]
            plateau = float(np.mean(late)) if late else None
            improved = base is not None and plateau is not None and plateau < base * (1.0 - 1e-9)
            out.append({"lambda": lam, "baseline_t0": base, "plateau_distance": plateau,
                        "pass": improved})
        return out


def _sweep_cell(
    cell: Scenario, t: float, gamma_grid: np.ndarray, limit_vals: np.ndarray
) -> SweepRow:
    fa = fcs_at(cell, t)
    fcs_vals = reservoir_char(fa, 1j * gamma_grid / cell.beta)
    moments = fa.exact_moments()
    return SweepRow(
        lam=cell.lam,
        t=t,
        distance=float(np.max(np.abs(fcs_vals - limit_vals))),
        mean_res=float(moments[0]),
        mean_sys=fa.system_measure.mean,
        moments_res=moments,
        moment_gap=float(np.max(np.abs(derivative_moments(fa) - moments))),
    )


def _sweep_lam(
    scn: Scenario, lam: float, ts: list[float], gamma_grid: np.ndarray, limit_vals: np.ndarray
) -> list[SweepRow]:
    cell = scn.with_lam(lam)
    return [_sweep_cell(cell, t, gamma_grid, limit_vals) for t in ts]


def limit_sweep(
    scn: Scenario,
    t_grid: np.ndarray,
    lam_grid: np.ndarray,
    workers: int = 1,
) -> SweepResult:
    """Sweep the FCS over a (lam, t) grid against the decoupled limit law.

    Each cell records the sup over ``default_gamma_grid(scn)`` of the distance
    from the reservoir characteristic function F(i gamma / beta) to the limit
    law, both FCS means, and the reservoir moments: the function and the
    moments come from W (``FcsAtTime.char`` and ``exact_moments``), so no
    reservoir atom is merged.  The exact moments are cross-checked against
    the derivative route within ``MOMENT_TOL``; if the largest gap of the
    sweep exceeds it, or any gap is NaN, QuadratureError reports that cell
    (the derivative route is a trapezoid rule).  The limit law depends on neither lam nor t
    and is evaluated once.  Each lam is one task, serial or on one of
    ``workers`` threads: ``scn.with_lam(lam)`` shares the free model of
    ``scn`` and its coupling in the free eigenbasis, split into sectors, and
    the eigh of each sector at lam serves every t.

    The whole sweep runs numpy's OpenBLAS on one thread (:func:`one_blas_thread`,
    process-wide, restored on return or raise): the worker threads are the
    sweep's only parallelism, so they do not oversubscribe the cores, and since
    eigh's bits depend on the BLAS thread count, no output bit depends on the
    caller's.  Where numpy's BLAS is not its bundled OpenBLAS the count cannot
    be pinned, and the lam tasks run serially whatever ``workers`` is.  Rows are
    in grid order (lam-major, then t), so the output does not depend on the
    worker count.
    """
    if len(np.atleast_1d(t_grid)) == 0 or len(np.atleast_1d(lam_grid)) == 0:
        raise ValueError("grids must be nonempty")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    lams = [float(lam) for lam in np.atleast_1d(lam_grid)]
    ts = [float(t) for t in np.atleast_1d(t_grid)]
    with one_blas_thread() as pinned:
        gamma_grid = default_gamma_grid(scn)
        limit_vals = np.array([system_char_limit(scn, g) for g in gamma_grid])
        if workers == 1 or not pinned:
            per_lam = [_sweep_lam(scn, lam, ts, gamma_grid, limit_vals) for lam in lams]
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                futures = [
                    pool.submit(_sweep_lam, scn, lam, ts, gamma_grid, limit_vals) for lam in lams
                ]
                per_lam = [f.result() for f in futures]
    rows = [r for lam_rows in per_lam for r in lam_rows]
    gap = _max_residual(r.moment_gap for r in rows)
    if not gap <= MOMENT_TOL:
        worst = next(r for r in rows if r.moment_gap == gap or math.isnan(r.moment_gap))
        raise QuadratureError(
            f"moment routes disagree at (lam={worst.lam}, t={worst.t}): "
            f"gap {gap:.3e}, tolerance {MOMENT_TOL:.1e}",
            achieved=gap,
        )
    return SweepResult(rows=rows)
