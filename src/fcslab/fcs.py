"""Energy full counting statistics of system and reservoir.

The system FCS is the two-time measurement distribution of the system energy
change; the reservoir FCS is the spectral measure of (1/beta) log of the
relative modular operator between the flowed and static reservoir weights,
taken in the initial-state vector.  Both are atomic at finite size; this
module computes them, their characteristic functions on the complex strip
0 <= Re(alpha) <= 1, and the identities tying the two routes together:
the mean/flux identity, the operator-level balance between the modular log
and the time-integrated flux, the half-line identity at Re(alpha) = 1/2,
the strip growth bound, and the weak-coupling/long-time limit sweeps.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad_vec

from .dynamics import DEFAULT_QUAD_TOL, QuadratureError, Scenario, delta_q_flux, flux_observables
from .linalg import dagger, eig_hermitian, hs_inner, positive_sqrt, tensor
from .modular import (
    initial_vector,
    liouvilleans,
    reservoir_weight_vector,
)
from .states import MERGE_TOL, AtomicMeasure

N_MOMENTS = 4


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
    def from_measure(
        cls, mu: AtomicMeasure, gamma_grid: np.ndarray, n_moments: int = N_MOMENTS
    ) -> "FcsResult":
        moments = np.array([mu.moment(k) for k in range(1, n_moments + 1)])
        values = mu.char(gamma_grid)
        samples = [(float(g), complex(val)) for g, val in zip(gamma_grid, np.atleast_1d(values))]
        return cls(measure=mu, mean=mu.mean, moments=moments, char_samples=samples)


def default_gamma_grid(scn: Scenario, n: int = 41) -> np.ndarray:
    """Grid of n points on [-pi/dE, pi/dE], dE the smallest system gap.

    Resolves every system atom without aliasing; falls back to dE = 1 when
    the system Hamiltonian has a single (clustered) level.
    """
    dec = eig_hermitian(scn.h_sys)
    gaps = np.diff(dec.eigenvalues)
    de = float(gaps.min()) if len(gaps) else 1.0
    return np.linspace(-np.pi / de, np.pi / de, n)


def system_fcs(
    scn: Scenario,
    t: float,
    cluster_tol: float | None = None,
    gamma_grid: np.ndarray | None = None,
) -> FcsResult:
    """Two-time measurement statistics of the system energy change.

    Measure the system energy, evolve for time t under the coupled dynamics,
    measure again; atoms sit at differences (second - first) of clustered
    system levels, weighted by the joint outcome law.  Reduces to a point
    mass at zero for t = 0 or lam = 0.
    """
    if gamma_grid is None:
        gamma_grid = default_gamma_grid(scn)
    dec = eig_hermitian(scn.h_sys, cluster_tol)
    i_res = np.eye(scn.dim_res)
    u = scn.unitary_coupled(t)
    evolved = [u @ tensor(p, i_res) @ dagger(u) for p in dec.projectors]
    locs, wts = [], []
    for lam_i, p_i in zip(dec.eigenvalues, dec.projectors):
        start = tensor(p_i @ scn.rho_sys @ p_i, scn.rho_res)
        for lam_j, pj_t in zip(dec.eigenvalues, evolved):
            locs.append(lam_j - lam_i)
            wts.append(float(np.einsum("ij,ji->", start, pj_t).real))  # tr(start pj_t)
    mu = AtomicMeasure.from_points(np.array(locs), np.array(wts))
    return FcsResult.from_measure(mu, gamma_grid)


def system_char_limit(scn: Scenario, gamma: float) -> complex:
    """Characteristic function of the decoupled long-time system FCS limit.

    tr(rho_thermal e^{i gamma H_S}) * tr(rho_sys e^{-i gamma H_S}).
    """
    w, v = np.linalg.eigh(scn.h_sys)
    phase_p = (v * np.exp(1j * gamma * w)) @ dagger(v)
    phase_m = dagger(phase_p)
    return complex(
        np.trace(scn.rho_sys_thermal @ phase_p) * np.trace(scn.rho_sys @ phase_m)
    )


@dataclass(frozen=True, eq=False)
class _ReservoirSpectralData:
    """Atoms of the reservoir FCS, before any tolerance-based merging.

    The flowed weight e^{itH}(1 (x) rho_R)e^{-itH} and the static weight
    1 (x) rho_R share the reservoir spectrum; the relative modular operator
    has eigenvectors |u_i><v_j| with eigenvalue exp(beta (e_j - e_i)), so the
    atoms of its (1/beta) log sit at energy differences e_j - e_i, with
    weights |<u_i, Omega v_j>|^2 from the overlap matrix U* Omega V.

    Exact grouping: a product eigenvector index is i = (s, a), with s the
    system index and a the reservoir level, and e_i = w_res[a].  The d^2
    atoms (i, j) = ((s, a), (s', b)) therefore sit at the bitwise-same
    location w_res[b] - w_res[a] for every s, s', and summing their weights
    over s and s' gives the same measure with d_R^2 atoms.  The strip
    function F(alpha) = sum_k weights_k exp(alpha beta locations_k) is entire
    at finite size, so ``char`` accepts any complex alpha, or an array of
    them (one value per element).
    """

    locations: np.ndarray  # w_res[b] - w_res[a] (first - second), flat over (a, b)
    weights: np.ndarray  # |overlaps|^2 summed over the system indices s, s'
    beta: float

    def char(self, alpha: complex | np.ndarray) -> complex | np.ndarray:
        vals = np.exp(np.multiply.outer(alpha * self.beta, self.locations)) @ self.weights
        return complex(vals) if vals.ndim == 0 else vals

    def contour_moments(
        self, n_moments: int = N_MOMENTS, n_nodes: int = 64, radius: float | None = None
    ) -> np.ndarray:
        """Moments from the derivatives of F at 0 (see derivative_moments)."""
        if radius is None:
            span = float(np.max(np.abs(self.locations)))
            radius = min(0.45, 0.5 / max(1.0, self.beta * span))
        nodes = np.exp(2j * np.pi * np.arange(n_nodes) / n_nodes)
        values = np.array([self.char(radius * z) for z in nodes])
        out = np.empty(n_moments)
        for k in range(1, n_moments + 1):
            deriv = math.factorial(k) * np.mean(values * nodes ** (-k)) / radius**k
            out[k - 1] = deriv.real / self.beta**k
        return out


def _reservoir_spectral_data(scn: Scenario, t: float) -> _ReservoirSpectralData:
    w_res, v_res = scn._eig_res
    v_full = tensor(np.eye(scn.dim_sys), v_res)  # eigenbasis of the static weight
    u_full = scn.unitary_coupled(t) @ v_full  # eigenbasis of the flowed weight
    overlaps = dagger(u_full) @ initial_vector(scn) @ v_full
    d_s, d_r = scn.dim_sys, scn.dim_res
    weights = (np.abs(overlaps) ** 2).reshape(d_s, d_r, d_s, d_r).sum(axis=(0, 2))
    locations = w_res[None, :] - w_res[:, None]
    return _ReservoirSpectralData(locations.ravel(), weights.ravel(), scn.beta)


def reservoir_fcs(
    scn: Scenario,
    t: float,
    merge_tol: float = MERGE_TOL,
    gamma_grid: np.ndarray | None = None,
) -> FcsResult:
    """Reservoir energy statistics from the relative modular operator.

    Spectral measure of (1/beta) log Delta(flowed weight | static weight) in
    the initial-state vector.  Atoms sit at the *decrease* of the reservoir
    energy between the two measurements, so the mean equals the
    reservoir-energy drop dq_res; a point mass at zero for t = 0 or lam = 0.
    """
    if gamma_grid is None:
        gamma_grid = default_gamma_grid(scn)
    data = _reservoir_spectral_data(scn, t)
    mu = AtomicMeasure.from_points(data.locations, data.weights, merge_tol=merge_tol)
    return FcsResult.from_measure(mu, gamma_grid)


def _in_strip(alpha: complex | np.ndarray) -> np.ndarray:
    """alpha as a complex array; ValueError naming a point off the strip."""
    alpha = np.asarray(alpha, dtype=complex)
    outside = ~((alpha.real >= 0.0) & (alpha.real <= 1.0))
    if np.any(outside):
        raise ValueError(f"alpha = {complex(alpha[outside][0])} outside the strip 0 <= Re(alpha) <= 1")
    return alpha


def reservoir_char(scn: Scenario, t: float, alpha: complex | np.ndarray) -> complex | np.ndarray:
    """The strip function F(alpha) = <Omega, Delta_rel^alpha Omega>.

    Defined for alpha in the closed strip 0 <= Re(alpha) <= 1 (the domain on
    which the bound |F| <= 1 + (d_S - 1) Re(alpha) holds); F(i gamma/beta) is
    the characteristic function of the reservoir FCS and F(0) = 1.  An array
    of alpha gives the array of values, from one build of the spectral data.
    """
    return _reservoir_spectral_data(scn, t).char(_in_strip(alpha))


def mean_identity_check(
    scn: Scenario, t: float, quad_tol: float = DEFAULT_QUAD_TOL
) -> float:
    """|mean of the reservoir FCS - flux-integrated reservoir energy drop|."""
    mean_r = reservoir_fcs(scn, t).mean
    _, dq_r = delta_q_flux(scn, t, quad_tol)
    return abs(mean_r - dq_r)


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
    e = np.exp(-scn.beta * (w_res - w_res.min()))
    log_rho_res = (v_res * (np.log(e / e.sum()))) @ dagger(v_res)
    log_static = tensor(np.eye(scn.dim_sys), log_rho_res)
    log_flowed = scn.evolve(log_static, t)

    phi_r = flux_observables(scn).phi_res
    if t == 0.0:
        flux_int = 0.0
    else:
        flux_int, err = quad_vec(
            lambda s: scn.evolve(phi_r, s), 0.0, t, epsabs=quad_tol, epsrel=1e-13
        )
        if err > quad_tol + 1e-14:
            raise QuadratureError(
                f"flux-integral quadrature error {err:.3e} > {quad_tol:.3e}", err
            )
    return float(np.max(np.abs(log_flowed - log_static - scn.beta * flux_int)))


@dataclass(frozen=True)
class HalfLineResult:
    """Residuals of the half-line identity for both reference-vector routes.

    ``residuals`` maps each construction of the auxiliary vector (direct left
    multiplication vs. conjugated right multiplication) to its residual; in
    the standard representation the two vectors coincide.  ``residual`` is
    the larger of them, so a failing route is never hidden by the other.
    """

    value: complex
    residuals: dict
    passing: str | None

    @property
    def residual(self) -> float:
        return max(self.residuals.values())


def half_line_identity_check(
    scn: Scenario, t: float, s: float, tol: float = 1e-8
) -> HalfLineResult:
    """Check the identity for F(1/2 + is) against the Liouvillean route.

    F(1/2 + is) = <e^{i beta s L_half} Omega_hat,
                   e^{itL_coupled} e^{i beta s L_half} Omega_eta>
    where L_half generates the coupled flow against the bare reservoir
    rotation and Omega_hat dresses the initial vector with the square root of
    the system state.  Both constructions of Omega_hat are evaluated.
    """
    lv = liouvilleans(scn)
    omega = initial_vector(scn)
    omega_eta = reservoir_weight_vector(scn)
    r_op = tensor(positive_sqrt(scn.rho_sys), np.eye(scn.dim_res))
    hat_variants = {
        "left_mult": r_op @ omega,
        "conjugated": dagger(r_op @ dagger(omega)),  # J pi(R) J Omega
    }
    lhs = _reservoir_spectral_data(scn, t).char(0.5 + 1j * s)
    residuals = {}
    for name, omega_hat in hat_variants.items():
        bra = lv.exp_half(scn.beta * s, omega_hat)
        ket = lv.exp_coupled(t, lv.exp_half(scn.beta * s, omega_eta))
        residuals[name] = abs(lhs - hs_inner(bra, ket))
    passing = [k for k, v in residuals.items() if v <= tol]
    return HalfLineResult(
        value=lhs,
        residuals=residuals,
        passing=",".join(passing) if passing else None,
    )


@dataclass(frozen=True)
class StripReport:
    """Outcome of the strip growth-bound sweep."""

    max_violation: float
    min_slack: float
    f_at_one: float
    n_points: int

    @property
    def passed(self) -> bool:
        return self.max_violation <= 0.0


def strip_bounds_check(
    scn: Scenario, t: float, alpha_grid: np.ndarray, tol: float = 1e-10
) -> StripReport:
    """Verify |F(alpha)| <= 1 + (d_S - 1) Re(alpha) + tol on a strip grid,
    and F(1) <= d_S + tol."""
    grid = np.atleast_1d(_in_strip(alpha_grid))
    data = _reservoir_spectral_data(scn, t)
    bound = 1.0 + (scn.dim_sys - 1) * grid.real + tol
    vals = np.abs(data.char(grid))
    f1 = data.char(1.0).real
    max_violation = max(float(np.max(vals - bound, initial=-math.inf)), f1 - (scn.dim_sys + tol))
    return StripReport(
        max_violation=max_violation,
        min_slack=float(np.min(bound - vals, initial=math.inf)),
        f_at_one=f1,
        n_points=len(grid),
    )


def derivative_moments(
    scn: Scenario,
    t: float,
    n_moments: int = N_MOMENTS,
    n_nodes: int = 64,
    radius: float | None = None,
) -> np.ndarray:
    """Moments of the reservoir FCS from derivatives of F at alpha = 0.

    F(alpha) is entire at finite size, so the k-th derivative at 0 is a
    contour integral over a small circle, evaluated with the trapezoid rule
    (spectrally accurate); moment k is that derivative divided by beta^k.
    """
    return _reservoir_spectral_data(scn, t).contour_moments(n_moments, n_nodes, radius)


@dataclass(frozen=True)
class SweepRow:
    """One (lam, t) cell of a limit sweep."""

    lam: float
    t: float
    distance: float
    mean_res: float
    mean_sys: float
    moments_res: np.ndarray
    moment_gap: float


@dataclass(frozen=True)
class SweepResult:
    """Limit-sweep table over a (lam, t) grid, in deterministic grid order."""

    rows: list
    gamma_grid: np.ndarray

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
    data = _reservoir_spectral_data(cell, t)
    mu = AtomicMeasure.from_points(data.locations, data.weights)
    res = FcsResult.from_measure(mu, gamma_grid)
    sys = system_fcs(cell, t, gamma_grid=gamma_grid)
    fcs_vals = np.array([val for _, val in res.char_samples])
    distance = float(np.max(np.abs(fcs_vals - limit_vals)))
    gap = float(np.max(np.abs(data.contour_moments() - res.moments)))
    return SweepRow(
        lam=cell.lam,
        t=t,
        distance=distance,
        mean_res=res.mean,
        mean_sys=sys.mean,
        moments_res=res.moments,
        moment_gap=gap,
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
    gamma_grid: np.ndarray | None = None,
    workers: int = 1,
    moment_tol: float = 1e-6,
) -> SweepResult:
    """Sweep the FCS over a (lam, t) grid against the decoupled limit law.

    Each cell records the sup-over-gamma distance between the reservoir
    characteristic function and the limit law, both FCS means, and the
    reservoir moments (atom route), cross-checked against the derivative
    route within ``moment_tol``; a larger gap raises QuadratureError (the
    derivative route is a trapezoid rule).  The limit law depends on neither
    lam nor t and is evaluated once.  Each lam is one task, serial or on one
    of ``workers`` threads: it builds the coupled Scenario once and reuses
    its eigendecomposition for every t, so one Scenario per task is alive at
    a time.  Rows are in grid order (lam-major, then t), so the output does
    not depend on the worker count.
    """
    if len(np.atleast_1d(t_grid)) == 0 or len(np.atleast_1d(lam_grid)) == 0:
        raise ValueError("grids must be nonempty")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if gamma_grid is None:
        gamma_grid = default_gamma_grid(scn)
    lams = [float(lam) for lam in np.atleast_1d(lam_grid)]
    ts = [float(t) for t in np.atleast_1d(t_grid)]
    limit_vals = np.array([system_char_limit(scn, g) for g in gamma_grid])
    if workers == 1:
        per_lam = [_sweep_lam(scn, lam, ts, gamma_grid, limit_vals) for lam in lams]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_sweep_lam, scn, lam, ts, gamma_grid, limit_vals) for lam in lams
            ]
            per_lam = [f.result() for f in futures]
    rows = [r for lam_rows in per_lam for r in lam_rows]
    for r in rows:
        if r.moment_gap > moment_tol:
            raise QuadratureError(
                f"moment routes disagree at (lam={r.lam}, t={r.t}): "
                f"gap {r.moment_gap:.3e} > {moment_tol:.1e}",
                achieved=r.moment_gap,
            )
    return SweepResult(rows=rows, gamma_grid=np.asarray(gamma_grid))
