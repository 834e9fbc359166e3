"""Named residual checks over a scenario, grouped into suites.

Each check evaluates one operator-algebraic identity numerically and records
the residual against its tolerance.  The suites drive the ``verify`` command
and the acceptance tests; every check is a two-route computation (the
identity's two sides are built independently).  ``CHECKS`` holds each
check's name and tolerance, in the order the report lists them.  Each probe
loop is a local generator, named after its check, that yields one residual
per draw; ``linalg._max_residual`` reduces these and every other maximum of
terms, so a NaN anywhere is the residual, and one that is not finite fails.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from typing import Callable, NamedTuple

import numpy as np

from . import fcs as fcsmod
from .dynamics import DEFAULT_QUAD_TOL, Scenario, balance_check, delta_q_direct, delta_q_flux, dyson_cocycle, dyson_error_bound, exact_cocycle
from .linalg import (
    _max_residual,
    assert_hermitian,
    dagger,
    eig_hermitian,
    eigenvalue_clusters,
    hs_inner,
    hs_norm,
    op_norm,
    positive_sqrt,
    tensor,
)
from .modular import (
    Liouvilleans,
    cone_membership,
    equilibrium_modular,
    equilibrium_vector,
    initial_modular,
    perturbed_gibbs_vector,
    reservoir_modular,
)
from .states import AtomicMeasure, entropy, gibbs, gibbs_variational_check, kms_defect, measure, random_density, random_hermitian

@dataclass(frozen=True)
class CheckResult:
    check_name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        """A residual passes when it is finite and within the tolerance."""
        return bool(np.isfinite(self.residual)) and self.residual <= self.tolerance

    def as_record(self) -> dict:
        """The report row; a residual that is not finite is written as None
        (JSON null), since strict JSON has no NaN or Infinity."""
        rec = asdict(self)
        rec["pass"] = self.passed
        if not np.isfinite(self.residual):
            rec["residual"] = None
        return rec


class Check(NamedTuple):
    tol: float | Callable[[Scenario, float], float]  # a number, or tol(scn, quad_tol)
    inner_tol: float | None = None  # a check's own bound: cone membership, the strip's roundoff slack, |x| of the one atom at 0


CHECKS: dict[str, Check] = {
    "cstar_identity": Check(1e-10),
    "spectral_reconstruction": Check(1e-12),
    "spectral_mapping": Check(1e-9),
    "calculus_homomorphism": Check(1e-10),
    "entropy_bounds": Check(1e-12),
    "gibbs_variational_inequality": Check(1e-10),
    "gibbs_variational_equality": Check(1e-10),
    "kms_defect_at_thermal": Check(1e-10),
    "measurement_normalization": Check(1e-12),
    "post_state_validity": Check(1e-12),
    "gns_trace_agreement": Check(1e-12),
    "conjugation_antiunitary": Check(1e-10),
    "modular_identities": Check(1e-10),
    "vacuum_invariance": Check(1e-10),
    "star_operator_action": Check(1e-10),
    "conjugated_commutant": Check(1e-10),
    "modular_flow_stability": Check(1e-9),
    "kms_from_modular": Check(1e-10),
    "radon_nikodym": Check(1e-10),
    "cone_generation": Check(0.5, inner_tol=1e-10),  # residual 0 or 1
    "coupled_liouvillean_formula": Check(1e-12),
    "free_liouvillean_kills_equilibrium": Check(1e-10),
    "coupled_liouvillean_kills_vector": Check(1e-10),
    "perturbed_vector_is_coupled_gibbs": Check(1e-10),
    "cone_preserved_by_flow": Check(0.5, inner_tol=1e-10),  # residual 0 or 1
    "cocycle_conjugation": Check(1e-10),
    "reservoir_fcs_two_route": Check(1e-10),
    "probability_mass": Check(1e-10),
    "mean_identity": Check(lambda scn, quad_tol: quad_tol + 1e-8),
    "exchange_balance": Check(lambda scn, quad_tol: 1e-10 * scn.energy_scale),
    "flux_vs_direct": Check(lambda scn, quad_tol: quad_tol + 1e-10),
    "operator_balance": Check(lambda scn, quad_tol: quad_tol * scn.beta * scn.energy_scale + 1e-8),
    "half_line_identity": Check(1e-8),
    "strip_growth_bound": Check(1e-12, inner_tol=1e-10),
    "char_conjugate_symmetry": Check(1e-12),
    "moment_consistency": Check(fcsmod.MOMENT_TOL),
    "system_delta_uncoupled": Check(1e-12, inner_tol=1e-12),
    "reservoir_delta_uncoupled": Check(1e-12, inner_tol=1e-12),
    "system_delta_instant": Check(1e-12, inner_tol=1e-12),
    "reservoir_delta_instant": Check(1e-12, inner_tol=1e-12),
    "dyson_truncation_bound": Check(1e-12),
}


def tolerance(name: str, *at) -> float:
    """Check ``name``'s tolerance; a scenario-dependent row reads at = (scn, quad_tol)."""
    tol = CHECKS[name].tol
    return tol(*at) if callable(tol) else tol


def _result(name: str, residual: float, *at) -> CheckResult:
    return CheckResult(check_name=name, residual=float(residual), tolerance=float(tolerance(name, *at)))


# -- operator suite -----------------------------------------------------------


def suite_operator(scn: Scenario, seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out = []

    def cstar_identity():
        for _ in range(200):
            d = int(rng.integers(2, 9))
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            n2 = op_norm(g) ** 2
            yield abs(op_norm(dagger(g) @ g) - n2) / max(n2, 1e-30)
    out.append(_result("cstar_identity", _max_residual(cstar_identity())))

    def spectral_reconstruction():
        for _ in range(20):
            a = random_hermitian(int(rng.integers(2, 7)), rng)
            dec = eig_hermitian(a)
            yield op_norm(dec.reconstruct() - a) / max(op_norm(a), 1e-30)
    out.append(_result("spectral_reconstruction", _max_residual(spectral_reconstruction())))

    def spectral_mapping():
        poly = lambda x: 2.0 * x**3 - x + 0.25
        for _ in range(20):
            a = random_hermitian(4, rng)
            mapped = np.sort(np.linalg.eigvalsh(eig_hermitian(a).apply(poly)))
            direct = np.sort([poly(x) for x in np.linalg.eigvalsh(a)])
            yield float(np.max(np.abs(mapped - direct)))
    out.append(_result("spectral_mapping", _max_residual(spectral_mapping())))

    def calculus_homomorphism():
        f = lambda x: x**2 + 1.0
        g2 = lambda x: np.exp(0.3 * x)
        for _ in range(20):
            dec = eig_hermitian(random_hermitian(5, rng))
            prod = dec.apply(lambda x: f(x) * g2(x))
            split = dec.apply(f) @ dec.apply(g2)
            yield op_norm(prod - split)
    out.append(_result("calculus_homomorphism", _max_residual(calculus_homomorphism())))

    return out


# -- states suite -------------------------------------------------------------


def suite_states(scn: Scenario, seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out = []
    d = scn.dim_sys

    def entropy_bounds():
        for _ in range(25):
            s = entropy(random_density(d, rng))
            yield -s
            yield s - np.log(d)
    out.append(_result("entropy_bounds", _max_residual(entropy_bounds())))

    rep = gibbs_variational_check(scn.h_sys, scn.beta, trials=50, rng_seed=seed)
    out.append(_result("gibbs_variational_inequality", _max_residual((rep.max_violation,))))
    out.append(_result("gibbs_variational_equality", abs(rep.equality_gap)))

    rho_b = scn.rho_sys_thermal
    pairs = [
        (random_hermitian(d, rng) + 0j, random_hermitian(d, rng) + 0j) for _ in range(100)
    ]
    out.append(_result("kms_defect_at_thermal", kms_defect(rho_b, scn.h_sys, scn.beta, pairs)))

    res = measure(scn.rho_sys, scn.h_sys)
    out.append(_result("measurement_normalization", abs(res.outcomes.mass - 1.0)))

    def post_state_validity():
        for post in res.post_states:
            yield -float(np.linalg.eigvalsh(post)[0])
            yield abs(float(np.trace(post).real) - 1.0)
    out.append(_result("post_state_validity", _max_residual(post_state_validity())))

    return out


# -- modular suite ------------------------------------------------------------


def suite_modular(scn: Scenario, seed: int = 0) -> list[CheckResult]:
    """The modular checks.  Each probe loop is a generator that draws its own
    probes, so they die with it, before the next check draws.

    The checks from ``gns_trace_agreement`` to ``cone_generation`` run in
    the free product eigenbasis Q = V_S (x) V_R, where the weights of
    ``equilibrium_modular`` and ``initial_modular`` act in O(d^2) and
    O(d_S d^2).  Their probes are drawn there: X -> Q* X Q is unitary on the
    matrices, and the complex Ginibre law of ``rand_mat`` (iid standard
    normal real and imaginary parts) is invariant under it, so each probe
    keeps its law, and each check its probe count and tolerance.  The dense
    states they compare against, ``scn.rho_eq`` and ``scn.rho_init``, keep
    their own builds and are moved by Q once.  ``conjugation_antiunitary``
    and ``conjugated_commutant`` read no weight, so no basis.  The checks
    from ``coupled_liouvillean_formula`` on read the coupled dynamics and
    run in the standard basis."""
    rng = np.random.default_rng(seed)
    out = []
    d = scn.dim

    ms = equilibrium_modular(scn)  # in Q's basis, from the spectra of H_S and H_R
    omega = ms.omega

    def rand_mat() -> np.ndarray:  # 2 d^2 iid standard normals, as (re, im) pairs
        return rng.standard_normal((d, 2 * d)).view(complex)

    def in_free_basis(dense: np.ndarray) -> np.ndarray:  # Q* dense Q
        q = tensor(scn._eig_sys[1], scn._eig_res[1])
        return dagger(q) @ dense @ q

    def gns_trace_agreement():
        rho_eq = in_free_basis(scn.rho_eq)
        for _ in range(10):
            a = rand_mat()
            lhs = hs_inner(omega, ms.vector_of(a))
            yield abs(lhs - np.einsum("ij,ji->", rho_eq, a))  # tr(rho_eq a), O(d^2)
    out.append(_result("gns_trace_agreement", _max_residual(gns_trace_agreement())))

    def conjugation_antiunitary():
        for _ in range(10):
            x, y = rand_mat(), rand_mat()
            yield abs(hs_inner(ms.conjugation(x), ms.conjugation(y)) - hs_inner(y, x))
            yield hs_norm(ms.conjugation(ms.conjugation(x)) - x)
    out.append(_result("conjugation_antiunitary", _max_residual(conjugation_antiunitary())))

    def modular_identities():
        for _ in range(10):
            x = rand_mat()
            # Delta = F S and Delta^(-1/2) = J Delta^(1/2) J, as maps.
            yield hs_norm(ms.commutant_star(ms.star(x)) - ms.delta(x)) / hs_norm(x)
            lhs = ms.conjugation(ms.delta_power(0.5, ms.conjugation(x)))
            yield hs_norm(lhs - ms.delta_power(-0.5, x)) / hs_norm(x)
    out.append(_result("modular_identities", _max_residual(modular_identities())))

    out.append(_result("vacuum_invariance", hs_norm(ms.delta(omega) - omega)))

    def star_operator_action():
        for _ in range(50):
            a = rand_mat()
            yield hs_norm(ms.star(ms.vector_of(a)) - ms.vector_of(dagger(a))) / hs_norm(a)
    out.append(_result("star_operator_action", _max_residual(star_operator_action())))

    def conjugated_commutant():  # conjugated observables commute with the algebra (they act from the right)
        for _ in range(10):
            a, b, x = rand_mat(), rand_mat(), rand_mat()
            jaj = lambda y: ms.conjugation(a @ ms.conjugation(y))
            lhs = jaj(b @ x)
            rhs = b @ jaj(x)
            yield hs_norm(lhs - rhs) / hs_norm(x)
    out.append(_result("conjugated_commutant", _max_residual(conjugated_commutant())))

    def modular_flow_stability():  # modular flow keeps observables acting from the left
        for _ in range(10):
            a, x = rand_mat(), rand_mat()
            t = float(rng.uniform(-2, 2))
            flowed = ms.delta_power(1j * t, a)  # sigma_t(a) = Delta^(it) a Delta^(-it), as a matrix
            yield hs_norm(ms.delta_power(1j * t, a @ ms.delta_power(-1j * t, x)) - flowed @ x) / hs_norm(x)
    out.append(_result("modular_flow_stability", _max_residual(modular_flow_stability())))

    def kms_from_modular():  # equilibrium boundary condition from the modular operator, O(d^2)
        for _ in range(20):
            a, b = rand_mat(), rand_mat()
            lhs = hs_inner(ms.vector_of(dagger(a)), ms.delta(ms.vector_of(b)))  # <Omega, a Delta b Omega>
            rhs = hs_inner(ms.vector_of(dagger(b)), ms.vector_of(a))  # <Omega, b a Omega>
            yield abs(lhs - rhs)
    out.append(_result("kms_from_modular", _max_residual(kms_from_modular())))

    def radon_nikodym():  # Radon-Nikodym property of the relative modular operator
        rel = initial_modular(scn, ms)
        rho_init = in_free_basis(scn.rho_init)
        for _ in range(20):
            a = rand_mat()
            lhs = hs_inner(omega, rel.apply(ms.vector_of(a)))
            yield abs(lhs - np.einsum("ij,ji->", rho_init, a))  # tr(rho_init a), O(d^2)
    out.append(_result("radon_nikodym", _max_residual(radon_nikodym())))

    def cone_generation():  # natural cone: generated vectors are positive semidefinite matrices
        for _ in range(20):
            a = rand_mat()
            vec = ms.vector_of(a) @ dagger(a)  # A J A J applied to the reference vector
            yield 0.0 if cone_membership(vec, CHECKS["cone_generation"].inner_tol) else 1.0
    out.append(_result("cone_generation", _max_residual(cone_generation())))

    lv = Liouvilleans(scn)

    def coupled_liouvillean_formula():
        for _ in range(10):
            x = rand_mat()
            yield hs_norm(lv.coupled(x) - lv.coupled_decomposed(x)) / hs_norm(x)
    out.append(_result("coupled_liouvillean_formula", _max_residual(coupled_liouvillean_formula())))

    out.append(_result("free_liouvillean_kills_equilibrium", hs_norm(lv.free(equilibrium_vector(scn)))))

    def perturbed_vector():
        omega_lam = perturbed_gibbs_vector(scn)
        return (hs_norm(lv.coupled(omega_lam)),
                hs_norm(omega_lam - positive_sqrt(gibbs(scn.h_coupled, scn.beta))))
    kills, is_gibbs = perturbed_vector()
    out.append(_result("coupled_liouvillean_kills_vector", kills))
    out.append(_result("perturbed_vector_is_coupled_gibbs", is_gibbs))

    def cone_preserved_by_flow():
        omega_eq = equilibrium_vector(scn)  # in the standard basis, as scn.evolve
        for _ in range(20):
            a = rand_mat()
            vec = a @ omega_eq @ dagger(a)
            t = float(rng.uniform(-3, 3))
            yield 0.0 if cone_membership(scn.evolve(vec, t), CHECKS["cone_preserved_by_flow"].inner_tol) else 1.0
    out.append(_result("cone_preserved_by_flow", _max_residual(cone_preserved_by_flow())))

    def cocycle_conjugation(t: float = 1.3):
        gam = exact_cocycle(scn, t)
        rel_t = reservoir_modular(scn, t)
        conjugated = gam @ tensor(np.eye(scn.dim_sys), scn.rho_res) @ dagger(gam)
        for _ in range(10):
            x = rand_mat()
            lhs = rel_t.apply(x)
            rhs = conjugated @ x @ rel_t._inv_omega  # the cached inverse apply uses
            yield hs_norm(lhs - rhs) / hs_norm(x)
    out.append(_result("cocycle_conjugation", _max_residual(cocycle_conjugation())))

    return out


# -- fcs suite ----------------------------------------------------------------


def two_time_reservoir_oracle(scn: Scenario, t: float):
    """Reservoir FCS from the bare two-time protocol (independent route).

    Project onto clustered reservoir energy eigenspaces, evolve, project
    again; atoms at (first - second) reservoir energy.  In the basis
    Q = 1 (x) V of the reservoir eigenvectors, with G = Q* U Q and R = Q* rho Q
    zeroed between levels (the first measurement), the weight of the level
    pair (j, k), tr(P_j rho P_j U P_k U*), sums Re((R G) * conj(G)) over the
    rows of level j and the columns of level k: O(d^3) work, O(d^2) memory.
    """
    assert_hermitian(scn.h_res, name="reservoir Hamiltonian")
    w, v = np.linalg.eigh(scn.h_res)
    groups, levels = eigenvalue_clusters(w)  # as eig_hermitian clusters them
    label = np.tile(np.repeat(np.arange(len(groups)), [len(g) for g in groups]), scn.dim_sys)  # level of Q's columns
    q = tensor(np.eye(scn.dim_sys), v)
    g = dagger(q) @ scn.unitary_coupled(t) @ q
    r = dagger(q) @ scn.rho_init @ q
    r[label[:, None] != label[None, :]] = 0.0
    prod = (r @ g) * g.conj()
    pair = label[:, None] * len(groups) + label[None, :]
    wts = np.bincount(pair.ravel(), weights=prod.real.ravel(), minlength=len(groups) ** 2)
    return AtomicMeasure.from_points((levels[:, None] - levels[None, :]).ravel(), wts)


def measure_distance(mu_a, mu_b) -> float:
    """Max location/weight discrepancy between two atom-merged measures."""
    if len(mu_a) != len(mu_b):
        return float("inf")
    if len(mu_a) == 0:
        return 0.0
    return _max_residual((
        float(np.max(np.abs(mu_a.locations - mu_b.locations))),
        float(np.max(np.abs(mu_a.weights - mu_b.weights))),
    ))


def suite_fcs(scn: Scenario, seed: int = 0, quad_tol: float = DEFAULT_QUAD_TOL) -> list[CheckResult]:
    """The FCS checks, at t = 1."""
    out = []
    t = 1.0
    at = (scn, quad_tol)  # the scenario-dependent tolerances' arguments

    fa = fcsmod.fcs_at(scn, t)  # every (scn, t) check below reads it
    mu_modular = fa.reservoir_measure
    mu_oracle = two_time_reservoir_oracle(scn, t)
    out.append(_result("reservoir_fcs_two_route", measure_distance(mu_modular, mu_oracle)))

    out.append(_result("probability_mass", abs(mu_modular.mass - 1.0)))

    dq_flux = delta_q_flux(scn, t, quad_tol)  # shared by mean_identity and flux_vs_direct
    out.append(_result("mean_identity", fcsmod.mean_identity_check(fa, dq_flux[1]), *at))

    out.append(_result("exchange_balance", balance_check(scn, t), *at))

    dq_direct = delta_q_direct(scn, t)
    out.append(_result("flux_vs_direct",
                       _max_residual(abs(direct - flux) for direct, flux in zip(dq_direct, dq_flux)), *at))

    out.append(_result("operator_balance", fcsmod.operator_balance_check(scn, t, quad_tol), *at))

    out.append(_result("half_line_identity", fcsmod.half_line_identity_check(fa, (-1.0, 0.0, 0.7))))

    grid = np.array([0.0, 0.25, 0.5, 0.75, 1.0]) + 1j * np.array([0.0, -1.0, 2.0, 0.5, 0.0])
    violation = fcsmod.strip_bounds_check(fa, grid, CHECKS["strip_growth_bound"].inner_tol)
    out.append(_result("strip_growth_bound", _max_residual((violation,))))

    gammas = fcsmod.default_gamma_grid(scn, 11)
    plus = fcsmod.reservoir_char(fa, 1j * gammas / scn.beta)
    minus = fcsmod.reservoir_char(fa, -1j * gammas / scn.beta)
    out.append(_result("char_conjugate_symmetry", np.max(np.abs(np.conjugate(plus) - minus))))

    deriv_moments = fcsmod.derivative_moments(fa)
    out.append(_result("moment_consistency", float(np.max(np.abs(fcsmod.atom_moments(mu_modular) - deriv_moments)))))

    for name, variant, tt in (("uncoupled", scn.with_lam(0.0), t), ("instant", scn, 0.0)):
        fa_variant = fcsmod.fcs_at(variant, tt)
        for label, mu in ((f"system_delta_{name}", fcsmod.system_fcs(fa_variant).measure),
                          (f"reservoir_delta_{name}", fcsmod.reservoir_fcs(fa_variant).measure)):
            is_point_mass = len(mu) == 1 and abs(mu.locations[0]) < CHECKS[label].inner_tol
            out.append(_result(label, abs(mu.mass - 1.0) if is_point_mass else 1.0))

    k = 4
    err = op_norm(dyson_cocycle(scn, t, k, quad_tol) - exact_cocycle(scn, t))
    bound = dyson_error_bound(scn, t, k) + quad_tol
    out.append(_result("dyson_truncation_bound", _max_residual((err - bound,))))

    return out


SUITE_BUILDERS: dict[str, Callable] = {
    "operator": suite_operator,
    "states": suite_states,
    "modular": suite_modular,
    "fcs": suite_fcs,
}


def run_suites(
    scn: Scenario, which: str = "all", seed: int = 0, quad_tol: float = DEFAULT_QUAD_TOL
) -> list[CheckResult]:
    """Run the selected suites against a scenario; 'all' runs everything."""
    names = SUITE_BUILDERS if which == "all" else (which,)
    out = []
    for name in names:
        if name not in SUITE_BUILDERS:
            raise ValueError(f"unknown suite {name!r}; options: {('all', *SUITE_BUILDERS)}")
        kwargs = {"quad_tol": quad_tol} if name == "fcs" else {}
        out.extend(SUITE_BUILDERS[name](scn, seed=seed, **kwargs))
    return out
