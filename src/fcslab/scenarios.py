"""Model presets, reproducible spin-chain reservoirs, and JSON scenario
configs (parse, validate, serialize round-trip)."""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dynamics import DEFAULT_QUAD_TOL, Scenario
from .linalg import NonHermitianError, assert_hermitian, real_or_complex
from .states import gibbs, maximally_mixed, random_density, random_hermitian

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])

# A dense Scenario and one FCS cell hold about this many d x d matrices at once (coupling,
# Hamiltonians, eigenvectors, U(t), temporaries), budgeted as complex, the worst case; a
# config whose estimate exceeds the budget is refused before any is built.
DENSE_MATRICES = 12
MEMORY_BUDGET_BYTES = 4 * 2**30


class ConfigError(ValueError):
    """A scenario config file is malformed; the message names the field."""


def check_dense_size(d: int, source: str) -> None:
    """ValueError, before anything is built, if DENSE_MATRICES complex d x d
    matrices, d the joint dimension, would exceed MEMORY_BUDGET_BYTES; the
    message starts with ``source``, the input that sets d, of any int size."""
    estimate = DENSE_MATRICES * 16 * d**2
    if estimate > MEMORY_BUDGET_BYTES:
        from decimal import Decimal  # here, not at the top: the import adds 0.3 MB to every run's peak
        gib = Decimal(estimate) / 2**30  # a float overflows past d ~ 1e153
        raise ValueError(
            f"{source} gives d = {d} and an estimated {gib:{'.1f' if gib < 10**6 else '.1e'}} GiB "
            f"of dense matrices, above the {MEMORY_BUDGET_BYTES / 2**30:.0f} GiB budget"
        )


def check_chain_size(n: int, dim_sys: int = 1) -> None:
    """:func:`check_dense_size` of d = dim_sys 2^n for an n-site chain, n >= 1.  An n
    past the bit length of the largest d the budget admits is refused from n alone,
    so 2^n is never formed for it, in bounded time and memory for any int n."""
    max_dim = math.isqrt(MEMORY_BUDGET_BYTES // (DENSE_MATRICES * 16))
    if not 1 <= n <= max_dim.bit_length():
        raise ValueError(f"chain size n={n} outside [1, {max_dim.bit_length()}]; the "
                         f"{MEMORY_BUDGET_BYTES / 2**30:.0f} GiB budget of dense matrices admits d up to {max_dim}")
    check_dense_size(dim_sys << n, f"n={n}")


def build_chain_reservoir(
    n: int,
    j_coupling: float,
    field: float,
    seed: int | None = None,
    disorder: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Open transverse-field spin chain and its edge coupling operator.

    H_R = j_coupling * sum sx_i sx_{i+1} + sum h_i sz_i with site fields
    h_i = field + disorder * xi_i, xi_i standard normal from ``seed``
    (bit-for-bit reproducible).  Returns (H_R, B_edge), both float64, where
    B_edge is sx on the first site, the operator through which couplings
    V = A (x) B_edge enter; their bit-flip entries are set in place, with
    no Kronecker product.  A chain past the dense budget by itself (n > 12 at
    the default budget, :func:`check_chain_size`) raises ValueError first.
    """
    check_chain_size(n)
    fields = np.full(n, float(field))
    if disorder != 0.0:
        rng = np.random.default_rng(seed)
        fields = fields + disorder * rng.standard_normal(n)
    dim = 2**n
    # sz_i is +1 where bit n-1-i of the basis index is 0 (site 0 leads the tensor product)
    spins = 1 - 2 * ((np.arange(dim)[:, None] >> np.arange(n - 1, -1, -1)) & 1)
    diag = np.zeros(dim)
    for i in range(n):  # site by site: spins @ fields would sum in another order and move bits
        diag += fields[i] * spins[:, i]
    h = np.diag(diag)
    k = np.arange(dim)
    for i in range(n - 1):  # sx_i sx_{i+1} flips bits n-1-i and n-2-i: one entry per row, no other bond's
        h[k, k ^ (3 << (n - i - 2))] += j_coupling
    edge = np.zeros((dim, dim))
    edge[k, k ^ (dim // 2)] = 1.0  # sx on site 0 flips the leading bit
    return h, edge


def ladder_hamiltonian(dim: int) -> np.ndarray:
    """diag(0, 1, ..., dim-1): equally spaced levels."""
    return np.diag(np.arange(dim, dtype=float))


def hopping_operator(dim: int) -> np.ndarray:
    """Nearest-level flip sum |k><k+1| + |k+1><k| (sx for dim = 2)."""
    a = np.zeros((dim, dim))
    for k in range(dim - 1):
        a[k, k + 1] = a[k + 1, k] = 1.0
    return a


def random_scenario(
    rng: np.random.Generator,
    dim_sys: int = 2,
    dim_res: int = 4,
    lam: float | None = None,
    beta: float | None = None,
    commuting_init: bool = False,
) -> Scenario:
    """Random scenario with unit-scale Hamiltonians; reproducible via rng.

    ``commuting_init`` draws the initial system state diagonal in the system
    energy eigenbasis (no first-measurement back-action).
    """
    h_sys = random_hermitian(dim_sys, rng)
    h_res = random_hermitian(dim_res, rng)
    v = random_hermitian(dim_sys * dim_res, rng)
    if lam is None:
        lam = float(rng.uniform(0.0, 0.5))
    if beta is None:
        beta = float(rng.uniform(0.5, 2.0))
    if commuting_init:
        w = rng.uniform(0.1, 1.0, size=dim_sys)
        _, vecs = np.linalg.eigh(h_sys)
        rho_sys = (vecs * (w / w.sum())) @ vecs.conj().T
    else:
        rho_sys = random_density(dim_sys, rng)
    return Scenario(h_sys=h_sys, h_res=h_res, v=v, lam=lam, beta=beta, rho_sys=rho_sys)


# -- JSON config --------------------------------------------------------------


def matrix_to_pairs(a: np.ndarray) -> list:
    """Serialize a real or complex matrix as row-major [re, im] pairs."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(a)]


def pairs_to_matrix(rows: list, field_name: str) -> np.ndarray:
    """A config's [re, im] pairs as a read-only ``linalg.real_or_complex`` array, or a ConfigError
    naming the field; as in the schema, a string, null or boolean (numpy's 0 or 1) entry is refused."""
    try:
        arr = np.asarray(rows)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{field_name}: not a numeric [re, im] matrix: {exc}") from exc
    if arr.dtype.kind not in "iuf":  # a string entry makes a string array, a null an object one
        raise ConfigError(f"{field_name}: not a numeric [re, im] matrix: entries of dtype {arr.dtype}")
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
        raise ConfigError(
            f"{field_name}: expected a square matrix of [re, im] pairs, got shape {arr.shape}"
        )
    if any(isinstance(x, bool) for row in rows for pair in row for x in pair):
        raise ConfigError(f"{field_name}: not a numeric [re, im] matrix: a boolean entry")
    arr = arr.astype(float)
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{field_name}: matrix has a non-finite entry")
    return real_or_complex(arr[:, :, 0] + 1j * arr[:, :, 1])


@dataclass(frozen=True)
class RunConfig:
    """A parsed scenario plus the numerical tolerances of the run."""

    scenario: Scenario
    quad_tol: float = DEFAULT_QUAD_TOL


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ConfigError(f"{context}: missing required field '{key}'")
    return mapping[key]


def _as_object(value, context: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{context}: expected a JSON object, got {type(value).__name__}")
    return value


def _number(value, field_name: str, positive: bool = False) -> float:
    """A finite number (> 0 if ``positive``), not a bool or a string, or a ConfigError naming the field."""
    try:
        x = math.nan if isinstance(value, (bool, str)) else float(value)
    except (TypeError, ValueError, OverflowError):  # an int beyond float range overflows
        x = math.nan
    if not math.isfinite(x) or (positive and x <= 0):
        kind = "finite positive" if positive else "finite"
        raise ConfigError(f"{field_name}: expected a {kind} number, got {value!r}")
    return x


def _integer(value, field_name: str, minimum: int) -> int:
    """An int that is not a bool and is >= ``minimum``, or a ConfigError naming the field."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(f"{field_name}: expected an integer >= {minimum}, got {value!r}")
    return value


def _check_hermitian_field(a: np.ndarray, field_name: str) -> np.ndarray:
    try:
        assert_hermitian(a, name="matrix")
    except NonHermitianError as exc:
        raise ConfigError(f"{field_name}: {exc}") from exc
    return a


def _check_config_size(dim_sys: int, dim_res: int, res_field: str, res_source: str) -> None:
    """:func:`check_dense_size` of d = d_S d_R as a ConfigError that names
    ``system.dim`` if d_S is the larger factor, else the reservoir's
    ``res_field``, whose ``res_source`` sets d_R."""
    if dim_sys > dim_res:
        res_field, res_source = "system.dim", f"{dim_sys} with d_R = {dim_res}"
    try:
        check_dense_size(dim_sys * dim_res, res_source)
    except ValueError as exc:
        raise ConfigError(f"{res_field}: {exc}") from exc


def _system_from_config(cfg: dict, dim: int) -> tuple[np.ndarray, np.ndarray, float | None]:
    ham = _as_object(_require(cfg, "hamiltonian", "system"), "system.hamiltonian")
    if "matrix" in ham:
        h = _check_hermitian_field(pairs_to_matrix(ham["matrix"], "system.hamiltonian.matrix"),
                                   "system.hamiltonian.matrix")
    elif ham.get("preset") == "ladder":
        h = ladder_hamiltonian(dim)
    else:
        raise ConfigError(
            f"system.hamiltonian: expected 'matrix' or preset 'ladder', got {ham!r}"
        )
    if h.shape[0] != dim:
        raise ConfigError(
            f"system.hamiltonian: dimension {h.shape[0]} != system.dim {dim}"
        )
    state_cfg = _as_object(cfg.get("initial_state", {"preset": "ground"}), "system.initial_state")
    return h, *_initial_state_from_config(state_cfg, h, dim)


def _initial_state_from_config(cfg: dict, h: np.ndarray, dim: int):
    if "matrix" in cfg:
        rho = _check_hermitian_field(pairs_to_matrix(cfg["matrix"], "system.initial_state.matrix"),
                                     "system.initial_state.matrix")
        if rho.shape[0] != dim:
            raise ConfigError("system.initial_state: dimension mismatch")
        return rho, None
    preset = cfg.get("preset", "ground")
    if preset in ("ground", "excited"):
        psi = np.linalg.eigh(h)[1][:, 0 if preset == "ground" else -1]
        rho = np.outer(psi, psi.conj())
    elif preset == "maximally_mixed":
        rho = maximally_mixed(dim)
    elif preset == "thermal":
        # Needs beta, resolved by the caller once beta is known.
        return None, _number(cfg.get("beta_scale", 1.0), "system.initial_state.beta_scale")
    else:
        raise ConfigError(f"system.initial_state.preset: unknown preset {preset!r}")
    return rho, None


def _reservoir_from_config(cfg: dict, dim_sys: int) -> tuple[np.ndarray, np.ndarray | None]:
    cfg = _as_object(cfg, "reservoir")
    if "matrix" in cfg:
        h = _check_hermitian_field(pairs_to_matrix(cfg["matrix"], "reservoir.matrix"),
                                   "reservoir.matrix")
        _check_config_size(dim_sys, h.shape[0], "reservoir.matrix", f"d_R = {h.shape[0]}")
        return h, None
    preset = _require(cfg, "preset", "reservoir")
    if preset != "chain":
        raise ConfigError(f"reservoir.preset: unknown preset {preset!r}")
    n = _integer(_require(cfg, "n", "reservoir"), "reservoir.n", 1)
    j_coupling = _number(cfg.get("coupling", 1.0), "reservoir.coupling")
    field = _number(cfg.get("field", 1.0), "reservoir.field")
    disorder = _number(cfg.get("disorder", 0.0), "reservoir.disorder")
    if disorder != 0.0 and "seed" not in cfg:  # unseeded, it would draw new fields on every run
        raise ConfigError("reservoir.seed: required when reservoir.disorder is nonzero")
    seed = _integer(cfg["seed"], "reservoir.seed", 0) if "seed" in cfg else None
    try:
        check_chain_size(n)  # the chain alone, so 2**n below is formed only for an n the budget could admit
    except ValueError as exc:
        raise ConfigError(f"reservoir.n: {exc}") from exc
    _check_config_size(dim_sys, 2**n, "reservoir.n", f"n={n}")
    return build_chain_reservoir(n, j_coupling, field, seed=seed, disorder=disorder)


def _coupling_from_config(cfg: dict, dim_sys: int, dim_res: int, edge: np.ndarray | None):
    cfg = _as_object(cfg, "coupling")
    if "matrix" in cfg:
        v = _check_hermitian_field(pairs_to_matrix(cfg["matrix"], "coupling.matrix"),
                                   "coupling.matrix")
        if v.shape[0] != dim_sys * dim_res:
            raise ConfigError(
                f"coupling.matrix: dimension {v.shape[0]} != d_S*d_R = {dim_sys * dim_res}"
            )
        return v
    preset = cfg.get("preset", "edge_hopping")
    if preset != "edge_hopping":
        raise ConfigError(f"coupling.preset: unknown preset {preset!r}")
    if edge is None:
        edge = hopping_operator(dim_res)
    return ((hopping_operator(dim_sys), edge),)


def config_to_scenario(cfg: dict) -> RunConfig:
    """Build a validated scenario from a parsed config mapping."""
    if not isinstance(cfg, dict):
        raise ConfigError("top level: expected a JSON object")
    beta = _number(_require(cfg, "beta", "top level"), "beta")

    system_cfg = _as_object(_require(cfg, "system", "top level"), "system")
    dim_sys = _integer(_require(system_cfg, "dim", "system"), "system.dim", 1)
    # The reservoir first: its size check, on d_S d_R, comes before any d_S x d_S array.
    h_res, edge = _reservoir_from_config(_require(cfg, "reservoir", "top level"), dim_sys)
    h_sys, rho_sys, thermal_scale = _system_from_config(system_cfg, dim_sys)
    coupling_cfg = _as_object(_require(cfg, "coupling", "top level"), "coupling")
    v = _coupling_from_config(coupling_cfg, h_sys.shape[0], h_res.shape[0], edge)
    if "lambda" in coupling_cfg:
        lam = _number(coupling_cfg["lambda"], "coupling.lambda")
    else:
        warnings.warn(
            "coupling.lambda omitted: defaulting to 0 (uncoupled baseline run)",
            stacklevel=2,
        )
        lam = 0.0
    if rho_sys is None:
        rho_sys = gibbs(h_sys, beta * thermal_scale)

    try:
        scn = Scenario(h_sys=h_sys, h_res=h_res, v=v, lam=lam, beta=beta, rho_sys=rho_sys)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    tols = _as_object(cfg.get("tolerances", {}), "tolerances")
    unknown = sorted(tols.keys() - {"quad_tol"})
    if unknown:
        raise ConfigError(f"tolerances.{unknown[0]}: unknown key; quad_tol is the only tolerance a config sets")
    return RunConfig(scenario=scn, quad_tol=_number(tols.get("quad_tol", DEFAULT_QUAD_TOL), "tolerances.quad_tol", True))


def parse_config(path: str | Path) -> RunConfig:
    """Load, validate and build a scenario from a JSON config file."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(path)
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return config_to_scenario(cfg)


def scenario_to_config(run: RunConfig) -> dict:
    """Serialize a scenario to the explicit-matrix config form.

    Matrices round-trip bit for bit through JSON (floats serialize at full
    precision).
    """
    scn = run.scenario
    return {
        "system": {
            "dim": scn.dim_sys,
            "hamiltonian": {"matrix": matrix_to_pairs(scn.h_sys)},
            "initial_state": {"matrix": matrix_to_pairs(scn.rho_sys)},
        },
        "reservoir": {"matrix": matrix_to_pairs(scn.h_res)},
        "coupling": {"matrix": matrix_to_pairs(scn.v), "lambda": scn.lam},
        "beta": scn.beta,
        "tolerances": {"quad_tol": run.quad_tol},
    }


def chain_scenario(
    n: int,
    lam: float = 0.2,
    beta: float = 1.0,
    j_coupling: float = 0.3,
    field: float = 0.5,
    seed: int | None = None,
    disorder: float = 0.0,
    excited: bool = True,
) -> Scenario:
    """Qubit (levels 0, 1) coupled through sx to the edge of an n-site chain.

    The defaults put the chain's single-flip cost 2*field on resonance with
    the unit qubit gap and keep the band narrow (j_coupling < field), so the
    excited qubit actually relaxes within moderate time windows; growing n
    postpones the finite-size recurrence.  A chain too large for the dense
    memory budget (:func:`check_chain_size`) raises ValueError first.
    """
    check_chain_size(n, 2)
    h_sys = ladder_hamiltonian(2)
    h_res, edge = build_chain_reservoir(n, j_coupling, field, seed=seed, disorder=disorder)
    v = ((SIGMA_X, edge),)
    rho_sys = np.diag([0.0, 1.0] if excited else [1.0, 0.0])
    return Scenario(h_sys=h_sys, h_res=h_res, v=v, lam=lam, beta=beta, rho_sys=rho_sys)
