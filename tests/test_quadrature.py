"""The Gauss-Kronrod quadrature of ``linalg``, pinned against
``scipy.integrate.quad_vec``, whose loop and 21-point rule it ports; scipy is
a test-only reference.  Also: the library and its commands load no scipy."""

import ast
import json
import os
import subprocess
import sys
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad_vec

from fcslab import checks
from fcslab import dynamics as dynmod
from fcslab import fcs as fcsmod
from fcslab.dynamics import QuadratureError, delta_q_flux
from fcslab.fcs import operator_balance_check
from fcslab.linalg import _GK21_G, _GK21_K, _GK21_X, _gk21, _norm, gauss_kronrod
from fcslab.scenarios import chain_scenario, parse_config

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fcslab"

SCENARIOS = {
    "qubit_qubit": lambda: parse_config(ROOT / "configs" / "qubit_qubit.json").scenario,
    "chain4": lambda: chain_scenario(4, disorder=0.3, seed=1),
}
FLUX_KINDS = ("flux_sys", "flux_res", "balance")


def counted(f):
    def g(s):
        g.evals += 1
        return f(s)

    g.evals = 0
    return g


def recorded_integrands(scn):
    """The two scalar flux integrands of delta_q_flux and the array integrand
    of operator_balance_check, as the library builds them."""
    found = []
    for mod, name, run in ((dynmod, "quad", lambda: delta_q_flux(scn, 1.0)),
                           (fcsmod, "quad_vec", lambda: operator_balance_check(scn, 1.0))):
        original = getattr(mod, name)

        def recording(f, *args, _original=original, **kw):
            found.append(f)
            return _original(f, *args, **kw)

        setattr(mod, name, recording)
        try:
            run()
        finally:
            setattr(mod, name, original)
    return dict(zip(FLUX_KINDS, found))


@pytest.fixture(scope="module")
def integrands():
    return {case: recorded_integrands(make()) for case, make in SCENARIOS.items()}


@pytest.mark.parametrize("tol", [1e-8, 1e-16])
@pytest.mark.parametrize("t", [1.0, 20.0])
@pytest.mark.parametrize("kind", ["flux_sys", "flux_res", "balance"])
@pytest.mark.parametrize("case", sorted(SCENARIOS))
def test_matches_scipy_quad_vec(integrands, case, kind, t, tol):
    f = counted(integrands[case][kind])
    value, err = gauss_kronrod(f, 0.0, t, tol, 1e-13)
    ref, ref_err, info = quad_vec(integrands[case][kind], 0.0, t, epsabs=tol, epsrel=1e-13,
                                  full_output=True)
    assert np.max(np.abs(np.asarray(value) - ref)) <= 1e-13
    assert f.evals == 2 * info.neval  # each node twice: see _gk21
    assert abs(err - ref_err) <= 1e-3 * ref_err


@pytest.mark.parametrize("degree", range(32))
def test_one_rule_integrates_polynomials_of_degree_31(degree):
    a, b = -0.3, 1.7
    value, err, _ = _gk21(lambda s: s**degree, a, b)
    exact = (b ** (degree + 1) - a ** (degree + 1)) / (degree + 1)
    assert abs(value - exact) <= 1e-14 * abs(exact)


def test_array_values_are_integrated_entrywise():
    value, err = gauss_kronrod(lambda s: np.array([[1.0, s], [s**2, 1j * s**3]]), 0.0, 2.0, 1e-12, 1e-12)
    assert np.max(np.abs(value - np.array([[2.0, 2.0], [8.0 / 3.0, 4.0j]]))) <= 1e-14
    assert err <= 1e-12


KINKS = {
    "abs": lambda s: abs(s - 0.3),
    "sqrt": lambda s: np.sqrt(s),
    "array": lambda s: np.array([[abs(s - 0.3), np.sqrt(s)], [np.exp(1j * s), 1.0 / (1.0 + 25 * s**2)]]),
}


@pytest.mark.parametrize("tol", [1e-6, 1e-10])
@pytest.mark.parametrize("kind", sorted(KINKS))
def test_many_bisections_match_scipy_quad_vec(kind, tol):
    # Non-smooth integrands take many rounds, several bisections in some of
    # them, before the error falls below tol / 8.
    f = counted(KINKS[kind])
    value, err = gauss_kronrod(f, 0.0, 1.0, tol, 0.0)
    ref, ref_err, info = quad_vec(KINKS[kind], 0.0, 1.0, epsabs=tol, epsrel=0.0, full_output=True)
    assert f.evals == 2 * info.neval > 126
    assert np.max(np.abs(np.asarray(value) - ref)) <= 1e-15
    assert abs(err - ref_err) <= 1e-3 * ref_err


def test_limit_stops_the_loop_short_of_the_tolerance():
    f = counted(lambda s: abs(s - 0.3))
    value, err = gauss_kronrod(f, 0.0, 1.0, 1e-14, 1e-14, limit=5)
    _, ref_err, info = quad_vec(lambda s: abs(s - 0.3), 0.0, 1.0, epsabs=1e-14, epsrel=1e-14,
                                limit=5, full_output=True)
    assert err > 1e-14 and not info.success
    assert f.evals == 2 * info.neval
    assert abs(value - 0.29) <= err and abs(err - ref_err) <= 1e-3 * ref_err


def test_nan_integrand_stops_after_the_first_bisection():
    f = counted(lambda s: float("nan"))
    value, err = gauss_kronrod(f, 0.0, 1.0, 1e-8, 1e-8)
    assert np.isnan(value) and np.isnan(err)
    assert f.evals == 126


# -- the 21-point rule keeps no node values ----------------------------------------------


def stored_values_gk21(f, a, b):
    """The rule as it was when it kept all 21 node values for the |f - I/2| sum:
    the reference for the two-pass _gk21."""
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    values, s_k, s_g, s_abs, s_dabs = [], 0.0, 0.0, 0.0, 0.0
    for i, (x, v) in enumerate(zip(_GK21_X, _GK21_K)):
        values.append(f(c + h * x))
        s_k += v * values[-1]
        s_abs += v * abs(values[-1])
        if i % 2:
            s_g += _GK21_G[i // 2] * values[-1]
    y0 = s_k / 2.0
    for v, ff in zip(_GK21_K, values):
        s_dabs += v * abs(ff - y0)
    err, dabs = _norm((s_k - s_g) * h), _norm(s_dabs * h)
    if dabs != 0 and err != 0:
        err = dabs * min(1.0, (200 * err / dabs) ** 1.5)
    round_err = _norm(50 * sys.float_info.epsilon * h * s_abs)
    if round_err > sys.float_info.min:
        err = max(err, round_err)
    return h * s_k, err, round_err


def same_bits(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("interval", [(0.0, 1.0), (0.0, 20.0), (0.3, 0.7)])
def test_rule_is_bitwise_the_stored_values_rule(integrands, interval):
    flux = [integrands[case][kind] for case in sorted(SCENARIOS) for kind in FLUX_KINDS]
    for f in flux + [KINKS[kind] for kind in sorted(KINKS)]:
        got, ref = _gk21(f, *interval), stored_values_gk21(f, *interval)
        assert all(same_bits(x, y) for x, y in zip(got, ref))


def counting_points(f, points):
    def g(s):
        points[s] += 1
        return f(s)

    return g


@pytest.mark.parametrize("source, kind", [("kinks", kind) for kind in sorted(KINKS)]
                         + [(case, kind) for case in sorted(SCENARIOS) for kind in FLUX_KINDS])
def test_each_scipy_point_is_evaluated_exactly_twice(integrands, source, kind):
    f, t, epsrel = (KINKS[kind], 1.0, 0.0) if source == "kinks" else (integrands[source][kind], 20.0, 1e-13)
    ours, theirs = Counter(), Counter()
    gauss_kronrod(counting_points(f, ours), 0.0, t, 1e-10, epsrel)
    quad_vec(counting_points(f, theirs), 0.0, t, epsabs=1e-10, epsrel=epsrel)
    assert sum(theirs.values()) >= 63
    assert ours == Counter({s: 2 * n for s, n in theirs.items()})


def test_at_most_two_integrand_values_are_alive(integrands):
    f = integrands["chain4"]["balance"]
    live, most = 0, 0

    def released():
        nonlocal live
        live -= 1

    def tracked(s):
        nonlocal live, most
        value = np.array(f(s))
        live += 1
        most = max(most, live)
        weakref.finalize(value, released)
        return value

    gauss_kronrod(tracked, 0.0, 20.0, 1e-12, 1e-13)
    assert live == 0 and most <= 2


@pytest.mark.parametrize("mod, name, run", [
    (dynmod, "quad", lambda scn: delta_q_flux(scn, 1.0)),
    (fcsmod, "quad_vec", lambda scn: operator_balance_check(scn, 1.0)),
])
def test_nan_error_is_a_quadrature_error(qubit_qubit, monkeypatch, mod, name, run):
    monkeypatch.setattr(mod, name, lambda f, *args, **kw: (0.0, float("nan")))
    with pytest.raises(QuadratureError):
        run(qubit_qubit)


# -- suite_fcs shares its flux quadratures -------------------------------------------


def test_suite_fcs_integrates_each_flux_once(qubit_qubit, monkeypatch):
    calls = []
    quad = dynmod.quad

    def recording(f, *args, **kw):
        calls.append(args)
        return quad(f, *args, **kw)

    monkeypatch.setattr(dynmod, "quad", recording)
    records = {r.check_name: r.residual for r in checks.suite_fcs(qubit_qubit)}
    assert len(calls) == 2
    monkeypatch.setattr(dynmod, "quad", quad)
    dq_s, dq_r = delta_q_flux(qubit_qubit, 1.0)
    assert records["mean_identity"] == fcsmod.mean_identity_check(fcsmod.fcs_at(qubit_qubit, 1.0), dq_r)
    direct = dynmod.delta_q_direct(qubit_qubit, 1.0)
    assert records["flux_vs_direct"] == max(abs(direct[0] - dq_s), abs(direct[1] - dq_r))


def test_energy_scale_is_computed_once(qubit_qubit, monkeypatch):
    norms = []
    op_norm = dynmod.op_norm
    monkeypatch.setattr(dynmod, "op_norm", lambda a: norms.append(a) or op_norm(a))
    first = qubit_qubit.energy_scale
    assert qubit_qubit.energy_scale is first and len(norms) == 1 and norms[0] is qubit_qubit.v
    # ||H_free|| from the two factor spectra, not from an SVD of H_free: equal to a few ulp
    dense = max(1.0, op_norm(qubit_qubit.h_free) + abs(qubit_qubit.lam) * op_norm(qubit_qubit.v))
    assert abs(first - dense) <= 4 * np.finfo(float).eps * dense


# -- no scipy in the library ------------------------------------------------------------


def _imports_scipy(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "scipy" for a in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "scipy":
            return True
    return False


def test_no_module_imports_scipy():
    offenders = [p.name for p in sorted(SRC.glob("*.py")) if _imports_scipy(ast.parse(p.read_text()))]
    assert offenders == []


def test_commands_load_no_scipy(tmp_path):
    config = ROOT / "configs" / "qubit_qubit.json"
    script = f"""
import json, sys
import fcslab, fcslab.cli
rcs = [fcslab.cli.main(["verify", "--config", {str(config)!r}, "--suite", "all",
                        "--out-dir", {str(tmp_path / "verify")!r}]),
       fcslab.cli.main(["sweep", "--config", {str(config)!r}, "--t-grid", "2",
                        "--lambda-grid", "0.2", "--out-dir", {str(tmp_path / "sweep")!r}])]
print(json.dumps([rcs, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env,
                          timeout=300, check=True)
    rcs, loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    assert rcs == [0, 0]
    assert loaded == []
