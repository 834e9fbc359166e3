"""A NaN planted on one probe draw, or in one term of a check, fails it.

Each test wraps one function that a check calls, and makes it return NaN on
the first, a middle or the last of the calls made while that check runs:
the calls after the previous check's residual is recorded
(``checks._result``) and before this one's.  The check's row must then fail,
with its residual written to the report as null.  A first run of the suite
counts the calls; a second run, on a fresh scenario, plants the NaN.
"""

import dataclasses
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from fcslab import checks
from fcslab import fcs as fcsmod
from fcslab import states
from fcslab.scenarios import parse_config

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "qutrit_chain2.json"  # d_S = 3: three post states


def poison(out):
    """``out`` with every number NaN."""
    if isinstance(out, np.ndarray):
        return np.full_like(out, np.nan)
    return type(out)(np.nan)


def run_suite(monkeypatch, suite, owner, attr, plant_at=None, plant=poison):
    """(rows of ``suite`` on a fresh scenario, calls): ``owner.attr`` is wrapped
    so that calls[i] counts its calls made while row i is computed, and the
    call plant_at = (i, k), if given, returns plant(out)."""
    calls, recorded = Counter(), []
    fn, record = getattr(owner, attr), checks._result

    def wrapped(*args, **kwargs):
        out = fn(*args, **kwargs)
        i = len(recorded)
        if plant_at == (i, calls[i]):
            out = plant(out)
        calls[i] += 1
        return out

    def recording(name, *args):
        recorded.append(name)
        return record(name, *args)

    with monkeypatch.context() as m:
        m.setattr(owner, attr, wrapped)
        m.setattr(checks, "_result", recording)
        rows = checks.SUITE_BUILDERS[suite](parse_config(CONFIG).scenario)
    return rows, calls


def planted_row(monkeypatch, suite, check, owner, attr, position, draws=None, plant=poison):
    """The row of ``check`` with a NaN planted on the call at ``position``
    (first, middle, last or a call index) among the first ``draws`` calls
    that ``check`` makes to ``owner.attr`` (all of them by default)."""
    rows, calls = run_suite(monkeypatch, suite, owner, attr)
    i = [r.check_name for r in rows].index(check)
    n = draws or calls[i]
    assert n >= 1, f"{check} never calls {attr}"
    k = {"first": 0, "middle": n // 2, "last": n - 1}.get(position, position)
    rows, _ = run_suite(monkeypatch, suite, owner, attr, plant_at=(i, k), plant=plant)
    return rows[i]


def assert_fails_with_null(row):
    record = row.as_record()
    assert not row.passed and record["pass"] is False, record
    assert record["residual"] is None, record
    json.dumps(record, allow_nan=False)


POSITIONS = ["first", "middle", "last"]

# (suite, check, owner, function called on each draw, the number of calls that are draws)
PROBES = [
    ("operator", "cstar_identity", checks, "op_norm", None),
    ("operator", "spectral_reconstruction", checks, "op_norm", None),
    ("operator", "spectral_mapping", np.linalg, "eigvalsh", None),
    ("operator", "calculus_homomorphism", checks, "op_norm", None),
    ("states", "entropy_bounds", checks, "entropy", None),
    ("states", "gibbs_variational_inequality", states, "entropy", 50),  # the 51st call is the thermal state's
    ("states", "kms_defect_at_thermal", checks, "random_hermitian", None),
    ("states", "post_state_validity", np.linalg, "eigvalsh", None),
    ("modular", "gns_trace_agreement", checks, "hs_inner", None),
    ("modular", "conjugation_antiunitary", checks, "hs_norm", None),
    ("modular", "modular_identities", checks, "hs_norm", None),
    ("modular", "star_operator_action", checks, "hs_norm", None),
    ("modular", "conjugated_commutant", checks, "hs_norm", None),
    ("modular", "modular_flow_stability", checks, "hs_norm", None),
    ("modular", "kms_from_modular", checks, "hs_inner", None),
    ("modular", "radon_nikodym", checks, "hs_inner", None),
    ("modular", "coupled_liouvillean_formula", checks, "hs_norm", None),
    ("modular", "cocycle_conjugation", checks, "hs_norm", None),
    ("fcs", "half_line_identity", fcsmod, "hs_inner", None),  # one call per point of the s grid
]


@pytest.mark.parametrize("position", POSITIONS)
@pytest.mark.parametrize("suite, check, owner, attr, draws", PROBES, ids=[case[1] for case in PROBES])
def test_nan_on_one_draw_fails_the_check(monkeypatch, suite, check, owner, attr, draws, position):
    assert_fails_with_null(planted_row(monkeypatch, suite, check, owner, attr, position, draws))


@pytest.mark.parametrize("position", POSITIONS)
@pytest.mark.parametrize("check", ["cone_generation", "cone_preserved_by_flow"])
def test_nan_probe_vector_is_outside_the_cone(monkeypatch, check, position):
    # the residual is an indicator: a NaN vector is not Hermitian, so not in the cone
    row = planted_row(monkeypatch, "modular", check, checks, "dagger", position)
    assert not row.passed and row.residual == 1.0


def nan_entry(k):
    """A plant that makes entry k of a returned array NaN."""
    def plant(out):
        out = np.array(out)
        out[k] = np.nan
        return out
    return plant


def nan_atom(term, k):
    """A plant that makes the location or the weight of atom k NaN."""
    def plant(mu):
        return dataclasses.replace(mu, **{term: nan_entry(k)(getattr(mu, term))})
    return plant


@pytest.mark.parametrize("atom", [0, 1, -1])
@pytest.mark.parametrize("term", ["locations", "weights"])
def test_nan_atom_fails_the_two_route_check(monkeypatch, term, atom):
    row = planted_row(monkeypatch, "fcs", "reservoir_fcs_two_route", checks, "two_time_reservoir_oracle",
                      0, plant=nan_atom(term, atom))
    assert_fails_with_null(row)


@pytest.mark.parametrize("term", [0, 1])  # the system's, the reservoir's
def test_nan_heat_fails_flux_vs_direct(monkeypatch, term):
    row = planted_row(monkeypatch, "fcs", "flux_vs_direct", checks, "delta_q_direct", 0,
                      plant=lambda out: tuple(np.nan if i == term else x for i, x in enumerate(out)))
    assert_fails_with_null(row)


@pytest.mark.parametrize("call, plant", [
    (0, nan_entry(0)),  # the first strip point
    (0, nan_entry(2)),  # a middle strip point
    (1, poison),  # F(1), the last term
], ids=["first", "middle", "last"])
def test_nan_char_fails_strip_growth_bound(monkeypatch, call, plant):
    row = planted_row(monkeypatch, "fcs", "strip_growth_bound", fcsmod.FcsAtTime, "char", call, plant=plant)
    assert_fails_with_null(row)


@pytest.mark.parametrize("attr", ["op_norm", "dyson_error_bound"])  # the error, the bound
def test_nan_term_fails_dyson_truncation_bound(monkeypatch, attr):
    assert_fails_with_null(planted_row(monkeypatch, "fcs", "dyson_truncation_bound", checks, attr, "first"))
