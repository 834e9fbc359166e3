import json
from pathlib import Path

import numpy as np
import pytest

from fcslab import scenarios
from fcslab.cli import main
from fcslab.linalg import tensor
from fcslab.states import gibbs
from fcslab.scenarios import (
    ConfigError,
    RunConfig,
    SIGMA_X,
    build_chain_reservoir,
    chain_scenario,
    config_to_scenario,
    matrix_to_pairs,
    parse_config,
    scenario_to_config,
)


ROOT = Path(__file__).resolve().parent.parent
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


def refusal(key: str, kind: str) -> str:
    """The start of the ConfigError message for a bad value of a number field
    ``key``; tolerances.cluster_tol is no setting, so any value is refused as
    an unknown key."""
    return "unknown key" if key == "cluster_tol" else f"expected a {kind}"


def validate_refuses(cfg: dict, field: str, tmp_path, capsys) -> None:
    """``fcslab validate`` on ``cfg`` exits 2 with an error that names ``field``."""
    path = tmp_path / "refused.json"
    path.write_text(json.dumps(cfg))
    assert main(["validate", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field}: ")


def shipped_config(name: str) -> dict:
    """configs/<name>.json as a fresh mapping."""
    return json.loads((ROOT / "configs" / f"{name}.json").read_text())


def nfold_chain_reservoir(n, j_coupling, field, seed=None, disorder=0.0):
    """The chain built from site operators, each an n-fold Kronecker product,
    and each bond the product of two of them."""
    fields = np.full(n, float(field))
    if disorder != 0.0:
        fields = fields + disorder * np.random.default_rng(seed).standard_normal(n)

    def site_op(op, site):
        mats = [np.eye(2)] * n
        mats[site] = op
        return tensor(*mats)

    h = np.zeros((2**n, 2**n))
    for i in range(n):
        h += fields[i] * site_op(SIGMA_Z, i)
    for i in range(n - 1):
        h += j_coupling * site_op(SIGMA_X, i) @ site_op(SIGMA_X, i + 1)
    return h, site_op(SIGMA_X, 0)


class TestChainReservoir:
    def test_single_site(self):
        h, edge = build_chain_reservoir(1, j_coupling=2.0, field=0.7)
        assert np.allclose(h, 0.7 * SIGMA_Z)
        assert np.allclose(edge, np.array([[0, 1], [1, 0]]))

    def test_two_sites_decoupled_spectrum(self):
        h, _ = build_chain_reservoir(2, j_coupling=0.0, field=0.7)
        assert np.allclose(np.sort(np.linalg.eigvalsh(h)), [-1.4, 0.0, 0.0, 1.4])

    def test_seeded_disorder_reproducible(self):
        a, _ = build_chain_reservoir(4, 1.0, 0.5, seed=123, disorder=0.3)
        b, _ = build_chain_reservoir(4, 1.0, 0.5, seed=123, disorder=0.3)
        assert (a == b).all()
        c, _ = build_chain_reservoir(4, 1.0, 0.5, seed=124, disorder=0.3)
        assert not np.allclose(a, c)

    def test_size_guard_mentions_memory(self):
        with pytest.raises(ValueError, match="GiB"):
            build_chain_reservoir(13, 1.0, 1.0)

    def test_hermitian(self):
        h, edge = build_chain_reservoir(3, 0.4, 0.9)
        assert np.allclose(h, h.conj().T)
        assert np.allclose(edge, edge.conj().T)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_bond_by_bond_is_bitwise_the_site_operator_build(self, n):
        for disorder, seed in ((0.0, None), (0.3, 4), (-0.7, 11)):
            for j_coupling in (0.3, -0.3):
                for field in (0.5, -0.5):
                    h, edge = build_chain_reservoir(n, j_coupling, field, seed=seed, disorder=disorder)
                    h_ref, edge_ref = nfold_chain_reservoir(n, j_coupling, field, seed=seed, disorder=disorder)
                    # the chain is real: float64, as the real site-operator build is
                    assert h.dtype == edge.dtype == h_ref.dtype == edge_ref.dtype == np.float64
                    assert h.tobytes() == h_ref.tobytes() and edge.tobytes() == edge_ref.tobytes()


class TestConfig:
    def test_minimal_qubit_qubit(self, tmp_path):
        cfg = shipped_config("qubit_qubit")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        run = parse_config(path)
        assert run.scenario.dim == 4
        assert run.scenario.lam == 0.2
        assert run.quad_tol == 1e-8

    def test_a_real_matrix_hamiltonian_reaches_the_thermal_preset_real(self, monkeypatch):
        # the config door decides the dtype: states.gibbs runs before any Scenario exists
        dtypes = []
        monkeypatch.setattr(scenarios, "gibbs", lambda h, beta: dtypes.append(h.dtype) or gibbs(h, beta))
        cfg = shipped_config("qubit_qubit")
        cfg["system"]["initial_state"] = {"preset": "thermal"}
        ladder = config_to_scenario(cfg).scenario.rho_sys
        cfg["system"]["hamiltonian"] = {"matrix": matrix_to_pairs(np.diag([0.0, 1.0]))}
        matrix = config_to_scenario(cfg).scenario.rho_sys
        assert dtypes == [np.dtype(float)] * 2
        assert matrix.dtype == ladder.dtype == np.dtype(float) and matrix.tobytes() == ladder.tobytes()

    @pytest.mark.parametrize("scale, populations", [(0.0, [0.5, 0.5]), (2.0, [1 / (1 + np.exp(-2.0)), 1 / (1 + np.exp(2.0))])])
    def test_thermal_beta_scale_is_taken_as_given(self, scale, populations):
        # a scale of 0 is the infinite-temperature state, not a fallback to beta
        cfg = shipped_config("qubit_qubit")
        cfg["system"]["initial_state"] = {"preset": "thermal", "beta_scale": scale}
        rho = config_to_scenario(cfg).scenario.rho_sys
        assert np.allclose(rho, np.diag(populations), rtol=0, atol=1e-15)

    def test_lambda_omitted_warns_and_defaults(self):
        cfg = shipped_config("qubit_qubit")
        del cfg["coupling"]["lambda"]
        with pytest.warns(UserWarning, match="lambda"):
            run = config_to_scenario(cfg)
        assert run.scenario.lam == 0.0

    def test_dimension_mismatch_rejected(self):
        cfg = shipped_config("qubit_qubit")
        cfg["coupling"] = {
            "matrix": matrix_to_pairs(np.eye(6, dtype=complex)),
            "lambda": 0.1,
        }
        with pytest.raises(ConfigError, match="coupling.matrix"):
            config_to_scenario(cfg)

    def test_non_hermitian_rejected_with_norm(self):
        cfg = shipped_config("qubit_qubit")
        bad = np.zeros((2, 2), dtype=complex)
        bad[0, 1] = 1.0
        cfg["system"]["hamiltonian"] = {"matrix": matrix_to_pairs(bad)}
        with pytest.raises(ConfigError, match="asymmetry norm"):
            config_to_scenario(cfg)

    def test_invalid_state_trace_rejected(self):
        cfg = shipped_config("qubit_qubit")
        cfg["system"]["initial_state"] = {
            "matrix": matrix_to_pairs(np.diag([0.7, 0.4]).astype(complex))
        }
        with pytest.raises(ConfigError, match="trace"):
            config_to_scenario(cfg)

    def test_missing_field_named(self):
        with pytest.raises(ConfigError, match="beta"):
            config_to_scenario({"system": {}, "reservoir": {}, "coupling": {}})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("field", [
        "system.hamiltonian.matrix", "system.initial_state.matrix", "reservoir.matrix",
        "coupling.matrix",
    ])
    def test_non_finite_matrix_entry_named(self, tmp_path, scenario_factory, field, value):
        cfg = scenario_to_config(RunConfig(scenario=scenario_factory(3, d_sys=2, d_res=2)))
        node = cfg
        for key in field.split("."):
            node = node[key]
        node[0][1][0] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))  # json writes and reads NaN and Infinity
        with pytest.raises(ConfigError, match=f"{field}: matrix has a non-finite entry"):
            parse_config(path)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), "x", None])
    @pytest.mark.parametrize("section, key", [
        ("reservoir", "coupling"), ("reservoir", "field"), ("reservoir", "disorder"),
        ("tolerances", "cluster_tol"), ("tolerances", "quad_tol"),
    ])
    def test_non_finite_number_named(self, tmp_path, section, key, value):
        cfg = shipped_config("qubit_chain3")
        cfg.setdefault(section, {})[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(ConfigError, match=f"{section}.{key}: {refusal(key, 'finite')}"):
            parse_config(path)

    @staticmethod
    def _with_number(path, value) -> dict:
        cfg = shipped_config("qubit_chain3")
        cfg["system"]["initial_state"] = {"preset": "thermal"}
        node = cfg
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = value
        return cfg

    @pytest.mark.parametrize("path, value", [
        (("beta",), "1.0"), (("coupling", "lambda"), "0.2"), (("reservoir", "field"), "0.5"),
        (("reservoir", "coupling"), "0.3"), (("reservoir", "disorder"), "0.1"),
        (("system", "initial_state", "beta_scale"), "2"), (("tolerances", "quad_tol"), "1e-8"),
    ], ids=lambda x: ".".join(x) if isinstance(x, tuple) else x)
    def test_a_numeric_string_is_not_a_number(self, path, value):
        # float() reads "0.5"; the schema refuses it as "not of type 'number'"
        with pytest.raises(ConfigError, match=f"^{'.'.join(path)}: expected a finite"):
            config_to_scenario(self._with_number(path, value))

    @pytest.mark.parametrize("path", [
        ("beta",), ("coupling", "lambda"), ("reservoir", "field"), ("reservoir", "coupling"),
        ("reservoir", "disorder"), ("system", "initial_state", "beta_scale"), ("tolerances", "quad_tol"),
    ], ids=".".join)
    def test_an_int_beyond_float_range_is_a_config_error(self, tmp_path, capsys, path):
        # float(10**400) overflows: this once exited 3 as a numerical error
        field = ".".join(path)
        with pytest.raises(ConfigError, match=f"^{field}: expected a finite"):
            config_to_scenario(self._with_number(path, 10**400))
        validate_refuses(self._with_number(path, 10**400), field, tmp_path, capsys)

    @pytest.mark.parametrize("field", [
        "system.hamiltonian.matrix", "system.initial_state.matrix", "reservoir.matrix",
        "coupling.matrix",
    ])
    def test_a_string_matrix_entry_is_refused(self, scenario_factory, field):
        cfg = self._with_matrix_entry(scenario_factory, field, 1, "0")
        with pytest.raises(ConfigError, match=rf"^{field}: not a numeric \[re, im\] matrix: entries of dtype <U"):
            config_to_scenario(cfg)

    @staticmethod
    def _with_matrix_entry(scenario_factory, field, part, value) -> dict:
        """A round-trip config whose matrix ``field`` has ``value`` as part ``part`` (re 0, im 1) of entry (0, 0)."""
        cfg = scenario_to_config(RunConfig(scenario=scenario_factory(3, d_sys=2, d_res=2)))
        node = cfg
        for key in field.split("."):
            node = node[key]
        node[0][0][part] = value
        return cfg

    @pytest.mark.parametrize("field", [
        "system.hamiltonian.matrix", "system.initial_state.matrix", "reservoir.matrix",
        "coupling.matrix",
    ])
    def test_a_boolean_matrix_entry_is_refused(self, scenario_factory, field):
        # numpy reads true among numbers as 1: a Hamiltonian with one once built and validated
        cfg = self._with_matrix_entry(scenario_factory, field, 0, True)
        with pytest.raises(ConfigError, match=rf"^{field}: not a numeric \[re, im\] matrix: a boolean entry"):
            config_to_scenario(cfg)

    @pytest.mark.parametrize("value", [0.0, -1e-9])
    @pytest.mark.parametrize("key", ["cluster_tol", "quad_tol"])
    def test_tolerances_must_be_positive(self, key, value):
        cfg = shipped_config("qubit_qubit")
        cfg["tolerances"] = {key: value}
        with pytest.raises(ConfigError, match=f"tolerances.{key}: {refusal(key, 'finite positive')}"):
            config_to_scenario(cfg)

    @pytest.mark.parametrize("tols", [{"cluster_tol": 1e-9}, {"quad_tol": 1e-8, "merge_tol": 1e-8}])
    def test_unknown_tolerance_is_refused_by_name(self, tols):
        # never silently ignored: a key the run would not read fails the config
        cfg = shipped_config("qubit_qubit")
        cfg["tolerances"] = tols
        key = next(k for k in tols if k != "quad_tol")
        with pytest.raises(ConfigError, match=f"^tolerances.{key}: unknown key"):
            config_to_scenario(cfg)

    def test_round_trip_bit_identical(self, tmp_path, scenario_factory):
        run = RunConfig(scenario=scenario_factory(7, d_sys=2, d_res=3))
        cfg = scenario_to_config(run)
        path = tmp_path / "roundtrip.json"
        path.write_text(json.dumps(cfg))
        back = parse_config(path)
        scn, orig = back.scenario, run.scenario
        assert (scn.h_sys == orig.h_sys).all()
        assert (scn.h_res == orig.h_res).all()
        assert (scn.v == orig.v).all()
        assert (scn.rho_sys == orig.rho_sys).all()
        assert scn.lam == orig.lam and scn.beta == orig.beta

    def test_unknown_preset_rejected(self):
        cfg = shipped_config("qubit_qubit")
        cfg["reservoir"] = {"preset": "oscillator", "n": 2}
        with pytest.raises(ConfigError, match="preset"):
            config_to_scenario(cfg)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            parse_config(path)


class TestSizeGuard:
    """A chain whose dense model would not fit the memory budget is refused
    from the config alone, before any matrix is built."""

    @staticmethod
    def _chain_config(tmp_path, n, dim_sys=2):
        cfg = shipped_config("qubit_chain3" if dim_sys == 2 else "qutrit_chain2")
        cfg["reservoir"]["n"] = n
        path = tmp_path / f"chain{n}.json"
        path.write_text(json.dumps(cfg))
        return path

    @pytest.fixture
    def no_kron(self, monkeypatch):
        def refuse(*args, **kw):
            raise AssertionError("np.kron called: a matrix was built")

        monkeypatch.setattr(np, "kron", refuse)

    def test_oversized_chain_refused_without_allocating(self, tmp_path, no_kron):
        # d = 2 * 2**12 = 8192: 12 GiB estimated against the 4 GiB budget
        with pytest.raises(ConfigError, match=r"n=12 gives d = 8192 .*12\.0 GiB .*4 GiB budget"):
            parse_config(self._chain_config(tmp_path, 12))

    def test_estimate_scales_with_the_system(self, tmp_path, no_kron):
        # a qutrit at n = 11 is d = 6144, 6.75 GiB: refused where a qubit is not
        with pytest.raises(ConfigError, match=r"n=11 gives d = 6144 .*6\.8 GiB"):
            parse_config(self._chain_config(tmp_path, 11, dim_sys=3))

    def test_budget_is_the_boundary(self, tmp_path, monkeypatch):
        # at a budget equal to the n = 3 estimate, n = 3 builds and n = 4 is refused
        monkeypatch.setattr(scenarios, "MEMORY_BUDGET_BYTES", scenarios.DENSE_MATRICES * 16 * 16**2)
        assert parse_config(self._chain_config(tmp_path, 3)).scenario.dim == 16
        with pytest.raises(ConfigError, match="n=4 gives d = 32"):
            parse_config(self._chain_config(tmp_path, 4))


    def test_inline_reservoir_refused_before_the_coupling(self, monkeypatch):
        # an inline reservoir.matrix of d_R = 8 with a qubit is d = 16
        cfg = scenario_to_config(RunConfig(scenario=chain_scenario(3)))
        monkeypatch.setattr(scenarios, "MEMORY_BUDGET_BYTES", scenarios.DENSE_MATRICES * 16 * 16**2 - 1)
        monkeypatch.setattr(scenarios, "_coupling_from_config", lambda *a: pytest.fail("coupling built"))
        with pytest.raises(ConfigError, match=r"^reservoir\.matrix: d_R = 8 gives d = 16 .*budget"):
            config_to_scenario(cfg)

    @pytest.fixture
    def no_builders(self, monkeypatch):
        def refuse(*args, **kw):
            raise AssertionError("a model matrix was built")

        for name in ("ladder_hamiltonian", "build_chain_reservoir"):
            monkeypatch.setattr(scenarios, name, refuse)
        monkeypatch.setattr(np.linalg, "eigh", refuse)

    def test_oversized_system_refused_before_it_is_built(self, tmp_path, no_builders, capsys):
        # a 10**7-level ladder alone is 800 TB; with the qubit_qubit reservoir d = 2e7
        cfg = shipped_config("qubit_qubit")
        cfg["system"]["dim"] = 10**7
        with pytest.raises(ConfigError, match=r"^system\.dim: 10000000 with d_R = 2 gives d = 20000000 .*budget"):
            config_to_scenario(cfg)
        path = tmp_path / "big.json"
        path.write_text(json.dumps(cfg))
        assert main(["validate", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: system.dim: ")

    @pytest.mark.parametrize("field, value, message", [
        # 2**n is never formed: n = 600 and 1e7 once exited 3, as the refusal message
        # overflowed, and n = 1e400 grew without bound
        ("reservoir.n", 600, r"chain size n=600 outside \[1, 13\]; .* admits d up to 4729$"),
        ("reservoir.n", 10**7, r"chain size n=10000000 outside \[1, 13\]"),
        ("reservoir.n", 10**400, r"chain size n=10+ outside \[1, 13\]"),
        # d = 8e400: its estimate in GiB once overflowed a float and exited 3
        ("system.dim", 10**400, r"10+ with d_R = 8 gives d = 80+ and an estimated 1\.1e\+795 GiB .*budget"),
    ], ids=["n600", "n1e7", "n1e400", "dim1e400"])
    def test_an_int_of_any_size_is_refused_without_allocating(self, tmp_path, no_builders, capsys, field, value, message):
        cfg = shipped_config("qubit_chain3")
        section, key = field.split(".")
        cfg[section][key] = value
        with pytest.raises(ConfigError, match=f"^{field}: {message}"):
            config_to_scenario(cfg)
        validate_refuses(cfg, field, tmp_path, capsys)

    def test_system_that_fits_alone_is_refused_with_its_reservoir(self, no_builders):
        # a 3000-level ladder fits the budget alone, but not with 4 chain sites: d = 48000
        cfg = shipped_config("qubit_qubit")
        cfg["system"]["dim"], cfg["reservoir"]["n"] = 3000, 4
        with pytest.raises(ConfigError, match=r"^system\.dim: 3000 with d_R = 16 gives d = 48000 .*budget"):
            config_to_scenario(cfg)

    def test_library_chain_refused_without_allocating(self, no_kron):
        with pytest.raises(ValueError, match=r"n=12 gives d = 8192 .*12\.0 GiB .*4 GiB budget"):
            chain_scenario(12)

    def test_library_chain_refused_from_n_alone(self, no_builders):
        # chain_scenario(600) once raised OverflowError
        with pytest.raises(ValueError, match=r"^chain size n=600 outside \[1, 13\]; the 4 GiB budget .* admits d up to 4729$"):
            chain_scenario(600)

    def test_library_chain_budget_is_the_boundary(self, monkeypatch):
        monkeypatch.setattr(scenarios, "MEMORY_BUDGET_BYTES", scenarios.DENSE_MATRICES * 16 * 16**2)
        assert chain_scenario(3).dim == 16
        with pytest.raises(ValueError, match="n=4 gives d = 32"):
            chain_scenario(4)


class TestPresets:
    @pytest.mark.parametrize("name", ["qubit_qubit", "qubit_chain3", "qutrit_chain2"])
    def test_presets_build(self, name):
        run = config_to_scenario(shipped_config(name))
        assert run.scenario.beta > 0

    def test_chain_scenario_defaults(self):
        scn = chain_scenario(3)
        assert scn.dim == 16
        assert scn.lam == 0.2
        # excited start: all population on the upper level
        assert scn.rho_sys[1, 1] == pytest.approx(1.0)


class TestSchema:
    """docs/config.schema.json accepts every shipped config and the configs
    that scenario_to_config writes, and refuses what the parser refuses."""

    @pytest.fixture(scope="class")
    def validator(self):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads((ROOT / "docs" / "config.schema.json").read_text())
        cls = jsonschema.validators.validator_for(schema)
        cls.check_schema(schema)
        return cls(schema)

    @pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.json")), ids=lambda p: p.stem)
    def test_shipped_configs_validate(self, validator, path):
        validator.validate(json.loads(path.read_text()))

    @pytest.mark.parametrize("name", [
        *(path.stem for path in sorted((ROOT / "configs").glob("*.json"))),
        "matrix_hamiltonian", "string_beta", "string_matrix_entry", "boolean_matrix_entry", "cluster_tol",
        "unknown_tolerance",
    ])
    def test_schema_and_parser_agree(self, validator, name):
        # each config is accepted by both the schema and config_to_scenario, or refused by both
        path = ROOT / "configs" / f"{name}.json"
        cfg = shipped_config(name if path.exists() else "qubit_qubit")
        matrix = [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]
        if name == "matrix_hamiltonian":
            cfg["system"]["hamiltonian"] = {"matrix": matrix}
        elif name == "string_matrix_entry":
            matrix[1][1][0] = "1"
            cfg["system"]["hamiltonian"] = {"matrix": matrix}
        elif name == "boolean_matrix_entry":
            matrix[1][1][0] = True
            cfg["system"]["hamiltonian"] = {"matrix": matrix}
        elif name == "string_beta":
            cfg["beta"] = "1.0"
        elif name == "cluster_tol":
            cfg["tolerances"] = {"cluster_tol": 1e-9}
        elif name == "unknown_tolerance":
            cfg["tolerances"] = {"quad_tol": 1e-8, "atom_tol": 1e-8}
        try:
            config_to_scenario(cfg)
            parsed = True
        except ConfigError:
            parsed = False
        assert validator.is_valid(cfg) == parsed == (path.exists() or name == "matrix_hamiltonian")

    @pytest.mark.parametrize("which", ["random", "chain"])
    def test_round_trip_config_validates(self, validator, scenario_factory, which):
        scn = scenario_factory(7, d_sys=2, d_res=3) if which == "random" else chain_scenario(3, disorder=0.3, seed=2)
        validator.validate(json.loads(json.dumps(scenario_to_config(RunConfig(scenario=scn)))))
