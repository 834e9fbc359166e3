"""The shipped commands' outputs against those recorded under tests/reference/.

Each run writes its outputs afresh and compares them field by field, with
``tools/output_diff.py``'s reading of the files: verify check names, order,
tolerances and pass flags, CSV headers, row counts and text fields exactly;
every other number to an absolute 1e-13; a verify residual only against its
own tolerance, since it is roundoff.  A change that moves a value past this
rewrites the reference files (``python tests/test_reference_outputs.py``) and
names each moved file and field in CHANGES.md.
"""

import importlib.util
import json
import sys
import tempfile
from pathlib import Path

import pytest

from fcslab.cli import main

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference"
VALUE_TOL = 1e-13

_SPEC = importlib.util.spec_from_file_location("output_diff", ROOT / "tools" / "output_diff.py")
output_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(output_diff)

SWEEP_T = ["sweep", "--t-grid", "0:30:7", "--lambda-grid", "0.2"]
# name: (a shipped config, or (chain n, disorder) on qubit_chain6.json; the command and its options)
RUNS = {
    **{
        f"verify_{cfg}": (cfg, ["verify", "--suite", "all", "--seed", "0"])
        for cfg in ("qubit_qubit", "qubit_chain3", "qubit_chain6", "qutrit_chain2")
    },
    "fcs_qubit_chain3": ("qubit_chain3", ["fcs", "--t", "5.0"]),
    "sweep_qubit_chain6": ("qubit_chain6", [*SWEEP_T, "--workers", "4"]),
    "sweep_t_chain8": ((8, 0.0), [*SWEEP_T, "--workers", "1"]),
    "scan_lambda_chain7_w2": ((7, 0.3), ["sweep", "--t-grid", "0,10", "--lambda-grid", "0.05:0.35:7", "--workers", "2"]),
}


def config_path(spec, tmp_dir: Path) -> Path:
    """A shipped config, or qubit_chain6.json with n chain sites and, if
    disorder is set, site-field disorder drawn from seed 0."""
    if isinstance(spec, str):
        return ROOT / "configs" / f"{spec}.json"
    n, disorder = spec
    cfg = json.loads((ROOT / "configs" / "qubit_chain6.json").read_text())
    cfg["reservoir"]["n"] = n
    if disorder:
        cfg["reservoir"].update(disorder=disorder, seed=0)
    path = tmp_dir / f"chain{n}.json"
    path.write_text(json.dumps(cfg))
    return path


def run(name: str, out_dir: Path, tmp_dir: Path) -> int:
    spec, (command, *options) = RUNS[name]
    return main([command, "--config", str(config_path(spec, tmp_dir)), *options, "--out-dir", str(out_dir)])


@pytest.mark.parametrize("name", RUNS)
def test_outputs_match_reference(name, tmp_path, capsys):
    out = tmp_path / name
    assert run(name, out, tmp_path) == 0
    capsys.readouterr()
    files = sorted(p.name for p in (REFERENCE / name).iterdir())
    assert sorted(p.name for p in out.iterdir()) == files
    for file in files:
        (fixed_ref, leaves_ref), (fixed, leaves) = (output_diff.read_fields(d / file) for d in (REFERENCE / name, out))
        assert fixed == fixed_ref, file
        assert [field for field, _ in leaves] == [field for field, _ in leaves_ref], file
        if file == "verify_report.json":
            for (check, tol, passed), (_, residual) in zip(fixed, leaves):
                assert (residual <= tol) is passed, check
            continue
        for (field, ref), (_, value) in zip(leaves_ref, leaves):
            if output_diff._is_number(ref) and output_diff._is_number(value):
                assert abs(value - ref) <= VALUE_TOL, (file, field, ref, value)
            else:
                assert value == ref, (file, field)


if __name__ == "__main__":
    # rewrite every reference file from the working tree's code
    with tempfile.TemporaryDirectory() as tmp:
        for name in RUNS:
            if run(name, REFERENCE / name, Path(tmp)) != 0:
                sys.exit(f"{name} exited non-zero")
