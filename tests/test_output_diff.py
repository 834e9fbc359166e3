"""tools/output_diff.py on two small synthetic output directories."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "output_diff", Path(__file__).resolve().parent.parent / "tools" / "output_diff.py"
)
output_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(output_diff)

REPORT = [
    {"check_name": "cstar_identity", "pass": True, "residual": 1e-15, "tolerance": 1e-10},
    {"check_name": "mean_identity", "pass": True, "residual": 2e-16, "tolerance": 1e-8},
]
SWEEP = "lambda,t,distance,mean_R\n0.2,0.0,1.5,0.0\n0.2,5.0,0.7,-0.44\n"
VERDICT = [{"baseline_t0": 1.5, "lambda": 0.2, "pass": True, "plateau_distance": 0.3}]
SUMMARY = {"mean_system": -0.45, "moments_system": [-0.45, 0.45], "t": 5.0}
MEASURES = "location,weight,which\n-1.0,0.45,system\n0.0,0.55,system\n"


def write_outputs(root: Path, report=REPORT, sweep=SWEEP, verdict=VERDICT, summary=SUMMARY, measures=MEASURES):
    (root / "verify").mkdir(parents=True)
    (root / "sweep").mkdir()
    (root / "fcs").mkdir()
    (root / "verify" / "verify_report.json").write_text(json.dumps(report))
    (root / "sweep" / "sweep.csv").write_text(sweep)
    (root / "sweep" / "verdict.json").write_text(json.dumps(verdict))
    (root / "fcs" / "summary.json").write_text(json.dumps(summary))
    (root / "fcs" / "measures.csv").write_text(measures)
    return root


def test_identical_directories(tmp_path, capsys):
    parent, change = write_outputs(tmp_path / "a"), write_outputs(tmp_path / "b")
    assert output_diff.main([str(parent), str(change)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5 and all(line.endswith(": identical") for line in lines)


def test_largest_move_per_field(tmp_path):
    parent = write_outputs(tmp_path / "a")
    change = write_outputs(
        tmp_path / "b",
        report=[dict(REPORT[0], residual=4e-15), REPORT[1]],
        sweep="lambda,t,distance,mean_R\n0.2,0.0,1.5,1e-16\n0.2,5.0,0.7,-0.44000000000000006\n",
        summary=dict(SUMMARY, moments_system=[-0.45, 0.4500000000000001]),
    )
    lines, flagged = output_diff.diff_dirs(parent, change)
    assert not flagged
    moves = {tuple(line.split("  ")[:2]): float(line.split("  ")[2]) for line in lines if "  " in line}
    assert set(moves) == {
        ("verify/verify_report.json", "residual[cstar_identity]"),
        ("sweep/sweep.csv", "mean_R"),
        ("fcs/summary.json", "moments_system"),
    }
    assert moves["verify/verify_report.json", "residual[cstar_identity]"] == pytest.approx(3e-15, rel=0.05)
    assert moves["sweep/sweep.csv", "mean_R"] == pytest.approx(1e-16, rel=0.05)
    assert "sweep/verdict.json: identical" in lines and "fcs/measures.csv: identical" in lines


@pytest.mark.parametrize("changed, needle", [
    ({"report": [dict(REPORT[0], tolerance=1e-9), REPORT[1]]}, "1e-09"),
    ({"report": [dict(REPORT[0], **{"pass": False}), REPORT[1]]}, "False"),
    ({"report": REPORT[::-1]}, "mean_identity"),
    ({"report": REPORT[:1]}, "2 -> 1 entries"),
    ({"verdict": [dict(VERDICT[0], **{"pass": False})]}, "pass: True -> False"),
    ({"sweep": SWEEP.replace("mean_R", "mean_S")}, "mean_S"),
    ({"sweep": SWEEP + "0.2,10.0,0.5,-0.4\n"}, "values"),
    ({"measures": MEASURES.replace("0.0,0.55,system", "0.0,0.55,reservoir")}, "which: 'system' -> 'reservoir'"),
    ({"summary": dict(SUMMARY, mean_system=float("nan"))}, "mean_system"),
    ({"report": [dict(REPORT[0], residual=None), REPORT[1]]}, "residual[cstar_identity]: 1e-15 -> None"),
])
def test_changes_that_are_not_moves_are_flagged(tmp_path, capsys, changed, needle):
    parent, change = write_outputs(tmp_path / "a"), write_outputs(tmp_path / "b", **changed)
    assert output_diff.main([str(parent), str(change)]) == 1
    flags = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FLAG ")]
    assert any(needle in line for line in flags), flags


def test_a_missing_file_is_flagged(tmp_path):
    parent, change = write_outputs(tmp_path / "a"), write_outputs(tmp_path / "b")
    (change / "sweep" / "verdict.json").unlink()
    lines, flagged = output_diff.diff_dirs(parent, change)
    assert flagged and "FLAG sweep/verdict.json: only in parent" in lines
