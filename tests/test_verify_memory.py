"""tools/verify_memory.py on the smallest shipped config."""

import importlib.util
from pathlib import Path

from fcslab.checks import CHECKS

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("verify_memory", ROOT / "tools" / "verify_memory.py")
verify_memory = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(verify_memory)


def test_every_check_gets_a_row_sorted_by_peak(capsys):
    assert verify_memory.main([str(ROOT / "configs" / "qubit_qubit.json"), "--seed", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split() for line in lines[2:-1]]
    assert sorted(row[0] for row in rows) == sorted(CHECKS)
    peaks = [float(row[1]) for row in rows]
    assert peaks == sorted(peaks, reverse=True)
    assert lines[0].startswith("d = 4;") and lines[-1].startswith("run peak")


def test_top_keeps_the_largest_peaks(capsys):
    verify_memory.main([str(ROOT / "configs" / "qubit_qubit.json"), "--top", "3"])
    assert len(capsys.readouterr().out.splitlines()) == 2 + 3 + 1
