#!/usr/bin/env python3
"""Compare the outputs of two fcslab runs field by field.

    python tools/output_diff.py PARENT_DIR CHANGE_DIR

Both directories hold the outputs of the same commands, at any depth; files
are matched by their path relative to the directory.  The files read are
verify_report.json, sweep.csv, verdict.json, measures.csv, char.csv and
summary.json.  For each file the script prints the largest absolute move of
every numeric field that moved, or that the file is identical.  A field is a
CSV column, a JSON key (list elements are one field), or the residual of one
named verify check.  It flags every change that is not a move of a number: a
missing file or row, a changed header or text field, a changed pass flag,
and a verify check whose name, order or tolerance changed.  The exit status
is 1 if anything is flagged, else 0.  Standard library only.
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

NAMES = ("verify_report.json", "sweep.csv", "verdict.json", "measures.csv", "char.csv", "summary.json")


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _json_leaves(obj, path: str = ""):
    """(field, value) of every leaf of a JSON value, list indices dropped from the field."""
    if isinstance(obj, dict):
        for key, val in obj.items():
            yield from _json_leaves(val, f"{path}.{key}" if path else key)
    elif isinstance(obj, list):
        for val in obj:
            yield from _json_leaves(val, path)
    else:
        yield path, obj


def _csv_cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def read_fields(path: Path) -> tuple[list, list]:
    """(fixed, leaves) of one output file: ``fixed`` must not change at all,
    ``leaves`` are (field, value) pairs in file order."""
    if path.suffix == ".csv":
        with path.open(newline="") as f:
            rows = list(csv.reader(f))
        header = rows[0] if rows else []
        return [tuple(header), len(rows)], [(col, _csv_cell(x)) for row in rows[1:] for col, x in zip(header, row)]
    data = json.loads(path.read_text())
    if path.name == "verify_report.json":
        fixed = [(r["check_name"], r["tolerance"], r["pass"]) for r in data]
        return fixed, [(f"residual[{r['check_name']}]", r["residual"]) for r in data]
    return [], list(_json_leaves(data))


def compare(parent: Path, change: Path) -> tuple[dict, list[str]]:
    """({field: largest move}, flags) of one file against its parent version."""
    (fixed_p, leaves_p), (fixed_c, leaves_c) = read_fields(parent), read_fields(change)
    flags = []
    if fixed_p != fixed_c:
        if len(fixed_p) != len(fixed_c):
            flags.append(f"{len(fixed_p)} -> {len(fixed_c)} entries")
        flags += [f"{a} -> {b}" for a, b in zip(fixed_p, fixed_c) if a != b]
    if len(leaves_p) != len(leaves_c):
        flags.append(f"{len(leaves_p)} -> {len(leaves_c)} values")
    moves = {}
    for (field, a), (field_c, b) in zip(leaves_p, leaves_c):
        if field != field_c:
            flags.append(f"field {field} -> {field_c}")
        elif _is_number(a) and _is_number(b) and (a == a) == (b == b):  # NaN on one side only is flagged
            moves[field] = max(moves.get(field, 0.0), 0.0 if a == b or a != a else abs(a - b))
        elif a != b:
            flags.append(f"{field}: {a!r} -> {b!r}")
    return moves, flags


def diff_dirs(parent_dir: Path, change_dir: Path) -> tuple[list[str], bool]:
    """(report lines, whether anything is flagged) for two output directories."""
    found = {p.relative_to(d) for d in (parent_dir, change_dir) for p in d.rglob("*") if p.name in NAMES}
    lines, flagged = [], False
    for rel in sorted(found, key=str):
        parent, change = parent_dir / rel, change_dir / rel
        if not (parent.exists() and change.exists()):
            lines.append(f"FLAG {rel}: only in {'parent' if parent.exists() else 'change'}")
            flagged = True
            continue
        moves, flags = compare(parent, change)
        lines += [f"FLAG {rel}: {msg}" for msg in flags]
        flagged = flagged or bool(flags)
        moved = {k: v for k, v in moves.items() if v}
        if not moved and not flags:
            lines.append(f"{rel}: identical")
        lines += [f"{rel}  {field}  {move:.1e}" for field, move in moved.items()]
    return lines, flagged


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: output_diff.py PARENT_DIR CHANGE_DIR", file=sys.stderr)
        return 2
    lines, flagged = diff_dirs(Path(argv[0]), Path(argv[1]))
    print("\n".join(lines))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
