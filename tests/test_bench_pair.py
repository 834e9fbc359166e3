"""tools/bench_pair.py on canned run results: no benchmark is run."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("bench_pair", ROOT / "tools" / "bench_pair.py")
bench_pair = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pair)


def make_tree(path: Path, git: bool = False) -> Path:
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text("")
    (path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    if git:
        (path / ".git").mkdir()
    return path


def canned_run(calls):
    """A run whose peak RSS is 50.6 MB in the parent and 48.0 MB in the
    change, with a seed-dependent wobble, and whose run_s does not move."""

    def run(root, workload, seed, seconds):
        calls.append((root.name, workload, seed, seconds))
        wobble = (seed % 3) * 0.01
        rss = (50.6 if root.name == "parent" else 48.0) + wobble
        run_s = 0.1 + (seed % 5) * 0.01 + (0.001 if root.name == "change" and seed % 2 else 0.0)
        metrics = {"run_s": run_s, "setup_s": 0.2, "peak_rss_mb": rss}
        return {"correct": True, "attempted": 3, "failed": int(root.name == "change" and seed == 7),
                "metrics": {k: {"value": v, "unit": "x"} for k, v in metrics.items()}}

    return run


def test_pairs_alternate_and_metrics_summarize(tmp_path):
    parent, change = make_tree(tmp_path / "parent"), make_tree(tmp_path / "change")
    calls = []
    result = bench_pair.compare(parent, change, "sweep_t_chain8", 10, 5, run=canned_run(calls))
    # both sides of a pair run on its seed, for the benchmark's run_seconds, in the drawn order
    assert [c[2] for c in calls] == [s for s in range(5, 15) for _ in range(2)]
    assert {c[1] for c in calls} == {"sweep_t_chain8"} and {c[3] for c in calls} == {10}
    assert [c[0] for c in calls[::2]] == result["first_side"]
    assert set(result["first_side"]) == {"parent", "change"}
    assert bench_pair.compare(parent, change, "sweep_t_chain8", 10, 5, run=canned_run([]))["first_side"] == result["first_side"]
    rss, run_s, setup = (result["metrics"][m] for m in ("peak_rss_mb", "run_s", "setup_s"))
    assert rss["change_better_in"] == 10 and rss["gain"] and rss["within_bound"] and not rss["unresolved"]
    assert rss["parent_median"] == pytest.approx(50.61) and rss["change_median"] == pytest.approx(48.01)
    assert rss["parent_quartiles"] == pytest.approx([50.6, 50.62])
    assert run_s["change_better_in"] == 0 and not run_s["gain"] and run_s["within_bound"]
    assert setup["change_better_in"] == 0 and not setup["gain"]  # ties count for neither side
    assert rss["sign_test_p"] == 2 / 1024 and setup["sign_test_p"] == 1.0
    assert result["operations"] == {"parent": {"attempted": 30, "failed": 0}, "change": {"attempted": 30, "failed": 1}}


def test_a_gain_needs_nine_pairs_in_ten_and_a_median_gap_past_the_parent_spread():
    summarize = bench_pair.summarize
    parent = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]  # quartiles 1.175 and 1.725
    assert summarize(parent, [x - 0.6 for x in parent], "lower", 0.1)["gain"]
    eight = [x - 0.6 for x in parent[:8]] + [x + 0.1 for x in parent[8:]]
    assert not summarize(parent, eight, "lower", 0.1)["gain"]  # 8 of 10
    assert not summarize(parent, [x - 0.5 for x in parent], "lower", 0.1)["gain"]  # 10 of 10, inside the spread
    assert summarize(parent, [x + 0.6 for x in parent], "higher", 0.1)["gain"]
    worse = summarize(parent, [x * 1.2 for x in parent], "lower", 0.1)
    assert not worse["within_bound"] and summarize(parent, [x * 1.05 for x in parent], "lower", 0.1)["within_bound"]


def test_a_spread_wider_than_the_bound_is_unresolved_unless_every_change_run_is_better():
    summarize = bench_pair.summarize
    parent = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]  # spread 0.55 around a median of 1.45
    same = summarize(parent, parent, "lower", 0.1)
    assert same["unresolved"] and same["within_bound"]  # unchanged median, but the runs cannot tell
    assert not summarize(parent, parent, "lower", 0.5)["unresolved"]  # 0.55 < 0.5 * 1.45
    assert summarize(parent, [x - 0.6 for x in parent], "lower", 0.1)["unresolved"]  # a gain, yet 1.3 > 1.0
    assert not summarize(parent, [x - 1.0 for x in parent], "lower", 0.1)["unresolved"]  # 0.9 < 1.0
    assert not summarize(parent, [x + 1.0 for x in parent], "higher", 0.1)["unresolved"]
    assert summarize(parent, [x + 1.0 for x in parent], "lower", 0.1)["unresolved"]  # every run worse


def test_sign_test_p_values_by_hand():
    p = bench_pair.sign_test_p
    assert p(10, 0) == p(0, 10) == 2 / 1024
    assert p(9, 1) == 22 / 1024  # 2 (C(10,0) + C(10,1)) / 2^10
    assert p(8, 2) == 112 / 1024  # 2 (1 + 10 + 45) / 2^10
    assert p(5, 5) == p(0, 0) == 1.0  # a tail past half is capped; no untied pair proves nothing
    assert p(3, 0) == 2 / 8  # ties dropped: 3 of 10 pairs untied
    parent = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]
    nine = [x - 0.6 for x in parent[:9]] + [parent[9] + 0.1]
    assert bench_pair.summarize(parent, nine, "lower", 0.1)["sign_test_p"] == 22 / 1024


def test_trees_of_different_kinds_are_refused(tmp_path, capsys):
    parent, change = make_tree(tmp_path / "parent", git=True), make_tree(tmp_path / "change")
    with pytest.raises(ValueError, match="parent is a git, change is a copy"):
        bench_pair.compare(parent, change, "sweep_t_chain8", 2, 1, run=canned_run([]))
    assert bench_pair.main([str(parent), str(change), "--workload", "sweep_t_chain8", "--pairs", "2", "--seed0", "1"]) == 2
    assert "different kinds" in capsys.readouterr().err
    with pytest.raises(ValueError, match="no perfbench/run.py"):
        bench_pair.tree_kind(tmp_path)


def test_the_last_line_is_the_result():
    out = "# sweep_t_chain8 run_s: median 0.1 s\n" + json.dumps({"failed": 0, "metrics": {}}) + "\n\n"
    assert bench_pair.last_json(out) == {"failed": 0, "metrics": {}}
    with pytest.raises(ValueError):
        bench_pair.last_json("\n")


def test_out_file_keeps_other_workloads(tmp_path, monkeypatch, capsys):
    parent, change = make_tree(tmp_path / "parent"), make_tree(tmp_path / "change")
    real = bench_pair.compare
    monkeypatch.setattr(bench_pair, "compare", lambda *args: real(*args, run=canned_run([])))
    out = tmp_path / "BENCH.json"
    for workload in ("sweep_t_chain8", "verify_chain6"):
        argv = [str(parent), str(change), "--workload", workload, "--pairs", "3", "--seed0", "2", "--out", str(out)]
        assert bench_pair.main(argv) == 0
    doc = json.loads(out.read_text())
    assert sorted(doc["workloads"]) == ["sweep_t_chain8", "verify_chain6"] and "protocol" in doc
    out = capsys.readouterr().out
    assert "sweep_t_chain8 peak_rss_mb: parent 50.6" in out and "(sign test p = 0.25)" in out
    assert all("unresolved" in m for m in doc["workloads"]["verify_chain6"]["metrics"].values())
    assert "within bound yes, unresolved no" in out


@pytest.mark.parametrize("text", ["{not json", "[1, 2]"])
def test_a_malformed_out_file_is_refused_before_the_first_pair(tmp_path, monkeypatch, capsys, text):
    parent, change = make_tree(tmp_path / "parent"), make_tree(tmp_path / "change")
    calls = []
    real = bench_pair.compare
    monkeypatch.setattr(bench_pair, "compare", lambda *args: real(*args, run=canned_run(calls)))
    out = tmp_path / "BENCH.json"
    out.write_text(text)
    argv = [str(parent), str(change), "--workload", "sweep_t_chain8", "--pairs", "3", "--seed0", "2", "--out", str(out)]
    assert bench_pair.main(argv) == 2
    assert calls == []
    assert capsys.readouterr().err.startswith(f"error: {out}: ")
    assert out.read_text() == text
