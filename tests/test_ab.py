"""The summary of tools/ab.py's paired runs, on a made-up pair list, and
the record it writes, with the benchmark runs and tier 1 stubbed."""
import ast
import importlib.util
import json
import signal
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


def _pair(throughput, p50, base_throughput=100.0, base_p50=2.0):
    return {
        "base": {"throughput": base_throughput, "call_p50_ms": base_p50},
        "change": {"throughput": throughput, "call_p50_ms": p50},
    }


def test_summary_medians_and_wins():
    pairs = [_pair(110.0, 1.8), _pair(95.0, 2.1), _pair(120.0, 2.0), _pair(130.0, 1.5, 140.0)]
    summary = ab.summarize(pairs)
    assert set(summary) == {"throughput", "call_p50_ms"}
    tp = summary["throughput"]
    assert tp["better"] == "higher" and tp["pairs"] == 4
    assert tp["base_median"] == 100.0 and tp["change_median"] == 115.0
    assert tp["ratio"] == pytest.approx(1.15)
    assert tp["change_wins"] == 2  # 110 > 100 and 120 > 100; 95 and 130 < 140 lose
    assert tp["base_iqr"] == 10.0  # quartiles 100 and 110 of 100, 100, 100, 140
    assert tp["change_iqr"] == 16.25  # quartiles 106.25 and 122.5 of 95, 110, 120, 130
    p50 = summary["call_p50_ms"]
    assert p50["better"] == "lower"
    assert p50["base_median"] == 2.0 and p50["change_median"] == pytest.approx(1.9)
    assert p50["change_wins"] == 2  # 1.8 and 1.5; the tie at 2.0 wins for neither side


def test_sign_test_p_values():
    assert ab.sign_test_p(10, 0) == ab.sign_test_p(0, 10) == 2 / 1024
    assert ab.sign_test_p(5, 5) == 1.0
    assert ab.sign_test_p(9, 1) == 2 * 11 / 1024
    assert ab.sign_test_p(0, 0) == 1.0


def test_summary_sign_test_drops_ties():
    better = [_pair(110.0 + i, 1.0) for i in range(10)]
    assert ab.summarize(better)["throughput"]["sign_p"] == 2 / 1024
    # 5 wins, 5 losses: no evidence either way.
    even = [_pair(110.0, 1.0)] * 5 + [_pair(90.0, 3.0)] * 5
    assert ab.summarize(even)["throughput"]["sign_p"] == 1.0
    # The tie on call_p50_ms is dropped: 4 wins of 4 untied pairs.
    tied = [_pair(100.0, 1.5)] * 4 + [_pair(100.0, 2.0)]
    summary = ab.summarize(tied)
    assert summary["call_p50_ms"]["sign_p"] == 2 / 16
    assert summary["throughput"]["sign_p"] == 1.0  # every pair tied


def test_summary_skips_metrics_a_side_lacks():
    pairs = [{"base": {"throughput": 1.0}, "change": {}}]
    assert ab.summarize(pairs) == {}


def test_directions_and_run_length_come_from_the_benchmark():
    assert ab.BETTER["throughput"] == "higher"
    assert all(ab.BETTER[name] == "lower" for name in ab.BETTER if name != "throughput")
    assert ab.WORKLOAD_NAMES == ("mc", "exact-sweep", "cli-mix")
    assert ab.SECONDS == ab.BENCH["run_seconds"]


def test_workload_names_are_the_benchmarks_own():
    run = sys.modules["run"]
    assert Path(run.__file__) == ROOT / "perfbench" / "run.py"
    assert ab.WORKLOAD_NAMES is run.WORKLOAD_NAMES
    # ab.py is the one record tool and imports nothing but the stdlib and run.
    assert [p.name for p in (ROOT / "tools").glob("*.py")] == ["ab.py"]
    nodes = list(ast.walk(ast.parse((ROOT / "tools" / "ab.py").read_text(encoding="utf-8"))))
    imported = {a.name for n in nodes if isinstance(n, ast.Import) for a in n.names}
    imported |= {n.module for n in nodes if isinstance(n, ast.ImportFrom)}
    assert {m.split(".")[0] for m in imported} - sys.stdlib_module_names == {"run"}


def _tier1_printing(monkeypatch, code):
    monkeypatch.setattr(ab, "TIER1", [
        sys.executable, "-c", f"import sys; print('collected'); print('1 passed'); sys.exit({code})"
    ])


@pytest.mark.parametrize("code", [0, 3])
def test_tier1_records_wall_time_exit_code_and_summary(monkeypatch, tmp_path, code):
    _tier1_printing(monkeypatch, code)
    tier1 = ab.run_tier1(tmp_path)
    assert tier1["exit_code"] == code and tier1["summary"] == "1 passed"
    assert tier1["wall_s"] > 0


@pytest.mark.parametrize("code", [0, 1])
def test_record_holds_host_and_tier1_and_a_failing_tier1_fails_the_run(
    monkeypatch, tmp_path, code
):
    def export(rev, dest):
        dest.mkdir(parents=True)
        return dest

    def run_once(tree, workload, seed):
        return {"ok": True, "failed": 0, "metrics": {"throughput": {"value": 5.0}},
                "minflt": 100 * seed + len(tree.name)}

    monkeypatch.setattr(ab, "rev_parse", lambda rev: "ab" * 20)
    monkeypatch.setattr(ab, "export", export)
    monkeypatch.setattr(ab, "run_once", run_once)
    monkeypatch.setattr(signal, "signal", lambda *args: None)
    _tier1_printing(monkeypatch, code)
    out = tmp_path / "ab.json"
    argv = ["--base", "HEAD", "--null", "--pairs", "2", "--workload", "mc", "--out", str(out)]
    assert ab.main(argv) == (1 if code else 0)
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["tier1"]["exit_code"] == code and doc["tier1"]["summary"] == "1 passed"
    assert set(doc["host"]) == {"python", "numpy", "nproc"}
    assert doc["base"] == doc["change"] == "ab" * 20
    summary = doc["workloads"]["mc"]["summary"]["throughput"]
    assert summary["change_wins"] == 0 and summary["base_iqr"] == summary["change_iqr"] == 0
    # Each side's faults per pair, and their medians: base 104 and 204, null 104 and 204.
    pairs = doc["workloads"]["mc"]["pairs"]
    assert [p["minflt"] for p in pairs] == [{"base": 104, "change": 104},
                                            {"base": 204, "change": 204}]
    assert doc["workloads"]["mc"]["minflt"] == {"base_median": 154, "change_median": 154}


def test_run_once_records_the_page_faults_of_its_run(monkeypatch, tmp_path):
    """The run's own minor faults, from a real child that prints a result line."""
    line = json.dumps({"correct": True, "failed": 0, "metrics": {}})
    child = f"b = bytearray(1 << 22); b[::4096] = b'x' * 1024; print({line!r})"
    run = subprocess.run

    def stub(argv, **kwargs):
        assert argv[1:3] == ["perfbench/run.py", "--workload"]
        return run([sys.executable, "-c", child], **kwargs)

    monkeypatch.setattr(ab.subprocess, "run", stub)
    result = ab.run_once(tmp_path, "mc", 1)
    assert result["ok"] and type(result["minflt"]) is int and result["minflt"] > 0


@pytest.mark.parametrize("null", [False, True])
def test_both_sides_run_from_sibling_exports_of_one_path_length(monkeypatch, tmp_path, null):
    """Neither side runs from the checkout, so its location is no part of a pair."""
    exported, ran = {}, set()

    def export(rev, dest):
        dest.mkdir(parents=True)
        exported[dest] = rev
        return dest

    def run_once(tree, workload, seed):
        ran.add(tree)
        return {"ok": True, "failed": 0, "metrics": {"throughput": {"value": 5.0}}, "minflt": 0}

    monkeypatch.setattr(ab, "rev_parse", lambda rev: "ab" * 20)
    monkeypatch.setattr(ab, "snapshot", lambda: "cd" * 20)
    monkeypatch.setattr(ab, "tree_clean", lambda: False)
    monkeypatch.setattr(ab, "export", export)
    monkeypatch.setattr(ab, "run_once", run_once)
    monkeypatch.setattr(signal, "signal", lambda *args: None)
    _tier1_printing(monkeypatch, 0)
    argv = ["--base", "HEAD", "--workload", "mc", "--out", str(tmp_path / "ab.json")]
    assert ab.main(argv + ["--null"] * null) == 0
    base, change = exported
    assert ran == {base, change} and ab.ROOT not in ran
    assert base.parent == change.parent and len(base.name) == len(change.name)
    assert (base.name, change.name) == ("base", "null" if null else "chge")
    assert exported[change] == ("ab" if null else "cd") * 20


@pytest.mark.parametrize("argv", [["--pairs", "9"], ["--pairs", "0", "--null"]])
def test_too_few_pairs_are_refused(argv, capsys):
    with pytest.raises(SystemExit) as exit_:
        ab.main(["--base", "HEAD", *argv])
    assert exit_.value.code == 2
    assert "need --pairs >= 10" in capsys.readouterr().err
