"""The summary of tools/ab.py's paired runs, on a made-up pair list."""
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "ab", Path(__file__).resolve().parent.parent / "tools" / "ab.py"
)
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


@pytest.mark.parametrize("argv", [["--pairs", "9"], ["--pairs", "0", "--null"]])
def test_too_few_pairs_are_refused(argv, capsys):
    with pytest.raises(SystemExit) as exit_:
        ab.main(["--base", "HEAD", *argv])
    assert exit_.value.code == 2
    assert "need --pairs >= 10" in capsys.readouterr().err
