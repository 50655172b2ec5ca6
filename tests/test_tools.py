"""tools/bench_pairs.py: seed lists, the per-metric pair summary and
verdicts, the commit checkout and the file it writes."""

import importlib.util
import json
import subprocess
import tarfile
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _pair(parent, change):
    def line(p50, rate):
        return {"metrics": {"op_ms_p50": {"value": p50, "unit": "ms"},
                            "ops_per_s": {"value": rate, "unit": "1/s"}}}

    return {"parent": line(*parent), "change": line(*change)}


def test_seed_list_reads_ranges_and_single_seeds():
    assert bench_pairs.seed_list("61-64") == [61, 62, 63, 64]
    assert bench_pairs.seed_list("7,9-10,3") == [7, 9, 10, 3]


def test_summary_counts_better_pairs_by_direction_and_ties_for_neither():
    """Lower is better for a time and higher for a rate; a tie counts for
    neither side. Quartiles are numpy's default (linear) percentiles."""
    pairs = [_pair((5.0, 200.0), (4.0, 250.0)), _pair((6.0, 150.0), (6.0, 150.0)),
             _pair((5.5, 180.0), (5.8, 170.0)), _pair((5.2, 190.0), (4.9, 205.0))]
    metrics = [{"name": "op_ms_p50", "better": "lower"}, {"name": "ops_per_s", "better": "higher"}]
    p50, rate = bench_pairs.summary(pairs, metrics)
    assert p50["metric"] == "op_ms_p50" and p50["pairs"] == 4
    assert p50["change_better_pairs"] == 2 and rate["change_better_pairs"] == 2
    assert p50["parent_q1_median_q3"] == [5.15, 5.35, 5.625]
    assert rate["change_q1_median_q3"] == [165.0, 187.5, 216.25]
    assert not p50["change_beat_every_parent_run"] and not rate["change_beat_every_parent_run"]


def test_summary_tells_whether_every_change_run_beat_every_parent_run():
    pairs = [_pair((5.0, 200.0), (4.0, 201.0)), _pair((6.0, 150.0), (4.9, 199.0))]
    metrics = [{"name": "op_ms_p50", "better": "lower"}, {"name": "ops_per_s", "better": "higher"}]
    p50, rate = bench_pairs.summary(pairs, metrics)
    assert p50["change_beat_every_parent_run"] and not rate["change_beat_every_parent_run"]


def _row(parent, change, better, pairs=10, apart=False):
    return {"pairs": pairs, "parent_q1_median_q3": parent, "change_q1_median_q3": change,
            "change_better_pairs": better, "change_beat_every_parent_run": apart}


@pytest.mark.parametrize("row, lower, want", [
    (_row([60.0, 61.0, 62.0], [57.0, 58.0, 59.0], 9), True, "gain shown"),
    (_row([60.0, 61.0, 62.0], [57.0, 58.0, 59.0], 8), True, "not shown"),  # 8/10 pairs
    (_row([60.0, 61.0, 62.0], [58.0, 59.0, 60.0], 10), True, "not shown"),  # 2.0 is no more than Q3 - Q1
    (_row([60.0, 61.0, 62.0], [57.0, 58.0, 59.0], 9, pairs=9), True, "not shown"),  # fewer than ten pairs
    (_row([90.0, 100.0, 105.0], [110.0, 120.0, 130.0], 18, pairs=20), False, "gain shown"),
    (_row([90.0, 100.0, 105.0], [60.0, 80.0, 90.0], 18, pairs=20), False, "not shown"),  # median moved the wrong way
    (_row([90.0, 100.0, 105.0], [60.0, 80.0, 90.0], 18, pairs=20), True, "gain shown"),
])
def test_verdict_needs_nine_tenths_of_ten_pairs_and_a_median_gap_beyond_the_parent_spread(row, lower, want):
    assert bench_pairs.verdict(row, lower) == want


@pytest.mark.parametrize("row, lower, want", [
    (_row([60.0, 61.0, 62.0], [60.0, 62.0, 64.0], 3), True, "held"),
    (_row([79.0, 80.0, 81.0], [99.0, 100.0, 101.0], 0), True, "held"),  # worse by the bound, no more
    (_row([60.0, 61.0, 62.0], [75.0, 80.0, 85.0], 0), True, "worse"),  # 19 > 0.25 * 61
    (_row([40.0, 61.0, 90.0], [57.0, 58.0, 59.0], 7), True, "unresolved"),  # Q3 - Q1 > 0.25 * 61
    (_row([40.0, 61.0, 90.0], [57.0, 58.0, 59.0], 10, apart=True), True, "held"),
    (_row([40.0, 61.0, 90.0], [80.0, 99.0, 120.0], 0), True, "unresolved"),
    (_row([100.0, 110.0, 120.0], [95.0, 100.0, 105.0], 2), False, "held"),
    (_row([100.0, 110.0, 120.0], [70.0, 80.0, 90.0], 0), False, "worse"),  # 30 > 0.25 * 110
])
def test_held_is_no_worse_than_the_bound_or_unresolved_when_the_parent_spread_exceeds_it(row, lower, want):
    assert bench_pairs.held(row, lower, 0.25) == want


def test_main_prints_every_metric_per_pair_and_a_verdict_per_metric(tmp_path, monkeypatch, capsys):
    """Each pair's line shows every end-to-end metric, parent -> change,
    and the summary ends with the two verdicts per metric. Git, the checkout
    and the runs are stand-ins: nothing is run outside tmp_path."""
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "op_ms_p50", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]}))

    def run_once(tree, workload, seed, seconds):
        rss = 60.0 + seed / 100 if tree.name == "change" else 77.0 + seed / 100
        return {"metrics": {"op_ms_p50": {"value": 11.5, "unit": "ms"},
                            "peak_rss_mb": {"value": rss, "unit": "MB"}}}, False

    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "git", lambda *args: args[-1].split("^")[0].encode())
    monkeypatch.setattr(bench_pairs, "checkout", lambda sha, into: into)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    bench_pairs.main(["pairs", "--parent", "aaa", "--change", "bbb", "--workload", "pipeline",
                      "--seeds", "1-10"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("pipeline seed 1 (parent -> change): op_ms_p50 11.500 -> 11.500, "
                        "peak_rss_mb 77.010 -> 60.010")
    assert lines[-2:] == ["op_ms_p50    not shown, held", "peak_rss_mb  gain shown, held"]


@pytest.mark.skipif(not (bench_pairs.ROOT / ".git").exists(), reason="needs the git repository")
@pytest.mark.parametrize("filtered", [True, False], ids=["data_filter", "no_data_filter"])
@pytest.mark.filterwarnings("ignore:Python 3.14 will:DeprecationWarning")
def test_checkout_unpacks_the_committed_files(tmp_path, monkeypatch, filtered):
    """checkout unpacks a commit's files with tarfile's data filter, or with
    a plain extraction on a Python that lacks it (before 3.10.12 / 3.11.4).
    Python 3.12 and 3.13 warn on an unfiltered extraction, which only the
    forced fallback here makes."""
    if not filtered:
        monkeypatch.delattr(tarfile, "data_filter", raising=False)
    tree = bench_pairs.checkout("HEAD", tmp_path / "head")
    want = subprocess.run(["git", "show", "HEAD:tools/bench_pairs.py"], cwd=bench_pairs.ROOT,
                          check=True, capture_output=True).stdout
    assert (tree / "tools" / "bench_pairs.py").read_bytes() == want


def test_each_workload_records_its_own_seconds(tmp_path, monkeypatch):
    """Two workloads added to one file at different --seconds each keep
    their own; the shared description names no number. It used to keep the
    first run's --seconds, which misdescribed a workload added later. Git,
    the checkout and the runs are stand-ins: nothing is run or written
    outside tmp_path."""
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "op_ms_p50", "better": "lower", "bound": 0.25}]}))
    runs = []

    def run_once(tree, workload, seed, seconds):
        runs.append((tree.name, workload, seed, seconds))
        return {"metrics": {"op_ms_p50": {"value": float(seed), "unit": "ms"}}}, False

    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "git", lambda *args: args[-1].split("^")[0].encode())
    monkeypatch.setattr(bench_pairs, "checkout", lambda sha, into: into)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    common = ["pairs", "--parent", "aaa", "--change", "bbb"]
    bench_pairs.main([*common, "--workload", "backend", "--seeds", "1-2", "--seconds", "10"])
    bench_pairs.main([*common, "--workload", "pipeline", "--seeds", "3", "--seconds", "2.5"])

    doc = json.loads((tmp_path / "BENCH_pairs.json").read_text())
    assert (doc["parent_sha"], doc["change_sha"]) == ("aaa", "bbb")
    assert {w: doc["workloads"][w]["seconds"] for w in doc["workloads"]} == {"backend": 10.0, "pipeline": 2.5}
    assert "--seconds N" in doc["what"] and "10" not in doc["what"]
    assert runs == [("parent", "backend", 1, 10.0), ("change", "backend", 1, 10.0),
                    ("change", "backend", 2, 10.0), ("parent", "backend", 2, 10.0),
                    ("parent", "pipeline", 3, 2.5), ("change", "pipeline", 3, 2.5)]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["BENCHMARK.json", "BENCH_pairs.json"]
