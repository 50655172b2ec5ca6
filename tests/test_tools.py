"""tools/bench_pairs.py: seed lists, the per-metric pair summary and the
commit checkout."""

import importlib.util
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
