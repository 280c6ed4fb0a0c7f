"""Smoke test of `tools/bench_pairs.py`'s summary on canned result lines; no
benchmark runs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def _run(side, seed, items_per_s, op_ms, exit_status=0, workload="flowocc-annotate"):
    metrics = {"items_per_s": {"value": items_per_s, "unit": "1/s"},
               "op_ms_p50": {"value": op_ms, "unit": "ms"},
               "peak_rss_mb": {"value": 41.0, "unit": "MB"},
               "setup_s": {"value": 0.2, "unit": "s"}}
    line = json.dumps({"correct": exit_status == 0, "attempted": 10, "failed": 0,
                       "metrics": metrics})
    return {"workload": workload, "seed": seed, "side": side, "exit": exit_status,
            "line": line, "wall_s": 21.0}


def _canned():
    parent = [(40.0, 25.0), (50.0, 20.0), (44.0, 22.0), (46.0, 21.0)]
    change = [(70.0, 14.0), (76.0, 13.0), (49.0, 20.5), (80.0, 12.0)]
    runs = []
    for seed, (p, c) in enumerate(zip(parent, change), start=101):
        runs += [_run("parent", seed, *p), _run("change", seed, *c)]
    return runs


def test_seed_ranges():
    assert bench_pairs.parse_seeds("2401-2404") == [2401, 2402, 2403, 2404]
    assert bench_pairs.parse_seeds("7") == [7]
    with pytest.raises(ValueError):
        bench_pairs.parse_seeds("9-3")


def test_summary_of_canned_runs():
    summary = bench_pairs.summarize(_canned(), METRICS)["flowocc-annotate"]
    assert summary["pairs"] == 4 and summary["seeds"] == [101, 102, 103, 104]
    assert summary["exit_status"] == {"parent": [0, 0, 0, 0], "change": [0, 0, 0, 0]}
    assert summary["all_correct"] and summary["attempted"] == {"parent": 40, "change": 40}
    items = summary["metrics"]["items_per_s"]
    # inclusive quartiles of 40, 44, 46, 50 and of 49, 70, 76, 80
    assert items["parent"] == {"q1": 43.0, "median": 45.0, "q3": 47.0}
    assert items["change"] == {"q1": 64.75, "median": 73.0, "q3": 77.0}
    assert items["change_wins"] == "4/4"
    assert items["parent_iqr_over_median"] == pytest.approx(4.0 / 45.0)
    assert items["median_difference_over_parent_iqr"] == pytest.approx(28.0 / 4.0)
    # lower is better: the change won every pair
    assert summary["metrics"]["op_ms_p50"]["change_wins"] == "4/4"
    # equal values are no win
    assert summary["metrics"]["peak_rss_mb"]["change_wins"] == "0/4"


def test_claim_needs_nine_wins_in_ten_and_a_gap_beyond_the_spread():
    summary = bench_pairs.summarize(_canned(), METRICS)
    met = bench_pairs.claim(summary, "flowocc-annotate", "items_per_s")
    assert met["met"] and met["median_difference"] == 28.0
    assert met["parent_quartile_spread"] == 4.0
    assert not bench_pairs.claim(summary, "flowocc-annotate", "setup_s")["met"]
    runs = _canned()
    runs[5] = _run("change", 103, 44.0, 23.0)      # a lost pair: 3 of 4 is under 9 in 10
    lost = bench_pairs.summarize(runs, METRICS)
    assert not bench_pairs.claim(lost, "flowocc-annotate", "items_per_s")["met"]


def test_a_failed_run_is_listed_and_leaves_its_pair_out():
    runs = _canned()
    runs[3] = {**runs[3], "exit": 1, "line": None}
    summary = bench_pairs.summarize(runs, METRICS)["flowocc-annotate"]
    assert summary["exit_status"]["change"] == [0, 1, 0, 0]
    assert not summary["all_correct"]
    assert summary["metrics"]["items_per_s"]["change_wins"] == "3/3"


def test_traced_table_pairs_the_sides():
    runs = [_run("change", 4, 70.0, 14.0), _run("parent", 4, 40.0, 25.0)]
    table = bench_pairs.traced_table(runs)
    assert table["items_per_s"] == {"flowocc-annotate": [40.0, 70.0]}


def _pairs_of(parent, change):
    runs = []
    for seed, (p, c) in enumerate(zip(parent, change), start=201):
        runs += [_run("parent", seed, p, 20.0), _run("change", seed, c, 20.0)]
    return bench_pairs.summarize(runs, METRICS)["flowocc-annotate"]["metrics"]


def test_no_regression_verdicts():
    # the parent's items_per_s: median 45, quartile spread 4, bound 0.25 * 45
    parent = [40.0, 50.0, 44.0, 46.0]
    assert _pairs_of(parent, [70.0, 76.0, 49.0, 80.0])["items_per_s"]["no_regression"] == "held"
    # a median 12% lower stays within the bound
    assert _pairs_of(parent, [38.0, 41.0, 40.0, 39.0])["items_per_s"]["no_regression"] == "held"
    # median 31.5 is more than 11.25 below 45
    assert _pairs_of(parent, [30.0, 32.0, 31.0, 33.0])["items_per_s"]["no_regression"] == "worse"
    # equal runs hold
    canned = _pairs_of(parent, parent)
    assert canned["op_ms_p50"]["no_regression"] == "held"
    assert canned["peak_rss_mb"]["no_regression"] == "held"
    # a wide parent: median 55, quartile spread 22.5 beyond the bound 13.75
    wide = [20.0, 50.0, 80.0, 60.0]
    assert _pairs_of(wide, [50.0, 52.0, 54.0, 56.0])["items_per_s"]["no_regression"] \
        == "unresolved"
    # ... unless every change run beats every parent run
    assert _pairs_of(wide, [90.0, 95.0, 100.0, 85.0])["items_per_s"]["no_regression"] == "held"
    # a worse median is worse however wide the parent
    assert _pairs_of(wide, [20.0, 30.0, 35.0, 40.0])["items_per_s"]["no_regression"] == "worse"


def test_no_regression_for_lower_is_better():
    spec = {"name": "op_ms_p50", "better": "lower", "bound": 0.25}
    assert bench_pairs.verdict(spec, [(20.0, 26.0), (20.0, 26.0), (20.0, 26.0)]) == "worse"
    assert bench_pairs.verdict(spec, [(20.0, 24.0), (20.0, 24.0), (20.0, 24.0)]) == "held"
