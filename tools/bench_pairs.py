"""Run the benchmark on two trees in alternating pairs and summarize the runs.

    python3 tools/bench_pairs.py --parent <tree> --workload W [--workload W ...]
        --seeds A-B --out BENCH_<n>.json [--change <tree>] [--traced-seed N]
        [--ab-layer L ...] [--claim W:METRIC]

`<tree>` is another checkout of the repository, typically the parent commit
(made with `git archive`); `--change` defaults to this checkout. Each tree
runs its own, unchanged `perfbench/run.py`. One pair is one seed of one
workload run on both trees; the side that runs first alternates from pair to
pair (the parent first on even pairs), and the pairs of the workloads are
interleaved seed by seed. Every run lasts `BENCHMARK.json`'s `run_seconds`.

The output file holds, per workload and per end-to-end metric of
`BENCHMARK.json`, both sides' quartiles and medians, the change's median over
the parent's, the parent's quartile spread over its median, the median
difference over that spread, how many pairs the change won and the
`no_regression` verdict (see `verdict`), also gathered in one table; every
run's exit status and result line; and `src_lines` of both trees.
`--traced-seed` adds one traced run per workload and side (`traced_seed_<N>`: per metric and
workload, the parent's and the change's value), `--ab-layer` the summary of
`tools/ab.py` for each layer named (AB_PAIRS pairs), and `--claim` whether the named metric's
gain is resolved: the change wins at least 9 pairs in 10 and the median
difference exceeds the parent's quartile spread. Keys of an existing output
file that this script does not write are kept.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
WIN_SHARE = 0.9     # a claimed gain wins at least this share of its pairs
AB_PAIRS = 30


def parse_seeds(text: str) -> list:
    """The seeds of an inclusive range "A-B", or of a single seed "A"."""
    lo, _, hi = text.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise ValueError(f"empty seed range {text!r}")
    return seeds


def result_of(run: dict) -> dict | None:
    """The parsed result line of a run, or None when it printed none."""
    try:
        return json.loads(run["line"])
    except (TypeError, ValueError):
        return None


def quartiles(values: list) -> dict:
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def verdict(spec: dict, pairs: list) -> str:
    """Whether the change held a metric within its `bound` (a share of the
    parent's median, from BENCHMARK.json's `end_to_end` entry `spec`), over
    (parent, change) value pairs: "worse" when the change's median is worse
    than the parent's by more than the bound; "unresolved" when the parent's
    quartile spread exceeds the bound, unless every change run beats every
    parent run; "held" otherwise."""
    parent = quartiles([p for p, _ in pairs])
    change = quartiles([c for _, c in pairs])
    sign = 1.0 if spec["better"] == "higher" else -1.0
    bound = spec["bound"] * abs(parent["median"])
    if sign * (change["median"] - parent["median"]) < -bound:
        return "worse"
    if (parent["q3"] - parent["q1"] > bound
            and not all(sign * (c - p) > 0 for _, c in pairs for p, _ in pairs)):
        return "unresolved"
    return "held"


def summarize(runs: list, metrics: list) -> dict:
    """Per workload: exit statuses, failure counts and, per metric of
    `metrics` (BENCHMARK.json's `end_to_end` entries), both sides' quartiles
    and the comparison. A pair counts only when both sides gave the metric."""
    out = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        mine = [run for run in runs if run["workload"] == workload]
        seeds = list(dict.fromkeys(run["seed"] for run in mine))
        by_side = {side: {run["seed"]: run for run in mine if run["side"] == side}
                   for side in SIDES}
        results = {side: {seed: result_of(run) for seed, run in by_side[side].items()}
                   for side in SIDES}
        summary = {
            "pairs": len(seeds),
            "seeds": seeds,
            "exit_status": {side: [by_side[side][s]["exit"] for s in seeds if s in by_side[side]]
                            for side in SIDES},
            "all_correct": all(r is not None and r.get("correct") is True
                               for side in SIDES for r in results[side].values()),
            "failed": {side: sum(r.get("failed", 0) for r in results[side].values() if r)
                       for side in SIDES},
            "attempted": {side: sum(r.get("attempted", 0) for r in results[side].values() if r)
                          for side in SIDES},
            "metrics": {},
        }
        for spec in metrics:
            name = spec["name"]
            pairs = [(results["parent"][s]["metrics"][name]["value"],
                      results["change"][s]["metrics"][name]["value"])
                     for s in seeds
                     if all(name in ((results[side].get(s) or {}).get("metrics") or {})
                            for side in SIDES)]
            if not pairs:
                continue
            parent = quartiles([p for p, _ in pairs])
            change = quartiles([c for _, c in pairs])
            iqr = parent["q3"] - parent["q1"]
            sign = 1.0 if spec["better"] == "higher" else -1.0
            wins = sum(sign * (c - p) > 0 for p, c in pairs)
            diff = abs(change["median"] - parent["median"])
            summary["metrics"][name] = {
                "unit": spec["unit"], "better": spec["better"],
                "parent": parent, "change": change,
                "change_over_parent_median": change["median"] / parent["median"]
                if parent["median"] else None,
                "parent_iqr_over_median": iqr / parent["median"] if parent["median"] else None,
                "median_difference_over_parent_iqr": diff / iqr if iqr else None,
                "change_wins": f"{wins}/{len(pairs)}",
                "no_regression": verdict(spec, pairs),
            }
        out[workload] = summary
    return out


def claim(summary: dict, workload: str, metric: str) -> dict:
    """Whether the change's gain on `metric` of `workload` is resolved."""
    entry = summary[workload]["metrics"][metric]
    parent, change = entry["parent"]["median"], entry["change"]["median"]
    wins, pairs = map(int, entry["change_wins"].split("/"))
    spread = entry["parent"]["q3"] - entry["parent"]["q1"]
    better = (change - parent) * (1.0 if entry["better"] == "higher" else -1.0)
    return {"workload": workload, "metric": metric, "parent_median": parent,
            "change_median": change, "change_wins": entry["change_wins"],
            "median_difference": abs(change - parent), "parent_quartile_spread": spread,
            "met": better > spread and wins >= WIN_SHARE * pairs}


def traced_table(runs: list) -> dict:
    """{metric: {workload: [parent value, change value]}} of the traced runs."""
    table = {}
    for run in runs:
        result = result_of(run)
        for name, value in ((result or {}).get("metrics") or {}).items():
            row = table.setdefault(name, {}).setdefault(run["workload"], [None, None])
            row[SIDES.index(run["side"])] = value["value"]
    return table


def src_lines(tree: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in (tree / "src").rglob("*.py"))


def bench_run(tree: Path, side: str, workload: str, seed: int, seconds: float,
              trace: int) -> dict:
    """One run of the tree's own perfbench/run.py, as a run record."""
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    record = {"workload": workload, "seed": seed, "side": side, "exit": done.returncode,
              "line": lines[-1] if lines else None,
              "wall_s": round(time.perf_counter() - t0, 1)}
    print(json.dumps({k: v for k, v in record.items() if k != "line"}), file=sys.stderr)
    return record


def ab_summary(change: Path, parent: Path, layer: str) -> dict:
    """The JSON summary line of tools/ab.py for one layer."""
    done = subprocess.run([sys.executable, str(change / "tools" / "ab.py"), "--parent",
                           str(parent), "--layer", layer, "--pairs", str(AB_PAIRS)],
                          capture_output=True, text=True,
                          env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
    lines = done.stdout.strip().splitlines()
    summary = json.loads(lines[-1]) if lines else {"layer": layer}
    summary["exit"] = done.returncode
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", type=Path, default=ROOT)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", required=True, help="inclusive range A-B")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--traced-seed", type=int, default=None)
    parser.add_argument("--ab-layer", action="append", default=[])
    parser.add_argument("--claim", default=None, help="WORKLOAD:METRIC")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        if not (tree / "perfbench" / "run.py").is_file():
            parser.error(f"{tree} has no perfbench/run.py")
    try:
        seeds = parse_seeds(args.seeds)
    except ValueError as exc:
        parser.error(str(exc))
    bench = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]

    runs = []
    for i, seed in enumerate(seeds):
        for workload in args.workload:
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                runs.append(bench_run(trees[side], side, workload, seed, seconds, 0))
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.update({
        "command": f"python3 perfbench/run.py --workload W --seed N --seconds {seconds:g} "
                   "--trace 0",
        "protocol": f"{len(seeds)} parent/change pairs per workload, one seed per pair "
                    f"({args.seeds}), the side that runs first alternating (parent first on "
                    "even pairs); pairs of the workloads interleaved seed by seed. Each side "
                    "runs its own tree's perfbench/run.py. Quartiles are "
                    "statistics.quantiles(n=4, method='inclusive') over a side's runs.",
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version()},
        "src_lines": {side: src_lines(tree) for side, tree in trees.items()},
        "summary": summarize(runs, bench["end_to_end"]),
        "runs": runs,
    })
    doc["no_regression"] = {w: {m: e["no_regression"] for m, e in s["metrics"].items()}
                            for w, s in doc["summary"].items()}
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        doc["claim"] = claim(doc["summary"], workload, metric)
    if args.traced_seed is not None:
        traced = []
        for i, workload in enumerate(args.workload):
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                traced.append(bench_run(trees[side], side, workload, args.traced_seed,
                                        seconds, 1))
        doc[f"traced_seed_{args.traced_seed}"] = traced_table(traced)
        doc["traced_runs"] = traced
    if args.ab_layer:
        doc["layers"] = {layer: ab_summary(trees["change"], trees["parent"], layer)
                         for layer in args.ab_layer}
        doc["layers_protocol"] = (f"OPENBLAS_NUM_THREADS=1 python3 tools/ab.py --parent "
                                  f"<parent> --layer L --pairs {AB_PAIRS}")
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps({"summary": {w: {m: e["change_wins"] for m, e in s["metrics"].items()}
                                  for w, s in doc["summary"].items()},
                      "no_regression": doc["no_regression"], "claim": doc.get("claim")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
