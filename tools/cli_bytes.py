"""Check that every CLI output of this tree is byte-identical to another's.

    python3 tools/cli_bytes.py --parent <tree>

`<tree>` is another checkout of the repository, typically the parent commit
(made with `git archive`). The same fixed list of `viewocc` commands runs
on the `training` and `stream` presets in both trees: make-scene, coverage,
render, gen-flow in both flow modes, train for both methods (params blob and
curve), eval over the whole stream and split in two with a saved queue, and
compare. Two runs per preset are meant to fail: gen-flow on faulty copies of
the scene file (`write_faulty_scenes`), compared like the rest, exit status
and error included. Each command runs in a fresh interpreter with one BLAS
thread, since trained bytes depend on the thread count.

Compared are each command's exit status, stdout, stderr and every file it
wrote. JSON reports and headers are compared as parsed, without their
`wall_clock_s` entries; everything else is compared byte for byte. Each side
runs in its own temporary directory with the same relative paths, so the
path fields of the reports compare equal. The last line of stdout is a JSON
summary; the exit status is 0 when every output matched and 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PRESETS = ("training", "stream")
IGNORED_KEYS = ("wall_clock_s",)
FAULTS = ("reflected-ego-pose", "string-box-translation")


def commands(preset: str):
    """(name, argv) of every command run on `preset`, in order; paths are
    relative to the preset's directory."""
    scene = ["--scene", "scene.json"]
    yield "make-scene", ["make-scene", "--preset", preset, "--seed", "7", "--out", "scene.json"]
    yield "coverage", ["coverage", *scene, "--frame", "1", "--out", "coverage.json"]
    yield "render", ["render", *scene, "--frame", "1", "--out", "render"]
    for mode in ("occupancy-flow", "object-flow"):
        yield f"gen-flow-{mode}", ["gen-flow", *scene, "--frame", "1", "--flow-mode", mode,
                                   "--out", f"flow-{mode}"]
    for fault in FAULTS:
        yield f"gen-flow-{fault}", ["gen-flow", "--scene", f"scene-{fault}.json", "--frame", "1"]
    for method in ("view-attn", "proj-first"):
        yield f"train-{method}", ["train", *scene, "--method", method, "--epochs", "3",
                                  "--params", f"params-{method}", "--curve",
                                  f"curve-{method}.csv", "--out", f"train-{method}.json"]
    params = ["--params", "params-view-attn"]
    yield "eval-whole", ["eval", *scene, *params, "--queue-out", "queue-whole",
                         "--out", "eval-whole.json"]
    yield "eval-first", ["eval", *scene, *params, "--frames", "0:1", "--queue-out",
                         "queue-first", "--out", "eval-first.json"]
    yield "eval-rest", ["eval", *scene, *params, "--frames", "1:", "--queue-in", "queue-first",
                        "--queue-out", "queue-rest", "--out", "eval-rest.json"]
    yield "compare", ["compare", *scene, "--epochs", "2", "--queue-lens", "1,4",
                      "--out", "compare.json"]


def write_faulty_scenes(directory: Path) -> None:
    """Next to `directory`'s scene.json, one copy per fault in FAULTS: ego
    pose 5 (the last on a shorter scene) reflected by swapping two rotation
    rows, and the first box's frame-1 pose with the translation entry "1"."""
    for fault in FAULTS:
        scene = json.loads((directory / "scene.json").read_text())
        if fault == "reflected-ego-pose":
            ego = scene["ego_trajectory"]
            rot = ego[min(5, len(ego) - 1)]["rotation"]
            rot[:6] = rot[3:6] + rot[:3]
        else:
            scene["boxes"][0]["poses"]["1"]["translation"][0] = "1"
        (directory / f"scene-{fault}.json").write_text(json.dumps(scene))


def run(tree: Path, cwd: Path, argv) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    code = "import sys; from viewocc.cli import main; sys.exit(main(sys.argv[1:]))"
    done = subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd, env=env,
                          capture_output=True, check=False)
    return {"exit": done.returncode, "stdout": done.stdout, "stderr": done.stderr}


def _strip(obj):
    if isinstance(obj, dict):
        return {k: _strip(v) for k, v in obj.items() if k not in IGNORED_KEYS}
    if isinstance(obj, list):
        return [_strip(v) for v in obj]
    return obj


def normalized(data: bytes):
    """JSON without its ignored keys, or the bytes themselves."""
    try:
        return _strip(json.loads(data))
    except ValueError:
        return data


def differences(ours: dict, theirs: dict):
    """Which of one command's exit status, stdout and stderr differ."""
    out = [] if ours["exit"] == theirs["exit"] else ["exit status"]
    return out + [k for k in ("stdout", "stderr") if normalized(ours[k]) != normalized(theirs[k])]


def file_differences(ours: Path, theirs: Path):
    """Names of the files that differ between two sides' directories."""
    out = []
    for name in sorted({p.name for d in (ours, theirs) for p in d.iterdir()}):
        a, b = ours / name, theirs / name
        if not (a.exists() and b.exists()):
            out.append(f"{name} (only one side wrote it)")
        elif normalized(a.read_bytes()) != normalized(b.read_bytes()):
            out.append(name)
    return out


def compare_trees(parent: Path, work: Path):
    """One result per command and per preset's files."""
    sides = {"change": ROOT, "parent": parent}
    results = []
    for preset in PRESETS:
        dirs = {side: work / side / preset for side in sides}
        for d in dirs.values():
            d.mkdir(parents=True)
        for name, cmd in commands(preset):
            got = {side: run(tree, dirs[side], cmd) for side, tree in sides.items()}
            results.append({"preset": preset, "what": name, "exit": got["change"]["exit"],
                            "differs": differences(got["change"], got["parent"])})
            if name == "make-scene":
                for d in dirs.values():
                    write_faulty_scenes(d)
        results.append({"preset": preset, "what": "files written", "exit": None,
                        "differs": file_differences(dirs["change"], dirs["parent"])})
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path,
                        help="the other tree, with its own src/viewocc")
    args = parser.parse_args(argv)
    if not (args.parent / "src" / "viewocc").is_dir():
        parser.error(f"{args.parent} has no src/viewocc")
    with tempfile.TemporaryDirectory(prefix="cli_bytes.") as work:
        results = compare_trees(args.parent.resolve(), Path(work))
    for r in results:
        status = "identical" if not r["differs"] else "DIFFERS: " + ", ".join(r["differs"])
        exit_status = "" if r["exit"] is None else f"exit {r['exit']}"
        print(f"{r['preset']:9s} {r['what']:32s} {exit_status:7s} {status}")
    differing = [r for r in results if r["differs"]]
    print(json.dumps({"identical": not differing, "checked": len(results),
                      "differing": differing}))
    return 0 if not differing else 1


if __name__ == "__main__":
    sys.exit(main())
