"""Contract sweep over every input field: exit 0, or exit 2 with one JSON error.

Each leaf of a `training` scene file, a params header and a queue header is
replaced in turn by each value of BAD_VALUES, or deleted. Leaves that differ
only in a list index, a box's frame key or an array's name share a field
pattern, and only the first leaf of each pattern is swept. Scene files go
through `coverage`, `render` and `gen-flow`, headers through
`eval --frames 0:1`, all in-process with every warning turned into an error.
A run must exit 0, or exit 2 with exactly one JSON document on stderr whose
error is under ERROR_CHARS characters, so that no error echoes a value such
as 10**400 in full; an exception fails the sweep.

BAD_VALUES holds no count between 2 and 2**63 - 1: nothing bounds such a
count before it is allocated yet, so an image side of 10**5 could allocate
gigabytes.
"""

import contextlib
import io
import json
import warnings

import numpy as np
import pytest

from viewocc.cli import main as cli_main
from viewocc.encoder import init_model, save_params
from viewocc.harness import resolve_preset
from viewocc.scene_sim import preset_scene, save_scene

BAD_VALUES = (None, "x", True, [], {}, -1, 0, 2.5, 1e308, -1e308, 10**400, [[1]],
              "x" * 100_000)
ERROR_CHARS = 300
DELETE = object()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A valid scene file, params blob and one-frame queue blob."""
    base = tmp_path_factory.mktemp("sweep_inputs")
    scene = preset_scene("training")
    save_scene(base / "scene.json", scene)
    config, _ = resolve_preset("small", scene)
    save_params(base / "model", init_model(np.random.default_rng(0), config, len(scene.cameras)))
    assert _run(["eval", "--scene", base / "scene.json", "--params", base / "model",
                 "--frames", "0:1", "--queue-out", base / "queue"]) is None
    return base


def _run(argv):
    """None when the run kept the contract, else what went wrong."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
              warnings.catch_warnings()):
            warnings.simplefilter("error")
            code = cli_main([str(a) for a in argv])
    except Exception as exc:    # noqa: BLE001 -- any exception breaks the contract
        return f"raised {type(exc).__name__}: {exc}"
    if code == 0:
        return None
    if code != 2:
        return f"exit {code}"
    try:
        doc = json.loads(err.getvalue())
    except ValueError:
        return f"exit 2 without one JSON document on stderr: {err.getvalue()[:200]!r}"
    if not (isinstance(doc, dict) and isinstance(doc.get("error"), str) and doc["error"]):
        return f"exit 2 with {doc!r}"[:200]
    if len(doc["error"]) >= ERROR_CHARS:
        return f"exit 2 with an error of {len(doc['error'])} characters: {doc['error'][:200]}"
    return None


def _leaves(node, path=()):
    """(path, value) of every leaf below a JSON tree."""
    if isinstance(node, (dict, list)):
        keys = node if isinstance(node, dict) else range(len(node))
        for key in keys:
            yield from _leaves(node[key], path + (key,))
    else:
        yield path, node


def _pattern(path):
    """The field pattern of a leaf: list indices, frame keys and array names
    become '*'."""
    return tuple("*" if isinstance(key, int) or key.isdigit() or parent == "arrays" else key
                 for parent, key in zip((None,) + path, path))


def _one_leaf_per_pattern(tree):
    seen = {}
    for path, _ in _leaves(tree):
        seen.setdefault(_pattern(path), path)
    return list(seen.values())


def _edited(tree, path, value):
    tree = json.loads(json.dumps(tree))
    node = tree
    for key in path[:-1]:
        node = node[key]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return tree


def _sweep(inputs, tmp_path, name, commands):
    """Every bad value and the deletion of each swept leaf of `name`; the
    list of broken contracts."""
    tree = json.loads((inputs / name).read_text())
    target = tmp_path / name
    broken = []
    for path in _one_leaf_per_pattern(tree):
        for value in BAD_VALUES + (DELETE,):
            target.write_text(json.dumps(_edited(tree, path, value)))
            for argv in commands:
                problem = _run(argv)
                if problem is not None:
                    shown = "deleted" if value is DELETE else repr(value)[:20]
                    broken.append(f"{argv[0]} with {'.'.join(map(str, path))} {shown}: "
                                  f"{problem}")
    return broken


def test_patterns_cover_every_field_once():
    tree = {"a": [{"b": 1, "c": [2, 3]}, {"b": 4, "c": [5]}],
            "arrays": {"x.0": {"shape": [1]}, "y.1": {"shape": [2]}},
            "poses": {"0": {"t": [0]}, "1": {"t": [1]}}}
    assert _one_leaf_per_pattern(tree) == [("a", 0, "b"), ("a", 0, "c", 0),
                                           ("arrays", "x.0", "shape", 0),
                                           ("poses", "0", "t", 0)]


def test_every_scene_file_field_keeps_the_contract(inputs, tmp_path):
    scene, out = tmp_path / "scene.json", tmp_path / "out"
    commands = [["coverage", "--scene", scene, "--frame", 1],
                ["render", "--scene", scene, "--frame", 1, "--out", out / "render"],
                ["gen-flow", "--scene", scene, "--frame", 1, "--out", out / "flow"]]
    assert _sweep(inputs, tmp_path, "scene.json", commands) == []


@pytest.mark.parametrize("header", ["model", "queue"])
def test_every_header_field_keeps_the_contract(inputs, tmp_path, header):
    for name in ("model", "queue"):
        for suffix in (".json", ".bin"):
            (tmp_path / f"{name}{suffix}").write_bytes((inputs / f"{name}{suffix}").read_bytes())
    argv = ["eval", "--scene", inputs / "scene.json", "--params", tmp_path / "model",
            "--frames", "0:1"]
    if header == "queue":
        argv += ["--queue-in", tmp_path / "queue"]
    assert _sweep(inputs, tmp_path, f"{header}.json", [argv]) == []
