"""Repeated in-process calls: each checked scene content is parsed once per
process, and outputs are rewritten in place.

`scene_sim.load_scene` reads its file on every call and keys a small store
by the text, so an edited file is a miss. A stored scene is shared, with
frozen fields and read-only arrays, and no command changes it. `encoder.load_params` reads and
checks its blob on every call, so each load is a writable copy of its own.
`errors.open_output` opens without truncating and cuts a regular file to
what was written when the block ends.
"""

import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import viewocc
from viewocc import blobio, scene_sim
from viewocc.cli import main as cli_main
from viewocc.encoder import init_model, load_params, save_params
from viewocc.errors import open_output
from viewocc.harness import CSV_COLUMNS, resolve_preset, write_history_csv
from viewocc.scene_sim import SceneSpec, load_scene, preset_scene, save_scene


def _quiet(argv) -> int:
    """Exit status of one in-process CLI call, its stdout dropped."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli_main([str(a) for a in argv])


def test_repeated_calls_on_one_scene_file_parse_it_once(tmp_path, monkeypatch):
    # a seed no other test writes, so the content is new to the store
    save_scene(tmp_path / "scene.json", preset_scene("stream", seed=424242))
    inner = SceneSpec.from_json
    runs = []

    def counted(obj):
        runs.append(obj["seed"])
        return inner(obj)

    monkeypatch.setattr(SceneSpec, "from_json", staticmethod(counted))
    scene = tmp_path / "scene.json"
    assert _quiet(["render", "--scene", scene, "--frame", 1, "--out", tmp_path / "r"]) == 0
    assert _quiet(["gen-flow", "--scene", scene, "--frame", 1, "--out", tmp_path / "f"]) == 0
    assert _quiet(["gen-flow", "--scene", scene, "--frame", 2, "--flow-mode", "object-flow",
                   "--out", tmp_path / "o"]) == 0
    assert runs == [424242]


def test_alternated_scene_files_each_give_their_own_scene(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_scene(a, preset_scene("training", seed=11))
    save_scene(b, preset_scene("stream", seed=11))
    first, second, third = load_scene(a), load_scene(b), load_scene(a)
    assert first.to_json() == json.loads(a.read_text())
    assert second.to_json() == json.loads(b.read_text())
    assert third is first


def test_the_stores_stay_within_their_bounds(tmp_path):
    for seed in range(scene_sim._SCENE_CACHE_SIZE + 3):
        save_scene(tmp_path / "scene.json", preset_scene("training", seed=500 + seed))
        load_scene(tmp_path / "scene.json")
        assert len(scene_sim._scenes) <= scene_sim._SCENE_CACHE_SIZE


def test_no_command_changes_the_stored_scene(tmp_path):
    # a seed no other test writes, so every command below shares one stored scene
    scene = tmp_path / "scene.json"
    save_scene(scene, preset_scene("training", seed=424243))
    stored = load_scene(scene)
    for argv in (["coverage", "--out", tmp_path / "c.json"],
                 ["render", "--frame", 1, "--out", tmp_path / "r"],
                 ["gen-flow", "--frame", 1, "--out", tmp_path / "f"],
                 ["train", "--epochs", 1, "--params", tmp_path / "model",
                  "--out", tmp_path / "t.json"],
                 ["eval", "--params", tmp_path / "model", "--out", tmp_path / "e.json"]):
        assert _quiet([argv[0], "--scene", scene, *argv[1:]]) == 0, argv[0]
    assert load_scene(scene) is stored
    assert stored.to_json() == SceneSpec.from_json(json.loads(scene.read_text())).to_json()


def _scene_arrays(scene):
    yield scene.grid.origin
    for cam in scene.cameras:
        yield from (cam.extrinsics.rotation, cam.extrinsics.translation)
    for pose in scene.ego_trajectory:
        yield from (pose.rotation, pose.translation)
    for st in scene.statics:
        yield from (st.size, st.pose.rotation, st.pose.translation)
    for box in scene.boxes:
        yield box.size
        for pose in box.poses.values():
            yield from (pose.rotation, pose.translation)
    yield from (scene.feature_anchor.rotation, scene.feature_anchor.translation)


def test_a_loaded_scene_refuses_in_place_writes(tmp_path):
    save_scene(tmp_path / "scene.json", preset_scene("stream", seed=31))
    scene = load_scene(tmp_path / "scene.json")
    arrays = list(_scene_arrays(scene))
    assert len(arrays) > 30
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0.0
    fresh = SceneSpec.from_json(json.loads((tmp_path / "scene.json").read_text()))
    assert load_scene(tmp_path / "scene.json").to_json() == fresh.to_json()


def test_a_loaded_scene_refuses_field_reassignment(tmp_path):
    save_scene(tmp_path / "scene.json", preset_scene("stream", seed=31))
    scene = load_scene(tmp_path / "scene.json")
    targets = [(scene, "frame_dt", -1.0), (scene, "cameras", []), (scene.grid, "pitch", 0.0),
               (scene.classes[0], "id", 0), (scene.cameras[0], "fx", -1.0),
               (scene.cameras[0].extrinsics, "rotation", -np.eye(3)),
               (scene.ego_trajectory[1].inverse(), "translation", np.zeros(3)),
               (scene.statics[0], "size", np.zeros(3)), (scene.boxes[0], "category", 0),
               (scene.elements_in_frame(0)[0], "pose", None)]
    for obj, name, value in targets:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, value)
    again = load_scene(tmp_path / "scene.json")
    fresh = SceneSpec.from_json(json.loads((tmp_path / "scene.json").read_text()))
    assert again is scene and again.to_json() == fresh.to_json()
    scene_sim.scene_ground_truth(again, 1)      # a frame_dt of -1.0 fails here


@pytest.fixture
def params_blob(tmp_path):
    scene = preset_scene("training")
    config, _ = resolve_preset("small", scene)
    params = init_model(np.random.default_rng(3), config, len(scene.cameras))
    save_params(tmp_path / "model", params)
    return tmp_path / "model", params


def test_each_params_load_is_its_own_writable_copy(params_blob):
    prefix, saved = params_blob
    first, second = load_params(prefix), load_params(prefix)
    assert first is not second
    for (name, a), (_, b) in zip(first.arrays(), second.arrays()):
        assert a.flags.writeable and b.flags.writeable and not np.shares_memory(a, b), name
    for _, arr in first.arrays():
        arr[...] = 7.0
    for (name, got), (_, want) in zip(load_params(prefix).arrays(), saved.arrays()):
        assert got.tobytes() == want.tobytes(), name


def test_params_whose_data_changed_under_the_same_header_are_read_again(params_blob):
    prefix, saved = params_blob
    load_params(prefix)
    header = Path(f"{prefix}.json").read_bytes()
    saved.query_table[0, 0] += 1.0
    save_params(prefix, saved)
    assert Path(f"{prefix}.json").read_bytes() == header
    assert load_params(prefix).query_table.tobytes() == saved.query_table.tobytes()


def _outputs(base: Path):
    """Each writer paired with the files it writes under `base`."""
    scene = preset_scene("training")
    history = [{"epoch": 0, **{k: 0.5 for k in CSV_COLUMNS[1:]}}]
    return {
        "blob": (lambda: blobio.write_blob(base / "blob", {"a": np.arange(5.0)}, {"m": 1}),
                 [base / "blob.json", base / "blob.bin"]),
        "report": (lambda: _quiet(["coverage", "--scene", "training",
                                   "--out", base / "report.json"]),
                   [base / "report.json"]),
        "scene": (lambda: save_scene(base / "scene.json", scene), [base / "scene.json"]),
        "csv": (lambda: write_history_csv(base / "curve.csv", history), [base / "curve.csv"]),
    }


@pytest.mark.parametrize("kind", ["blob", "report", "scene", "csv"])
def test_rewriting_a_longer_file_leaves_exactly_the_new_bytes(tmp_path, kind):
    (tmp_path / "fresh").mkdir()
    (tmp_path / "over").mkdir()
    write, paths = _outputs(tmp_path / "fresh")[kind]
    write()
    rewrite, targets = _outputs(tmp_path / "over")[kind]
    for path, target in zip(paths, targets):
        target.write_bytes(b"\xff" * (path.stat().st_size + 4096))
    rewrite()
    for path, target in zip(paths, targets):
        assert target.read_bytes() == path.read_bytes()


def test_an_output_symlink_is_written_through(tmp_path):
    scene = preset_scene("training")
    save_scene(tmp_path / "want.json", scene)
    (tmp_path / "target.json").write_bytes(b"x" * 100_000)
    (tmp_path / "link.json").symlink_to(tmp_path / "target.json")
    save_scene(tmp_path / "link.json", scene)
    assert (tmp_path / "link.json").is_symlink()
    assert (tmp_path / "target.json").read_bytes() == (tmp_path / "want.json").read_bytes()


def test_a_write_that_raises_leaves_only_what_was_written(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old " * 1000)
    with pytest.raises(RuntimeError):
        with open_output(path) as fh:
            fh.write("new")
            raise RuntimeError("the writer failed")
    assert path.read_text() == "new"


@pytest.mark.parametrize("out", ["/dev/stdout", "/dev/null"])
def test_coverage_into_a_pipe_or_a_device_exits_0(tmp_path, out):
    # ftruncate fails on a pipe, and a device is not cut either
    package_root = str(Path(viewocc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p))
    result = subprocess.run([sys.executable, "-m", "viewocc.cli", "coverage", "--scene",
                             "training", "--out", out], env=env, capture_output=True)
    assert result.returncode == 0, result.stderr
    if out == "/dev/stdout":
        assert _quiet(["coverage", "--scene", "training", "--out", tmp_path / "r.json"]) == 0
        assert result.stdout == (tmp_path / "r.json").read_bytes()
    else:
        assert result.stdout == b""
