"""Property test of the CLI contract: mutated inputs exit 0 or 2, never 1.

Each example copies a valid scene file, params blob and queue blob, mutates
one of them (a JSON value deleted or replaced, blob bytes overwritten, or the
data file truncated), runs `cli.main` in-process with every warning turned
into an error and checks the exit status, plus a JSON error on stderr when it
is 2. Replacement values are small, so no mutation can ask for a large grid,
image or array.
"""

import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import viewocc
from viewocc import blobio, cli
from viewocc.cli import main as cli_main
from viewocc.encoder import init_model, load_params, save_params
from viewocc.errors import ContractViolation
from viewocc.harness import resolve_preset
from viewocc.scene_sim import SceneSpec, preset_scene, render_all_cameras, save_scene

REPLACEMENTS = (None, True, -1, 0, 1, 2.5, "x", [], {}, [0, 1])


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A valid scene file, params blob and one-frame queue blob."""
    base = tmp_path_factory.mktemp("cli_inputs")
    scene = preset_scene("training")
    save_scene(base / "scene.json", scene)
    config, _ = resolve_preset("small", scene)
    save_params(base / "model", init_model(np.random.default_rng(0), config, len(scene.cameras)))
    code, _ = _run(["eval", "--scene", base / "scene.json", "--params", base / "model",
                    "--frames", "0", "--queue-out", base / "queue"])
    assert code == 0
    return base


def _run(argv):
    """(exit status, stderr); a warning inside the CLI fails the test."""
    err = io.StringIO()
    with (contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err),
          warnings.catch_warnings()):
        warnings.simplefilter("error")
        code = cli_main([str(a) for a in argv])
    return code, err.getvalue()


def _paths(node, path=()):
    """Every (container path, key) below a JSON tree, parents first."""
    keys = sorted(node) if isinstance(node, dict) else range(len(node))
    for key in keys:
        yield path, key
        if isinstance(node[key], (dict, list)):
            yield from _paths(node[key], path + (key,))


def _mutate_json(data, path: Path) -> None:
    tree = json.loads(path.read_text())
    parent_path, key = data.draw(st.sampled_from(list(_paths(tree))))
    parent = tree
    for k in parent_path:
        parent = parent[k]
    if data.draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = data.draw(st.sampled_from(REPLACEMENTS))
    path.write_text(json.dumps(tree))


def _mutate_bytes(data, path: Path) -> None:
    raw = bytearray(path.read_bytes())
    if data.draw(st.booleans()):
        raw = raw[:data.draw(st.integers(0, len(raw) - 1))]
    else:
        for _ in range(data.draw(st.integers(1, 8))):
            raw[data.draw(st.integers(0, len(raw) - 1))] = data.draw(st.integers(0, 255))
    path.write_bytes(bytes(raw))


def _check_contract(argv) -> None:
    code, err = _run(argv)
    assert code in (0, 2), (argv, code)
    if code == 2:
        assert json.loads(err)["error"]


@contextlib.contextmanager
def _mutated_copy(inputs, data, target: str):
    """A temporary copy of the inputs with `target` mutated."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(shutil.copytree(inputs, Path(tmp) / "inputs"))
        (_mutate_bytes if target.endswith(".bin") else _mutate_json)(data, work / target)
        yield work


@settings(max_examples=25, deadline=None)
@given(data=st.data(), target=st.sampled_from(["model.json", "model.bin"]))
def test_eval_with_mutated_params_blob_exits_0_or_2(inputs, data, target):
    with _mutated_copy(inputs, data, target) as work:
        _check_contract(["eval", "--scene", work / "scene.json", "--params", work / "model",
                         "--frames", "0"])


@settings(max_examples=25, deadline=None)
@given(data=st.data(), target=st.sampled_from(["queue.json", "queue.bin"]))
def test_eval_with_mutated_queue_blob_exits_0_or_2(inputs, data, target):
    with _mutated_copy(inputs, data, target) as work:
        _check_contract(["eval", "--scene", work / "scene.json", "--params", work / "model",
                         "--frames", "1", "--queue-in", work / "queue"])


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_mutated_scene_file_exits_0_or_2(inputs, data):
    with _mutated_copy(inputs, data, "scene.json") as work:
        _check_contract(["render", "--scene", work / "scene.json", "--frame", "0",
                         "--out", work / "render"])
        _check_contract(["gen-flow", "--scene", work / "scene.json", "--frame", "1"])


@pytest.mark.parametrize("pitch", [1e-300, 5e-324, 1e308])
def test_render_on_a_pitch_beyond_the_ray_march_exits_2_with_one_json_error(inputs, tmp_path,
                                                                            pitch):
    # 1e-300 asks for about 1e301 steps per ray, 5e-324 rounds the step to 0
    # and 1e308 overflows the ray range
    scene = json.loads((inputs / "scene.json").read_text())
    scene["grid"]["pitch"] = pitch
    (tmp_path / "scene.json").write_text(json.dumps(scene))
    code, err = _run(["render", "--scene", tmp_path / "scene.json", "--out", tmp_path / "r"])
    assert code == 2
    assert "pitch" in json.loads(err)["error"]


@pytest.mark.parametrize("command", ["render", "coverage", "gen-flow"])
def test_camera_less_scene_exits_2_with_one_json_error(inputs, tmp_path, command):
    scene = json.loads((inputs / "scene.json").read_text())
    scene["cameras"] = []
    (tmp_path / "scene.json").write_text(json.dumps(scene))
    argv = [command, "--scene", tmp_path / "scene.json"]
    code, err = _run(argv + (["--out", tmp_path / "r"] if command == "render" else []))
    assert code == 2
    assert "camera" in json.loads(err)["error"]
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("frame", [3, -1])
@pytest.mark.parametrize("command", ["render", "coverage", "gen-flow"])
def test_frame_outside_the_scene_exits_2_with_one_json_error(inputs, tmp_path, command, frame):
    argv = [command, "--scene", inputs / "scene.json", "--frame", frame]
    code, err = _run(argv + (["--out", tmp_path / "r"] if command == "render" else []))
    assert code == 2
    assert json.loads(err) == {"error": f"frame {frame} is outside the scene's 3 frames"}
    assert not (tmp_path / "r.json").exists()


def _with_class_table(scene: dict, fault: str) -> dict:
    """The scene with its walls (class 2) renumbered to 5, moved to an added
    class 4, or with the mover class and its boxes removed."""
    if fault == "no mover class":
        scene["classes"] = [c for c in scene["classes"] if c["id"] != 3]
        scene["boxes"] = []
        return scene
    if fault == "wall renumbered 2 -> 5":
        wall = 5
        next(c for c in scene["classes"] if c["id"] == 2)["id"] = wall
    else:
        wall = 4
        scene["classes"].append({"id": wall, "name": "far wall", "foreground": False})
    for static in scene["statics"]:
        if static["category"] == 2:
            static["category"] = wall
    return scene


@pytest.mark.parametrize("fault, command, ids", [
    ("wall renumbered 2 -> 5", "train", [1, 3, 5]),
    ("wall renumbered 2 -> 5", "compare", [1, 3, 5]),
    ("walls in an added class 4", "eval", [1, 2, 3, 4]),
    ("no mover class", "eval", [1, 2]),
])
def test_class_ids_other_than_the_models_exit_2_naming_both_tables(inputs, tmp_path, fault,
                                                                   command, ids):
    scene = _with_class_table(json.loads((inputs / "scene.json").read_text()), fault)
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene))
    options = (["--params", inputs / "model", "--frames", "0"] if command == "eval"
               else ["--epochs", "1"])
    code, err = _run([command, "--scene", path, *options])
    assert code == 2, err
    assert json.loads(err) == {
        "error": f"scene class ids {ids} must be the model's class ids [1, 2, 3]"}
    # the scene itself is valid
    assert _run(["render", "--scene", path, "--frame", "1", "--out", tmp_path / "r"])[0] == 0
    assert _run(["gen-flow", "--scene", path, "--frame", "1"])[0] == 0


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("field", ["fx", "fy", "cx", "cy", "frame_dt"])
def test_non_finite_intrinsics_or_frame_dt_exit_2_with_one_json_error(tmp_path, field, value):
    # json reads NaN and Infinity, so a scene file can carry them
    scene = preset_scene("stream").to_json()
    if field == "frame_dt":
        scene["frame_dt"] = value
    else:
        scene["cameras"][2]["intrinsics"][field] = value
    (tmp_path / "scene.json").write_text(json.dumps(scene))
    for argv in (["render", "--out", tmp_path / "r"], ["gen-flow", "--frame", "1"],
                 ["coverage"]):
        code, err = _run(argv + ["--scene", tmp_path / "scene.json"])
        assert code == 2, (argv, err)
        assert json.loads(err)["error"]
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("value", [float("inf"), -float("inf"), float("nan")])
def test_non_finite_pitch_exits_2_with_one_json_error_naming_the_pitch(tmp_path, value):
    scene = preset_scene("stream").to_json()
    scene["grid"]["pitch"] = value
    (tmp_path / "scene.json").write_text(json.dumps(scene))
    for argv in (["render", "--out", tmp_path / "r"], ["gen-flow", "--frame", "1"],
                 ["coverage"]):
        code, err = _run(argv + ["--scene", tmp_path / "scene.json"])
        assert code == 2, (argv, err)
        assert "GridSpec.pitch" in json.loads(err)["error"], (argv, err)
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("value", [1e308, 1e300])
def test_eval_on_overflowing_params_exits_2_with_one_json_error(inputs, tmp_path, value):
    # finite params that overflow in the forward pass; at 1e300 the overflow
    # only reaches the flow metric's norm
    params = load_params(inputs / "model")
    params.query_table[:] = value
    save_params(tmp_path / "huge", params)
    package_root = str(Path(viewocc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p))
    result = subprocess.run([sys.executable, "-m", "viewocc.cli", "eval",
                             "--scene", str(inputs / "scene.json"),
                             "--params", str(tmp_path / "huge"), "--frames", "0"],
                            env=env, capture_output=True, text=True)
    assert result.returncode == 2, result.stderr
    assert json.loads(result.stderr)["error"]


@pytest.mark.parametrize("command, option", [
    ("make-scene", "--out"), ("coverage", "--out"), ("render", "--out"),
    ("gen-flow", "--out"), ("train", "--params"), ("train", "--curve"), ("train", "--out"),
    ("eval", "--out"), ("eval", "--queue-out"), ("compare", "--out"),
])
def test_unwritable_output_path_exits_2_with_one_json_error(inputs, tmp_path, command, option):
    # the output's parent directory is a regular file
    (tmp_path / "afile").write_text("")
    target = tmp_path / "afile" / "x"
    scene = inputs / "scene.json"
    argv = {
        "make-scene": ["--preset", "training"],
        "coverage": ["--scene", scene],
        "render": ["--scene", scene],
        "gen-flow": ["--scene", scene],
        "train": ["--scene", scene, "--epochs", "1"],
        "eval": ["--scene", scene, "--params", inputs / "model", "--frames", "0"],
        "compare": ["--scene", scene, "--epochs", "1"],
    }[command]
    code, err = _run([command, *argv, option, target])
    assert code == 2
    assert str(target) in json.loads(err)["error"]


def _session(work: Path, inputs: Path, fresh_parser: bool) -> dict:
    """Stdout of each call of one in-process session run in `work` with
    relative paths, plus every file it wrote; eval reports lose their
    wall-clock entry. `fresh_parser` rebuilds the parser before each call."""
    shutil.copy(inputs / "scene.json", work / "scene.json")
    for suffix in (".json", ".bin"):
        shutil.copy(inputs / f"model{suffix}", work / f"model{suffix}")
    calls = [
        ["render", "--scene", "scene.json", "--frame", "1", "--out", "out/render"],
        ["gen-flow", "--scene", "scene.json", "--frame", "1", "--out", "out/flow"],
        ["gen-flow", "--scene", "scene.json", "--frame", "1", "--flow-mode", "object-flow",
         "--out", "out/object"],
        ["eval", "--scene", "scene.json", "--params", "model", "--frames", "0",
         "--queue-out", "out/q0"],
        ["eval", "--scene", "scene.json", "--params", "model", "--frames", "1",
         "--queue-in", "out/q0", "--queue-out", "out/q1"],
        ["eval", "--scene", "scene.json", "--params", "model", "--frames", "1"],
        ["render", "--scene", "scene.json", "--frame", "x", "--out", "out/bad"],
        ["coverage", "--scene", "scene.json", "--frame", "2"],
    ]
    outputs = []
    cwd = os.getcwd()
    os.chdir(work)
    try:
        for argv in calls:
            if fresh_parser:
                cli.build_parser.cache_clear()
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            report = out.getvalue()
            if argv[0] == "eval":
                report = json.loads(report)
                report.pop("wall_clock_s")
            outputs.append((code, report, err.getvalue()))
    finally:
        os.chdir(cwd)
    files = {p.relative_to(work).as_posix(): p.read_bytes()
             for p in sorted(work.rglob("*")) if p.is_file()}
    return {"outputs": outputs, "files": files}


def test_shared_parser_leaks_no_state_between_calls(inputs, tmp_path):
    (tmp_path / "shared").mkdir()
    (tmp_path / "fresh").mkdir()
    shared = _session(tmp_path / "shared", inputs, fresh_parser=False)
    fresh = _session(tmp_path / "fresh", inputs, fresh_parser=True)
    assert [code for code, _, _ in shared["outputs"]] == [0, 0, 0, 0, 0, 0, 2, 0]
    assert "invalid int value" in shared["outputs"][6][2]
    assert shared["outputs"][5][1]["queue_in"] is None
    assert shared == fresh


def test_every_call_rereads_its_scene_file(tmp_path):
    scene = preset_scene("stream")
    save_scene(tmp_path / "scene.json", scene)
    argv = ["render", "--scene", tmp_path / "scene.json", "--frame", "2"]
    assert _run(argv + ["--out", tmp_path / "before"]) == (0, "")
    edited = json.loads((tmp_path / "scene.json").read_text())
    edited["statics"][1]["pose"]["translation"][1] -= 0.5
    (tmp_path / "scene.json").write_text(json.dumps(edited))
    assert _run(argv + ["--out", tmp_path / "after"]) == (0, "")
    before, _ = blobio.read_blob(tmp_path / "before")
    after, _ = blobio.read_blob(tmp_path / "after")
    want = render_all_cameras(SceneSpec.from_json(edited), 2)
    assert any(not np.array_equal(before[name], after[name]) for name in before)
    for j, fmap in enumerate(want):
        np.testing.assert_array_equal(after[f"cam.{j}"], fmap.data)


NON_INTEGER_COUNTS = [
    (("grid", "shape", 0), 4.5, "GridSpec.shape"),
    (("cameras", 0, "image_size", 0), 48.9, "CameraModel.image_size"),
    (("seed",), 7.9, "seed"),
    (("seed",), True, "seed"),
    (("classes", 0, "id"), 1.5, "class id"),
    (("feature_channels",), 16.5, "feature_channels"),
    (("statics", 0, "category"), 1.5, "static category"),
    (("boxes", 0, "track_id"), 0.5, "box track_id"),
    (("boxes", 0, "category"), 3.5, "box category"),
]


@pytest.mark.parametrize("path, value, field", NON_INTEGER_COUNTS)
def test_non_integer_count_in_a_scene_file_exits_2_naming_the_field(tmp_path, path, value,
                                                                    field):
    # int() would truncate each of these to a valid count
    scene = preset_scene("stream").to_json()
    *parents, key = path
    node = scene
    for k in parents:
        node = node[k]
    node[key] = value
    (tmp_path / "scene.json").write_text(json.dumps(scene))
    for command in ("coverage", "gen-flow"):
        code, err = _run([command, "--scene", tmp_path / "scene.json"])
        assert code == 2, (command, err)
        assert field in json.loads(err)["error"], (command, err)


NON_NUMBERS = [
    (("frame_dt",), True, "frame_dt"),
    (("frame_dt",), "0.5", "frame_dt"),
    (("frame_dt",), 10**400, "frame_dt"),
    (("grid", "pitch"), True, "GridSpec.pitch"),
    (("grid", "pitch"), "0.4", "GridSpec.pitch"),
    (("cameras", 0, "intrinsics", "fx"), True, "CameraModel.fx"),
    (("cameras", 3, "intrinsics", "cy"), "17.5", "CameraModel.cy"),
    (("statics", 0, "size"), [True, True, True], "static size"),
    (("boxes", 0, "size", 1), "1.0", "box size"),
    (("classes", 0, "foreground"), "no", "class foreground"),
    (("classes", 2, "foreground"), 1, "class foreground"),
]


@pytest.mark.parametrize("path, value, field", NON_NUMBERS,
                         ids=[".".join(map(str, p)) + ("=10**400" if v == 10**400 else f"={v!r}")
                              for p, v, _ in NON_NUMBERS])
def test_non_number_in_a_scene_file_exits_2_naming_the_field(tmp_path, path, value, field):
    # float() and bool() would coerce each of these to a valid value
    scene = preset_scene("stream").to_json()
    *parents, key = path
    node = scene
    for k in parents:
        node = node[k]
    node[key] = value
    (tmp_path / "scene.json").write_text(json.dumps(scene))
    for argv in (["gen-flow", "--frame", "1"], ["coverage"]):
        code, err = _run(argv + ["--scene", tmp_path / "scene.json"])
        assert code == 2, (argv, err)
        assert field in json.loads(err)["error"], (argv, err)


def _built_with(path, value):
    """(type, constructor arguments) of the value that holds the `stream`
    scene file's entry at `path`, or of the `small` model config for a path
    starting "config", with that entry set to `value`."""
    owner, keys = preset_scene("stream"), list(path)
    if keys[0] == "config":
        owner = resolve_preset("small", owner)[0]
        keys.pop(0)
    elif keys[0] in ("grid", "classes", "cameras", "statics", "boxes", "feature_anchor"):
        owner = getattr(owner, keys.pop(0))
        if isinstance(owner, list):
            owner = owner[keys.pop(0)]
    key = keys.pop(0)
    if key == "intrinsics":
        key = keys.pop(0)
    elif key == "image_size":
        key = ("width", "height")[keys.pop(0)]
    if keys:                                    # one entry of a list field, by flat index
        entries = np.array(getattr(owner, key), dtype=object)
        entries.flat[keys.pop(0)] = value
        value = entries.tolist()
    kwargs = {f.name: getattr(owner, f.name) for f in dataclasses.fields(owner)}
    return type(owner), dict(kwargs, **{key: value})


BUILT_IN_CODE = NON_INTEGER_COUNTS + NON_NUMBERS + [
    (("config", "pitch"), "0.4", "model config pitch"),
    (("config", "heads"), 2.5, "model config heads"),
    # the anchor is the identity, so each of these reads as a valid pose once coerced
    (("feature_anchor", "translation", 0), True, "Pose.translation"),
    (("feature_anchor", "translation", 1), "1", "Pose.translation"),
    (("feature_anchor", "rotation", 0), True, "Pose.rotation"),
]


@pytest.mark.parametrize("path, value, field", BUILT_IN_CODE,
                         ids=[".".join(map(str, p)) + ("=10**400" if v == 10**400 else f"={v!r}")
                              for p, v, _ in BUILT_IN_CODE])
def test_a_value_built_in_code_is_refused_naming_the_field_as_the_file_does(path, value, field):
    # these were accepted, truncated or raised a bare TypeError in code
    cls, kwargs = _built_with(path, value)
    with pytest.raises(ContractViolation) as exc:
        cls(**kwargs)
    assert field in str(exc.value)


POSE_AND_ORIGIN_NON_NUMBERS = [
    (("ego_trajectory", 3, "translation", 0), True, "Pose.translation"),
    (("ego_trajectory", 0, "translation", 1), "1", "Pose.translation"),
    (("ego_trajectory", 5, "rotation", 4), 10**400, "Pose.rotation"),
    (("statics", 0, "pose", "translation", 0), True, "Pose.translation"),
    (("statics", 2, "pose", "rotation", 8), "1", "Pose.rotation"),
    (("boxes", 0, "poses", "1", "translation", 2), 10**400, "Pose.translation"),
    (("boxes", 0, "poses", "0", "rotation", 0), True, "Pose.rotation"),
    (("cameras", 2, "extrinsics", "translation", 1), 10**400, "Pose.translation"),
    (("feature_anchor", "translation", 0), "0", "Pose.translation"),
    (("grid", "origin", 0), True, "GridSpec.origin"),
    (("grid", "origin", 2), "1", "GridSpec.origin"),
    (("grid", "origin", 1), 10**400, "GridSpec.origin"),
]


@pytest.mark.parametrize(
    "path, value, field", POSE_AND_ORIGIN_NON_NUMBERS,
    ids=[".".join(map(str, p)) + ("=10**400" if v == 10**400 else f"={v!r}")
         for p, v, _ in POSE_AND_ORIGIN_NON_NUMBERS])
def test_non_number_in_a_pose_or_the_grid_origin_exits_2_naming_the_field(tmp_path, path,
                                                                          value, field):
    # np.asarray would coerce true and "1" to 1.0, and overflow on 10**400
    scene = preset_scene("stream").to_json()
    *parents, key = path
    node = scene
    for k in parents:
        node = node[k]
    node[key] = value
    (tmp_path / "scene.json").write_text(json.dumps(scene))
    code, err = _run(["gen-flow", "--frame", "1", "--scene", tmp_path / "scene.json"])
    assert code == 2, err
    assert field in json.loads(err)["error"], err


@pytest.mark.parametrize("key", ["01", "-3"])
def test_box_frame_key_not_written_as_a_frame_number_exits_2(tmp_path, key):
    # "01" used to replace frame 1's pose, and "-3" to load as frame -3
    scene = preset_scene("stream").to_json()
    poses = scene["boxes"][0]["poses"]
    poses[key] = poses["4"]
    (tmp_path / "scene.json").write_text(json.dumps(scene))
    code, err = _run(["gen-flow", "--frame", "1", "--scene", tmp_path / "scene.json"])
    assert code == 2, err
    assert "box frame key" in json.loads(err)["error"], err


@pytest.mark.parametrize("value", [True, "1", 10**400], ids=["true", "'1'", "10**400"])
def test_non_number_in_a_queue_pose_exits_2_naming_the_field(inputs, tmp_path, value):
    # 10**400 used to escape as an OverflowError traceback
    shutil.copy(inputs / "queue.bin", tmp_path / "queue.bin")
    header = json.loads((inputs / "queue.json").read_text())
    header["meta"]["poses"][0]["translation"][0] = value
    (tmp_path / "queue.json").write_text(json.dumps(header))
    code, err = _run(["eval", "--scene", inputs / "scene.json", "--params", inputs / "model",
                      "--frames", "1", "--queue-in", tmp_path / "queue"])
    assert code == 2, err
    assert "Pose.translation" in json.loads(err)["error"], err


@pytest.mark.parametrize("target", ["scene", "params header"])
@pytest.mark.parametrize("fault", ["5000-digit integer", "bytes that are not UTF-8"])
def test_unreadable_json_exits_2_with_one_json_error(inputs, tmp_path, target, fault):
    # json raises both outside JSONDecodeError
    shutil.copy(inputs / "scene.json", tmp_path / "scene.json")
    shutil.copy(inputs / "model.json", tmp_path / "model.json")
    shutil.copy(inputs / "model.bin", tmp_path / "model.bin")
    path = tmp_path / ("scene.json" if target == "scene" else "model.json")
    body = path.read_bytes()[1:]        # both files are one JSON object
    extra = b'"big": ' + b"1" * 5000 if fault == "5000-digit integer" else b'"bad": "\xff"'
    path.write_bytes(b"{" + extra + b", " + body)
    code, err = _run(["eval", "--scene", tmp_path / "scene.json", "--params", tmp_path / "model",
                      "--frames", "0"])
    assert code == 2, err
    assert "cannot read" in json.loads(err)["error"], err


@pytest.mark.parametrize("field, value", [("heads", 2.5), ("layers", 1.9), ("points", True),
                                          ("grid_shape", [3, 10.2, 10])])
def test_non_integer_count_in_a_params_header_exits_2_naming_the_field(inputs, tmp_path,
                                                                       field, value):
    shutil.copy(inputs / "model.bin", tmp_path / "model.bin")
    header = json.loads((inputs / "model.json").read_text())
    header["meta"]["config"][field] = value
    (tmp_path / "model.json").write_text(json.dumps(header))
    code, err = _run(["eval", "--scene", inputs / "scene.json", "--params", tmp_path / "model",
                      "--frames", "0"])
    assert code == 2, err
    assert field in json.loads(err)["error"], err


def test_gen_flow_on_a_scene_without_boxes_reports_zero_speed(tmp_path, capsys):
    scene = preset_scene("stream").to_json()
    scene["boxes"] = []
    (tmp_path / "scene.json").write_text(json.dumps(scene))
    assert cli_main(["gen-flow", "--scene", str(tmp_path / "scene.json"), "--frame", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["occupied_voxels"] == 0
    assert float(report["max_speed"]) == 0.0


def test_training_scene_without_boxes_trains_evaluates_and_annotates(tmp_path, capsys):
    # no box leaves no valid flow cell, so l1_flow runs over no cell
    scene = preset_scene("training").to_json()
    scene["boxes"] = []
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene))
    code, err = _run(["train", "--scene", path, "--epochs", "2", "--params", tmp_path / "model",
                      "--out", tmp_path / "train.json"])
    assert code == 0, err
    code, err = _run(["eval", "--scene", path, "--params", tmp_path / "model",
                      "--out", tmp_path / "eval.json"])
    assert code == 0, err
    train = json.loads((tmp_path / "train.json").read_text())
    assert float(train["evaluation"]["aggregate"]["mave"]) == 0.0
    assert float(json.loads((tmp_path / "eval.json").read_text())["aggregate"]["mave"]) == 0.0
    assert cli_main(["gen-flow", "--scene", str(path), "--frame", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["bev_valid_cells"] == 0


def test_gen_flow_writes_the_scenes_foreground_classes_on_every_frame(tmp_path):
    # a frame with a box used to list only its boxes' classes, [3], and a
    # frame without one the scene's, [3, 4]
    scene = preset_scene("training").to_json()
    scene["classes"].append({"id": 4, "name": "cart", "foreground": True})
    for box in scene["boxes"]:
        del box["poses"]["2"]
    (tmp_path / "scene.json").write_text(json.dumps(scene))
    for frame in (1, 2):
        code, err = _run(["gen-flow", "--scene", tmp_path / "scene.json", "--frame", frame,
                          "--out", tmp_path / f"flow{frame}"])
        assert code == 0, err
        header = json.loads((tmp_path / f"flow{frame}.json").read_text())
        assert header["meta"]["foreground_classes"] == [3, 4], frame


def test_params_array_at_another_arrays_offset_exits_2_naming_it(inputs, tmp_path):
    # with offset 0 this array used to be read from expand.bias's bytes
    shutil.copy(inputs / "model.bin", tmp_path / "model.bin")
    header = json.loads((inputs / "model.json").read_text())
    header["arrays"]["layers.0.value_maps.0.weight"]["offset"] = 0
    (tmp_path / "model.json").write_text(json.dumps(header))
    code, err = _run(["eval", "--scene", inputs / "scene.json", "--params", tmp_path / "model",
                      "--frames", "0:1"])
    assert code == 2, err
    assert "'layers.0.value_maps.0.weight'" in json.loads(err)["error"], err


HUGE_SCENE_COUNTS = [
    (("grid", "shape", 0), "GridSpec.shape"),
    (("cameras", 0, "image_size", 1), "CameraModel.image_size"),
    (("feature_channels",), "scene feature_channels"),
]
HUGE_CONFIG_COUNTS = [("grid_shape", "model config grid_shape"),
                      ("bev_channels", "model config bev_channels"),
                      ("voxel_channels", "model config voxel_channels"),
                      ("n_classes", "model config n_classes"),
                      ("points", "model config points"),
                      ("queue_len", "model config queue_len")]


@pytest.mark.parametrize("command", ["coverage", "render", "gen-flow"])
@pytest.mark.parametrize("path, field", HUGE_SCENE_COUNTS,
                         ids=[".".join(map(str, p)) for p, _ in HUGE_SCENE_COUNTS])
def test_count_of_10_to_the_400_in_a_scene_file_exits_2_naming_the_field(tmp_path, path,
                                                                         field, command):
    # these raised "Maximum allowed size exceeded" or an OverflowError
    scene = preset_scene("stream").to_json()
    *parents, key = path
    node = scene
    for k in parents:
        node = node[k]
    node[key] = 10**400
    (tmp_path / "scene.json").write_text(json.dumps(scene))
    code, err = _run([command, "--scene", tmp_path / "scene.json", "--frame", "1",
                      "--out", tmp_path / "out"])
    assert code == 2, err
    assert field in json.loads(err)["error"], err
    assert list(tmp_path.iterdir()) == [tmp_path / "scene.json"]


@pytest.mark.parametrize("field, name", HUGE_CONFIG_COUNTS,
                         ids=[f for f, _ in HUGE_CONFIG_COUNTS])
def test_count_of_10_to_the_400_in_a_params_header_exits_2_naming_the_field(inputs, tmp_path,
                                                                            field, name):
    shutil.copy(inputs / "model.bin", tmp_path / "model.bin")
    header = json.loads((inputs / "model.json").read_text())
    config = header["meta"]["config"]
    if field == "grid_shape":
        config[field][1] = 10**400
    else:
        config[field] = 10**400
    (tmp_path / "model.json").write_text(json.dumps(header))
    code, err = _run(["eval", "--scene", inputs / "scene.json", "--params", tmp_path / "model",
                      "--frames", "0"])
    assert code == 2, err
    assert name in json.loads(err)["error"], err


HUGE_QUEUE_LENS = {"train": ["train", "--scene", "training", "--epochs", "1",
                             "--queue-len", str(10**20)],
                   "compare": ["compare", "--scene", "training", "--epochs", "1",
                               "--queue-lens", str(10**20)]}


@pytest.mark.parametrize("command", sorted(HUGE_QUEUE_LENS))
def test_queue_length_beyond_2_to_the_63_on_the_command_line_exits_2_naming_it(command):
    # these raised "Maximum allowed dimension exceeded" when the queue was built
    code, err = _run(HUGE_QUEUE_LENS[command])
    assert code == 2, err
    assert "queue_len" in json.loads(err)["error"], err
    package_root = str(Path(viewocc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p))
    result = subprocess.run([sys.executable, "-m", "viewocc.cli", *HUGE_QUEUE_LENS[command]],
                            env=env, capture_output=True, text=True)
    assert result.returncode == 2, result.stderr
    assert "queue_len" in json.loads(result.stderr)["error"], result.stderr
    assert result.stdout == ""


def test_make_scene_writes_only_seeds_that_load_scene_reads(tmp_path):
    largest = 2**63 - 1
    code, err = _run(["make-scene", "--preset", "stream", "--seed", largest,
                      "--out", tmp_path / "scene.json"])
    assert code == 0, err
    assert json.loads((tmp_path / "scene.json").read_text())["seed"] == largest
    code, err = _run(["gen-flow", "--scene", tmp_path / "scene.json", "--frame", "1"])
    assert code == 0, err
    code, err = _run(["make-scene", "--preset", "stream", "--seed", largest + 1,
                      "--out", tmp_path / "other.json"])
    assert code == 2, err
    assert "seed" in json.loads(err)["error"], err
    assert not (tmp_path / "other.json").exists()


def test_queue_capacity_of_10_to_the_400_exits_2(inputs, tmp_path):
    # one bound for every count read from a file: this queue used to load
    shutil.copy(inputs / "queue.bin", tmp_path / "queue.bin")
    header = json.loads((inputs / "queue.json").read_text())
    header["meta"]["capacity"] = 10**400
    (tmp_path / "queue.json").write_text(json.dumps(header))
    code, err = _run(["eval", "--scene", inputs / "scene.json", "--params", inputs / "model",
                      "--frames", "1", "--queue-in", tmp_path / "queue"])
    assert code == 2, err
    assert "meta.capacity" in json.loads(err)["error"], err


@pytest.mark.parametrize("model_len, queue_len", [(4, 2), (2, 4)])
def test_queue_of_another_depth_than_the_models_exits_2_naming_both(inputs, tmp_path,
                                                                    model_len, queue_len):
    # a queue_len-4 model resumed from a capacity-2 queue used to run at depth 2
    scene = preset_scene("training")
    for qlen in (model_len, queue_len):
        config, _ = resolve_preset("small", scene, queue_len=qlen)
        save_params(tmp_path / f"model{qlen}",
                    init_model(np.random.default_rng(0), config, len(scene.cameras)))
    code, err = _run(["eval", "--scene", inputs / "scene.json", "--params",
                      tmp_path / f"model{queue_len}", "--frames", "0",
                      "--queue-out", tmp_path / "queue"])
    assert code == 0, err
    argv = ["eval", "--scene", inputs / "scene.json", "--params", tmp_path / f"model{model_len}",
            "--frames", "1", "--queue-in", tmp_path / "queue", "--out", tmp_path / "eval.json"]
    code, err = _run(argv)
    assert code == 2, err
    named = f"capacity {queue_len} must be the model's queue_len {model_len}"
    assert named in json.loads(err)["error"], err
    package_root = str(Path(viewocc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p))
    result = subprocess.run([sys.executable, "-m", "viewocc.cli", *map(str, argv)],
                            env=env, capture_output=True, text=True)
    assert result.returncode == 2, result.stderr
    assert named in json.loads(result.stderr)["error"], result.stderr
    assert result.stdout == "" and not (tmp_path / "eval.json").exists()


def _observed(monkeypatch) -> list:
    """A list of the frame index of each frame observation (a render and a
    visibility march), which frame preparation runs once per frame."""
    calls = []
    inner = viewocc.scene_sim.observe

    def counted(*args, **kwargs):
        calls.append(args[1])
        return inner(*args, **kwargs)

    monkeypatch.setattr(viewocc.scene_sim, "observe", counted)
    monkeypatch.setattr(viewocc.harness, "observe", counted)
    return calls


@pytest.mark.parametrize("fault, command, ids", [
    ("wall renumbered 2 -> 5", "train", [1, 3, 5]),
    ("wall renumbered 2 -> 5", "compare", [1, 3, 5]),
    ("walls in an added class 4", "eval", [1, 2, 3, 4]),
    ("no mover class", "eval", [1, 2]),
])
def test_a_class_table_the_model_lacks_is_refused_before_any_frame_is_observed(
        inputs, tmp_path, monkeypatch, fault, command, ids):
    scene = _with_class_table(json.loads((inputs / "scene.json").read_text()), fault)
    (tmp_path / "scene.json").write_text(json.dumps(scene))
    options = (["--params", inputs / "model", "--frames", "0"] if command == "eval"
               else ["--epochs", "1"])
    observed = _observed(monkeypatch)
    code, err = _run([command, "--scene", tmp_path / "scene.json", *options])
    assert code == 2, err
    assert json.loads(err) == {
        "error": f"scene class ids {ids} must be the model's class ids [1, 2, 3]"}
    assert observed == []


def test_a_queue_of_another_depth_is_refused_before_any_frame_is_observed(
        inputs, tmp_path, monkeypatch):
    scene = preset_scene("training")
    config, _ = resolve_preset("small", scene, queue_len=2)
    save_params(tmp_path / "model2", init_model(np.random.default_rng(0), config,
                                                len(scene.cameras)))
    observed = _observed(monkeypatch)
    code, err = _run(["eval", "--scene", inputs / "scene.json", "--params",
                      tmp_path / "model2", "--frames", "0", "--queue-out", tmp_path / "queue"])
    assert code == 0, err
    assert observed == [0]          # a model that fits observes its frame
    code, err = _run(["eval", "--scene", inputs / "scene.json", "--params", inputs / "model",
                      "--frames", "1:", "--queue-in", tmp_path / "queue"])
    assert code == 2, err
    assert json.loads(err) == {
        "error": "memory queue capacity 2 must be the model's queue_len 4"}
    assert observed == [0]


def _refused_before_any_frame_is_observed(monkeypatch, tmp_path, argv, error) -> None:
    """argv exits 2 with exactly `error`, in-process without observing a
    frame, and through `python -m viewocc.cli` without writing a report."""
    observed = _observed(monkeypatch)
    code, err = _run(argv)
    assert code == 2, err
    assert json.loads(err) == {"error": error}
    assert observed == []
    package_root = str(Path(viewocc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p))
    out = tmp_path / "eval.json"
    result = subprocess.run([sys.executable, "-m", "viewocc.cli", *map(str, argv),
                             "--out", str(out)], env=env, capture_output=True, text=True)
    assert result.returncode == 2, result.stderr
    assert json.loads(result.stderr) == {"error": error}
    assert result.stdout == "" and not out.exists()


def test_a_scene_with_fewer_cameras_than_the_model_reads_is_refused_before_any_frame(
        inputs, tmp_path, monkeypatch):
    # a 6-camera model on a 5-camera copy of the scene used to render every
    # frame before failing with "expected 6 feature maps, got 5"
    scene = json.loads((inputs / "scene.json").read_text())
    scene["cameras"] = scene["cameras"][:5]
    (tmp_path / "scene.json").write_text(json.dumps(scene))
    _refused_before_any_frame_is_observed(
        monkeypatch, tmp_path,
        ["eval", "--scene", tmp_path / "scene.json", "--params", inputs / "model"],
        "the model's attention layers read 6 cameras but the scene has 5")


def test_a_queue_of_another_grid_layout_is_refused_before_any_frame_is_observed(
        inputs, tmp_path, monkeypatch):
    # a queue whose layout pitch was edited used to be read only after the
    # requested frames were rendered, failing in warp_queue
    shutil.copy(inputs / "queue.bin", tmp_path / "queue.bin")
    header = json.loads((inputs / "queue.json").read_text())
    layout = header["meta"]["layout"]
    old = f"(shape (20, 20, 28), pitch {layout['pitch']}, origin {layout['origin']})"
    layout["pitch"] = 0.5
    (tmp_path / "queue.json").write_text(json.dumps(header))
    new = f"(shape (20, 20, 28), pitch 0.5, origin {layout['origin']})"
    _refused_before_any_frame_is_observed(
        monkeypatch, tmp_path,
        ["eval", "--scene", inputs / "scene.json", "--params", inputs / "model", "--frames", "1:",
         "--queue-in", tmp_path / "queue"],
        f"queued grid layout {new} does not match the model's BEV grid {old}")


@pytest.mark.parametrize("command", ["train", "compare"])
@pytest.mark.parametrize("option, error", [
    (["--epochs", "0"], "epochs must be >= 1, got 0"),
    (["--lr", "0"], "learning rate must be positive"),
    (["--lr", "-1"], "learning rate must be positive"),
    (["--seed", "-1"], "seed must be >= 0, got -1"),
    (["--lr", "inf"], "learning rate must be a finite number, got inf"),
], ids=["epochs-0", "lr-0", "lr-minus-1", "seed-minus-1", "lr-inf"])
def test_bad_train_settings_are_refused_before_any_frame_is_observed(
        inputs, tmp_path, monkeypatch, command, option, error):
    # these used to be refused only when training began, after every frame
    # of the scene was rendered
    _refused_before_any_frame_is_observed(
        monkeypatch, tmp_path, [command, "--scene", inputs / "scene.json", *option], error)


@pytest.mark.parametrize("field", ["capacity", "count"])
def test_queue_count_of_10_to_the_400_exits_2_with_a_short_error(inputs, tmp_path, field):
    # the error used to hold the 401-digit integer
    shutil.copy(inputs / "queue.bin", tmp_path / "queue.bin")
    header = json.loads((inputs / "queue.json").read_text())
    header["meta"][field] = 10**400
    (tmp_path / "queue.json").write_text(json.dumps(header))
    code, err = _run(["eval", "--scene", inputs / "scene.json", "--params", inputs / "model",
                      "--frames", "1", "--queue-in", tmp_path / "queue"])
    assert code == 2, err
    error = json.loads(err)["error"]
    assert f"meta.{field}" in error and len(error) < 200, error


@pytest.mark.parametrize("key", ["layers", "heads", "points", "queue_len", "temporal_points",
                                 "method", "mode"])
def test_params_header_without_a_config_key_exits_2_naming_it(inputs, tmp_path, key):
    # these keys used to fall back to a default: without `mode` a two-dof
    # model was evaluated as one-dof
    shutil.copy(inputs / "model.bin", tmp_path / "model.bin")
    header = json.loads((inputs / "model.json").read_text())
    del header["meta"]["config"][key]
    (tmp_path / "model.json").write_text(json.dumps(header))
    code, err = _run(["eval", "--scene", inputs / "scene.json", "--params", tmp_path / "model",
                      "--frames", "0"])
    assert code == 2, err
    assert repr(key) in json.loads(err)["error"], err


def test_a_params_origin_3e_5_off_the_scene_grid_exits_2(inputs, tmp_path):
    # np.allclose's default relative tolerance of 1e-5 let an origin of
    # -3.99997 pass for the scene's -4.0
    shutil.copy(inputs / "model.bin", tmp_path / "model.bin")
    header = json.loads((inputs / "model.json").read_text())
    header["meta"]["config"]["origin"][0] += 3e-5
    (tmp_path / "model.json").write_text(json.dumps(header))
    argv = ["eval", "--scene", inputs / "scene.json", "--params", tmp_path / "model",
            "--frames", "0", "--out", tmp_path / "eval.json"]
    code, err = _run(argv)
    named = "model grid geometry must match the scene grid"
    assert code == 2, err
    assert named in json.loads(err)["error"], err
    package_root = str(Path(viewocc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p))
    result = subprocess.run([sys.executable, "-m", "viewocc.cli", *map(str, argv)],
                            env=env, capture_output=True, text=True)
    assert result.returncode == 2, result.stderr
    assert named in json.loads(result.stderr)["error"], result.stderr
    assert result.stdout == "" and not (tmp_path / "eval.json").exists()


BAD_COMMAND_LINES = {
    "non-integer-epochs": ["train", "--scene", "training", "--epochs", "abc"],
    "non-integer-frame": ["coverage", "--scene", "training", "--frame", "x"],
    "missing-params": ["eval", "--scene", "training"],
    "unknown-subcommand": ["no-such-command"],
    "unknown-flow-mode": ["gen-flow", "--scene", "training", "--flow-mode", "bogus"],
}


@pytest.mark.parametrize("case", sorted(BAD_COMMAND_LINES))
def test_bad_command_line_returns_2_with_one_json_error(case):
    # argparse used to print its usage text and raise SystemExit(2)
    code, err = _run(BAD_COMMAND_LINES[case])
    assert code == 2, err
    assert json.loads(err)["error"], err


def test_bad_command_line_exits_2_with_one_json_error_as_a_program():
    package_root = str(Path(viewocc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p))
    result = subprocess.run([sys.executable, "-m", "viewocc.cli",
                             *BAD_COMMAND_LINES["non-integer-epochs"]],
                            env=env, capture_output=True, text=True)
    assert result.returncode == 2, result.stderr
    assert "--epochs" in json.loads(result.stderr)["error"]
    assert result.stdout == ""


def test_help_still_prints_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["train", "--help"])
    assert exc.value.code == 0
    assert "--epochs" in capsys.readouterr().out


NAME_FIELDS = [(("name",), "scene name"), (("classes", 0, "name"), "class name"),
               (("cameras", 0, "name"), "CameraModel.name")]


@pytest.mark.parametrize("command", ["coverage", "render"])
@pytest.mark.parametrize("value", [None, True, 10**400, {"a": [1]}],
                         ids=["null", "true", "10**400", "object"])
@pytest.mark.parametrize("path, field", NAME_FIELDS, ids=[f for _, f in NAME_FIELDS])
def test_name_that_is_not_a_string_exits_2_naming_the_field(tmp_path, path, field, value,
                                                            command):
    # a name was copied into the report or the render blob's meta unchecked
    scene = preset_scene("training").to_json()
    *parents, key = path
    node = scene
    for k in parents:
        node = node[k]
    node[key] = value
    (tmp_path / "scene.json").write_text(json.dumps(scene))
    code, err = _run([command, "--scene", tmp_path / "scene.json", "--out", tmp_path / "out"])
    assert code == 2, err
    error = json.loads(err)["error"]
    assert field in error and len(error) < 200, err
    assert list(tmp_path.iterdir()) == [tmp_path / "scene.json"]


def test_absent_scene_and_camera_names_keep_their_defaults(tmp_path):
    scene = preset_scene("training").to_json()
    del scene["name"]
    del scene["cameras"][0]["name"]
    (tmp_path / "scene.json").write_text(json.dumps(scene))
    assert _run(["render", "--scene", tmp_path / "scene.json", "--out", tmp_path / "r"]) == (0, "")
    meta = json.loads((tmp_path / "r.json").read_text())["meta"]
    assert meta["scene"] == "scene" and meta["cameras"][0] == ""
