"""Smoke test of `tools/cli_bytes.py`'s comparison on canned outputs; no
two-tree run."""

import importlib.util
import json
from pathlib import Path

import pytest

from viewocc.cli import main as cli_main
from viewocc.scene_sim import preset_scene, save_scene

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("cli_bytes", ROOT / "tools" / "cli_bytes.py")
cli_bytes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_bytes)

REPORT = {"a": 1, "wall_clock_s": 0.5,
          "b": [{"wall_clock_s": 1.5, "c": {"wall_clock_s": 2.5, "d": [2, 3]}}]}


def test_normalized_drops_wall_clock_at_any_depth():
    assert (cli_bytes.normalized(json.dumps(REPORT).encode())
            == {"a": 1, "b": [{"c": {"d": [2, 3]}}]})


@pytest.mark.parametrize("data", [b"", b"a,b\n1,2\n", b"\x00\xff\x10binary"])
def test_normalized_returns_non_json_bytes_unchanged(data):
    assert cli_bytes.normalized(data) == data


def test_differences_name_the_exit_status_stdout_and_stderr():
    ours = {"exit": 0, "stdout": json.dumps(REPORT).encode(), "stderr": b""}
    timed_apart = dict(REPORT, wall_clock_s=9.0)
    assert cli_bytes.differences(ours, dict(ours, stdout=json.dumps(timed_apart).encode())) == []
    theirs = {"exit": 2, "stdout": json.dumps(dict(REPORT, a=2)).encode(), "stderr": b"error"}
    assert cli_bytes.differences(ours, theirs) == ["exit status", "stdout", "stderr"]
    assert cli_bytes.differences(ours, dict(ours, stderr=b"x")) == ["stderr"]


def test_file_differences_report_a_one_sided_file_and_a_differing_one(tmp_path):
    ours, theirs = tmp_path / "ours", tmp_path / "theirs"
    for side, blob in ((ours, b"\x00\x01"), (theirs, b"\x00\x02")):
        side.mkdir()
        (side / "blob.bin").write_bytes(blob)
        (side / "report.json").write_text(json.dumps(dict(REPORT, wall_clock_s=len(blob))))
        (side / "same.csv").write_text("epoch\n0\n")
    (ours / "extra.json").write_text("{}")
    assert cli_bytes.file_differences(ours, theirs) == [
        "blob.bin", "extra.json (only one side wrote it)"]


@pytest.mark.parametrize("preset", cli_bytes.PRESETS)
def test_faulty_scenes_are_refused_by_gen_flow(tmp_path, capsys, preset):
    save_scene(tmp_path / "scene.json", preset_scene(preset, seed=7))
    cli_bytes.write_faulty_scenes(tmp_path)
    expected = {"reflected-ego-pose": "negative determinant",
                "string-box-translation": "Pose.translation"}
    assert set(expected) == set(cli_bytes.FAULTS)
    for fault, named in expected.items():
        argv = ["gen-flow", "--scene", str(tmp_path / f"scene-{fault}.json"), "--frame", "1"]
        assert cli_main(argv) == 2
        assert named in json.loads(capsys.readouterr().err)["error"]
