"""Smoke test of `tools/ab.py`, the one-process layer A/B timer: against
this checkout itself every case is byte-identical, and against a copy whose
read is one ulp off the byte check fails."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
AB = ROOT / "tools" / "ab.py"


def _ab(parent: Path, layer: str):
    done = subprocess.run([sys.executable, str(AB), "--parent", str(parent), "--layer", layer,
                           "--pairs", "3", "--repeat", "1"],
                          capture_output=True, text=True,
                          env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
    return done.returncode, json.loads(done.stdout.splitlines()[-1]), done


@pytest.mark.parametrize("layer", ["read_plan", "aggregate_backward", "temporal_forward",
                                   "temporal_backward", "warp_bev", "project_rig_sparse",
                                   "observe", "render_all_cameras"])
def test_ab_against_this_checkout_is_identical(layer):
    code, summary, done = _ab(ROOT, layer)
    assert code == 0, done.stdout + done.stderr
    assert summary["identical"] and not summary["differing"]
    for case in summary["cases"].values():
        assert case["pairs"] == 3 and 0 <= case["wins"] <= 3
        assert case["q1"] <= case["median_ratio"] <= case["q3"]
        assert 0.0 < case["sign_p"] <= 1.0


@pytest.mark.parametrize("layer", ["attn_forward", "attn_backward"])
def test_ab_attention_layers_against_this_checkout_are_identical(layer):
    code, summary, done = _ab(ROOT, layer)
    assert code == 0, done.stdout + done.stderr
    assert summary["identical"] and sorted(summary["cases"]) == ["proj-first", "view-attn"]
    for case in summary["cases"].values():
        assert case["pairs"] == 3 and case["q1"] <= case["median_ratio"] <= case["q3"]


def test_ab_fails_on_a_read_one_ulp_off(tmp_path):
    src = tmp_path / "tree" / "src" / "viewocc"
    shutil.copytree(ROOT / "src" / "viewocc", src,
                    ignore=shutil.ignore_patterns("__pycache__"))
    module = src / "view_attention.py"
    text = module.read_text()
    assert text.count("    return out, table, head_out\n") == 1
    module.write_text(text.replace("    return out, table, head_out\n",
                                   "    return np.nextafter(out, np.inf), table, head_out\n"))
    code, summary, done = _ab(tmp_path / "tree", "read_plan")
    assert code == 1, done.stdout + done.stderr
    assert not summary["identical"]
    assert summary["differing"] == ["proj-first", "temporal-2", "temporal-4", "view-attn"]
    assert summary["cases"] == {}


def test_ab_notices_a_slower_read(tmp_path):
    src = tmp_path / "tree" / "src" / "viewocc"
    shutil.copytree(ROOT / "src" / "viewocc", src,
                    ignore=shutil.ignore_patterns("__pycache__"))
    module = src / "view_attention.py"
    text = module.read_text()
    head = "def read_plan(plan: SamplingPlan, nq: int, maps, value_maps, output_maps):\n"
    assert text.count(head) == 1
    text = text.replace("import numpy as np\n", "import time\n\nimport numpy as np\n", 1)
    module.write_text(text.replace(head, head + "    time.sleep(0.005)\n"))
    code, summary, done = _ab(tmp_path / "tree", "read_plan")
    assert code == 0, done.stdout + done.stderr
    assert summary["identical"] and not summary["differing"]
    assert sorted(summary["cases"]) == ["proj-first", "temporal-2", "temporal-4", "view-attn"]
    for case in summary["cases"].values():
        assert case["wins"] == 3 and case["median_ratio"] < 0.5, summary


@pytest.mark.parametrize("layer", ["load_scene", "load_params", "write_blob"])
def test_ab_file_layers_against_this_checkout_are_identical(layer):
    code, summary, done = _ab(ROOT, layer)
    assert code == 0, done.stdout + done.stderr
    assert summary["identical"] and list(summary["cases"]) == [layer]
    case = summary["cases"][layer]
    assert case["pairs"] == 3 and case["q1"] <= case["median_ratio"] <= case["q3"]
