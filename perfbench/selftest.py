"""Each benchmark check passes the program's real output and rejects a
deliberately corrupted copy of it.

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py
    PYTHONPATH=src python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from viewocc import flow_annotation, harness, objective, scene_sim  # noqa: E402
from viewocc.encoder import init_model  # noqa: E402

FRAME = 3


def _render(scene, frame):
    return [scene_sim.render_camera_features(scene, frame, j).data.copy()
            for j in range(len(scene.cameras))]


def test_render_check_rejects_corrupted_maps():
    scene = scene_sim.preset_scene("stream", seed=5)
    maps = _render(scene, FRAME)
    assert checks.check_render(scene, FRAME, maps, np.random.default_rng(0)) == []

    pixels = checks.sample_pixels(scene.cameras[0], np.random.default_rng(0), 48)
    hit, _, _ = checks.first_hits(scene, FRAME, scene.cameras[0], pixels)
    assert hit.any() and not hit.all(), "the sample must hold hits and misses"
    rows, cols = pixels[:, 1], pixels[:, 0]

    shifted = [m.copy() for m in maps]
    shifted[0][rows[hit][0], cols[hit][0], 0] += 1e-9
    assert any("feature error" in e for e in
               checks.check_render(scene, FRAME, shifted, np.random.default_rng(0)))

    lit = [m.copy() for m in maps]
    lit[0][rows[~hit][0], cols[~hit][0], :] = 1e-3
    assert any("missed pixels" in e for e in
               checks.check_render(scene, FRAME, lit, np.random.default_rng(0)))


def _flow_arrays(scene, frame, mode):
    labels, field = scene_sim.scene_ground_truth(scene, frame, flow_mode=mode)
    return {"labels": labels, "flow": field.flow.copy(), "occupied": field.occupied.copy(),
            "category": field.category}


def test_flow_check_rejects_corrupted_flow():
    scene = scene_sim.preset_scene("stream")
    for mode in ("occupancy-flow", "object-flow"):
        for frame in (0, FRAME):
            assert checks.check_flow(scene, frame, mode, _flow_arrays(scene, frame, mode)) == []

        arrays = _flow_arrays(scene, FRAME, mode)
        arrays["flow"][arrays["occupied"]] += 1e-8
        assert any("flow error" in e for e in checks.check_flow(scene, FRAME, mode, arrays))

        arrays = _flow_arrays(scene, FRAME, mode)
        arrays["occupied"][0, 0, 0] = True
        assert any("occupied" in e for e in checks.check_flow(scene, FRAME, mode, arrays))

        arrays = _flow_arrays(scene, 0, mode)
        arrays["flow"][arrays["occupied"]] = 0.5
        assert any("frame 0" in e and "not zero" in e
                   for e in checks.check_flow(scene, 0, mode, arrays))


def test_fd_check_rejects_corrupted_gradient():
    scene = scene_sim.preset_scene("training")
    config, settings = harness.resolve_preset("small", scene)
    rng = np.random.default_rng(1)
    params = init_model(rng, config, len(scene.cameras))
    # zero-weight heads put some star-pattern samples exactly on a validity
    # edge, where the loss is discontinuous; trained heads are not zero
    for name, arr in params.arrays():
        if name.endswith(("offset_head.weight", "logit_head.weight")):
            arr += rng.normal(0.0, 0.05, arr.shape)
    features, truth = [], []
    for f in range(2):
        features.append(scene_sim.render_all_cameras(scene, f))
        labels, field = scene_sim.scene_ground_truth(scene, f)
        truth.append(objective.FrameTruth(labels, flow_annotation.reduce_bev_flow(field)))
    grads, loss_at = checks.last_frame_problem(params, features, truth, scene,
                                               settings.loss_weights())
    before = {name: arr.copy() for name, arr in params.arrays()}

    def error(g):
        return checks.directional_fd_error(params.as_dict(), g, loss_at,
                                           np.random.default_rng(7))

    assert error(grads) <= checks.FD_TOL
    assert all(np.array_equal(arr, before[name]) for name, arr in params.arrays())
    assert error({k: v * 1.001 for k, v in grads.items()}) > checks.FD_TOL
    flipped = dict(grads, **{"query_table": -grads["query_table"]})
    assert error(flipped) > checks.FD_TOL


def test_benchmark_json_names_what_the_runs_report():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOADS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracer.PER_LAYER)
    assert {m["name"] for m in spec["end_to_end"]} == {"items_per_s", "op_ms_p50",
                                                        "peak_rss_mb", "setup_s"}


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"{name}: ok")
