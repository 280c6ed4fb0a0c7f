"""The sampling-plan cache of the attention forwards.

Without a cache, `attn_forward_batch` and `proj_first_forward_batch` take
their sampling plan from a small LRU keyed by the values the plan depends
on. A plan hit must give the bytes of a fresh forward; any change to what
the plan depends on must build a new one, and nothing else may.
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
from viewocc import scene_sim, view_attention
from viewocc.cli import main as cli_main
from viewocc.encoder import init_model, save_params
from viewocc.harness import resolve_preset
from viewocc.scene_sim import observe, preset_scene, render_all_cameras, save_scene
from viewocc.view_attention import (attn_forward_batch, init_proj_first_params,
                                    init_view_attn_params, proj_first_forward_batch)

INIT = {"view-attn": init_view_attn_params, "proj-first": init_proj_first_params}


def _forward(method, queries, refs, params, features, rig, keep_cache=False):
    if method == "view-attn":
        return attn_forward_batch(queries, refs, params, features, rig, "one-dof",
                                  keep_cache=keep_cache)[0]
    return proj_first_forward_batch(queries, refs, params, features, rig,
                                    keep_cache=keep_cache)[0]


def _layer(method, seed):
    """An eval-size `small` layer with seeded offset and logit heads, its
    query table and the grid's voxel centers."""
    rng = np.random.default_rng([seed, 0xB0])
    params = INIT[method](rng, 16, heads=2, points=4, cameras=6)
    for head, scale in (("offset_head", 0.15), ("logit_head", 0.5)):
        weight = getattr(params, head).weight
        weight[:] = rng.normal(0.0, scale / np.sqrt(weight.shape[1]), weight.shape)
    queries = rng.normal(0.0, 0.3, (1600, 16))
    return params, queries


@pytest.fixture
def plans(monkeypatch):
    """An empty plan cache and a counter of the plans built."""
    monkeypatch.setattr(view_attention, "_plans", type(view_attention._plans)())
    built = []
    inner = view_attention.plan_samples

    def counted(*args, **kwargs):
        built.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(view_attention, "plan_samples", counted)
    return built


def _scene_inputs(preset, seed):
    scene = preset_scene(preset, seed=seed)
    config, _ = resolve_preset("small", scene)
    return scene, config.grid.voxel_centers().reshape(-1, 3)


def _assert_same(method, queries, refs, params, features, rig):
    cached = _forward(method, queries, refs, params, features, rig)
    fresh = _forward(method, queries, refs, params, features, rig, keep_cache=True)
    assert cached.tobytes() == fresh.tobytes()


@pytest.mark.parametrize("seed", [4, 7])
@pytest.mark.parametrize("preset", ["training", "stream"])
@pytest.mark.parametrize("method", ["view-attn", "proj-first"])
def test_plan_hit_is_byte_equal_to_a_fresh_forward_on_every_frame(plans, method, preset, seed):
    scene, refs = _scene_inputs(preset, seed)
    params, queries = _layer(method, seed)
    for frame in range(scene.num_frames):
        features = render_all_cameras(scene, frame)
        before = len(plans)
        _assert_same(method, queries, refs, params, features, scene.cameras)
        # the fresh forward builds one plan; the cached one only on frame 0
        assert len(plans) - before == (2 if frame == 0 else 1)
    assert len(view_attention._plans) == 1


def _bump(arr):
    arr += 1e-3


EDITS = {
    "query table": lambda q, p, rig, f: _bump(q),
    "offset head weight": lambda q, p, rig, f: _bump(p.offset_head.weight),
    "offset head bias": lambda q, p, rig, f: _bump(p.offset_head.bias),
    "logit head weight": lambda q, p, rig, f: _bump(p.logit_head.weight),
    "logit head bias": lambda q, p, rig, f: _bump(p.logit_head.bias),
    "intrinsics": lambda q, p, rig, f: rig.__setitem__(
        0, dataclasses.replace(rig[0], fx=rig[0].fx * 1.01)),
    "extrinsics": lambda q, p, rig, f: _bump(rig[1].extrinsics.translation),
    "map size": lambda q, p, rig, f: f.__setitem__(2, f[2][:-1]),
}


@pytest.mark.parametrize("method", ["view-attn", "proj-first"])
@pytest.mark.parametrize("edit", sorted(EDITS))
def test_an_in_place_change_the_plan_depends_on_builds_a_new_plan(plans, method, edit):
    scene, refs = _scene_inputs("stream", 4)
    params, queries = _layer(method, 4)
    features = [f.data.copy() for f in render_all_cameras(scene, 2)]
    rig = scene.cameras
    first = _forward(method, queries, refs, params, features, rig)
    EDITS[edit](queries, params, rig, features)
    before = len(plans)
    cached = _forward(method, queries, refs, params, features, rig)
    assert len(plans) == before + 1
    fresh = _forward(method, queries, refs, params, features, rig, keep_cache=True)
    assert cached.tobytes() == fresh.tobytes()
    assert cached.shape != first.shape or cached.tobytes() != first.tobytes()


REUSES = {
    "value map": lambda p, f: _bump(p.value_maps[1].weight),
    "value bias": lambda p, f: _bump(p.value_maps[0].bias),
    "output map": lambda p, f: _bump(p.output_maps[0].weight),
    "output bias": lambda p, f: _bump(p.output_maps[1].bias),
    "features": lambda p, f: [np.multiply(d, 1.5, out=d) for d in f],
}


@pytest.mark.parametrize("method", ["view-attn", "proj-first"])
@pytest.mark.parametrize("edit", sorted(REUSES))
def test_a_change_the_plan_does_not_depend_on_reuses_the_plan(plans, method, edit):
    scene, refs = _scene_inputs("stream", 7)
    params, queries = _layer(method, 7)
    features = [f.data.copy() for f in render_all_cameras(scene, 1)]
    first = _forward(method, queries, refs, params, features, scene.cameras)
    REUSES[edit](params, features)
    before = len(plans)
    cached = _forward(method, queries, refs, params, features, scene.cameras)
    assert len(plans) == before
    fresh = _forward(method, queries, refs, params, features, scene.cameras, keep_cache=True)
    assert cached.tobytes() == fresh.tobytes()
    assert cached.tobytes() != first.tobytes()


def test_the_plan_cache_is_bounded_and_read_only(plans):
    scene, refs = _scene_inputs("stream", 4)
    features = render_all_cameras(scene, 0)
    params, queries = _layer("view-attn", 4)
    for i in range(view_attention._PLAN_CACHE_SIZE + 3):
        _forward("view-attn", queries + i, refs, params, features, scene.cameras)
        assert len(view_attention._plans) == min(i + 1, view_attention._PLAN_CACHE_SIZE)
    for plan in view_attention._plans.values():
        for arr in plan:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr.reshape(-1)[:1] = 0


def test_a_forward_with_a_cache_neither_reads_nor_fills_the_plan_cache(plans):
    scene, refs = _scene_inputs("stream", 7)
    features = render_all_cameras(scene, 3)
    for method in ("view-attn", "proj-first"):
        params, queries = _layer(method, 7)
        view_attention._plans.clear()
        fresh = _forward(method, queries, refs, params, features, scene.cameras, True)
        assert not view_attention._plans
        # poison the cached plan: a forward that read it would see zero weights
        _forward(method, queries, refs, params, features, scene.cameras)
        (key, entry), = view_attention._plans.items()
        attn = entry[5]
        attn.flags.writeable = True
        attn[:] = 0.0
        poisoned = _forward(method, queries, refs, params, features, scene.cameras)
        assert poisoned.tobytes() != fresh.tobytes()
        again = _forward(method, queries, refs, params, features, scene.cameras, True)
        assert again.tobytes() == fresh.tobytes()
        assert list(view_attention._plans) == [key]


def test_plans_never_evict_ray_tables(plans):
    scene, refs = _scene_inputs("stream", 4)
    observe(scene, 0)
    features = render_all_cameras(scene, 0)
    tables = list(scene_sim._tables)
    assert tables
    for method in ("view-attn", "proj-first"):
        params, queries = _layer(method, 4)
        for i in range(2 * view_attention._PLAN_CACHE_SIZE):
            _forward(method, queries + i, refs, params, features, scene.cameras)
    assert list(scene_sim._tables) == tables
    assert len(view_attention._plans) == view_attention._PLAN_CACHE_SIZE


def _eval_argv(base, model, queue_in=None):
    argv = ["eval", "--scene", base / "scene.json", "--params", base / model, "--frames", "0:2",
            "--queue-out", base / f"{model}.queue"]
    return argv + (["--queue-in", queue_in] if queue_in else [])


def _outputs(base, model) -> bytes:
    return b"".join((base / f"{model}.queue{suffix}").read_bytes() for suffix in (".json", ".bin"))


def _report(text: str) -> dict:
    report = json.loads(text)
    report.pop("wall_clock_s")
    report.pop("queue_out")
    return report


def test_in_process_evals_of_different_params_match_fresh_processes(tmp_path):
    scene = preset_scene("stream", seed=4)
    save_scene(tmp_path / "scene.json", scene)
    config, _ = resolve_preset("small", scene)
    for model in ("a", "b"):
        params = init_model(np.random.default_rng(ord(model)), config, len(scene.cameras))
        for layer in params.layers:
            _bump(layer.offset_head.weight)
            layer.logit_head.weight[:] = 0.1 * np.sin(np.arange(layer.logit_head.weight.size)
                                                      ).reshape(layer.logit_head.weight.shape)
        save_params(tmp_path / model, params)

    package_root = str(Path(viewocc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p))
    fresh = {}
    for model in ("a", "b"):
        result = subprocess.run([sys.executable, "-m", "viewocc.cli"]
                                + [str(a) for a in _eval_argv(tmp_path, model)],
                                env=env, capture_output=True, text=True, cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        fresh[model] = (_report(result.stdout), _outputs(tmp_path, model))

    # a, b, then a again from its cached plan: each as in a process of its own
    for model in ("a", "b", "a"):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert cli_main([str(a) for a in _eval_argv(tmp_path, model)]) == 0
        assert (_report(stdout.getvalue()), _outputs(tmp_path, model)) == fresh[model]
