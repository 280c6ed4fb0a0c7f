"""The blocked aggregation core against its unblocked reference.

`read_plan`, `deform_aggregate_backward` and `gather_samples` gather corner
rows in blocks of whole output groups. Their outputs must equal the
unblocked bodies kept in `helpers` byte for byte, on both attention methods,
on temporal fusion at every queue depth, on an empty plan and with blocks
small enough that cuts fall inside groups; and a read must stay within its
block bound of working memory.
"""

import tracemalloc

import numpy as np
import pytest

from viewocc import view_attention
from viewocc.harness import resolve_preset
from viewocc.scene_sim import preset_scene, render_all_cameras
from viewocc.temporal_stream import init_temporal_params, temporal_forward_arrays
from viewocc.view_attention import (attn_forward_batch, deform_aggregate,
                                    deform_aggregate_backward, init_proj_first_params,
                                    init_view_attn_params, plan_dense,
                                    proj_first_forward_batch, read_plan)

from helpers import deform_aggregate_backward_reference, read_plan_reference

HEAD_SCALE = {"offset_head": 0.15, "logit_head": 0.5}


def _seed_heads(params, rng):
    for head, scale in HEAD_SCALE.items():
        weight = getattr(params, head).weight
        weight[:] = rng.normal(0.0, scale / np.sqrt(weight.shape[1]), weight.shape)


def _attention(method, preset, seed=4):
    """(cache, maps, value maps, output maps) of a seeded `small` layer over
    the preset scene's voxel queries and frame-1 features."""
    scene = preset_scene(preset, seed=seed)
    config, _ = resolve_preset("small", scene)
    rng = np.random.default_rng([seed, 0xB0])
    init = init_view_attn_params if method == "view-attn" else init_proj_first_params
    params = init(rng, 16, heads=2, points=4, cameras=len(scene.cameras))
    _seed_heads(params, rng)
    refs = config.grid.voxel_centers().reshape(-1, 3)
    queries = rng.normal(0.0, 0.3, (refs.shape[0], 16))
    maps = [f.data for f in render_all_cameras(scene, 1)]
    forward = attn_forward_batch if method == "view-attn" else proj_first_forward_batch
    _, cache = forward(queries, refs, params, maps, scene.cameras, keep_cache=True)
    return cache, maps, params.value_maps, params.output_maps


def _temporal(levels, seed=4, size=(20, 20)):
    """The same for the `small` preset's temporal fusion (28 channels,
    4 points, 4 levels) over `levels` memory frames."""
    rng = np.random.default_rng([seed, 0x7E])
    params = init_temporal_params(rng, 28, points=4, levels=4)
    _seed_heads(params, rng)
    current = rng.normal(0.0, 1.0, (*size, 28))
    warped = rng.normal(0.0, 1.0, (levels, *size, 28))
    _, cache = temporal_forward_arrays(current, warped, params, keep_cache=True)
    return cache, list(warped), [params.value_map], [params.output_map]


def _assert_bytes_equal(got, want):
    if isinstance(got, dict):
        assert sorted(got) == sorted(want)
        for key in got:
            _assert_bytes_equal(got[key], want[key])
    elif isinstance(got, (tuple, list)):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            _assert_bytes_equal(a, b)
    elif got is None:
        assert want is None
    else:
        # every output is float64; the unblocked read's per-head sums of a
        # plan without samples come out of bincount as int64 zeros, whose
        # bytes equal float64 zeros
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def _assert_core_matches_reference(cache, maps, value_maps, output_maps, seed=0):
    plan = cache["plan"]
    nq = cache["valid"].shape[0]
    _assert_bytes_equal(read_plan(plan, nq, maps, value_maps, output_maps),
                        read_plan_reference(plan, nq, maps, value_maps, output_maps))
    g_out = np.random.default_rng(seed).normal(0.0, 1.0, (nq, output_maps[0].out_dim))
    for want_maps in (False, True):
        _assert_bytes_equal(
            deform_aggregate_backward(cache, maps, value_maps, output_maps, g_out, want_maps),
            deform_aggregate_backward_reference(cache, maps, value_maps, output_maps, g_out,
                                                want_maps))


@pytest.mark.parametrize("preset", ["training", "stream"])
@pytest.mark.parametrize("method", ["view-attn", "proj-first"])
def test_attention_read_and_backward_equal_the_unblocked_core(method, preset):
    _assert_core_matches_reference(*_attention(method, preset))


@pytest.mark.parametrize("levels", [1, 2, 3, 4])
def test_temporal_read_and_backward_equal_the_unblocked_core(levels):
    _assert_core_matches_reference(*_temporal(levels))


def test_a_plan_without_valid_samples_reads_the_output_biases():
    rng = np.random.default_rng(3)
    params = init_view_attn_params(rng, 8, heads=2, points=2, cameras=2)
    for m in params.value_maps + params.output_maps:
        m.bias[:] = rng.normal(size=m.bias.shape)
    maps = [rng.normal(size=(5, 6, 8)), rng.normal(size=(4, 4, 8))]
    shape = (3, 2, 2, 2)
    attn = np.full(shape, 0.25)
    uv = np.full(shape, -1.0)                    # outside both maps
    plan = plan_dense(attn, uv, uv, [f.shape for f in maps])
    _, cache = deform_aggregate(plan, attn, maps, params.value_maps, params.output_maps)
    assert cache["plan"].attn.shape == (0,)
    _assert_core_matches_reference(cache, maps, params.value_maps, params.output_maps)
    out = read_plan(cache["plan"], 3, maps, params.value_maps, params.output_maps)[0]
    bias = sum(m.bias for m in params.output_maps)
    assert out.tobytes() == np.broadcast_to(bias, out.shape).tobytes()


def _cuts(group, width):
    return [(lo, hi) for lo, hi, _ in view_attention._corner_blocks(
        group, np.zeros((1, width)), np.zeros((4, group.shape[0]), dtype=np.int64))]


@pytest.mark.parametrize("case", ["view-attn", "proj-first", "temporal"])
def test_blocks_smaller_than_a_group_keep_every_byte(monkeypatch, case):
    # blocks of three samples of the value table; attention groups hold up
    # to 4 samples, temporal ones up to 8
    core = _temporal(2, size=(6, 7)) if case == "temporal" else _attention(case, "training")
    width = core[2][0].out_dim
    size = 3
    monkeypatch.setattr(view_attention, "_BLOCK_BYTES", size * 4 * 8 * width)
    group = core[0]["plan"].group
    cuts = _cuts(group, width)
    assert [lo for lo, _ in cuts[1:]] == [hi for _, hi in cuts[:-1]]
    assert cuts[0][0] == 0 and cuts[-1][1] == group.shape[0]
    starts = set(np.flatnonzero(np.diff(group)) + 1)
    assert all(hi in starts for _, hi in cuts[:-1])           # cuts at group starts only
    for lo, hi in cuts:
        assert hi - lo <= size or group[lo] == group[hi - 1]   # else one group alone
    # the case has a nominal cut inside a group and a group larger than a block
    assert any(lo + size < hi for lo, hi in cuts)
    assert any(hi - lo < size and hi < group.shape[0] for lo, hi in cuts)
    _assert_core_matches_reference(*core)


def test_block_cuts_on_a_hand_made_group_list(monkeypatch):
    monkeypatch.setattr(view_attention, "_BLOCK_BYTES", 4 * 32)       # 4 samples of width 1
    group = np.array([0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 2, 3, 4, 5, 6], dtype=np.int32)
    assert _cuts(group, 1) == [(0, 3), (3, 11), (11, 15), (15, 16)]
    assert _cuts(group[:0], 1) == []


def _read_peak(read, plan, nq, maps, value_maps, output_maps):
    """(result, traced bytes the call held at its peak beyond its result)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = read(plan, nq, maps, value_maps, output_maps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak - before - sum(a.nbytes for a in result)


def test_a_stream_size_temporal_read_holds_at_most_two_blocks_beyond_its_result():
    # the stream preset's BEV grid under a full 4-level queue, as a streamed
    # eval frame reads it
    scene = preset_scene("stream", seed=41)
    config, _ = resolve_preset("small", scene)
    cache, maps, value_maps, output_maps = _temporal(4, seed=41, size=config.grid.shape[1:])
    plan, nq = cache["plan"], cache["valid"].shape[0]
    assert plan.attn.shape[0] > 5000
    bound = 2 * view_attention._BLOCK_BYTES
    got, extra = _read_peak(read_plan, plan, nq, maps, value_maps, output_maps)
    assert extra <= bound, f"read held {extra} bytes beyond its result, bound {bound}"
    want, unblocked = _read_peak(read_plan_reference, plan, nq, maps, value_maps, output_maps)
    _assert_bytes_equal(got, want)
    assert unblocked > 2 * bound       # the unblocked read gathers all corner rows at once
