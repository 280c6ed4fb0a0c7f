"""The working set of one attention training step at `training` size.

The learning-first forward projects its sample points through the frustum
cull (`geometry.project_rig_sparse`), and both attention backwards take
their position gradients per valid sample, so a training step builds no
dense (Q, M, K, J, 2) pixel-position array. Pinned here: the arrays a
forward keeps for its backward, and the traced peak of one forward plus
backward.
"""

import tracemalloc

import numpy as np
import pytest

from viewocc.harness import resolve_preset
from viewocc.scene_sim import preset_scene, render_all_cameras
from viewocc.view_attention import (attn_backward_batch, attn_forward_batch,
                                    init_proj_first_params, init_view_attn_params,
                                    proj_first_backward_batch, proj_first_forward_batch)

LAYERS = {
    "view-attn": (init_view_attn_params, attn_forward_batch, attn_backward_batch),
    "proj-first": (init_proj_first_params, proj_first_forward_batch, proj_first_backward_batch),
}
# traced peak bytes of one forward plus backward: the measured 7.75 MB
# (view-attn) and 7.24 MB (proj-first) with about 20% headroom; the dense
# steps these replaced peaked at 10.39 and 8.99 MB
PEAK_BOUND = {"view-attn": 9.3 * 2**20, "proj-first": 8.7 * 2**20}


def _step(method, seed=4):
    """A seeded `small` layer over the `training` scene's 1600 voxel queries
    (2 heads x 4 points x 6 cameras) and frame-1 features: (forward, backward
    of a forward's cache, the sample count Q * M * K * J)."""
    scene = preset_scene("training", seed=seed)
    config, _ = resolve_preset("small", scene)
    rng = np.random.default_rng([seed, 0xB0])
    init, forward, backward = LAYERS[method]
    params = init(rng, 16, heads=2, points=4, cameras=len(scene.cameras))
    for head, scale in (("offset_head", 0.15), ("logit_head", 0.5)):
        weight = getattr(params, head).weight
        weight[:] = rng.normal(0.0, scale / np.sqrt(weight.shape[1]), weight.shape)
    refs = config.grid.voxel_centers().reshape(-1, 3)
    queries = rng.normal(0.0, 0.3, (refs.shape[0], 16))
    maps = [f.data for f in render_all_cameras(scene, 1)]
    g_out = rng.normal(0.0, 1.0, queries.shape)
    rig = scene.cameras

    def run_forward():
        return forward(queries, refs, params, maps, rig, keep_cache=True)[1]

    def run_backward(cache):
        return backward(cache, params, maps, rig, g_out)

    samples = refs.shape[0] * params.heads * params.points * params.cameras
    return run_forward, run_backward, samples


@pytest.mark.parametrize("method", sorted(LAYERS))
def test_no_forward_cache_array_is_a_dense_pixel_position_array(method):
    run_forward, _, samples = _step(method)
    cache = run_forward()
    arrays = {name: a for name, a in cache.items() if isinstance(a, np.ndarray)}
    arrays.update((f"plan.{name}", a) for name, a in cache["plan"]._asdict().items())
    # the value-mapped pixel table grows with the images, not the samples
    del arrays["table"]
    for name, a in arrays.items():
        assert a.dtype != np.float64 or a.size < 2 * samples, (name, a.shape)


@pytest.mark.parametrize("method", sorted(LAYERS))
def test_one_forward_and_backward_stay_within_their_traced_peak(method):
    run_forward, run_backward, _ = _step(method)
    run_backward(run_forward())                    # warm: first-call allocations
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run_backward(run_forward())
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= PEAK_BOUND[method], f"{method} peaked at {peak / 2**20:.2f} MB"
