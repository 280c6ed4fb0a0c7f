import numpy as np
import pytest

from viewocc.errors import ContractViolation
from viewocc.geometry import CameraModel, Pose
from viewocc.numerics import FeatureMap
from viewocc.view_attention import (AttnParams, QueryContext, attn_backward_batch,
                                    attn_forward_batch, camera_coverage, init_proj_first_params,
                                    init_view_attn_params, proj_first_backward_batch,
                                    proj_first_forward_batch, projection_first_forward,
                                    star_bias, view_attn_forward)

from helpers import bilinear_sample, check_grad_array, pinhole_project, view_rotation

AXES = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])


def _camera(yaw: float = 0.0, fx: float = 10.0, size: int = 5,
            position=(0.0, 0.0, 0.0)) -> CameraModel:
    rot = AXES @ Pose.from_z_rotation(yaw).rotation.T
    trans = -rot @ np.asarray(position, dtype=float)
    c = (size - 1) / 2.0
    return CameraModel(fx=fx, fy=fx, cx=c, cy=c, width=size, height=size,
                       extrinsics=Pose(rot, trans), name=f"cam{yaw:.2f}")


def _softmax(z):
    e = np.exp(z - z.max())
    return e / e.sum()


def reference_view_attn(query, ref, params: AttnParams, features, rig, mode):
    """Scalar-loop reimplementation of the strategy, kept deliberately naive."""
    m_heads, k_pts, n_cams = params.heads, params.points, params.cameras
    off = (params.offset_head.weight @ query + params.offset_head.bias).reshape(
        m_heads, k_pts, 3)
    logits = (params.logit_head.weight @ query + params.logit_head.bias).reshape(
        m_heads, k_pts * n_cams)
    rot = view_rotation(ref, mode)
    out = np.zeros(params.channels)
    for m in range(m_heads):
        attn = _softmax(logits[m]).reshape(k_pts, n_cams)
        head = np.zeros(params.head_dim)
        for k in range(k_pts):
            p_s = ref + rot @ off[m, k]
            for j, cam in enumerate(rig):
                uv, _, ok = pinhole_project(cam, p_s)
                if not ok:
                    continue
                feat, valid = bilinear_sample(features[j], uv)
                if not valid:
                    continue
                value = params.value_maps[m].weight @ feat + params.value_maps[m].bias
                head = head + attn[k, j] * value
        out = out + params.output_maps[m].weight @ head + params.output_maps[m].bias
    return out


def reference_proj_first(query, ref, params: AttnParams, features, rig):
    m_heads, k_pts, n_cams = params.heads, params.points, params.cameras
    off = (params.offset_head.weight @ query + params.offset_head.bias).reshape(
        m_heads, k_pts, 2)
    logits = (params.logit_head.weight @ query + params.logit_head.bias).reshape(
        m_heads, k_pts, n_cams)
    vis = []
    ref_uv = []
    for cam in rig:
        uv, _, ok = pinhole_project(cam, ref)
        vis.append(ok)
        ref_uv.append(uv)
    if not any(vis):
        return np.zeros(params.channels)
    out = np.zeros(params.channels)
    for m in range(m_heads):
        masked = np.where(np.array(vis)[None, :], logits[m], -np.inf)
        attn = _softmax(masked.reshape(-1)).reshape(k_pts, n_cams)
        head = np.zeros(params.head_dim)
        for k in range(k_pts):
            for j, cam in enumerate(rig):
                if not vis[j]:
                    continue
                feat, valid = bilinear_sample(features[j], ref_uv[j] + off[m, k])
                if not valid:
                    continue  # out-of-image sample: zero feature, weight kept
                value = params.value_maps[m].weight @ feat + params.value_maps[m].bias
                head = head + attn[k, j] * value
        out = out + params.output_maps[m].weight @ head + params.output_maps[m].bias
    return out


def _random_features(rng, rig, channels):
    return [FeatureMap(rng.normal(size=(cam.height, cam.width, channels))) for cam in rig]


# --- hand-frozen micro case --------------------------------------------------
# One head, one point, one camera (forward axes, fx=10, 5x5, principal 2,2).
# Query offsets come from a zero weight and bias (0.3, 0, 0); ref (2, 0, 0) has
# view angle 0 so the sample point is (2.3, 0, 0), projecting to pixel (2, 2).
# The map holds 4.0 there; value map 2x + 0.5 -> 8.5; single-sample softmax is
# 1; output map 1x - 1 -> 7.5.


def _micro_params(cameras: int) -> AttnParams:
    from viewocc.numerics import AffineMap
    return AttnParams(
        heads=1, points=1, cameras=cameras,
        value_maps=[AffineMap(np.array([[2.0]]), np.array([0.5]))],
        output_maps=[AffineMap(np.array([[1.0]]), np.array([-1.0]))],
        offset_head=AffineMap(np.zeros((3, 1)), np.array([0.3, 0.0, 0.0])),
        logit_head=AffineMap(np.zeros((cameras, 1)), np.zeros(cameras)),
    )


def _micro_map() -> FeatureMap:
    data = np.zeros((5, 5, 1))
    data[2, 2, 0] = 4.0
    return FeatureMap(data)


def _cameras_read(trace) -> int:
    return int(np.any(trace.in_view, axis=(0, 1)).sum())


def test_hand_frozen_single_camera():
    rig = [_camera(0.0)]
    out, trace = view_attn_forward(QueryContext(np.array([1.0]), np.array([2.0, 0.0, 0.0])),
                                   _micro_params(1), [_micro_map()], rig)
    assert abs(out[0] - 7.5) < 1e-12
    assert _cameras_read(trace) == 1


def test_invalid_camera_term_dropped_without_renormalizing():
    # second camera faces -x and cannot see the sample; softmax still splits
    # the mass over both cameras, so the output halves instead of renormalizing
    rig = [_camera(0.0), _camera(np.pi)]
    out, trace = view_attn_forward(QueryContext(np.array([1.0]), np.array([2.0, 0.0, 0.0])),
                                   _micro_params(2), [_micro_map(), _micro_map()], rig)
    # weight 0.5 on the visible sample: 1.0 * (0.5 * 8.5) - 1.0 = 3.25
    assert abs(out[0] - 3.25) < 1e-12
    assert _cameras_read(trace) == 1


def test_all_samples_invalid_leaves_output_biases():
    rig = [_camera(0.0)]
    params = _micro_params(1)
    ctx = QueryContext(np.array([1.0]), np.array([-2.0, 0.0, 0.0]))
    out, trace = view_attn_forward(ctx, params, [_micro_map()], rig)
    assert abs(out[0] - (-1.0)) < 1e-15  # only the output bias survives
    assert _cameras_read(trace) == 0


# --- reference-loop oracle over random instances -----------------------------


def test_batch_matches_reference_loop():
    rng = np.random.default_rng(42)
    rig = [_camera(0.0, fx=8.0, size=9), _camera(np.pi / 3.0, fx=8.0, size=9),
           _camera(-np.pi / 2.0, fx=8.0, size=9)]
    channels = 8
    for mode in ("one-dof", "two-dof", "ego"):
        params = init_view_attn_params(rng, channels, heads=2, points=3, cameras=3,
                                       star_radius=0.4)
        # give every head nonzero offset and logit dependence on the query
        params.offset_head.weight[:] = rng.normal(0.0, 0.05, params.offset_head.weight.shape)
        params.logit_head.weight[:] = rng.normal(0.0, 0.3, params.logit_head.weight.shape)
        features = _random_features(rng, rig, channels)
        queries = rng.normal(size=(6, channels))
        refs = rng.normal(size=(6, 3)) * np.array([1.5, 1.5, 0.3]) + np.array([1.0, 0.0, 0.0])
        out, _ = attn_forward_batch(queries, refs, params, features, rig, mode)
        for i in range(queries.shape[0]):
            expect = reference_view_attn(queries[i], refs[i], params, features, rig, mode)
            np.testing.assert_allclose(out[i], expect, atol=1e-12)


def test_proj_first_matches_reference_loop():
    rng = np.random.default_rng(17)
    rig = [_camera(0.0, fx=8.0, size=9), _camera(np.pi / 2.0, fx=8.0, size=9)]
    channels = 6
    params = init_proj_first_params(rng, channels, heads=2, points=2, cameras=2,
                                    star_radius_px=1.5)
    params.offset_head.weight[:] = rng.normal(0.0, 0.05, params.offset_head.weight.shape)
    params.logit_head.weight[:] = rng.normal(0.0, 0.3, params.logit_head.weight.shape)
    features = _random_features(rng, rig, channels)
    queries = rng.normal(size=(8, channels))
    refs = np.concatenate([rng.normal(size=(6, 3)) * np.array([1.5, 1.5, 0.3])
                           + np.array([1.2, 0.4, 0.0]),
                           np.array([[-3.0, -3.0, 0.0], [-2.0, -0.5, 0.0]])])
    out, _ = proj_first_forward_batch(queries, refs, params, features, rig)
    for i in range(queries.shape[0]):
        expect = reference_proj_first(queries[i], refs[i], params, features, rig)
        np.testing.assert_allclose(out[i], expect, atol=1e-12)


def _seeded_small_preset(init, rng):
    """`small` preset attention layer with seeded offset and logit heads."""
    params = init(rng, 16, heads=2, points=4, cameras=6)
    for head, scale in (("offset_head", 0.15), ("logit_head", 0.5)):
        weight = getattr(params, head).weight
        weight[:] = rng.normal(0.0, scale / np.sqrt(weight.shape[1]), weight.shape)
    return params


def test_sparse_training_scene_matches_reference_loops():
    # the regime training runs in: six cameras, about 6% of the dense
    # (query, head, point, camera) samples valid, many queries reading none
    from viewocc.harness import resolve_preset
    from viewocc.scene_sim import preset_scene, render_all_cameras
    scene = preset_scene("training", seed=0)
    config, _ = resolve_preset("small", scene)
    rig = scene.cameras
    features = render_all_cameras(scene, 0)
    refs = config.grid.voxel_centers().reshape(-1, 3)[::25]
    rng = np.random.default_rng(8)
    queries = rng.normal(0.0, 0.3, (refs.shape[0], 16))
    assert refs.shape[0] >= 64

    va = _seeded_small_preset(init_view_attn_params, rng)
    out, cache = attn_forward_batch(queries, refs, va, features, rig, "one-dof",
                                    keep_cache=True)
    reads = cache["valid"].any(axis=(1, 2, 3))
    assert reads.any() and not reads.all()
    assert cache["valid"].mean() < 0.2
    for i in range(refs.shape[0]):
        expect = reference_view_attn(queries[i], refs[i], va, features, rig, "one-dof")
        np.testing.assert_allclose(out[i], expect, rtol=0.0, atol=1e-12)

    pf = _seeded_small_preset(init_proj_first_params, rng)
    out, cache = proj_first_forward_batch(queries, refs, pf, features, rig, keep_cache=True)
    reads = cache["sample_ok"].any(axis=(1, 2, 3))
    assert reads.any() and not reads.all()
    for i in range(refs.shape[0]):
        expect = reference_proj_first(queries[i], refs[i], pf, features, rig)
        np.testing.assert_allclose(out[i], expect, rtol=0.0, atol=1e-12)


def test_proj_first_hard_zero_when_unseen():
    rng = np.random.default_rng(3)
    rig = [_camera(0.0)]
    channels = 4
    params = init_proj_first_params(rng, channels, heads=2, points=2, cameras=1)
    # nonzero biases everywhere: they must be skipped, not emitted
    for m in params.value_maps + params.output_maps:
        m.bias[:] = rng.normal(size=m.bias.shape)
    features = _random_features(rng, rig, channels)
    out, _ = proj_first_forward_batch(rng.normal(size=(1, channels)),
                                      np.array([[-2.0, 0.0, 0.0]]), params, features, rig)
    np.testing.assert_array_equal(out[0], np.zeros(channels))


def test_star_bias_layout():
    bias = star_bias(4, 0.5, dims=3).reshape(4, 3)
    np.testing.assert_allclose(bias[0], [0.5, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(bias[1], [0.0, 0.5, 0.0], atol=1e-15)
    np.testing.assert_allclose(np.linalg.norm(bias[:, :2], axis=1), 0.5, atol=1e-15)
    np.testing.assert_array_equal(bias[:, 2], 0.0)


def test_camera_coverage_on_surround_rig():
    from viewocc.scene_sim import build_rig
    rig = build_rig("surround6", fov_deg=55.0)
    # azimuth 0 at 3 m: inside cam0 only (neighbors are 60 deg away, half fov 27.5)
    assert camera_coverage(np.array([3.0, 0.0, 0.8]), rig) == 1
    # azimuth 30 deg falls in the gap between cam0 and cam1
    az = np.radians(30.0)
    assert camera_coverage(np.array([3.0 * np.cos(az), 3.0 * np.sin(az), 0.8]), rig) == 0


def test_shape_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ContractViolation):
        init_view_attn_params(rng, channels=7, heads=2)  # 7 % 2 != 0
    # one params class serves both strategies; its offset width must match
    rig = [_camera(0.0)]
    features = _random_features(rng, rig, 4)
    args = (np.zeros((1, 4)), np.array([[2.0, 0.0, 0.0]]))
    with pytest.raises(ContractViolation):
        attn_forward_batch(*args, init_proj_first_params(rng, 4, 2, 1, 1), features, rig)
    with pytest.raises(ContractViolation):
        proj_first_forward_batch(*args, init_view_attn_params(rng, 4, 2, 1, 1), features, rig)


# --- gradients ---------------------------------------------------------------


def _loss_through(forward, make_args):
    out, _ = forward(*make_args())
    return float((out ** 2).sum())


def test_view_attn_gradients_match_fd():
    rng = np.random.default_rng(101)
    rig = [_camera(0.0, fx=8.0, size=9), _camera(np.pi / 2.0, fx=8.0, size=9)]
    channels = 6
    params = init_view_attn_params(rng, channels, heads=2, points=2, cameras=2,
                                   star_radius=0.45)
    params.offset_head.weight[:] = rng.normal(0.0, 0.05, params.offset_head.weight.shape)
    params.logit_head.weight[:] = rng.normal(0.0, 0.3, params.logit_head.weight.shape)
    features = _random_features(rng, rig, channels)
    queries = rng.normal(size=(3, channels))
    refs = np.array([[1.4, 0.3, 0.1], [0.8, 1.1, -0.2], [1.9, -0.6, 0.0]])

    def loss():
        out, _ = attn_forward_batch(queries, refs, params, features, rig, "one-dof")
        return float((out ** 2).sum())

    out, cache = attn_forward_batch(queries, refs, params, features, rig, "one-dof",
                                    keep_cache=True)
    grads, g_queries, f_grads = attn_backward_batch(cache, params, features, rig,
                                                    2.0 * out, want_feature_grads=True)
    pdict = dict(params.arrays())
    for name in ("offset_head.weight", "logit_head.weight", "value_maps.0.weight",
                 "value_maps.1.bias", "output_maps.0.weight", "output_maps.1.bias"):
        check_grad_array(loss, pdict[name], grads[name], rng, tol=1e-5)
    check_grad_array(loss, queries, g_queries, rng, tol=1e-5)
    check_grad_array(loss, features[0].data, f_grads[0], rng, tol=1e-5)


def test_proj_first_gradients_match_fd():
    rng = np.random.default_rng(55)
    rig = [_camera(0.0, fx=8.0, size=9), _camera(np.pi / 2.0, fx=8.0, size=9)]
    channels = 6
    params = init_proj_first_params(rng, channels, heads=2, points=2, cameras=2,
                                    star_radius_px=1.3)
    params.offset_head.weight[:] = rng.normal(0.0, 0.05, params.offset_head.weight.shape)
    params.logit_head.weight[:] = rng.normal(0.0, 0.3, params.logit_head.weight.shape)
    features = _random_features(rng, rig, channels)
    queries = rng.normal(size=(3, channels))
    refs = np.array([[1.4, 0.3, 0.1], [0.4, 1.3, -0.2], [1.9, -0.6, 0.0]])

    def loss():
        out, _ = proj_first_forward_batch(queries, refs, params, features, rig)
        return float((out ** 2).sum())

    out, cache = proj_first_forward_batch(queries, refs, params, features, rig,
                                          keep_cache=True)
    grads, g_queries, f_grads = proj_first_backward_batch(cache, params, features, rig,
                                                          2.0 * out,
                                                          want_feature_grads=True)
    pdict = dict(params.arrays())
    for name in ("offset_head.weight", "logit_head.weight", "value_maps.0.weight",
                 "output_maps.1.weight"):
        check_grad_array(loss, pdict[name], grads[name], rng, tol=1e-5)
    check_grad_array(loss, queries, g_queries, rng, tol=1e-5)
    check_grad_array(loss, features[0].data, f_grads[0], rng, tol=1e-5)
