import numpy as np
import pytest

from viewocc.errors import ContractViolation
from viewocc.geometry import Pose, relative_pose
from viewocc.temporal_stream import (BEVGrid, MemoryQueue, check_planar, init_temporal_params,
                                     load_queue, save_queue, temporal_backward_arrays,
                                     temporal_forward_arrays, warp_bev, warp_queue)

from helpers import bilinear_many, check_grad_array


def _softmax(z):
    e = np.exp(z - z.max())
    return e / e.sum()


def reference_temporal(current, warped, params):
    """Cell-by-cell loop reimplementation of the temporal fusion block."""
    h, w, c = current.shape
    levels = warped.shape[0]
    p_n, n_levels = params.points, params.levels
    out = np.zeros_like(current)
    for row in range(h):
        for col in range(w):
            cell = current[row, col]
            off = (params.offset_head.weight @ cell
                   + params.offset_head.bias).reshape(p_n, n_levels, 2)[:, :levels]
            logits = (params.logit_head.weight @ cell
                      + params.logit_head.bias).reshape(p_n, n_levels)[:, :levels]
            attn = _softmax(logits.reshape(-1)).reshape(p_n, levels)
            agg = np.zeros(c)
            for p in range(p_n):
                for li in range(levels):
                    vals, ok = bilinear_many(warped[li], np.array(col + off[p, li, 0]),
                                             np.array(row + off[p, li, 1]))
                    if not ok:
                        continue
                    agg = agg + attn[p, li] * (params.value_map.weight @ vals
                                               + params.value_map.bias)
            fused = cell + params.output_map.weight @ agg + params.output_map.bias
            out[row, col] = params.feed_forward.weight @ fused + params.feed_forward.bias
    return out


# --- warping -----------------------------------------------------------------


def test_warp_identity_is_bitwise():
    rng = np.random.default_rng(2)
    bev = BEVGrid(rng.normal(size=(6, 6, 3)), 0.5, (-1.5, -1.5))
    warped = warp_bev(bev, Pose.identity())
    np.testing.assert_array_equal(warped.data, bev.data)


def test_warp_translation_shifts_cells():
    # rel maps previous coords to current coords: +1 cell along x means every
    # current cell pulls the previous cell one index to its left
    rng = np.random.default_rng(3)
    prev = rng.normal(size=(4, 6, 2))
    bev = BEVGrid(prev, 0.5, (0.0, 0.0))
    warped = warp_bev(bev, Pose(np.eye(3), (0.5, 0.0, 0.0))).data
    np.testing.assert_allclose(warped[:, 1:], prev[:, :-1], atol=1e-12)
    np.testing.assert_array_equal(warped[:, 0], 0.0)


def test_warp_quarter_turn_permutes_cells():
    rng = np.random.default_rng(4)
    prev = rng.normal(size=(6, 6, 1))
    bev = BEVGrid(prev, 0.5, (-1.5, -1.5))
    warped = warp_bev(bev, Pose.from_z_rotation(np.pi / 2.0)).data
    for i in range(6):
        for j in range(6):
            np.testing.assert_allclose(warped[i, j], prev[5 - j, i], atol=1e-12)


def _warp_reference(bev: BEVGrid, rel: Pose):
    """(warped data, iu, iv): each cell center pulled through rel's inverse
    to (iu, iv) in the older grid, then `helpers.bilinear_many`."""
    inv = rel.inverse()
    xs, ys = bev.cell_centers()
    xg, yg = np.meshgrid(xs, ys)
    src_x = inv.rotation[0, 0] * xg + inv.rotation[0, 1] * yg + inv.translation[0]
    src_y = inv.rotation[1, 0] * xg + inv.rotation[1, 1] * yg + inv.translation[1]
    iu = (src_x - bev.origin[0]) / bev.pitch - 0.5
    iv = (src_y - bev.origin[1]) / bev.pitch - 0.5
    return bilinear_many(bev.data, iu, iv)[0], iu, iv


def test_warp_equals_the_reference_sampler_bit_for_bit():
    rng = np.random.default_rng(11)
    # on a 7 x 6 grid of unit pitch at the origin, a shift of -1 cell puts a
    # column on u = W-1 (a row on v = H-1), a shift of one ulp of W-0.5 puts
    # the last column one ulp beyond it, and a shift of 50 cells is far out
    ulp = np.spacing(5.5)
    edges = [(-1.0, 0.0), (0.0, -1.0), (-ulp, 0.0), (0.0, -np.spacing(6.5)), (-1.0, -1.0),
             (50.0, -50.0), (-ulp, -1.0)]
    cases = [(BEVGrid(rng.normal(size=(7, 6, 5)), 1.0, (0.0, 0.0)), Pose(np.eye(3), (x, y, 0.0)))
             for x, y in edges]
    for _ in range(20):
        h, w = rng.integers(2, 12, size=2)
        bev = BEVGrid(rng.normal(size=(h, w, rng.integers(1, 9))), rng.uniform(0.1, 1.0),
                      rng.uniform(-3.0, 3.0, size=2))
        t = (*rng.normal(0.0, 1.5, size=2), 0.0)
        cases.append((bev, Pose.from_z_rotation(rng.uniform(-np.pi, np.pi), t)))
    seen = set()
    for bev, rel in cases:
        want, iu, iv = _warp_reference(bev, rel)
        assert warp_bev(bev, rel).data.tobytes() == want.tobytes()
        h, w = bev.data.shape[:2]
        seen.update(name for name, hit in [
            ("u = W-1", iu == w - 1), ("v = H-1", iv == h - 1),
            ("u one ulp beyond", iu == np.nextafter(w - 1.0, np.inf)),
            ("v one ulp beyond", iv == np.nextafter(h - 1.0, np.inf)),
            ("far outside", (iu > 2 * w) | (iv < -h))] if hit.any())
    assert len(seen) == 5, seen


def test_warp_rejects_non_planar_motion():
    roll = np.array([[1.0, 0.0, 0.0],
                     [0.0, np.cos(0.1), -np.sin(0.1)],
                     [0.0, np.sin(0.1), np.cos(0.1)]])
    with pytest.raises(ContractViolation):
        check_planar(Pose(roll, np.zeros(3)))
    bev = BEVGrid(np.zeros((4, 4, 1)), 0.5, (0.0, 0.0))
    with pytest.raises(ContractViolation):
        warp_bev(bev, Pose(roll, np.zeros(3)))


# --- memory queue ------------------------------------------------------------


def _bev_of(value: float) -> BEVGrid:
    return BEVGrid(np.full((3, 3, 2), value), 0.5, (0.0, 0.0))


def test_queue_fifo_keeps_most_recent():
    queue = MemoryQueue(4)
    for i in range(10):
        queue.push(_bev_of(float(i)), Pose(np.eye(3), (float(i), 0.0, 0.0)))
    assert len(queue) == 4
    stored = [bev.data[0, 0, 0] for bev, _ in queue.entries]
    assert stored == [6.0, 7.0, 8.0, 9.0]  # oldest first
    assert [p.translation[0] for _, p in queue.entries] == [6.0, 7.0, 8.0, 9.0]


def test_queue_rejects_layout_mismatch():
    queue = MemoryQueue(2)
    queue.push(_bev_of(1.0), Pose.identity())
    with pytest.raises(ContractViolation):
        queue.push(BEVGrid(np.zeros((3, 3, 2)), 0.25, (0.0, 0.0)), Pose.identity())


def test_queue_save_load_round_trip(tmp_path):
    queue = MemoryQueue(3)
    rng = np.random.default_rng(5)
    for i in range(3):
        queue.push(BEVGrid(rng.normal(size=(3, 3, 2)), 0.5, (0.0, 0.0)),
                   Pose.from_z_rotation(0.1 * i, (float(i), 0.0, 0.0)))
    prefix = str(tmp_path / "queue")
    save_queue(prefix, queue)
    again = load_queue(prefix)
    assert again.capacity == 3 and len(again) == 3
    for (b1, p1), (b2, p2) in zip(queue.entries, again.entries):
        np.testing.assert_array_equal(b1.data, b2.data)
        np.testing.assert_array_equal(p1.rotation, p2.rotation)
        np.testing.assert_array_equal(p1.translation, p2.translation)


# --- temporal attention ------------------------------------------------------


def test_temporal_matches_reference_loop():
    rng = np.random.default_rng(7)
    params = init_temporal_params(rng, channels=4, points=2, levels=3,
                                  star_radius_cells=0.7)
    params.offset_head.weight[:] = rng.normal(0.0, 0.05, params.offset_head.weight.shape)
    params.logit_head.weight[:] = rng.normal(0.0, 0.3, params.logit_head.weight.shape)
    current = rng.normal(size=(4, 5, 4))
    for n_levels in (1, 2, 3):  # shorter queue than configured levels
        warped = rng.normal(size=(n_levels, 4, 5, 4))
        out, _ = temporal_forward_arrays(current, warped, params)
        np.testing.assert_allclose(out, reference_temporal(current, warped, params),
                                   atol=1e-12)


def test_temporal_through_queue_pipeline():
    rng = np.random.default_rng(8)
    params = init_temporal_params(rng, channels=3, points=2, levels=4)
    layout = dict(pitch=0.5, origin=(0.0, 0.0))
    queue = MemoryQueue(4)
    poses = [Pose(np.eye(3), (0.1 * i, 0.0, 0.0)) for i in range(3)]
    for i in range(2):
        queue.push(BEVGrid(rng.normal(size=(4, 4, 3)), **layout), poses[i])
    current = BEVGrid(rng.normal(size=(4, 4, 3)), **layout)
    warped = warp_queue(queue, poses[2], current)
    out, _ = temporal_forward_arrays(current.data, warped, params)
    expect = reference_temporal(current.data, warped, params)
    np.testing.assert_allclose(out, expect, atol=1e-12)
    # oldest frame first: warped[0] must come from the first pushed grid
    rel = relative_pose(poses[2], poses[0])
    np.testing.assert_array_equal(warped[0],
                                  warp_bev(queue.entries[0][0], rel).data)


def test_temporal_gradients_match_fd():
    rng = np.random.default_rng(9)
    params = init_temporal_params(rng, channels=4, points=2, levels=2,
                                  star_radius_cells=0.7)
    params.offset_head.weight[:] = rng.normal(0.0, 0.05, params.offset_head.weight.shape)
    params.logit_head.weight[:] = rng.normal(0.0, 0.2, params.logit_head.weight.shape)
    current = rng.normal(size=(3, 4, 4))
    warped = rng.normal(size=(2, 3, 4, 4))

    def loss():
        out, _ = temporal_forward_arrays(current, warped, params)
        return float((out ** 2).sum())

    out, cache = temporal_forward_arrays(current, warped, params, keep_cache=True)
    grads, g_current = temporal_backward_arrays(cache, params, 2.0 * out)
    pdict = dict(params.arrays())
    for name in ("offset_head.weight", "logit_head.weight", "value_map.weight",
                 "output_map.weight", "feed_forward.weight", "feed_forward.bias"):
        check_grad_array(loss, pdict[name], grads[name], rng, tol=1e-5)
    check_grad_array(loss, current, g_current, rng, tol=1e-5)
