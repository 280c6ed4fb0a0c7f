import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viewocc.errors import ContractViolation
from viewocc.numerics import FLOAT, AffineMap, FeatureMap, softmax_backward, softmax_norm
from viewocc.view_attention import deform_aggregate, deform_aggregate_backward, plan_dense

from helpers import bilinear_many, bilinear_sample, central_diff, rel_err


# --- bilinear sampling -------------------------------------------------------
# data column-major in u: value(u, v) interpolates the four surrounding pixels.
# For data [[1, 3], [2, 5]] (row v=0: 1,3; row v=1: 2,5) at (u, v) = (0.25, 0.5):
#   top row:    1 + 0.25 * (3 - 1) = 1.5
#   bottom row: 2 + 0.25 * (5 - 2) = 2.75
#   blend:      0.5 * 1.5 + 0.5 * 2.75 = 2.125

DATA_2X2 = np.array([[[1.0], [3.0]], [[2.0], [5.0]]])


def _bilinear_grads(data, u, v, g_vals):
    """(du, dv, map gradient) of sum(g_vals * sample at (u, v)), taken through
    the shared aggregation core with one query, head, point and map, weight 1
    and identity value and output maps, so its output is the bare sample."""
    eye = [AffineMap.identity(data.shape[2])]
    attn, u, v = np.ones((1, 1, 1, 1)), np.full((1, 1, 1, 1), u), np.full((1, 1, 1, 1), v)
    plan = plan_dense(attn, u, v, [data.shape])
    _, cache = deform_aggregate(plan, attn, [data], eye, eye)
    g = deform_aggregate_backward(cache, [data], eye, eye, np.asarray(g_vals)[None, :],
                                  want_map_grads=True)
    return g["u"][0], g["v"][0], g["maps"][0]


def test_bilinear_hand_value():
    vals, valid = bilinear_many(DATA_2X2, np.array(0.25), np.array(0.5))
    assert valid
    assert abs(vals[0] - 2.125) < 1e-15


def test_bilinear_hand_gradient():
    # du = (1-fy)(p10-p00) + fy(p11-p01) = 0.5*2 + 0.5*3 = 2.5
    # dv = (1-fx)(p01-p00) + fx(p11-p10) = 0.75*1 + 0.25*2 = 1.25
    du, dv, _ = _bilinear_grads(DATA_2X2, 0.25, 0.5, np.array([1.0]))
    assert abs(du - 2.5) < 1e-15
    assert abs(dv - 1.25) < 1e-15


def test_bilinear_outside_is_zero_and_invalid():
    for u, v in [(-0.1, 0.5), (1.1, 0.5), (0.5, -0.01), (0.5, 1.0001)]:
        vals, valid = bilinear_many(DATA_2X2, np.array(u), np.array(v))
        assert not valid
        assert vals[0] == 0.0


def test_bilinear_closed_boundary():
    # the full pixel box [0, W-1] x [0, H-1] is valid, corners included
    for u, v in [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]:
        vals, valid = bilinear_many(DATA_2X2, np.array(u), np.array(v))
        assert valid
        assert vals[0] == DATA_2X2[int(v), int(u), 0]


def test_bilinear_feature_scatter():
    _, _, g = _bilinear_grads(DATA_2X2, 0.25, 0.5, np.array([2.0]))
    # corner weights: w00=0.375, w10=0.125, w01=0.375, w11=0.125, times upstream 2
    expect = np.array([[[0.75], [0.25]], [[0.75], [0.25]]])
    np.testing.assert_allclose(g, expect, atol=1e-15)


def test_bilinear_gradient_matches_fd():
    rng = np.random.default_rng(3)
    data = rng.normal(size=(5, 6, 3))
    uv = np.array([2.3, 1.7])
    g_up = rng.normal(size=3)
    fmap = FeatureMap(data)
    du, dv, grad_map = _bilinear_grads(data, uv[0], uv[1], g_up)
    for axis, grad in enumerate((du, dv)):
        fd = central_diff(lambda: float(bilinear_sample(fmap, uv)[0] @ g_up), uv, (axis,))
        assert rel_err(grad, fd) < 1e-8
    idx = (1, 2, 0)
    fd = central_diff(lambda: float(bilinear_sample(fmap, uv)[0] @ g_up), data, idx)
    assert rel_err(grad_map[idx], fd) < 1e-8


@given(st.integers(0, 4), st.integers(0, 5))
@settings(max_examples=30, deadline=None)
def test_bilinear_exact_on_lattice(iy, ix):
    rng = np.random.default_rng(iy * 7 + ix)
    data = rng.normal(size=(5, 6, 2))
    vals, valid = bilinear_many(data, np.array(float(ix)), np.array(float(iy)))
    assert valid
    np.testing.assert_array_equal(vals, data[iy, ix])


# --- softmax -----------------------------------------------------------------
# logits (0, ln 2, ln 4) exponentiate to (1, 2, 4): probabilities (1, 2, 4)/7.


def test_softmax_hand_value():
    probs = softmax_norm(np.log(np.array([1.0, 2.0, 4.0])), axis=-1)
    np.testing.assert_allclose(probs, np.array([1.0, 2.0, 4.0]) / 7.0, atol=1e-15)


def test_softmax_backward_hand_value():
    # dz_i = s_i (g_i - sum_j g_j s_j); with g = (1,0,0): sum = 1/7
    # dz = (1/7*6/7, -2/49, -4/49)
    probs = np.array([1.0, 2.0, 4.0]) / 7.0
    dz = softmax_backward(probs, np.array([1.0, 0.0, 0.0]), axis=-1)
    np.testing.assert_allclose(dz, np.array([6.0, -2.0, -4.0]) / 49.0, atol=1e-15)


@given(st.lists(st.floats(-30, 30), min_size=2, max_size=8),
       st.floats(-50, 50))
@settings(max_examples=60, deadline=None)
def test_softmax_sums_to_one_and_shift_invariant(logits, shift):
    z = np.array(logits)
    s = softmax_norm(z, axis=-1)
    assert abs(s.sum() - 1.0) < 1e-12
    assert np.all(s >= 0)
    np.testing.assert_allclose(softmax_norm(z + shift, axis=-1), s, atol=1e-12)


def test_softmax_of_a_fully_masked_row_is_exact_zeros():
    z = np.array([[-np.inf, -np.inf, -np.inf], [0.5, -np.inf, 1.5]])
    with np.errstate(all="raise"):
        probs = softmax_norm(z, axis=-1)
    np.testing.assert_array_equal(probs[0], 0.0)
    assert probs[1, 1] == 0.0 and abs(probs[1].sum() - 1.0) < 1e-15


def test_softmax_bytes_on_finite_rows_match_plain_max_subtraction():
    rng = np.random.default_rng(5)
    for shape, axis in (((4, 7), -1), ((3, 5, 6), 1), ((9,), 0)):
        z = rng.normal(0.0, 10.0, size=shape)
        e = np.exp(z - np.max(z, axis=axis, keepdims=True))
        want = e / np.sum(e, axis=axis, keepdims=True)
        with np.errstate(all="raise"):
            assert softmax_norm(z, axis=axis).tobytes() == want.tobytes()


def test_softmax_passes_never_write_their_inputs():
    rng = np.random.default_rng(21)
    z = rng.normal(size=(5, 7))
    z[1, [0, 3]] = -np.inf
    z[2] = -np.inf                                 # one fully masked row
    g = rng.normal(size=z.shape)
    for arr in (z, g):
        arr.flags.writeable = False
    z_before, g_before = z.copy(), g.copy()
    probs = softmax_norm(z, axis=-1)
    zmax = np.max(z, axis=-1, keepdims=True)
    e = np.exp(z - np.where(np.isfinite(zmax), zmax, 0.0))
    total = np.sum(e, axis=-1, keepdims=True)
    assert probs.tobytes() == (e / np.where(total > 0.0, total, 1.0)).tobytes()
    probs.flags.writeable = False
    dz = softmax_backward(probs, g, axis=-1)
    dot = np.sum(g * probs, axis=-1, keepdims=True)
    assert dz.tobytes() == (probs * (g - dot)).tobytes()
    assert z.tobytes() == z_before.tobytes() and g.tobytes() == g_before.tobytes()
    assert not np.shares_memory(dz, probs) and not np.shares_memory(dz, g)


def test_softmax_backward_matches_fd():
    rng = np.random.default_rng(11)
    z = rng.normal(size=(2, 5))
    g = rng.normal(size=(2, 5))
    probs = softmax_norm(z, axis=-1)
    dz = softmax_backward(probs, g, axis=-1)
    fd = central_diff(lambda: float((softmax_norm(z, axis=-1) * g).sum()), z, (1, 3))
    assert rel_err(dz[1, 3], fd) < 1e-7


# --- affine maps -------------------------------------------------------------


def test_affine_shape_validation():
    with pytest.raises(ContractViolation):
        AffineMap(np.zeros((2, 3)), np.zeros(3))
    with pytest.raises(ContractViolation):
        AffineMap(np.array([1.0, 2.0]), np.zeros(2))


def test_feature_map_contract():
    fm = FeatureMap(np.zeros((4, 6, 3)))
    assert fm.data.shape == (4, 6, 3)
    with pytest.raises(ContractViolation):
        FeatureMap(np.zeros((4, 6)))
    with pytest.raises(ContractViolation):
        FeatureMap(np.full((2, 2, 1), np.nan))
