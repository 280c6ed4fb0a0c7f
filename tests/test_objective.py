import numpy as np
import pytest

from viewocc.flow_annotation import BEVFlowField
from viewocc.numerics import softmax_norm
from viewocc.objective import (FrameTruth, LossWeights, PredictionBundle, cross_entropy,
                               focal_loss, iou_geo, l1_flow, lovasz_softmax, mave, miou,
                               total_loss)

from helpers import check_grad_array


def _bev_truth(flow, valid, category, pitch=0.5, origin=(0.0, 0.0)) -> BEVFlowField:
    return BEVFlowField(flow=np.asarray(flow, dtype=float),
                        valid=np.asarray(valid, dtype=bool),
                        category=np.asarray(category, dtype=np.int64),
                        pitch=pitch, origin=origin)


# --- focal loss --------------------------------------------------------------
# logits (0, ln 3), labels (1, 0), gamma 2, alpha 0.25:
#   voxel 1: p_t = 0.5,  a_t = 0.25, term = 0.25 * 0.25 * ln 2   = 0.0625 ln 2
#   voxel 2: p_t = 0.25, a_t = 0.75, term = 0.75 * 9/16 * 2 ln 2 = 0.84375 ln 2
#   mean = 0.453125 ln 2


def test_focal_hand_value():
    logits = np.array([0.0, np.log(3.0)])
    labels = np.array([1.0, 0.0])
    value = focal_loss(logits, labels, gamma=2.0, alpha=0.25)
    assert abs(value - 0.453125 * np.log(2.0)) < 1e-14


def test_focal_gamma_zero_equals_bce():
    rng = np.random.default_rng(21)
    logits = rng.normal(scale=2.0, size=50)
    labels = (rng.random(50) < 0.3).astype(float)
    value = focal_loss(logits, labels, gamma=0.0, alpha=None)
    p = 1.0 / (1.0 + np.exp(-logits))
    bce = -(labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p)).mean()
    assert abs(value - bce) < 1e-12


def test_focal_gradient_matches_fd():
    rng = np.random.default_rng(22)
    logits = rng.normal(scale=1.5, size=12)
    labels = (rng.random(12) < 0.4).astype(float)
    for gamma, alpha in ((2.0, 0.25), (0.0, None), (1.5, 0.5)):
        _, grad = focal_loss(logits, labels, gamma=gamma, alpha=alpha, with_grad=True)
        check_grad_array(lambda: float(focal_loss(logits, labels, gamma=gamma, alpha=alpha)),
                         logits, grad, rng, tol=1e-6)


# --- cross entropy -----------------------------------------------------------


def test_cross_entropy_hand_value():
    # single row (0, ln 3) with label 1: probability 3/4, loss ln(4/3)
    value = cross_entropy(np.array([[0.0, np.log(3.0)]]), np.array([1]))
    assert abs(value - np.log(4.0 / 3.0)) < 1e-14


def test_cross_entropy_gradient_matches_fd():
    rng = np.random.default_rng(23)
    logits = rng.normal(size=(6, 4))
    labels = rng.integers(0, 4, size=6)
    _, grad = cross_entropy(logits, labels, with_grad=True)
    check_grad_array(lambda: float(cross_entropy(logits, labels)), logits, grad, rng,
                     tol=1e-6)


# --- Lovasz softmax ----------------------------------------------------------
# Hand case: labels (0, 1), probs ((0.7, 0.3), (0.4, 0.6)).
#   class 0: errors (0.3, 0.4) -> sorted (0.4, 0.3), weights (0.5, 0.5) -> 0.35
#   class 1: errors (0.3, 0.4) -> sorted (0.4, 0.3), weights (1.0, 0.0) -> 0.40
#   mean 0.375


def test_lovasz_hand_value():
    probs = np.array([[0.7, 0.3], [0.4, 0.6]])
    value = lovasz_softmax(probs, np.array([0, 1]))
    assert abs(value - 0.375) < 1e-14


def test_lovasz_one_hot_equals_one_minus_iou():
    # for hard predictions the extension collapses to 1 - IoU per present class
    rng = np.random.default_rng(24)
    for _ in range(50):
        n = rng.integers(1, 7)
        n_cls = rng.integers(1, 4)
        labels = rng.integers(0, n_cls, size=n)
        preds = rng.integers(0, n_cls, size=n)
        probs = np.eye(n_cls)[preds]
        value = lovasz_softmax(probs, labels)
        total = 0.0
        present = sorted(set(labels.tolist()))
        for cls in present:
            inter = int(((preds == cls) & (labels == cls)).sum())
            union = int(((preds == cls) | (labels == cls)).sum())
            total += 1.0 - (inter / union if union else 1.0)
        assert abs(value - total / len(present)) < 1e-12


def test_lovasz_gradient_matches_fd():
    rng = np.random.default_rng(25)
    probs = softmax_norm(rng.normal(size=(7, 3)), axis=-1)
    labels = rng.integers(0, 3, size=7)
    _, grad = lovasz_softmax(probs, labels, with_grad=True)
    check_grad_array(lambda: float(lovasz_softmax(probs, labels)), probs, grad, rng,
                     tol=1e-5, eps=1e-7)


# --- flow L1 -----------------------------------------------------------------


def test_l1_flow_hand_value():
    gt = _bev_truth([[[0.5, 1.0]]], [[True]], [[3]])
    value = l1_flow(np.array([[[1.0, 2.0]]]), gt)
    assert abs(value - 1.5) < 1e-15


def test_l1_flow_ignores_invalid_cells():
    gt = _bev_truth([[[0.0, 0.0], [1.0, 1.0]]], [[False, True]], [[0, 3]])
    value = l1_flow(np.array([[[9.0, 9.0], [1.5, 0.5]]]), gt)
    assert abs(value - 1.0) < 1e-15


def test_l1_flow_gradient_matches_fd():
    rng = np.random.default_rng(26)
    pred = rng.normal(size=(3, 4, 2))
    gt = _bev_truth(rng.normal(size=(3, 4, 2)), rng.random((3, 4)) < 0.7,
                    np.full((3, 4), 3))
    _, grad = l1_flow(pred, gt, with_grad=True)
    check_grad_array(lambda: float(l1_flow(pred, gt)), pred, grad, rng, tol=1e-5)


@pytest.mark.parametrize("with_grad", [False, True])
def test_focal_and_l1_flow_over_no_elements_are_zero(with_grad):
    # focal over an empty logit array, L1 over a flow field with no valid cell
    logits, pred = np.zeros((0, 3)), np.ones((2, 3, 2))
    gt = _bev_truth(np.zeros((2, 3, 2)), np.zeros((2, 3), dtype=bool), np.zeros((2, 3)))
    focal = focal_loss(logits, np.zeros((0, 3)), with_grad=with_grad)
    l1 = l1_flow(pred, gt, with_grad=with_grad)
    if not with_grad:
        assert focal == 0.0 and l1 == 0.0
    else:
        for (value, grad), x in ((focal, logits), (l1, pred)):
            assert value == 0.0
            assert grad.shape == x.shape and not grad.any()


# --- composite loss ----------------------------------------------------------


def _tiny_problem(seed=27):
    rng = np.random.default_rng(seed)
    z, h, w, n_cls = 2, 3, 3, 3
    pred = PredictionBundle(occ_logits=rng.normal(size=(z, h, w)),
                            sem_logits=rng.normal(size=(z, h, w, n_cls)),
                            bev_flow=rng.normal(size=(h, w, 2)))
    labels = rng.integers(0, n_cls + 1, size=(z, h, w)).astype(np.int64)
    labels[0, 0, 0] = 1  # keep at least one occupied voxel
    gt = _bev_truth(rng.normal(size=(h, w, 2)), rng.random((h, w)) < 0.7,
                    np.full((h, w), 3))
    return pred, FrameTruth(labels=labels, bev_flow=gt)


def test_total_loss_is_sum_of_parts():
    pred, truth = _tiny_problem()
    weights = LossWeights()
    value, parts = total_loss(pred, truth, weights)
    expect = parts["focal"] + parts["ce"] + parts["lovasz"] + parts["l1_flow"]
    assert abs(value - expect) < 1e-12
    occupied = truth.labels > 0
    ce_direct = cross_entropy(pred.sem_logits[occupied], truth.labels[occupied] - 1)
    assert abs(parts["ce"] - ce_direct) < 1e-12


def test_total_loss_gradients_match_fd():
    pred, truth = _tiny_problem()
    weights = LossWeights()
    rng = np.random.default_rng(28)
    _, _, grads = total_loss(pred, truth, weights, with_grads=True)

    def value():
        v, _ = total_loss(pred, truth, weights)
        return float(v)

    check_grad_array(value, pred.occ_logits, grads["occ_logits"], rng, tol=1e-5)
    check_grad_array(value, pred.sem_logits, grads["sem_logits"], rng, tol=1e-5, eps=1e-7)
    check_grad_array(value, pred.bev_flow, grads["bev_flow"], rng, tol=1e-5)


@pytest.mark.parametrize("with_grads", [False, True])
def test_total_loss_without_an_occupied_voxel_has_no_semantic_terms(with_grads):
    # the semantic terms then run over zero rows, with no float fault
    pred, truth = _tiny_problem()
    truth.labels[:] = 0
    with np.errstate(all="raise"):
        value, parts, *grads = total_loss(pred, truth, LossWeights(), with_grads=with_grads)
    assert parts["ce"] == 0.0 and parts["lovasz"] == 0.0
    assert value == parts["focal"] + parts["l1_flow"]
    if with_grads:
        g_sem = grads[0]["sem_logits"]
        assert g_sem.shape == pred.sem_logits.shape and not g_sem.any()


# --- metrics -----------------------------------------------------------------


def test_miou_hand_value():
    # class 1: inter 1 / union 2 = 0.5; class 2: inter 3 / union 10 = 0.3
    pred = np.zeros(12, dtype=np.int64)
    gt = np.zeros(12, dtype=np.int64)
    pred[[0, 1]] = 1
    gt[[0]] = 1
    pred[[2, 3, 4, 5, 6]] = 2
    gt[[4, 5, 6, 7, 8, 9, 10, 11]] = 2
    mean, per_class = miou(pred, gt, class_ids=(1, 2, 3))
    assert abs(mean - 0.4) < 1e-15
    assert abs(per_class[1] - 0.5) < 1e-15
    assert abs(per_class[2] - 0.3) < 1e-15
    assert per_class[3] is None  # zero union: excluded, not scored as zero


def test_iou_geo_hand_value():
    pred = np.array([True, True, False, False])
    gt = np.array([True, True, True, True])
    assert abs(iou_geo(pred, gt) - 0.5) < 1e-15
    assert iou_geo(np.zeros(4, bool), np.zeros(4, bool)) == 1.0


def test_mave_hand_value():
    # single valid cell, error vector (0.3, 0.4): mean error 0.5
    gt = _bev_truth([[[0.3, 0.4]]], [[True]], [[3]])
    mean, per_class = mave(np.zeros((1, 1, 2)), gt, class_ids=(3, 4))
    assert abs(mean - 0.5) < 1e-15
    assert abs(per_class[3] - 0.5) < 1e-15
    assert per_class[4] is None


def test_metrics_respect_mask():
    pred = np.array([1, 1, 0, 0], dtype=np.int64)
    gt = np.array([1, 0, 0, 0], dtype=np.int64)
    mask = np.array([True, False, True, True])
    mean, _ = miou(pred, gt, class_ids=(1,), mask=mask)
    assert abs(mean - 1.0) < 1e-15
