"""Training objective and evaluation metrics for occupancy, semantics, flow.

The composite loss is

    total = focal(occupancy state) + ce(semantics) + lovasz(semantics)
            + l1(BEV flow)

where focal runs over every voxel, the two semantic terms run over
gt-occupied voxels only, and the flow term runs over valid BEV cells. All
gradients are written by hand and match central finite differences away from
the loss's genuine kinks (L1 at zero, Lovasz at sorting ties).

Metrics: per-class IoU / mIoU over an evaluation mask (classes absent from
both prediction and ground truth are excluded), class-agnostic IoU_geo
(empty/empty counts as 1), and mAVE, the mean Euclidean flow error per
foreground class over valid ground-truth cells. Every score is reduced from
counts by `class_means` or `geo_ratio`, so a frame's scores and a run's
accumulated scores come from one path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import require
from .flow_annotation import BEVFlowField
from .numerics import FLOAT, as_float_array, softmax_backward, softmax_norm

LOG_EPS = 1e-12
FOCAL_GAMMA = 2.0   # the focusing exponent of the training objective's focal term


@dataclass(frozen=True)
class LossWeights:
    focal_alpha: float | None = 0.25

    def __post_init__(self):
        if self.focal_alpha is not None:
            require(0.0 <= self.focal_alpha <= 1.0, "focal_alpha must lie in [0, 1]")


@dataclass
class PredictionBundle:
    """Raw network outputs on the prediction grid."""

    occ_logits: np.ndarray   # (Z, H, W)
    sem_logits: np.ndarray   # (Z, H, W, n_classes)
    bev_flow: np.ndarray     # (H, W, 2)

    def __post_init__(self):
        self.occ_logits = as_float_array(self.occ_logits, name="occ_logits")
        self.sem_logits = as_float_array(self.sem_logits, name="sem_logits")
        self.bev_flow = as_float_array(self.bev_flow, name="bev_flow")


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def focal_loss(logits: np.ndarray, labels: np.ndarray, gamma: float = FOCAL_GAMMA,
               alpha: float | None = 0.25, with_grad: bool = False):
    """Binary focal loss, mean over all elements.

    labels are {0, 1}; alpha=None disables class balancing, making gamma=0
    exactly the mean binary cross-entropy. The log is clamped at 1e-12.
    """
    z = as_float_array(logits, name="focal logits")
    y = np.asarray(labels, dtype=FLOAT)
    require(y.shape == z.shape, "focal: labels shape does not match logits")
    n = z.size
    if n == 0:
        return (0.0, np.zeros_like(z)) if with_grad else 0.0
    p = _sigmoid(z)
    p_t = y * p + (1.0 - y) * (1.0 - p)
    if alpha is None:
        a_t = np.ones_like(p_t)
    else:
        a_t = alpha * y + (1.0 - alpha) * (1.0 - y)
    clamped = p_t < LOG_EPS
    logp = np.log(np.maximum(p_t, LOG_EPS))
    loss = float(np.mean(-a_t * (1.0 - p_t) ** gamma * logp))
    if not with_grad:
        return loss
    if gamma == 0.0:
        dldpt = -a_t / np.maximum(p_t, LOG_EPS)
        dldpt = np.where(clamped, 0.0, dldpt)
    else:
        dldpt = -a_t * (-gamma * (1.0 - p_t) ** (gamma - 1.0) * logp
                        + (1.0 - p_t) ** gamma / np.maximum(p_t, LOG_EPS))
        # inside the clamp the log factor is the frozen constant log(LOG_EPS)
        dldpt = np.where(clamped, a_t * gamma * (1.0 - p_t) ** (gamma - 1.0) * logp, dldpt)
    dptdz = (2.0 * y - 1.0) * p * (1.0 - p)
    grad = dldpt * dptdz / n
    return loss, grad


def cross_entropy(logits: np.ndarray, labels: np.ndarray, with_grad: bool = False):
    """Mean negative log-softmax of the true class over rows (N, C)."""
    z = as_float_array(logits, name="ce logits")
    require(z.ndim == 2, "cross_entropy expects (N, C) logits")
    y = np.asarray(labels, dtype=np.int64)
    n, c = z.shape
    if n == 0:
        return (0.0, np.zeros_like(z)) if with_grad else 0.0
    require(y.shape == (n,) and y.min() >= 0 and y.max() < c,
            "cross_entropy: labels out of range")
    probs = softmax_norm(z, axis=-1)
    p_true = probs[np.arange(n), y]
    loss = float(np.mean(-np.log(np.maximum(p_true, LOG_EPS))))
    if not with_grad:
        return loss
    grad = probs.copy()
    grad[np.arange(n), y] -= 1.0
    grad /= n
    grad[p_true < LOG_EPS] = 0.0  # clamped rows have constant loss
    return loss, grad


def lovasz_softmax(probs: np.ndarray, labels: np.ndarray, with_grad: bool = False):
    """Lovasz extension of the Jaccard loss, averaged over present classes.

    probs are softmax outputs (N, C); labels index columns. The gradient
    treats the sort permutation as locally constant, which is exact away
    from ties.
    """
    p = as_float_array(probs, name="lovasz probs")
    require(p.ndim == 2, "lovasz_softmax expects (N, C) probabilities")
    y = np.asarray(labels, dtype=np.int64)
    n, c = p.shape
    if n == 0:
        return (0.0, np.zeros_like(p)) if with_grad else 0.0
    require(y.shape == (n,) and y.min() >= 0 and y.max() < c, "lovasz: labels out of range")
    present = np.unique(y)
    total = 0.0
    grad = np.zeros_like(p) if with_grad else None
    for cls in present:
        fg = (y == cls).astype(FLOAT)
        errors = np.where(fg > 0, 1.0 - p[:, cls], p[:, cls])
        order = np.argsort(-errors, kind="stable")
        fg_sorted = fg[order]
        gts = fg.sum()
        inter = gts - np.cumsum(fg_sorted)
        union = gts + np.cumsum(1.0 - fg_sorted)
        jaccard = 1.0 - inter / union
        weights = jaccard.copy()
        weights[1:] = jaccard[1:] - jaccard[:-1]
        total += float(errors[order] @ weights)
        if with_grad:
            sign = np.where(fg > 0, -1.0, 1.0)
            g_err = np.zeros(n, dtype=FLOAT)
            g_err[order] = weights
            grad[:, cls] += g_err * sign / len(present)
    total /= len(present)
    if with_grad:
        return total, grad
    return total


def l1_flow(pred: np.ndarray, gt: BEVFlowField, with_grad: bool = False):
    """Mean per-cell L1 norm of the planar flow error over valid cells."""
    p = as_float_array(pred, name="flow prediction")
    require(p.shape == gt.flow.shape, "l1_flow: prediction shape does not match ground truth")
    n = int(gt.valid.sum())
    if n == 0:
        return (0.0, np.zeros_like(p)) if with_grad else 0.0
    diff = np.where(gt.valid[..., None], p - gt.flow, 0.0)
    loss = float(np.abs(diff).sum() / n)
    if not with_grad:
        return loss
    return loss, np.sign(diff) / n


@dataclass
class FrameTruth:
    """Ground truth for one frame at the prediction grid's resolution."""

    labels: np.ndarray          # (Z, H, W) int64; 0 = free
    bev_flow: BEVFlowField

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        require(self.labels.ndim == 3, "FrameTruth.labels must be (Z, H, W)")


def total_loss(pred: PredictionBundle, truth: FrameTruth, weights: LossWeights,
               with_grads: bool = False):
    """Composite objective; returns (value, parts[, grads])."""
    require(pred.occ_logits.shape == truth.labels.shape,
            "occupancy logits do not match label grid")
    occupied = truth.labels > 0
    occ_y = occupied.astype(FLOAT)

    focal = focal_loss(pred.occ_logits, occ_y, FOCAL_GAMMA, weights.focal_alpha,
                       with_grad=with_grads)
    sem_rows = pred.sem_logits[occupied]
    sem_labels = truth.labels[occupied] - 1
    ce = cross_entropy(sem_rows, sem_labels, with_grad=with_grads)
    probs = softmax_norm(sem_rows, axis=-1)
    ls = lovasz_softmax(probs, sem_labels, with_grad=with_grads)
    l1 = l1_flow(pred.bev_flow, truth.bev_flow, with_grad=with_grads)

    if with_grads:
        focal, g_occ = focal
        ce, g_ce = ce
        ls, g_probs = ls
        l1, g_l1 = l1
        g_sem = np.zeros_like(pred.sem_logits)
        g_sem[occupied] = g_ce + softmax_backward(probs, g_probs, axis=-1)
        grads = {"occ_logits": g_occ, "sem_logits": g_sem, "bev_flow": g_l1}
    parts = {"focal": focal, "ce": ce, "lovasz": ls, "l1_flow": l1}
    value = focal + ce + ls + l1
    if with_grads:
        return value, parts, grads
    return value, parts


# ---------------------------------------------------------------------------
# metrics


def iou_counts(pred_labels: np.ndarray, gt_labels: np.ndarray, class_ids,
               mask: np.ndarray | None = None):
    """Per-class intersection and union voxel counts inside the mask."""
    pl = np.asarray(pred_labels)
    gl = np.asarray(gt_labels)
    require(pl.shape == gl.shape, "iou_counts: label grids differ in shape")
    m = np.ones(pl.shape, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    inter, union = {}, {}
    for cls in class_ids:
        p = (pl == cls) & m
        g = (gl == cls) & m
        inter[cls] = int((p & g).sum())
        union[cls] = int((p | g).sum())
    return inter, union


def class_means(num: dict, den: dict, class_ids):
    """(mean of num/den over classes with den > 0, per-class table).

    A class with zero den scores None and is left out of the mean; with no
    class left the mean is 0.
    """
    per_class = {cls: None if den[cls] == 0 else num[cls] / den[cls] for cls in class_ids}
    vals = [per_class[cls] for cls in class_ids if per_class[cls] is not None]
    return (float(np.mean(vals)) if vals else 0.0), per_class


def miou(pred_labels, gt_labels, class_ids, mask=None):
    """(mean IoU, per-class table); classes with zero union are excluded."""
    inter, union = iou_counts(pred_labels, gt_labels, class_ids, mask)
    return class_means(inter, union, class_ids)


def geo_counts(pred_occupied, gt_occupied, mask=None):
    """Class-agnostic occupancy (intersection, union) voxel counts inside the mask."""
    p = np.asarray(pred_occupied, dtype=bool)
    g = np.asarray(gt_occupied, dtype=bool)
    require(p.shape == g.shape, "iou_geo: grids differ in shape")
    m = np.ones(p.shape, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    return int((p & g & m).sum()), int(((p | g) & m).sum())


def geo_ratio(inter: int, union: int) -> float:
    """IoU_geo from counts; empty against empty scores 1."""
    return 1.0 if union == 0 else inter / union


def iou_geo(pred_occupied, gt_occupied, mask=None):
    """Class-agnostic occupancy IoU; empty against empty scores 1."""
    return geo_ratio(*geo_counts(pred_occupied, gt_occupied, mask))


def ave_sums(pred_flow: np.ndarray, gt: BEVFlowField, class_ids):
    """Per-class (error sum, cell count) of Euclidean flow error on valid cells."""
    p = as_float_array(pred_flow, name="pred_flow")
    require(p.shape == gt.flow.shape, "ave_sums: flow shapes differ")
    err = np.linalg.norm(p - gt.flow, axis=-1)
    sums, counts = {}, {}
    for cls in class_ids:
        sel = gt.valid & (gt.category == cls)
        sums[cls] = float(err[sel].sum())
        counts[cls] = int(sel.sum())
    return sums, counts


def mave(pred_flow: np.ndarray, gt: BEVFlowField, class_ids):
    """(mean AVE over classes with cells, per-class table)."""
    sums, counts = ave_sums(pred_flow, gt, class_ids)
    return class_means(sums, counts, class_ids)
