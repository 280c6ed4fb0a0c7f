"""Dense-array primitives: feature maps, affine maps, bilinear sampling, softmax.

Everything is float64. Feature maps are row-major and channel-last with shape
(height, width, channels). A sampling location `uv = (u, v)` puts `u` along
the width axis (columns) and `v` along the height axis (rows); the location is
valid iff `0 <= u <= width - 1` and `0 <= v <= height - 1`. Out-of-bounds
samples return zeros and a False validity flag, with no gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation

FLOAT = np.float64


def as_float_array(values, shape=None, name: str = "array") -> np.ndarray:
    """Coerce to a float64 ndarray, optionally enforcing a shape."""
    arr = np.asarray(values, dtype=FLOAT)
    if shape is not None and tuple(arr.shape) != tuple(shape):
        raise ContractViolation(f"{name}: expected shape {tuple(shape)}, got {tuple(arr.shape)}")
    if not np.isfinite(arr).all():
        raise ContractViolation(f"{name}: contains non-finite values")
    return arr


@dataclass
class FeatureMap:
    """Dense (height, width, channels) float64 feature image."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=FLOAT)
        if arr.ndim != 3:
            raise ContractViolation(f"FeatureMap: expected 3-d (H, W, C) data, got shape {arr.shape}")
        if min(arr.shape) < 1:
            raise ContractViolation(f"FeatureMap: empty axis in shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ContractViolation("FeatureMap: contains non-finite values")
        self.data = arr


@dataclass
class AffineMap:
    """y = weight @ x + bias with weight (out_dim, in_dim) and bias (out_dim,)."""

    weight: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        self.weight = as_float_array(self.weight, name="AffineMap.weight")
        if self.weight.ndim != 2:
            raise ContractViolation("AffineMap.weight must be 2-d")
        self.bias = as_float_array(self.bias, shape=(self.weight.shape[0],), name="AffineMap.bias")

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]

    @classmethod
    def zeros(cls, out_dim: int, in_dim: int) -> "AffineMap":
        return cls(np.zeros((out_dim, in_dim), dtype=FLOAT), np.zeros(out_dim, dtype=FLOAT))

    @classmethod
    def identity(cls, dim: int) -> "AffineMap":
        return cls(np.eye(dim, dtype=FLOAT), np.zeros(dim, dtype=FLOAT))


def softmax_norm(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax (max subtraction) along `axis`.

    Masked entries are -inf and come out as exact zeros; a row masked
    entirely comes out all zero.
    """
    z = np.asarray(logits, dtype=FLOAT)
    zmax = np.max(z, axis=axis, keepdims=True)
    # one full-size array: the shifted logits, then their exp, then the result
    e = z - np.where(np.isfinite(zmax), zmax, 0.0)
    np.exp(e, out=e)
    total = np.sum(e, axis=axis, keepdims=True)
    e /= np.where(total > 0.0, total, 1.0)
    return e


def softmax_backward(probs: np.ndarray, g_probs: np.ndarray, axis: int = -1) -> np.ndarray:
    """Gradient through softmax given its output `probs` and upstream g_probs."""
    # one full-size array: g_probs * probs, then (g_probs - dot) * probs
    out = g_probs * probs
    dot = np.sum(out, axis=axis, keepdims=True)
    np.subtract(g_probs, dot, out=out)
    out *= probs
    return out


def corner_indices(u: np.ndarray, v: np.ndarray, height, width):
    """Lower-left corner indices and fractional weights for bilinear sampling.

    Clamps the corner cell so sampling is exact at integer coordinates,
    including u == width - 1 and v == height - 1. height and width are ints
    or arrays broadcasting against u.
    """
    x0 = np.floor(u)
    y0 = np.floor(v)
    x0 = np.clip(x0, 0, np.maximum(width - 2, 0)).astype(np.int64)
    y0 = np.clip(y0, 0, np.maximum(height - 2, 0)).astype(np.int64)
    x1 = np.minimum(x0 + 1, width - 1)
    y1 = np.minimum(y0 + 1, height - 1)
    fx = u - x0
    fy = v - y0
    return x0, y0, x1, y1, fx, fy


def bilinear_valid(u: np.ndarray, v: np.ndarray, height: int, width: int) -> np.ndarray:
    return (u >= 0.0) & (u <= width - 1.0) & (v >= 0.0) & (v <= height - 1.0)
