"""Deformable attention over multi-camera features, two sampling strategies.

The learning-first strategy (`view_attn_*`) generates 3-d offsets around the
query's reference point inside its view-coordinate frame, then projects only
the sample points a conservative frustum bound keeps in some camera
(`geometry.project_rig_sparse`): out-of-view samples contribute nothing, and
attention weights are never renormalized. The projection-first baseline
(`projection_first_*`) projects the bare reference point, drops cameras where
it is not visible, and runs planar 2-d deformable attention around the
surviving pixel locations with the softmax taken over the visible set only.
Both run one forward and one backward, given a sampler and offset gradient.

Per head m, with A the attention weights and W/W' the output/value maps,

    out = sum_m W_m ( sum_{k,j valid} A[m,k,j] * W'_m sample[m,k,j] )

where sample[m,k,j] reads camera j bilinearly at the projection of the k-th
sample point. Gradients are written by hand; they flow through the sample
locations via the bilinear kernel, the projection Jacobian, and the (constant)
view-frame rotation.

Both strategies, and the temporal fusion in `temporal_stream`, differ only in
where they sample and how they weight; the aggregation itself is one sparse,
value-first core in two steps. The plan (`plan_samples`) takes the valid
(query, head, point, source) samples by flat index and pixel location and
fixes their bilinear corners and weights; the attention layers build it from
their in-view samples, temporal fusion and the BEV warp through `plan_dense`.
The read (`read_plan`) value-maps every source pixel once, then gathers only
those samples, so no per-sample array is built for the invalid majority.
`deform_aggregate` takes a plan in and `deform_aggregate_backward` gives its
attention-weight and position gradients out per valid sample, in plan order;
the attention layers and temporal fusion each scatter them once into their
own offset and attention-weight layouts.
The read and the backward gather corner rows in blocks of whole output
groups of at most `_BLOCK_BYTES`, so their working memory does not grow with
the sample count; every sum keeps the order of one unblocked pass. The plan
depends on the queries but not on the features, so a forward without a cache
reuses it from a small cache keyed by value.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import require
from .geometry import project_rig_jacobian, project_rig_sparse, view_rotations
from .numerics import (FLOAT, AffineMap, FeatureMap, as_float_array, bilinear_valid,
                       corner_indices, softmax_backward, softmax_norm)
from .scene_sim import _cached, _camera_key


@dataclass
class QueryContext:
    """One voxel query: its feature vector and reference point in the ego frame."""

    query: np.ndarray
    ref_point: np.ndarray

    def __post_init__(self):
        self.query = as_float_array(self.query, name="QueryContext.query")
        self.ref_point = as_float_array(self.ref_point, shape=(3,), name="QueryContext.ref_point")


@dataclass
class AttnParams:
    """Parameters of either strategy. The offset head emits 3-d view-frame
    offsets (learning-first) or 2-d pixel offsets (projection-first)."""

    heads: int
    points: int
    cameras: int
    value_maps: list
    output_maps: list
    offset_head: AffineMap
    logit_head: AffineMap

    def __post_init__(self):
        m, k, j, c = self.heads, self.points, self.cameras, self.channels
        require(m >= 1 and k >= 1 and j >= 1, "heads, points, cameras must be >= 1")
        require(c % m == 0, f"channels {c} not divisible by heads {m}")
        self.head_dim = c // m
        require(len(self.value_maps) == m and len(self.output_maps) == m,
                "need one value map and one output map per head")
        for vm in self.value_maps:
            require((vm.out_dim, vm.in_dim) == (self.head_dim, c),
                    f"value map must be {self.head_dim}x{c}, got {vm.out_dim}x{vm.in_dim}")
        for om in self.output_maps:
            require((om.out_dim, om.in_dim) == (c, self.head_dim),
                    f"output map must be {c}x{self.head_dim}, got {om.out_dim}x{om.in_dim}")
        require(self.offset_head.out_dim in (m * k * 2, m * k * 3),
                "offset head has wrong shape")
        require((self.logit_head.out_dim, self.logit_head.in_dim) == (m * k * j, c),
                "logit head has wrong shape")

    @property
    def channels(self) -> int:
        return self.offset_head.in_dim

    @property
    def offset_dim(self) -> int:
        return self.offset_head.out_dim // (self.heads * self.points)

    def arrays(self, prefix: str = ""):
        yield prefix + "offset_head.weight", self.offset_head.weight
        yield prefix + "offset_head.bias", self.offset_head.bias
        yield prefix + "logit_head.weight", self.logit_head.weight
        yield prefix + "logit_head.bias", self.logit_head.bias
        for i, m in enumerate(self.value_maps):
            yield f"{prefix}value_maps.{i}.weight", m.weight
            yield f"{prefix}value_maps.{i}.bias", m.bias
        for i, m in enumerate(self.output_maps):
            yield f"{prefix}output_maps.{i}.weight", m.weight
            yield f"{prefix}output_maps.{i}.bias", m.bias


def star_bias(count: int, radius: float, dims: int) -> np.ndarray:
    """Evenly spaced planar directions scaled by radius; z stays 0 for 3-d."""
    angles = 2.0 * np.pi * np.arange(count) / count
    cols = [np.cos(angles) * radius, np.sin(angles) * radius]
    if dims == 3:
        cols.append(np.zeros(count))
    return np.stack(cols, axis=-1).reshape(-1)


def _init_params(rng: np.random.Generator, channels: int, heads: int, points: int,
                 cameras: int, dims: int, radius: float) -> AttnParams:
    c_v = channels // heads
    value_maps = [AffineMap(rng.normal(0.0, 1.0 / np.sqrt(channels), (c_v, channels)),
                            np.zeros(c_v)) for _ in range(heads)]
    output_maps = [AffineMap(rng.normal(0.0, 1.0 / np.sqrt(c_v), (channels, c_v)),
                             np.zeros(channels)) for _ in range(heads)]
    offset_head = AffineMap(np.zeros((heads * points * dims, channels)),
                            star_bias(heads * points, radius, dims=dims))
    logit_head = AffineMap.zeros(heads * points * cameras, channels)
    return AttnParams(heads, points, cameras, value_maps, output_maps,
                      offset_head, logit_head)


def init_view_attn_params(rng: np.random.Generator, channels: int, heads: int = 4,
                          points: int = 4, cameras: int = 6,
                          star_radius: float = 0.5) -> AttnParams:
    """Seeded init: zero offset weights with a radial-star bias, uniform logits."""
    return _init_params(rng, channels, heads, points, cameras, 3, star_radius)


def init_proj_first_params(rng: np.random.Generator, channels: int, heads: int = 4,
                           points: int = 4, cameras: int = 6,
                           star_radius_px: float = 3.0) -> AttnParams:
    return _init_params(rng, channels, heads, points, cameras, 2, star_radius_px)


@dataclass
class TraceRecord:
    """Which (head, point, camera) samples of one query were valid."""

    in_view: np.ndarray   # (M, K, J) bool


def _feature_arrays(features, params):
    require(len(features) == params.cameras,
            f"expected {params.cameras} feature maps, got {len(features)}")
    arrays = []
    for f in features:
        data = f.data if isinstance(f, FeatureMap) else np.asarray(f, dtype=FLOAT)
        require(data.ndim == 3 and data.shape[2] == params.channels,
                "feature map channel count does not match attention channels")
        arrays.append(data)
    return arrays


def _stacked_maps(maps):
    w = np.stack([m.weight for m in maps])
    b = np.stack([m.bias for m in maps])
    return w, b


def _scatter_rows(index: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """(n, D) sums of the (E, D) rows by their target index (E,)."""
    d = rows.shape[1]
    # in int64: an int32 index times D need not fit int32
    flat = (np.multiply(index[:, None], d, dtype=np.int64) + np.arange(d)).reshape(-1)
    return np.bincount(flat, weights=rows.reshape(-1), minlength=n * d).reshape(n, d)


def _pixel_table(maps) -> np.ndarray:
    """Every source map's pixels stacked row-major into one (sum H*W, C) table."""
    return np.concatenate([f.reshape(-1, f.shape[2]) for f in maps])


class SamplingPlan(NamedTuple):
    """What a deformable aggregation fixes before it reads any feature: its E
    valid (query, head, point, source) samples in flat order. Index arrays
    are int32 where they fit."""

    index: np.ndarray    # (E,) flat position in the (Q, M, K, J) samples
    rows: np.ndarray     # (4, E) pixel-table rows of the bilinear corners
    weights: np.ndarray  # (4, E) bilinear corner weights
    fx: np.ndarray       # (E,) fractional position past the lower corner
    fy: np.ndarray
    attn: np.ndarray     # (E,) attention weight
    group: np.ndarray    # (E,) output row: query * M + head
    head: np.ndarray     # (E,)


def plan_samples(index: np.ndarray, u: np.ndarray, v: np.ndarray, attn: np.ndarray, shapes):
    """The sampling plan of E valid samples.

    index (E,): their ascending flat positions in the (Q, M, K, J) samples,
    sample k of head m in source map j; u, v (E,): their pixel locations,
    each inside its map; attn (Q, M, K, J): the weight of every sample;
    shapes: the J source maps' (H_j, W_j, ...) shapes.
    """
    heights, widths = np.array([s[:2] for s in shapes]).T
    _, m, k, j = attn.shape
    fits = max(attn.size, int(heights @ widths) * m) < 2**31
    itype = np.int32 if fits else np.int64
    src = index % j
    x0, y0, x1, y1, fx, fy = corner_indices(u, v, heights[src], widths[src])
    base = np.concatenate(([0], np.cumsum(heights * widths)[:-1]))[src]
    width = widths[src]
    rows = base + np.stack([y0 * width + x0, y0 * width + x1,
                            y1 * width + x0, y1 * width + x1])      # (4, E) pixels
    weights = np.stack([(1.0 - fx) * (1.0 - fy), fx * (1.0 - fy),
                        (1.0 - fx) * fy, fx * fy])
    group = index // (k * j)                                         # q * M + m
    return SamplingPlan(index.astype(itype), rows.astype(itype), weights, fx, fy,
                        attn.reshape(-1)[index], group.astype(itype), (group % m).astype(itype))


def plan_dense(attn: np.ndarray, u: np.ndarray, v: np.ndarray, shapes):
    """`plan_samples` of dense samples: attn, u, v (Q, M, K, J), valid where
    (u, v) lies in its map."""
    heights, widths = np.array([s[:2] for s in shapes]).T
    valid = bilinear_valid(u, v, heights, widths)
    return plan_samples(np.flatnonzero(valid), u[valid], v[valid], attn, shapes)


# The four corner rows a blocked read gathers at once take at most this many
# bytes, unless one output group alone needs more.
_BLOCK_BYTES = 1 << 20


def _corner_blocks(group: np.ndarray, table: np.ndarray, index: np.ndarray):
    """(start, stop, corners) of consecutive blocks of samples, where corners
    (4, stop - start, D) holds the rows of `table` (N, D) at the block's
    `index` (4, E) in one reused buffer of at most `_BLOCK_BYTES`. Each cut is
    moved back to the start of its output group (`group` is sorted), so a
    group lies in one block; a group larger than a block is a block of its
    own."""
    width = table.shape[1]
    size = max(1, _BLOCK_BYTES // (4 * width * table.itemsize))
    start, n = 0, group.shape[0]
    buf = np.empty(4 * min(size, n) * width, dtype=table.dtype)
    while start < n:
        stop = start + size
        if stop < n:
            stop = int(np.searchsorted(group, group[stop]))
            if stop == start:
                stop = int(np.searchsorted(group, group[start], side="right"))
        stop = min(stop, n)
        count = 4 * (stop - start) * width
        if buf.size < count:                       # one group larger than a block
            buf = np.empty(count, dtype=table.dtype)
        corners = buf[:count].reshape(4, stop - start, width)
        # every index is in range, so "clip" changes nothing; it lets take
        # write straight into the buffer
        np.take(table, index[:, start:stop], axis=0, out=corners, mode="clip")
        yield start, stop, corners
        start = stop


def gather_samples(plan: SamplingPlan, pixels: np.ndarray) -> np.ndarray:
    """The (E, C) bilinear reads of a plan's samples from the pixel table
    (sum H*W, C) of its source maps, stacked as `_pixel_table` stacks them."""
    out = np.empty((plan.attn.shape[0], pixels.shape[1]), dtype=FLOAT)
    for lo, hi, corners in _corner_blocks(plan.group, pixels, plan.rows):
        np.einsum("ce,cek->ek", plan.weights[:, lo:hi], corners, out=out[lo:hi])
    return out


def read_plan(plan: SamplingPlan, nq: int, maps, value_maps, output_maps):
    """Read the features through a plan of Q queries.

    maps: J arrays (H_j, W_j, C); value_maps (c_v x C) and output_maps
    (C_out x c_v) hold one AffineMap per head. With s the bilinear read of a
    valid sample,

        out[q] = sum_m [ W_m ( sum_{k,j valid} attn * (W'_m s + b'_m) ) + b_m ]

    Returns (out (Q, C_out), the value-mapped pixel table (sum H*W * M, c_v)
    whose row pixel * M + head holds a pixel's value under that head, the
    per-head sums (Q, M, c_v)).
    """
    m = len(value_maps)
    w_v, b_v = _stacked_maps(value_maps)
    w_o, b_o = _stacked_maps(output_maps)
    c_v = w_v.shape[1]
    # The bilinear weights of a valid sample sum to 1, so value-mapping every
    # pixel once and then sampling equals value-mapping every sample.
    table = _pixel_table(maps) @ w_v.reshape(m * c_v, -1).T
    table += b_v.reshape(-1)
    table = table.reshape(-1, c_v)                 # row = pixel * M + head
    # each block holds whole groups, so a group's sum runs in sample order
    head_out = np.zeros((nq * m, c_v), dtype=FLOAT)
    for lo, hi, corners in _corner_blocks(plan.group, table, plan.rows * m + plan.head):
        samples = np.einsum("ce,cev->ev", plan.weights[:, lo:hi], corners)
        samples *= plan.attn[lo:hi, None]
        first, last = plan.group[lo], plan.group[hi - 1] + 1
        head_out[first:last] = _scatter_rows(plan.group[lo:hi] - first, samples, last - first)
    head_out = head_out.reshape(nq, m, c_v)
    out = np.einsum("qmv,mcv->qc", head_out, w_o, optimize=True) + b_o.sum(axis=0)
    return out, table, head_out


def deform_aggregate(plan: SamplingPlan, attn: np.ndarray, maps, value_maps, output_maps):
    """The deformable aggregation of a plan's samples of attn's Q queries:
    `read_plan`, with invalid samples contributing nothing. Returns (out
    (Q, C_out), cache); the cache holds the plan, attn, its boolean
    (Q, M, K, J) "valid" mask and what `deform_aggregate_backward` needs."""
    valid = np.zeros(attn.shape, dtype=bool)
    valid.flat[plan.index] = True
    out, table, head_out = read_plan(plan, attn.shape[0], maps, value_maps, output_maps)
    return out, {"plan": plan, "attn": attn, "valid": valid, "table": table,
                 "head_out": head_out}


# At most this many sampling plans stay cached per process, apart from the
# ray tables; the least recently used goes first. A model of up to this many
# layers keeps its first layer's plan while deeper layers miss every frame.
_PLAN_CACHE_SIZE = 4
_plans: OrderedDict = OrderedDict()


def _cached_plan(kind: tuple, queries, refs, params: AttnParams, rig, shapes, build):
    """`build()`'s tuple of arrays, cached by the values it depends on: the
    queries, refs, offset and logit heads, the rig and the feature-map
    shapes. Value and output maps and feature values are not in the key."""
    key = (kind, params.heads, params.points, queries.shape, queries.tobytes(), refs.shape,
           refs.tobytes(), params.offset_head.weight.tobytes(),
           params.offset_head.bias.tobytes(), params.logit_head.weight.tobytes(),
           params.logit_head.bias.tobytes(), tuple(shapes),
           tuple(_camera_key(cam) for cam in rig))
    return _cached(key, build, _plans, _PLAN_CACHE_SIZE)


def deform_aggregate_backward(cache: dict, maps, value_maps, output_maps,
                              g_out: np.ndarray, want_map_grads: bool = False) -> dict:
    """Gradients of sum(g_out * out) for `deform_aggregate`.

    Returns a dict with "attn", "u" and "v" per valid sample (E,), in plan
    order; the per-head stacks "value_w" (M, c_v, C), "value_b" (M, c_v),
    "out_w" (M, C_out, c_v) and "out_b" (M, C_out); and "maps", the
    per-source map gradients when asked for, else None.
    """
    plan = cache["plan"]
    head = plan.head
    w_v, _ = _stacked_maps(value_maps)
    w_o, _ = _stacked_maps(output_maps)
    m, c_v = w_v.shape[:2]
    g_out = np.asarray(g_out, dtype=FLOAT)
    nq = g_out.shape[0]

    g_head = np.einsum("qc,mcv->qmv", g_out, w_o, optimize=True).reshape(nq * m, c_v)
    g_head = g_head[plan.group]                                      # (E, c_v)
    a = plan.attn
    # each corner's value rows, gathered from the table again
    dots = np.empty((4, a.shape[0]), dtype=FLOAT)
    for lo, hi, corners in _corner_blocks(plan.group, cache["table"], plan.rows * m + head):
        np.einsum("cev,ev->ce", corners, g_head[lo:hi], out=dots[:, lo:hi])
    d00, d10, d01, d11 = dots
    fx, fy = plan.fx, plan.fy
    grads = {
        "attn": np.einsum("ce,ce->e", plan.weights, dots),
        "u": a * ((1.0 - fy) * (d10 - d00) + fy * (d11 - d01)),
        "v": a * ((1.0 - fx) * (d01 - d00) + fx * (d11 - d10)),
    }
    g_value = a[:, None] * g_head
    pixels = _pixel_table(maps)
    raw = gather_samples(plan, pixels)
    by_head = [head == i for i in range(m)]
    grads["value_w"] = np.stack([g_value[h].T @ raw[h] for h in by_head])
    grads["value_b"] = np.stack([g_value[h].sum(axis=0) for h in by_head])
    grads["out_w"] = np.einsum("qc,qmv->mcv", g_out, cache["head_out"], optimize=True)
    grads["out_b"] = np.broadcast_to(g_out.sum(axis=0), (m, g_out.shape[1])).copy()
    grads["maps"] = None
    if want_map_grads:
        # corner-weighted g_value scattered onto the (pixel, head) grid, then
        # through the value maps
        weighted = plan.weights[..., None] * g_value                 # (4, E, c_v)
        grid = _scatter_rows((plan.rows * m + head).reshape(-1),
                             weighted.reshape(-1, c_v), pixels.shape[0] * m)
        g_pixels = grid.reshape(-1, m * c_v) @ w_v.reshape(m * c_v, -1)
        ends = np.cumsum([f.shape[0] * f.shape[1] for f in maps])[:-1]
        grads["maps"] = [g.reshape(f.shape) for g, f in zip(np.split(g_pixels, ends), maps)]
    return grads


def _dense(valid: np.ndarray, values: np.ndarray) -> np.ndarray:
    """values (E,) at the True entries of valid, zero elsewhere."""
    out = np.zeros(valid.shape, dtype=FLOAT)
    out[valid] = values
    return out


def _view_samples(queries: np.ndarray, refs: np.ndarray, params: AttnParams, rig, shapes,
                  mode: str):
    """The learning-first sampling plan, attention weights (Q, M, K, J), the
    queries read (all) and the cache entries: sample points (Q, M, K, 3), the
    valid samples' camera-frame points (E, 3) and view rotations (Q, 3, 3)."""
    nq = queries.shape[0]
    m, k, j = params.heads, params.points, params.cameras
    off_flat = queries @ params.offset_head.weight.T + params.offset_head.bias
    offsets = off_flat.reshape(nq, m, k, 3)
    logit_flat = queries @ params.logit_head.weight.T + params.logit_head.bias
    attn = softmax_norm(logit_flat.reshape(nq, m, k * j), axis=-1).reshape(nq, m, k, j)
    rot = view_rotations(refs, mode)
    sample_pts = refs[:, None, None, :] + np.einsum("qab,qmkb->qmka", rot, offsets, optimize=True)
    index, cam_pts, u, v = project_rig_sparse(rig, sample_pts, shapes)
    return (plan_samples(index, u, v, attn, shapes), attn, np.ones(nq, dtype=bool),
            {"points": sample_pts, "cam_pts": cam_pts, "rot": rot})


def _proj_first_samples(queries: np.ndarray, refs: np.ndarray, params: AttnParams, rig,
                        shapes):
    """The projection-first sampling plan, attention weights (Q, M, K, J)
    taken over the cameras that see each query's reference point, the queries
    read (those visible anywhere, (Q,)) and the cache entries."""
    nq = queries.shape[0]
    m, k, j = params.heads, params.points, params.cameras
    off_flat = queries @ params.offset_head.weight.T + params.offset_head.bias
    logits = queries @ params.logit_head.weight.T + params.logit_head.bias

    # the reference points' in-view (query, camera) pairs, by flat index
    vis, _, ref_u, ref_v = project_rig_sparse(rig, refs, [(c.height, c.width) for c in rig])
    cam_vis = np.zeros((nq, j), dtype=bool)
    cam_vis.flat[vis] = True

    # softmax over points x visible cameras, per head; zero, as is its gradient, elsewhere
    mask = np.broadcast_to(cam_vis[:, None, None, :], (nq, m, k, j))
    masked = np.where(mask, logits.reshape(nq, m, k, j), -np.inf)
    attn = softmax_norm(masked.reshape(nq, m, k * j)).reshape(nq, m, k, j)

    # reference pixel plus the shared 2-d offset, at the visible cameras only
    index = np.flatnonzero(mask)
    cam = index % j
    pair = np.searchsorted(vis, index // (m * k * j) * j + cam)
    off = off_flat.reshape(-1, 2)[index // j]
    u, v = ref_u[pair] + off[:, 0], ref_v[pair] + off[:, 1]
    heights, widths = np.array([s[:2] for s in shapes]).T
    ok = bilinear_valid(u, v, heights[cam], widths[cam])
    return plan_samples(index[ok], u[ok], v[ok], attn, shapes), attn, cam_vis.any(axis=1), {}


def _forward(kind: tuple, sampler, queries, refs, params: AttnParams, fdata, rig, keep_cache):
    """(out (Q, C), cache or None) of either strategy; `sampler` gives (plan,
    attn, queries read, cache entries), and an unread query's out is exactly
    zero. Without a cache the plan comes from the plan cache under `kind`."""
    require(len(rig) == params.cameras, "rig size does not match params.cameras")
    queries, refs = np.asarray(queries, dtype=FLOAT), np.asarray(refs, dtype=FLOAT)
    shapes = [f.shape for f in fdata]
    cache = None
    if keep_cache:
        plan, attn, reads, entries = sampler(queries, refs, params, rig, shapes)
        out, cache = deform_aggregate(plan, attn, fdata, params.value_maps,
                                      params.output_maps)
        cache.update(queries=queries, reads=reads, **entries)
    else:
        def build():
            plan, _, reads, _ = sampler(queries, refs, params, rig, shapes)
            return (*plan, reads)
        *plan, reads = _cached_plan(kind, queries, refs, params, rig, shapes, build)
        out, _, _ = read_plan(SamplingPlan(*plan), queries.shape[0], fdata,
                              params.value_maps, params.output_maps)
    out[~reads] = 0.0
    return out, cache


def _backward(cache: dict, params: AttnParams, features, rig, g_out, want_feature_grads,
              offset_grads):
    """(grads by params.arrays() name, g_queries, feature grads) of either
    strategy. `offset_grads` maps the per-sample "u" and "v" gradients to the
    offset head's outputs; `g_out` reaches only the queries read, `cache["reads"]`."""
    fdata = _feature_arrays(features, params)
    if not cache["reads"].all():    # a copy of g_out here slows view attention's backward
        g_out = np.asarray(g_out, dtype=FLOAT) * cache["reads"][:, None]
    g = deform_aggregate_backward(cache, fdata, params.value_maps, params.output_maps, g_out,
                                  want_feature_grads)
    valid = cache["valid"]
    nq, m, k, j = valid.shape
    g_off_flat = offset_grads(cache, g, rig, nq, m, k, j)
    g_logits = softmax_backward(cache["attn"].reshape(nq, m, k * j),
                                _dense(valid, g["attn"]).reshape(nq, m, k * j),
                                axis=-1).reshape(nq, m * k * j)
    grads = {}
    for head, g_head in (("offset_head", g_off_flat), ("logit_head", g_logits)):
        grads[f"{head}.weight"] = g_head.T @ cache["queries"]
        grads[f"{head}.bias"] = g_head.sum(axis=0)
    for i in range(params.heads):
        grads[f"value_maps.{i}.weight"] = g["value_w"][i]
        grads[f"value_maps.{i}.bias"] = g["value_b"][i]
        grads[f"output_maps.{i}.weight"] = g["out_w"][i]
        grads[f"output_maps.{i}.bias"] = g["out_b"][i]
    g_queries = g_off_flat @ params.offset_head.weight + g_logits @ params.logit_head.weight
    return grads, g_queries, g["maps"]


def _view_offset_grads(cache: dict, g: dict, rig, nq, m, k, j) -> np.ndarray:
    idx = cache["plan"].index
    jac = project_rig_jacobian(rig, cache["cam_pts"], idx % j)       # (E, 2, 3)
    g_pts = _scatter_rows(idx // j, jac[:, 0, :] * g["u"][:, None]
                          + jac[:, 1, :] * g["v"][:, None], nq * m * k)
    return np.einsum("qab,qmka->qmkb", cache["rot"], g_pts.reshape(nq, m, k, 3),
                     optimize=True).reshape(nq, m * k * 3)


def _proj_first_offset_grads(cache: dict, g: dict, rig, nq, m, k, j) -> np.ndarray:
    # the 2-d offset is shared across cameras
    point = cache["plan"].index // j
    return np.stack([np.bincount(point, weights=g[c], minlength=nq * m * k)
                     for c in ("u", "v")], axis=-1).reshape(nq, m * k * 2)


def _single_forward(forward, ctx: QueryContext, params: AttnParams, features, rig):
    out, cache = forward(ctx.query[None, :], ctx.ref_point[None, :], params, features, rig,
                         keep_cache=True)
    return out[0], TraceRecord(in_view=cache["valid"][0])


def attn_forward_batch(queries: np.ndarray, refs: np.ndarray, params: AttnParams,
                       features, rig, mode: str = "one-dof", keep_cache: bool = False):
    """Vectorized learning-first forward over Q queries.

    Returns (out (Q, C), cache). The cache holds every intermediate needed by
    attn_backward_batch and by trace extraction. Without a cache the sampling
    plan comes from the plan cache, so a stream of frames builds it once.
    """
    fdata = _feature_arrays(features, params)
    require(params.offset_dim == 3, "learning-first attention needs 3-d offsets")
    return _forward(("view-attn", mode), partial(_view_samples, mode=mode), queries, refs,
                    params, fdata, rig, keep_cache)


def attn_backward_batch(cache: dict, params: AttnParams, features, rig,
                        g_out: np.ndarray, want_feature_grads: bool = False):
    """Gradients of sum(g_out * out) for the learning-first strategy.

    Returns (grads, g_queries, feature_grads) where grads maps parameter names
    (as yielded by params.arrays()) to arrays, and feature_grads is a list of
    per-camera arrays or None.
    """
    return _backward(cache, params, features, rig, g_out, want_feature_grads,
                     _view_offset_grads)


def view_attn_forward(ctx: QueryContext, params: AttnParams, features, rig):
    """Single-query one-dof learning-first attention; returns (out, TraceRecord)."""
    return _single_forward(attn_forward_batch, ctx, params, features, rig)


def view_attn_backward(ctx: QueryContext, params: AttnParams, features, rig,
                       upstream: np.ndarray, mode: str = "one-dof") -> dict:
    """Gradients of sum(upstream * out) w.r.t. parameters, query, and features."""
    _, cache = attn_forward_batch(ctx.query[None, :], ctx.ref_point[None, :],
                                  params, features, rig, mode, keep_cache=True)
    grads, g_queries, feature_grads = attn_backward_batch(
        cache, params, features, rig, np.asarray(upstream, dtype=FLOAT)[None, :],
        want_feature_grads=True)
    grads["query"] = g_queries[0]
    for ji, g in enumerate(feature_grads):
        grads[f"features.{ji}"] = g
    return grads


def proj_first_forward_batch(queries: np.ndarray, refs: np.ndarray, params: AttnParams,
                             features, rig, keep_cache: bool = False):
    """Vectorized projection-first baseline forward.

    The reference point is projected per camera; invisible cameras are skipped
    entirely and the softmax runs over the (point, visible camera) set. A
    query visible nowhere returns an exact zero vector. Without a cache the
    sampling plan comes from the plan cache, as in `attn_forward_batch`.
    """
    fdata = _feature_arrays(features, params)
    require(params.offset_dim == 2, "projection-first attention needs 2-d pixel offsets")
    out, cache = _forward(("proj-first",), _proj_first_samples, queries, refs, params, fdata,
                          rig, keep_cache)
    if cache is not None:   # the name the benchmark's tracer reads the valid mask by
        cache["sample_ok"] = cache["valid"]
    return out, cache


def proj_first_backward_batch(cache: dict, params: AttnParams, features, rig,
                              g_out: np.ndarray, want_feature_grads: bool = False):
    """Gradients for the projection-first baseline (shared 2-d pixel offsets)."""
    return _backward(cache, params, features, rig, g_out, want_feature_grads,
                     _proj_first_offset_grads)


def projection_first_forward(ctx: QueryContext, params: AttnParams, features, rig):
    """Single-query projection-first baseline; returns (out, TraceRecord)."""
    return _single_forward(proj_first_forward_batch, ctx, params, features, rig)


def camera_coverage(p, rig) -> int:
    """Number of rig cameras in which point p is visible."""
    p = as_float_array(p, shape=(3,), name="p")
    return len(project_rig_sparse(rig, p, [(c.height, c.width) for c in rig])[0])
