"""Time one layer of this tree against another tree's, in one process.

    python3 tools/ab.py --parent <tree> --layer <layer>

`<tree>` is another checkout of the repository, typically the parent commit
(made with `git archive`). Its `src/viewocc` is loaded under another module
name beside this tree's, and each tree builds the same training-size inputs
with its own code:

- `attn_forward`, `attn_backward`: cases `view-attn` and `proj-first`, the
  `small` preset's attention layer (16 channels, 2 heads x 4 points x 6
  cameras, offset and logit heads seeded at scales 0.15 and 0.5) over the
  1600 voxel queries of the `training` scene's frame 0, run forward with
  `keep_cache=True` (compared: the output, the plan, the valid mask and the
  attention weights, which both trees keep) and backward from such a cache;
- `read_plan`, `aggregate_backward`: the same two layers' aggregation core,
  and `temporal-2`, `temporal-4`, the preset's temporal fusion (28 channels,
  4 points) on the 20 x 20 BEV grid with 2 and 4 memory levels;
- `temporal_forward`, `temporal_backward`: cases `temporal-2` and
  `temporal-4`, that temporal fusion run forward with `keep_cache=True`
  (compared: the output and the cache entries `_kept` names) and backward
  from such a cache;
- `warp_bev` warps that BEV grid by a planar ego motion;
- `project_rig_sparse`: case `view-attn`, the `view-attn` layer's sample
  points from a `keep_cache=True` forward at the feature maps' shapes, and
  case `proj-first`, the voxel centers at each camera's own (height, width)
  (compared: index, camera-frame points, u and v);
- `observe`, `render_all_cameras`: the `stream` scene's frame 1, its
  elements built and posed in the ego frame, marched once per camera
  (compared: the feature maps, and for `observe` the visibility).

The file layers run on files each tree writes with its own code, in a
temporary directory of its own:

- `load_scene` loads the `stream` scene file again and again;
- `load_params` loads the `small` preset's params for the `stream` scene
  (33 arrays, 280 KB), attention heads seeded as above;
- `write_blob` rewrites the six feature maps of a `stream` render (1.3 MB)
  over the prefix it wrote before.

Every case's outputs must be byte-identical between the trees (for the file
layers: the scene's `to_json`, the params arrays, the written files); any
difference is reported and the exit status is 1. Then each pair times every
case on both trees, in a tree order that alternates from pair to pair and a
case order that rotates by one case from pair to pair, and takes per case
the ratio of this tree's time to the other's. Printed per case: the median
ratio, its quartiles, how many pairs this tree won and the two-sided
sign-test p-value of that count. The last line of stdout is a JSON summary.
Run it with one BLAS thread (`OPENBLAS_NUM_THREADS=1`) for stable timings.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import statistics
import sys
import tempfile
import time
from math import comb
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("attn_forward", "attn_backward", "read_plan", "aggregate_backward",
          "temporal_forward", "temporal_backward", "warp_bev", "project_rig_sparse", "observe",
          "render_all_cameras", "load_scene", "load_params", "write_blob")
HEAD_SCALE = {"offset_head": 0.15, "logit_head": 0.5}
SEED = 7


def load_tree(tree: Path, name: str):
    """The tree's `src/viewocc` package, imported as `name`."""
    pkg = tree / "src" / "viewocc"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _seed_heads(params, rng) -> None:
    for head, scale in HEAD_SCALE.items():
        weight = getattr(params, head).weight
        weight[:] = rng.normal(0.0, scale / np.sqrt(weight.shape[1]), weight.shape)


def _attention_case(vo, method: str):
    """(forward, backward, feature maps, params, query count) of one
    attention layer: `forward()` runs it with `keep_cache=True`, and
    `backward(cache)` takes such a forward's cache back."""
    va = vo.view_attention
    scene = vo.scene_sim.preset_scene("training", seed=SEED)
    config, _ = vo.harness.resolve_preset("small", scene)
    rng = np.random.default_rng([SEED, 0xB0])
    init = va.init_view_attn_params if method == "view-attn" else va.init_proj_first_params
    params = init(rng, config.voxel_channels, heads=config.heads, points=config.points,
                  cameras=len(scene.cameras))
    _seed_heads(params, rng)
    refs = config.grid.voxel_centers().reshape(-1, 3)
    queries = rng.normal(0.0, 0.3, (refs.shape[0], config.voxel_channels))
    maps = [f.data for f in vo.scene_sim.render_all_cameras(scene, 0)]
    nq = queries.shape[0]
    forward = va.attn_forward_batch if method == "view-attn" else va.proj_first_forward_batch
    backward = va.attn_backward_batch if method == "view-attn" else va.proj_first_backward_batch
    g_out = np.random.default_rng([SEED, 0x6D]).normal(0.0, 1.0, (nq, config.voxel_channels))
    return (lambda: forward(queries, refs, params, maps, scene.cameras, keep_cache=True),
            lambda cache: backward(cache, params, maps, scene.cameras, g_out),
            maps, params, nq)


def _kept(out, cache):
    """A forward's output and the cache entries that both trees keep."""
    return out, cache["plan"], cache["valid"], cache["attn"]


def _temporal_layer(vo, levels: int):
    """(forward, backward, warped frames, params) of the temporal fusion over
    `levels` memory frames, called as in `_attention_case`."""
    ts = vo.temporal_stream
    rng = np.random.default_rng([SEED, 0x7E])
    params = ts.init_temporal_params(rng, 28, points=4, levels=4)
    _seed_heads(params, rng)
    current = rng.normal(0.0, 1.0, (20, 20, 28))
    warped = rng.normal(0.0, 1.0, (levels, 20, 20, 28))
    g_out = np.random.default_rng([SEED, 0x6D]).normal(0.0, 1.0, current.shape)
    return (lambda: ts.temporal_forward_arrays(current, warped, params, keep_cache=True),
            lambda cache: ts.temporal_backward_arrays(cache, params, g_out),
            warped, params)


def _temporal_case(vo, levels: int):
    forward, _, warped, params = _temporal_layer(vo, levels)
    return forward()[1], list(warped), [params.value_map], [params.output_map], 400


def _bev_case(vo):
    rng = np.random.default_rng([SEED, 0x3A])
    bev = vo.temporal_stream.BEVGrid(rng.normal(0.0, 1.0, (20, 20, 28)), 0.4, (-4.0, -4.0))
    rel = vo.geometry.Pose.from_z_rotation(0.25, (0.4, 0.1, 0.0))
    return bev, rel


def _projection_cases(vo):
    """{case: a `project_rig_sparse` call} on the training rig: the
    `view-attn` layer's sample points at the maps' shapes, and the voxel
    centers at each camera's own (height, width)."""
    scene = vo.scene_sim.preset_scene("training", seed=SEED)
    rig, project = scene.cameras, vo.geometry.project_rig_sparse
    forward, _, maps, _, _ = _attention_case(vo, "view-attn")
    points, shapes = forward()[1]["points"], [m.shape for m in maps]
    centers = scene.grid.voxel_centers().reshape(-1, 3)
    own = [(cam.height, cam.width) for cam in rig]
    return {"view-attn": lambda: project(rig, points, shapes),
            "proj-first": lambda: project(rig, centers, own)}


def _file_case(vo, layer: str, work: Path):
    """A call of a file layer on files this tree writes under `work`."""
    work.mkdir(parents=True)
    scene = vo.scene_sim.preset_scene("stream", seed=SEED)
    if layer == "load_scene":
        vo.scene_sim.save_scene(work / "scene.json", scene)
        return lambda: vo.scene_sim.load_scene(work / "scene.json")
    if layer == "load_params":
        config, _ = vo.harness.resolve_preset("small", scene)
        rng = np.random.default_rng([SEED, 0xB0])
        params = vo.encoder.init_model(rng, config, len(scene.cameras))
        for layer_params in params.layers:
            _seed_heads(layer_params, rng)
        vo.encoder.save_params(work / "params", params)
        return lambda: vo.encoder.load_params(work / "params")
    arrays = {f"cam.{j}": f.data for j, f in enumerate(vo.scene_sim.render_all_cameras(scene, 0))}
    prefix = work / "render"

    def write():
        vo.blobio.write_blob(prefix, arrays, {"scene": scene.name, "frame": 0})
        return [Path(f"{prefix}.json"), Path(f"{prefix}.bin")]
    write()
    return write


def cases(vo, layer: str, work: Path):
    """{case name: a call of the layer on that case's inputs}; file layers
    write their files under `work`."""
    if layer in ("load_scene", "load_params", "write_blob"):
        return {layer: _file_case(vo, layer, work)}
    if layer == "project_rig_sparse":
        return _projection_cases(vo)
    if layer == "warp_bev":
        bev, rel = _bev_case(vo)
        return {"warp_bev": lambda: vo.temporal_stream.warp_bev(bev, rel).data}
    if layer in ("observe", "render_all_cameras"):
        scene, call = vo.scene_sim.preset_scene("stream", seed=SEED), getattr(vo.scene_sim, layer)
        return {layer: lambda: call(scene, 1)}
    va = vo.view_attention
    if layer in ("temporal_forward", "temporal_backward"):
        layers = {f"temporal-{n}": _temporal_layer(vo, n) for n in (2, 4)}
    else:
        layers = {name: _attention_case(vo, name) for name in ("view-attn", "proj-first")}
    if layer in ("attn_forward", "temporal_forward"):
        return {name: (lambda f=forward: _kept(*f())) for name, (forward, *_) in layers.items()}
    if layer in ("attn_backward", "temporal_backward"):
        return {name: (lambda b=backward, c=forward()[1]: b(c))
                for name, (forward, backward, *_) in layers.items()}
    built = {name: (forward()[1], maps, params.value_maps, params.output_maps, nq)
             for name, (forward, _, maps, params, nq) in layers.items()}
    built.update({f"temporal-{n}": _temporal_case(vo, n) for n in (2, 4)})
    out = {}
    for name, (cache, maps, value_maps, output_maps, nq) in built.items():
        if layer == "read_plan":
            out[name] = (lambda c=cache, f=maps, vm=value_maps, om=output_maps, q=nq:
                         va.read_plan(c["plan"], q, f, vm, om))
        else:
            g_out = np.random.default_rng([SEED, 0x6D]).normal(
                0.0, 1.0, (nq, output_maps[0].out_dim))
            out[name] = (lambda c=cache, f=maps, vm=value_maps, om=output_maps, g=g_out:
                         va.deform_aggregate_backward(c, f, vm, om, g))
    return out


def _arrays(result):
    """The arrays of a layer's result, in a fixed order: a scene as its
    `to_json` text, params as their arrays, a feature map as its data, a
    path as the file's bytes."""
    if isinstance(result, dict):
        return [a for key in sorted(result) for a in _arrays(result[key])]
    if isinstance(result, (tuple, list)):
        return [a for item in result for a in _arrays(item)]
    if isinstance(result, Path):
        return [np.frombuffer(result.read_bytes(), dtype=np.uint8)]
    if hasattr(result, "to_json"):
        text = json.dumps(result.to_json(), sort_keys=True)
        return [np.frombuffer(text.encode(), dtype=np.uint8)]
    if hasattr(result, "arrays"):
        return [a for _, a in result.arrays()]
    if isinstance(getattr(result, "data", None), np.ndarray):      # a FeatureMap
        return [result.data]
    return [] if result is None else [np.asarray(result)]


def byte_differences(ours, theirs) -> list:
    """Case names whose results differ in shape, dtype or bytes."""
    out = []
    for name in sorted(ours):
        a, b = _arrays(ours[name]()), _arrays(theirs[name]())
        same = len(a) == len(b) and all(
            x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()
            for x, y in zip(a, b))
        if not same:
            out.append(name)
    return out


def _time(fn, repeat: int) -> float:
    start = time.perf_counter()
    for _ in range(repeat):
        fn()
    return time.perf_counter() - start


def sign_test(wins: int, n: int) -> float:
    """Two-sided p-value of `wins` out of `n` under a fair coin."""
    tail = sum(comb(n, i) for i in range(min(wins, n - wins) + 1)) / 2 ** n
    return min(1.0, 2 * tail)


def measure(ours, theirs, pairs: int, repeat: int) -> dict:
    """Per case: ratios of this tree's time to the other's, one per pair.
    Each pair times every case, in an order rotated by one case from pair to
    pair, so that no case always runs first or last."""
    names = sorted(ours)
    timed = {name: [] for name in names}
    for i in range(pairs):
        shift = i % len(names)
        for name in names[shift:] + names[:shift]:
            if i % 2:
                t_theirs = _time(theirs[name], repeat)
                t_ours = _time(ours[name], repeat)
            else:
                t_ours = _time(ours[name], repeat)
                t_theirs = _time(theirs[name], repeat)
            timed[name].append(t_ours / t_theirs)
    report = {}
    for name, ratios in timed.items():
        q1, median, q3 = (statistics.quantiles(ratios, n=4, method="inclusive")
                          if pairs > 1 else ratios * 3)
        wins = sum(r < 1.0 for r in ratios)
        report[name] = {"median_ratio": round(median, 4), "q1": round(q1, 4),
                        "q3": round(q3, 4), "wins": wins, "pairs": pairs,
                        "sign_p": round(sign_test(wins, pairs), 4)}
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path,
                        help="the other tree, with its own src/viewocc")
    parser.add_argument("--layer", required=True, choices=LAYERS)
    parser.add_argument("--pairs", type=int, default=20, help="timed pairs per case")
    parser.add_argument("--repeat", type=int, default=20, help="calls per timing")
    args = parser.parse_args(argv)
    if not (args.parent / "src" / "viewocc").is_dir():
        parser.error(f"{args.parent} has no src/viewocc")
    if args.pairs < 1 or args.repeat < 1:
        parser.error("--pairs and --repeat must be at least 1")
    with tempfile.TemporaryDirectory() as work:
        ours = cases(load_tree(ROOT, "viewocc_change"), args.layer, Path(work) / "change")
        theirs = cases(load_tree(args.parent.resolve(), "viewocc_parent"), args.layer,
                       Path(work) / "parent")
        differing = byte_differences(ours, theirs)
        report = {} if differing else measure(ours, theirs, args.pairs, args.repeat)
    for name, r in report.items():
        print(f"{args.layer} {name:11s} median {r['median_ratio']:.3f} "
              f"[{r['q1']:.3f}, {r['q3']:.3f}]  wins {r['wins']}/{r['pairs']}  "
              f"p {r['sign_p']:.3g}")
    for name in differing:
        print(f"{args.layer} {name:11s} DIFFERS in bytes")
    print(json.dumps({"layer": args.layer, "identical": not differing,
                      "differing": differing, "cases": report}))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
