"""Command-line interface.

Subcommands map one-to-one onto harness operations: make-scene, coverage,
render, gen-flow, train, eval, compare. Reports are JSON on stdout (or the
--out file) with floats rendered as 17-significant-digit strings; repeated
runs with the same inputs produce identical bytes except for the wall_clock_s
entry. Contract violations, and inputs that overflow or produce invalid values
in the arithmetic, print one JSON diagnostic to stderr and exit 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import blobio
from .encoder import METHODS, MODES, load_params, save_params
from .errors import ContractViolation, open_output
from .flow_annotation import FLOW_MODES, reduce_bev_flow
from .harness import (check_fit, compare_methods, coverage_report, evaluate_model, jsonable,
                      prepare_frames, resolve_preset, train_model, write_history_csv)
from .scene_sim import (SCENE_PRESETS, load_scene, preset_scene, render_all_cameras,
                        save_scene, scene_ground_truth, with_feature_channels)
from .temporal_stream import load_queue, save_queue


def _resolve_scene(ref: str):
    if Path(ref).exists():
        return load_scene(ref)
    if ref in SCENE_PRESETS:
        return preset_scene(ref)
    raise ContractViolation(
        f"scene {ref!r} is neither a file nor a preset; presets: {tuple(SCENE_PRESETS)}")


def _settings_override(args) -> dict:
    """The train settings given on the command line."""
    return {name: getattr(args, name) for name in ("epochs", "lr")
            if getattr(args, name) is not None}


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(jsonable(report), indent=2, sort_keys=True) + "\n"
    if out:
        with open_output(out) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_frames(text: str | None, total: int):
    if text is None:
        return None
    try:
        if ":" in text:
            a, b = text.split(":", 1)
            lo = int(a) if a else 0
            hi = int(b) if b else total
        else:
            lo = int(text)
            hi = lo + 1
    except ValueError:
        raise ContractViolation(f"--frames expects an index or lo:hi range, got {text!r}")
    if not (0 <= lo < hi <= total):
        raise ContractViolation(
            f"frame range {text!r} is outside the scene's {total} frames")
    return list(range(lo, hi))


def _cmd_make_scene(args) -> int:
    scene = preset_scene(args.preset, seed=args.seed)
    if args.channels is not None:
        scene = with_feature_channels(scene, args.channels)
    save_scene(args.out, scene)
    _emit({"scene": scene.name, "frames": scene.num_frames,
           "cameras": len(scene.cameras), "feature_channels": scene.feature_channels,
           "path": args.out}, None)
    return 0


def _cmd_coverage(args) -> int:
    scene = _resolve_scene(args.scene)
    _emit(coverage_report(scene, frame=args.frame), args.out)
    return 0


def _cmd_render(args) -> int:
    scene = _resolve_scene(args.scene)
    arrays = {f"cam.{j}": fmap.data
              for j, fmap in enumerate(render_all_cameras(scene, args.frame))}
    meta = {"scene": scene.name, "frame": args.frame,
            "cameras": [cam.name for cam in scene.cameras]}
    blobio.write_blob(args.out, arrays, meta)
    _emit({"written": args.out, "cameras": len(arrays)}, None)
    return 0


def _cmd_gen_flow(args) -> int:
    scene = _resolve_scene(args.scene)
    labels, field = scene_ground_truth(scene, args.frame, flow_mode=args.flow_mode)
    bev = reduce_bev_flow(field)
    if args.out:
        blobio.write_blob(args.out, {
            "labels": labels, "flow": field.flow, "occupied": field.occupied,
            "category": field.category, "bev_flow": bev.flow, "bev_valid": bev.valid,
            "bev_category": bev.category,
        }, {"scene": scene.name, "frame": args.frame, "mode": args.flow_mode,
            "dt": scene.frame_dt, "grid": scene.grid.to_json(),
            "foreground_classes": list(field.foreground_classes)})
    speeds = np.linalg.norm(field.flow[field.occupied], axis=-1)
    _emit({
        "scene": scene.name, "frame": args.frame, "mode": args.flow_mode,
        "occupied_voxels": int(field.occupied.sum()),
        # FlowField holds zero flow off the occupied voxels
        "moving_voxels": int((speeds > 1e-12).sum()),
        "max_speed": float(speeds.max()) if speeds.size else 0.0,
        "bev_valid_cells": int(bev.valid.sum()),
        "blob": args.out,
    }, None)
    return 0


def _cmd_train(args) -> int:
    t0 = time.perf_counter()
    scene = _resolve_scene(args.scene)
    config, settings = resolve_preset(args.preset, scene, method=args.method,
                                      mode=args.mode, queue_len=args.queue_len)
    settings = replace(settings, seed=args.seed, **_settings_override(args))
    data = prepare_frames(scene)
    params, history = train_model(scene, config, settings, data)
    if args.curve is not None:
        write_history_csv(args.curve, history)
    report, _ = evaluate_model(scene, params, data=data)
    if args.params:
        save_params(args.params, params)
    _emit({
        "scene": scene.name, "preset": args.preset, "method": args.method,
        "mode": args.mode, "queue_len": config.queue_len, "epochs": settings.epochs,
        "seed": settings.seed, "n_parameters": params.n_parameters(),
        "initial_loss": history[0]["total"], "final_loss": history[-1]["total"],
        "evaluation": report, "params_blob": args.params, "curve_csv": args.curve,
        "wall_clock_s": time.perf_counter() - t0,
    }, args.out)
    return 0


def _cmd_eval(args) -> int:
    t0 = time.perf_counter()
    scene = _resolve_scene(args.scene)
    params = load_params(args.params)
    queue = load_queue(args.queue_in) if args.queue_in else None
    frames = _parse_frames(args.frames, scene.num_frames)
    check_fit(scene, params.config, queue, params.layers[0].cameras)
    data = prepare_frames(scene, frames)
    report, queue = evaluate_model(scene, params, data=data, queue=queue)
    if args.queue_out:
        save_queue(args.queue_out, queue)
    report["queue_in"] = args.queue_in
    report["queue_out"] = args.queue_out
    report["wall_clock_s"] = time.perf_counter() - t0
    _emit(report, args.out)
    return 0


def _cmd_compare(args) -> int:
    t0 = time.perf_counter()
    scene = _resolve_scene(args.scene)
    try:
        queue_lens = tuple(int(x) for x in args.queue_lens.split(","))
    except ValueError:
        raise ContractViolation(
            f"--queue-lens expects comma-separated integers, got {args.queue_lens!r}")
    report = compare_methods(
        scene, args.preset, methods=tuple(args.methods.split(",")), queue_lens=queue_lens,
        mode=args.mode, settings_override=_settings_override(args), seed=args.seed)
    report["wall_clock_s"] = time.perf_counter() - t0
    _emit(report, args.out)
    return 0


class _Parser(argparse.ArgumentParser):
    """A command line that argparse refuses is a contract violation, so that
    `main` returns 2 with one JSON error; subparsers share this class."""

    def error(self, message):
        raise ContractViolation(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI grammar, built on first use and shared by every `main` call in
    the process: it depends on no input. Each handler reads module globals
    when it runs, so names patched on this module after the build still take
    effect."""
    parser = _Parser(
        prog="viewocc",
        description="multi-view occupancy perception on synthetic desk-scale scenes")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make-scene", help="write a preset scene to a JSON file")
    p.add_argument("--preset", choices=SCENE_PRESETS, required=True)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--channels", type=int, default=None,
                   help="override rendered feature channels")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_make_scene)

    p = sub.add_parser("coverage", help="per-voxel camera coverage statistics")
    p.add_argument("--scene", required=True)
    p.add_argument("--frame", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_coverage)

    p = sub.add_parser("render", help="render every camera's feature map to a blob")
    p.add_argument("--scene", required=True)
    p.add_argument("--frame", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("gen-flow", help="generate occupancy and flow ground truth")
    p.add_argument("--scene", required=True)
    p.add_argument("--frame", type=int, default=0)
    p.add_argument("--flow-mode", choices=FLOW_MODES, default="occupancy-flow")
    p.add_argument("--out", default=None, help="blob prefix for the full arrays")
    p.set_defaults(func=_cmd_gen_flow)

    p = sub.add_parser("train", help="train a model on a scene and evaluate it")
    p.add_argument("--scene", required=True)
    p.add_argument("--preset", default="small")
    p.add_argument("--method", choices=METHODS, default="view-attn")
    p.add_argument("--mode", choices=MODES, default="one-dof")
    p.add_argument("--queue-len", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--params", default=None, help="blob prefix for trained parameters")
    p.add_argument("--curve", default=None, help="CSV path for the per-epoch curve")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate saved parameters over a frame stream")
    p.add_argument("--scene", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--frames", default=None, help="frame index or lo:hi range")
    p.add_argument("--queue-in", default=None, help="resume from a saved memory queue")
    p.add_argument("--queue-out", default=None, help="save the memory queue afterwards")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("compare", help="train and evaluate method variants side by side")
    p.add_argument("--scene", required=True)
    p.add_argument("--preset", default="small")
    p.add_argument("--methods", default=",".join(METHODS))
    p.add_argument("--queue-lens", default="4")
    p.add_argument("--mode", choices=MODES, default="one-dof")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_compare)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # an overflow or invalid value anywhere means the inputs were out of range
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except (ContractViolation, FloatingPointError) as exc:
        error = str(exc) if isinstance(exc, ContractViolation) else f"numeric fault: {exc}"
        sys.stderr.write(json.dumps({"error": error}, indent=2, sort_keys=True) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
