"""One benchmark workload in one process: `setup` builds its inputs, `run`
times it, checks its outputs and prints one JSON line.

    python3 perfbench/workload.py setup --workload W --seed N --dir D
    python3 perfbench/workload.py run --workload W --seed N --seconds S --trace T --dir D

`perfbench/run.py` starts these with `src/` on PYTHONPATH; see README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from viewocc import blobio, cli, encoder, flow_annotation, harness, objective, scene_sim

import checks
from tracer import Tracer

SCENES = {"train-compare": "training", "stream-eval": "stream", "flowocc-annotate": "stream"}
PRESET = "small"
METHODS = ("view-attn", "proj-first")
TRAIN_EPOCHS = 30
FLOW_MODES = ("occupancy-flow", "object-flow")
HEAD_SCALE = {"offset_head": 0.15, "logit_head": 0.5}   # seeded attention heads


def setup(workload: str, seed: int, out: Path) -> None:
    """Write the workload's inputs: the scene and, for stream-eval, params."""
    scene = scene_sim.preset_scene(SCENES[workload], seed=seed)
    scene_sim.save_scene(out / "scene.json", scene)
    if workload == "stream-eval":
        config, _ = harness.resolve_preset(PRESET, scene)
        rng = np.random.default_rng([seed, 0xB0])
        params = encoder.init_model(rng, config, len(scene.cameras))
        # freshly initialised offset and logit heads have zero weights, which
        # gives every query the same sample pattern; seed them instead
        for name, arr in params.arrays():
            parts = name.split(".")
            if parts[-1] == "weight" and parts[-2] in HEAD_SCALE:
                arr[...] = rng.normal(0.0, HEAD_SCALE[parts[-2]] / np.sqrt(arr.shape[1]),
                                      arr.shape)
        encoder.save_params(out / "params", params)


@contextlib.contextmanager
def capture_training(sink: list):
    """Record (params, history) of every harness.train_model call."""
    inner = harness.train_model

    def capture(*args, **kwargs):
        result = inner(*args, **kwargs)
        sink.append(result)
        return result

    harness.train_model = capture
    try:
        yield
    finally:
        harness.train_model = inner


def _cli(argv) -> None:
    """One in-process CLI call; its report on stdout is discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main([str(a) for a in argv])
    if status != 0:
        raise RuntimeError(f"viewocc {argv[0]} exited with status {status}")


class Workload:
    """A workload is whole rounds of the same operations; a round is the unit
    the benchmark repeats, and `frames` is how many scene frames it covers."""

    def __init__(self, name: str, seed: int, out: Path):
        self.name, self.seed, self.out = name, seed, out
        self.scene = scene_sim.load_scene(out / "scene.json")
        self.op_s = []          # wall time of each timed operation
        self.items = 0          # work items completed (steps or frames)
        self.attempted = 0
        self.failed = 0
        self.measured = {}      # figures the checks compared against their limits

    def round(self) -> None:
        getattr(self, "_round_" + self.name.replace("-", "_"))()

    def check(self) -> list:
        return getattr(self, "_check_" + self.name.replace("-", "_"))()

    @property
    def frames(self) -> int:
        return self.scene.num_frames

    def _timed(self, fn, *args, items: int = 1, **kwargs):
        """Call fn; a call that raises counts as failed and returns None."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is counted, not fatal
            print(f"{self.name}: operation failed: {exc!r}", file=sys.stderr)
            self.failed += 1
            return None
        self.op_s.append(time.perf_counter() - t0)
        self.items += items
        return result

    # -- train-compare -------------------------------------------------------

    def _round_train_compare(self) -> None:
        self.trained = []
        with capture_training(self.trained):
            self.report = self._timed(
                harness.compare_methods, self.scene, PRESET, methods=METHODS,
                settings_override={"epochs": TRAIN_EPOCHS}, seed=self.seed,
                items=len(METHODS) * TRAIN_EPOCHS * self.frames)

    def _check_train_compare(self) -> list:
        errors = []
        if self.report is None:
            return errors
        for run in self.report["runs"]:
            tag = run["method"]
            if not run["final_loss"] < 0.5 * run["initial_loss"]:
                errors.append(f"{tag}: final loss {run['final_loss']:.6g} is not below half "
                              f"of the first-epoch loss {run['initial_loss']:.6g}")
            for key in ("miou", "iou_geo"):
                if not 0.0 <= run[key] <= 1.0:
                    errors.append(f"{tag}: {key} {run[key]!r} outside [0, 1]")
        if len(self.trained) != len(METHODS):
            return errors + [f"captured {len(self.trained)} training runs, "
                             f"expected {len(METHODS)}"]
        scene, rig = self.scene, self.scene.cameras
        features = [scene_sim.render_all_cameras(scene, f) for f in range(self.frames)]
        truth = []
        for f in range(self.frames):
            labels, field = scene_sim.scene_ground_truth(scene, f)
            truth.append(objective.FrameTruth(labels, flow_annotation.reduce_bev_flow(field)))
        for (params, history), method in zip(self.trained, METHODS):
            _, settings = harness.resolve_preset(PRESET, scene, method=method)
            grads, loss_at = checks.last_frame_problem(params, features, truth, scene,
                                                       settings.loss_weights())
            err = checks.directional_fd_error(params.as_dict(), grads, loss_at,
                                              np.random.default_rng([self.seed, 0xFD]))
            self.measured[f"{method}.fd_relative_error"] = err
            if not err <= checks.FD_TOL:
                errors.append(f"{method}: directional derivative relative error {err:.3g}")
        return errors

    # -- stream-eval -----------------------------------------------------------

    def _round_stream_eval(self) -> None:
        for f in range(self.frames):
            argv = ["eval", "--scene", self.out / "scene.json", "--params",
                    self.out / "params", "--frames", f"{f}:{f + 1}",
                    "--queue-out", self.out / f"queue_{f:02d}", "--out",
                    self.out / f"eval_{f:02d}.json"]
            if f > 0:
                argv += ["--queue-in", self.out / f"queue_{f - 1:02d}"]
            self._timed(_cli, argv)

    def _check_stream_eval(self) -> list:
        params = encoder.load_params(self.out / "params")
        whole, _ = harness.evaluate_model(self.scene, params)
        whole = json.loads(json.dumps(harness.jsonable(whole)))
        errors = []
        for f in range(self.frames):
            path = self.out / f"eval_{f:02d}.json"
            if not path.exists():
                continue
            report = json.loads(path.read_text())
            # wall time and queue paths differ by design; a one-frame
            # aggregate cannot equal the whole stream's
            for key in ("wall_clock_s", "queue_in", "queue_out", "aggregate"):
                report.pop(key, None)
            want = {k: v for k, v in whole.items() if k != "aggregate"}
            want["frames"] = [whole["frames"][f]]
            if json.dumps(report, sort_keys=True) != json.dumps(want, sort_keys=True):
                errors.append(f"frame {f}: per-frame eval report differs from the "
                              "uninterrupted stream")
            if report["frames"][0]["queue_depth"] != min(f + 1, 4):
                errors.append(f"frame {f}: queue_depth {report['frames'][0]['queue_depth']}")
        return errors

    # -- flowocc-annotate ------------------------------------------------------

    def _annotate_stream(self) -> None:
        scene = self.out / "scene.json"
        for f in range(self.frames):
            _cli(["render", "--scene", scene, "--frame", f,
                  "--out", self.out / f"render_{f:02d}"])
            for mode in FLOW_MODES:
                _cli(["gen-flow", "--scene", scene, "--frame", f, "--flow-mode", mode,
                      "--out", self.out / f"flow_{mode}_{f:02d}"])

    def _round_flowocc_annotate(self) -> None:
        # one operation annotates the whole stream, as train-compare's one
        # operation is a whole compare: a single frame is shorter than the
        # stretches in which a shared core runs fast or slow, so a median
        # over frames tells more about the stretch a run fell in than about
        # the frame's cost
        self._timed(self._annotate_stream, items=self.frames)

    def _check_flowocc_annotate(self) -> list:
        rng = np.random.default_rng([self.seed, 0xC4])
        errors = []
        for f in range(self.frames):
            arrays, meta = blobio.read_blob(self.out / f"render_{f:02d}")
            maps = [arrays[f"cam.{j}"] for j in range(len(self.scene.cameras))]
            errors += checks.check_render(self.scene, f, maps, rng)
            for mode in FLOW_MODES:
                arrays, meta = blobio.read_blob(self.out / f"flow_{mode}_{f:02d}")
                errors += checks.check_flow(self.scene, f, mode, arrays)
        return errors


def run(workload: str, seed: int, seconds: float, trace: bool, out: Path) -> dict:
    work = Workload(workload, seed, out)
    tracer = None
    if trace:
        # one untraced round, then the same round traced; the difference is
        # the tracing overhead
        t0 = time.perf_counter()
        work.round()
        plain_s = time.perf_counter() - t0
        tracer = Tracer()
        tracer.install()
        t0 = time.perf_counter()
        work.round()
        traced_s = time.perf_counter() - t0
        tracer.uninstall()
    else:
        t0 = time.perf_counter()
        while True:
            work.round()
            elapsed = time.perf_counter() - t0
            if elapsed >= seconds:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    errors = work.check()
    for line in errors:
        print(f"{workload}: check failed: {line}", file=sys.stderr)
    with open(out / "checks.json", "w") as fh:
        json.dump({"errors": errors, "measured": work.measured}, fh, indent=2)
    if tracer is not None:
        tracer.dump(out / "trace.json")
        for name in tracer.absent:
            print(f"{workload}: traced function absent: {name}", file=sys.stderr)
        metrics = tracer.per_layer(work.frames, traced_s - plain_s)
    else:
        metrics = {
            "items_per_s": {"value": work.items / elapsed, "unit": "1/s"},
            "op_ms_p50": {"value": 1e3 * statistics.median(work.op_s)
                            if work.op_s else 0.0, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    return {"correct": not errors,
            "attempted": work.attempted, "failed": work.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("phase", choices=("setup", "run"))
    parser.add_argument("--workload", choices=sorted(SCENES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dir", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.phase == "setup":
        setup(args.workload, args.seed, args.dir)
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.dir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
