import csv
import dataclasses
import json

import numpy as np
import pytest

from viewocc import cli, harness
from viewocc.cli import main as cli_main
from viewocc.encoder import (ModelConfig, MomentumSGD, _to_columns, _to_voxels, backward_frame,
                             forward_frame, init_model, load_params, save_params)
from viewocc.errors import ContractViolation
from viewocc.flow_annotation import BEVFlowField
from viewocc.geometry import Pose
from viewocc.harness import (CSV_COLUMNS, MetricAccumulator, TrainSettings, compare_methods,
                             evaluate_model, jsonable, prepare_frames, resolve_preset,
                             train_model, write_history_csv)
from viewocc.numerics import AffineMap, FeatureMap
from viewocc.objective import FrameTruth, LossWeights, iou_geo, mave, miou, total_loss
from viewocc.scene_sim import build_rig, preset_scene, save_scene
from viewocc.temporal_stream import BEVGrid, MemoryQueue

from helpers import check_grad_array, zero_grads


def _tiny_config(method="view-attn", mode="one-dof") -> ModelConfig:
    return ModelConfig(grid_shape=(2, 4, 4), pitch=0.5, origin=(-1.0, -1.0, -0.25),
                       voxel_channels=8, bev_channels=12, n_classes=3, layers=1,
                       heads=2, points=2, queue_len=2, temporal_points=2,
                       method=method, mode=mode)


def _tiny_inputs(seed=3):
    rng = np.random.default_rng(seed)
    rig = build_rig("stereo2", fov_deg=80.0, width=12, height=9)
    features = [FeatureMap(rng.normal(size=(9, 12, 8))) for _ in rig]
    pose = Pose.from_z_rotation(0.1, (0.05, -0.02, 0.0))
    labels = rng.integers(0, 4, size=(2, 4, 4)).astype(np.int64)
    labels[0, 1, 1] = 2  # keep at least one occupied voxel
    truth = FrameTruth(labels=labels, bev_flow=BEVFlowField(
        flow=rng.normal(size=(4, 4, 2)), valid=rng.random((4, 4)) < 0.6,
        category=np.full((4, 4), 3, dtype=np.int64), pitch=0.5, origin=(-1.0, -1.0)))
    return rng, rig, features, pose, truth


def test_params_save_load_round_trip(tmp_path):
    config = _tiny_config()
    params = init_model(np.random.default_rng(0), config, n_cameras=2)
    save_params(tmp_path / "model", params)
    loaded = load_params(tmp_path / "model")
    assert loaded.config.to_json() == config.to_json()
    orig = params.as_dict()
    back = loaded.as_dict()
    assert sorted(orig) == sorted(back)
    for name in orig:
        np.testing.assert_array_equal(orig[name], back[name])


def test_params_header_with_the_removed_init_radii_loads(tmp_path):
    # blobs written before the star radii became init constants still carry them
    config = _tiny_config()
    params = init_model(np.random.default_rng(0), config, n_cameras=2)
    save_params(tmp_path / "model", params)
    path = tmp_path / "model.json"
    header = json.loads(path.read_text())
    header["meta"]["config"].update(star_radius=0.5, star_radius_px=3.0, star_radius_cells=0.9)
    path.write_text(json.dumps(header))
    loaded = load_params(tmp_path / "model")
    assert loaded.config == config
    back = loaded.as_dict()
    for name, arr in params.arrays():
        np.testing.assert_array_equal(back[name], arr)


# --- voxel <-> BEV column layout -----------------------------------------------


def test_squeeze_is_z_major():
    # z0 carries (1,2), z1 carries (3,4): the column reads (1,2,3,4)
    data = np.array([[[[1.0, 2.0]]], [[[3.0, 4.0]]]])  # (Z=2, H=1, W=1, C=2)
    identity = AffineMap.identity(4)
    np.testing.assert_array_equal((_to_columns(data) @ identity.weight.T + identity.bias)[0],
                                  [1.0, 2.0, 3.0, 4.0])
    picker = AffineMap(np.array([[0.0, 0.0, 0.0, 1.0]]), np.zeros(1))
    np.testing.assert_array_equal((_to_columns(data) @ picker.weight.T + picker.bias)[0], [4.0])


def test_unsqueeze_round_trip_with_identity():
    rng = np.random.default_rng(1)
    data = rng.normal(size=(3, 4, 5, 2))
    identity = AffineMap.identity(6)
    bev = _to_columns(data).reshape(4, 5, 6) @ identity.weight.T + identity.bias
    back = _to_voxels(bev @ identity.weight.T + identity.bias, data.shape[:3])
    np.testing.assert_array_equal(back, data)


def test_forward_is_deterministic():
    config = _tiny_config()
    _, rig, features, pose, _ = _tiny_inputs()
    params = init_model(np.random.default_rng(1), config, len(rig))
    a = forward_frame(params, features, rig, pose, MemoryQueue(2))
    b = forward_frame(params, features, rig, pose, MemoryQueue(2))
    np.testing.assert_array_equal(a.pred.occ_logits, b.pred.occ_logits)
    np.testing.assert_array_equal(a.pred.sem_logits, b.pred.sem_logits)
    np.testing.assert_array_equal(a.pred.bev_flow, b.pred.bev_flow)


def test_zero_grads_covers_every_array():
    config = _tiny_config()
    params = init_model(np.random.default_rng(2), config, 2)
    grads = zero_grads(params)
    arrays = params.as_dict()
    assert sorted(grads) == sorted(arrays)
    for name, g in grads.items():
        assert g.shape == arrays[name].shape
        assert not g.any()
    assert params.n_parameters() == sum(a.size for a in arrays.values())


@pytest.mark.parametrize("levels", [0, 2], ids=["empty-queue", "full-queue"])
def test_backward_frame_returns_one_gradient_per_array(levels):
    # an empty queue leaves the temporal block unused: its gradients are zeros
    config = _tiny_config()
    rng, rig, features, pose, truth = _tiny_inputs()
    params = init_model(rng, config, len(rig))
    queue = MemoryQueue(config.queue_len)
    for _ in range(levels):
        queue.push(BEVGrid(rng.normal(size=(4, 4, config.bev_channels)), 0.5, (-1.0, -1.0)),
                   Pose.from_z_rotation(0.05, (0.02, 0.0, 0.0)))
    res = forward_frame(params, features, rig, pose, queue, keep_cache=True)
    _, _, loss_grads = total_loss(res.pred, truth, LossWeights(), with_grads=True)
    grads = backward_frame(params, res, features, rig, loss_grads)
    arrays = params.as_dict()
    assert sorted(grads) == sorted(arrays)
    for name, arr in arrays.items():
        assert (grads[name].shape, grads[name].dtype) == (arr.shape, arr.dtype), name
        assert not np.shares_memory(grads[name], arr), name
    temporal = [grads[name].any() for name in arrays if name.startswith("temporal.")]
    assert len(temporal) == 10 and any(temporal) == (levels > 0)


@pytest.mark.parametrize("method", ["view-attn", "proj-first"])
def test_full_model_gradients_match_fd(method):
    config = _tiny_config(method=method)
    rng, rig, features, pose, truth = _tiny_inputs()
    params = init_model(rng, config, len(rig))
    queue = MemoryQueue(config.queue_len)
    weights = LossWeights()

    def loss_value():
        res = forward_frame(params, features, rig, pose, queue)
        value, _ = total_loss(res.pred, truth, weights)
        return float(value)

    res = forward_frame(params, features, rig, pose, queue, keep_cache=True)
    _, _, loss_grads = total_loss(res.pred, truth, weights, with_grads=True)
    grads = backward_frame(params, res, features, rig, loss_grads)
    arrays = params.as_dict()
    check_rng = np.random.default_rng(17)
    for name in ("query_table", "layers.0.offset_head.weight", "layers.0.logit_head.bias",
                 "layers.0.value_maps.0.weight", "layers.0.output_maps.1.bias",
                 "squeeze.weight", "expand.weight", "occ_head.weight", "sem_head.bias",
                 "flow_head.weight"):
        check_grad_array(loss_value, arrays[name], grads[name], check_rng, tol=2e-4)


def _in_view_problem(method, mode, layers, seed=3):
    """A tiny model whose grid sits in front of a low stereo rig, so most
    attention samples are valid, with every parameter nudged off its init
    and one level in the memory queue."""
    config = ModelConfig(grid_shape=(2, 4, 4), pitch=0.5, origin=(1.0, -1.0, -0.25),
                         voxel_channels=8, bev_channels=12, n_classes=3, layers=layers,
                         heads=2, points=2, queue_len=2, temporal_points=2,
                         method=method, mode=mode)
    rng = np.random.default_rng(seed)
    rig = build_rig("stereo2", fov_deg=80.0, width=12, height=9, mount_height=0.3)
    features = [FeatureMap(rng.normal(size=(9, 12, 8))) for _ in rig]
    pose = Pose.from_z_rotation(0.1, (0.05, -0.02, 0.0))
    labels = rng.integers(0, 4, size=(2, 4, 4)).astype(np.int64)
    labels[0, 1, 1] = 2
    truth = FrameTruth(labels=labels, bev_flow=BEVFlowField(
        flow=rng.normal(size=(4, 4, 2)), valid=rng.random((4, 4)) < 0.6,
        category=np.full((4, 4), 3, dtype=np.int64), pitch=0.5, origin=(1.0, -1.0)))
    params = init_model(rng, config, len(rig))
    for _, arr in params.arrays():
        arr += rng.normal(0.0, 0.05, arr.shape)
    queue = MemoryQueue(config.queue_len)
    queue.push(BEVGrid(rng.normal(size=(4, 4, config.bev_channels)), 0.5, (1.0, -1.0)),
               Pose.from_z_rotation(0.05, (0.02, 0.0, 0.0)))
    return params, rig, features, pose, queue, truth


@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("mode", ["one-dof", "two-dof"])
@pytest.mark.parametrize("method", ["view-attn", "proj-first"])
def test_in_view_model_gradients_match_fd_through_every_layer(method, mode, layers):
    params, rig, features, pose, queue, truth = _in_view_problem(method, mode, layers)
    weights = LossWeights()

    def loss_value():
        res = forward_frame(params, features, rig, pose, queue)
        value, _ = total_loss(res.pred, truth, weights)
        return float(value)

    res = forward_frame(params, features, rig, pose, queue, keep_cache=True)
    assert len(res.caches["layers"]) == layers
    for cache in res.caches["layers"]:
        assert cache["valid"].any(), "every layer must read some camera"
    _, _, loss_grads = total_loss(res.pred, truth, weights, with_grads=True)
    grads = backward_frame(params, res, features, rig, loss_grads)
    names = ["query_table", "squeeze.weight", "temporal.offset_head.weight",
             "temporal.value_map.weight", "expand.weight", "occ_head.weight",
             "sem_head.bias", "flow_head.weight"]
    for i in range(layers):
        names += [f"layers.{i}.{name}" for name in (
            "offset_head.weight", "offset_head.bias", "logit_head.weight",
            "logit_head.bias", "value_maps.0.weight", "value_maps.1.bias",
            "output_maps.0.weight", "output_maps.1.bias")]
    for name in names:
        assert np.abs(grads[name]).max() > 0.0, f"{name} has an all-zero gradient"
    arrays = params.as_dict()
    check_rng = np.random.default_rng(19)
    for name in names:
        check_grad_array(loss_value, arrays[name], grads[name], check_rng, tol=2e-4)


def test_temporal_path_gradients_match_fd():
    config = _tiny_config()
    rng, rig, features, pose, truth = _tiny_inputs(seed=5)
    params = init_model(rng, config, len(rig))
    # the star init puts temporal samples exactly on bilinear lattice lines and
    # the closed image border, where the loss is kinked; nudge to a generic spot
    arrays = params.as_dict()
    arrays["temporal.offset_head.weight"] += rng.normal(scale=0.03,
                                                        size=arrays["temporal.offset_head.weight"].shape)
    arrays["temporal.offset_head.bias"] += rng.normal(scale=0.05,
                                                      size=arrays["temporal.offset_head.bias"].shape)
    queue = MemoryQueue(config.queue_len)
    prev = BEVGrid(rng.normal(size=(4, 4, config.bev_channels)), 0.5, (-1.0, -1.0))
    queue.push(prev, Pose.from_z_rotation(0.05, (0.02, 0.0, 0.0)))
    weights = LossWeights()

    def loss_value():
        res = forward_frame(params, features, rig, pose, queue)
        value, _ = total_loss(res.pred, truth, weights)
        return float(value)

    res = forward_frame(params, features, rig, pose, queue, keep_cache=True)
    _, _, loss_grads = total_loss(res.pred, truth, weights, with_grads=True)
    grads = backward_frame(params, res, features, rig, loss_grads)
    arrays = params.as_dict()
    check_rng = np.random.default_rng(18)
    for name in ("temporal.offset_head.weight", "temporal.logit_head.weight",
                 "temporal.value_map.weight", "temporal.output_map.bias",
                 "temporal.feed_forward.weight"):
        check_grad_array(loss_value, arrays[name], grads[name], check_rng, tol=2e-4)


def test_momentum_sgd_two_step_hand_values():
    config = _tiny_config()
    params = init_model(np.random.default_rng(4), config, 2)
    x0 = params.as_dict()["occ_head.bias"].copy()
    grads = zero_grads(params)
    g = np.ones_like(x0)
    grads["occ_head.bias"][:] = g
    opt = MomentumSGD(lr=0.1)
    opt.step(params, grads)
    x1 = params.as_dict()["occ_head.bias"]
    np.testing.assert_allclose(x1, x0 - 0.1 * g, atol=1e-15)
    grads["occ_head.bias"][:] = g
    opt.step(params, grads)
    np.testing.assert_allclose(params.as_dict()["occ_head.bias"],
                               x0 - 0.1 * g - 0.1 * 1.9 * g, atol=1e-15)


# --- harness -----------------------------------------------------------------


def test_two_epoch_training_writes_history(tmp_path):
    scene = preset_scene("training")
    config, settings = resolve_preset("small", scene)
    settings = dataclasses.replace(settings, epochs=2)
    csv_path = tmp_path / "curve.csv"
    params, history = train_model(scene, config, settings, data=prepare_frames(scene))
    write_history_csv(csv_path, history)
    assert len(history) == 2
    for row in history:
        assert np.isfinite(row["total"])
    with open(csv_path) as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == CSV_COLUMNS
    assert len(rows) == 3
    assert float(rows[1][5]) == pytest.approx(history[0]["total"])


@pytest.mark.parametrize("override", [{"momentum": 0.5}, {"no_such_setting": 1}],
                         ids=["removed-momentum", "unknown-name"])
def test_compare_rejects_unknown_settings_override(override):
    with pytest.raises(ContractViolation, match="settings"):
        compare_methods(preset_scene("training"), "small", settings_override=override)


def test_compare_prepares_once_and_trains_through_the_module_attribute(monkeypatch):
    # a wrapper around harness.train_model (as the benchmark installs one)
    # must see every training run, and the frames are prepared once
    scene = preset_scene("training")
    calls = {"prepare_frames": 0, "train_model": 0}
    for name in calls:
        inner = getattr(harness, name)

        def counted(*args, _inner=inner, _name=name, **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(harness, name, counted)
    methods = ("view-attn", "proj-first")
    report = compare_methods(scene, "small", methods=methods,
                             settings_override={"epochs": 2}, seed=5)
    assert calls == {"prepare_frames": 1, "train_model": len(methods)}

    monkeypatch.undo()
    for method, run in zip(methods, report["runs"]):
        config, settings = resolve_preset("small", scene, method=method)
        settings = dataclasses.replace(settings, epochs=2, seed=5)
        params, history = train_model(scene, config, settings, data=prepare_frames(scene))
        alone, _ = evaluate_model(scene, params)
        assert jsonable([run["initial_loss"], run["final_loss"]]) == jsonable(
            [history[0]["total"], history[-1]["total"]])
        assert jsonable([run[k] for k in ("miou", "iou_geo", "mave")]) == jsonable(
            [alone["aggregate"][k] for k in ("miou", "iou_geo", "mave")])


@pytest.mark.parametrize("field, value, error", [
    ("epochs", 0, "epochs must be >= 1, got 0"),
    ("seed", -1, "seed must be >= 0, got -1"),
    ("lr", 0.0, "learning rate must be positive"),
    ("lr", float("nan"), "learning rate must be positive"),
    ("epochs", 2.5, "epochs must be an integer from 0 to 2**63 - 1, got 2.5"),
    ("epochs", True, "epochs must be an integer from 0 to 2**63 - 1, got True"),
    ("seed", 1.5, "seed must be an integer from 0 to 2**63 - 1, got 1.5"),
    ("lr", float("inf"), "learning rate must be a finite number, got inf"),
    ("epochs", "3", "epochs must be an integer from 0 to 2**63 - 1, got '3'"),
    ("epochs", None, "epochs must be an integer from 0 to 2**63 - 1, got None"),
    ("seed", "1", "seed must be an integer from 0 to 2**63 - 1, got '1'"),
    ("lr", "0.1", "learning rate must be a finite number, got '0.1'"),
])
def test_train_settings_are_checked_whenever_they_are_built(monkeypatch, field, value, error):
    with pytest.raises(ContractViolation) as exc:
        TrainSettings(**{field: value})
    assert str(exc.value) == error
    # compare_methods builds every run's settings before it prepares a frame
    calls = []
    monkeypatch.setattr(harness, "prepare_frames", lambda *args: calls.append(args))
    override = {} if field == "seed" else {field: value}
    seed = value if field == "seed" else None
    with pytest.raises(ContractViolation) as exc:
        compare_methods(preset_scene("training"), "small", settings_override=override, seed=seed)
    assert str(exc.value) == error and calls == []


@pytest.mark.parametrize("alpha", [2.0, float("nan")])
def test_focal_alpha_is_refused_before_any_frame_is_observed(monkeypatch, alpha):
    with pytest.raises(ContractViolation, match=r"^focal_alpha must lie in \[0, 1\]$"):
        TrainSettings(focal_alpha=alpha)
    calls = []
    inner = harness.observe

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(harness, "observe", counted)
    with pytest.raises(ContractViolation, match=r"^focal_alpha must lie in \[0, 1\]$"):
        compare_methods(preset_scene("training"), "small",
                        settings_override={"focal_alpha": alpha, "epochs": 1})
    assert calls == []


def test_checked_settings_cannot_be_reassigned():
    scene = preset_scene("training")
    config, settings = resolve_preset("small", scene)
    targets = [(settings, "epochs", 0), (settings.loss_weights(), "focal_alpha", 2.0),
               (config, "heads", 3)]
    for obj, name, value in targets:
        before = getattr(obj, name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, value)
        assert getattr(obj, name) == before
    assert settings.epochs == 200


def test_preset_requires_matching_channels():
    scene = preset_scene("rotation")  # renders 12 channels, preset wants 16
    with pytest.raises(ContractViolation):
        resolve_preset("small", scene)


def test_evaluation_stream_resumes_exactly():
    scene = preset_scene("stream")
    config, _ = resolve_preset("small", scene)
    params = init_model(np.random.default_rng(6), config, len(scene.cameras))
    full, _ = evaluate_model(scene, params, data=prepare_frames(scene, range(4)))
    head, queue = evaluate_model(scene, params, data=prepare_frames(scene, range(2)))
    tail, _ = evaluate_model(scene, params, data=prepare_frames(scene, range(2, 4)), queue=queue)
    assert jsonable(full["frames"][:2]) == jsonable(head["frames"])
    assert jsonable(full["frames"][2:]) == jsonable(tail["frames"])


def test_cli_end_to_end(tmp_path, capsys):
    scene_path = tmp_path / "scene.json"
    assert cli_main(["make-scene", "--preset", "training", "--out", str(scene_path)]) == 0
    capsys.readouterr()
    assert json.loads(scene_path.read_text())["feature_channels"] == 16

    report_path = tmp_path / "train.json"
    code = cli_main(["train", "--scene", str(scene_path), "--preset", "small",
                     "--epochs", "1", "--params", str(tmp_path / "model"),
                     "--curve", str(tmp_path / "curve.csv"),
                     "--out", str(report_path)])
    assert code == 0
    capsys.readouterr()
    report = json.loads(report_path.read_text())
    assert report["epochs"] == 1
    assert (tmp_path / "model.json").exists() and (tmp_path / "model.bin").exists()

    code = cli_main(["eval", "--scene", str(scene_path),
                     "--params", str(tmp_path / "model"), "--frames", "0:2"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert [f["frame"] for f in out["frames"]] == [0, 1]

    assert cli_main(["coverage", "--scene", str(scene_path)]) == 0
    cov = json.loads(capsys.readouterr().out)
    assert 0.0 <= float(cov["fraction_multi"]) <= 1.0


def test_cli_train_prepares_the_frames_once(monkeypatch, capsys):
    calls = []

    def counted(scene, frames=None):
        calls.append(frames)
        return prepare_frames(scene, frames)

    # counted wherever a preparation may start: the command and the harness
    monkeypatch.setattr(cli, "prepare_frames", counted)
    monkeypatch.setattr(harness, "prepare_frames", counted)
    assert cli_main(["train", "--scene", "training", "--epochs", "1"]) == 0
    assert len(json.loads(capsys.readouterr().out)["evaluation"]["frames"]) == 3
    assert calls == [None]


def test_cli_rejects_bad_input(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert cli_main(["coverage", "--scene", str(missing)]) == 2
    err = capsys.readouterr().err
    assert "error" in json.loads(err)


def test_cli_rejects_non_object_scene_file(tmp_path, capsys):
    scene_path = tmp_path / "scene.json"
    scene_path.write_text("[]")
    assert cli_main(["coverage", "--scene", str(scene_path)]) == 2
    assert "malformed scene" in json.loads(capsys.readouterr().err)["error"]


def test_cli_compare_rejects_non_integer_queue_lens(capsys):
    assert cli_main(["compare", "--scene", "training", "--queue-lens", "abc"]) == 2
    assert "--queue-lens" in json.loads(capsys.readouterr().err)["error"]


@pytest.mark.parametrize("command", ["train", "compare"])
def test_cli_rejects_zero_epochs(tmp_path, capsys, command):
    scene_path = tmp_path / "scene.json"
    save_scene(scene_path, preset_scene("training"))
    assert cli_main([command, "--scene", str(scene_path), "--preset", "small",
                     "--epochs", "0"]) == 2
    assert "epochs" in json.loads(capsys.readouterr().err)["error"]


@pytest.mark.parametrize("command", ["train", "compare"])
def test_cli_rejects_a_negative_seed(tmp_path, capsys, command):
    scene_path = tmp_path / "scene.json"
    save_scene(scene_path, preset_scene("training"))
    assert cli_main([command, "--scene", str(scene_path), "--preset", "small",
                     "--epochs", "1", "--seed", "-1"]) == 2
    assert "seed" in json.loads(capsys.readouterr().err)["error"]


def _truncate_bin(prefix):
    path = prefix.with_name(prefix.name + ".bin")
    path.write_bytes(path.read_bytes()[:100])


def _drop_arrays_table(prefix):
    path = prefix.with_name(prefix.name + ".json")
    header = json.loads(path.read_text())
    del header["arrays"]
    path.write_text(json.dumps(header))


@pytest.mark.parametrize("corrupt", [_truncate_bin, _drop_arrays_table])
def test_cli_eval_rejects_corrupt_params_blob(tmp_path, capsys, corrupt):
    scene = preset_scene("training")
    scene_path = tmp_path / "scene.json"
    save_scene(scene_path, scene)
    config, _ = resolve_preset("small", scene)
    prefix = tmp_path / "model"
    save_params(prefix, init_model(np.random.default_rng(0), config, len(scene.cameras)))
    corrupt(prefix)
    assert cli_main(["eval", "--scene", str(scene_path), "--params", str(prefix)]) == 2
    assert "read_blob" in json.loads(capsys.readouterr().err)["error"]


def _edit_params_header(prefix, edit):
    path = prefix.with_name(prefix.name + ".json")
    header = json.loads(path.read_text())
    edit(header)
    path.write_text(json.dumps(header))


_HEADER_FAULTS = {
    "no-config": lambda h: h["meta"].pop("config"),
    "no-logit-head": lambda h: h["arrays"].pop("layers.0.logit_head.weight"),
    "list-meta": lambda h: h.update(meta=[h["meta"]]),
    "zero-heads": lambda h: h["meta"]["config"].update(heads=0),
    "string-pitch": lambda h: h["meta"]["config"].update(pitch="0.4"),
    "string-origin-entry": lambda h: h["meta"]["config"]["origin"].__setitem__(0, "-4"),
}


@pytest.mark.parametrize("fault", sorted(_HEADER_FAULTS))
def test_cli_eval_rejects_params_header_faults(tmp_path, capsys, fault):
    scene = preset_scene("training")
    scene_path = tmp_path / "scene.json"
    save_scene(scene_path, scene)
    config, _ = resolve_preset("small", scene)
    prefix = tmp_path / "model"
    save_params(prefix, init_model(np.random.default_rng(0), config, len(scene.cameras)))
    _edit_params_header(prefix, _HEADER_FAULTS[fault])
    assert cli_main(["eval", "--scene", str(scene_path), "--params", str(prefix)]) == 2
    assert json.loads(capsys.readouterr().err)["error"]


_QUEUE_FAULTS = {
    "no-capacity": lambda h: h["meta"].pop("capacity"),
    "no-count": lambda h: h["meta"].pop("count"),
    "no-poses": lambda h: h["meta"].pop("poses"),
    "no-layout": lambda h: h["meta"].pop("layout"),
    "missing-bev-array": lambda h: h["arrays"].pop("bev.0000"),
    "string-pitch": lambda h: h["meta"]["layout"].update(pitch="0.4"),
    "string-origin": lambda h: h["meta"]["layout"].update(origin=["-4", "-4"]),
}


@pytest.mark.parametrize("fault", sorted(_QUEUE_FAULTS))
def test_cli_eval_rejects_queue_header_faults(tmp_path, capsys, fault):
    scene = preset_scene("training")
    scene_path = tmp_path / "scene.json"
    save_scene(scene_path, scene)
    config, _ = resolve_preset("small", scene)
    params, queue = tmp_path / "model", tmp_path / "queue"
    save_params(params, init_model(np.random.default_rng(0), config, len(scene.cameras)))
    assert cli_main(["eval", "--scene", str(scene_path), "--params", str(params),
                     "--frames", "0", "--queue-out", str(queue)]) == 0
    capsys.readouterr()
    _edit_params_header(queue, _QUEUE_FAULTS[fault])
    assert cli_main(["eval", "--scene", str(scene_path), "--params", str(params),
                     "--frames", "1", "--queue-in", str(queue)]) == 2
    assert "queue blob" in json.loads(capsys.readouterr().err)["error"]


def test_metric_accumulator_frame_scores_and_totals_match_the_metrics():
    # each frame's scores are the metric functions on that frame; the result
    # is the metric functions on all frames pooled
    rng = np.random.default_rng(12)
    classes, foreground = [1, 2, 3], [3]
    acc = MetricAccumulator(classes, foreground)
    frames = []
    for _ in range(3):
        pred, gt = rng.integers(0, 4, size=(2, 4, 5)), rng.integers(0, 4, size=(2, 4, 5))
        mask = rng.random((2, 4, 5)) > 0.3
        flow = rng.normal(size=(4, 5, 2))
        truth = BEVFlowField(rng.normal(size=(4, 5, 2)), rng.random((4, 5)) > 0.2,
                             rng.integers(0, 4, size=(4, 5)), 0.5, (0.0, 0.0))
        scores = acc.add_frame(pred, gt, flow, truth, mask)
        assert scores == {"miou": miou(pred, gt, classes, mask)[0],
                          "iou_geo": iou_geo(pred > 0, gt > 0, mask),
                          "mave": mave(flow, truth, foreground)[0]}
        frames.append((pred, gt, mask, flow, truth))
    pred, gt, mask, flow = (np.concatenate([f[i] for f in frames]) for i in range(4))
    truth = BEVFlowField(*(np.concatenate([getattr(f[4], k) for f in frames])
                           for k in ("flow", "valid", "category")), 0.5, (0.0, 0.0))
    result = acc.result()
    assert (result["miou"], result["iou_per_class"]) == miou(pred, gt, classes, mask)
    assert result["iou_geo"] == iou_geo(pred > 0, gt > 0, mask)
    mean, per_class = mave(flow, truth, foreground)
    np.testing.assert_allclose([result["mave"], *result["ave_per_class"].values()],
                               [mean, *per_class.values()], rtol=0, atol=1e-12)


def test_prepared_frames_carry_consistent_shapes():
    scene = preset_scene("boundary")
    frames = prepare_frames(scene, frames=[0])
    fd = frames[0]
    assert fd.truth.labels.shape == scene.grid.shape
    assert fd.visibility.shape == scene.grid.shape
    assert fd.truth.bev_flow.flow.shape == (scene.grid.shape[1], scene.grid.shape[2], 2)
    assert len(fd.features) == len(scene.cameras)


# edits of a queued grid's (shape, pitch, origin) away from the model's BEV grid
_LAYOUT_EDITS = {
    "none": lambda shape, pitch, origin: (shape, pitch, origin),
    "pitch one ulp up": lambda shape, pitch, origin: (shape, np.nextafter(pitch, 1.0), origin),
    "origin x one ulp down": lambda shape, pitch, origin: (
        shape, pitch, origin - [np.spacing(origin[0]), 0.0]),
    "origin y shifted a cell": lambda shape, pitch, origin: (shape, pitch, origin + [0.0, pitch]),
    "one channel fewer": lambda shape, pitch, origin: ((*shape[:2], shape[2] - 1), pitch, origin),
    "one row more": lambda shape, pitch, origin: ((shape[0] + 1, *shape[1:]), pitch, origin),
}


@pytest.mark.parametrize("edit", sorted(_LAYOUT_EDITS))
def test_check_fit_refuses_exactly_the_queued_layouts_the_forward_refuses(edit):
    scene = preset_scene("training")
    config, _ = resolve_preset("small", scene)
    params = init_model(np.random.default_rng(0), config, len(scene.cameras))
    _, h, w = config.grid_shape
    shape, pitch, origin = _LAYOUT_EDITS[edit]((h, w, config.bev_channels), config.pitch,
                                               np.array(config.origin[:2]))
    queue = MemoryQueue(config.queue_len).push(BEVGrid(np.zeros(shape), pitch, origin),
                                               Pose.identity())
    features = [np.zeros((cam.height, cam.width, config.voxel_channels)) for cam in scene.cameras]
    outcomes = []
    for step in (lambda: harness.check_fit(scene, config, queue),
                 lambda: forward_frame(params, features, scene.cameras, Pose.identity(), queue)):
        try:
            step()
            outcomes.append("accepted")
        except ContractViolation:
            outcomes.append("refused")
    assert outcomes == ["accepted" if edit == "none" else "refused"] * 2
