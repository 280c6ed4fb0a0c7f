"""Multi-view 3D occupancy perception with view-coordinate attention,
streaming BEV temporal fusion, occupancy-flow ground truth, and a composite
training objective, exercised on synthetic desk-scale camera rigs."""

from .encoder import (METHODS, MODES, FrameResult, ModelConfig, ModelParams, MomentumSGD,
                      backward_frame, forward_frame, init_model, load_params, save_params)
from .errors import ContractViolation, require
from .flow_annotation import (BEVFlowField, FlowField, GridSpec, TrackedBox, flow_vector,
                              generate_flow_field, map_point_back, reduce_bev_flow)
from .geometry import (CameraModel, Pose, project_rig_jacobian, relative_pose, rotation_z,
                       view_rotations)
from .harness import (PRESETS, MetricAccumulator, TrainSettings, compare_methods,
                      coverage_report, decode_prediction, evaluate_model, jsonable,
                      prepare_frames, resolve_preset, train_model)
from .numerics import FLOAT, AffineMap, FeatureMap, softmax_norm
from .objective import (FrameTruth, LossWeights, PredictionBundle, cross_entropy,
                        focal_loss, l1_flow, lovasz_softmax, total_loss)
from .scene_sim import (SceneClass, SceneSpec, StaticElement, build_rig, load_scene, observe,
                        preset_scene, render_all_cameras, save_scene, scene_ground_truth,
                        with_feature_channels)
from .temporal_stream import (BEVGrid, MemoryQueue, TemporalParams, check_planar,
                              init_temporal_params, load_queue, save_queue,
                              temporal_backward_arrays, temporal_forward_arrays, warp_bev,
                              warp_queue)
from .view_attention import (AttnParams, QueryContext, TraceRecord, attn_backward_batch,
                             attn_forward_batch, deform_aggregate, deform_aggregate_backward,
                             init_proj_first_params, init_view_attn_params,
                             proj_first_backward_batch, proj_first_forward_batch)

__version__ = "0.1.0"
