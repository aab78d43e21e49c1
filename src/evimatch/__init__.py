"""Cross-modal local features: event streams matched against frames.

The package follows one pipeline: event windows are rasterized into dense
tensors, a small convolutional extractor (distilled from an analytic image
teacher) turns them into score/descriptor maps, keypoints are pulled out by
deterministic non-maximum suppression, and matches against image keypoints
come from either a dual-softmax mutual-nearest-neighbor rule or a trained
attention matcher.  Synthetic scenes with exact ground truth close the loop
for training and for relative-pose evaluation.
"""

from .autodiff import Tensor
from .datagen import (Benchmark, LFDSample, Scene, Trajectory,
                      events_from_log_frames, generate_benchmark,
                      make_lfd_dataset, make_sample, make_scene, overlap_score,
                      render)
from .distillation import (DistillConfig, lfd_loss, loss_history_csv,
                           train_extractor)
from .events import EventStream, accumulate_mask, load_events, save_events
from .extractor import (DenseMaps, ExtractorConfig, KeypointSet,
                        analytic_teacher, event_keypoints, extract_keypoints,
                        forward_student, init_student, load_extractor,
                        save_extractor)
from .geometry import (CameraIntrinsics, DegenerateGeometry, EstimationFailed,
                       PoseEstimate, RigidPose, estimate_essential_ransac,
                       pose_angular_errors, relative_pose)
from .matching import (Assignment, CAConfig, CAMatcherParams,
                       GroundTruthMatches, MatchTrainConfig, ca_assignment,
                       ca_forward, ca_match, ca_scores, gt_assignment,
                       load_matcher, mnn_match, nll_loss, save_matcher,
                       train_matcher)
from .metrics import (repeatability, report_csv, report_text, rpe_auc,
                      rpe_ratio, score_pair, vdd_vda)
from .optim import Adam, cosine_lr, load_checkpoint, save_checkpoint
from .representations import (build_representation, event_stack,
                              normalize_tensor, time_surface, voxel_grid)

__version__ = "0.1.0"
