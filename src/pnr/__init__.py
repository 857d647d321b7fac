"""Curation and evaluation toolkit for gaze-primed reach motion.

The package turns recordings of gaze, camera pose, object locations and
full-body motion into prime-and-reach sequences, and scores generated
motion against them with six metrics including prime success.
"""

from .curation import (
    CurationResult,
    DatasetStats,
    InitialState,
    PnRSequence,
    Recording,
    SplitManifest,
    curate,
    curate_corpus,
    split,
    stats,
)
from .errors import (
    DegenerateGaze,
    DegeneratePose,
    EmptyCorpus,
    EmptyWindow,
    InfeasibleSpec,
    MalformedFile,
    MissingGaze,
    PnrError,
    UnreachableGoal,
)
from .features import FEATURE_DIM, from_features, to_features
from .gaze import (
    GazeTrack,
    InteractionEvent,
    ObjectTarget,
    PrimedEvent,
    find_prime_time,
)
from .geometry import Aabb
from .metrics import (
    EvalPair,
    MetricsConfig,
    MetricsReport,
    evaluate,
    foot_skating,
    goal_mpjpe,
    location_error_flag,
    mpjpe,
    prime_success,
    prime_success_sweep,
    reach_success,
)
from .motion import (
    MotionSequence,
    body_movement,
    canonicalize,
    hand_movement,
    resample,
)
from .skeleton import JOINT_NAMES, N_JOINTS
from .synth import (
    GroundTruthLabels,
    ScenarioSpec,
    generate_corpus,
    generate_scenario,
    procedural_pnr,
    static_baseline,
)

__version__ = "0.1.0"
