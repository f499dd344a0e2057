"""Multi-environment FDD-OFDM physical-layer secret key generation lab."""

import os as _os
import sys as _sys

# One BLAS thread per call, so that independent model chains can train on
# separate cores (fdkg.pipeline).  BLAS reads these when numpy loads it; if
# numpy came first, or a variable is set to anything but 1, chains run serially.
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_BLAS_PINNED = "numpy" not in _sys.modules
if _BLAS_PINNED:
    for _var in _BLAS_VARS:
        _os.environ.setdefault(_var, "1")
    _BLAS_PINNED = all(_os.environ[_var] == "1" for _var in _BLAS_VARS)

from .channel_sim import (
    Environment,
    EnvironmentDataset,
    EnvironmentSpec,
    OfdmConfig,
    PathParams,
    add_estimation_noise,
    build_environment,
    cfr,
    generate_env_dataset,
    sample_user_channel,
)
from .errors import ConfigError, FormatError
from .features import (
    Normalizer,
    complex_to_features,
    fit_normalizer,
    normalize,
)
from .keygen import check_epsilon, quantize_guardband, read_key_dump, write_key_dump
from .neuralnet import (
    AdamState,
    Gradients,
    NetworkParams,
    TrainConfig,
    adam_step,
    backward,
    forward,
    init_adam_state,
    init_network,
    mse_loss,
    sgd_step,
)
from .pipeline import (
    ExperimentConfig,
    ExperimentReport,
    desk_profile,
    emit_report,
    nmse,
    paper_profile,
    run_pipeline,
    score_keys,
    sweep,
)
from .strategies import (
    MetaConfig,
    MetaTask,
    MetaTaskSet,
    PairSet,
    adapt,
    inner_update,
    meta_train,
    partition_source_into_tasks,
    train_supervised,
)

__version__ = "0.1.0"
