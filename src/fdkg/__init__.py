"""Multi-environment FDD-OFDM physical-layer secret key generation lab."""

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
    read_dataset,
    sample_user_channel,
    write_dataset,
)
from .errors import ConfigError, FormatError
from .features import (
    Normalizer,
    complex_to_features,
    features_to_complex,
    fit_normalizer,
    normalize,
)
from .keygen import (
    KeyMaterial,
    QuantizerConfig,
    align_keys,
    inverse_normal_cdf,
    key_error_rate,
    key_generation_ratio,
    quantize_guardband,
    read_key_dump,
    write_key_dump,
)
from .model_io import load_model, save_model
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
    report_from_json,
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
