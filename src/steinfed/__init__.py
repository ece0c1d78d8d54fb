"""Particle-based Bayesian federated learning and unlearning simulator."""

from .data import (
    Dataset,
    IdxFormatError,
    Shard,
    load_idx_dataset,
    load_idx_images,
    load_idx_labels,
    make_synthetic,
    make_synthetic_pair,
    partition_non_iid,
)
from .experiments import (
    ConfigError,
    ExperimentConfig,
    MissingStateError,
    build_problem,
    config_from_dict,
    evaluate_snapshot,
    export_plot_data,
    load_config,
    resolve_method,
    run_experiment,
    run_paths,
)
from .federation import (
    AgentState,
    ProtocolConfig,
    ProtocolError,
    ServerState,
    centralized_round,
    distill_target_grad,
    init_global_particles,
    init_local_particles,
    initialize_states,
    learning_round,
    pooled_target,
    schedule,
    tilted_grad,
    unlearning_round,
)
from .kernels import (
    kde_log_density,
    kde_log_density_grad,
    median_bandwidth,
)
from .metrics import (
    GridConfig,
    GridError,
    MetricRecord,
    MetricsWriter,
    SnapshotFormatError,
    TranscriptWriter,
    grid_kl,
    load_snapshot,
    read_metrics_csv,
    read_transcript,
    save_snapshot,
)
from .models import (
    FeatureMap,
    FeatureMapConfig,
    GaussianMixtureLoss,
    GaussianPrior,
    MixtureComponent,
    OutOfSupportError,
    SoftmaxHeadLoss,
    UniformPrior,
    averaged_class_probabilities,
    macro_accuracy,
    per_class_accuracy,
    pretrain_feature_map,
)
from .pvi import (
    GaussianNatParams,
    PviConfig,
    expected_loss_grad_moment,
    gaussian_log_density_moments,
    moment_to_nat,
    nat_to_moment,
    pvi_round,
    ulpvi_round,
)
from .svgd import AdaGradState, adagrad_step, run_svgd, svgd_direction

__version__ = "0.1.0"
