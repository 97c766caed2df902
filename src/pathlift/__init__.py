"""Path-lifting toolkit for DAG networks with ReLU and k-max pooling.

The package turns a parameterized DAG network into its vector of path
products, and builds on that single object: fast path norms, a rescaling
invariant parameter metric, a Lipschitz bound in that metric, symmetry
aware pruning with an output error guarantee, and a small training
harness that compares pruning criteria under random rescalings.
"""

import types as _types

from .autodiff import grad_check, grad_path_norm, grad_scalar, scalar_value
from .builders import (
    conv_grid_architecture,
    mlp_architecture,
    mlp_matrices,
    mlp_params,
    random_dag,
    random_params,
    same_sign_partner,
)
from .errors import (
    ArchitectureError,
    BadPoolArity,
    CycleDetected,
    DanglingEdge,
    DimensionMismatch,
    DominanceUnverified,
    DuplicateDeclaration,
    IneligibleNeuron,
    InfeasibleAmount,
    MissingData,
    MixedZeroCoordinate,
    NonFiniteValue,
    NonIdentityOutput,
    NonPositiveFactor,
    ParseError,
    PathExplosion,
    PathliftError,
    RaggedLayers,
    SignConditionViolated,
    UnknownNeuron,
)
from .experiment import (
    ExperimentConfig,
    ExperimentReport,
    accuracy,
    epoch_seeds,
    make_dataset,
    run_experiment,
    sgd_train,
)
from .graph import (
    Architecture,
    ParamVector,
    forward,
    neuron_values,
)
from .lipschitz import (
    Breakpoint,
    BoundReport,
    EqualityWitness,
    SignCounterexample,
    TelescopingReport,
    activation_breakpoints,
    bound_rhs,
    check_sign_condition,
    equality_witness,
    sign_counterexample,
    trajectory_point,
    verify_bound,
)
from .metrics import (
    PathMetricReport,
    mlp_bounds,
    path_metric_exact_dominated,
    path_metric_lower,
    path_metric_oracle,
    path_metric_report,
    path_metric_upper,
    path_norm_fast,
)
from .netfile import load_network, save_network
from .paths import (
    PathLifting,
    count_paths,
    enumerate_paths,
    format_path,
    incidence_matrix,
    linearized_output,
    max_path_length,
    path_activations,
    path_lifting,
    save_path_table,
)
from .pruning import (
    Mask,
    PruneBoundReport,
    ScoreVector,
    apply_prune,
    baseline_scores,
    magnitude_scores,
    obd_fd_scores,
    obd_hutchinson_scores,
    path_mag_scores,
    pruning_error_bound,
)
from .transforms import (
    POW2_FACTORS,
    hidden_positions,
    normalize,
    random_rescaling,
    rescale,
)

__version__ = "0.1.0"

# the public names are exactly the ones imported above
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
)
