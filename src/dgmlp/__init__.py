"""Deep graph MLP pipeline.

Precomputed sparse feature propagation, per-node smoothing-level
measurement, node-adaptive multi-hop combination, and a residual MLP
classifier, plus dataset tooling and experiment harnesses.
"""

from .data import Dataset, Splits, drop_edges, erdos_renyi, load_dataset, \
    mask_features, row_divisor, row_normalize, subsample_labels
from .errors import ConfigurationError, DgmlpError, DimensionError, \
    ParameterError, ValidationError
from .graph import Graph, NormalizedAdjacency, build_graph, normalize
from .nn import Adam, Metrics, ResidualMlp, TrainConfig, forward, \
    load_checkpoint, loss_and_grad, save_checkpoint, softmax, train
from .propagation import PropagatedStack, propagate, propagation_steps, spmm, \
    stationary_direction, stationary_features
from .runner import RunConfig, prepare_combined, run_profile, run_scale, run_sweep, \
    run_train
from .smoothness import PropagationPass, SmoothnessProfile, combine, \
    combine_streaming, compute_nsl, cosine_similarity, matrix_nsl, \
    nsl_streaming, propagation_pass, propagation_weights, smoothness_profile

__version__ = "0.1.0"
