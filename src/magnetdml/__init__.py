"""Cluster-based distance metric learning toolkit.

Trains an embedding with the magnet (cluster-overlap) objective — adaptive
per-class K-means modeling, loss-proportional neighbourhood sampling and
k-nearest-cluster evaluation — alongside triplet, NCA, NCM/NCMC and softmax
baselines.
"""

from .config import ExperimentConfig, parse_config
from .data import (
    Dataset,
    MixtureSpec,
    Mode,
    collapse_labels,
    generate_mixture,
    load_dataset,
    random_pairing,
    save_dataset,
    split,
)
from .evaluate import (
    EvalContext,
    attribute_precision,
    attribute_precision_values,
    classify_batch,
    error_rate,
    hierarchy_recovery_eval,
    knc_context,
    reference_sigma2,
    soft_knn_context,
)
from .gradcheck import grad_check
from .index import ClusterIndex, build_index, class_kmeans, kmeans
from .losses import (
    LinearHead,
    magnet_as_triplet,
    magnet_full_objective,
    magnet_minibatch_loss,
    nca_loss,
    ncm_centroids,
    ncm_classify,
    ncm_loss,
    softmax_xent,
    triplet_loss,
)
from .model import EmbeddingModel
from .sampler import (
    Neighbourhood,
    TripletMiner,
    sample_neighbourhood,
    sample_triplets,
    seed_distribution,
)
from .training import TrainResult, bench, build_report, train

__version__ = "0.1.0"
