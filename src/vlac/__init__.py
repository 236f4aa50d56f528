"""Compact video-segment descriptors via two-stage feature aggregation.

Trains VLAD, VLAC and hyper-pooling encoders over per-frame local feature
vectors, compacts groups of frames to low-dimensional descriptors, matches
segments by max-over-alignment inner products, and evaluates retrieval
quality with precision-recall curves and mAP.
"""

from .aggregation import (
    METHOD_HP,
    METHOD_VLAC,
    METHOD_VLAD,
    ModelParams,
    TrainedModel,
    encode_video,
    load_model,
    save_model,
    split_gofs,
    train,
    train_hp,
    train_vlac,
    train_vlad,
    Video,
)
from .core_math import (
    Codebook,
    ProjectionBasis,
    basis_alignment_score,
    kmeans_fit,
    pca_fit,
    pca_project,
)
from .errors import DataError, VlacError
from .evaluation import (
    GroundTruth,
    PRPoint,
    average_precision,
    map_from_retrievals,
    mean_average_precision,
    pr_curve,
    sign_aligned_alignment_score,
)
from .ingestion import (
    DatasetManifest,
    PerturbationSpec,
    QueryManifest,
    load_features,
    load_manifest,
    load_query_manifest,
    make_queries,
    perturb,
    perturb_videos,
    synthesize_videos,
    write_dataset,
    write_features,
)
from .search import (
    DescriptorSequence,
    RankedMatch,
    RetrievalResult,
    load_store,
    retrieve,
    write_store,
)

__version__ = "0.1.0"
