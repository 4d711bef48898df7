"""Distributed similarity search for sparse binary vectors.

LSH tables whose buckets are fixed-size mergeable heavy-hitter sketches;
top-k near neighbors are ranked by estimated collision frequency with no
distance computations on the query path, and per-node results combine by
logarithmic pairwise sketch merging.
"""

__version__ = "0.1.0"

from .core import (
    ConfigError,
    DatasetPartition,
    EmptyVectorError,
    InvalidVectorError,
    LshConfig,
    NULL_ID,
    SketchLshError,
    SparseRows,
    SparseVector,
    VectorId,
    derive_seeds,
)
from .hashing import HashFamily, doph_hashes, minhash, table_address
from .sketch import (
    HeavyHitterSet,
    ShapeMismatchError,
    SketchFormatError,
    TopkapiSketch,
)
from .index import IndexFileError, NodeIndex, preprocess
from .cluster import (
    ReduceStats,
    ReductionSchedule,
    SimulatedCluster,
    TcpTransport,
    Transport,
    TransportError,
    allgather,
    linear_reduce_sketches,
    tree_reduce_sketches,
)
from .query import (
    QueryBatch,
    QueryMetrics,
    QueryResult,
    cosine_similarity,
    distance_counter,
    query_batch,
    s_at_k,
    top_k_extract,
)
from .params import (
    InfeasibleParamsError,
    LshSensitivity,
    ParameterRecommendation,
    compute_rho,
    recommend_params,
    snr_simulation,
)

__all__ = [
    "ConfigError",
    "DatasetPartition",
    "EmptyVectorError",
    "HashFamily",
    "HeavyHitterSet",
    "IndexFileError",
    "InfeasibleParamsError",
    "InvalidVectorError",
    "LshConfig",
    "LshSensitivity",
    "NULL_ID",
    "NodeIndex",
    "QueryBatch",
    "QueryMetrics",
    "QueryResult",
    "ReduceStats",
    "ReductionSchedule",
    "ShapeMismatchError",
    "SimulatedCluster",
    "SketchFormatError",
    "SketchLshError",
    "SparseRows",
    "SparseVector",
    "TcpTransport",
    "ParameterRecommendation",
    "TopkapiSketch",
    "Transport",
    "TransportError",
    "VectorId",
    "allgather",
    "compute_rho",
    "cosine_similarity",
    "derive_seeds",
    "distance_counter",
    "doph_hashes",
    "linear_reduce_sketches",
    "minhash",
    "preprocess",
    "query_batch",
    "recommend_params",
    "s_at_k",
    "snr_simulation",
    "table_address",
    "top_k_extract",
    "tree_reduce_sketches",
]
