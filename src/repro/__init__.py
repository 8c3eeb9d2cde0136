"""repro — reducing expensive distance-oracle calls for proximity problems.

A faithful, from-scratch reproduction of "A Generalized Approach for
Reducing Expensive Distance Calls for A Broad Class of Proximity Problems"
(Augustine, Shetiya, Esfandiari, Basu Roy & Das, SIGMOD 2021).

Quickstart
----------
>>> import numpy as np
>>> from repro import EuclideanSpace, TriScheme, SmartResolver, prim_mst
>>> space = EuclideanSpace(np.random.default_rng(0).random((50, 2)))
>>> oracle = space.oracle()
>>> resolver = SmartResolver(oracle)                 # graph created implicitly
>>> resolver.bounder = TriScheme(resolver.graph, space.diameter_bound())
>>> mst = prim_mst(resolver)
>>> oracle.calls < 50 * 49 // 2                      # fewer than all pairs
True
"""

from repro.core import (
    Bounds,
    ValidatingOracle,
    load_graph,
    resume_resolver,
    save_graph,
    DistanceOracle,
    PartialDistanceGraph,
    ResolverStats,
    SmartResolver,
    TieredOracle,
    TrivialBounder,
    WeakBand,
    WeakBoundProvider,
    WeakOracle,
)
from repro.bounds import (
    Adm,
    Aesa,
    DirectFeasibilityTest,
    Laesa,
    Splub,
    Tlaesa,
    TriScheme,
    bootstrap_with_landmarks,
    default_num_landmarks,
)
from repro.spaces import (
    EditDistanceSpace,
    SquaredEuclideanSpace,
    HammingSpace,
    HausdorffSpace,
    JaccardSpace,
    EuclideanSpace,
    ManhattanSpace,
    MatrixSpace,
    MinkowskiSpace,
    RoadNetworkSpace,
    random_metric_matrix,
)
from repro.datasets import flickr_space, sf_poi_space, urbangb_space
from repro.exec import (
    BatchOracle,
    MemoryCacheBackend,
    RetryPolicy,
    SerialExecutor,
    SqliteCacheBackend,
    ThreadedExecutor,
    make_executor,
    open_cache,
)
from repro.index import BkTree, Gnat, MTree, VpTree
from repro.obs import (
    CollectingSink,
    MetricsRegistry,
    MetricsSink,
    SpanTracer,
)
from repro.algorithms import (
    clarans,
    dbscan,
    k_center,
    k_nearest,
    nearest_neighbor,
    nearest_neighbor_tour,
    range_query,
    single_linkage,
    two_opt,
    kruskal_mst,
    knn_graph,
    pam,
    prim_mst,
    prim_mst_comparisons,
)

__version__ = "1.0.0"

__all__ = [
    "Adm",
    "Aesa",
    "BatchOracle",
    "BkTree",
    "Gnat",
    "MTree",
    "MemoryCacheBackend",
    "RetryPolicy",
    "SerialExecutor",
    "SqliteCacheBackend",
    "ThreadedExecutor",
    "Bounds",
    "CollectingSink",
    "DirectFeasibilityTest",
    "DistanceOracle",
    "MetricsRegistry",
    "MetricsSink",
    "SpanTracer",
    "EditDistanceSpace",
    "HammingSpace",
    "HausdorffSpace",
    "JaccardSpace",
    "EuclideanSpace",
    "Laesa",
    "ManhattanSpace",
    "MatrixSpace",
    "MinkowskiSpace",
    "PartialDistanceGraph",
    "ResolverStats",
    "RoadNetworkSpace",
    "SmartResolver",
    "Splub",
    "TieredOracle",
    "WeakBand",
    "WeakBoundProvider",
    "WeakOracle",
    "SquaredEuclideanSpace",
    "Tlaesa",
    "TriScheme",
    "VpTree",
    "TrivialBounder",
    "ValidatingOracle",
    "bootstrap_with_landmarks",
    "clarans",
    "dbscan",
    "k_center",
    "k_nearest",
    "nearest_neighbor",
    "nearest_neighbor_tour",
    "range_query",
    "single_linkage",
    "two_opt",
    "default_num_landmarks",
    "flickr_space",
    "knn_graph",
    "kruskal_mst",
    "load_graph",
    "make_executor",
    "open_cache",
    "pam",
    "prim_mst",
    "prim_mst_comparisons",
    "random_metric_matrix",
    "resume_resolver",
    "save_graph",
    "sf_poi_space",
    "urbangb_space",
]
