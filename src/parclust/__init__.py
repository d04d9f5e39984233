"""Desk-scale parallel clustering toolkit.

Simulates a small message-passing node group in one process (ranks are
coroutines that one scheduler drives on the calling thread, rank 0 the
coordinator and the root of every broadcast and gather) and runs
partitional, fuzzy, window, density and divisive algorithms over it. Each
rank owns one block, a plain 2-D array of rows, and the blocks in rank
order make up the dataset, so a row is named by the dataset row of its
block's first row, `ctx.start`, plus its position in the block. Each
algorithm has one `async def` body for every node count, and every rank
runs it on the one rank context, `NodeCtx`, entered only through
`CommWorld.run`; every driver takes its rows as `run` does, a DataSet or
a list of blocks, so the result of any blocking can be asked for; a
one-node world runs the same scheduler loop with one rank, and the
centralized k-means is that body at P=1.
Reductions use exact fixed-point sums, so the same input yields
bit-identical objectives at any node count.
"""

from .comm import CommAbort, CommWorld, NodeCtx, split_blocks
from .core import (NOISE, CentroidSet, DataSet, Partition,
                   adjusted_rand_index, generate_blobs, load_csv,
                   sse_objective, squared_euclidean, write_csv)
from .dbscan import (DbscanParams, DdbcParams, DensityScan, LocalDensityModel,
                     dbscan, ddbc, density_scan, rep_kmeans_model,
                     specific_core_points)
from .fcm import FcmParams, initial_membership, membership_update, pfcm
from .kmeans import KMeansParams, kmeans_centralized, pkm
from .kwindows import (KWindowsParams, MDBinaryTree, RangeQuery, k_windows,
                       orthogonal_range_search, parallel_range_search)
from .pca import (DbscanLocal, KMeansLocal, PrincipalBasis, cpca,
                  cpca_cluster, local_pca)
from .pddp import pddp_km, pddp_report
from .report import REPORT_SCHEMA, ClusterReport

__version__ = "0.1.0"

__all__ = [
    "CommAbort", "CommWorld", "NodeCtx", "split_blocks",
    "NOISE", "CentroidSet", "DataSet", "Partition", "adjusted_rand_index",
    "generate_blobs", "load_csv", "sse_objective", "squared_euclidean",
    "write_csv",
    "DbscanParams", "DdbcParams", "DensityScan", "LocalDensityModel",
    "dbscan", "ddbc", "density_scan", "rep_kmeans_model",
    "specific_core_points",
    "FcmParams", "initial_membership", "membership_update", "pfcm",
    "KMeansParams", "kmeans_centralized", "pkm",
    "KWindowsParams", "MDBinaryTree", "RangeQuery", "k_windows",
    "orthogonal_range_search", "parallel_range_search",
    "DbscanLocal", "KMeansLocal", "PrincipalBasis", "cpca", "cpca_cluster",
    "local_pca",
    "pddp_km", "pddp_report",
    "REPORT_SCHEMA", "ClusterReport",
    "__version__",
]
