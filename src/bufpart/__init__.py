"""Buffered graph partitioning toolkit.

Spectral embeddings, orthogonal separators with buffers, buffered Cheeger
cuts, recursive balanced cuts, certification against eigenvalue lower bounds,
and an exact brute-force oracle for tiny graphs.
"""

from .balanced import buffered_balanced_cut, cheeger2_buffered, kway_balanced
from .certify import (brute_force_h_k_eps, certify_run, check_buffered_lower_bound,
                      lower_bound_unbuffered, robust_expansion)
from .gaussian import gaussian_tail, gaussian_tail_inv, tail_sandwich
from .graph import (BufferedPartition, CutReport, Graph, GraphError,
                    PartitionError, buffered_expansion, cut_cost, load_graph,
                    partition_cost, validate_partition)
from .partition import (CrudePartition, PartialPartition, buffered_k_partition,
                        complete_partition, crude_partition, partial_partition,
                        refine_and_discard)
from .rng import RandomStream
from .separators import (CalibrationError, SeparatorParams, calibrate,
                         practical_params, sample_two_buffers)
from .spectral import (EmbeddingError, LaplacianOperator, SolverError,
                       SpectralBasis, edge_energy, eigenbasis, embed,
                       normalized_laplacian)

__version__ = "0.1.0"
