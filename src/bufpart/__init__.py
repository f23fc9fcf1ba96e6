"""Buffered graph partitioning toolkit.

Spectral embeddings, orthogonal separators with buffers, buffered Cheeger
cuts, recursive balanced cuts, and certification against eigenvalue lower
bounds and brute-force oracles.
"""

from .balanced import (BalancedCutResult, BufferedCut, KwayBalancedResult,
                       buffered_balanced_cut, cheeger2_buffered, kway_balanced)
from .certify import (Certificate, brute_force_h_k_eps, certify_run,
                      check_buffered_lower_bound, lower_bound_unbuffered,
                      robust_expansion)
from .gaussian import gaussian_tail, gaussian_tail_inv, tail_sandwich
from .graph import (BufferedPartition, CutReport, Graph, GraphError,
                    PartitionError, ValidationReport, buffered_expansion,
                    cut_cost, load_graph, partition_cost, validate_partition)
from .partition import (AlgoConstants, CrudePartition, EtaCosts,
                        PartialPartition, buffered_k_partition,
                        complete_partition, crude_partition, eta_costs,
                        partial_partition, refine_and_discard)
from .rng import RandomStream, derive_stream
from .separators import (CalibrationError, SeparatorParams, SeparatorSample,
                         calibrate, practical_params, sample_measured,
                         sample_one_buffer, sample_two_buffers)
from .spectral import (Embedding, EmbeddingError, LaplacianOperator,
                       SolverError, SpectralBasis, ball_measure, edge_energy,
                       eigenbasis, embed, normalized_laplacian)

__version__ = "0.1.0"
