"""Communication-topology substrate.

Decentralized learning algorithms in this library communicate over an
undirected graph ``G = (M, W)`` whose weighted adjacency matrix ``W`` is
symmetric and doubly stochastic (Sec. III-A).  This package provides:

* graph constructors for the topologies used in the paper's evaluation
  (fully connected, ring, bipartite) plus scalable large-fleet topologies
  (star, 2-D torus/grid, Erdős–Rényi, random-regular, Watts–Strogatz
  small-world, hypercube, exponential);
* mixing-matrix builders (Metropolis–Hastings weights, uniform-neighbour
  averaging) in dense or edge-wise CSR form, and the
  :class:`~repro.topology.mixing.MixingOperator` abstraction the gossip
  engine applies ``W`` through (dense O(M^2 d) or sparse O(nnz d), selected
  by edge density, bit-identical results either way);
* time-varying topologies: a :class:`~repro.topology.schedule.TopologySchedule`
  provides a (cached) graph snapshot per round — static wrapper for
  backward compatibility, plus periodic rewiring, edge failure/recovery,
  agent churn and straggler masks (:mod:`repro.topology.schedule`);
* spectral diagnostics: the second-largest eigenvalue magnitude
  ``sqrt(rho)`` from Assumption 3 and the spectral gap, which drive the
  convergence bound of Theorem 2 — computed densely for small fleets and
  with a Lanczos iteration (``scipy.sparse.linalg.eigsh``) above
  ``DENSE_EIG_MAX_AGENTS``.
"""

from repro.topology.graphs import (
    TOPOLOGY_NAMES,
    Topology,
    bipartite_graph,
    check_topology_size,
    erdos_renyi_graph,
    exponential_graph,
    fully_connected_graph,
    grid_graph,
    hypercube_graph,
    random_regular_graph,
    ring_graph,
    small_world_graph,
    star_graph,
    topology_by_name,
    torus_graph,
)
from repro.topology.hierarchical import (
    HierarchicalTopology,
    TwoLevelMixingOperator,
    default_cluster_size,
    hierarchical_graph,
    resolve_cluster_size,
)
from repro.topology.schedule import (
    DYNAMICS_KEYS,
    DynamicTopologySchedule,
    StaticSchedule,
    TopologyEvent,
    TopologySchedule,
    churn_schedule,
    edge_failure_schedule,
    periodic_rewiring_schedule,
    schedule_from_dynamics,
    straggler_schedule,
    validate_dynamics,
)
from repro.topology.mixing import (
    AUTO_SPARSE_MAX_DENSITY,
    AUTO_SPARSE_MIN_AGENTS,
    DENSE_EIG_MAX_AGENTS,
    MixingOperator,
    metropolis_hastings_weights,
    uniform_neighbor_weights,
    is_doubly_stochastic,
    is_symmetric,
    preferred_mixing_format,
    spectral_gap,
    second_largest_eigenvalue,
    validate_mixing_matrix,
)

__all__ = [
    "Topology",
    "fully_connected_graph",
    "ring_graph",
    "bipartite_graph",
    "star_graph",
    "grid_graph",
    "torus_graph",
    "erdos_renyi_graph",
    "random_regular_graph",
    "small_world_graph",
    "hypercube_graph",
    "exponential_graph",
    "TOPOLOGY_NAMES",
    "check_topology_size",
    "topology_by_name",
    "HierarchicalTopology",
    "TwoLevelMixingOperator",
    "hierarchical_graph",
    "default_cluster_size",
    "resolve_cluster_size",
    "TopologyEvent",
    "TopologySchedule",
    "StaticSchedule",
    "DynamicTopologySchedule",
    "periodic_rewiring_schedule",
    "edge_failure_schedule",
    "churn_schedule",
    "straggler_schedule",
    "schedule_from_dynamics",
    "validate_dynamics",
    "DYNAMICS_KEYS",
    "MixingOperator",
    "metropolis_hastings_weights",
    "uniform_neighbor_weights",
    "is_doubly_stochastic",
    "is_symmetric",
    "preferred_mixing_format",
    "spectral_gap",
    "second_largest_eigenvalue",
    "validate_mixing_matrix",
    "AUTO_SPARSE_MAX_DENSITY",
    "AUTO_SPARSE_MIN_AGENTS",
    "DENSE_EIG_MAX_AGENTS",
]
