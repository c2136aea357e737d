"""Graph topologies for decentralized learning.

A :class:`Topology` wraps an undirected connected ``networkx`` graph together
with its symmetric doubly stochastic mixing matrix ``W`` and convenience
accessors used by the agents (neighbour sets ``M_i`` *including self*, edge
weights ``w_{ij}``).

``W`` may be stored densely (ndarray) or as a ``scipy.sparse`` CSR matrix:
the large-graph constructors (:func:`torus_graph`,
:func:`random_regular_graph`, :func:`small_world_graph`,
:func:`hypercube_graph`, :func:`exponential_graph` — and the pre-existing
ones via their ``sparse`` parameter) build CSR storage automatically once
the dense matrix would be mostly zeros, so a 100k-agent ring never
materialises a 10^10-entry array.  :meth:`Topology.mixing_operator` hands
the gossip engine a :class:`~repro.topology.mixing.MixingOperator` in the
requested (or density-auto-selected) format; conversions between the two
formats preserve every entry exactly, so the choice of storage cannot
change a trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import networkx as nx
import numpy as np
import scipy.sparse as sp

from repro.topology.mixing import (
    MixingMatrix,
    MixingOperator,
    metropolis_hastings_weights,
    preferred_mixing_format,
    validate_mixing_matrix,
    second_largest_eigenvalue,
    spectral_gap,
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
]


@dataclass
class Topology:
    """A communication graph plus its doubly stochastic mixing matrix.

    Attributes
    ----------
    graph:
        The underlying undirected ``networkx`` graph on nodes ``0..M-1``.
    mixing_matrix:
        Symmetric doubly stochastic ``(M, M)`` matrix ``W`` with
        ``w_{ij} > 0`` only for edges (and the diagonal).  Either a dense
        ndarray or a CSR matrix; every accessor works with both.
    name:
        Human-readable topology name used in experiment reports.
    require_connected:
        Whether construction rejects a disconnected graph.  The default
        (``True``) matches Assumption 3; per-round snapshots produced by a
        :class:`~repro.topology.schedule.TopologySchedule` pass ``False``
        because churned-out agents appear as isolated nodes (their mixing
        row is the identity) and edge failures may split the active fleet
        for a round.
    """

    graph: nx.Graph
    mixing_matrix: MixingMatrix
    name: str = "topology"
    require_connected: bool = True
    _neighbor_cache: Dict[int, List[int]] = field(default_factory=dict, repr=False)
    _directed_pairs_cache: Optional[List[Tuple[int, int]]] = field(default=None, repr=False)
    _operator_cache: Dict[str, MixingOperator] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if sp.issparse(self.mixing_matrix):
            w: MixingMatrix = sp.csr_array(self.mixing_matrix)
            w.sum_duplicates()
            w.sort_indices()
        else:
            w = np.asarray(self.mixing_matrix, dtype=np.float64)
        validate_mixing_matrix(w)
        if w.shape[0] != self.graph.number_of_nodes():
            raise ValueError("mixing matrix size does not match the number of nodes")
        if self.require_connected and not nx.is_connected(self.graph):
            raise ValueError("communication graph must be connected")
        self.mixing_matrix = w

    @property
    def num_agents(self) -> int:
        return int(self.graph.number_of_nodes())

    @property
    def mixing_is_sparse(self) -> bool:
        """True when ``W`` is stored as a CSR matrix."""
        return bool(sp.issparse(self.mixing_matrix))

    @property
    def mixing_nnz(self) -> int:
        """Number of stored nonzero mixing weights."""
        if self.mixing_is_sparse:
            return int(self.mixing_matrix.nnz)
        return int(np.count_nonzero(self.mixing_matrix))

    def mixing_operator(self, format: Optional[str] = None) -> MixingOperator:
        """``W`` wrapped for the gossip engine, in the requested storage format.

        ``format`` may be ``"dense"``, ``"sparse"``/``"csr"``, or
        ``None``/``"auto"`` to let
        :func:`~repro.topology.mixing.preferred_mixing_format` pick by fleet
        size and edge density.  Conversions between formats preserve every
        matrix entry exactly, and the two operators' ``apply`` kernels are
        bit-identical, so the format is purely a performance choice.
        Operators are cached per format.
        """
        if format in (None, "auto"):
            format = preferred_mixing_format(self.num_agents, self.mixing_nnz)
        if format == "sparse":
            format = "csr"
        if format not in ("dense", "csr"):
            raise ValueError("mixing format must be 'auto', 'dense', 'sparse' or 'csr'")
        if format not in self._operator_cache:
            if format == "csr":
                matrix = (
                    self.mixing_matrix
                    if self.mixing_is_sparse
                    else sp.csr_array(self.mixing_matrix)
                )
            else:
                matrix = (
                    self.mixing_matrix.toarray()
                    if self.mixing_is_sparse
                    else self.mixing_matrix
                )
            self._operator_cache[format] = MixingOperator(matrix)
        return self._operator_cache[format]

    def neighbors(self, agent: int, include_self: bool = True) -> List[int]:
        """The neighbour set ``M_i`` of an agent (including the agent itself by default).

        Neighbourhood membership follows the mixing matrix: ``j in M_i`` iff
        ``w_{ij} > 0``, matching the paper's definition.
        """
        if agent not in self._neighbor_cache:
            if self.mixing_is_sparse:
                w = self.mixing_matrix
                start, stop = int(w.indptr[agent]), int(w.indptr[agent + 1])
                columns = w.indices[start:stop]
                values = w.data[start:stop]
                members = [int(j) for j in columns[values > 0.0]]
            else:
                row = self.mixing_matrix[agent]
                members = [int(j) for j in np.flatnonzero(row > 0.0)]
            self._neighbor_cache[agent] = members
        members = list(self._neighbor_cache[agent])
        if not include_self:
            members = [j for j in members if j != agent]
        elif agent not in members:
            members.append(agent)
        return sorted(members)

    def weight(self, i: int, j: int) -> float:
        """Mixing weight ``w_{ij}``."""
        return float(self.mixing_matrix[i, j])

    def degree(self, agent: int) -> int:
        """Graph degree (number of neighbours excluding self)."""
        return int(self.graph.degree[agent])

    @property
    def rho(self) -> float:
        """``rho`` from Assumption 3: ``max(|lambda_2|, |lambda_M|)^2 <= rho < 1``."""
        return float(second_largest_eigenvalue(self.mixing_matrix) ** 2)

    @property
    def spectral_gap(self) -> float:
        """``1 - sqrt(rho)``, the quantity appearing in the convergence bound."""
        return float(spectral_gap(self.mixing_matrix))

    def min_weight(self) -> float:
        """``omega_min``: the smallest positive mixing weight (Theorem 1)."""
        if self.mixing_is_sparse:
            data = self.mixing_matrix.data
            positive = data[data > 0.0]
        else:
            w = self.mixing_matrix
            positive = w[w > 0.0]
        return float(positive.min()) if positive.size else 0.0

    def edges(self) -> List[Tuple[int, int]]:
        return [(int(u), int(v)) for u, v in self.graph.edges()]

    def directed_pairs(self) -> List[Tuple[int, int]]:
        """Every ordered pair ``(i, j)`` with ``j`` a neighbour of ``i`` (``j != i``).

        Sorted by ``(i, j)``, i.e. grouped by agent with neighbours ascending
        — the row-major order of ``W``'s positive off-diagonal entries.  The
        round evaluates cross-gradients and indexes per-exchange delivery
        masks in this order, which fixes how each agent consumes its own
        randomness.
        """
        if self._directed_pairs_cache is None:
            self._directed_pairs_cache = [
                (i, j)
                for i in range(self.num_agents)
                for j in self.neighbors(i, include_self=False)
            ]
        return list(self._directed_pairs_cache)

    @property
    def num_directed_edges(self) -> int:
        """Number of directed communication channels (twice the edge count).

        Counted straight off the mixing matrix — positive off-diagonal
        entries, the same ``w_{ij} > 0`` membership rule :meth:`neighbors`
        uses — without materialising the :meth:`directed_pairs` list, which
        at fleet scale costs one Python tuple per channel.
        """
        if self._directed_pairs_cache is not None:
            return len(self._directed_pairs_cache)
        diagonal = (
            self.mixing_matrix.diagonal()
            if self.mixing_is_sparse
            else np.diagonal(self.mixing_matrix)
        )
        positive_diagonal = int(np.count_nonzero(np.asarray(diagonal) > 0.0))
        if self.mixing_is_sparse:
            positive = int(np.count_nonzero(self.mixing_matrix.data > 0.0))
        else:
            positive = int(np.count_nonzero(self.mixing_matrix > 0.0))
        return positive - positive_diagonal


def _build(
    graph: nx.Graph,
    name: str,
    mixing: Optional[MixingMatrix] = None,
    sparse: Optional[bool] = None,
) -> Topology:
    """Relabel nodes to ``0..M-1`` and attach Metropolis–Hastings weights.

    ``sparse=None`` auto-selects the storage format with the same density
    rule the gossip engine uses (:func:`preferred_mixing_format`), so large
    sparse graphs never materialise the dense matrix even transiently.
    """
    graph = nx.convert_node_labels_to_integers(graph, ordering="sorted")
    if mixing is None:
        if sparse is None:
            m = graph.number_of_nodes()
            nnz = 2 * graph.number_of_edges() + m
            sparse = preferred_mixing_format(m, nnz) == "csr"
        mixing = metropolis_hastings_weights(graph, sparse=sparse)
    return Topology(graph=graph, mixing_matrix=mixing, name=name)


def fully_connected_graph(num_agents: int) -> Topology:
    """Complete graph: every pair of agents communicates (dense topology).

    The mixing matrix is the uniform averaging matrix ``W = 11^T / M``, which
    is the natural doubly stochastic choice for a complete graph and has
    spectral gap 1.  Always stored densely — there are no zeros to exploit.
    """
    if num_agents < 2:
        raise ValueError("need at least 2 agents")
    graph = nx.complete_graph(num_agents)
    mixing = np.full((num_agents, num_agents), 1.0 / num_agents, dtype=np.float64)
    return _build(graph, "fully_connected", mixing)


def ring_graph(num_agents: int, sparse: Optional[bool] = None) -> Topology:
    """Cycle topology: each agent talks to exactly two neighbours (sparse)."""
    if num_agents < 3:
        raise ValueError("a ring needs at least 3 agents")
    graph = nx.cycle_graph(num_agents)
    return _build(graph, "ring", sparse=sparse)


def bipartite_graph(num_agents: int, sparse: Optional[bool] = None) -> Topology:
    """Complete bipartite topology splitting the agents into two halves.

    Agents ``0 .. ceil(M/2)-1`` form one side and the rest the other side;
    every cross-side pair is connected.  This is the "bipartite" sparser
    topology of the paper's evaluation.
    """
    if num_agents < 2:
        raise ValueError("need at least 2 agents")
    left = num_agents // 2 + num_agents % 2
    right = num_agents - left
    if right == 0:
        raise ValueError("need at least 2 agents to form two sides")
    graph = nx.complete_bipartite_graph(left, right)
    return _build(graph, "bipartite", sparse=sparse)


def star_graph(num_agents: int, sparse: Optional[bool] = None) -> Topology:
    """Star topology: agent 0 is the hub (useful as a quasi-centralised ablation)."""
    if num_agents < 2:
        raise ValueError("need at least 2 agents")
    graph = nx.star_graph(num_agents - 1)
    return _build(graph, "star", sparse=sparse)


def grid_graph(
    rows: int, cols: int, periodic: bool = True, sparse: Optional[bool] = None
) -> Topology:
    """2-D grid / torus topology with ``rows * cols`` agents."""
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise ValueError("grid must contain at least 2 agents")
    if periodic and (rows < 3 or cols < 3):
        # networkx requires >=3 per periodic dimension; fall back to a plain grid.
        periodic = False
    graph = nx.grid_2d_graph(rows, cols, periodic=periodic)
    return _build(graph, "torus" if periodic else "grid", sparse=sparse)


def torus_graph(rows: int, cols: Optional[int] = None, sparse: Optional[bool] = None) -> Topology:
    """2-D torus: a periodic grid where every agent has exactly 4 neighbours.

    The constant degree keeps the per-agent communication cost flat as the
    fleet grows, while the wrap-around links roughly square the spectral gap
    of a ring with the same number of agents — the canonical scalable
    topology for large decentralized fleets.  ``cols`` defaults to ``rows``
    (a square torus).
    """
    if cols is None:
        cols = rows
    if rows < 3 or cols < 3:
        raise ValueError("a torus needs at least 3 agents per dimension")
    return grid_graph(rows, cols, periodic=True, sparse=sparse)


def erdos_renyi_graph(
    num_agents: int,
    edge_probability: float,
    seed: Optional[int] = 0,
    max_tries: int = 100,
    sparse: Optional[bool] = None,
) -> Topology:
    """Random G(n, p) topology, re-sampled until connected."""
    if num_agents < 2:
        raise ValueError("need at least 2 agents")
    if not 0.0 < edge_probability <= 1.0:
        raise ValueError("edge_probability must be in (0, 1]")
    rng = np.random.default_rng(seed)
    for _ in range(max_tries):
        graph = nx.erdos_renyi_graph(num_agents, edge_probability, seed=int(rng.integers(2**31)))
        if nx.is_connected(graph):
            return _build(graph, "erdos_renyi", sparse=sparse)
    raise RuntimeError(
        "failed to sample a connected Erdos-Renyi graph; increase edge_probability"
    )


def random_regular_graph(
    num_agents: int,
    degree: int = 4,
    seed: Optional[int] = 0,
    max_tries: int = 100,
    sparse: Optional[bool] = None,
) -> Topology:
    """Random ``k``-regular topology, re-sampled until connected.

    Every agent has exactly ``degree`` neighbours; random regular graphs are
    expanders with high probability, so the spectral gap stays bounded away
    from zero as the fleet grows — constant per-agent traffic with
    near-constant mixing time.
    """
    if num_agents < 3:
        raise ValueError("need at least 3 agents")
    if degree < 2 or degree >= num_agents:
        raise ValueError("degree must lie in [2, num_agents)")
    if (num_agents * degree) % 2 != 0:
        raise ValueError("num_agents * degree must be even")
    rng = np.random.default_rng(seed)
    for _ in range(max_tries):
        graph = nx.random_regular_graph(degree, num_agents, seed=int(rng.integers(2**31)))
        if nx.is_connected(graph):
            return _build(graph, "random_regular", sparse=sparse)
    raise RuntimeError(
        "failed to sample a connected random regular graph; increase degree"
    )


def small_world_graph(
    num_agents: int,
    nearest_neighbors: int = 4,
    rewire_probability: float = 0.1,
    seed: Optional[int] = 0,
    sparse: Optional[bool] = None,
) -> Topology:
    """Watts–Strogatz small-world topology (connected variant).

    A ring lattice where each agent talks to its ``nearest_neighbors``
    closest agents, with each edge rewired to a random agent with probability
    ``rewire_probability``.  The shortcuts give logarithmic diameter — and a
    far larger spectral gap than a plain ring — at ring-like per-agent cost.
    """
    if num_agents < 4:
        raise ValueError("need at least 4 agents")
    if not 2 <= nearest_neighbors < num_agents:
        raise ValueError("nearest_neighbors must lie in [2, num_agents)")
    if not 0.0 <= rewire_probability <= 1.0:
        raise ValueError("rewire_probability must lie in [0, 1]")
    graph = nx.connected_watts_strogatz_graph(
        num_agents, nearest_neighbors, rewire_probability, tries=100, seed=seed
    )
    return _build(graph, "small_world", sparse=sparse)


def hypercube_graph(dimension: int, sparse: Optional[bool] = None) -> Topology:
    """Hypercube topology on ``2**dimension`` agents.

    Agent ``i`` and agent ``j`` are connected iff their ids differ in exactly
    one bit, so every agent has ``dimension = log2(M)`` neighbours and the
    spectral gap decays only as ``O(1 / log M)`` — logarithmic traffic for
    near-dense mixing quality.
    """
    if dimension < 1:
        raise ValueError("dimension must be at least 1")
    graph = nx.hypercube_graph(dimension)
    return _build(graph, "hypercube", sparse=sparse)


def exponential_graph(num_agents: int, sparse: Optional[bool] = None) -> Topology:
    """Exponential topology: agent ``i`` connects to ``(i ± 2^k) mod M``.

    Each agent has ``O(log M)`` neighbours at exponentially growing hop
    distances — the classic decentralized-SGD topology that combines
    logarithmic degree with a spectral gap far better than rings or grids of
    the same size.
    """
    if num_agents < 2:
        raise ValueError("need at least 2 agents")
    graph = nx.Graph()
    graph.add_nodes_from(range(num_agents))
    hop = 1
    while hop < num_agents:
        for i in range(num_agents):
            graph.add_edge(i, (i + hop) % num_agents)
        hop *= 2
    return _build(graph, "exponential", sparse=sparse)


#: Every topology name :func:`topology_by_name` builds.
TOPOLOGY_NAMES: Tuple[str, ...] = (
    "fully_connected", "hierarchical", "ring", "bipartite", "star", "grid",
    "torus", "erdos_renyi", "random_regular", "small_world", "hypercube",
    "exponential",
)


def check_topology_size(
    name: str, num_agents: int, cluster_size: Optional[int] = None
) -> None:
    """Reject a name or fleet size :func:`topology_by_name` cannot build.

    Checks without building the graph, so experiment specs can fail at
    parse time however large the fleet.
    """
    if name not in TOPOLOGY_NAMES:
        raise ValueError(f"unknown topology: {name}")
    if name == "torus":
        side = math.isqrt(num_agents)
        if side * side != num_agents or side < 3:
            raise ValueError(
                "torus topology needs a square number of agents with side >= 3"
            )
    if name == "hypercube" and num_agents & (num_agents - 1):
        raise ValueError("hypercube topology needs a power-of-two number of agents")
    if name == "hierarchical":
        from repro.topology.hierarchical import resolve_cluster_size

        resolve_cluster_size(num_agents, cluster_size)


def topology_by_name(
    name: str,
    num_agents: int,
    seed: int = 0,
    cluster_size: Optional[int] = None,
) -> Topology:
    """Build the named topology over ``num_agents`` agents.

    ``seed`` drives the random graphs; ``cluster_size`` applies to
    ``"hierarchical"`` only.  Sizes are checked by
    :func:`check_topology_size`.
    """
    check_topology_size(name, num_agents, cluster_size)
    if name == "fully_connected":
        return fully_connected_graph(num_agents)
    if name == "hierarchical":
        from repro.topology.hierarchical import hierarchical_graph

        return hierarchical_graph(num_agents, cluster_size=cluster_size)
    if name == "ring":
        return ring_graph(num_agents)
    if name == "bipartite":
        return bipartite_graph(num_agents)
    if name == "star":
        return star_graph(num_agents)
    if name == "grid":
        rows = int(np.floor(np.sqrt(num_agents)))
        cols = int(np.ceil(num_agents / max(rows, 1)))
        return grid_graph(rows, cols)
    if name == "torus":
        return torus_graph(math.isqrt(num_agents))
    if name == "erdos_renyi":
        return erdos_renyi_graph(num_agents, edge_probability=0.4, seed=seed)
    if name == "random_regular":
        degree = 4 if num_agents > 4 else 2
        return random_regular_graph(num_agents, degree=degree, seed=seed)
    if name == "small_world":
        return small_world_graph(num_agents, seed=seed)
    if name == "hypercube":
        return hypercube_graph(num_agents.bit_length() - 1)
    return exponential_graph(num_agents)
