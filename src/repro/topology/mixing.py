"""Doubly stochastic mixing matrices and their spectral diagnostics.

Notation (matching the paper's Sec. III-A / Assumption 3): the communication
graph has ``M`` agents; ``W = (omega_{ij})`` is the ``(M, M)`` mixing matrix
whose entry ``omega_{ij}`` weights the message agent ``i`` receives from
agent ``j`` during gossip averaging (``x_i <- sum_j omega_{ij} x_j``,
eqs. 24–25); ``M_i = {j : omega_{ij} > 0}`` is agent ``i``'s closed
neighbourhood; ``lambda_1 >= lambda_2 >= ... >= lambda_M`` are the
eigenvalues of ``W``.

Assumption 3 requires two structural properties and one spectral one:

* **symmetry** — ``W = W^T`` (undirected communication, equal weights both
  ways);
* **double stochasticity** — non-negative entries with every row *and*
  column summing to 1, so gossip preserves the network average and every
  agent's contribution has equal total influence;
* **contraction** — ``lambda_1(W) = 1`` with
  ``max(|lambda_2|, |lambda_M|) <= sqrt(rho) < 1``, i.e. a strictly positive
  spectral gap.  This is what makes repeated gossip shrink the consensus
  distance geometrically (Lemma 6) and is equivalent to the graph being
  connected and ``W`` not flipping sign on a bipartition (guaranteed here by
  strictly positive diagonals).

Symmetry and double stochasticity are *structural* requirements checked by
:func:`validate_mixing_matrix` unconditionally; the contraction property is
optional there (``require_contraction=True``) because a disconnected or
zero-diagonal-bipartite ``W`` is still a valid averaging operator, it just
does not converge to consensus.  Metropolis–Hastings weights
(:func:`metropolis_hastings_weights`) satisfy all three conditions for any
connected undirected graph, which is why they are the default.

Sparse storage
--------------

On a sparse communication graph (ring, torus, random-regular, small-world)
``W`` has O(M) nonzeros, so storing it densely costs O(M^2) memory and every
gossip step O(M^2 d) time — at M = 4096 that is 16.7M matrix entries of
which only ~12k are nonzero.  The weight builders therefore accept
``sparse=True`` and assemble a ``scipy.sparse`` CSR matrix *edge-wise*,
never materialising the dense matrix; every helper in this module
(:func:`is_symmetric`, :func:`is_doubly_stochastic`,
:func:`validate_mixing_matrix`, the spectral diagnostics) accepts either
representation without densifying, and :class:`MixingOperator` applies
``W @ X`` in O(nnz * d) for CSR storage.  Above ``DENSE_EIG_MAX_AGENTS``
the spectral diagnostics switch from a full O(M^3) ``eigvalsh``
decomposition to a Lanczos iteration (``scipy.sparse.linalg.eigsh``) that
only needs matrix–vector products.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import networkx as nx
import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

__all__ = [
    "MixingMatrix",
    "MixingOperator",
    "metropolis_hastings_weights",
    "uniform_neighbor_weights",
    "is_symmetric",
    "is_doubly_stochastic",
    "second_largest_eigenvalue",
    "spectral_gap",
    "validate_mixing_matrix",
    "preferred_mixing_format",
    "DENSE_EIG_MAX_AGENTS",
    "AUTO_SPARSE_MIN_AGENTS",
    "AUTO_SPARSE_MAX_DENSITY",
]

_TOLERANCE = 1e-9

#: Largest matrix for which the spectral diagnostics use a full dense
#: eigendecomposition; above this they switch to Lanczos (``eigsh``).
DENSE_EIG_MAX_AGENTS = 512

#: Auto-selection rule for :func:`preferred_mixing_format`: CSR wins once the
#: fleet is at least this large ...
AUTO_SPARSE_MIN_AGENTS = 64

#: ... and at most this fraction of the matrix entries is nonzero.  Below
#: ~25% density the O(nnz * d) CSR product beats the dense kernel; above it
#: the dense kernel's contiguous memory access wins.
AUTO_SPARSE_MAX_DENSITY = 0.25

#: Either storage format of a mixing matrix.
MixingMatrix = Union[np.ndarray, sp.csr_array]


def _graph_layout(graph: nx.Graph):
    """Sorted nodes, node -> row index, and the (i, j) edge list sans self-loops."""
    nodes = sorted(graph.nodes())
    index = {node: k for k, node in enumerate(nodes)}
    edges = [(index[u], index[v]) for u, v in graph.edges() if u != v]
    return nodes, index, edges


def _assemble_csr(
    m: int, edges: list, edge_weights: np.ndarray
) -> sp.csr_array:
    """Symmetric CSR matrix from per-edge weights plus the stochastic diagonal.

    Built entirely from edge arrays — the dense matrix is never materialised,
    so this scales to graphs with millions of nodes.  The diagonal receives
    the residual mass ``1 - sum_j w_{ij}`` with the off-diagonal row sums
    accumulated in ascending column order (CSR canonical order).
    """
    edge_weights = np.asarray(edge_weights, dtype=np.float64)
    if edges:
        ij = np.asarray(edges, dtype=np.int64)
        rows = np.concatenate([ij[:, 0], ij[:, 1]])
        cols = np.concatenate([ij[:, 1], ij[:, 0]])
        data = np.concatenate([edge_weights, edge_weights])
        off_diagonal = sp.coo_array((data, (rows, cols)), shape=(m, m)).tocsr()
        off_diagonal.sum_duplicates()
        off_diagonal.sort_indices()
        row_sums = np.asarray(off_diagonal.sum(axis=1)).reshape(-1)
    else:
        off_diagonal = sp.csr_array((m, m), dtype=np.float64)
        row_sums = np.zeros(m, dtype=np.float64)
    diagonal = sp.dia_array(
        (np.asarray([1.0 - row_sums]), [0]), shape=(m, m)
    )
    matrix = (off_diagonal + diagonal).tocsr()
    matrix.sum_duplicates()
    matrix.sort_indices()
    return matrix


def metropolis_hastings_weights(
    graph: nx.Graph, sparse: bool = False
) -> MixingMatrix:
    """Metropolis–Hastings mixing matrix for an undirected graph.

    ``w_{ij} = 1 / (1 + max(deg_i, deg_j))`` for each edge ``(i, j)``, zero for
    non-edges, and ``w_{ii} = 1 - sum_j w_{ij}``.  The result is symmetric,
    doubly stochastic and has strictly positive diagonal, so every agent's
    neighbourhood ``M_i`` includes itself as the paper assumes.

    With ``sparse=True`` the matrix is assembled edge-wise into CSR storage
    without ever materialising the dense ``(M, M)`` array; the edge weights
    are computed by the identical formula, so the two representations agree
    to floating-point round-off (the diagonals may differ in the last ulp
    because the residual row sums are accumulated in different orders).
    """
    nodes, index, edges = _graph_layout(graph)
    m = len(nodes)
    degrees = np.asarray([graph.degree[node] for node in nodes], dtype=np.float64)
    if sparse:
        if edges:
            ij = np.asarray(edges, dtype=np.int64)
            edge_weights = 1.0 / (1.0 + np.maximum(degrees[ij[:, 0]], degrees[ij[:, 1]]))
        else:
            edge_weights = np.zeros(0, dtype=np.float64)
        return _assemble_csr(m, edges, edge_weights)
    w = np.zeros((m, m), dtype=np.float64)
    for i, j in edges:
        weight = 1.0 / (1.0 + max(degrees[i], degrees[j]))
        w[i, j] = weight
        w[j, i] = weight
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    return w


def uniform_neighbor_weights(
    graph: nx.Graph, sparse: bool = False
) -> MixingMatrix:
    """Uniform averaging over the *regular* closed neighbourhood.

    ``w_{ij} = 1 / (d_max + 1)`` for each edge where ``d_max`` is the maximum
    degree, and the remaining mass goes to the diagonal.  Like
    Metropolis–Hastings this is symmetric and doubly stochastic for any
    graph; on regular graphs (rings, complete graphs) it equals uniform
    neighbourhood averaging.  ``sparse=True`` assembles CSR storage
    edge-wise, exactly as in :func:`metropolis_hastings_weights`.
    """
    nodes, index, edges = _graph_layout(graph)
    m = len(nodes)
    if m == 0:
        return sp.csr_array((0, 0), dtype=np.float64) if sparse else np.zeros((0, 0))
    d_max = max((graph.degree[n] for n in nodes), default=0)
    share = 1.0 / (d_max + 1.0)
    if sparse:
        return _assemble_csr(m, edges, np.full(len(edges), share))
    w = np.zeros((m, m), dtype=np.float64)
    for i, j in edges:
        w[i, j] = share
        w[j, i] = share
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    return w


def is_symmetric(matrix: MixingMatrix, tol: float = _TOLERANCE) -> bool:
    """True if the matrix equals its transpose within tolerance.

    CSR matrices are checked via the sparse difference ``W - W^T`` (O(nnz),
    no densification).
    """
    if sp.issparse(matrix):
        if matrix.shape[0] != matrix.shape[1]:
            return False
        difference = (matrix - matrix.T).tocoo()
        if difference.nnz == 0:
            return True
        return bool(np.max(np.abs(difference.data)) <= tol)
    matrix = np.asarray(matrix, dtype=np.float64)
    return bool(np.allclose(matrix, matrix.T, atol=tol))


def is_doubly_stochastic(matrix: MixingMatrix, tol: float = 1e-8) -> bool:
    """True if all entries are non-negative and all rows and columns sum to 1.

    CSR matrices are checked on their stored entries and axis sums only
    (O(nnz), no densification).
    """
    if sp.issparse(matrix):
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            return False
        csr = matrix.tocsr()
        if csr.nnz and float(csr.data.min()) < -tol:
            return False
        ones = np.ones(csr.shape[0])
        row_sums = np.asarray(csr.sum(axis=1)).reshape(-1)
        col_sums = np.asarray(csr.sum(axis=0)).reshape(-1)
        return bool(
            np.allclose(row_sums, ones, atol=tol)
            and np.allclose(col_sums, ones, atol=tol)
        )
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    if (matrix < -tol).any():
        return False
    ones = np.ones(matrix.shape[0])
    return bool(
        np.allclose(matrix.sum(axis=0), ones, atol=tol)
        and np.allclose(matrix.sum(axis=1), ones, atol=tol)
    )


def second_largest_eigenvalue(matrix: MixingMatrix) -> float:
    """``max(|lambda_2|, |lambda_M|)`` for a symmetric stochastic matrix.

    For the mixing matrices used here this equals ``sqrt(rho)`` in
    Assumption 3: the contraction factor by which one gossip step shrinks
    the disagreement component (everything orthogonal to the consensus
    direction ``1``).  Values close to 0 mean near-instant consensus (e.g.
    the complete graph's ``W = 11^T / M``); values close to 1 mean slow
    mixing (long rings).

    Up to ``DENSE_EIG_MAX_AGENTS`` agents the full spectrum is computed with
    a dense ``eigvalsh`` (O(M^3), exact); above it a Lanczos iteration
    (``scipy.sparse.linalg.eigsh``) extracts only the two largest-magnitude
    eigenvalues — which are exactly ``{lambda_1, max(|lambda_2|, |lambda_M|)}``
    — at O(nnz) per matrix–vector product, so the diagnostic no longer pays
    an O(M^3) decomposition before training even starts.
    """
    n = matrix.shape[0]
    if n < 2:
        return 0.0
    if n <= DENSE_EIG_MAX_AGENTS:
        dense = matrix.toarray() if sp.issparse(matrix) else np.asarray(matrix, dtype=np.float64)
        eigenvalues = np.linalg.eigvalsh(dense)
        # eigvalsh returns ascending order; the largest should be ~1.
        sorted_by_magnitude = np.sort(np.abs(eigenvalues))[::-1]
        return float(sorted_by_magnitude[1])
    operand = matrix if sp.issparse(matrix) else np.asarray(matrix, dtype=np.float64)
    # Deterministic, non-special start vector (all-ones is the consensus
    # eigenvector of a doubly stochastic W and would degenerate the Krylov
    # space; a generic oscillating vector has mass on every eigenvector).
    v0 = np.cos(np.arange(n, dtype=np.float64))
    try:
        # ncv=64 Krylov vectors and a 1e-8 residual tolerance: slow-mixing
        # graphs (long rings) cluster lambda_1 and lambda_2 within ~1/n^2 of
        # each other, and the wider subspace cuts ARPACK's restarts several
        # fold while the achieved eigenvalue error stays < 1e-12.
        eigenvalues = eigsh(
            operand,
            k=2,
            which="LM",
            return_eigenvectors=False,
            tol=1e-8,
            v0=v0,
            ncv=min(n, 64),
        )
    except ArpackNoConvergence as error:
        eigenvalues = error.eigenvalues
        if eigenvalues is None or len(eigenvalues) < 2:
            raise
    sorted_by_magnitude = np.sort(np.abs(np.asarray(eigenvalues)))[::-1]
    return float(sorted_by_magnitude[1])


def spectral_gap(matrix: MixingMatrix) -> float:
    """``1 - max(|lambda_2|, |lambda_M|)`` = ``1 - sqrt(rho)``.

    Larger gap means faster consensus; this is the quantity that enters the
    denominator of the paper's convergence bound (Theorem 2).
    """
    return float(1.0 - second_largest_eigenvalue(matrix))


def validate_mixing_matrix(
    matrix: MixingMatrix, require_contraction: bool = False
) -> None:
    """Raise ``ValueError`` unless the matrix satisfies Assumption 3's structure.

    Checks, in order: squareness, symmetry (``W = W^T``) and double
    stochasticity (non-negative entries, rows and columns summing to 1).
    These are the properties gossip averaging relies on — without them the
    ``W @ X`` step would not preserve the network-average model, and the
    round would silently disagree with the per-agent gossip it stands for.
    :class:`~repro.topology.graphs.Topology` validates at construction and
    :class:`~repro.core.base.DecentralizedAlgorithm` re-validates at
    algorithm construction, so a matrix mutated in between fails fast.

    CSR matrices are validated on their sparse structure directly — the
    checks are O(nnz) and never densify, so validation stays cheap even for
    fleet-scale graphs where the dense matrix would not fit in memory.

    ``require_contraction`` additionally demands ``sqrt(rho) < 1`` (strict
    positive spectral gap, the third part of Assumption 3), which holds for
    every connected graph with positive self-weights but can be violated by,
    e.g., a disconnected graph or a bipartite graph with zero diagonal.
    """
    if not sp.issparse(matrix):
        matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("mixing matrix must be square")
    if not is_symmetric(matrix):
        raise ValueError("mixing matrix must be symmetric")
    if not is_doubly_stochastic(matrix):
        raise ValueError("mixing matrix must be doubly stochastic with non-negative entries")
    if require_contraction and second_largest_eigenvalue(matrix) >= 1.0 - 1e-12:
        raise ValueError("mixing matrix must have spectral gap > 0 (connected topology)")


def preferred_mixing_format(num_agents: int, nnz: int) -> str:
    """The storage format the gossip engine should apply ``W`` in.

    ``"csr"`` once the fleet has at least ``AUTO_SPARSE_MIN_AGENTS`` agents
    *and* at most ``AUTO_SPARSE_MAX_DENSITY`` of the matrix entries are
    nonzero — the regime where the O(nnz * d) sparse product beats the dense
    kernel; ``"dense"`` otherwise (small fleets, dense graphs).
    """
    if num_agents <= 0:
        return "dense"
    density = nnz / float(num_agents * num_agents)
    if num_agents >= AUTO_SPARSE_MIN_AGENTS and density <= AUTO_SPARSE_MAX_DENSITY:
        return "csr"
    return "dense"


class MixingOperator:
    """A mixing matrix in an applicable storage format: the gossip step's ``W``.

    ``apply(X)`` computes ``W @ X`` — dense storage in O(M^2 d), CSR storage
    in O(nnz * d).  Both kernels accumulate each output row over the columns
    in ascending order with one separate multiply-add per term: the CSR
    product iterates a row's stored entries in index order, and the dense
    kernel uses ``np.einsum`` (a sequential sum-of-products loop) rather than
    the BLAS ``@``, whose blocked/FMA accumulation reorders the sum and
    perturbs the last ulp.  Because adding an exact zero never changes a
    partial sum, the two formats therefore produce **bit-identical** results
    for the same matrix — the property the engine-equivalence suite asserts
    so that switching a topology to sparse storage cannot silently change a
    trajectory.
    """

    __slots__ = ("matrix", "format", "_f32_matrix")

    def __init__(self, matrix: MixingMatrix) -> None:
        if sp.issparse(matrix):
            csr = sp.csr_array(matrix)
            csr.sum_duplicates()
            csr.sort_indices()
            self.matrix = csr
            self.format = "csr"
        else:
            self.matrix = np.asarray(matrix, dtype=np.float64)
            self.format = "dense"
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError("mixing operator requires a square matrix")
        self._f32_matrix: Optional[MixingMatrix] = None

    @property
    def num_agents(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def nnz(self) -> int:
        """Number of stored nonzero entries."""
        if self.format == "csr":
            return int(self.matrix.nnz)
        return int(np.count_nonzero(self.matrix))

    @property
    def density(self) -> float:
        """Fraction of matrix entries that are nonzero."""
        n = self.num_agents
        return self.nnz / float(n * n) if n else 0.0

    def _check_rows(self, rows: np.ndarray) -> np.ndarray:
        """Coerce ``rows`` to a valid ``(M, d)`` float stack, preserving float32."""
        rows = np.asarray(rows)
        if rows.dtype != np.float32:
            rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[0] != self.num_agents:
            raise ValueError(
                f"expected a ({self.num_agents}, d) stack of agent rows, "
                f"got shape {rows.shape}"
            )
        return rows

    def _matrix_for(self, dtype: np.dtype) -> MixingMatrix:
        """``W`` in the kernel dtype (the float32 cast is built once and cached)."""
        if dtype != np.float32:
            return self.matrix
        if self._f32_matrix is None:
            self._f32_matrix = self.matrix.astype(np.float32)
        return self._f32_matrix

    def directed_edges(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(receivers, senders, weights)`` of every positive off-diagonal ``w_ij``.

        Entries come in row-major order, i.e. the order of
        :meth:`~repro.topology.graphs.Topology.directed_pairs`: edge ``k``
        is the channel on which agent ``receivers[k]`` hears from
        ``senders[k]`` with weight ``weights[k]``.
        """
        if self.format == "csr":
            counts = np.diff(self.matrix.indptr)
            rows = np.repeat(np.arange(self.num_agents), counts)
            cols, values = self.matrix.indices, self.matrix.data
        else:
            rows, cols = np.nonzero(self.matrix)
            values = self.matrix[rows, cols]
        keep = (rows != cols) & (values > 0.0)
        return rows[keep], cols[keep], values[keep]

    def without_edges(self, delivered: Optional[np.ndarray]) -> "MixingOperator":
        """``W`` after message loss: dropped weights move onto the diagonal.

        ``delivered`` holds one flag per directed edge in
        :meth:`directed_edges` order.  Every undelivered ``w_ij`` is removed
        and each diagonal becomes ``1 - sum`` of the row's kept off-diagonal
        weights, so a row stays a convex combination of what arrived and a
        lost message never shrinks a model.  With every edge dropped the
        result is exactly the identity.  Same storage format as ``self``.
        ``None`` (a loss-free exchange) returns ``self`` unchanged.
        """
        if delivered is None:
            return self
        rows, cols, values = self.directed_edges()
        delivered = np.asarray(delivered, dtype=bool)
        if delivered.shape != rows.shape:
            raise ValueError(
                f"expected {rows.size} delivery flags, got shape {delivered.shape}"
            )
        rows, cols, values = rows[delivered], cols[delivered], values[delivered]
        n = self.num_agents
        diagonal = 1.0 - np.bincount(rows, weights=values, minlength=n)
        agents = np.arange(n)
        if self.format == "csr":
            return MixingOperator(
                sp.csr_array(
                    (
                        np.concatenate([values, diagonal]),
                        (np.concatenate([rows, agents]), np.concatenate([cols, agents])),
                    ),
                    shape=(n, n),
                )
            )
        matrix = np.zeros((n, n), dtype=np.float64)
        matrix[rows, cols] = values
        matrix[agents, agents] = diagonal
        return MixingOperator(matrix)

    def apply(self, rows: np.ndarray) -> np.ndarray:
        """One gossip step for a stack of vectors: ``W @ rows``.

        ``rows`` is an ``(M, d)`` matrix whose row ``i`` is agent ``i``'s
        vector; the result is a new ``(M, d)`` dense matrix.  Float32 input
        selects the float32 kernel (``W`` cast once, cached) so low-precision
        fleet state never pays a transient float64 copy; every other input is
        coerced to float64 exactly as before.
        """
        rows = self._check_rows(rows)
        matrix = self._matrix_for(rows.dtype)
        if self.format == "csr":
            return matrix @ rows
        return np.einsum("ij,jk->ik", matrix, rows)

    def mix_rows_blocked(
        self,
        rows: np.ndarray,
        block_rows: int,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``W @ rows`` computed over ``(block_rows, d)`` output chunks.

        Each output block is the product of the corresponding row slice of
        ``W`` with the full input — and because both kernels (CSR row
        iteration and the einsum sum-of-products) accumulate each output row
        independently over the columns in ascending order, slicing the rows
        of ``W`` changes *nothing* about any row's accumulation: the blocked
        product is **bit-identical** to :meth:`apply` for every
        ``block_rows``.  What it buys is peak-memory control — the largest
        transient is one ``(block_rows, d)`` chunk instead of whatever the
        one-shot kernel allocates — and the ability to stream the output
        into a caller-owned buffer (``out``), e.g. a
        :class:`~repro.sharding.FleetState` shard or a memory-mapped array.
        """
        rows = self._check_rows(rows)
        n = self.num_agents
        if block_rows < 1:
            raise ValueError("block_rows must be a positive integer")
        if out is None:
            out = np.empty_like(rows)
        elif out.shape != rows.shape:
            raise ValueError(
                f"out buffer has shape {out.shape}, expected {rows.shape}"
            )
        for start in range(0, n, block_rows):
            self.mix_block(rows, start, min(start + block_rows, n), out)
        return out

    def mix_block(
        self, rows: np.ndarray, start: int, stop: int, out: np.ndarray
    ) -> None:
        """One output block of ``W @ rows``: ``out[start:stop] = W[start:stop] @ rows``.

        This is exactly the loop body of :meth:`mix_rows_blocked`, exposed
        so a caller (the :class:`~repro.sharding.RoundScheduler`) can run
        independent output blocks concurrently: each call reads all of
        ``rows`` but writes only its own disjoint ``out`` slice, so the
        parallel schedule is bit-identical to the serial one.
        """
        rows = self._check_rows(rows)
        matrix = self._matrix_for(rows.dtype)
        block = matrix[start:stop]
        if self.format == "csr":
            out[start:stop] = block @ rows
        else:
            out[start:stop] = np.einsum("ij,jk->ik", block, rows)

    def apply_mixed(
        self,
        rows: np.ndarray,
        block_rows: Optional[int] = None,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``W @ rows`` for float32 state with float64 accumulation.

        The mixed-precision gossip kernel: state stays float32 (half the
        memory), but each output row is accumulated in float64 so repeated
        gossip does not compound single-precision rounding.  The CSR path
        gathers only the block's referenced input rows
        (``rows[block.indices]``, ~nnz_block rows) and upcasts *those* to
        float64 — never the whole fleet — then segment-reduces per output
        row; the result is rounded back to float32.  No bitwise guarantee is
        made against :meth:`apply` (the segmented reduction may reorder
        sums); accuracy is pinned by the precision tests instead.
        """
        rows = np.asarray(rows, dtype=np.float32)
        if rows.ndim != 2 or rows.shape[0] != self.num_agents:
            raise ValueError(
                f"expected a ({self.num_agents}, d) stack of agent rows, "
                f"got shape {rows.shape}"
            )
        n = self.num_agents
        if block_rows is None:
            block_rows = n
        if block_rows < 1:
            raise ValueError("block_rows must be a positive integer")
        if out is None:
            out = np.empty_like(rows)
        elif out.shape != rows.shape or out.dtype != np.float32:
            raise ValueError("out buffer must be a float32 array of matching shape")
        for start in range(0, n, block_rows):
            stop = min(start + block_rows, n)
            if self.format == "csr":
                block = self.matrix[start:stop]
                if block.nnz == 0:
                    out[start:stop] = 0.0
                    continue
                contrib = block.data[:, None] * rows[block.indices].astype(np.float64)
                counts = np.diff(block.indptr)
                if counts.all():
                    acc = np.add.reduceat(contrib, block.indptr[:-1], axis=0)
                else:
                    # reduceat mishandles empty segments; scatter-add instead.
                    acc = np.zeros((stop - start, rows.shape[1]), dtype=np.float64)
                    np.add.at(
                        acc,
                        np.repeat(np.arange(stop - start), counts),
                        contrib,
                    )
            else:
                acc = np.einsum("ij,jk->ik", self.matrix[start:stop], rows)
            out[start:stop] = acc.astype(np.float32)
        return out

    def toarray(self) -> np.ndarray:
        """The matrix as a dense ndarray (converts CSR; entries are preserved exactly)."""
        if self.format == "csr":
            return self.matrix.toarray()
        return self.matrix

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MixingOperator(format={self.format!r}, num_agents={self.num_agents}, "
            f"nnz={self.nnz})"
        )
