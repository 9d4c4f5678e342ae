"""The directed follow graph as a frozen CSR snapshot.

:class:`CompiledGraph` is the one follow-graph representation: a
compressed-sparse-row (CSR) pair of int64 arrays per direction, which
trace generation, the Table 2 metrics, the §3.1 graph crawler and
follower notifications all read.  ``follower_count`` is an O(1) array
lookup, and ``followers_of``/``followees_of`` are sorted array slices.
Hand-built graphs (tests, examples, a crawled copy) come from
:meth:`CompiledGraph.from_edges`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

import numpy as np

#: Edge packing for CSR compilation: an edge ``(src, dst)`` becomes the
#: single int64 ``src << 32 | dst``, so lexicographic ``(src, dst)`` order
#: equals numeric key order and one ``np.sort`` of keys replaces a
#: two-pass ``np.lexsort`` plus a gather.  Valid whenever node indices fit
#: 31 bits (2.1B nodes — far above the paper's 12M).
_PACK_SHIFT = 32
_PACK_MASK = np.int64((1 << _PACK_SHIFT) - 1)
_PACK_MAX_NODES = 1 << 31


class CompiledGraph:
    """A frozen CSR view of a directed follow graph.

    Nodes are stored as a sorted ``node_ids`` array; edges as two CSR pairs:
    ``indptr``/``indices`` for out-adjacency (followees, sorted per node)
    and ``rindptr``/``rindices`` for in-adjacency (followers).  All arrays
    are int64.  Queries accept *original* user IDs; unknown IDs behave like
    isolated nodes (count 0, empty adjacency).

    When ``node_ids`` is exactly ``0..n-1`` (the shape the synthetic
    generator produces), ID-to-index translation is the identity and every
    query is a pure array operation.
    """

    __slots__ = ("node_ids", "indptr", "indices", "rindptr", "rindices", "_contiguous")

    def __init__(
        self,
        node_ids: np.ndarray,
        indptr: np.ndarray,
        indices: np.ndarray,
        rindptr: np.ndarray,
        rindices: np.ndarray,
    ) -> None:
        self.node_ids = node_ids
        self.indptr = indptr
        self.indices = indices
        self.rindptr = rindptr
        self.rindices = rindices
        n = len(node_ids)
        self._contiguous = bool(
            n == 0 or (node_ids[0] == 0 and node_ids[-1] == n - 1)
        )

    @classmethod
    def from_edges(
        cls, edges: Iterable[tuple[int, int]], nodes: Iterable[int] = ()
    ) -> "CompiledGraph":
        """Compile ``(follower, followee)`` pairs under the platform's follow rules.

        A repeated pair counts once, and a self-follow raises
        ``ValueError``.  The node set is every edge endpoint plus
        ``nodes`` (users with no follows at all).
        """
        pairs = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
        loops = pairs[:, 0] == pairs[:, 1]
        if loops.any():
            raise ValueError(f"self-follow not allowed (user {int(pairs[loops][0, 0])})")
        pairs = np.unique(pairs, axis=0)
        node_ids = np.unique(
            np.concatenate([pairs.ravel(), np.fromiter(nodes, dtype=np.int64)])
        )
        return cls.from_edge_arrays(pairs[:, 0], pairs[:, 1], node_ids=node_ids)

    @classmethod
    def from_edge_arrays(
        cls,
        src: np.ndarray,
        dst: np.ndarray,
        n_nodes: Optional[int] = None,
        node_ids: Optional[np.ndarray] = None,
    ) -> "CompiledGraph":
        """Compile deduplicated ``src -> dst`` edge arrays into CSR form.

        Pass ``n_nodes`` for contiguous ``0..n-1`` node IDs, or an explicit
        sorted ``node_ids`` array otherwise.  Edges must reference known
        nodes and contain no duplicates or self-loops, and there may be at
        most 2**31 nodes.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape:
            raise ValueError("src and dst must have the same length")
        if node_ids is None:
            if n_nodes is None:
                raise ValueError("need n_nodes or node_ids")
            node_ids = np.arange(n_nodes, dtype=np.int64)
        n = len(node_ids)
        if n > _PACK_MAX_NODES:
            raise ValueError("CSR compilation requires n_nodes <= 2**31")
        contiguous = bool(n == 0 or (node_ids[0] == 0 and node_ids[-1] == n - 1))
        if contiguous:
            src_idx, dst_idx = src, dst
        else:
            src_idx = np.searchsorted(node_ids, src)
            dst_idx = np.searchsorted(node_ids, dst)
        if len(src_idx) and (
            src_idx.min() < 0 or src_idx.max() >= n or dst_idx.min() < 0 or dst_idx.max() >= n
        ):
            raise ValueError("edge endpoints outside the node set")
        keys = np.left_shift(src_idx, _PACK_SHIFT)
        np.bitwise_or(keys, dst_idx, out=keys)
        return cls._from_packed_keys(keys, node_ids)

    @classmethod
    def from_packed_keys(
        cls, keys: np.ndarray, n_nodes: int, validate: bool = True
    ) -> "CompiledGraph":
        """Compile edges packed as ``src << 32 | dst`` int64 keys.

        The cheapest construction path: callers that already hold (or can
        build in place) the packed keys skip edge-array concatenation and
        lexsorts entirely.  ``keys`` is consumed — it is sorted in place
        and its storage reused for one of the output arrays.  Requires
        ``n_nodes <= 2**31`` and all endpoints within ``[0, n_nodes)``
        (checked when ``validate``; trusted generators may skip the
        extra full-array pass).
        """
        if n_nodes > _PACK_MAX_NODES:
            raise ValueError("packed-key compilation requires n_nodes <= 2**31")
        keys = np.asarray(keys, dtype=np.int64)
        return cls._from_packed_keys(
            keys, np.arange(n_nodes, dtype=np.int64), validate=validate
        )

    @classmethod
    def _from_packed_keys(
        cls, keys: np.ndarray, node_ids: np.ndarray, validate: bool = False
    ) -> "CompiledGraph":
        """CSR pair from packed edge keys (``keys`` is consumed).

        Buffer discipline keeps peak traffic at two extra edge-sized
        allocations: ``keys`` is sorted in place, shifted in place to the
        source halves, and finally overwritten with the reverse indices.
        """
        n = len(node_ids)
        keys.sort()
        if validate and len(keys):
            # Sorted, so the src range check is O(1); dst needs one pass.
            if keys[0] < 0 or int(keys[-1] >> _PACK_SHIFT) >= n:
                raise ValueError("edge endpoints outside the node set")
        indices = np.bitwise_and(keys, _PACK_MASK)
        if validate and len(indices) and int(indices.max()) >= n:
            raise ValueError("edge endpoints outside the node set")
        bounds = np.left_shift(np.arange(n + 1, dtype=np.int64), _PACK_SHIFT)
        indptr = np.searchsorted(keys, bounds)

        # Reverse direction: swap the packed halves and re-sort, reusing
        # the keys buffer (its sorted content is no longer needed).
        rkeys = np.left_shift(indices, _PACK_SHIFT)
        np.right_shift(keys, _PACK_SHIFT, out=keys)  # keys := src halves
        np.bitwise_or(rkeys, keys, out=rkeys)
        rkeys.sort()
        np.bitwise_and(rkeys, _PACK_MASK, out=keys)  # keys := rindices
        rindptr = np.searchsorted(rkeys, bounds)
        return cls(node_ids, indptr, indices, rindptr, keys)

    # -- index translation --------------------------------------------

    def _index_of(self, user_id: int) -> int:
        """Internal index of ``user_id``, or -1 if unknown."""
        n = len(self.node_ids)
        if self._contiguous:
            return user_id if 0 <= user_id < n else -1
        pos = int(np.searchsorted(self.node_ids, user_id))
        if pos < n and self.node_ids[pos] == user_id:
            return pos
        return -1

    # -- queries ------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self.node_ids)

    @property
    def edge_count(self) -> int:
        return len(self.indices)

    def __contains__(self, user_id: int) -> bool:
        return self._index_of(user_id) >= 0

    def nodes(self) -> Iterator[int]:
        return iter(self.node_ids.tolist())

    def follows(self, follower: int, followee: int) -> bool:
        u = self._index_of(follower)
        v = self._index_of(followee)
        if u < 0 or v < 0:
            return False
        lo, hi = self.indptr[u], self.indptr[u + 1]
        pos = int(np.searchsorted(self.indices[lo:hi], v))
        return pos < hi - lo and self.indices[lo + pos] == v

    def followees_of(self, user_id: int) -> np.ndarray:
        """Users that ``user_id`` follows, as a sorted int64 array view."""
        u = self._index_of(user_id)
        if u < 0:
            return np.empty(0, dtype=np.int64)
        return self.node_ids[self.indices[self.indptr[u] : self.indptr[u + 1]]]

    def followers_of(self, user_id: int) -> np.ndarray:
        """Users following ``user_id``, as a sorted int64 array view."""
        u = self._index_of(user_id)
        if u < 0:
            return np.empty(0, dtype=np.int64)
        return self.node_ids[self.rindices[self.rindptr[u] : self.rindptr[u + 1]]]

    def follower_count(self, user_id: int) -> int:
        u = self._index_of(user_id)
        if u < 0:
            return 0
        return int(self.rindptr[u + 1] - self.rindptr[u])

    def followee_count(self, user_id: int) -> int:
        u = self._index_of(user_id)
        if u < 0:
            return 0
        return int(self.indptr[u + 1] - self.indptr[u])

    def degree(self, user_id: int) -> int:
        return self.follower_count(user_id) + self.followee_count(user_id)

    def in_degrees(self) -> np.ndarray:
        """In-degree per node, aligned with ``node_ids`` (O(n), no loop)."""
        return np.diff(self.rindptr)

    def out_degrees(self) -> np.ndarray:
        """Out-degree per node, aligned with ``node_ids``."""
        return np.diff(self.indptr)

    def total_degrees(self) -> np.ndarray:
        return self.in_degrees() + self.out_degrees()

    def in_degree_of(self, user_ids: np.ndarray) -> np.ndarray:
        """Vectorized follower counts for an array of user IDs.

        Unknown IDs get 0, mirroring the scalar :meth:`follower_count`.
        """
        user_ids = np.asarray(user_ids, dtype=np.int64)
        degrees = self.in_degrees()
        n = len(self.node_ids)
        if self._contiguous:
            known = (user_ids >= 0) & (user_ids < n)
            safe = np.where(known, user_ids, 0)
        else:
            pos = np.searchsorted(self.node_ids, user_ids)
            safe = np.minimum(pos, max(n - 1, 0))
            known = (pos < n) & (self.node_ids[safe] == user_ids) if n else np.zeros(len(user_ids), bool)
        if n == 0:
            return np.zeros(len(user_ids), dtype=np.int64)
        return np.where(known, degrees[safe], 0)

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """All edges as ``(src_ids, dst_ids)`` arrays (CSR order)."""
        src_idx = np.repeat(
            np.arange(len(self.node_ids), dtype=np.int64), np.diff(self.indptr)
        )
        return self.node_ids[src_idx], self.node_ids[self.indices]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate all ``(follower, followee)`` edges (Python-loop cost)."""
        src, dst = self.edge_arrays()
        return zip(src.tolist(), dst.tolist())

    def undirected_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Adjacency ignoring edge direction, as a new ``(indptr, indices)`` pair.

        Row ``u`` lists every node that follows or is followed by ``u``
        exactly once (a reciprocated follow is one undirected link), as
        sorted internal indices.  Built on each call and never cached: the
        clustering and path-length metrics hold it only while they run.
        """
        n = len(self.node_ids)
        if n > _PACK_MAX_NODES:
            raise ValueError("undirected CSR requires n_nodes <= 2**31")
        rows = np.arange(n, dtype=np.int64)
        # Out-edges keyed (u, followee), in-edges keyed (u, follower): each
        # half is already in key order, so the stable sort is one merge.
        keys = np.concatenate([
            np.left_shift(np.repeat(rows, np.diff(self.indptr)), _PACK_SHIFT) | self.indices,
            np.left_shift(np.repeat(rows, np.diff(self.rindptr)), _PACK_SHIFT) | self.rindices,
        ])
        keys.sort(kind="stable")
        first = np.ones(len(keys), dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        keys = keys[first]
        bounds = np.left_shift(np.arange(n + 1, dtype=np.int64), _PACK_SHIFT)
        return np.searchsorted(keys, bounds), np.bitwise_and(keys, _PACK_MASK)

