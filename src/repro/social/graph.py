"""Directed follow graphs: a mutable dict-of-sets and a frozen CSR view.

:class:`FollowGraph` is the mutable representation the platform simulator
uses for incremental follow/unfollow updates.  :class:`CompiledGraph` is a
frozen compressed-sparse-row (CSR) snapshot — two int64 arrays per
direction — that the trace-generation and graph-metrics hot paths consume:
``follower_count`` is an O(1) array lookup instead of a set materialization,
and ``followees_of`` is an array slice instead of a frozenset copy.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Union

import numpy as np

#: Edge packing for the sort-based CSR fast path: an edge ``(src, dst)``
#: becomes the single int64 ``src << 32 | dst``, so lexicographic
#: ``(src, dst)`` order equals numeric key order and one ``np.sort`` of
#: keys replaces a two-pass ``np.lexsort`` plus a gather.  Valid whenever
#: node indices fit 31 bits (2.1B nodes — far above the paper's 12M).
_PACK_SHIFT = 32
_PACK_MASK = np.int64((1 << _PACK_SHIFT) - 1)
_PACK_MAX_NODES = 1 << 31


class FollowGraph:
    """A directed graph where an edge ``u -> v`` means "u follows v".

    Nodes are integer user IDs.  Followers of ``v`` are the in-neighbors;
    followees of ``u`` are the out-neighbors.  Duplicate edges and
    self-follows are rejected, matching platform semantics.
    """

    def __init__(self) -> None:
        self._followees: dict[int, set[int]] = {}
        self._followers: dict[int, set[int]] = {}
        self._edge_count = 0

    # -- construction -------------------------------------------------

    def add_node(self, user_id: int) -> None:
        """Register a user with no follow relationships yet."""
        self._followees.setdefault(user_id, set())
        self._followers.setdefault(user_id, set())

    def add_follow(self, follower: int, followee: int) -> bool:
        """Add edge ``follower -> followee``; returns False if it existed."""
        if follower == followee:
            raise ValueError(f"self-follow not allowed (user {follower})")
        self.add_node(follower)
        self.add_node(followee)
        if followee in self._followees[follower]:
            return False
        self._followees[follower].add(followee)
        self._followers[followee].add(follower)
        self._edge_count += 1
        return True

    def remove_follow(self, follower: int, followee: int) -> bool:
        """Remove edge ``follower -> followee``; returns False if absent."""
        if follower not in self._followees or followee not in self._followees[follower]:
            return False
        self._followees[follower].discard(followee)
        self._followers[followee].discard(follower)
        self._edge_count -= 1
        return True

    # -- queries ------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self._followees)

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def __contains__(self, user_id: int) -> bool:
        return user_id in self._followees

    def nodes(self) -> Iterator[int]:
        return iter(self._followees)

    def follows(self, follower: int, followee: int) -> bool:
        return followee in self._followees.get(follower, ())

    def followers_of(self, user_id: int) -> frozenset[int]:
        """Users following ``user_id`` (notified when they broadcast)."""
        return frozenset(self._followers.get(user_id, ()))

    def followees_of(self, user_id: int) -> frozenset[int]:
        """Users that ``user_id`` follows."""
        return frozenset(self._followees.get(user_id, ()))

    def follower_count(self, user_id: int) -> int:
        return len(self._followers.get(user_id, ()))

    def followee_count(self, user_id: int) -> int:
        return len(self._followees.get(user_id, ()))

    def degree(self, user_id: int) -> int:
        """Total degree (in + out), used for average-degree statistics."""
        return self.follower_count(user_id) + self.followee_count(user_id)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate all ``(follower, followee)`` edges."""
        for follower, followees in self._followees.items():
            for followee in followees:
                yield follower, followee

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[int, int]]) -> "FollowGraph":
        graph = cls()
        for follower, followee in edges:
            graph.add_follow(follower, followee)
        return graph

    def compile(self) -> "CompiledGraph":
        """Freeze this graph into a :class:`CompiledGraph` CSR snapshot."""
        node_ids = np.fromiter(self._followees, dtype=np.int64, count=len(self._followees))
        node_ids.sort()
        count = self._edge_count
        src = np.empty(count, dtype=np.int64)
        dst = np.empty(count, dtype=np.int64)
        cursor = 0
        for follower, followees in self._followees.items():
            for followee in sorted(followees):
                src[cursor] = follower
                dst[cursor] = followee
                cursor += 1
        return CompiledGraph.from_edge_arrays(src, dst, node_ids=node_ids)


class CompiledGraph:
    """A frozen CSR view of a directed follow graph.

    Nodes are stored as a sorted ``node_ids`` array; edges as two CSR pairs:
    ``indptr``/``indices`` for out-adjacency (followees, sorted per node)
    and ``rindptr``/``rindices`` for in-adjacency (followers).  All arrays
    are int64.  Queries accept *original* user IDs; unknown IDs behave like
    isolated nodes (count 0, empty adjacency), matching the ``dict.get``
    defaults of :class:`FollowGraph`.

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
        nodes and contain no duplicates or self-loops.
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

        if n <= _PACK_MAX_NODES:
            # Sort-based fast path: one int64 sort per direction instead
            # of a two-key lexsort plus a permutation gather.
            keys = np.left_shift(src_idx, _PACK_SHIFT)
            np.bitwise_or(keys, dst_idx, out=keys)
            return cls._from_packed_keys(keys, node_ids)

        order = np.lexsort((dst_idx, src_idx))
        indices = dst_idx[order]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src_idx, minlength=n), out=indptr[1:])

        rorder = np.lexsort((src_idx, dst_idx))
        rindices = src_idx[rorder]
        rindptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(dst_idx, minlength=n), out=rindptr[1:])

        return cls(node_ids, indptr, indices, rindptr, rindices)

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

    @classmethod
    def from_follow_graph(cls, graph: FollowGraph) -> "CompiledGraph":
        return graph.compile()

    def to_follow_graph(self) -> FollowGraph:
        """Thaw into a mutable :class:`FollowGraph` (Python-loop cost O(E))."""
        graph = FollowGraph()
        ids = self.node_ids.tolist()
        for node in ids:
            graph.add_node(node)
        src_idx = np.repeat(
            np.arange(len(ids), dtype=np.int64), np.diff(self.indptr)
        )
        for u, v in zip(self.node_ids[src_idx].tolist(), self.node_ids[self.indices].tolist()):
            graph.add_follow(u, v)
        return graph

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


#: Either follow-graph representation; read-only consumers accept both.
AnyFollowGraph = Union[FollowGraph, CompiledGraph]
