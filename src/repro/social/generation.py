"""Synthetic follow-graph generation.

The generator reproduces the structural signature the paper reports for
Periscope's follow graph (Table 2): Twitter-like rather than Facebook-like —

* heavy-tailed in-degree (celebrities with >1M followers, Figure 7),
* *negative* degree assortativity (asymmetric one-to-many follows:
  low-degree fans attach to high-degree celebrities),
* moderate clustering (0.130) from triadic closure,
* short average paths (3.74) from the broad degree distribution.

Mechanism: nodes arrive in growing chunks; each new node emits a
heavy-tailed number of follow edges.  Each edge picks its target by
preferential attachment on in-degree (with probability ``PREF_PROB``), by
triadic closure through one of the node's own freshly drawn followees
(``TRIADIC_PROB``), or uniformly at random.  A small fraction of edges is
reciprocated — Twitter-like graphs have low reciprocity, which keeps
assortativity negative.

The hot path is fully vectorized: every chunk samples all of its edges
with batched numpy draws against an explicit *snapshot* of the graph built
so far (attachment pool, CSR adjacency), then deduplicates with one
packed-key sort.  The snapshot discipline also removes a latent hazard of
the old per-edge loop, where triadic-closure draws indexed followee lists
that grew while the same node's batch was still being generated.

The output is the edge list as packed int64 keys
(:func:`generate_edge_keys`): follower counts are one bincount of them
(:func:`key_in_degrees`), and only callers that walk the structure compile
the CSR (:func:`generate_follow_graph`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.social.graph import _PACK_MASK, _PACK_SHIFT, CompiledGraph

#: Vectorized generation processes arriving nodes in chunks of
#: ``max(_MIN_CHUNK, prefix * _CHUNK_FRACTION)``: small enough that the
#: snapshot each chunk samples against is at most ~20% stale, large enough
#: that the per-chunk numpy overhead amortizes (O(log n) chunks total).
_MIN_CHUNK = 32
_CHUNK_FRACTION = 0.2


#: Generator constants, calibrated so the Table 2 metrics land near the
#: paper's values (clustering ~0.13, short paths, slightly negative
#: assortativity).  ``TRACE_SCHEMA_VERSION`` in :mod:`repro.workload.trace`
#: covers them in the dataset-cache key.
OUT_DEGREE_SIGMA = 1.1  # lognormal sigma of per-node out-degree
MAX_OUT_DEGREE = 2_000
PREF_PROB = 0.55  # preferential attachment on in-degree
TRIADIC_PROB = 0.25  # close triangles through a followee
RECIPROCATION_PROB = 0.12  # low reciprocity, Twitter-like
SEED_NODES = 10  # the fully connected clique the graph grows from


@dataclass
class FollowGraphConfig:
    """Size and density of a graph from :func:`generate_follow_graph`."""

    n_nodes: int = 10_000
    #: Target forward out-degree: the edges each arriving node draws.
    #: Reciprocated edges (``RECIPROCATION_PROB``) come on top, so the
    #: total degree 2 * edges/node lands above 2 * 19.3 = 38.6 (Table 2
    #: at seed 2016 reads 40.8-42.9 across scales).
    mean_out_degree: float = 19.3

    def __post_init__(self) -> None:
        if self.n_nodes < SEED_NODES:
            raise ValueError(f"need at least {SEED_NODES} nodes (the seed clique)")


def _sample_out_degrees(config: FollowGraphConfig, rng: np.random.Generator) -> np.ndarray:
    """Heavy-tailed out-degree targets for each arriving node."""
    mu = np.log(config.mean_out_degree) - OUT_DEGREE_SIGMA**2 / 2
    raw = rng.lognormal(mean=mu, sigma=OUT_DEGREE_SIGMA, size=config.n_nodes)
    return np.clip(np.rint(raw), 1, MAX_OUT_DEGREE).astype(np.int64)


def _seed_clique(seed_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """All ordered pairs of the seed clique, grouped by follower."""
    base = np.arange(seed_nodes, dtype=np.int64)
    src = np.repeat(base, seed_nodes - 1)
    dst = np.concatenate([np.delete(base, node) for node in range(seed_nodes)])
    return src, dst


class _GrowBuffer:
    """An amortized-growth int64 append buffer (numpy has no cheap append)."""

    __slots__ = ("_data", "length")

    def __init__(self, capacity: int) -> None:
        self._data = np.empty(max(capacity, 16), dtype=np.int64)
        self.length = 0

    def append(self, values: np.ndarray) -> None:
        needed = self.length + len(values)
        if needed > len(self._data):
            grown = np.empty(max(needed, 2 * len(self._data)), dtype=np.int64)
            grown[: self.length] = self._data[: self.length]
            self._data = grown
        self._data[self.length : needed] = values
        self.length = needed

    def view(self) -> np.ndarray:
        return self._data[: self.length]


def _chunk_targets(
    rng: np.random.Generator,
    wanted: np.ndarray,
    prefix: int,
    pool: np.ndarray,
    fwd_indptr: np.ndarray,
    fwd_keys: np.ndarray,
    rec_indptr: np.ndarray,
    rec_indices: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw every candidate target for one chunk of arriving nodes.

    ``wanted[i]`` edges are drawn for chunk-relative node ``i``; all
    targets come from the ``prefix`` snapshot (nodes ``< prefix``), whose
    adjacency is split into a forward CSR (edges drawn on arrival, grouped
    by source with no sorting needed, stored as their packed keys) and a
    reciprocation CSR.
    Returns ``(owner_rel, target)`` with dropped triadic draws marked -1.
    """
    # owner_rel = repeat(arange(len(wanted)), wanted), built with a
    # bincount + cumsum instead of np.repeat (one less full-size gather).
    total = int(wanted.sum())
    marker = np.bincount(np.cumsum(wanted), minlength=total + 1)
    owner_rel = np.cumsum(marker[:total], dtype=np.int64) if total else np.empty(0, np.int64)
    roll = rng.random(total)
    is_pref = roll < PREF_PROB
    is_triadic = ~is_pref & (roll < PREF_PROB + TRIADIC_PROB)
    is_primary = ~is_triadic

    targets = np.empty(total, dtype=np.int64)
    n_pref = int(is_pref.sum())
    if n_pref:
        targets[is_pref] = pool[rng.integers(0, len(pool), size=n_pref)]
    is_uniform = is_primary & ~is_pref
    n_uniform = int(is_uniform.sum())
    if n_uniform:
        targets[is_uniform] = rng.integers(0, prefix, size=n_uniform)

    # Triadic closure against an explicit snapshot: the "via" followee is
    # one of the node's own primary draws from this same chunk (frozen
    # above), and the final target one of via's followees in the prefix
    # CSRs.  Nothing here observes edges added later in the chunk.
    n_triadic = int(is_triadic.sum())
    if n_triadic:
        primary_targets = targets[is_primary]  # grouped by owner, order kept
        primary_counts = np.bincount(owner_rel[is_primary], minlength=len(wanted))
        primary_starts = np.zeros(len(wanted) + 1, dtype=np.int64)
        np.cumsum(primary_counts, out=primary_starts[1:])

        tri_owner = owner_rel[is_triadic]
        tri_targets = np.empty(n_triadic, dtype=np.int64)
        has_via = primary_counts[tri_owner] > 0

        n_fallback = int((~has_via).sum())
        if n_fallback:
            # No primary draw to close a triangle through: fall back to a
            # uniform target, like the old loop's retry would eventually.
            tri_targets[~has_via] = rng.integers(0, prefix, size=n_fallback)
        n_via = n_triadic - n_fallback
        if n_via:
            owner_with = tri_owner[has_via]
            via = primary_targets[
                primary_starts[owner_with]
                + rng.integers(0, primary_counts[owner_with])
            ]
            fwd_degree = fwd_indptr[via + 1] - fwd_indptr[via]
            rec_degree = rec_indptr[via + 1] - rec_indptr[via]
            via_degree = fwd_degree + rec_degree
            closable = via_degree > 0
            n_closable = int(closable.sum())
            if n_closable == n_via:
                # Common case: every via node has followees — no -1 fill.
                position = rng.integers(0, via_degree)
                in_fwd = position < fwd_degree
                closed = np.empty(n_via, dtype=np.int64)
                closed[in_fwd] = fwd_keys[(fwd_indptr[via] + position)[in_fwd]] & _PACK_MASK
                closed[~in_fwd] = rec_indices[
                    (rec_indptr[via] + position - fwd_degree)[~in_fwd]
                ]
            else:
                closed = np.full(n_via, -1, dtype=np.int64)
                if n_closable:
                    via_ok = via[closable]
                    position = rng.integers(0, via_degree[closable])
                    in_fwd = position < fwd_degree[closable]
                    picked = np.empty(n_closable, dtype=np.int64)
                    picked[in_fwd] = (
                        fwd_keys[(fwd_indptr[via_ok] + position)[in_fwd]] & _PACK_MASK
                    )
                    picked[~in_fwd] = rec_indices[
                        (rec_indptr[via_ok] + position - fwd_degree[closable])[~in_fwd]
                    ]
                    closed[closable] = picked
            tri_targets[has_via] = closed
        targets[is_triadic] = tri_targets

    return owner_rel, targets


def generate_follow_graph(
    config: FollowGraphConfig,
    rng: np.random.Generator,
) -> CompiledGraph:
    """Generate a Periscope-like follow graph as a frozen CSR snapshot.

    Compiles :func:`generate_edge_keys`; the same ``rng`` state gives the
    same graph either way.
    """
    return CompiledGraph.from_packed_keys(
        generate_edge_keys(config, rng), n_nodes=config.n_nodes
    )


def generate_edge_keys(
    config: FollowGraphConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Generate a Periscope-like follow graph as packed int64 edge keys.

    Each edge ``follower -> followee`` over nodes ``0..n_nodes-1`` is the
    key ``follower << 32 | followee``, the input
    :meth:`CompiledGraph.from_packed_keys` compiles; keys are unique but
    not sorted.  :func:`key_in_degrees` reads follower counts straight off
    them, so a caller that needs only those never compiles the CSR.

    Runs in O(E log E) total: nodes arrive in geometrically growing
    chunks, and each chunk's edges are drawn with batched numpy sampling
    against the prefix snapshot and deduplicated with one packed-key sort.
    The snapshot adjacency is kept in two parts so no per-chunk re-sort of
    the full edge set is needed: forward edges arrive already grouped by
    source (each node's batch lands in exactly one chunk), and each
    chunk's reciprocated edges (~``RECIPROCATION_PROB`` of its edges) are
    sorted on their own and merged into the reciprocated set's grouping.
    Edge uniqueness across chunks is structural — forward
    edges always point from a brand-new node into the prefix, and
    reciprocation edges point back at a node that cannot have been
    targeted before — so no global dedup pass is needed.
    """
    n = config.n_nodes
    out_degrees = _sample_out_degrees(config, rng)

    seed_src, seed_dst = _seed_clique(SEED_NODES)
    expected_edges = int(out_degrees.sum()) + len(seed_src)

    # Forward adjacency: sources arrive in ascending order, so the CSR is
    # the edges' packed keys (the returned keys' forward part) plus an
    # indptr extended by each chunk's counts — never sorted.
    fwd_keys = _GrowBuffer(expected_edges)
    fwd_keys.append(np.left_shift(seed_src, _PACK_SHIFT) | seed_dst)
    fwd_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(seed_src), out=fwd_indptr[1 : SEED_NODES + 1])

    # Reciprocated edges land on arbitrary old sources.  The buffers keep
    # them in arrival order (the order of the returned keys); the CSR the
    # triadic draws read groups them by source, and each chunk's new edges
    # are merged in at their sources' block ends — the order a stable sort
    # of every reciprocated edge by source gives.
    rec_capacity = int(expected_edges * RECIPROCATION_PROB * 1.1) + 64
    rec_src = _GrowBuffer(rec_capacity)
    rec_dst = _GrowBuffer(rec_capacity)
    rec_indptr = np.zeros(n + 1, dtype=np.int64)
    rec_indices = np.empty(0, dtype=np.int64)

    # In-degree-proportional sampling pool: each followee once per
    # in-edge, i.e. every forward dst plus every reciprocated dst —
    # sized for both up front so it never pays a doubling copy.
    pool = _GrowBuffer(expected_edges + 2 * rec_capacity)
    pool.append(seed_dst)

    prefix = SEED_NODES
    while prefix < n:
        chunk = min(n - prefix, max(_MIN_CHUNK, int(prefix * _CHUNK_FRACTION)))
        end = prefix + chunk

        wanted = np.minimum(out_degrees[prefix:end], prefix)
        owner_rel, targets = _chunk_targets(
            rng, wanted, prefix, pool.view(),
            fwd_indptr, fwd_keys.view(), rec_indptr, rec_indices,
        )

        # Dedup per owner (targets < prefix <= owner, so self-follows are
        # impossible and a new node has no pre-existing out-edges to
        # collide with).  Canonical order: sorted by (owner, target) —
        # realized as one packed-key sort instead of a lexsort.
        kept = targets >= 0
        pair_keys = np.left_shift(owner_rel[kept], _PACK_SHIFT)
        np.bitwise_or(pair_keys, targets[kept], out=pair_keys)
        pair_keys.sort()
        first = np.ones(len(pair_keys), dtype=bool)
        first[1:] = pair_keys[1:] != pair_keys[:-1]
        unique_keys = pair_keys[first]
        edge_src = np.right_shift(unique_keys, _PACK_SHIFT) + prefix
        edge_dst = np.bitwise_and(unique_keys, _PACK_MASK)

        reciprocated = rng.random(len(edge_src)) < RECIPROCATION_PROB
        new_rec_src = edge_dst[reciprocated]
        new_rec_dst = edge_src[reciprocated]

        fwd_keys.append(unique_keys + (prefix << _PACK_SHIFT))
        chunk_indptr = fwd_indptr[prefix + 1 : end + 1]
        np.cumsum(np.bincount(edge_src - prefix, minlength=chunk), out=chunk_indptr)
        chunk_indptr += fwd_indptr[prefix]
        rec_src.append(new_rec_src)
        rec_dst.append(new_rec_dst)
        pool.append(edge_dst)
        pool.append(new_rec_dst)
        if end < n:  # the last chunk's edges feed no later draw
            order = np.argsort(new_rec_src, kind="stable")
            rec_indices = np.insert(
                rec_indices, rec_indptr[new_rec_src[order] + 1], new_rec_dst[order]
            )
            rec_indptr[prefix + 1 : end + 1] = rec_indptr[prefix]
            rec_indptr[1 : end + 1] += np.cumsum(np.bincount(new_rec_src, minlength=end))
        prefix = end
    # Every draw is done; free the snapshot before the key buffer exists.
    del pool, rec_indices

    # One key buffer: forward edges in source order, then the reciprocated
    # ones packed in place.
    n_fwd, n_rec = fwd_keys.length, rec_src.length
    keys = np.empty(n_fwd + n_rec, dtype=np.int64)
    keys[:n_fwd] = fwd_keys.view()
    np.left_shift(rec_src.view(), _PACK_SHIFT, out=keys[n_fwd:])
    np.bitwise_or(keys[n_fwd:], rec_dst.view(), out=keys[n_fwd:])
    return keys


def key_in_degrees(keys: np.ndarray, minlength: int) -> np.ndarray:
    """In-degree of every node of packed edge ``keys``, indexed by node.

    One ``np.bincount`` of the keys' followee halves; pass ``minlength``
    to cover node indices past the largest followee (they read 0).
    """
    return np.bincount(np.bitwise_and(keys, _PACK_MASK), minlength=minlength)
