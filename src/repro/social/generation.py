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
preferential attachment on in-degree (with probability ``pref_prob``), by
triadic closure through one of the node's own freshly drawn followees
(``triadic_prob``), or uniformly at random.  A small fraction of edges is
reciprocated — Twitter-like graphs have low reciprocity, which keeps
assortativity negative.

The hot path is fully vectorized: every chunk samples all of its edges
with batched numpy draws against an explicit *snapshot* of the graph built
so far (attachment pool, CSR adjacency), then deduplicates with one
lexsort.  The snapshot discipline also removes a latent hazard of the old
per-edge loop, where triadic-closure draws indexed followee lists that
grew while the same node's batch was still being generated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.social.graph import CompiledGraph

#: Packed-pair encoding shared with :meth:`CompiledGraph.from_packed_keys`:
#: ``(a, b)`` sorts as the int64 ``a << 32 | b``.
_PAIR_SHIFT = 32
_PAIR_MASK = np.int64((1 << _PAIR_SHIFT) - 1)

#: Vectorized generation processes arriving nodes in chunks of
#: ``max(_MIN_CHUNK, prefix * _CHUNK_FRACTION)``: small enough that the
#: snapshot each chunk samples against is at most ~20% stale, large enough
#: that the per-chunk numpy overhead amortizes (O(log n) chunks total).
_MIN_CHUNK = 32
_CHUNK_FRACTION = 0.2


@dataclass
class FollowGraphConfig:
    """Knobs for :func:`generate_follow_graph`.

    Defaults are calibrated so that the Table 2 metrics land near the
    paper's values (avg total degree ~38.6, clustering ~0.13, short paths,
    slightly negative assortativity).
    """

    n_nodes: int = 10_000
    mean_out_degree: float = 19.3  # total avg degree 38.6 = 2 * edges/node
    out_degree_sigma: float = 1.1  # lognormal sigma of per-node out-degree
    max_out_degree: int = 2_000
    pref_prob: float = 0.55  # preferential attachment on in-degree
    triadic_prob: float = 0.25  # close triangles through a followee
    reciprocation_prob: float = 0.12  # low reciprocity, Twitter-like
    seed_nodes: int = 10

    def __post_init__(self) -> None:
        if self.n_nodes < 2:
            raise ValueError("need at least 2 nodes")
        if self.seed_nodes < 2:
            raise ValueError("need at least 2 seed nodes")
        if self.seed_nodes > self.n_nodes:
            raise ValueError("seed_nodes cannot exceed n_nodes")
        if not 0 <= self.pref_prob + self.triadic_prob <= 1:
            raise ValueError("pref_prob + triadic_prob must be within [0, 1]")
        for name in ("reciprocation_prob",):
            value = getattr(self, name)
            if not 0 <= value <= 1:
                raise ValueError(f"{name} must be within [0, 1], got {value}")


def _sample_out_degrees(config: FollowGraphConfig, rng: np.random.Generator) -> np.ndarray:
    """Heavy-tailed out-degree targets for each arriving node."""
    mu = np.log(config.mean_out_degree) - config.out_degree_sigma**2 / 2
    raw = rng.lognormal(mean=mu, sigma=config.out_degree_sigma, size=config.n_nodes)
    return np.clip(np.rint(raw), 1, config.max_out_degree).astype(np.int64)


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
    config: FollowGraphConfig,
    rng: np.random.Generator,
    wanted: np.ndarray,
    prefix: int,
    pool: np.ndarray,
    fwd_indptr: np.ndarray,
    fwd_indices: np.ndarray,
    rec_indptr: np.ndarray,
    rec_indices: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw every candidate target for one chunk of arriving nodes.

    ``wanted[i]`` edges are drawn for chunk-relative node ``i``; all
    targets come from the ``prefix`` snapshot (nodes ``< prefix``), whose
    adjacency is split into a forward CSR (edges drawn on arrival, grouped
    by source with no sorting needed) and a reciprocation CSR.
    Returns ``(owner_rel, target)`` with dropped triadic draws marked -1.
    """
    # owner_rel = repeat(arange(len(wanted)), wanted), built with a
    # bincount + cumsum instead of np.repeat (one less full-size gather).
    total = int(wanted.sum())
    marker = np.bincount(np.cumsum(wanted), minlength=total + 1)
    owner_rel = np.cumsum(marker[:total], dtype=np.int64) if total else np.empty(0, np.int64)
    roll = rng.random(total)
    is_pref = roll < config.pref_prob
    is_triadic = ~is_pref & (roll < config.pref_prob + config.triadic_prob)
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
                closed[in_fwd] = fwd_indices[(fwd_indptr[via] + position)[in_fwd]]
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
                    picked[in_fwd] = fwd_indices[
                        (fwd_indptr[via_ok] + position)[in_fwd]
                    ]
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

    Runs in O(E log E) total: nodes arrive in geometrically growing
    chunks, and each chunk's edges are drawn with batched numpy sampling
    against the prefix snapshot and deduplicated with one lexsort.  The
    snapshot adjacency is kept in two parts so no per-chunk re-sort of the
    full edge set is needed: forward edges arrive already grouped by
    source (each node's batch lands in exactly one chunk), and only the
    small reciprocated set (~``reciprocation_prob`` of edges) is re-sorted
    as it grows.  Edge uniqueness across chunks is structural — forward
    edges always point from a brand-new node into the prefix, and
    reciprocation edges point back at a node that cannot have been
    targeted before — so no global dedup pass is needed.
    """
    n = config.n_nodes
    seed_nodes = min(config.seed_nodes, n)
    out_degrees = _sample_out_degrees(config, rng)

    seed_src, seed_dst = _seed_clique(seed_nodes)
    expected_edges = int(out_degrees.sum()) + len(seed_src)

    # Forward adjacency: sources arrive in ascending order, so the CSR is
    # just this buffer plus a cumsum of per-source counts — never sorted.
    fwd_src = _GrowBuffer(expected_edges)
    fwd_dst = _GrowBuffer(expected_edges)
    fwd_out_counts = np.zeros(n, dtype=np.int64)
    fwd_src.append(seed_src)
    fwd_dst.append(seed_dst)
    fwd_out_counts[:seed_nodes] = seed_nodes - 1

    # Reciprocated edges land on arbitrary old sources; kept separately
    # and re-sorted per chunk (a small, geometrically growing set).
    rec_capacity = int(expected_edges * config.reciprocation_prob * 1.1) + 64
    rec_src = _GrowBuffer(rec_capacity)
    rec_dst = _GrowBuffer(rec_capacity)

    # In-degree-proportional sampling pool: each followee once per
    # in-edge, i.e. every forward dst plus every reciprocated dst —
    # sized for both up front so it never pays a doubling copy.
    pool = _GrowBuffer(expected_edges + 2 * rec_capacity)
    pool.append(seed_dst)

    fwd_indptr = np.zeros(n + 1, dtype=np.int64)
    rec_indptr = np.zeros(n + 1, dtype=np.int64)

    prefix = seed_nodes
    while prefix < n:
        chunk = min(n - prefix, max(_MIN_CHUNK, int(prefix * _CHUNK_FRACTION)))
        end = prefix + chunk

        np.cumsum(fwd_out_counts, out=fwd_indptr[1:])
        rec_order = np.argsort(rec_src.view(), kind="stable")
        rec_indices = rec_dst.view()[rec_order]
        np.cumsum(np.bincount(rec_src.view(), minlength=n), out=rec_indptr[1:])

        wanted = np.minimum(out_degrees[prefix:end], prefix)
        owner_rel, targets = _chunk_targets(
            config, rng, wanted, prefix, pool.view(),
            fwd_indptr, fwd_dst.view(), rec_indptr, rec_indices,
        )

        # Dedup per owner (targets < prefix <= owner, so self-follows are
        # impossible and a new node has no pre-existing out-edges to
        # collide with).  Canonical order: sorted by (owner, target) —
        # realized as one packed-key sort instead of a lexsort.
        kept = targets >= 0
        pair_keys = np.left_shift(owner_rel[kept], _PAIR_SHIFT)
        np.bitwise_or(pair_keys, targets[kept], out=pair_keys)
        pair_keys.sort()
        first = np.ones(len(pair_keys), dtype=bool)
        first[1:] = pair_keys[1:] != pair_keys[:-1]
        unique_keys = pair_keys[first]
        edge_src = np.right_shift(unique_keys, _PAIR_SHIFT) + prefix
        edge_dst = np.bitwise_and(unique_keys, _PAIR_MASK)

        reciprocated = rng.random(len(edge_src)) < config.reciprocation_prob
        new_rec_src = edge_dst[reciprocated]
        new_rec_dst = edge_src[reciprocated]

        fwd_src.append(edge_src)
        fwd_dst.append(edge_dst)
        fwd_out_counts[prefix:end] = np.bincount(
            edge_src - prefix, minlength=chunk
        )
        rec_src.append(new_rec_src)
        rec_dst.append(new_rec_dst)
        pool.append(edge_dst)
        pool.append(new_rec_dst)
        prefix = end

    # Pack (src, dst) pairs straight into one key buffer — no edge-array
    # concatenation, and compilation is one int64 sort per direction.
    n_fwd, n_rec = fwd_src.length, rec_src.length
    keys = np.empty(n_fwd + n_rec, dtype=np.int64)
    np.left_shift(fwd_src.view(), _PAIR_SHIFT, out=keys[:n_fwd])
    np.bitwise_or(keys[:n_fwd], fwd_dst.view(), out=keys[:n_fwd])
    np.left_shift(rec_src.view(), _PAIR_SHIFT, out=keys[n_fwd:])
    np.bitwise_or(keys[n_fwd:], rec_dst.view(), out=keys[n_fwd:])
    # Endpoints are in-range by construction (targets are clipped and
    # deduped against [0, n)), so skip the validation pass.
    return CompiledGraph.from_packed_keys(keys, n_nodes=n, validate=False)

