"""Compact ``array``/``bytes``-backed extended 2-hop labels (DESIGN.md §7,
docs/scaling.md).

:mod:`repro.graph.two_hop` stores the pruned-landmark labeling as
dict-of-dicts with one Python ``set`` per out-entry — convenient, but the
per-object overhead (~100 bytes per entry, ~220 per set) is what actually
breaks long before the |V|² closure does.  This module stores the *same*
labels in flat typed buffers, CSR-style:

* ``landmarks[r]`` — node id of the landmark processed at rank ``r``;
  ``rank_of[v]`` is the inverse permutation.  Per-node label entries are
  keyed by landmark *rank*, so each node's pivot list is sorted by
  construction (landmark ``r`` writes all of its entries before landmark
  ``r+1`` starts) and queries intersect two sorted runs.
* in-labels: ``in_offsets`` (``q``) slices ``in_pivots`` (``i``) and the
  parallel distance bytes ``in_dists``.
* out-labels: ``out_offsets``/``out_pivots``/``out_dists`` likewise, plus
  a followee pool: entry ``k`` owns ``f_pool[f_offsets[k]:f_offsets[k+1]]``.

Two classes of out-entry store no pool span:

* distance-1 entries — their followee set is provably ``{landmark}``
  (Algorithm 2 line 7 only ever records the landmark itself at length 1),
  so the set is synthesized at query time, bit-identically, for free;
* entries pruned by the **memory budget** — when ``memory_budget_bytes``
  is set and the full pool would not fit, followee sets are dropped for
  the *least-central* landmarks first (highest rank upward) until the
  index fits.  A pruned entry's span is empty (impossible for a stored
  set, which is never empty), and :meth:`CompactTwoHopCover.query` falls
  back to **lazy recovery**: the exact ``F_v,landmark`` via Theorem 1
  from distance queries alone.  Distances are never pruned, so
  ``distance`` stays bit-identical under any budget; a recovered set is a
  superset of the dropped label subset and still a subset of the exact
  ``F_st``, and ``reachability(..., exact_followees=True)`` is unchanged.

Without a budget the stored label data is identical to the dict cover's,
so every query — ``distance``, ``query``, ``exact_followee_set``,
``reachability`` in both modes — returns bit-identical values; the
randomized battery in ``tests/test_compact_labels.py`` enforces this.
"""

from __future__ import annotations

import time
from array import array
from bisect import bisect_left
from collections import deque
from typing import Dict, List, Optional, Set, Tuple

from repro.config import DEFAULT_MAX_HOPS
from repro.graph.digraph import DiGraph
from repro.graph.two_hop import INF, TwoHopCover, _landmark_order

__all__ = ["CompactTwoHopCover", "build_compact_two_hop_cover"]


def _index_of(pivots, lo: int, hi: int, rank: int) -> int:
    """Index of ``rank`` in the sorted run ``pivots[lo:hi]``, or ``-1``."""
    k = bisect_left(pivots, rank, lo, hi)
    if k < hi and pivots[k] == rank:
        return k
    return -1


def _table_distance(table: List[int], own_rank: int, pivots, dists) -> int:
    """Staged distance from a node (rank ``own_rank``, opposite label
    ``pivots``/``dists``) to the loaded landmark; > max_hops: unreachable."""
    best = table[own_rank]
    for pivot, dist in zip(pivots, dists):
        dist += table[pivot]
        if dist < best:
            best = dist
    return best


class CompactTwoHopCover:
    """The extended 2-hop cover of :class:`TwoHopCover`, in flat buffers.

    Query API and semantics match :class:`TwoHopCover` exactly (and
    bit-identically when no memory budget pruned followee pools).
    ``exact_reachability=True`` makes :meth:`reachability` default to the
    Theorem-1 exact followee recovery — the mode the scale-aware dispatch
    uses so compact-backed linkers score Eq. 4 on the same ``F_st`` the
    transitive closure materializes.
    """

    def __init__(
        self,
        graph: DiGraph,
        max_hops: int,
        landmarks: array,
        rank_of: array,
        in_offsets: array,
        in_pivots: array,
        in_dists: bytes,
        out_offsets: array,
        out_pivots: array,
        out_dists: bytes,
        f_offsets: array,
        f_pool: array,
        exact_reachability: bool = False,
        memory_budget_bytes: Optional[int] = None,
        followee_rank_cutoff: Optional[int] = None,
        pruned_followee_entries: int = 0,
        bfs_s: Optional[float] = None,
        flatten_s: Optional[float] = None,
    ) -> None:
        self._graph = graph
        self._max_hops = max_hops
        self._landmarks = landmarks
        self._rank_of = rank_of
        self._in_offsets = in_offsets
        self._in_pivots = in_pivots
        self._in_dists = in_dists
        self._out_offsets = out_offsets
        self._out_pivots = out_pivots
        self._out_dists = out_dists
        self._f_offsets = f_offsets
        self._f_pool = f_pool
        self._exact_reachability = exact_reachability
        self._memory_budget_bytes = memory_budget_bytes
        self._followee_rank_cutoff = followee_rank_cutoff
        self._pruned_followee_entries = pruned_followee_entries
        self._bfs_s = bfs_s
        self._flatten_s = flatten_s

    # ------------------------------------------------------------------ #
    # queries (same contracts as TwoHopCover)
    # ------------------------------------------------------------------ #
    @property
    def max_hops(self) -> int:
        return self._max_hops

    def distance(self, source: int, target: int) -> float:
        """Shortest-path distance within ``H`` hops, or ``inf``."""
        if source == target:
            return 0.0
        out_pivots, out_dists = self._out_pivots, self._out_dists
        in_pivots, in_dists = self._in_pivots, self._in_dists
        so, eo = self._out_offsets[source], self._out_offsets[source + 1]
        si, ei = self._in_offsets[target], self._in_offsets[target + 1]
        best = INF
        # pivot == target
        k = _index_of(out_pivots, so, eo, self._rank_of[target])
        if k >= 0:
            best = out_dists[k]
        # pivot == source
        k = _index_of(in_pivots, si, ei, self._rank_of[source])
        if k >= 0 and in_dists[k] < best:
            best = in_dists[k]
        # interior pivots: both runs are sorted by rank — one merge pass
        i, j = so, si
        while i < eo and j < ei:
            a = out_pivots[i]
            b = in_pivots[j]
            if a == b:
                d = out_dists[i] + in_dists[j]
                if d < best:
                    best = d
                i += 1
                j += 1
            elif a < b:
                i += 1
            else:
                j += 1
        return best if best <= self._max_hops else INF

    def query(self, source: int, target: int) -> Tuple[float, Set[int]]:
        """Eq. 5: ``(d_st, F_st)`` recovered from the labels (Theorem 2)."""
        if source == target:
            return 0.0, set()
        best = self.distance(source, target)
        if best == INF:
            return INF, set()
        followees: Set[int] = set()
        out_pivots, out_dists = self._out_pivots, self._out_dists
        in_pivots, in_dists = self._in_pivots, self._in_dists
        so, eo = self._out_offsets[source], self._out_offsets[source + 1]
        si, ei = self._in_offsets[target], self._in_offsets[target + 1]
        k = _index_of(out_pivots, so, eo, self._rank_of[target])
        if k >= 0 and out_dists[k] == best:
            followees |= self._followee_set(source, k)
        i, j = so, si
        while i < eo and j < ei:
            a = out_pivots[i]
            b = in_pivots[j]
            if a == b:
                if out_dists[i] + in_dists[j] == best:
                    followees |= self._followee_set(source, i)
                i += 1
                j += 1
            elif a < b:
                i += 1
            else:
                j += 1
        return best, followees

    def _followee_set(self, node: int, entry: int) -> Set[int]:
        """Stored pool span, synthesized ``{landmark}`` at distance 1, or
        lazy Theorem-1 recovery when the memory budget pruned the span."""
        fs, fe = self._f_offsets[entry], self._f_offsets[entry + 1]
        if fe > fs:
            return set(self._f_pool[fs:fe])
        landmark = self._landmarks[self._out_pivots[entry]]
        dist = self._out_dists[entry]
        if dist == 1:
            return {landmark}
        return {
            f
            for f in self._graph.out_neighbors(node)
            if self.distance(f, landmark) == dist - 1
        }

    def exact_followee_set(self, source: int, target: int) -> Set[int]:
        """Exact :math:`F_{st}` via Theorem 1 — ``O(|F_s|)`` label queries."""
        d_st = self.distance(source, target)
        if d_st == INF or d_st == 0:
            return set()
        if d_st == 1:
            return {target}
        return {
            f
            for f in self._graph.out_neighbors(source)
            if self.distance(f, target) == d_st - 1
        }

    def reachability(
        self, source: int, target: int, exact_followees: Optional[bool] = None
    ) -> float:
        """Weighted reachability ``R(source, target)`` (Eq. 4).

        ``exact_followees=None`` defers to the ``exact_reachability``
        construction flag; explicit ``True``/``False`` behave exactly like
        :meth:`TwoHopCover.reachability`.
        """
        if exact_followees is None:
            exact_followees = self._exact_reachability
        if source == target:
            return 0.0
        d_st, followees = self.query(source, target)
        if d_st == INF:
            return 0.0
        if d_st == 1:
            return 1.0
        num_followees = self._graph.out_degree(source)
        if num_followees == 0:
            return 0.0
        if exact_followees or not followees:
            followees = self.exact_followee_set(source, target)
        return (1.0 / d_st) * (len(followees) / num_followees)

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #
    def num_label_entries(self) -> int:
        """Total entries across all in- and out-labels."""
        return len(self._in_pivots) + len(self._out_pivots)

    def label_bytes(self) -> int:
        """Exact payload bytes of every label buffer.

        ``itemsize * len`` per typed array plus the raw distance bytes —
        no estimation involved, and hand-computable from the label shape
        (the accounting the memory budget is enforced against).
        """
        arrays = (
            self._landmarks,
            self._rank_of,
            self._in_offsets,
            self._in_pivots,
            self._out_offsets,
            self._out_pivots,
            self._f_offsets,
            self._f_pool,
        )
        total = sum(a.itemsize * len(a) for a in arrays)
        return total + len(self._in_dists) + len(self._out_dists)

    def size_bytes(self) -> int:
        """Alias of :meth:`label_bytes` (Table 5 column API parity)."""
        return self.label_bytes()

    def backbone_bytes(self) -> int:
        """Bytes of everything except the followee pool — the part the
        memory budget can never prune (distances must stay exact)."""
        return self.label_bytes() - self._f_pool.itemsize * len(self._f_pool)

    def stats(self) -> Dict[str, object]:
        """Index shape and build-phase seconds, for benches and debugging."""
        return {
            "nodes": self._graph.num_nodes,
            "label_entries": self.num_label_entries(),
            "followee_pool_entries": len(self._f_pool),
            "pruned_followee_entries": self._pruned_followee_entries,
            "followee_rank_cutoff": self._followee_rank_cutoff,
            "memory_budget_bytes": self._memory_budget_bytes,
            "backbone_bytes": self.backbone_bytes(),
            "label_bytes": self.label_bytes(),
            "bfs_s": self._bfs_s,
            "flatten_s": self._flatten_s,
        }

    @property
    def memory_budget_bytes(self) -> Optional[int]:
        return self._memory_budget_bytes

    @property
    def pruned_followee_entries(self) -> int:
        return self._pruned_followee_entries

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_cover(
        cls,
        cover: TwoHopCover,
        graph: DiGraph,
        order: str = "degree",
        seed: int = 0,
        memory_budget_bytes: Optional[int] = None,
        exact_reachability: bool = False,
    ) -> "CompactTwoHopCover":
        """Freeze an existing dict-backed cover into compact buffers.

        ``order``/``seed`` must name the landmark order the cover was
        built with so budget pruning drops the same (least-central-first)
        followee sets a direct :func:`build_compact_two_hop_cover` would.
        Queries are rank-order independent either way.
        """
        landmarks = _landmark_order(graph, order, seed)
        stage = _StagingLabels(graph, cover.max_hops, landmarks)
        rank_of = stage.rank_of
        for node in range(graph.num_nodes):
            in_label = cover.in_label(node)
            for pivot in sorted(in_label, key=rank_of.__getitem__):
                stage.append_in(node, rank_of[pivot], in_label[pivot])
            out_label = cover.out_label(node)
            for pivot in sorted(out_label, key=rank_of.__getitem__):
                dist, followees = out_label[pivot]
                stage.append_out(node, rank_of[pivot], dist, followees)
        return stage.finalize(memory_budget_bytes, exact_reachability)


class _StagingLabels:
    """Per-node growable label buffers used while the index is built.

    Keeps the build peak at O(final index) instead of O(dict cover):
    pivot ranks in per-node ``array('i')``, distances in ``bytearray``,
    followee sets as frozen sorted tuples (``None`` for distance-1 entries,
    whose set is always ``{landmark}``).
    """

    def __init__(self, graph: DiGraph, max_hops: int, landmarks: List[int]) -> None:
        if max_hops > 255:
            raise ValueError(
                "compact labels store distances as single bytes; "
                f"max_hops={max_hops} exceeds 255"
            )
        n = graph.num_nodes
        self.graph = graph
        self.max_hops = max_hops
        self.landmarks = array("i", landmarks)
        self.rank_of = array("i", bytes(4 * n))
        for rank, landmark in enumerate(landmarks):
            self.rank_of[landmark] = rank
        self.in_pivots: List[array] = [array("i") for _ in range(n)]
        self.in_dists: List[bytearray] = [bytearray() for _ in range(n)]
        self.out_pivots: List[array] = [array("i") for _ in range(n)]
        self.out_dists: List[bytearray] = [bytearray() for _ in range(n)]
        self.out_fsets: List[List[Optional[Tuple[int, ...]]]] = [
            [] for _ in range(n)
        ]

    def append_in(self, node: int, rank: int, dist: int) -> None:
        self.in_pivots[node].append(rank)
        self.in_dists[node].append(dist)

    def append_out(self, node: int, rank: int, dist: int, followees) -> None:
        self.out_pivots[node].append(rank)
        self.out_dists[node].append(dist)
        # a distance-1 followee set is always exactly {landmark}: store
        # nothing and let queries synthesize it
        self.out_fsets[node].append(
            None if dist == 1 else tuple(sorted(followees))
        )

    def has_followee(self, source: int, node: int, length: int, table) -> bool:
        """Equal-length pruning check: does a staged out-entry of ``source``
        realising ``length`` to the loaded landmark already list ``node``?"""
        landmarks = self.landmarks
        for pivot, dist, fset in zip(
            self.out_pivots[source], self.out_dists[source], self.out_fsets[source]
        ):
            if dist + table[pivot] == length and (
                node == landmarks[pivot] if fset is None else node in fset
            ):
                return True
        return False

    # ------------------------------------------------------------------ #
    def finalize(
        self,
        memory_budget_bytes: Optional[int],
        exact_reachability: bool,
        bfs_s: Optional[float] = None,
    ) -> CompactTwoHopCover:
        started = time.perf_counter()
        n = self.graph.num_nodes
        total_in = sum(len(p) for p in self.in_pivots)
        total_out = sum(len(p) for p in self.out_pivots)
        # distance backbone: everything except the followee pool — never
        # pruned, so distances are bit-identical under any budget
        backbone = (
            4 * len(self.landmarks)
            + 4 * len(self.rank_of)
            + 8 * (n + 1) * 2  # in/out offsets
            + 5 * total_in  # pivots + distance byte
            + 5 * total_out
            + 8 * (total_out + 1)  # f_offsets
        )
        cutoff = n  # keep every rank's pool by default
        if memory_budget_bytes is not None:
            if backbone > memory_budget_bytes:
                raise ValueError(
                    f"memory budget {memory_budget_bytes} bytes is below the "
                    f"distance backbone ({backbone} bytes); followee pruning "
                    "cannot shrink the index further"
                )
            pool_bytes = array("q", bytes(8 * n))
            for node in range(n):
                pivots = self.out_pivots[node]
                for k, fset in enumerate(self.out_fsets[node]):
                    if fset is not None:
                        pool_bytes[pivots[k]] += 4 * len(fset)
            remaining = memory_budget_bytes - backbone
            cutoff = 0
            for rank in range(n):
                if pool_bytes[rank] > remaining:
                    break
                remaining -= pool_bytes[rank]
                cutoff = rank + 1

        in_offsets = array("q", [0])
        in_pivots = array("i")
        in_dists = bytearray()
        for node in range(n):
            in_pivots.extend(self.in_pivots[node])
            in_dists += self.in_dists[node]
            in_offsets.append(len(in_pivots))
            self.in_pivots[node] = None
            self.in_dists[node] = None

        out_offsets = array("q", [0])
        out_pivots = array("i")
        out_dists = bytearray()
        f_offsets = array("q", [0])
        f_pool = array("i")
        pruned = 0
        for node in range(n):
            pivots = self.out_pivots[node]
            out_pivots.extend(pivots)
            out_dists += self.out_dists[node]
            out_offsets.append(len(out_pivots))
            for k, fset in enumerate(self.out_fsets[node]):
                if fset is not None:
                    if pivots[k] < cutoff:
                        f_pool.extend(fset)
                    else:
                        pruned += 1
                f_offsets.append(len(f_pool))
            self.out_pivots[node] = None
            self.out_dists[node] = None
            self.out_fsets[node] = None

        return CompactTwoHopCover(
            self.graph,
            self.max_hops,
            landmarks=self.landmarks,
            rank_of=self.rank_of,
            in_offsets=in_offsets,
            in_pivots=in_pivots,
            in_dists=bytes(in_dists),
            out_offsets=out_offsets,
            out_pivots=out_pivots,
            out_dists=bytes(out_dists),
            f_offsets=f_offsets,
            f_pool=f_pool,
            exact_reachability=exact_reachability,
            memory_budget_bytes=memory_budget_bytes,
            followee_rank_cutoff=cutoff if memory_budget_bytes is not None else None,
            pruned_followee_entries=pruned,
            bfs_s=bfs_s,
            flatten_s=time.perf_counter() - started,
        )


def build_compact_two_hop_cover(
    graph: DiGraph,
    max_hops: int = DEFAULT_MAX_HOPS,
    order: str = "degree",
    seed: int = 0,
    memory_budget_bytes: Optional[int] = None,
    exact_reachability: bool = False,
) -> CompactTwoHopCover:
    """Algorithm 2 directly into compact buffers, one landmark at a time.

    Produces the same labels as the sequential
    :func:`repro.graph.two_hop.build_two_hop_cover`: each landmark's
    backward/forward BFS records its would-be writes in a local dict (the
    landmark only ever touches its *own* entries, so a local record always
    wins over the staged labels — the identical pruning decisions in a
    different order of bookkeeping) and appends them to the staging
    buffers when the BFS finishes.  Peak memory is O(final index), never
    O(dict-of-dicts).

    Pruning checks use the rank-indexed table of pruned landmark labeling
    (Akiba, Iwata & Yoshida, SIGMOD 2013): before each BFS the landmark's
    staged label is loaded into ``table`` (pivot rank -> distance,
    ``max_hops + 1`` where absent), so ``dist(s, landmark)`` is one pass
    over ``L_out(s)`` (``dist(landmark, t)`` one over ``L_in(t)``).  The
    staged labels cannot change during a BFS, so answers are memoised.
    """
    landmarks = _landmark_order(graph, order, seed)
    stage = _StagingLabels(graph, max_hops, landmarks)
    rank_of = stage.rank_of
    far = max_hops + 1
    table = [far] * graph.num_nodes
    started = time.perf_counter()
    for rank, landmark in enumerate(landmarks):
        # backward BFS: out-labels of nodes that reach the landmark
        loaded = stage.in_pivots[landmark]
        for pivot, dist in zip(loaded, stage.in_dists[landmark]):
            table[pivot] = dist
        local_out: Dict[int, Tuple[int, Set[int]]] = {}
        known: Dict[int, int] = {}  # staged or local distance, this BFS only
        queue = deque([(landmark, 0)])
        enqueued: Set[int] = {landmark}
        while queue:
            node, length = queue.popleft()
            length += 1
            if length > max_hops:
                continue
            for s in graph.in_neighbors(node):
                if s == landmark:
                    continue
                current = known.get(s)
                if current is None:
                    current = known[s] = _table_distance(
                        table, rank_of[s], stage.out_pivots[s], stage.out_dists[s]
                    )
                if length < current:
                    known[s] = length
                    local_out[s] = (length, {node})
                    if length < max_hops and s not in enqueued:
                        enqueued.add(s)
                        queue.append((s, length))
                elif length == current:
                    entry = local_out.get(s)
                    if entry is None:
                        if not stage.has_followee(s, node, length, table):
                            local_out[s] = (length, {node})
                    elif node not in entry[1]:
                        entry[1].add(node)
        for pivot in loaded:
            table[pivot] = far
        for s, (dist, followees) in local_out.items():
            stage.append_out(s, rank, dist, followees)
        # forward BFS: in-labels of nodes the landmark reaches
        loaded = stage.out_pivots[landmark]
        for pivot, dist in zip(loaded, stage.out_dists[landmark]):
            table[pivot] = dist
        local_in: Dict[int, int] = {}
        known = {}
        queue = deque([(landmark, 0)])
        enqueued = {landmark}
        while queue:
            node, length = queue.popleft()
            length += 1
            if length > max_hops:
                continue
            for t in graph.out_neighbors(node):
                if t == landmark:
                    continue
                current = known.get(t)
                if current is None:
                    current = known[t] = _table_distance(
                        table, rank_of[t], stage.in_pivots[t], stage.in_dists[t]
                    )
                if length < current:
                    known[t] = local_in[t] = length
                    if length < max_hops and t not in enqueued:
                        enqueued.add(t)
                        queue.append((t, length))
        for pivot in loaded:
            table[pivot] = far
        for t, dist in local_in.items():
            stage.append_in(t, rank, dist)
    bfs_s = time.perf_counter() - started
    return stage.finalize(memory_budget_bytes, exact_reachability, bfs_s)
