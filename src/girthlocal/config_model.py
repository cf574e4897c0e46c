"""Configuration-model random regular multigraphs.

A multigraph is stored as a pairing (fixed-point-free involution) on
half-edges: vertex v owns a contiguous block of half-edge slots, and two
slots joined by the pairing form one edge.  Self-loops and parallel edges
are permitted — the downstream algorithms must tolerate them — but they
become vanishingly rare locally as n grows, which is what lets finite runs
approximate the large-girth limit.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

__all__ = [
    "Multigraph",
    "GraphStats",
    "generate",
    "stats",
    "edge_list_header",
    "load_edge_list",
    "save_edge_list",
]


@dataclass
class Multigraph:
    """Half-edge pairing representation; immutable after construction."""

    n: int
    owner: np.ndarray  # owner[h] = vertex owning half-edge h
    pair: np.ndarray   # pair[pair[h]] == h, pair[h] != h
    _indptr: np.ndarray = field(init=False, repr=False)
    _slots: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.owner = np.asarray(self.owner, dtype=np.int64)
        self.pair = np.asarray(self.pair, dtype=np.int64)
        h = self.owner.shape[0]
        if self.pair.shape != (h,) or h % 2 != 0:
            raise ValueError("owner and pair must be equal even-length arrays")
        idx = np.arange(h)
        if h and (np.any(self.pair[self.pair] != idx) or np.any(self.pair == idx)):
            raise ValueError("pairing must be a fixed-point-free involution")
        if h and (self.owner.min() < 0 or self.owner.max() >= self.n):
            raise ValueError("half-edge owner out of range")
        # group half-edges by owner once; everything else reads these
        self._slots = np.argsort(self.owner, kind="stable")
        counts = np.bincount(self.owner, minlength=self.n)
        self._indptr = np.concatenate(([0], np.cumsum(counts)))
        for arr in (self.owner, self.pair, self._slots, self._indptr):
            arr.setflags(write=False)

    @property
    def edge_count(self) -> int:
        return self.pair.shape[0] // 2

    def degrees(self) -> np.ndarray:
        return np.diff(self._indptr)

    def slot_array(self) -> np.ndarray:
        """Every half-edge, grouped by owner in ascending vertex order and
        within a vertex in slot order (read-only, not a copy)."""
        return self._slots

    def slot_lists(self) -> list:
        """A fresh Python list of slots per vertex, for mutable copies."""
        return self._per_vertex(self._slots)

    def neighbor_lists(self) -> list:
        """A fresh Python list per vertex of the neighbor across each of
        its half-edges, in slot order (a loop lists the vertex twice)."""
        return self._per_vertex(self.owner[self.pair[self._slots]])

    def _per_vertex(self, flat: np.ndarray) -> list:
        items = flat.tolist()
        bounds = self._indptr.tolist()
        return [items[a:b] for a, b in zip(bounds, bounds[1:])]

    def edges(self) -> Iterator[tuple]:
        """Each edge once, as an (owner, owner) pair; loops as (u, u)."""
        for h in range(self.pair.shape[0]):
            k = int(self.pair[h])
            if h < k:
                yield int(self.owner[h]), int(self.owner[k])


@dataclass
class GraphStats:
    """Defect counts: how far the graph is from simple and large-girth."""

    self_loops: int
    parallel_pairs: int
    cycles3: int
    cycles4: int
    cycles5: int


def generate(n: int, d: int, seed) -> Multigraph:
    """Uniform configuration-model multigraph: n vertices of degree d.

    The n*d half-edges are shuffled and matched consecutively, which is
    exactly a uniform perfect matching.  Deterministic for fixed
    (n, d, seed); loops and parallels are kept, not resampled.
    """
    if n < 2 or d < 3:
        raise ValueError("need n >= 2 and d >= 3")
    if (n * d) % 2 != 0:
        raise ValueError("n*d must be even to pair all half-edges")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n * d)
    pair = np.empty(n * d, dtype=np.int64)
    pair[perm[0::2]] = perm[1::2]
    pair[perm[1::2]] = perm[0::2]
    owner = np.arange(n * d, dtype=np.int64) // d
    return Multigraph(n=n, owner=owner, pair=pair)


def _simple_adjacency(g: Multigraph) -> list:
    adj = [set() for _ in range(g.n)]
    for u, v in g.edges():
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return adj


def _count_short_cycles(adj: list) -> tuple:
    """Cycle counts of lengths 3..5 in a simple graph.

    Depth-first over simple paths anchored at each cycle's minimum vertex;
    every cycle is met exactly twice (once per direction).
    """
    counts = [0, 0, 0]  # lengths 3, 4, 5
    n = len(adj)
    for s in range(n):
        # interior vertices must exceed s, so each cycle is counted from
        # its minimum vertex only
        stack = [(s, 0, (s,))]
        while stack:
            v, depth, path = stack.pop()
            for w in adj[v]:
                if w == s and depth >= 2:
                    counts[depth - 2] += 1
                elif w > s and depth < 4 and w not in path:
                    stack.append((w, depth + 1, path + (w,)))
    return counts[0] // 2, counts[1] // 2, counts[2] // 2


def stats(g: Multigraph) -> GraphStats:
    """Exact defect counts by enumeration."""
    loops = 0
    multiplicity: dict = {}
    for u, v in g.edges():
        if u == v:
            loops += 1
        else:
            key = (u, v) if u < v else (v, u)
            multiplicity[key] = multiplicity.get(key, 0) + 1
    parallel = sum(k * (k - 1) // 2 for k in multiplicity.values())
    c3, c4, c5 = _count_short_cycles(_simple_adjacency(g))
    return GraphStats(self_loops=loops, parallel_pairs=parallel,
                      cycles3=c3, cycles4=c4, cycles5=c5)


def edge_list_header(text: str) -> tuple:
    """The (n, m) counts from the "n m" first line of an edge list."""
    head = next((ln.split() for ln in text.splitlines() if ln.strip()), None)
    if head is None:
        raise ValueError("empty edge list")
    if len(head) != 2:
        raise ValueError("header must be 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ValueError("header must be 'n m'") from None
    if n < 0 or m < 0:
        raise ValueError("negative counts in header")
    return n, m


def load_edge_list(text: str) -> Multigraph:
    """Parse the "n m" + edge-lines format into a Multigraph."""
    n, m = edge_list_header(text)
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if len(lines) - 1 != m:
        raise ValueError(f"expected {m} edge lines, found {len(lines) - 1}")
    owner = np.empty(2 * m, dtype=np.int64)
    for i, ln in enumerate(lines[1:]):
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"malformed edge line: {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"malformed edge line: {ln!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"vertex index out of range on line: {ln!r}")
        owner[2 * i] = u
        owner[2 * i + 1] = v
    pair = np.arange(2 * m, dtype=np.int64)
    pair[0::2] += 1
    pair[1::2] -= 1
    return Multigraph(n=n, owner=owner, pair=pair)


def save_edge_list(g: Multigraph) -> str:
    """Inverse of load_edge_list up to half-edge ordering."""
    out = [f"{g.n} {g.edge_count}"]
    for u, v in g.edges():
        out.append(f"{u} {v}")
    return "\n".join(out) + "\n"
