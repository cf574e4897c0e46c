"""Configuration-model random regular multigraphs.

A multigraph is stored as a pairing (fixed-point-free involution) on
half-edges: vertex v owns a contiguous block of half-edge slots, and two
slots joined by the pairing form one edge.  The blocks come in ascending
vertex order: ``Multigraph`` renumbers half-edges given in any other order
(an edge list's, say) to group them so, each vertex's in the order given,
and every reader (the slot and neighbour lists, the C engines) relies on
it.  So the pairing and the block bounds are all a graph keeps: the owner
of each half-edge is given only to group them, and ``owners`` derives it
again from the blocks for a caller that needs it.  A generated graph is
grouped by construction, d half-edges per vertex, so ``generate`` gives
no owners at all and its blocks follow from n and d.  Self-loops and
parallel edges are permitted — the downstream algorithms must tolerate
them — but they become vanishingly rare locally as n grows, which is what
lets finite runs approximate the large-girth limit.

Vertex and half-edge ids are stored as int32, here and in the C engines
that read these arrays, so a graph holds fewer than 2**31 vertices and
fewer than 2**31 half-edges; ``check_id_range`` rejects a larger one
before anything of its size is allocated.  The checks over a whole graph
(the pairing's here, ``verify_independent``, ``count_cut``) run over
``blocks`` of at most ``BLOCK`` half-edges, so that no int32 temporary of
theirs is as large as the graph.
"""
from __future__ import annotations

import copy
from dataclasses import InitVar, dataclass, field
from typing import Iterator, Optional

import numpy as np

__all__ = [
    "BLOCK",
    "Multigraph",
    "blocks",
    "check_id_range",
    "generate",
    "edge_list_header",
    "load_edge_list",
    "save_edge_list",
]

# vertex and half-edge ids are int32: a graph has fewer than this many of each
ID_LIMIT = 2 ** 31
# half-edges per block of a whole-graph check: its temporaries are a few
# hundred kB, and a block costs one pass of Python
BLOCK = 1 << 16


def blocks(h: int) -> Iterator[slice]:
    """Slices of at most BLOCK consecutive half-edges covering 0..h-1."""
    return (slice(a, a + BLOCK) for a in range(0, h, BLOCK))


def check_id_range(n: int, half_edges: int) -> None:
    """Reject a graph whose vertex or half-edge ids would not fit in int32;
    it allocates nothing, so it runs before anything of the graph's size
    is built."""
    if n >= ID_LIMIT or half_edges >= ID_LIMIT:
        raise ValueError(f"a graph of {n} vertices and {half_edges} "
                         f"half-edges is too large: vertex and half-edge "
                         f"ids are 32-bit, so each count must be below "
                         f"2**31 = {ID_LIMIT}")


@dataclass
class Multigraph:
    """Half-edge pairing representation; immutable after construction.

    A graph keeps ``pair`` and the block bounds ``_indptr`` alone, both
    contiguous int32, whatever integer arrays it was given (the C cut
    engine reads ``pair`` in place); the given values are range-checked
    first, so an id out of range raises instead of wrapping, and arrays of
    any other dtype (float, bool) raise.  The pairing's range, fixed-point
    and involution checks run on every graph.  ``owner``
    is an init-only argument: half-edges not grouped by owner are
    renumbered by a stable sort, so that vertex v's are the block
    ``_indptr[v]:_indptr[v + 1]`` (grouped ones are kept as given), and the
    owners are then dropped; ``owners()`` derives them from the blocks.
    With no owners, the half-edges are those of a regular graph grouped by
    construction, h / n per vertex in vertex order, and the blocks come
    from the counts alone."""

    n: int
    pair: np.ndarray   # pair[pair[h]] == h, pair[h] != h
    # owner[h] = vertex owning half-edge h; None: vertex v owns d*v..d*v+d-1
    owner: InitVar[Optional[np.ndarray]] = None
    _indptr: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, owner):
        pair = np.asarray(self.pair)
        if owner is not None:
            owner = np.asarray(owner)
        if not all(np.issubdtype(a.dtype, np.integer)
                   for a in (owner, pair) if a is not None):
            raise ValueError("owner and pair must be integer arrays")
        h = pair.size
        check_id_range(self.n, h)
        if pair.shape != (h,) or h % 2 != 0 or (
                owner is not None and owner.shape != (h,)):
            raise ValueError("owner and pair must be equal even-length arrays")
        d = h // max(self.n, 1)
        if owner is None and h != d * self.n:
            raise ValueError("half-edges given without owners must be the "
                             "same number for each vertex")
        if owner is not None and h and (owner.min() < 0
                                        or owner.max() >= self.n):
            raise ValueError("half-edge owner out of range")
        if h and (pair.min() < 0 or pair.max() >= h):
            raise ValueError("pairing must be a fixed-point-free involution")
        pair = np.ascontiguousarray(pair, dtype=np.int32)
        for s in blocks(h):
            partner = pair[s]
            idx = np.arange(s.start, s.start + partner.size, dtype=np.int32)
            if np.any(pair[partner] != idx) or np.any(partner == idx):
                raise ValueError(
                    "pairing must be a fixed-point-free involution")
        if owner is None:
            self._indptr = d * np.arange(self.n + 1, dtype=np.int32)
        else:
            pair, self._indptr = _grouped(self.n, owner, pair)
        self.pair = pair
        for arr in (self.pair, self._indptr):
            arr.setflags(write=False)

    @property
    def edge_count(self) -> int:
        return self.pair.shape[0] // 2

    def degrees(self) -> np.ndarray:
        return np.diff(self._indptr)

    def owners(self) -> np.ndarray:
        """owner[h], the vertex whose block holds half-edge h: a fresh int32
        array of all h entries, derived from the blocks on every call, so a
        caller derives it once, not once per half-edge."""
        return np.repeat(np.arange(self.n, dtype=np.int32), self.degrees())

    def vertex_of(self, half_edges: np.ndarray) -> np.ndarray:
        """The vertex whose block holds each given half-edge, found by a
        binary search of the blocks: for a few half-edges, not for all.
        The ids are searched as int32, the blocks' dtype: numpy would
        otherwise widen the whole block array on every call."""
        ids = np.asarray(half_edges).astype(np.int32, copy=False)
        return np.searchsorted(self._indptr, ids, side="right") - 1

    def renamable_degree(self) -> int:
        """d, the degree of every vertex: only a regular graph can be
        renamed, and any other raises."""
        d = self.pair.shape[0] // max(self.n, 1)
        if np.any(self.degrees() != d):
            raise ValueError("only a regular graph can be renamed")
        return d

    def renamed(self, labels: np.ndarray) -> Multigraph:
        """This regular graph with vertex v renamed labels[v] (an int32
        permutation), each keeping its half-edges in order; it shares the
        blocks, and a valid pairing renamed stays valid."""
        d = self.renamable_degree()
        moved = (d * labels[:, None] + np.arange(d, dtype=np.int32)).ravel()
        graph = copy.copy(self)
        graph.pair = np.empty_like(self.pair)
        graph.pair[moved] = moved[self.pair]
        graph.pair.setflags(write=False)
        return graph

    def slot_lists(self) -> list:
        """A fresh Python list of slots per vertex, for mutable copies."""
        return self._per_vertex(np.arange(self.pair.shape[0]))

    def neighbor_lists(self) -> list:
        """A fresh Python list per vertex of the neighbor across each of
        its half-edges, in slot order (a loop lists the vertex twice)."""
        return self._per_vertex(self.owners()[self.pair])

    def _per_vertex(self, flat: np.ndarray) -> list:
        items = flat.tolist()
        bounds = self._indptr.tolist()
        return [items[a:b] for a, b in zip(bounds, bounds[1:])]

    def edges(self) -> Iterator[tuple]:
        """Each edge once, as an (owner, owner) pair; loops as (u, u)."""
        owner, pair = self.owners().tolist(), self.pair.tolist()
        for h, k in enumerate(pair):
            if h < k:
                yield owner[h], owner[k]


def _grouped(n: int, owner: np.ndarray, pair: np.ndarray) -> tuple:
    """The int32 pairing renumbered so that the half-edges are grouped by
    owner (the given pairing when they are already), and the block bounds
    of the n owners."""
    owner = owner.astype(np.int32, copy=False)
    h = owner.shape[0]
    # each block's differences reach one half-edge into the next block
    if any(np.any(np.diff(owner[s.start:s.stop + 1]) < 0)
           for s in blocks(h)):
        # h' = rank[h] is h's place once grouped by owner
        order = np.argsort(owner, kind="stable")
        rank = np.empty(h, dtype=np.int32)
        rank[order] = np.arange(h, dtype=np.int32)
        owner, pair = owner[order], rank[pair[order]]
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(owner, minlength=n), out=indptr[1:])
    return pair, indptr


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
    check_id_range(n, n * d)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n * d)
    pair = np.empty(n * d, dtype=np.int32)
    pair[perm[0::2]] = perm[1::2]
    pair[perm[1::2]] = perm[0::2]
    # the int64 permutation is the largest array here: free it before the
    # pairing is checked
    del perm
    # vertex v owns half-edges d*v .. d*v + d - 1: no owner array to check
    return Multigraph(n=n, pair=pair)


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
    check_id_range(n, 2 * m)
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if len(lines) - 1 != m:
        raise ValueError(f"expected {m} edge lines, found {len(lines) - 1}")
    owner = np.empty(2 * m, dtype=np.int32)
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
    pair = np.arange(2 * m, dtype=np.int32)
    pair[0::2] += 1
    pair[1::2] -= 1
    return Multigraph(n=n, owner=owner, pair=pair)


def save_edge_list(g: Multigraph) -> str:
    """Inverse of load_edge_list up to half-edge ordering."""
    out = [f"{g.n} {g.edge_count}"]
    for u, v in g.edges():
        out.append(f"{u} {v}")
    return "\n".join(out) + "\n"
