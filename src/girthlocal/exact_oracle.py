"""Exact maximum independent set and maximum cut on small graphs.

Ground truth for the finite-graph algorithms: exhaustive search with n
capped low enough that exactness is beyond doubt.  Inputs come from
Multigraph instances; the underlying simple graph drives independence,
while the cut objective keeps parallel-edge multiplicity (a parallel pair
crossing the cut counts twice).  Self-loops can never contribute to either
objective and are dropped.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config_model import Multigraph

__all__ = ["SmallGraph", "check_order", "small_graph", "from_multigraph",
           "max_independent_set", "max_cut"]

# problem -> (oracle name, largest n it searches exhaustively)
LIMITS = {"mis": ("independent-set", 30), "maxcut": ("max-cut", 26)}

# bipartitions max_cut scores per numpy block; larger blocks raise peak RSS
CUT_BLOCK = 1 << 13


@dataclass
class SmallGraph:
    """Simple-graph bitmask adjacency plus weighted edges for the cut."""

    n: int
    nbr: list   # nbr[v]: bitmask of neighbors, no self bit
    edges: list  # (u, v, multiplicity) with u < v

    def __post_init__(self):
        for v, mask in enumerate(self.nbr):
            if mask >> self.n:
                raise ValueError("neighbor bit out of range")
            if (mask >> v) & 1:
                raise ValueError("self-loop bit not allowed")
        for v in range(self.n):
            for u in _bits(self.nbr[v]):
                if not (self.nbr[u] >> v) & 1:
                    raise ValueError("adjacency must be symmetric")


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def check_order(n: int, problem: str) -> None:
    """Reject an instance too large for the ``problem`` oracle's search."""
    name, limit = LIMITS[problem]
    if n > limit:
        raise ValueError(f"{name} oracle handles n <= {limit}")


def small_graph(vertices, edges) -> SmallGraph:
    """SmallGraph on ``vertices`` (relabelled 0, 1, ... in order) from (u, v)
    edge pairs; loops are dropped, parallel edges become a multiplicity."""
    index = {v: i for i, v in enumerate(vertices)}
    multiplicity: dict = {}
    for u, v in edges:
        if u != v:
            a, b = index[u], index[v]
            key = (a, b) if a < b else (b, a)
            multiplicity[key] = multiplicity.get(key, 0) + 1
    nbr = [0] * len(index)
    for a, b in multiplicity:
        nbr[a] |= 1 << b
        nbr[b] |= 1 << a
    weighted = [(a, b, w) for (a, b), w in sorted(multiplicity.items())]
    return SmallGraph(n=len(index), nbr=nbr, edges=weighted)


def from_multigraph(g: Multigraph) -> SmallGraph:
    return small_graph(range(g.n), g.edges())


def max_independent_set(g: SmallGraph):
    """Exact MIS: (size, sorted vertex list).

    Branches on a highest-remaining-degree vertex (in or out); once every
    remaining degree is <= 1 the instance is a matching plus isolated
    vertices and is solved greedily.  The only bound is the count of
    remaining vertices, which is already enough at n <= 30.
    """
    check_order(g.n, "mis")
    nbr = g.nbr
    best = [-1, 0]

    def solve(avail: int, size: int, chosen: int) -> None:
        if size + avail.bit_count() <= best[0]:
            return
        top, top_deg = -1, -1
        for v in _bits(avail):
            deg = (nbr[v] & avail).bit_count()
            if deg > top_deg:
                top, top_deg = v, deg
        if top_deg <= 1:
            left = avail
            while left:
                low = left & -left
                v = low.bit_length() - 1
                chosen |= low
                size += 1
                left &= ~(low | nbr[v])
            if size > best[0]:
                best[0], best[1] = size, chosen
            return
        bit = 1 << top
        solve(avail & ~(bit | nbr[top]), size + 1, chosen | bit)
        solve(avail & ~bit, size, chosen)

    solve((1 << g.n) - 1, 0, 0)
    return best[0], sorted(_bits(best[1]))


def max_cut(g: SmallGraph):
    """Exact max cut: (weight, side labels with vertex n-1 fixed to 0).

    Scores every bipartition from its definition, CUT_BLOCK per numpy block;
    bit v of x is vertex v's side.  Gray-code order, x = k ^ (k >> 1), and
    keeping the first strict best fix which optimum is the witness.
    """
    check_order(g.n, "maxcut")
    if g.n == 0:
        return 0, []
    total = 1 << (g.n - 1)
    best, best_x = 0, 0
    for start in range(0, total, CUT_BLOCK):
        k = np.arange(start, min(start + CUT_BLOCK, total), dtype=np.int64)
        x = k ^ (k >> 1)
        cut = np.zeros(len(x), dtype=np.int64)
        for u, v, w in g.edges:
            cut += w * ((x >> u ^ x >> v) & 1)
        i = int(np.argmax(cut))
        if cut[i] > best:
            best, best_x = int(cut[i]), int(x[i])
    return best, [(best_x >> v) & 1 for v in range(g.n)]
