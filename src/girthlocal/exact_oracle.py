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

# max_cut's low vertices, whose 2**LOW_BITS settings form one numpy row
LOW_BITS = 13


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


def _matching_bound(nbr, avail: int) -> int:
    """Upper bound on the independence number of the subgraph induced by
    ``avail``: |avail| minus a greedy maximal matching, since each matched
    pair holds at most one member."""
    bound = 0
    left = avail
    while left:
        low = left & -left
        left ^= low
        bound += 1
        mate = nbr[low.bit_length() - 1] & left
        left ^= mate & -mate
    return bound


def max_independent_set(g: SmallGraph):
    """Exact MIS: (size, sorted vertex list).

    Branches on a highest-remaining-degree vertex (in or out); once every
    remaining degree is <= 1 the instance is a matching plus isolated
    vertices and is solved greedily.  A subtree is pruned when its size
    plus ``_matching_bound`` of the remaining vertices cannot beat the
    best found; as only subtrees that cannot strictly improve are cut, the
    first optimum found, the witness, is the one the full search finds.
    """
    check_order(g.n, "mis")
    nbr = g.nbr
    best = [-1, 0]

    def solve(avail: int, size: int, chosen: int) -> None:
        if size + _matching_bound(nbr, avail) <= best[0]:
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

    Bit v of x is vertex v's side, and bipartitions are taken in Gray-code
    order, x = k ^ (k >> 1) for k < 2**(n-1); the first strict best in that
    order is the witness.  The first a = min(n-1, LOW_BITS) vertices are
    low, the other free ones high.  ``row`` holds the cut of every low
    setting x_low = kL ^ (kL >> 1) under the current high setting: row 0 is
    scored from the definition, and each step kH of the Gray walk over the
    high bits flips one high vertex, which adds or subtracts its precomputed
    ``gain`` against the low vertices to the row and moves the scalar cut
    among the high vertices and n-1.  Under an odd kH the full order takes
    the row backwards, so the argmax runs over the reversed row.
    """
    check_order(g.n, "maxcut")
    if g.n == 0:
        return 0, []
    a = min(g.n - 1, LOW_BITS)
    h = g.n - 1 - a
    k = np.arange(1 << a, dtype=np.int64)
    x = k ^ (k >> 1)
    row = np.zeros(len(x), dtype=np.int64)
    for u, v, w in g.edges:
        row += w * ((x >> u ^ x >> v) & 1)
    # gain[j]: the row's change when high vertex a+j leaves side 0;
    # high[j]: its edges to the other high vertices and to n-1
    gain = np.zeros((h, len(x)), dtype=np.int64)
    high = [[] for _ in range(h)]
    for u, v, w in g.edges:
        for t, o in ((u, v), (v, u)):
            if a <= t < g.n - 1:
                if o < a:
                    gain[t - a] += w * (1 - 2 * ((x >> o) & 1))
                else:
                    high[t - a].append((o - a, w))
    best, best_x = 0, 0
    xh, cut_high = 0, 0   # high sides (bit j is vertex a+j), their cut
    last = len(x) - 1
    for kh in range(1 << h):
        if kh:
            j = (kh & -kh).bit_length() - 1
            side = (xh >> j) & 1
            if side:
                row -= gain[j]
            else:
                row += gain[j]
            for o, w in high[j]:
                cut_high += w * (1 - 2 * (side ^ ((xh >> o) & 1)))
            xh ^= 1 << j
        if kh & 1:
            i = last - int(np.argmax(row[::-1]))
        else:
            i = int(np.argmax(row))
        cut = int(row[i]) + cut_high
        if cut > best:
            best, best_x = cut, int(x[i]) | xh << a
    return best, [(best_x >> v) & 1 for v in range(g.n)]
