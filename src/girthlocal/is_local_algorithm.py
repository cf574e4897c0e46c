"""Round-based contraction algorithm for independent sets.

Works on the survival graph: super-vertices carry two alternative commit
sets (in_set if the super-vertex is ultimately selected, out_set if not),
so every decision about a merged vertex resolves a whole chain of earlier
2-vertex contractions at once.  Deleting a vertex commits its out_set to
the final independent set; selecting commits its in_set.  Each contraction
keeps |in_set| - |out_set| = 1, which is exactly why the final set grows
by one per contraction along the committed chain.

Rounds mirror the degree-evolution integrators: the top occupied degree
class is thinned with a small per-vertex probability, everything above it
goes outright, and the resulting 2-vertices are contracted to exhaustion.
The 4-regular variant instead probes 3-vertices: one whose neighbors are
all 3-vertices is deleted itself, otherwise its highest-degree neighbor
is deleted and the probe vertex gets contracted.
"""
from __future__ import annotations

import collections
from array import array
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config_model import Multigraph
from .is_evolution import DEGREE_CAP

__all__ = [
    "DEGREE_CAP",
    "THIN_PROBABILITY",
    "SurvivalGraph",
    "IsRunResult",
    "run",
    "verify_independent",
]


# Round discretization.  THIN_PROBABILITY thins the top persistent degree
# class; classes above it (and transient dust below the persistence cutoff)
# are deleted outright.  BOOTSTRAP_PROBABILITY seeds the process while no
# class above the base degree has formed yet.  A class is persistent when it
# holds at least PERSISTENCE_FRACTION of the survival count.  A run stops
# once at most STOP_FRACTION of the vertices survive; MAX_ROUNDS only guards
# against a stall (runs at n = 1e5 take a few thousand rounds).
THIN_PROBABILITY = 0.02
BOOTSTRAP_PROBABILITY = 0.002
PERSISTENCE_FRACTION = 0.002
STOP_FRACTION = 1e-3
MAX_ROUNDS = 10 ** 6


@dataclass
class IsRunResult:
    vertices: list
    n: int
    d: int
    seed: object
    rounds: int
    contractions: int

    @property
    def size(self) -> int:
        return len(self.vertices)

    @property
    def ratio(self) -> float:
        return len(self.vertices) / self.n


class SurvivalGraph:
    """Mutable multigraph with per-vertex commit bookkeeping.

    adj[v] lists v's live neighbors in half-edge order, one entry per edge
    end: a loop lists v twice and a parallel edge repeats.  deg (an int64
    array) and alive (a 0/1 bytearray) hold Python ints for the rules and
    are read as numpy arrays, without copies, by the class scans;
    counts[k] is the number of live vertices of degree k, kept up to date
    wherever a degree changes.  Commit sets are cons trees
    (None | original id | (left, right)) so a merge is O(1); they are
    flattened only when committed.
    """

    def __init__(self, g: Multigraph):
        self.n = g.n
        self.adj = g.neighbor_lists()
        degrees = g.degrees().astype(np.int64)
        self.deg = array("q", degrees.tobytes())
        self.alive = bytearray(b"\x01") * g.n
        self.counts: list = np.bincount(degrees).tolist()
        self.in_tree: list = list(range(g.n))
        self.out_tree: list = [None] * g.n
        self.survival_count = g.n
        self.selected: list = []
        self.contractions = 0
        self.queue: collections.deque = collections.deque(
            np.flatnonzero(degrees <= 2).tolist())

    def scan(self, op, k: int) -> np.ndarray:
        """Live ids, ascending, whose degree passes the numpy comparison
        `op` against k: one vectorised pass over views of deg and alive."""
        deg = np.frombuffer(self.deg, np.int64)
        return np.flatnonzero(np.frombuffer(self.alive, np.bool_) & op(deg, k))

    # -- commit bookkeeping ------------------------------------------------

    def _flatten(self, tree) -> list:
        out = []
        stack = [tree]
        while stack:
            node = stack.pop()
            if node is None:
                continue
            if isinstance(node, tuple):
                stack.extend(node)
            else:
                out.append(node)
        return out

    def _commit(self, tree) -> list:
        vertices = self._flatten(tree)
        self.selected.extend(vertices)
        return vertices

    # -- elementary mutations ----------------------------------------------

    def _drop_vertex(self, v: int) -> None:
        """Remove v and its live edges, decrementing live neighbors."""
        adj, deg, counts = self.adj, self.deg, self.counts
        for u in adj[v]:
            if u != v:
                adj[u].remove(v)
                du = deg[u]
                deg[u] = du - 1
                counts[du] -= 1
                counts[du - 1] += 1
                if du <= 3:
                    self.queue.append(u)
        counts[deg[v]] -= 1
        self.alive[v] = 0
        self.adj[v] = []
        self.survival_count -= 1

    def delete(self, v: int) -> list:
        """Rule v out of the set: commits out_set(v), removes v."""
        if not self.alive[v]:
            raise ValueError(f"vertex {v} is not in the survival graph")
        committed = self._commit(self.out_tree[v])
        self._drop_vertex(v)
        return committed

    def _select(self, v: int) -> list:
        """Put v in the set: commits in_set(v), removes v.

        Only valid once nothing live constrains v (degree 0, or its single
        neighbor is deleted by the caller right after).
        """
        committed = self._commit(self.in_tree[v])
        self._drop_vertex(v)
        return committed

    def contract(self, y: int) -> Optional[int]:
        """Contract at the 2-vertex y; returns the merged vertex id if any.

        Degenerate neighborhoods resolve y immediately instead of merging:
        a loop or twin neighbor makes y unconstrained-or-pendant, and
        adjacent neighbors make y simplicial — in every branch the maximum
        independent set drops by exactly one, same as a true merge.
        """
        if not self.alive[y] or self.deg[y] != 2:
            raise ValueError("contract needs a live degree-2 vertex")
        self.contractions += 1
        x, z = self.adj[y]
        if x == y:
            # y's remaining edge is a self-loop: it constrains nothing
            self._select(y)
            return None
        if x == z:
            # both edges lead to the same vertex: y is effectively pendant
            self._select(y)
            self.delete(x)
            return None
        if z in self.adj[x]:
            # neighbors are adjacent: y is simplicial, selecting it is safe
            self._select(y)
            if self.alive[x]:
                self.delete(x)
            if self.alive[z]:
                self.delete(z)
            return None
        # true merge: x absorbs z, y dissolves into the commit trees
        adj, deg, counts = self.adj, self.deg, self.counts
        ax, az = adj[x], adj[z]
        ax.remove(y)
        az.remove(y)
        for w in az:
            if w != z:
                nbrs = adj[w]
                nbrs[nbrs.index(z)] = x
        ax.extend(x if w == z else w for w in az)
        counts[deg[x]] -= 1
        counts[2] -= 1
        counts[deg[z]] -= 1
        dx = deg[x] = len(ax)
        if dx >= len(counts):
            counts.extend([0] * (dx + 1 - len(counts)))
        counts[dx] += 1
        self.in_tree[x] = ((self.in_tree[x], self.in_tree[z]),
                           self.out_tree[y])
        self.out_tree[x] = ((self.out_tree[x], self.out_tree[z]),
                            self.in_tree[y])
        for gone in (y, z):
            self.alive[gone] = 0
            adj[gone] = []
        self.survival_count -= 2
        if dx <= 2:
            self.queue.append(x)
        return x

    # -- cascade -----------------------------------------------------------

    def settle(self) -> None:
        """Resolve all 0/1/2-degree vertices until none remain."""
        while self.queue:
            v = self.queue.popleft()
            if not self.alive[v]:
                continue
            dv = self.deg[v]
            if dv > 2:
                continue
            if dv == 0:
                self._select(v)
            elif dv == 1:
                u = self.adj[v][0]
                self._select(v)
                if self.alive[u]:
                    self.delete(u)
            else:
                merged = self.contract(v)
                if merged is not None and self.alive[merged] \
                        and self.deg[merged] > DEGREE_CAP:
                    self.delete(merged)

    def live_edges(self) -> list:
        """Each live edge once as (u, w) with u <= w, loops included."""
        out = []
        for u, nbrs in enumerate(self.adj):
            out += [(u, w) for w in nbrs if u < w]
            out += [(u, u)] * (nbrs.count(u) // 2)
        return out

    def survivors(self) -> list:
        return np.flatnonzero(np.frombuffer(self.alive, np.bool_)).tolist()


def _top_persistent(counts, survival: int, fraction: float,
                    floor: int) -> Optional[int]:
    """Highest degree class above `floor` that is more than dust."""
    need = max(1, int(round(fraction * survival)))
    for d in range(len(counts) - 1, floor, -1):
        if counts[d] >= need:
            return d
    return None


def run(graph: Multigraph, d: int, seed=None,
        thin_probability: float = THIN_PROBABILITY) -> IsRunResult:
    """Run the full round process; returns the committed independent set."""
    if d not in (3, 4):
        raise ValueError("only 3- and 4-regular graphs are supported")
    if not np.all(graph.degrees() == d):
        raise ValueError(f"input graph is not {d}-regular")
    if not 0.0 <= thin_probability <= 1.0:
        raise ValueError("thin_probability must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    g = SurvivalGraph(graph)
    stop_at = STOP_FRACTION * graph.n
    # thinning acts on persistent classes above this; d = 4 probes its
    # classes 3-5 instead
    floor = 3 if d == 3 else 5
    rounds = 0
    g.settle()
    while g.survival_count > stop_at and rounds < MAX_ROUNDS:
        before = g.survival_count
        top = _top_persistent(g.counts, before, PERSISTENCE_FRACTION, floor)
        if top is not None:
            _delete_class_and_above(g, rng, top, thin_probability)
        elif d == 4 and g.counts[3]:
            _probe_round(g, rng, thin_probability)
        else:
            # nothing persistent to thin and nothing to probe: bootstrap
            _delete_class_and_above(g, rng, d, BOOTSTRAP_PROBABILITY)
        g.settle()
        if g.survival_count == before:
            _force_progress(g, rng)
            g.settle()
        rounds += 1
    for v in g.survivors():
        g._commit(g.out_tree[v])
    return IsRunResult(vertices=sorted(g.selected), n=graph.n, d=d,
                       seed=seed, rounds=rounds,
                       contractions=g.contractions)


def _delete_class_and_above(g: SurvivalGraph, rng, top: int,
                            probability: float) -> None:
    # both scans and the draw see the graph before any deletion
    outright = []
    if any(g.counts[top + 1:]):
        outright = g.scan(np.greater, top).tolist()
    members = g.scan(np.equal, top)
    marked = members[rng.random(members.shape[0]) < probability].tolist()
    for v in outright:
        g.delete(v)
    for v in marked:
        if g.alive[v]:
            g.delete(v)


def _probe_round(g: SurvivalGraph, rng, probability: float) -> None:
    """4-regular variant: probe marked 3-vertices one at a time."""
    if any(g.counts[6:]):
        for v in g.scan(np.greater, 5).tolist():
            g.delete(v)
    members = g.scan(np.equal, 3)
    marked = members[rng.random(members.shape[0]) < probability].tolist()
    deg = g.deg
    for v in marked:
        if not g.alive[v] or deg[v] != 3:
            continue
        nbrs = g.adj[v]
        degs = [deg[u] for u in nbrs]
        if max(degs) == 3:
            g.delete(v)
        else:
            best = max(degs)
            target = min(u for u, dg in zip(nbrs, degs) if dg == best)
            g.delete(target)  # v drops to degree 2 and will contract


def _force_progress(g: SurvivalGraph, rng) -> None:
    top = max(k for k, c in enumerate(g.counts) if c)
    g.delete(int(rng.choice(g.scan(np.equal, top))))


def verify_independent(graph: Multigraph, vertices) -> bool:
    """True iff the ids are distinct vertices of the graph and no non-loop
    edge has both endpoints in the set."""
    ids = np.fromiter(vertices, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= graph.n):
        return False
    chosen = np.zeros(graph.n, dtype=bool)
    chosen[ids] = True
    if np.count_nonzero(chosen) != ids.size:
        return False  # a repeated id
    u, w = graph.owner, graph.owner[graph.pair]
    return not np.any(chosen[u] & chosen[w] & (u != w))
