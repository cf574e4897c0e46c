"""Round-based contraction algorithm for independent sets.

Works on the survival graph.  Contracting a 2-vertex y with neighbors x
and z folds the three into one super-vertex that keeps x's id: whatever
is later decided for x, z takes the same decision and y the opposite one.
So the maximum independent set drops by exactly one per merge, and one
decision byte per vertex (undecided, in, out) plus a log of the merges is
all the bookkeeping the fold needs.  Deleting a vertex marks it out,
selecting it marks it in, and a run goes on until none is left in the
graph; the log is then read once, backwards, so each merge finds its x
decided by the later events before it decides y and z.

Rounds mirror the degree-evolution integrators: the top occupied degree
class is thinned with a small per-vertex probability, everything above it
goes outright, and the resulting 2-vertices are contracted to exhaustion.
The 4-regular variant instead probes 3-vertices: one whose neighbors are
all 3-vertices is deleted itself, otherwise its highest-degree neighbor
is deleted and the probe vertex gets contracted.  With neither to do, a
round deletes everything above degree d, with no draw.
"""
from __future__ import annotations

import collections
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import _kernels
from .config_model import Multigraph
from .is_evolution import DEGREE_CAP

__all__ = [
    "DEGREE_CAP",
    "IN",
    "OUT",
    "THIN_PROBABILITY",
    "UNDECIDED",
    "SurvivalGraph",
    "IsRunResult",
    "run",
    "verify_independent",
]


# Round discretization.  THIN_PROBABILITY thins the top persistent degree
# class; classes above it (and transient dust below the persistence cutoff)
# are deleted outright.  A class is persistent when it holds at least
# PERSISTENCE_FRACTION of the survival count.
THIN_PROBABILITY = 0.02
PERSISTENCE_FRACTION = 0.002

# the values of a vertex's decision byte
UNDECIDED, IN, OUT = 0, 1, 2


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
    """Mutable multigraph with one decision byte per original vertex.

    adj[v] lists v's live neighbors in half-edge order, one entry per edge
    end: a loop lists v twice and a parallel edge repeats.  deg (an int64
    array) and alive (a 0/1 bytearray) hold Python ints for the rules and
    are read as numpy arrays, without copies, by ``scan``; a dead vertex
    keeps the degree it died with.  counts[k] is the number of live
    vertices of degree k, kept up to date wherever a degree changes.
    status (a bytearray) holds each vertex's decision, UNDECIDED until it
    leaves the graph by a delete (OUT) or a select (IN), or until
    unfold_merges; merges logs each true merge (x, y, z), read by
    unfold_merges.  Deciding one vertex twice is an AssertionError.

    An event kills only the vertices it names: a delete or select its
    argument, a merge y and z.  So a vertex a rule has just read off a live
    list is still alive when the rule acts on it, and the rules test no
    liveness; ``delete`` still refuses a dead vertex.

    The methods below are the reference semantics.  run() hands the whole
    run, its round ladder included, to ``_kernels.IsEngine`` (the same
    rules in C, over deg, alive, counts and status, with neighbour lists of
    int32 ids and one bit set per degree class of its own, the sets read in
    ascending order for the scans) when the C kernels are built, and runs
    these methods under ``_drive`` otherwise; tests pin the two to the same
    set, rounds, contractions and random stream.
    """

    def __init__(self, g: Multigraph):
        self.n = g.n
        self.graph = g
        degrees = g.degrees().astype(np.int64)
        self.deg = array("q", degrees.tobytes())
        self.alive = bytearray(b"\x01") * g.n
        # room for every degree settle lets arise: a merge adds two degrees
        # of at most `top`, less 2, and a merged vertex above DEGREE_CAP is
        # deleted at once
        top = max(DEGREE_CAP, int(degrees.max(initial=0)))
        self.counts = array("q", np.bincount(
            degrees, minlength=2 * top - 1).tobytes())
        self.survival_count = g.n
        self.status = bytearray(g.n)
        self.merges: list = []
        self.contractions = 0
        self.queue: collections.deque = collections.deque(
            np.flatnonzero(degrees <= 2).tolist())

    # the per-vertex lists only the Python methods use, built on first use
    # so that a run in C never holds them

    @cached_property
    def adj(self) -> list:
        return self.graph.neighbor_lists()

    def scan(self, lo: int, hi: int) -> np.ndarray:
        """Live ids, ascending, of degree lo..hi: one numpy mask over views
        of deg and alive."""
        deg = np.frombuffer(self.deg, np.int64)
        return np.flatnonzero(np.frombuffer(self.alive, np.bool_)
                              & (lo <= deg) & (deg <= hi))

    # -- elementary mutations ----------------------------------------------

    def _decide(self, v: int, decision: int) -> None:
        if self.status[v] != UNDECIDED:
            raise AssertionError(f"vertex {v} decided twice")
        self.status[v] = decision

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

    def delete(self, v: int) -> None:
        """Rule v out of the set: marks it out, removes v."""
        if not self.alive[v]:
            raise ValueError(f"vertex {v} is not in the survival graph")
        self._decide(v, OUT)
        self._drop_vertex(v)

    def _select(self, v: int) -> None:
        """Put v in the set: marks it in, removes v.

        Only valid once nothing live constrains v (degree 0, or its single
        neighbor is deleted by the caller right after).
        """
        self._decide(v, IN)
        self._drop_vertex(v)

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
            self.delete(x)
            self.delete(z)
            return None
        # true merge: x absorbs z and y, which unfold_merges decides
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
        # counts has room for every degree settle lets arise
        assert dx < len(counts), "degree histogram overflow"
        counts[dx] += 1
        self.merges.append((x, y, z))
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
                self.delete(u)
            else:
                merged = self.contract(v)
                if merged is not None and self.deg[merged] > DEGREE_CAP:
                    self.delete(merged)

    # -- the per-round events -------------------------------------------------

    def deletes(self, ids: np.ndarray) -> None:
        """delete() each vertex (int array), in order."""
        for v in ids.tolist():
            self.delete(v)

    def delete_above(self, k: int) -> None:
        """deletes() every live vertex above class k."""
        if any(self.counts[k + 1:]):
            self.deletes(self.scan(k + 1, len(self.counts) - 1))

    def thin(self, rng, top: int, probability: float) -> None:
        """One thinning round: every live vertex above class top is
        deleted, then each member of class top with the given probability.

        Both scans and the draw see the graph before any deletion; a delete
        kills only its argument, so every marked vertex is still alive when
        its turn comes.
        """
        members = self.scan(top, top)
        marked = members[rng.random(members.shape[0]) < probability]
        self.delete_above(top)
        self.deletes(marked)

    def probe_round(self, rng, probability: float) -> None:
        """4-regular round: every live vertex above class 5 is deleted;
        then each 3-vertex is marked with the given probability and probed,
        in order: one whose neighbors all have degree 3 is deleted itself,
        otherwise its lowest-id neighbor of the highest degree is (the
        probe vertex then drops to degree 2 and contracts in the settle
        after the round).

        Degrees only fall during the probes.  So a target of degree above 3
        is never a marked vertex, and a marked vertex deleted as a target
        died at a degree below 3, which it keeps: the degree test alone
        skips every marked vertex that is gone.
        """
        self.delete_above(5)
        members = self.scan(3, 3)
        deg, adj = self.deg, self.adj
        for v in members[rng.random(members.shape[0]) < probability].tolist():
            if deg[v] != 3:
                continue
            nbrs = adj[v]
            degs = [deg[u] for u in nbrs]
            best = max(degs)
            if best == 3:
                self.delete(v)
            else:
                self.delete(min(u for u, dg in zip(nbrs, degs)
                                if dg == best))

    def unfold_merges(self) -> None:
        """Decide the vertices each merge folded away, once no vertex is
        left in the graph: z as x, y the opposite.  The log is read
        backwards, so a vertex that was a later merge's y or z is decided
        before its own merges are read.  Every vertex is decided after
        this."""
        if self.survival_count:
            raise AssertionError("a vertex is still in the graph")
        status = self.status
        for x, y, z in reversed(self.merges):
            self._decide(z, status[x])
            self._decide(y, IN + OUT - status[x])
        if UNDECIDED in status:
            raise AssertionError("a vertex was left undecided")

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
    if _kernels.BACKEND == "c":
        with _kernels.IsEngine(g, DEGREE_CAP) as engine:
            rounds = engine.run(rng, d, thin_probability,
                                PERSISTENCE_FRACTION)
    else:
        rounds = _drive(g, rng, d, thin_probability)
    vertices = np.flatnonzero(np.frombuffer(g.status, np.uint8) == IN)
    return IsRunResult(vertices=vertices.tolist(), n=graph.n, d=d, seed=seed,
                       rounds=rounds, contractions=g.contractions)


def _drive(g: SurvivalGraph, rng, d: int, thin_probability: float) -> int:
    """The round ladder on g's Python methods; returns the rounds run.  It
    is the reference of the C engine's ``IsEngine.run``, which restates it
    whole in one call.  Each round's kind and class come from the degree
    histogram; a round draws its marks from rng over the ascending members
    of its class, then settles.  The rounds go on until no vertex is left
    and need no cap: after one that removes no vertex, one member of the
    top non-empty class is deleted, drawn by ``rng.choice``, so each round
    lowers the survival count and a run ends within n rounds.  At
    thin_probability 0 no round marks a vertex: a 3-regular run is then the
    sequential process of the no-correction is3 evolution."""
    # thinning acts on persistent classes above this; d = 4 probes its
    # classes 3-5 instead
    floor = 3 if d == 3 else 5
    rounds = 0
    while g.survival_count:
        before = g.survival_count
        top = _top_persistent(g.counts, before, PERSISTENCE_FRACTION, floor)
        if top is not None:
            g.thin(rng, top, thin_probability)
        elif d == 4 and g.counts[3]:
            g.probe_round(rng, thin_probability)
        else:
            g.delete_above(d)
        g.settle()
        if g.survival_count == before:
            top = max(k for k, c in enumerate(g.counts) if c)
            g.delete(int(rng.choice(g.scan(top, top))))
            g.settle()
        rounds += 1
    g.unfold_merges()
    return rounds


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
