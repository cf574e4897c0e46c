"""Red/green/white cut process on 3-regular multigraphs.

Every vertex ends red or green; an edge is good when its endpoints differ.
Survival vertices accumulate labels from decided neighbors and sit on path
components; the action table commits a vertex the moment its labels force a
majority, turns exact ties white (color deferred, anti its reference), and
keeps every survival component a path.

White bookkeeping uses explicit parity bits instead of re-coloring walks: a
path edge (u, x) with parity bit p stands for a real graph edge that is good
exactly when f(u) ^ f(x) == 1 ^ p.  Eliminating a white between two path
neighbors joins them with parity 1^pa^pb and banks one good edge; the
three-in-a-row reduction banks three good and one bad and aliases its two
absorbed vertices to the survivor.  Edges whose bookkeeping cannot be
settled locally (both endpoints undecided, cycle-closing edges, edges
anchored at an absorbed vertex) are deferred and counted at resolution
time, so the run ends with every edge counted.  ``count_cut`` recounts the
final coloring from the graph; it must reproduce the incremental counters
exactly, which is the end-to-end check on all of this.

The rules read colors only through R/G label comparisons and parity XORs,
so they are symmetric in the two colors: witnesses use one convention
(ties, the first bootstrap vertex and pinned pending cycles go red), and
flipping R/G gives the other.

Invariant (P): every survival path component is a simple path.  Only three
places add a path edge, and each keeps (P): query joins v and x only when
pd[x] < 2 and x is not on v's path; eliminate_white joins v's two path
neighbors, which lie on opposite sides of v; reduce_rrr links s1 to the
vertex that lay beyond s3 on the same path.  The rules lean on (P) instead
of re-checking it: v's two path neighbors are distinct, and eliminating a
white never closes a cycle.
"""
from __future__ import annotations

import heapq
from array import array
from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from .config_model import Multigraph

__all__ = ["QUERY_PROBABILITY", "CutResult", "CutProcess", "count_cut",
           "run_cut"]

RED, GREEN = 0, 1

# Round discretization: each round queries a lone vertex with
# QUERY_PROBABILITY.  The rounds go on while more than ENDGAME_FLOOR
# vertices survive, and the endgame colors the rest by majority.
QUERY_PROBABILITY = 0.02
ENDGAME_FLOOR = 64


@dataclass
class CutResult:
    """Final coloring with the run's incremental good/bad counters;
    ``count_cut`` recounts them from the coloring."""

    colors: np.ndarray
    good: int
    bad: int
    n: int
    seed: object
    rounds: int

    @property
    def ratio(self) -> float:
        return self.good / self.n


class CutProcess:
    """One run's mutable state; a fresh process runs whole with run().

    The methods below are the reference semantics.  A run takes one of two
    paths: one ``_kernels.cut_run`` call (the same rules and round schedule
    in C, over this object's counter buffers, with no event exported on
    its own) when the C kernels are built, else ``_drive`` on these
    methods; tests pin the two to the same colouring, counters and random
    stream.
    """

    def __init__(self, graph: Multigraph, seed=None,
                 query_probability: float = QUERY_PROBABILITY):
        if not np.all(graph.degrees() == 3):
            raise ValueError("cut process needs a 3-regular graph")
        if not 0.0 <= query_probability <= 1.0:
            raise ValueError("query_probability must lie in [0, 1]")
        n = graph.n
        self.n = n
        self.seed = seed
        self.query_probability = query_probability
        self.rng = np.random.default_rng(seed)
        self.graph = graph
        self.owner = graph.owner
        self.pair = graph.pair
        self.revealed = bytearray(self.pair.shape[0])
        # per-vertex counters: labels (cd = nR+nG+nW+nD) and path degree;
        # the round scan reads them through numpy views.  A vertex's open
        # half-edges are the unrevealed ones of its slot list
        self.status = bytearray(n)  # 0 survival 1 done 2 white
        self.f = array("b", [-1]) * n
        self.nR = bytearray(n)
        self.nG = bytearray(n)
        self.nW = bytearray(n)
        self.nD = bytearray(n)
        self.pd = bytearray(n)  # len(path[v]), for the round scan
        # open-slot inheritance: alias[v] = v at the start
        self.alias = array("i", np.arange(n, dtype=np.int32).tobytes())
        self.wmark: dict = {}  # v -> (who whitened at v last, its parity)
        # pending colors, oldest first: v -> (target, bit, free) with
        # f[v] = f[target] ^ bit (target -1: f[v] = bit).  free marks
        # constraints no counted edge depends on yet; the first reveal that
        # meets such a vertex re-points the constraint against the revealer
        # so their shared edge lands good.
        self.pending: dict = {}
        self.deferred: list = []   # (u, w, p): good iff f[u]^f[w] == 1^p
        self.good = 0
        self.bad = 0
        self.survival = n
        self.queue: deque = deque()
        self.heap: list = []  # pattern-scan candidates, each at most once
        self.rounds = 0

    # the per-vertex lists only the Python methods use, built on first use
    # so that a run in C never holds them

    @cached_property
    def slots(self) -> list:
        """Each vertex's half-edges; reduce_rrr appends absorbed ones."""
        return self.graph.slot_lists()

    @cached_property
    def path(self) -> list:
        """Each vertex's (neighbor, edge parity) path edges, at most two."""
        return [[] for _ in range(self.n)]

    @cached_property
    def in_heap(self) -> bytearray:
        """1 for the vertices in the heap."""
        return bytearray(self.n)

    # -- small helpers ------------------------------------------------------

    def _cd(self, v: int) -> int:
        return self.nR[v] + self.nG[v] + self.nW[v] + self.nD[v]

    def _dirty(self, v: int) -> None:
        if self.status[v] == 0 and not self.in_heap[v]:
            self.in_heap[v] = 1
            heapq.heappush(self.heap, v)

    def _dirty_area(self, v: int) -> None:
        self._dirty(v)
        for x, _ in self.path[v]:
            self._dirty(x)

    def _wake(self, x: int) -> None:
        self.queue.append(x)
        self._dirty_area(x)

    def _holder(self, v: int) -> int:
        alias = self.alias
        while alias[v] != v:
            alias[v] = alias[alias[v]]
            v = alias[v]
        return v

    def _set_pending(self, v: int, target: int, bit: int,
                     free: bool = False) -> None:
        self.pending[v] = (target, bit, free)  # a re-pend keeps v's age

    def _oppose(self, x: int, v: int) -> None:
        """Re-point x's still-free pending color against v."""
        pend = self.pending.get(x)
        if pend is not None and pend[2]:
            self.pending[x] = (v, 1, False)

    def _wake_holder(self, x: int) -> None:
        h = self._holder(x)
        if self.status[h] == 0:
            self._wake(h)

    def _mark_white(self, x: int, src: int, bit: int) -> None:
        """x takes a white label from src, counted under parity bit."""
        self.nW[x] += 1
        self.wmark[x] = (src, bit)

    def _pend_against(self, v: int, a: int, bit: int) -> None:
        """White v banks its edge to a as good: f[v] = f[a] ^ bit, and a
        takes the white label."""
        self.good += 1
        self._set_pending(v, a, bit)
        self._mark_white(a, v, bit)

    def _pend_on_path_end(self, v: int) -> None:
        """White v opposes its last path neighbor across their path edge."""
        a = self.path[v][0][0]
        parity = self._remove_path_slot(v, a)
        self._remove_path_slot(a, v)
        self._pend_against(v, a, 1 ^ parity)
        self._wake(a)

    def _majority(self, v: int, tie: int) -> int:
        """The color anti v's R/G label majority; ``tie`` on a tie."""
        if self.nR[v] > self.nG[v]:
            return GREEN
        if self.nG[v] > self.nR[v]:
            return RED
        return tie

    def _unrevealed(self, v: int) -> list:
        return [h for h in self.slots[v] if not self.revealed[h]]

    def _give_label(self, x: int, color: int) -> None:
        if color == RED:
            self.nR[x] += 1
        else:
            self.nG[x] += 1
        self._wake(x)

    def _add_path_slot(self, x: int, y: int, parity: int) -> None:
        self.path[x].append((y, parity))
        self.pd[x] += 1

    def _path_index(self, x: int, y: int) -> int:
        """Index of x's first path slot pointing at y."""
        for i, (w, _) in enumerate(self.path[x]):
            if w == y:
                return i
        raise AssertionError("path slot bookkeeping out of sync")

    def _remove_path_slot(self, x: int, y: int) -> int:
        """Drop one of x's slots pointing at y; returns its parity."""
        _, parity = self.path[x].pop(self._path_index(x, y))
        self.pd[x] -= 1
        return parity

    def _replace_path_slot(self, x: int, old: int, new: int,
                           parity: int) -> None:
        self.path[x][self._path_index(x, old)] = (new, parity)

    def _connected(self, a: int, b: int) -> bool:
        """Are the distinct vertices a and b on one survival path?"""
        for first, _ in self.path[a]:
            prev, cur = a, first
            steps = 0
            while cur != -1:
                if cur == b:
                    return True
                steps += 1
                # a walk longer than any path means (P) broke
                assert steps <= self.survival + 2, "path component is a cycle"
                nxt = -1
                for w, _ in self.path[cur]:
                    if w != prev:
                        nxt = w
                        break
                prev, cur = cur, nxt
        return False

    def _reveal(self, v: int, h: int):
        """Reveal slot h held by v.  Returns ("live", x) when the edge is
        v's own and the partner x is survival (caller settles it).  Other
        kinds were handled here as far as counting goes: "loop" (self-loop,
        one bad edge), "inherited" (the real edge belongs to an absorbed
        vertex; deferred), "dead" (partner already has a pending color;
        deferred, caller may still chain off x)."""
        k = int(self.pair[h])
        self.revealed[h] = 1
        self.revealed[k] = 1
        u = int(self.owner[h])
        x = int(self.owner[k])
        if u == x:
            # an absorbed vertex passes on at most one of its own
            # half-edges, so a self-loop is never inherited
            assert u == v, "inherited both ends of a self-loop"
            self.bad += 1  # a self-loop is monochromatic whatever happens
            return "loop", -1
        assert self.status[x] != 1, "a committed vertex kept an open slot"
        if u != v:
            # inherited slot: the real edge belongs to an absorbed vertex
            self.deferred.append((u, x, 0))
            self._oppose(u, x)
            self.nD[v] += 1
            if self.status[x] == 0:
                self.nD[x] += 1
                self._wake(x)
            else:
                self._oppose(x, u)
                self._wake_holder(x)
            return "inherited", x
        if self.status[x] == 2:
            self.deferred.append((v, x, 0))
            self._oppose(x, v)
            self._wake_holder(x)
            return "dead", x
        return "live", x

    # -- decisions ----------------------------------------------------------

    def commit(self, v: int, color: int) -> None:
        """Fix v's final color; count labeled edges, notify neighbors."""
        assert self.status[v] == 0
        self.status[v] = 1
        self.f[v] = color
        self.survival -= 1
        if color == GREEN:
            self.good += self.nR[v]
            self.bad += self.nG[v]
        else:
            self.good += self.nG[v]
            self.bad += self.nR[v]
        while self.pd[v]:
            x = self.path[v][0][0]
            parity = self._remove_path_slot(v, x)
            self._remove_path_slot(x, v)
            self._give_label(x, color ^ parity)
        for h in self._unrevealed(v):
            if self.revealed[h]:
                continue  # its partner was an earlier slot of this loop
            kind, x = self._reveal(v, h)
            if kind == "live":
                self._give_label(x, color)

    def whiten(self, v: int) -> None:
        """Tie vertex goes white: anti its unique reference edge."""
        assert self.status[v] == 0
        if self.nR[v] == 1 and self.nG[v] == 1:
            self.good += 1
            self.bad += 1
        self.status[v] = 2
        self.survival -= 1
        if self.pd[v] == 1:
            self._pend_on_path_end(v)
        elif not self._unrevealed(v):
            # every other edge was already consumed (loops, absorbed pairs)
            self._set_pending(v, -1, RED, free=True)
        else:
            kind, x = self._reveal(v, self._unrevealed(v)[0])
            if kind == "live":
                self._pend_against(v, x, 1)
                self._wake(x)
            elif kind == "dead":
                # the reference chains through another pending vertex; the
                # deferred pair banks the edge once colors resolve
                self._set_pending(v, x, 1)
            else:
                self._set_pending(v, -1, RED, free=True)

    def eliminate_white(self, v: int) -> None:
        """Remove a [W] vertex; its pending color opposes one neighbor.

        Only path edges are touched.  Any open half-edges v still holds are
        left unrevealed: whoever meets them later finds a vertex whose color
        is already pending and defers the pair, so the count stays exact
        without v recruiting anyone new.
        """
        assert self.status[v] == 0 and self.nW[v] == 1
        assert self.nR[v] + self.nG[v] + self.nD[v] == 0
        self.status[v] = 2
        self.survival -= 1
        if self.pd[v] == 2:
            # by (P), joining v's two path neighbors keeps a path
            (a, pa_), (b, pb) = self.path[v]
            self.good += 1
            self._set_pending(v, a, 1 ^ pa_)
            joined = 1 ^ pa_ ^ pb
            self._replace_path_slot(a, v, b, joined)
            self._replace_path_slot(b, v, a, joined)
            self._wake(a)
            self._wake(b)
        elif self.pd[v] == 1:
            self._pend_on_path_end(v)
        else:
            # no survival edge left to oppose right now: chain off the white
            # that marked v, with the parity that mark was counted under, so
            # the two constraints agree.  The chain stays free: the first
            # vertex to reveal one of v's remaining edges re-points it.
            # nW[v] == 1, so _mark_white has set the mark.
            w, bit = self.wmark[v]
            self._set_pending(v, w, bit, free=True)
        self.path[v].clear()
        self.pd[v] = 0

    def reduce_rrr(self, s1: int, s2: int, s3: int) -> None:
        """Three same-aligned labeled path vertices collapse onto s1.

        Banks three good edges and one bad (which of the two absorbed label
        edges is the bad one depends on s1's eventual color, but the split
        is one-and-one either way).
        """
        p12 = self._remove_path_slot(s2, s1)
        self._remove_path_slot(s1, s2)
        p23 = self._remove_path_slot(s2, s3)
        self._remove_path_slot(s3, s2)
        self.good += 3
        self.bad += 1
        self._set_pending(s2, s1, 1 ^ p12)
        self._set_pending(s3, s1, p12 ^ p23)
        for gone in (s2, s3):
            self.status[gone] = 2
            self.survival -= 1
        if self.pd[s3]:
            t = self.path[s3][0][0]
            p3t = self._remove_path_slot(s3, t)
            carried = p12 ^ p23 ^ p3t
            self._replace_path_slot(t, s3, s1, carried)
            self._add_path_slot(s1, t, carried)
            self._dirty_area(t)
        elif open_ := self._unrevealed(s3):
            # s3's unrevealed slots now belong (logically) to s1
            self.alias[s3] = s1
            self.slots[s1].extend(open_)
        self._wake(s1)

    def query(self, v: int) -> None:
        """Reveal v's lowest open half-edge and take the partner on board."""
        open_ = self._unrevealed(v)
        assert self.status[v] == 0 and open_
        kind, x = self._reveal(v, open_[0])
        if kind == "dead":
            # the neighbor's color is pending off a white chain, so v is
            # white-adjacent now; the deferred pair carries the edge count
            self._mark_white(v, x, 1)
            self._wake(v)
            return
        if kind != "live":
            self._wake(v)
            return
        if self.pd[x] == 2 or self._connected(v, x):
            # joining would exceed path degree or close a cycle
            self.deferred.append((v, x, 0))
            self.nD[v] += 1
            self.nD[x] += 1
            self._wake(v)
            self._wake(x)
        else:
            self._add_path_slot(v, x, 0)
            self._add_path_slot(x, v, 0)
            self._dirty_area(v)
            self._dirty_area(x)

    # -- the action table ---------------------------------------------------

    def _labels_decide(self, v: int) -> bool:
        """Priority rules 1-3: majority commits, exact ties whiten."""
        cd = self._cd(v)
        if cd >= 2:
            # a tie at cd == 3 has no reference edge left to whiten against
            color = self._majority(v, RED if cd == 3 else -1)
            if color < 0:
                self.whiten(v)
            else:
                self.commit(v, color)
            return True
        if cd == 1 and self.nW[v] == 1:
            self.eliminate_white(v)
            return True
        return False

    def _label_of(self, v: int) -> int:
        """R/G label of a pure single-label vertex, else -1."""
        if self.nW[v] or self.nD[v]:
            return -1
        if self.nR[v] + self.nG[v] != 1:
            return -1
        return RED if self.nR[v] else GREEN

    def _try_patterns(self, v: int) -> bool:
        """Path-shape rules in table order; True if one fired at v."""
        lv = self._label_of(v)
        if lv < 0:
            return False
        # adjacent opposite-aligned labels: both commit anti their labels
        for x, parity in self.path[v]:
            lx = self._label_of(x)
            if lx >= 0 and lv ^ lx ^ parity == 1:
                lead = min(v, x)
                self.commit(lead, 1 ^ self._label_of(lead))
                return True
        # from here on every labeled path neighbor of v is same-aligned
        if self.pd[v] == 2:
            (a, _), (b, _) = self.path[v]
            la, lb = self._label_of(a), self._label_of(b)
            if self._cd(a) == 0 and self._cd(b) == 0:
                # []-[X]-[]: color the middle anti its label
                self.commit(v, 1 ^ lv)
                return True
            for m2, lm, far in ((a, la, b), (b, lb, a)):
                if lm < 0 or self._cd(far) != 0 or self.pd[m2] != 2:
                    continue
                (o0, _), (o1, _) = self.path[m2]
                other = o0 if o0 != v else o1
                if self._cd(other) == 0:
                    # []-[X]-[X]-[]: lower-id middle commits anti its label
                    lead = min(v, m2)
                    self.commit(lead, 1 ^ self._label_of(lead))
                    return True
            if la >= 0 and lb >= 0:
                self.reduce_rrr(min(a, b), v, max(a, b))
                return True
        if self.pd[v] == 1 and self._unrevealed(v):
            self.query(v)  # terminal labeled endpoint extends its path
            return True
        return False

    def closure(self) -> None:
        """Exhaust label decisions first, then path-shape rules.

        The pattern-scan candidates pop lowest id first, and each vertex is
        in the heap at most once: _dirty pushes nothing for a vertex that is
        there already.  A push per _dirty call would pop the same vertices
        in the same order, plus repeats that do nothing.  For every action
        that _labels_decide or _try_patterns takes at v either decides v
        (commit, whiten, eliminate_white, reduce_rrr with v as s2) or wakes
        v again (a path neighbour's commit gives v a label, and query wakes
        or dirties v).  So a repeat of v still waiting after a pop of v
        finds v decided (and is skipped), or finds v pushed again anyway,
        or else follows a pop that took no action: then nothing changed and
        nothing was pushed or queued, so the repeat comes up next and takes
        no action either.  The C engine keeps the same rule."""
        while True:
            if self.queue:
                v = self.queue.popleft()
                if self.status[v] == 0:
                    self._labels_decide(v)
                continue
            if self.heap:
                v = heapq.heappop(self.heap)
                self.in_heap[v] = 0
                if self.status[v] == 0 and not self._labels_decide(v):
                    self._try_patterns(v)
                continue
            break

    # -- the full run -------------------------------------------------------

    def _bootstrap(self) -> None:
        # _drive calls this after each round that removes no survival
        # vertex, so every round lowers the survival count (no cap needed).
        # The first call sees all n (even) vertices, later ones more than
        # ENDGAME_FLOOR; only the empty graph has no pair to draw.  Red and
        # green are ranks among the m ascending survivors, one rng.random()
        # draw each: green's draw is over the m - 1 survivors other than
        # red.  The C engine's run draws the pair as here
        alive = np.flatnonzero(np.frombuffer(self.status, np.uint8) == 0)
        m = alive.shape[0]
        if m == 0:
            return
        red = int(self.rng.random() * m)
        green = int(self.rng.random() * (m - 1))
        green += green >= red
        self.commit(int(alive[red]), RED)
        self.commit(int(alive[green]), GREEN)

    def lones(self) -> np.ndarray:
        """The lone vertices, ascending: survival, no path edge, no white
        or deferred label, exactly one R/G label.

        The scan runs only after ``closure``, which leaves no survival
        vertex with two or more labels and none whose single label is
        white; so ``nR + nG == 1`` already rules out a white or deferred
        label, and ``nW`` and ``nD`` are not read."""
        status, pd, nR, nG = (
            np.frombuffer(c, np.uint8) for c in
            (self.status, self.pd, self.nR, self.nG))
        return np.flatnonzero((status == 0) & (pd == 0) & ((nR + nG) == 1))

    def query_round(self) -> None:
        """One round: each lone vertex is marked with the query
        probability, and each marked vertex that is still a survival vertex
        with an open half-edge is queried, in order; then closure."""
        lones = self.lones()
        marked = lones[self.rng.random(lones.shape[0])
                       < self.query_probability]
        for v in marked.tolist():
            if self.status[v] == 0 and self._unrevealed(v):
                self.query(v)
        self.closure()

    def run(self) -> CutResult:
        """The whole run: in C, one ``_kernels.cut_run`` call, which
        restates ``_drive``; else ``_drive`` on these methods."""
        if _kernels.BACKEND == "c":
            self.rounds += _kernels.cut_run(self, ENDGAME_FLOOR)
        else:
            self._drive()
        return self._result()

    def _drive(self) -> None:
        """The round schedule, the Python backend and the reference of
        ``_kernels.cut_run``.  Rounds go on while more than ENDGAME_FLOOR
        vertices survive; a bootstrap pair is committed before the first
        and after each round that removed no survival vertex, so the
        survival count falls every round.  A round draws its query marks
        from self.rng, one draw per lone vertex in ascending order, and the
        bootstrap its pair, as ``_kernels.cut_run`` draws them, so both
        backends read one random stream."""
        self._bootstrap()
        self.closure()
        while self.survival > ENDGAME_FLOOR:
            before = self.survival
            self.query_round()
            self.rounds += 1
            if self.survival == before:
                self._bootstrap()
                self.closure()
        self.endgame()

    def endgame(self) -> None:
        # last stretch never uses white: survivors take their local majority
        survivors = np.flatnonzero(np.frombuffer(self.status, np.uint8) == 0)
        for v in survivors.tolist():
            if self.status[v] == 0:
                self.commit(v, self._majority(v, RED))
        # any half-edges still unrevealed pair two absorbed open slots
        revealed = np.frombuffer(self.revealed, np.uint8)
        for h in np.flatnonzero(revealed == 0).tolist():
            k = int(self.pair[h])
            if h < k:
                self.revealed[h] = 1
                self.revealed[k] = 1
                u, x = int(self.owner[h]), int(self.owner[k])
                if u == x:
                    self.bad += 1
                else:
                    self.deferred.append((u, x, 0))
                    self._oppose(u, x)
                    self._oppose(x, u)
        self._resolve_pending()
        for u, w, parity in self.deferred:
            if self.f[u] ^ self.f[w] == 1 ^ parity:
                self.good += 1
            else:
                self.bad += 1

    def _resolve_pending(self) -> None:
        """Fix the pending colors in one walk.

        Each unresolved vertex, oldest first, follows its chain of
        references f[v] = f[target] ^ bit to its end: a colored vertex, a
        target -1 (f = bit), or a cycle.  Every uncolored target is pending
        itself: after the endgame only whites and absorbed vertices are
        uncolored, and each got a pending entry when it left survival.  A
        white whose reference was answered by marking the referee back
        gives a mutual cycle; every entry encodes the same constraint, so
        the cycle's oldest member is pinned to red.  Pinning never touches
        a chain vertex, whose constraint carries a counted edge.  The walked
        chain then resolves backwards from where it ended, so each vertex
        is walked once."""
        f = self.f
        pending = self.pending
        age = {v: i for i, v in enumerate(pending)}
        for v in pending:
            if f[v] >= 0:
                continue
            path = [v]
            seen = {v: 0}  # vertex -> index on path
            while True:
                u = path[-1]
                t, bit, _ = pending[u]
                if t == -1:
                    f[u] = bit
                    path.pop()
                    break
                if f[t] >= 0:
                    break
                assert t in pending, "an uncolored target has no constraint"
                if t in seen:
                    m = min(range(seen[t], len(path)),
                            key=lambda i: age[path[i]])
                    f[path[m]] = RED
                    # the pin's predecessors, then the cycle's far side
                    path = path[m + 1:] + path[:m]
                    break
                seen[t] = len(path)
                path.append(t)
            for u in reversed(path):
                t, bit, _ = pending[u]
                f[u] = f[t] ^ bit

    def _result(self) -> CutResult:
        f = np.frombuffer(self.f, np.int8).copy()
        assert np.all(f >= 0), "some vertex was never colored"
        return CutResult(colors=f, good=self.good, bad=self.bad, n=self.n,
                         seed=self.seed, rounds=self.rounds)


def count_cut(graph: Multigraph, colors: np.ndarray) -> tuple:
    """(good, bad) edge counts of a coloring of ``graph``, recounted from
    its half-edges; a self-loop is always bad."""
    # each half-edge against its partner: a good edge counts twice
    fh = colors[graph.owner]
    good = int(np.count_nonzero(fh != fh[graph.pair])) // 2
    return good, graph.pair.shape[0] // 2 - good


def run_cut(graph: Multigraph, **options) -> CutResult:
    """Run the full cut process on a 3-regular multigraph; ``options`` are
    those of :class:`CutProcess`."""
    return CutProcess(graph, **options).run()
