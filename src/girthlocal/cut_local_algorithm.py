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
time, still before the final recount — the recount must then reproduce the
incremental counters exactly, which is the end-to-end check on all of this.
"""
from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

import numpy as np

from .config_model import Multigraph

__all__ = ["QUERY_PROBABILITY", "CutResult", "CutProcess", "run_cut"]

RED, GREEN = 0, 1

# Round discretization: each round queries a lone vertex with
# QUERY_PROBABILITY.  The rounds stop once at most max(ENDGAME_FLOOR,
# STOP_FRACTION * n) vertices survive, and the endgame colors the rest by
# majority; MAX_ROUNDS only guards against a stall.
QUERY_PROBABILITY = 0.02
STOP_FRACTION = 1e-3
ENDGAME_FLOOR = 64
MAX_ROUNDS = 10 ** 6


@dataclass
class CutResult:
    """Final coloring with exact counters (recomputed and incremental)."""

    colors: np.ndarray
    good: int
    bad: int
    incremental_good: int
    incremental_bad: int
    n: int
    seed: object
    rounds: int

    @property
    def ratio(self) -> float:
        return self.good / self.n


class CutProcess:
    """One run's mutable state; drive with run() or the staged methods."""

    def __init__(self, graph: Multigraph, seed=None, swap: bool = False,
                 query_probability: float = QUERY_PROBABILITY):
        if not np.all(graph.degrees() == 3):
            raise ValueError("cut process needs a 3-regular graph")
        if not 0.0 <= query_probability <= 1.0:
            raise ValueError("query_probability must lie in [0, 1]")
        n = graph.n
        self.n = n
        self.seed = seed
        self.swap = 1 if swap else 0
        self.query_probability = query_probability
        self.rng = np.random.default_rng(seed)
        self.owner = graph.owner
        self.pair = graph.pair
        self.slots = graph.slot_lists()
        self.revealed = np.zeros(self.pair.shape[0], dtype=bool)
        # per-vertex classification counters; cd = nR+nG+nW+nD and
        # cd + pd + op == 3 at all times for survival vertices
        self.status = np.zeros(n, dtype=np.int8)  # 0 survival 1 done 2 white
        self.f = np.full(n, -1, dtype=np.int8)
        self.nR = np.zeros(n, dtype=np.int8)
        self.nG = np.zeros(n, dtype=np.int8)
        self.nW = np.zeros(n, dtype=np.int8)
        self.nD = np.zeros(n, dtype=np.int8)
        self.pd = np.zeros(n, dtype=np.int8)
        self.op = np.full(n, 3, dtype=np.int8)
        self.pa = np.full((n, 2), -1, dtype=np.int64)  # path neighbors
        self.pi = np.zeros((n, 2), dtype=np.uint8)     # path edge parities
        self.alias = np.arange(n, dtype=np.int64)  # open-slot inheritance
        self.wsrc = np.full(n, -1, dtype=np.int64)  # who whitened at me last
        self.wbit = np.zeros(n, dtype=np.uint8)     # parity of that mark
        # pending colors: f[v] = f[ptgt[v]] ^ pbit[v] (ptgt -1: f[v] = pbit;
        # -2: no pending).  pfree marks constraints no counted edge depends
        # on yet; the first reveal that meets such a vertex re-points the
        # constraint against the revealer so their shared edge lands good.
        self.ptgt = np.full(n, -2, dtype=np.int64)
        self.pbit = np.zeros(n, dtype=np.uint8)
        self.pfree = np.zeros(n, dtype=bool)
        self.porder = np.full(n, -1, dtype=np.int64)
        self._pseq = 0
        self.deferred: list = []   # (u, w, p): good iff f[u]^f[w] == 1^p
        self.good = 0
        self.bad = 0
        self.survival = n
        self.queue: deque = deque()
        self.heap: list = []  # pattern-scan candidates (lazy duplicates)
        self.rounds = 0

    # -- small helpers ------------------------------------------------------

    def _cd(self, v: int) -> int:
        return int(self.nR[v]) + int(self.nG[v]) + int(self.nW[v]) \
            + int(self.nD[v])

    def _dirty(self, v: int) -> None:
        if self.status[v] == 0:
            heapq.heappush(self.heap, v)

    def _dirty_area(self, v: int) -> None:
        self._dirty(v)
        for i in range(self.pd[v]):
            self._dirty(int(self.pa[v, i]))

    def _wake(self, x: int) -> None:
        self.queue.append(x)
        self._dirty_area(x)

    def _holder(self, v: int) -> int:
        while self.alias[v] != v:
            self.alias[v] = self.alias[self.alias[v]]
            v = int(self.alias[v])
        return v

    def _set_pending(self, v: int, target: int, bit: int,
                     free: bool = False) -> None:
        self.ptgt[v] = target
        self.pbit[v] = bit
        self.pfree[v] = free
        if self.porder[v] < 0:
            self.porder[v] = self._pseq
            self._pseq += 1

    def _oppose(self, x: int, v: int) -> None:
        """Re-point x's still-free pending color against v."""
        if self.ptgt[x] != -2 and self.pfree[x] and x != v:
            self.ptgt[x] = v
            self.pbit[x] = 1
            self.pfree[x] = False

    def _consume_phantom_open(self, x: int) -> None:
        h = self._holder(x)
        if self.status[h] == 0:
            self.op[h] -= 1
            self._wake(h)

    def _mark_white(self, x: int, src: int, bit: int) -> None:
        """x takes a white label from src, counted under parity bit."""
        self.nW[x] += 1
        self.wsrc[x] = src
        self.wbit[x] = bit

    def _pend_against(self, v: int, a: int, bit: int) -> None:
        """White v banks its edge to a as good: f[v] = f[a] ^ bit, and a
        takes the white label."""
        self.good += 1
        self._set_pending(v, a, bit)
        self._mark_white(a, v, bit)

    def _pend_on_path_end(self, v: int) -> None:
        """White v opposes its last path neighbor across their path edge."""
        a = int(self.pa[v, 0])
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
        i = self.pd[x]
        self.pa[x, i] = y
        self.pi[x, i] = parity
        self.pd[x] += 1

    def _remove_path_slot(self, x: int, y: int) -> int:
        """Drop one of x's slots pointing at y; returns its parity."""
        if self.pa[x, 0] == y:
            parity = int(self.pi[x, 0])
            self.pa[x, 0] = self.pa[x, 1]
            self.pi[x, 0] = self.pi[x, 1]
        else:
            assert self.pa[x, 1] == y, "path slot bookkeeping out of sync"
            parity = int(self.pi[x, 1])
        self.pd[x] -= 1
        self.pa[x, self.pd[x]] = -1
        return parity

    def _replace_path_slot(self, x: int, old: int, new: int,
                           parity: int) -> None:
        i = 0 if self.pa[x, 0] == old else 1
        assert self.pa[x, i] == old
        self.pa[x, i] = new
        self.pi[x, i] = parity

    def _connected(self, a: int, b: int, avoid: int = -1) -> bool:
        """Are a and b on one survival path (not passing through avoid)?"""
        if a == b:
            return True
        for i in range(self.pd[a]):
            prev, cur = a, int(self.pa[a, i])
            steps = 0
            while cur != -1 and cur != avoid:
                if cur == b:
                    return True
                steps += 1
                if steps > self.survival + 2:  # defensive: not a path
                    break
                nxt = -1
                for j in range(self.pd[cur]):
                    w = int(self.pa[cur, j])
                    if w != prev and w != avoid:
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
        self.revealed[h] = True
        self.revealed[k] = True
        u = int(self.owner[h])
        x = int(self.owner[k])
        if u == x:
            self.bad += 1  # a self-loop is monochromatic whatever happens
            if u == v:
                self.op[v] -= 2
            else:
                self._consume_phantom_open(u)
                self._consume_phantom_open(u)
            return "loop", -1
        assert self.status[x] != 1, "a committed vertex kept an open slot"
        if u != v:
            # inherited slot: the real edge belongs to an absorbed vertex
            self.deferred.append((u, x, 0))
            self._oppose(u, x)
            self.nD[v] += 1
            self.op[v] -= 1
            if self.status[x] == 0:
                self.nD[x] += 1
                self.op[x] -= 1
                self._wake(x)
            else:
                self._oppose(x, u)
                self._consume_phantom_open(x)
            return "inherited", x
        self.op[v] -= 1
        if self.status[x] == 2:
            self.deferred.append((v, x, 0))
            self._oppose(x, v)
            self._consume_phantom_open(x)
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
            self.good += int(self.nR[v])
            self.bad += int(self.nG[v])
        else:
            self.good += int(self.nG[v])
            self.bad += int(self.nR[v])
        while self.pd[v]:
            x = int(self.pa[v, 0])
            parity = self._remove_path_slot(v, x)
            self._remove_path_slot(x, v)
            self._give_label(x, color ^ parity)
        for h in self._unrevealed(v):
            if self.revealed[h]:
                continue  # its partner was an earlier slot of this loop
            kind, x = self._reveal(v, h)
            if kind == "live":
                self.op[x] -= 1
                self._give_label(x, color)
        self.op[v] = 0

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
            self._set_pending(v, -1, self.swap, free=True)
        else:
            kind, x = self._reveal(v, self._unrevealed(v)[0])
            if kind == "live":
                self._pend_against(v, x, 1)
                self.op[x] -= 1
                self._wake(x)
            elif kind == "dead":
                # the reference chains through another pending vertex; the
                # deferred pair banks the edge once colors resolve
                self._set_pending(v, x, 1)
            else:
                self._set_pending(v, -1, self.swap, free=True)
        self.op[v] = 0

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
            a, pa_ = int(self.pa[v, 0]), int(self.pi[v, 0])
            b, pb = int(self.pa[v, 1]), int(self.pi[v, 1])
            if a == b or self._connected(a, b, avoid=v):
                # joining would close a cycle; defer the far edge instead
                self._pend_against(v, a, 1 ^ pa_)
                self._remove_path_slot(a, v)
                self.deferred.append((v, b, pb))
                self._remove_path_slot(b, v)
                self.nD[b] += 1
            else:
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
            w = int(self.wsrc[v])
            if w >= 0:
                self._set_pending(v, w, int(self.wbit[v]), free=True)
            else:
                self._set_pending(v, -1, self.swap, free=True)
        self.pd[v] = 0
        self.op[v] = 0

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
            t = int(self.pa[s3, 0])
            p3t = self._remove_path_slot(s3, t)
            carried = p12 ^ p23 ^ p3t
            self._replace_path_slot(t, s3, s1, carried)
            self._add_path_slot(s1, t, carried)
            self._dirty_area(t)
        elif self.op[s3]:
            # s3's unrevealed slot now belongs (logically) to s1
            self.alias[s3] = s1
            self.op[s1] += self.op[s3]
            self.slots[s1].extend(self._unrevealed(s3))
        self._wake(s1)

    def query(self, v: int) -> None:
        """Reveal v's lowest open half-edge and take the partner on board."""
        assert self.status[v] == 0 and self.op[v] > 0
        kind, x = self._reveal(v, self._unrevealed(v)[0])
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
            self.op[x] -= 1
            self._wake(v)
            self._wake(x)
        else:
            self._add_path_slot(v, x, 0)
            self._add_path_slot(x, v, 0)
            self.op[x] -= 1
            self._dirty_area(v)
            self._dirty_area(x)

    # -- the action table ---------------------------------------------------

    def _labels_decide(self, v: int) -> bool:
        """Priority rules 1-3: majority commits, exact ties whiten."""
        cd = self._cd(v)
        if cd >= 2:
            # a tie at cd == 3 has no reference edge left to whiten against
            color = self._majority(v, RED ^ self.swap if cd == 3 else -1)
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
        for i in range(self.pd[v]):
            x = int(self.pa[v, i])
            lx = self._label_of(x)
            if lx >= 0 and lv ^ lx ^ int(self.pi[v, i]) == 1:
                lead = min(v, x)
                self.commit(lead, 1 ^ self._label_of(lead))
                return True
        if self.pd[v] == 2:
            a, b = int(self.pa[v, 0]), int(self.pa[v, 1])
            la, lb = self._label_of(a), self._label_of(b)
            if self._cd(a) == 0 and self._cd(b) == 0:
                # []-[X]-[]: color the middle anti its label
                self.commit(v, 1 ^ lv)
                return True
            for m2, lm, far in ((a, la, b), (b, lb, a)):
                if lm < 0 or self._cd(far) != 0 or self.pd[m2] != 2 \
                        or m2 == far:
                    continue
                i = 0 if self.pa[v, 0] == m2 else 1
                if lv ^ lm ^ int(self.pi[v, i]) != 0:
                    continue
                other = int(self.pa[m2, 0]) if self.pa[m2, 0] != v \
                    else int(self.pa[m2, 1])
                if self._cd(other) == 0:
                    # []-[X]-[X]-[]: lower-id middle commits anti its label
                    lead = min(v, m2)
                    self.commit(lead, 1 ^ self._label_of(lead))
                    return True
            if la >= 0 and lb >= 0 and a != b \
                    and lv ^ la ^ int(self.pi[v, 0]) == 0 \
                    and lv ^ lb ^ int(self.pi[v, 1]) == 0:
                self.reduce_rrr(min(a, b), v, max(a, b))
                return True
        if self.pd[v] == 1 and self.op[v] >= 1:
            self.query(v)  # terminal labeled endpoint extends its path
            return True
        return False

    def closure(self) -> None:
        """Exhaust label decisions first, then path-shape rules."""
        while True:
            if self.queue:
                v = self.queue.popleft()
                if self.status[v] == 0:
                    self._labels_decide(v)
                continue
            if self.heap:
                v = heapq.heappop(self.heap)
                if self.status[v] == 0 and not self._labels_decide(v):
                    self._try_patterns(v)
                continue
            break

    # -- the full run -------------------------------------------------------

    def _bootstrap(self) -> None:
        alive = np.flatnonzero(self.status == 0)
        if alive.shape[0] == 0:
            return
        if alive.shape[0] == 1:
            self.commit(int(alive[0]), RED ^ self.swap)
            return
        picked = self.rng.choice(alive, size=2, replace=False)
        self.commit(int(picked[0]), RED ^ self.swap)
        self.commit(int(picked[1]), GREEN ^ self.swap)

    def _lone_vertices(self) -> np.ndarray:
        mask = (self.status == 0) & (self.pd == 0) & (self.nW == 0) \
            & (self.nD == 0) & ((self.nR + self.nG) == 1)
        return np.flatnonzero(mask)

    def run(self) -> CutResult:
        threshold = max(ENDGAME_FLOOR, STOP_FRACTION * self.n)
        self._bootstrap()
        self.closure()
        while self.survival > threshold and self.rounds < MAX_ROUNDS:
            before = self.survival
            lones = self._lone_vertices()
            marked = lones[self.rng.random(lones.shape[0])
                           < self.query_probability]
            for v in marked:
                v = int(v)
                if self.status[v] == 0 and self.op[v] > 0:
                    self.query(v)
            self.closure()
            if self.survival == before:
                self._bootstrap()
                self.closure()
            self.rounds += 1
        self._endgame()
        return self._result()

    def _endgame(self) -> None:
        # last stretch never uses white: survivors take their local majority
        for v in np.flatnonzero(self.status == 0):
            v = int(v)
            if self.status[v] == 0:
                self.commit(v, self._majority(v, RED ^ self.swap))
        # any half-edges still unrevealed pair two absorbed open slots
        for h in map(int, np.flatnonzero(~self.revealed)):
            k = int(self.pair[h])
            if h < k:
                self.revealed[h] = True
                self.revealed[k] = True
                u, x = int(self.owner[h]), int(self.owner[k])
                if u == x:
                    self.bad += 1
                else:
                    self.deferred.append((u, x, 0))
                    self._oppose(u, x)
                    self._oppose(x, u)
        self._resolve_pending()
        for u, w, parity in self.deferred:
            if int(self.f[u]) ^ int(self.f[w]) == 1 ^ parity:
                self.good += 1
            else:
                self.bad += 1

    def _resolve_pending(self) -> None:
        """Fix the pending colors in one walk.

        Each unresolved vertex, oldest first, follows its chain of
        references f[v] = f[ptgt[v]] ^ pbit[v] to its end: a colored
        vertex, a target -1 (f = pbit), a vertex with no constraint of its
        own (colored with the anchor color), or a cycle.  A white whose
        reference was answered by marking the referee back gives a mutual
        cycle; every entry encodes the same constraint, so the cycle's
        oldest member is pinned to the anchor color.  Pinning never touches
        a chain vertex, whose constraint carries a counted edge.  The walked
        chain then resolves backwards from where it ended, so each vertex
        is walked once."""
        f = self.f.tolist()
        ptgt = self.ptgt.tolist()
        pbit = self.pbit.tolist()
        porder = self.porder.tolist()
        anchor = RED ^ self.swap
        todo = [v for v, t in enumerate(ptgt) if t != -2]
        todo.sort(key=porder.__getitem__)
        for v in todo:
            if f[v] >= 0:
                continue
            path = [v]
            seen = {v: 0}  # vertex -> index on path
            while True:
                u = path[-1]
                t = ptgt[u]
                if t == -1:
                    f[u] = pbit[u]
                    path.pop()
                    break
                if f[t] >= 0:
                    break
                if ptgt[t] == -2:
                    f[t] = anchor
                    break
                if t in seen:
                    m = min(range(seen[t], len(path)),
                            key=lambda i: porder[path[i]])
                    f[path[m]] = anchor
                    # the pin's predecessors, then the cycle's far side
                    path = path[m + 1:] + path[:m]
                    break
                seen[t] = len(path)
                path.append(t)
            for u in reversed(path):
                f[u] = f[ptgt[u]] ^ pbit[u]
        self.f[:] = f

    def _result(self) -> CutResult:
        assert np.all(self.f >= 0), "some vertex was never colored"
        half = np.arange(self.pair.shape[0])
        firsts = np.flatnonzero(half < self.pair)
        fu = self.f[self.owner[firsts]]
        fw = self.f[self.owner[self.pair[firsts]]]
        exact_good = int(np.count_nonzero(fu != fw))
        exact_bad = int(firsts.shape[0]) - exact_good
        return CutResult(colors=self.f.copy(), good=exact_good,
                         bad=exact_bad, incremental_good=self.good,
                         incremental_bad=self.bad, n=self.n, seed=self.seed,
                         rounds=self.rounds)


def run_cut(graph: Multigraph, **options) -> CutResult:
    """Run the full cut process on a 3-regular multigraph; ``options`` are
    those of :class:`CutProcess`."""
    return CutProcess(graph, **options).run()
