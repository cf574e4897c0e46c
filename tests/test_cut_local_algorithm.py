"""Staged micro-scenarios and full runs of the red/green/white cut process."""
import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from girthlocal import _kernels
from girthlocal.config_model import generate, load_edge_list, save_edge_list
from girthlocal.cut_local_algorithm import (
    ENDGAME_FLOOR,
    GREEN,
    RED,
    CutProcess,
    count_cut,
    run_cut,
)
from girthlocal.exact_oracle import from_multigraph, max_cut
from test_config_model import relabelled
from test_is_local_algorithm import carried_labels, last_draws

K4 = "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"


def test_rejects_non_cubic_graph():
    with pytest.raises(ValueError):
        CutProcess(generate(10, 4, seed=0))


def test_rejects_bad_parameters():
    g = generate(10, 3, seed=0)
    with pytest.raises(ValueError):
        CutProcess(g, query_probability=1.5)


def test_commit_labels_neighbors_and_banks_edges():
    p = CutProcess(load_edge_list(K4), key=0)
    p.commit(0, RED)
    # no neighbor was labeled yet, so nothing banked; all three got a red mark
    assert p.good == 0 and p.bad == 0
    assert list(p.nR[1:]) == [1, 1, 1]
    p.commit(1, GREEN)
    # the edge 0-1 is now an opposite-colored pair
    assert (p.good, p.bad) == (1, 0)
    assert list(p.nG[2:]) == [1, 1]


def test_tie_cascade_on_complete_graph_reaches_max_cut():
    # after red/green commits the two remaining vertices hold one mark of
    # each color; the cascade whitens one and majority-commits the other
    p = CutProcess(load_edge_list(K4), key=0)
    p.commit(0, RED)
    p.commit(1, GREEN)
    p.closure()
    p._resolve_pending()
    assert (p.good, p.bad) == (4, 2)
    assert p.f.tolist() == [RED, GREEN, GREEN, RED]
    assert not p.deferred


def test_pending_walk_resolves_every_chain_end():
    p = CutProcess(generate(12, 3, seed=0), key=0)
    p.f[0] = GREEN  # a committed vertex
    # vertex: (target, bit, age); f[v] = f[target] ^ bit, target -1: f = bit
    pending = {
        3: (1, 0, 0),     # tail into the cycle, older than all of it
        1: (2, 1, 5),     # mutual cycle 1 <-> 2 ...
        2: (1, 1, 3),     # ... whose oldest member 2 is pinned
        4: (-1, 1, 6),    # chain 6 -> 5 -> 4 -> -1
        5: (4, 1, 7),
        6: (5, 0, 2),
        9: (10, 1, 1),    # targets newer than their sources: 9 -> 10 ->
        10: (11, 1, 8),   # 11 -> the committed vertex 0
        11: (0, 1, 9),
    }
    # the pending map's insertion order is its age order
    for v, (target, bit, _) in sorted(pending.items(),
                                      key=lambda item: item[1][2]):
        p.pending[v] = (target, bit, False)
    p._resolve_pending()
    # 7 and 8 are neither pending nor committed
    expected = [GREEN, GREEN, RED, GREEN, 1, 0, 0, -1, -1, 0, 1, 0]
    assert p.f.tolist() == expected


def test_pending_walk_rejects_an_unconstrained_target():
    # every uncolored target has a constraint of its own after the endgame
    p = CutProcess(generate(12, 3, seed=0), key=0)
    p.pending[7] = (8, 1, False)
    with pytest.raises(AssertionError, match="no constraint"):
        p._resolve_pending()


def test_re_pend_and_re_point_keep_the_pending_age():
    p = CutProcess(generate(12, 3, seed=0), key=0)
    a, b = 4, 7
    p._set_pending(a, -1, 0, free=True)
    p._set_pending(b, -1, 1, free=True)
    p._set_pending(a, b, 1, free=True)
    p._oppose(b, a)
    assert list(p.pending) == [a, b]
    assert p.pending == {a: (b, 1, True), b: (a, 1, False)}


def test_queries_grow_paths_and_triples_reduce():
    p = CutProcess(load_edge_list(K4), key=0)
    p.commit(0, RED)
    p.query(1)
    assert p.path[1] == [(2, 0)] and p.path[2] == [(1, 0)]
    p.query(3)
    # vertex 3 joined through its half-edge into 1: path 2-1-3, all red
    assert list(p.pd[:4]) == [0, 2, 1, 1]
    p.closure()
    # three same-colored path vertices collapse: two deleted, the carrier
    # keeps the absorbed open half-edge, and 3 good + 1 bad edges are banked
    assert (p.good, p.bad) == (3, 1)
    assert p.status[1] == 2 and p.status[3] == 2
    assert p.status[2] == 0 and len(p._unrevealed(2)) == 2


def test_full_run_on_complete_graph():
    g = load_edge_list(K4)
    r = run_cut(g, seed=5)
    assert r.good + r.bad == 6
    assert r.good <= 4  # exact max cut of K4
    assert set(np.unique(r.colors)) <= {0, 1}
    assert count_cut(g, r.colors) == (r.good, r.bad)


@given(st.integers(4, 40), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_incremental_counters_match_recount(half_n, seed):
    g = generate(2 * half_n, 3, seed=seed)
    r = run_cut(g, seed=seed)
    assert count_cut(g, r.colors) == (r.good, r.bad)
    assert r.good + r.bad == g.edge_count
    assert np.all((r.colors == 0) | (r.colors == 1))


def test_never_beats_exact_oracle():
    rng = np.random.default_rng(12)
    for _ in range(12):
        n = int(rng.choice([8, 10, 12, 14, 16]))
        g = generate(n, 3, seed=int(rng.integers(2 ** 31)))
        best, _ = max_cut(from_multigraph(g))
        r = run_cut(g, seed=int(rng.integers(2 ** 31)))
        loops = sum(1 for u, v in g.edges() if u == v)
        assert r.good <= best
        assert r.good + r.bad == g.edge_count
        assert r.bad >= loops  # a loop can never be cut


def test_same_seed_reproduces_run():
    g = generate(1000, 3, seed=9)
    a = run_cut(g, seed=4)
    b = run_cut(g, seed=4)
    assert a.good == b.good and np.array_equal(a.colors, b.colors)
    c = run_cut(g, seed=5)
    assert not np.array_equal(a.colors, c.colors)


def test_midsize_run_lands_in_expected_band():
    g = generate(20000, 3, seed=77)
    r = run_cut(g, seed=0)
    assert 1.30 <= r.ratio <= 1.37
    assert r.ratio == r.good / r.n
    assert r.rounds > 0


compiled = pytest.mark.skipif(_kernels.BACKEND != "c",
                              reason="no C compiler: run() is the reference")

# hand-built cubic multigraphs: loops, parallel edges, and edge lists whose
# half-edges are not stored in owner order
MULTIGRAPHS = {
    "K4": K4,
    "triple_edge": "2 3\n0 1\n1 0\n0 1\n",
    "two_loops": "2 3\n0 0\n0 1\n1 1\n",
    "loop_chain": "4 6\n0 0\n0 1\n1 2\n1 2\n2 3\n3 3\n",
    "double_square": "4 6\n0 1\n1 0\n2 3\n3 2\n0 2\n1 3\n",
    "loops_and_k4": "6 9\n0 0\n1 1\n0 2\n1 3\n2 3\n2 4\n3 5\n4 5\n"
                    "4 5\n",
    "reloaded_300": save_edge_list(generate(300, 3, seed=3)),
}


def test_count_cut_matches_an_edge_by_edge_count():
    rng = np.random.default_rng(3)
    graphs = [load_edge_list(text) for text in MULTIGRAPHS.values()]
    graphs += [generate(n, 3, seed=n) for n in (4, 10, 64)]
    for g in graphs:
        for _ in range(5):
            colors = rng.integers(0, 2, g.n).astype(np.int8)
            good = sum(1 for u, v in g.edges() if colors[u] != colors[v])
            assert count_cut(g, colors) == (good, g.edge_count - good)
    # K4 split two and two cuts its four cross edges
    assert count_cut(load_edge_list(K4),
                     np.array([0, 0, 1, 1], np.int8)) == (4, 2)


def check_paths(p):
    """Invariant (P): every survival path component is a simple path."""
    for v in range(p.n):
        slots = p.path[v]
        assert len(slots) == p.pd[v]
        if p.status[v] != 0:
            assert not slots, "a vertex left survival with path slots"
            continue
        assert len(slots) <= 2
        assert len({x for x, _ in slots}) == len(slots)
        for x, parity in slots:
            assert x != v and p.status[x] == 0
            assert p.path[x].count((v, parity)) == 1
    done = set()
    for v in range(p.n):
        if p.status[v] != 0 or v in done:
            continue
        component, stack = {v}, [v]
        while stack:
            for x, _ in p.path[stack.pop()]:
                if x not in component:
                    component.add(x)
                    stack.append(x)
        ends = sorted(u for u in component if p.pd[u] <= 1)
        assert ends, "a path component is a cycle"
        walk, prev = [ends[0]], -1
        while True:
            step = [x for x, _ in p.path[walk[-1]] if x != prev]
            if not step:
                break
            prev = walk[-1]
            walk.append(step[0])
        assert len(walk) == len(set(walk)) == len(component)
        done |= component


def check_closed(p):
    """What closure leaves, and the lone scans rely on: no survival vertex
    with two or more labels, and none whose single label is white."""
    status, nR, nG, nW, nD = (np.frombuffer(c, np.uint8) for c in
                              (p.status, p.nR, p.nG, p.nW, p.nD))
    cd = nR + nG + nW + nD
    survival = status == 0
    assert not np.any(survival & (cd >= 2))
    assert not np.any(survival & (cd == 1) & (nW == 1))


def drive_checking(graph, check, **options):
    """The Python path's round schedule, with check(p) after every closure;
    returns the number of closures."""
    p = CutProcess(graph, **options)
    closures = []

    def closure():
        CutProcess.closure(p)
        check(p)
        closures.append(p.survival)

    p.closure = closure
    p._drive()
    r = p._result()
    assert count_cut(graph, r.colors) == (r.good, r.bad)
    return len(closures)


@pytest.mark.parametrize("q", [0.0, 0.02, 1.0])
def test_survival_components_stay_simple_paths(q):
    for name, text in MULTIGRAPHS.items():
        for seed in range(3):
            assert drive_checking(load_edge_list(text), check_paths,
                                  key=seed, query_probability=q) >= 1, name
    for n in (10, 64, 300):
        for seed in range(3):
            assert drive_checking(generate(n, 3, seed=seed), check_paths,
                                  key=seed, query_probability=q) >= 1


@pytest.mark.parametrize("q", [0.0, 0.005, 0.02, 0.3, 1.0])
def test_closure_leaves_no_label_decision_open(q):
    # why the lone scans need not test the white and deferred counters
    for name, text in MULTIGRAPHS.items():
        assert drive_checking(load_edge_list(text), check_closed, key=0,
                              query_probability=q) >= 1, name
    for n in (8, 64, 300, 2000):
        for seed in range(3):
            assert drive_checking(generate(n, 3, seed=seed), check_closed,
                                  key=seed, query_probability=q) >= 1


def hand_built_triangle():
    p = CutProcess(generate(12, 3, seed=0), key=0)
    for x, y in ((0, 1), (1, 2)):
        p._add_path_slot(x, y, 0)
        p._add_path_slot(y, x, 0)
    check_paths(p)
    p._add_path_slot(2, 0, 0)
    p._add_path_slot(0, 2, 0)
    return p


def test_path_check_sees_a_closed_triangle():
    with pytest.raises(AssertionError, match="cycle"):
        check_paths(hand_built_triangle())


def test_connected_fails_loudly_on_a_cyclic_path():
    # a walk that outruns every path reports the broken bookkeeping
    # instead of "not connected", after which query would close a cycle
    p = hand_built_triangle()
    assert p._connected(0, 2)
    with pytest.raises(AssertionError, match="cycle"):
        p._connected(0, 5)


def outputs_of(r):
    return r.colors.tobytes(), r.good, r.bad, r.rounds


def outputs(graph, **options):
    return outputs_of(run_cut(graph, **options))


def backends_agree(monkeypatch, graph, seeds):
    for seed in seeds:
        for q in (0.0, 0.005, 0.02, 1.0):
            options = dict(seed=seed, query_probability=q)
            monkeypatch.setattr(_kernels, "BACKEND", "c")
            in_c = outputs(graph, **options)
            monkeypatch.setattr(_kernels, "BACKEND", "python")
            assert outputs(graph, **options) == in_c, options


# 66 and 130 straddle a 64-bit word of the engine's bit sets; 4160 crosses
# the first summary word of the candidate set (4096 vertices) and ends in a
# partial word
@compiled
@pytest.mark.parametrize("n", [4, 6, 10, 64, 66, 130, 300, 2000, 4160])
def test_c_engine_matches_python_methods(monkeypatch, n):
    for seed in range(10 if n < 4096 else 4):
        backends_agree(monkeypatch, generate(n, 3, seed=seed), [seed])


def python_run(graph, seed, q):
    return outputs_of(CutProcess(graph, key=seed,
                                 query_probability=q).run())


def test_candidates_held_once_match_a_push_per_dirty(monkeypatch):
    # _dirty without the in_heap flag pushes on every call, so the heap
    # holds repeats; each repeated pop must be a no-op (CutProcess.closure
    # says why), so holding each candidate once changes nothing
    repeats = 0

    def push_per_dirty(self, v):
        nonlocal repeats
        if self.status[v] == 0:
            repeats += v in self.heap
            heapq.heappush(self.heap, v)

    monkeypatch.setattr(_kernels, "BACKEND", "python")
    for n in (66, 300, 2000):
        for seed in range(3):
            graph = generate(n, 3, seed=seed)
            for q in (0.0, 0.02, 1.0):
                once = python_run(graph, seed, q)
                with monkeypatch.context() as m:
                    m.setattr(CutProcess, "_dirty", push_per_dirty)
                    assert python_run(graph, seed, q) == once, (n, seed, q)
    assert repeats > 1000


@compiled
@pytest.mark.parametrize("name", MULTIGRAPHS)
def test_c_engine_matches_python_methods_on_multigraphs(monkeypatch, name):
    backends_agree(monkeypatch, load_edge_list(MULTIGRAPHS[name]), range(10))


@pytest.mark.parametrize("backend", ["c", "python"])
def test_the_empty_graph_runs_on_both_backends(monkeypatch, backend):
    # no bootstrap pair to draw and no round to run: both copies return at
    # once from the bootstrap, and agree
    if backend == "c" and _kernels.BACKEND != "c":
        pytest.skip("no C compiler")
    monkeypatch.setattr(_kernels, "BACKEND", backend)
    for seed in range(3):
        assert outputs(load_edge_list("0 0\n"), seed=seed) == (b"", 0, 0, 0)


def reductions_leaving_a_lone(graph, seed):
    """How many reduce_rrr calls of a run of the Python methods leave s1
    lone: a labelled path end that loses its only path edge.  No label
    arrives there, so the lone list learns of s1 only through the path
    slot that goes."""
    p = CutProcess(graph, key=seed)
    reduce_rrr, count = p.reduce_rrr, 0

    def counted(s1, s2, s3):
        nonlocal count
        reduce_rrr(s1, s2, s3)
        count += p.pd[s1] == 0 and p._label_of(s1) >= 0

    p.reduce_rrr = counted
    p._drive()
    return count


# a run at n = 302 with a reduction that leaves its s1 lone (rare: the
# runs at n = 302 and keys 0-11 reach 0 to 2 of them, 13 in all)
LONE_BY_REDUCTION = (302, 2)


@compiled
def test_c_run_matches_python_where_the_lone_set_changes(monkeypatch):
    # the engine's first round tests every vertex for being lone; each
    # later one re-tests only the vertices touched since (a change of
    # status, path degree or R/G labels).  130 ends in a partial 64-bit
    # word of the engine's bit sets.  At q = 0 every round is followed by
    # a bootstrap, whose commits can take a lone vertex out of survival;
    # at q = 1 every lone vertex is queried.  A touch missing from the lone
    # set's upkeep makes the C run differ from the Python one
    n, seed = LONE_BY_REDUCTION
    assert reductions_leaving_a_lone(generate(n, 3, seed=seed), seed) > 0
    inputs = [(n, s) for n in (10, 130, 302, 2000) for s in range(2)]
    for n, seed in inputs + [LONE_BY_REDUCTION]:
        backends_agree(monkeypatch, generate(n, 3, seed=seed), [seed])


@compiled
def test_c_lone_scan_on_an_engine_opened_mid_run():
    # the Python methods label the neighbours of a few far-apart vertices
    # (no path edge or pending colour, which only the engine would hold);
    # an engine opened then finds those lones by its first, full scan, and
    # the run it finishes in one call matches the Python methods
    # finishing it
    graph = generate(2000, 3, seed=4)
    nbrs = graph.neighbor_lists()
    runs = []
    for finish in ("one call", "python"):
        p = CutProcess(graph, key=4)
        near = set()
        for v in range(0, graph.n, 23):
            ball = {v, *nbrs[v], *(w for u in nbrs[v] for w in nbrs[u])}
            if near.isdisjoint(ball):
                p.commit(v, RED if v % 2 else GREEN)
                near |= ball
        p.closure()
        assert p.lones().shape[0] > 50
        if finish == "one call":
            p.rounds += _kernels.cut_run(p, ENDGAME_FLOOR)
        else:
            p._drive()
        r = p._result()
        assert count_cut(graph, r.colors) == (r.good, r.bad)
        runs.append((r.colors.tobytes(), r.good, r.bad, r.rounds))
    assert runs[0] == runs[1]


@compiled
@pytest.mark.parametrize("q", [0.0, 0.005, 0.02, 1.0])
def test_backends_leave_the_generator_in_one_state(monkeypatch, q):
    # a run's only draws from its numpy Generator are its key and labels,
    # drawn once by run_labels before the process is built; both backends
    # draw every pick from the key and the renamed ids alike.  The rounds
    # have no cap: one that leaves the survival count unchanged is followed
    # by a bootstrap, which commits two of the more than ENDGAME_FLOOR
    # survival vertices, so the count falls every round (recorded on the
    # Python rounds, which the one-call C run must then match round for
    # round).  At q = 0 no round queries, and every round takes that path
    starts, drawn = [], []
    query_round = CutProcess.query_round
    run_labels = _kernels.run_labels

    def recorded(p):
        starts.append(p.survival)
        query_round(p)

    def labelled(n, seed):
        drawn.append((n, seed))
        return run_labels(n, seed)

    monkeypatch.setattr(CutProcess, "query_round", recorded)
    monkeypatch.setattr(_kernels, "run_labels", labelled)
    for seed in range(3):
        graph = generate(2000, 3, seed=seed)
        ends = []
        for backend in ("python", "c"):
            monkeypatch.setattr(_kernels, "BACKEND", backend)
            starts.clear()
            drawn.clear()
            r = run_cut(graph, seed=seed, query_probability=q)
            ends.append((r.colors.tobytes(), r.good, r.bad, r.rounds))
            assert drawn == [(graph.n, seed)]
            if backend == "python":
                assert 0 < len(starts) == r.rounds <= graph.n // 2
                assert all(a > b for a, b in zip(starts, starts[1:]))
                assert starts[-1] > ENDGAME_FLOOR
            else:
                assert starts == []  # C ran every round
        assert ends[0] == ends[1]


@compiled
def test_a_c_cut_run_is_one_engine_call(monkeypatch):
    # the schedule runs in C, bootstraps included: the engine calls of a
    # run do not grow with its rounds or its bootstraps (at q = 0 every
    # round stalls and is followed by one)
    calls = []
    shared = _kernels._run

    def counted(name, entry, *args):
        calls.append(entry)
        return shared(name, entry, *args)

    monkeypatch.setattr(_kernels, "_run", counted)
    rounds = []
    for n, q in ((300, 0.02), (2000, 0.0), (2000, 0.02), (20000, 0.005)):
        calls.clear()
        rounds.append(run_cut(generate(n, 3, seed=1), seed=1,
                              query_probability=q).rounds)
        assert calls == [_kernels._lib.cut_run], (n, q)
    assert len(set(rounds)) == 4 and max(rounds) > 100, rounds


def replayed_bootstraps(graph, seed, q):
    """A run of the Python methods whose bootstrap pairs are replayed from
    their two picks of the round, as the C bootstrap draws them: red is
    rank int(u1 * m) of the m ascending survivors, and green rank
    int(u2 * (m - 1)) of the m - 1 others.  Each replayed pair must be the
    one the run committed; returns how many greens ranked below red and
    how many above."""
    p = CutProcess(graph, key=seed, query_probability=q)
    bootstrap = p._bootstrap
    sides = [0, 0]

    def replayed():
        alive = np.flatnonzero(np.frombuffer(p.status, np.uint8) == 0)
        m = alive.shape[0]
        u1, u2 = (_kernels.draw(p.key, p.rounds, purpose) for purpose in
                  (_kernels.RED_PICK, _kernels.GREEN_PICK))
        red = int(u1 * m)
        green = int(np.delete(alive, red)[int(u2 * (m - 1))])
        bootstrap()
        sides[int(green > alive[red])] += 1
        assert p.f[alive[red]] == RED and p.f[green] == GREEN

    p._bootstrap = replayed
    p._drive()
    return sides


def test_bootstrap_pairs_draw_two_random_ranks(monkeypatch):
    # two vertices give green one survivor to draw from; greens below and
    # above red both occur.  The Python half also runs without cc
    graphs = [load_edge_list(MULTIGRAPHS["triple_edge"])]
    graphs += [generate(n, 3, seed=n) for n in (10, 302, 2000)]
    below = above = 0
    for graph in graphs:
        for q in (0.0, 1.0):
            sides = replayed_bootstraps(graph, graph.n, q)
            assert sum(sides) > 0
            below, above = below + sides[0], above + sides[1]
    assert below > 0 and above > 0
    if _kernels.BACKEND == "c":
        backends_agree(monkeypatch, graphs[0], [0, 1, 2])


@pytest.mark.parametrize("n", [2, 128, 2000])
def test_the_largest_draws_pair_the_last_two_survivors(monkeypatch, n):
    # red = int(u * m) is rank m - 1 and green = int(u * (m - 1)) rank
    # m - 2, with no index past the end, also when m is a power of two
    # (the first pair draws from all n vertices).  No mark falls below the
    # query probability, so every round stalls and is followed by a pair
    graph = load_edge_list(MULTIGRAPHS["triple_edge"]) if n == 2 \
        else generate(n, 3, seed=0)
    p = CutProcess(graph, key=0)
    monkeypatch.setattr(_kernels, "draw", last_draws)
    bootstrap = p._bootstrap
    sizes = []

    def checked():
        alive = np.flatnonzero(np.frombuffer(p.status, np.uint8) == 0)
        bootstrap()
        sizes.append(alive.shape[0])
        assert p.f[alive[-1]] == RED and p.f[alive[-2]] == GREEN

    p._bootstrap = checked
    p._drive()
    assert sizes[0] == n and (len(sizes) > 1 or n == 2)


# -- relabelling: a whole run is a function of the labelled graph -----------

def process_of(graph, seed, q) -> tuple:
    """The process that ``run_cut`` builds for a run of the seed on the
    graph, which it renames by the run's labels, and the labels."""
    key, labels = _kernels.run_labels(graph.n, seed)
    return CutProcess(graph.renamed(labels), key, q), labels


def queried_in_one_round(p: CutProcess, centres, colours) -> set:
    """The vertices that one query round of p queries, after each centre
    commits its colour: their neighbours are the lone vertices."""
    for v, colour in zip(centres.tolist(), colours.tolist()):
        p.commit(v, colour)
    p.closure()
    queried, query = set(), p.query

    def logged(v):
        queried.add(v)
        query(v)

    p.query = logged
    p.query_round()
    return queried


def test_a_round_s_marks_commute_with_relabelling():
    # the query marks are a function of the labels alone: on the graph
    # relabelled by pi, carrying its labels, with the images of the same
    # centres committed, a round of the process that run_cut builds
    # queries the vertices of the labels it queries on the original
    graph = generate(2000, 3, seed=4)
    nbrs = graph.neighbor_lists()
    centres, near = [], set()
    for v in range(0, graph.n, 7):
        ball = {v, *nbrs[v], *(w for u in nbrs[v] for w in nbrs[u])}
        if near.isdisjoint(ball):
            centres.append(v)
            near |= ball
    centres = np.array(centres)
    colours = centres % 2
    for seed in range(3):
        pi = np.random.default_rng(seed).permutation(graph.n)
        p, labels = process_of(graph, seed, 0.3)
        with carried_labels(pi):
            h, moved = process_of(relabelled(graph, pi), seed, 0.3)
        queried = queried_in_one_round(p, labels[centres], colours)
        assert p.lones().shape[0] > 200 and len(queried) > 50
        assert queried_in_one_round(h, moved[pi[centres]], colours) == \
            queried


def relabelled_run_difference(graph, seed, pi) -> float:
    """The fraction of vertices whose colour in a whole run differs from
    their image's in the run on the graph relabelled by pi with the labels
    carried along: how much the run depends on the ids."""
    colours = run_cut(graph, seed=seed).colors
    with carried_labels(pi):
        moved = run_cut(relabelled(graph, pi), seed=seed).colors
    return float(np.mean(moved[pi] != colours))


def test_relabelling_by_the_identity_changes_no_colour():
    graph = generate(2000, 3, seed=0)
    assert relabelled_run_difference(graph, 0, np.arange(graph.n)) == 0


@compiled
def test_whole_runs_commute_with_relabelling():
    # the run renames each vertex by its label, so a relabelled graph with
    # its labels carried along is run as the same graph: not one colour
    # moves, under three permutations and two seeds
    graph = generate(20_000, 3, seed=5)
    for i in range(3):
        pi = np.random.default_rng(100 + i).permutation(graph.n)
        for seed in range(2):
            assert relabelled_run_difference(graph, seed, pi) == 0


def test_whole_runs_commute_with_relabelling_on_the_python_path(
        monkeypatch):
    # the same on the Python methods, whose runs are the C engine's
    graph = generate(3000, 3, seed=5)
    pi = np.random.default_rng(7).permutation(graph.n)
    runs = []
    for backend in dict.fromkeys(("python", _kernels.BACKEND)):
        monkeypatch.setattr(_kernels, "BACKEND", backend)
        assert relabelled_run_difference(graph, 1, pi) == 0
        runs.append(outputs(graph, seed=1))
    assert runs[0] == runs[-1]


@compiled
def test_c_run_builds_no_per_vertex_lists():
    p = CutProcess(generate(64, 3, seed=0), key=0)
    p.run()
    assert "slots" not in vars(p) and "path" not in vars(p)
    assert not p.pending and not p.deferred


def failed_run(graph, v, in_c):
    """A run on one backend, one ``_kernels.cut_run`` call or ``_drive``,
    of a process whose vertex v was marked committed before the run, which
    fails when the run reveals an edge to v; returns what the failed run
    leaves: the shared buffers and the counters."""
    p = CutProcess(graph, key=0)
    p.status[v] = 1
    p.survival -= 1
    with pytest.raises(AssertionError):
        if in_c:
            _kernels.cut_run(p, ENDGAME_FLOOR)
        else:
            p._drive()
    return (*(bytes(buf) for buf in (
        p.status, p.f, p.nR, p.nG, p.nW, p.nD, p.pd, p.alias,
        p.revealed)), p.good, p.bad, p.survival)


@compiled
def test_c_engine_checks_its_calls():
    # a broken invariant (here: a vertex marked committed that still holds
    # its open slots) surfaces as the Python methods' assertion
    p = CutProcess(generate(10, 3, seed=0), key=0)
    p.status[0] = 1
    p.survival -= 1
    with pytest.raises(AssertionError):
        _kernels.cut_run(p, ENDGAME_FLOOR)
