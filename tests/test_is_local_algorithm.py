"""Contraction bookkeeping, cascade behavior, and full independent-set runs."""
import collections
import contextlib
import copy
import weakref

import numpy as np
import pytest

from girthlocal import _kernels, is_local_algorithm
from girthlocal.config_model import Multigraph, generate, load_edge_list
from girthlocal.exact_oracle import (
    SmallGraph,
    from_multigraph,
    max_independent_set,
    small_graph,
)
from girthlocal.is_local_algorithm import (
    DEGREE_CAP,
    IN,
    OUT,
    PERSISTENCE_FRACTION,
    THIN_PROBABILITY,
    UNDECIDED,
    IsRunResult,
    SurvivalGraph,
    _drive,
    run,
    verify_independent,
)
from test_config_model import relabelled

PATH3 = "3 2\n0 1\n1 2\n"
C4 = "4 4\n0 1\n1 2\n2 3\n3 0\n"
K4 = "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"


def petersen() -> Multigraph:
    lines = ["10 15"]
    for i in range(5):
        lines.append(f"{i} {(i + 1) % 5}")
        lines.append(f"{5 + i} {5 + (i + 2) % 5}")
        lines.append(f"{i} {5 + i}")
    return load_edge_list("\n".join(lines) + "\n")


def random_multigraph(rng, n: int, m: int) -> Multigraph:
    owner = rng.integers(0, n, size=2 * m).astype(np.int64)
    pair = np.arange(2 * m, dtype=np.int64)
    pair[0::2] += 1
    pair[1::2] -= 1
    return Multigraph(n=n, owner=owner, pair=pair)


def live_small_graph(g: SurvivalGraph) -> SmallGraph:
    return small_graph(g.survivors(), g.live_edges())


def decided(g: SurvivalGraph, decision: int) -> list:
    """The vertices whose decision byte reads `decision`, ascending."""
    return np.flatnonzero(np.frombuffer(g.status, np.uint8)
                          == decision).tolist()


# -- contraction ------------------------------------------------------------

def test_contract_path_base_case():
    # selecting the merged vertex puts both ends in and the middle out: one
    # more vertex in than out
    g = SurvivalGraph(load_edge_list(PATH3))
    merged = g.contract(1)
    assert g.deg[merged] == 0
    assert g.merges == [(merged, 1, 2 - merged)]
    g._select(merged)
    g.unfold_merges()
    assert decided(g, IN) == [0, 2]
    assert decided(g, OUT) == [1]


def test_delete_merged_commits_the_middle():
    g = SurvivalGraph(load_edge_list(PATH3))
    merged = g.contract(1)
    g.delete(merged)
    g.unfold_merges()
    assert decided(g, IN) == [1]
    assert decided(g, OUT) == [0, 2]


def test_contract_c4_leaves_parallel_pair():
    g = SurvivalGraph(load_edge_list(C4))
    merged = g.contract(1)
    assert g.deg[merged] == 2
    assert sorted(tuple(sorted(e)) for e in g.live_edges()) == [(0, 3), (0, 3)]
    before = max_independent_set(from_multigraph(load_edge_list(C4)))[0]
    after = max_independent_set(live_small_graph(g))[0]
    assert before == after + 1 == 2


def test_contract_twin_neighbors_selects_the_middle():
    g = SurvivalGraph(load_edge_list("2 2\n0 1\n0 1\n"))
    assert g.contract(1) is None
    assert decided(g, IN) == [1]
    assert not any(g.alive)


def test_contract_self_loop_selects():
    g = SurvivalGraph(load_edge_list("1 1\n0 0\n"))
    assert g.contract(0) is None
    assert decided(g, IN) == [0]


def test_contract_triangle_is_simplicial():
    g = SurvivalGraph(load_edge_list("3 3\n0 1\n1 2\n2 0\n"))
    assert g.contract(1) is None
    assert decided(g, IN) == [1]
    assert g.survivors() == []


def test_contract_rejects_wrong_degree():
    g = SurvivalGraph(load_edge_list(K4))
    with pytest.raises(ValueError):
        g.contract(0)
    h = SurvivalGraph(load_edge_list(PATH3))
    h.delete(1)
    with pytest.raises(ValueError):
        h.contract(1)


def test_delete_uncontracted_commits_nothing():
    g = SurvivalGraph(load_edge_list(K4))
    g.delete(2)
    assert decided(g, IN) == [] and decided(g, OUT) == [2]
    assert g.deg[0] == 2
    # a vertex no longer in the graph cannot be deleted again
    with pytest.raises(ValueError, match="not in the survival graph"):
        g.delete(2)
    assert decided(g, OUT) == [2] and g.survival_count == 3


def test_contract_returns_the_live_merged_vertex():
    g = SurvivalGraph(load_edge_list(PATH3))
    merged = g.contract(1)
    assert merged in (0, 2) and g.alive[merged]
    assert g.survivors() == [merged]


def test_contraction_drop_preserves_mis_exactly():
    rng = np.random.default_rng(99)
    done = 0
    while done < 40:
        n = int(rng.integers(4, 15))
        mg = random_multigraph(rng, n, int(rng.integers(n, 2 * n + 1)))
        twos = np.flatnonzero(mg.degrees() == 2)
        if twos.shape[0] == 0:
            continue
        before = max_independent_set(from_multigraph(mg))[0]
        g = SurvivalGraph(mg)
        g.contract(int(twos[0]))
        after = max_independent_set(live_small_graph(g))[0]
        assert before == after + 1
        done += 1


def test_cardinality_invariant_through_random_play():
    rng = np.random.default_rng(3)
    for seed in range(5):
        g = SurvivalGraph(generate(60, 3, seed=seed))
        for _ in range(8):
            alive = np.flatnonzero(g.alive)
            if alive.shape[0] == 0:
                break
            g.delete(int(rng.choice(alive)))
            g.settle()
        # each live super-vertex holds one more vertex for the set if it
        # is selected than if it is deleted: select it and delete the
        # rest, against deleting them all
        survivors = g.survivors()
        done = copy.deepcopy(g)
        done.deletes(np.array(survivors, dtype=np.int64))
        done.unfold_merges()
        for v in survivors:
            h = copy.deepcopy(g)
            h._select(v)
            h.deletes(np.array([u for u in survivors if u != v],
                               dtype=np.int64))
            h.unfold_merges()
            assert len(decided(h, IN)) == len(decided(done, IN)) + 1
        # so each merge adds exactly one vertex, and every vertex is
        # decided once
        assert len(decided(done, IN)) == len(decided(g, IN)) + len(g.merges)
        assert len(decided(done, IN)) + len(decided(done, OUT)) == g.n


def check_adjacency(g: SurvivalGraph) -> None:
    live = np.array([g.deg[v] for v in range(g.n) if g.alive[v]], np.int64)
    counts = np.trim_zeros(np.array(g.counts), "b")
    assert counts.tolist() == np.bincount(live).tolist()
    for v, nbrs in enumerate(g.adj):
        if not g.alive[v]:
            assert nbrs == []
            continue
        assert g.deg[v] == len(nbrs)
        assert nbrs.count(v) % 2 == 0
        for w in set(nbrs) - {v}:
            assert g.alive[w]
            assert nbrs.count(w) == g.adj[w].count(v)


def test_adjacency_invariant_through_random_play():
    # small random multigraphs: loops, parallel edges and merges that
    # rename loops and parallels all occur
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(4, 20))
        m = int(rng.integers(n, 3 * n))
        g = SurvivalGraph(random_multigraph(rng, n, m))
        check_adjacency(g)
        g.settle()
        check_adjacency(g)
        while any(g.alive):
            g.delete(int(rng.choice(np.flatnonzero(g.alive))))
            check_adjacency(g)
            g.settle()
            check_adjacency(g)


# -- schedule and run validation --------------------------------------------

@pytest.mark.parametrize("kwargs", [
    {"thin_probability": -0.1},
    {"thin_probability": 1.5},
    {"thin_probability": float("nan")},
])
def test_schedule_validation(kwargs):
    with pytest.raises(ValueError, match="thin_probability"):
        run(generate(12, 3, seed=0), 3, seed=0, **kwargs)


def test_run_rejects_bad_degree_targets():
    g = generate(12, 3, seed=0)
    with pytest.raises(ValueError):
        run(g, 5, seed=0)
    with pytest.raises(ValueError):
        run(g, 4, seed=0)  # graph is 3-regular
    with pytest.raises(ValueError):
        run(load_edge_list(PATH3), 3, seed=0)


# -- full runs ---------------------------------------------------------------

def test_run_is_reproducible():
    g = generate(400, 3, seed=5)
    a = run(g, 3, seed=42)
    b = run(g, 3, seed=42)
    assert np.array_equal(a.vertices, b.vertices) and a.rounds == b.rounds


def test_run_output_is_always_independent():
    for seed in range(6):
        g = generate(300, 3, seed=seed)
        res = run(g, 3, seed=seed)
        assert verify_independent(g, res.vertices)
        assert len(set(res.vertices)) == res.size
        assert np.array_equal(res.vertices, np.sort(res.vertices))


def test_run_never_beats_the_oracle():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.choice([8, 10, 12, 14, 16]))
        g = generate(n, 3, seed=int(rng.integers(1 << 30)))
        exact = max_independent_set(from_multigraph(g))[0]
        res = run(g, 3, seed=int(rng.integers(1 << 30)))
        assert res.size <= exact
        assert verify_independent(g, res.vertices)


def test_run_result_accounting():
    g = generate(2000, 3, seed=9)
    res = run(g, 3, seed=9)
    assert isinstance(res, IsRunResult)
    assert res.n == 2000 and res.d == 3
    assert res.vertices.dtype == np.int64 and res.size == len(res.vertices)
    assert res.ratio == pytest.approx(res.size / 2000)
    assert res.rounds > 0 and res.contractions > 0


def test_run_ratio_bands_midsize():
    g3 = generate(20_000, 3, seed=31)
    r3 = run(g3, 3, seed=31).ratio
    assert 0.43 < r3 < 0.455
    g4 = generate(20_000, 4, seed=31)
    r4 = run(g4, 4, seed=31).ratio
    assert 0.39 < r4 < 0.415


def test_run_tolerates_multigraph_defects():
    # small n makes loops/parallels common; validity must still hold
    for seed in range(10):
        g = generate(20, 3, seed=seed)
        res = run(g, 3, seed=seed)
        assert verify_independent(g, res.vertices)


# -- verify_independent -------------------------------------------------------

def test_verify_empty_set():
    assert verify_independent(load_edge_list(C4), [])


def test_verify_rejects_edge_endpoints():
    g = load_edge_list(C4)
    assert not verify_independent(g, [0, 1])
    assert verify_independent(g, [0, 2])


def test_verify_accepts_oracle_witness_on_petersen():
    g = petersen()
    _, witness = max_independent_set(from_multigraph(g))
    assert verify_independent(g, witness)


def test_verify_rejects_ids_outside_the_graph():
    g = load_edge_list(C4)
    assert not verify_independent(g, [-1])
    assert not verify_independent(g, [4])
    assert not verify_independent(g, [0, 2, 7])


def test_verify_rejects_repeated_ids():
    g = load_edge_list(C4)
    assert not verify_independent(g, [0, 0])
    assert not verify_independent(g, [0, 2, 2])
    assert verify_independent(g, [2, 0])


def test_verify_ignores_loops():
    g = load_edge_list("2 2\n0 0\n0 1\n")
    assert verify_independent(g, [0])
    assert not verify_independent(g, [0, 1])


# -- the C engine against the Python methods ----------------------------------

compiled = pytest.mark.skipif(_kernels.BACKEND != "c",
                              reason="no C compiler: run() is the reference")

# hand-built multigraphs (d-regular ones with their d): loops, parallel
# edges and triangles
REGULAR = {
    "K4": (3, K4),
    "triple_edge": (3, "2 3\n0 1\n1 0\n0 1\n"),
    "two_loops": (3, "2 3\n0 0\n0 1\n1 1\n"),
    "loop_chain": (3, "4 6\n0 0\n0 1\n1 2\n1 2\n2 3\n3 3\n"),
    "K5": (4, "5 10\n" + "".join(f"{i} {j}\n" for i in range(5)
                                 for j in range(i + 1, 5))),
    "looped_triangle": (4, "3 6\n0 0\n1 1\n2 2\n0 1\n1 2\n2 0\n"),
    "octahedron": (4, "6 12\n0 1\n0 2\n0 3\n0 4\n1 2\n2 3\n3 4\n"
                      "4 1\n5 1\n5 2\n5 3\n5 4\n"),
}
# 0 joins 1 (looped) to 2 and 3, which have degree 5 through doubled
# edges to looped vertices: deleting 1 merges 2 and 3 to degree 8
OVER_CAP = ("8 16\n0 1\n1 1\n0 2\n0 3\n2 4\n2 4\n2 5\n2 5\n"
            "3 6\n3 6\n3 7\n3 7\n4 4\n5 5\n6 6\n7 7\n")
# settle pops the 2-vertex 0 before its neighbour 1 of degree 1: the merge
# at 0 links 2's list onto 1's, empty once 0 is gone.  Vertex 5 has no edge
EMPTY_X = "6 6\n0 1\n0 2\n2 3\n2 4\n3 4\n3 4\n"
# the path 4 - 0 - 1 - 2 - 3 - 5 folds into 4 by the merges at 0 and at 2,
# 4 their x; then the merge at 6 folds 4 into 7, 4 its z
MERGED_AGAIN = ("9 11\n0 4\n0 1\n1 2\n2 3\n3 5\n6 7\n6 4\n4 8\n5 7\n"
                "5 8\n7 8\n")


def outputs(graph, d, **options):
    r = run(graph, d, **options)
    return r.vertices.tobytes(), r.rounds, r.contractions


def backends_agree(monkeypatch, graph, d, seeds):
    for seed in seeds:
        for t in (0.0, 0.005, 0.02, 1.0):
            options = dict(seed=seed, thin_probability=t)
            monkeypatch.setattr(_kernels, "BACKEND", "c")
            in_c = outputs(graph, d, **options)
            monkeypatch.setattr(_kernels, "BACKEND", "python")
            assert outputs(graph, d, **options) == in_c, options


# 66, 130 (d = 3) and 65 (d = 4) straddle a 64-bit word of the engine's
# bit sets
@compiled
@pytest.mark.parametrize("n, d", [(n, d) for d in (3, 4)
                                  for n in (4, 6, 10, 64, 300, 2000)]
                         + [(66, 3), (130, 3), (65, 4)])
def test_c_engine_matches_python_methods(monkeypatch, n, d):
    for seed in range(10):
        backends_agree(monkeypatch, generate(n, d, seed=seed), d, [seed])


@compiled
@pytest.mark.parametrize("name", REGULAR)
def test_c_engine_matches_python_methods_on_multigraphs(monkeypatch, name):
    d, text = REGULAR[name]
    backends_agree(monkeypatch, load_edge_list(text), d, range(10))


def staircase(rng, threes: int = 0) -> Multigraph:
    """One vertex of each degree 3 .. 73, then `threes` more of degree 3
    (an even degree sum for an even `threes`), its half-edges paired at
    random (loops and parallel edges included)."""
    degrees = np.concatenate([np.arange(3, 74), np.full(threes, 3)])
    owner = rng.permutation(np.repeat(np.arange(degrees.size), degrees))
    pair = np.arange(owner.size, dtype=np.int64)
    pair[0::2] += 1
    pair[1::2] -= 1
    return Multigraph(n=degrees.size, owner=owner.astype(np.int64), pair=pair)


# the staircase padded with 1,300 vertices of degree 3 (n = 1,371): see
# test_c_engine_scans_many_degree_classes
PADDED_THREES = 1300


def staircases() -> list:
    """The staircase, and the staircase padded with PADDED_THREES."""
    return [staircase(np.random.default_rng(5), threes)
            for threes in (0, PADDED_THREES)]


def played_inputs() -> list:
    """The hand-built multigraphs, OVER_CAP, EMPTY_X, MERGED_AGAIN and 40
    random multigraphs, on which merges rename loops and parallel edges."""
    rng = np.random.default_rng(11)
    return [load_edge_list(text) for _, text in REGULAR.values()] \
        + [load_edge_list(text) for text in (OVER_CAP, EMPTY_X,
                                             MERGED_AGAIN)] \
        + [random_multigraph(rng, n, int(rng.integers(n, 3 * n)))
           for n in rng.integers(4, 20, size=40).tolist()]


def run_on(g, d, thin_probability, in_c) -> int:
    """A whole run of the survival graph g on one backend, one
    ``_kernels.is_run`` call or ``_drive``; returns its rounds."""
    if in_c:
        return _kernels.is_run(g, d, thin_probability,
                               PERSISTENCE_FRACTION)
    return _drive(g, d, thin_probability)


def whole_run(graph, d, key, thin_probability, in_c):
    """A whole run on one backend, under the key, which leaves no survivor;
    returns the decisions, degrees (frozen at death) and degree histogram
    it leaves, and its contractions and rounds."""
    g = SurvivalGraph(graph, key)
    rounds = run_on(g, d, thin_probability, in_c)
    assert g.survival_count == 0 and not any(g.alive)
    return (bytes(g.status), g.deg.tobytes(), g.counts.tobytes(),
            g.contractions, rounds)


def runs_agree(graph) -> None:
    """Whole runs in C and on the Python methods leave the same state, at
    d in {3, 4}, thin probabilities 0, 0.02 and 1, and keys 0-2."""
    for d in (3, 4):
        for t in (0.0, 0.02, 1.0):
            for key in range(3):
                assert whole_run(graph, d, key, t, True) \
                    == whole_run(graph, d, key, t, False), (d, t, key)


@compiled
def test_c_runs_match_python_methods_on_played_inputs():
    for graph in played_inputs():
        runs_agree(graph)


@compiled
def test_c_engine_scans_many_degree_classes():
    # 71 non-empty degree classes at the start, up to degree 73, so
    # len(counts) is 145 and the engine holds more than 128 class sets.  On
    # the staircase alone a class of one vertex is persistent, so each
    # round thins one class; padded with 1,300 3-vertices, none above class
    # 3 is, and the first round deletes every vertex above class 3 (d = 3)
    # or 5 (d = 4): a scan of 70 or 68 classes, more than one word's worth
    plain, padded = staircases()
    assert len(SurvivalGraph(plain).counts) > 128
    counts = SurvivalGraph(padded).counts
    assert is_local_algorithm._top_persistent(
        counts, padded.n, PERSISTENCE_FRACTION, 3) is None
    assert np.count_nonzero(counts[6:]) > 64
    for graph in (plain, padded):
        runs_agree(graph)


def test_agreement_inputs_reach_every_contract_branch(monkeypatch):
    """The inputs of the whole-run agreement tests reach each branch of
    contract and the over-cap deletion of settle, counted on the Python
    methods."""
    fired = collections.Counter()
    contract = SurvivalGraph.contract

    def counted(g, y):
        x, z = g.adj[y]
        fired["loop" if x == y else "twin" if x == z else
              "simplicial" if z in g.adj[x] else "merge"] += 1
        merged = contract(g, y)
        if merged is not None and g.deg[merged] > DEGREE_CAP:
            fired["over_cap"] += 1
        return merged

    monkeypatch.setattr(SurvivalGraph, "contract", counted)
    for graph in played_inputs() + staircases():
        for d in (3, 4):
            for t in (0.0, 0.02, 1.0):
                whole_run(graph, d, 0, t, False)
    assert min(fired[kind] for kind in
               ("loop", "twin", "simplicial", "merge", "over_cap")) > 0, \
        fired


def test_merges_extend_an_empty_list_and_merge_merged_vertices(
        monkeypatch):
    """On the Python methods, at d = 3 (no round deletes a vertex of
    these graphs, so settle makes every merge): EMPTY_X's merge extends a
    list that is empty once y is gone, and MERGED_AGAIN's vertex 4 is the
    x of two merges, then the z of a third.  Each merge is (x, y, z, the
    length of x's list before it)."""
    merges = []
    contract = SurvivalGraph.contract

    def logged(g, y):
        x, z = g.adj[y]
        length = len(g.adj[x])
        merged = contract(g, y)
        if merged is not None:
            merges.append((x, y, z, length))
        return merged

    monkeypatch.setattr(SurvivalGraph, "contract", logged)
    for text, expected in ((EMPTY_X, [(1, 0, 2, 1)]),
                           (MERGED_AGAIN, [(4, 0, 1, 3), (4, 2, 3, 3),
                                           (7, 6, 4, 3)])):
        for t in (0.0, 0.02, 1.0):
            merges.clear()
            whole_run(load_edge_list(text), 3, 0, t, False)
            assert merges == expected, t


def test_a_survival_graph_keeps_no_reference_to_its_graph():
    # the survival graph keeps its own neighbour array, not the Multigraph
    # it was built from, with or without labels: a run holds no pairing of
    # its own
    for labels in (None, np.arange(64, dtype=np.int32)[::-1].copy()):
        graph = generate(64, 3, seed=0)
        ref = weakref.ref(graph)
        g = SurvivalGraph(graph, 0, labels)
        del graph
        assert ref() is None
        assert run_on(g, 3, THIN_PROBABILITY, _kernels.BACKEND == "c") > 0


@pytest.mark.parametrize("d", [3, 4])
def test_the_run_s_survival_graph_is_that_of_the_renamed_graph(
        monkeypatch, d):
    # run() builds its survival graph from the caller's pairing and the
    # labels in one pass: before the first round it equals the survival
    # graph of the graph renamed by the labels, array for array, and the
    # caller's graph is left as it was
    seen = []
    drive = is_local_algorithm._drive

    def recorded(g, *args):
        seen.append((g.nbr.copy(), g.deg.tobytes(), g.counts.tobytes(),
                     list(g.queue), g.survival_count, g.key))
        return drive(g, *args)

    monkeypatch.setattr(_kernels, "BACKEND", "python")
    monkeypatch.setattr(is_local_algorithm, "_drive", recorded)
    graphs = [load_edge_list(text) for k, text in REGULAR.values() if k == d]
    graphs += [generate(n, d, seed=n) for n in (4, 300, 5000)]
    for seed, graph in enumerate(graphs):
        pair = graph.pair.copy()
        run(graph, d, seed=seed)
        nbr, *rest = seen.pop()
        assert nbr.dtype == np.int32
        assert np.array_equal(graph.pair, pair)
        key, labels = _kernels.run_labels(graph.n, seed)
        want = SurvivalGraph(graph.renamed(labels), key)
        assert np.array_equal(nbr, want.nbr)
        assert rest == [want.deg.tobytes(), want.counts.tobytes(),
                        list(want.queue), want.survival_count, want.key]


def test_only_a_regular_graph_is_renamed_into_a_survival_graph():
    graph = load_edge_list(PATH3)
    with pytest.raises(ValueError, match="regular"):
        SurvivalGraph(graph, 0, np.arange(3, dtype=np.int32))


@compiled
def test_c_run_builds_no_per_vertex_lists():
    g = SurvivalGraph(generate(64, 3, seed=0), 0)
    assert run_on(g, 3, THIN_PROBABILITY, True) > 0
    assert "adj" not in vars(g) and not g.merges and g.contractions > 0
    assert decided(g, UNDECIDED) == [] and decided(g, IN) != []


@compiled
@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("t", [0.0, 0.005, 0.02, 1.0])
def test_backends_leave_the_generator_in_one_state(monkeypatch, d, t):
    # a run's only draws from its numpy Generator are its key and labels,
    # drawn once by run_labels before the process is built; both backends
    # draw every pick from the key and the renamed ids alike.  The rounds
    # have no cap: one that removes nothing is followed by a forced
    # deletion, so the survival count that each round's class pick reads
    # falls every round, and a run ends within n rounds (recorded on the
    # Python ladder, which the C run must then match round for round).  At
    # t = 0 a thinning round marks nothing and takes that path; at 0.005
    # and 0.02 forced deletions fall between rounds that mark
    starts, drawn = [], []
    top_persistent = is_local_algorithm._top_persistent
    run_labels = _kernels.run_labels

    def recorded(counts, survival, *rest):
        starts.append(survival)
        return top_persistent(counts, survival, *rest)

    def labelled(n, seed):
        drawn.append((n, seed))
        return run_labels(n, seed)

    monkeypatch.setattr(is_local_algorithm, "_top_persistent", recorded)
    monkeypatch.setattr(_kernels, "run_labels", labelled)
    for seed in range(3):
        graph = generate(2000, d, seed=seed)
        ends = []
        for backend in ("python", "c"):
            monkeypatch.setattr(_kernels, "BACKEND", backend)
            starts.clear()
            drawn.clear()
            r = run(graph, d, seed=seed, thin_probability=t)
            ends.append((r.vertices.tobytes(), r.contractions, r.rounds))
            assert drawn == [(graph.n, seed)]
            if backend == "python":
                assert 0 < len(starts) == r.rounds <= graph.n
                assert all(a > b for a, b in zip(starts, starts[1:]))
        assert starts == []  # C ran every round
        assert ends[0] == ends[1]


class RecordedDraws:
    """``_kernels.draw``, logging each call in order: ("marks", size) for
    a round's marks, and ("forced", m) for a pick with no label, which
    only the forced deletion makes, over the m members of g's top
    non-empty class; those members go to ``classes``.  ``draw`` gives the
    values drawn, by default the real ones."""

    def __init__(self, g, draw=_kernels.draw):
        self.g, self.draw = g, draw
        self.draws, self.classes = [], []

    @property
    def sizes(self) -> list:
        return [len(members) for members in self.classes]

    def __call__(self, key, t, purpose, ids=None):
        if ids is None:
            top = max(k for k, c in enumerate(self.g.counts) if c)
            self.classes.append(self.g.scan(top, top).tolist())
            self.draws.append(("forced", len(self.classes[-1])))
        else:
            self.draws.append(("marks", ids.shape[0]))
        return self.draw(key, t, purpose, ids)


# 65 (d = 4) and 66 straddle a 64-bit word of the engine's bit sets
@compiled
@pytest.mark.parametrize("n, d", [(n, d) for d in (3, 4)
                                  for n in (4, 6, 66, 2000)] + [(65, 4)])
def test_forced_deletions_draw_as_rng_choice(monkeypatch, n, d):
    # at t = 0 every thinning of a persistent class stalls, so forced
    # deletions come often: the C pick (one draw, also for a one-member
    # class) must take the member that the Python ladder's pick takes.
    # The keys are those that runs of the seeds draw
    sizes = []
    for seed in range(8):
        graph = generate(n, d, seed=seed)
        key, _ = _kernels.run_labels(n, seed)
        python = SurvivalGraph(graph, key)
        recorded = RecordedDraws(python)
        with monkeypatch.context() as m:
            m.setattr(_kernels, "draw", recorded)
            rounds = _drive(python, d, 0.0)
        sizes += recorded.sizes
        g = SurvivalGraph(graph, key)
        assert run_on(g, d, 0.0, True) == rounds, seed
        assert bytes(g.status) == bytes(python.status), seed
    # both kinds of forced pick ran: from one member and from several
    assert 1 in sizes and max(sizes) > 1, sizes


@pytest.mark.parametrize("d", [3, 4])
def test_a_round_with_nothing_to_thin_or_probe_draws_nothing(monkeypatch, d):
    # a d-regular graph has no class above d and no 3-vertex: its first
    # round deletes everything above class d, which is nothing, with no
    # draw, and the forced deletion that follows picks one of all n
    # vertices by one draw with no label
    top_persistent = is_local_algorithm._top_persistent
    for seed in range(3):
        g = SurvivalGraph(generate(2000, d, seed=seed), seed)
        recorded = RecordedDraws(g)

        def logged(counts, survival, *rest):
            recorded.draws.append(("round", survival))
            return top_persistent(counts, survival, *rest)

        monkeypatch.setattr(is_local_algorithm, "_top_persistent", logged)
        monkeypatch.setattr(_kernels, "draw", recorded)
        _drive(g, d, THIN_PROBABILITY)
        assert recorded.draws[:2] == [("round", 2000), ("forced", 2000)], \
            seed
        assert recorded.draws[2][0] == "round", seed


# the largest draw, 1 - 2^-53
U_MAX = float(np.nextafter(1.0, 0.0))


def last_draws(key, t, purpose, ids=None):
    """A stub of ``_kernels.draw`` whose every draw is U_MAX."""
    return U_MAX if ids is None else np.full(ids.shape[0], U_MAX)


@pytest.mark.parametrize("n, d", [(n, d) for d in (3, 4)
                                  for n in (64, 2000)])
def test_the_largest_draw_forces_the_last_member_of_its_class(
        monkeypatch, n, d):
    # int(u * m) stays below m at the largest u, also when m is a power of
    # two (the first forced deletion picks from all n vertices, and
    # U_MAX * 64 is 64 - 2^-47 exactly): each forced deletion takes the
    # last member of its class.  No mark falls below 0.02, so every round
    # with a class to thin stalls
    g = SurvivalGraph(generate(n, d, seed=0))
    recorded = RecordedDraws(g, last_draws)
    monkeypatch.setattr(_kernels, "draw", recorded)
    deleted = []
    delete = g.delete

    def logged(v):
        if len(deleted) < len(recorded.classes):
            deleted.append(v)  # the first deletion after a forced pick
        delete(v)

    g.delete = logged
    _drive(g, d, THIN_PROBABILITY)
    assert deleted == [members[-1] for members in recorded.classes]
    assert recorded.sizes[0] == n and len(recorded.sizes) > 1


# -- relabelling: a whole run is a function of the labelled graph -----------

@contextlib.contextmanager
def carried_labels(pi):
    """Within: each run keeps the key it draws, and vertex pi[v] takes the
    label that v draws, as if the graph's ids had been relabelled by pi
    with the labels carried along."""
    run_labels = _kernels.run_labels

    def carried(n, seed):
        key, labels = run_labels(n, seed)
        moved = np.empty_like(labels)
        moved[pi] = labels
        return key, moved

    _kernels.run_labels = carried
    try:
        yield
    finally:
        _kernels.run_labels = run_labels


def survival_graph_of(graph, seed) -> tuple:
    """The survival graph that ``run`` builds for a run of the seed on the
    graph, which it renames by the run's labels, and the labels."""
    key, labels = _kernels.run_labels(graph.n, seed)
    return SurvivalGraph(graph, key, labels), labels


@pytest.mark.parametrize("d", [3, 4])
def test_a_round_s_marks_commute_with_relabelling(d):
    # a thinning's marks are a function of the labels alone: on the graph
    # relabelled by pi, carrying its labels, the first thinning of class d
    # of the survival graph that run() builds deletes the images of the
    # vertices it deletes on the original, in the same order, so each
    # vertex's image is left with its degree, dead or alive
    for seed in range(3):
        graph = generate(2000, d, seed=seed)
        pi = np.random.default_rng(seed).permutation(graph.n)
        g, labels = survival_graph_of(graph, seed)
        with carried_labels(pi):
            h, moved = survival_graph_of(relabelled(graph, pi), seed)
        for survival in (g, h):
            survival.thin(0, d, 0.1)
        status = np.frombuffer(g.status, np.uint8)[labels]
        assert 100 < np.count_nonzero(status == OUT) < 300
        assert np.array_equal(
            np.frombuffer(h.status, np.uint8)[moved][pi], status)
        assert np.array_equal(np.frombuffer(h.deg, np.int64)[moved][pi],
                              np.frombuffer(g.deg, np.int64)[labels])


def relabelled_run_difference(graph, d, seed, pi) -> float:
    """The fraction of vertices whose decision in a whole run differs from
    the decision of their image in the run on the graph relabelled by pi
    with the labels carried along: how much the run depends on the ids."""
    chosen = np.zeros((2, graph.n), dtype=bool)
    chosen[0, run(graph, d, seed=seed).vertices] = True
    with carried_labels(pi):
        chosen[1, run(relabelled(graph, pi), d, seed=seed).vertices] = True
    return float(np.mean(chosen[1, pi] != chosen[0]))


def test_relabelling_by_the_identity_changes_no_decision():
    graph = generate(2000, 3, seed=0)
    assert relabelled_run_difference(graph, 3, 0, np.arange(graph.n)) == 0


@compiled
@pytest.mark.parametrize("d", [3, 4])
def test_whole_runs_commute_with_relabelling(d):
    # the run renames each vertex by its label, so a relabelled graph with
    # its labels carried along is run as the same graph: not one decision
    # moves, under three permutations and two seeds
    graph = generate(20_000, d, seed=d)
    for i in range(3):
        pi = np.random.default_rng(100 + i).permutation(graph.n)
        for seed in range(2):
            assert relabelled_run_difference(graph, d, seed, pi) == 0


@pytest.mark.parametrize("d", [3, 4])
def test_whole_runs_commute_with_relabelling_on_the_python_path(
        monkeypatch, d):
    # the same on the Python methods, whose runs are the C engine's; at
    # n = 20000 the engine's class sets span five summary words of 4096
    # vertices, so its scans walk summaries past the first word
    for n in (3000, 20_000):
        graph = generate(n, d, seed=d)
        pi = np.random.default_rng(7).permutation(graph.n)
        outputs = []
        for backend in dict.fromkeys(("python", _kernels.BACKEND)):
            monkeypatch.setattr(_kernels, "BACKEND", backend)
            assert relabelled_run_difference(graph, d, 1, pi) == 0
            r = run(graph, d, seed=1)
            outputs.append((r.vertices.tobytes(), r.rounds, r.contractions))
        assert outputs[0] == outputs[-1], n


# the no-correction is3 evolution's final at step 1e-7 (test_acceptance
# pins it); its finite counterpart is the ladder at thin probability 0,
# where no round marks a vertex and each forced deletion takes one random
# vertex of the top class
IS3_PLAIN_FINAL = 0.4453115


@compiled
def test_the_sequential_is3_run_lands_on_the_evolution():
    ratios = [run(generate(100000, 3, seed=s), 3, seed=s,
                  thin_probability=0.0).ratio for s in range(20)]
    stderr = np.std(ratios, ddof=1) / np.sqrt(len(ratios))
    assert abs(np.mean(ratios) - IS3_PLAIN_FINAL) < 3 * stderr, \
        (np.mean(ratios), stderr)


def test_persistence_threshold_rounds_half_up():
    """On 1,250 vertices, two of degree 4 and the rest of degree 3, the
    first round's threshold is 0.002 * 1250 = 2.5 rounded half up, 3, so
    no class above 3 is persistent and the first round deletes both
    4-vertices outright, with no draw; rounding half to even would give 2
    and a thinning of class 4 instead.  The C ladder must round as the
    Python ladder does."""
    assert PERSISTENCE_FRACTION * 1250 == 2.5
    assert is_local_algorithm._top_persistent(
        [0, 0, 0, 1247, 3], 1250, PERSISTENCE_FRACTION, 3) == 4
    for seed in range(3):
        rng = np.random.default_rng(seed)
        degrees = np.array([4, 4] + [3] * 1248)
        owner = rng.permutation(np.repeat(np.arange(1250), degrees))
        pair = np.arange(owner.size, dtype=np.int64)
        pair[0::2] += 1
        pair[1::2] -= 1
        graph = Multigraph(n=1250, owner=owner.astype(np.int64), pair=pair)
        python = SurvivalGraph(graph, seed)
        assert is_local_algorithm._top_persistent(
            python.counts, 1250, PERSISTENCE_FRACTION, 3) is None
        rounds = _drive(python, 3, THIN_PROBABILITY)
        if _kernels.BACKEND != "c":
            continue
        g = SurvivalGraph(graph, seed)
        assert run_on(g, 3, THIN_PROBABILITY, True) == rounds
        assert bytes(g.status) == bytes(python.status)


@compiled
def test_a_c_run_is_one_engine_call(monkeypatch):
    # the ladder runs in C: the engine calls of a run do not grow with its
    # rounds
    calls = []
    shared = _kernels._run

    def counted(name, entry, *args):
        calls.append(entry)
        return shared(name, entry, *args)

    monkeypatch.setattr(_kernels, "_run", counted)
    rounds = []
    for n, d, t in ((64, 3, 0.02), (2000, 3, 0.0), (2000, 4, 0.005)):
        calls.clear()
        rounds.append(run(generate(n, d, seed=1), d, seed=1,
                          thin_probability=t).rounds)
        assert calls == [_kernels._lib.is_run], (n, d, t)
    assert len(set(rounds)) == 3 and max(rounds) > 100, rounds


@pytest.mark.parametrize("in_c", [False, pytest.param(True, marks=compiled)],
                         ids=["python", "c"])
def test_a_second_decision_of_one_vertex_fails(in_c):
    # a vertex decided while still in the graph fails when the run decides
    # it again
    g = load_edge_list(K4)
    survival = SurvivalGraph(g)
    survival.status[1] = IN
    with pytest.raises(AssertionError):
        run_on(survival, 3, THIN_PROBABILITY, in_c)
    # and a vertex left undecided fails the unfolding: here the survival
    # count reads 0, so no round runs, while no vertex is decided
    survival = SurvivalGraph(g)
    survival.survival_count = 0
    with pytest.raises(AssertionError):
        run_on(survival, 3, THIN_PROBABILITY, in_c)
    assert decided(survival, UNDECIDED) == [0, 1, 2, 3]


def failed_run(graph, v, in_c):
    """A 3-regular run on one backend of a survival graph whose vertex v
    was decided in before the run, which fails when the run decides v
    again; returns what the failed run leaves: the decisions, degrees,
    histogram and live flags, and the survival and contraction counts."""
    g = SurvivalGraph(graph, 0)
    g.status[v] = IN
    with pytest.raises(AssertionError):
        run_on(g, 3, THIN_PROBABILITY, in_c)
    return (bytes(g.status), g.deg.tobytes(), g.counts.tobytes(),
            bytes(g.alive), g.survival_count, g.contractions)


def test_the_merge_log_is_read_once_every_vertex_is_out():
    # the merge log is read only once every vertex is out of the graph
    g = SurvivalGraph(load_edge_list(K4))
    g.deletes(np.array([0, 1, 2]))
    with pytest.raises(AssertionError):
        g.unfold_merges()
    g = SurvivalGraph(load_edge_list(K4))
    g.deletes(np.array([0, 1, 2, 3]))
    g.unfold_merges()
    assert decided(g, OUT) == [0, 1, 2, 3]
    # reading the log a second time decides its vertices again: C4 settles
    # by one true merge, then a twin contraction
    g = SurvivalGraph(load_edge_list(C4))
    g.settle()
    g.unfold_merges()
    assert decided(g, UNDECIDED) == [] and len(decided(g, IN)) == 2
    with pytest.raises(AssertionError):
        g.unfold_merges()


@compiled
def test_c_engine_checks_its_calls():
    # a degree class out of the histogram's range is refused before the
    # engine is built
    g = SurvivalGraph(load_edge_list(K4))
    for d in (-1, len(g.counts)):
        with pytest.raises(IndexError):
            _kernels.is_run(g, d, 0.5, 0.5)
    assert g.survival_count == 4 and decided(g, UNDECIDED) == [0, 1, 2, 3]
