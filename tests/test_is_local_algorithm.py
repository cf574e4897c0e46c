"""Contraction bookkeeping, cascade behavior, and full independent-set runs."""
import collections
import contextlib
import copy

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
    THIN_PROBABILITY,
    UNDECIDED,
    IsRunResult,
    SurvivalGraph,
    _drive,
    run,
    verify_independent,
)

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
    assert a.vertices == b.vertices and a.rounds == b.rounds


def test_run_output_is_always_independent():
    for seed in range(6):
        g = generate(300, 3, seed=seed)
        res = run(g, 3, seed=seed)
        assert verify_independent(g, res.vertices)
        assert len(set(res.vertices)) == res.size
        assert res.vertices == sorted(res.vertices)


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
    assert res.size == len(res.vertices)
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


def outputs(graph, d, **options):
    r = run(graph, d, **options)
    return r.vertices, r.rounds, r.contractions


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


def engine_state(g, engine):
    if engine is g:
        counters = (g.survival_count, g.contractions)
    else:
        counters = tuple(engine.counts)
    return (bytes(g.alive), g.deg.tobytes(), g.counts.tobytes(),
            bytes(g.status), counters)


def engine_for(g, in_c):
    """The C engine over g, or g itself, as a context manager."""
    if in_c:
        return _kernels.IsEngine(g, DEGREE_CAP)
    return contextlib.nullcontext(g)


def play(graph, opening, seed, in_c):
    """Delete the opening's vertices, then random live ones, one at a time
    and settling after each, on one backend; returns the state after every
    step."""
    g = SurvivalGraph(graph)
    with engine_for(g, in_c) as engine:
        return play_on(g, engine, opening, seed)


def check_scans(g, engine):
    """The engine's class scans, of each degree k alone and of the classes
    above each k, equal the numpy scans over the shared deg and alive
    buffers; a scan of class k has counts[k] ids (a C class set whose size
    is not counts[k] fails the scan)."""
    last = len(g.counts) - 1
    ranges = [(k, k) for k in range(last + 1)] \
        + [(k + 1, last) for k in range(last)]
    for lo, hi in ranges:
        found = engine.scan(lo, hi)
        assert found.dtype == np.int64
        assert found.tolist() == g.scan(lo, hi).tolist(), (lo, hi)
    assert [engine.scan(k, k).shape[0]
            for k in range(last + 1)] == g.counts.tolist()


def play_on(g, engine, opening, seed):
    rng = np.random.default_rng(seed)

    def step():
        engine.settle()
        check_scans(g, engine)
        states.append(engine_state(g, engine))

    states = []
    check_scans(g, engine)
    step()
    for v in opening:
        engine.deletes(np.array([v]))
        step()
    while any(g.alive):
        live = np.flatnonzero(np.frombuffer(g.alive, np.bool_))
        engine.deletes(np.array([rng.choice(live)]))
        check_scans(g, engine)
        step()
    engine.unfold_merges()
    states.append(engine_state(g, engine))
    return states


PLAYED = [(load_edge_list(text), ()) for _, text in REGULAR.values()] \
    + [(load_edge_list(OVER_CAP), (1,))]


@compiled
def test_c_engine_matches_python_methods_step_by_step():
    rng = np.random.default_rng(11)
    games = PLAYED + [(random_multigraph(rng, n, int(rng.integers(n, 3 * n))),
                       ()) for n in rng.integers(4, 20, size=40).tolist()]
    for graph, opening in games:
        for seed in range(10):
            assert play(graph, opening, seed, True) \
                == play(graph, opening, seed, False)


def staircase(rng) -> Multigraph:
    """One vertex of each degree 3 .. 73 (an even degree sum), its
    half-edges paired at random (loops and parallel edges included)."""
    degrees = np.arange(3, 74)
    owner = rng.permutation(np.repeat(np.arange(degrees.size), degrees))
    pair = np.arange(owner.size, dtype=np.int64)
    pair[0::2] += 1
    pair[1::2] -= 1
    return Multigraph(n=degrees.size, owner=owner.astype(np.int64), pair=pair)


@compiled
def test_c_engine_scans_many_degree_classes():
    # 71 non-empty degree classes at the start, up to degree 73, so
    # len(counts) is 145: the first scans above class 2 read more than 64
    # classes, and the engine holds more than 128
    graph = staircase(np.random.default_rng(5))
    assert len(SurvivalGraph(graph).counts) > 128
    for seed in range(3):
        assert play(graph, (), seed, True) == play(graph, (), seed, False)


def test_agreement_inputs_reach_every_contract_branch(monkeypatch):
    """The hand-built inputs of the agreement tests reach each branch of
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
    monkeypatch.setattr(_kernels, "BACKEND", "python")
    for d, text in REGULAR.values():
        outputs(load_edge_list(text), d, seed=0)
    assert min(fired[kind] for kind in
               ("loop", "twin", "simplicial", "merge")) > 0, fired
    assert fired["over_cap"] == 0
    play(*PLAYED[-1], 0, False)
    assert fired["over_cap"] == 1


def run_in_c(g, rng, d, thin_probability):
    """A whole run of g in its C engine, which closes once the run is
    over; returns the rounds run."""
    with _kernels.IsEngine(g, DEGREE_CAP) as engine:
        return engine.run(rng, d, thin_probability,
                          is_local_algorithm.BOOTSTRAP_PROBABILITY,
                          is_local_algorithm.PERSISTENCE_FRACTION)


@compiled
def test_c_run_builds_no_per_vertex_lists():
    g = SurvivalGraph(generate(64, 3, seed=0))
    rng = np.random.default_rng(0)
    assert run_in_c(g, rng, 3, THIN_PROBABILITY) > 0
    assert "adj" not in vars(g) and not g.merges and g.contractions > 0
    assert decided(g, UNDECIDED) == [] and decided(g, IN) != []


def drive_to_the_end(graph, d, seed, thin_probability, in_c):
    """A full run on one backend, which leaves no survivor; returns its
    outputs and the state it leaves its generator in."""
    g = SurvivalGraph(graph)
    rng = np.random.default_rng(seed)
    if in_c:
        rounds = run_in_c(g, rng, d, thin_probability)
    else:
        rounds = _drive(g, rng, d, thin_probability)
    assert g.survival_count == 0
    return bytes(g.status), rounds, rng.bit_generator.state


@compiled
@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("t", [0.0, 0.005, 0.02, 1.0])
def test_backends_leave_the_generator_in_one_state(monkeypatch, d, t):
    # C draws from numpy's bit generator: exactly the draws the Python
    # rounds make, so a full run leaves the generator in one state.  The
    # rounds have no cap: one that removes nothing is followed by a forced
    # deletion, so the survival count that each round's class pick reads
    # falls every round, and a run ends within n rounds (recorded on the
    # Python ladder, which the C run must then match round for round).  At
    # t = 0 a thinning round marks nothing and takes that path; at 0.005
    # and 0.02 the forced draws' next_uint32 calls fall between the marks'
    # next_double calls
    starts = []
    top_persistent = is_local_algorithm._top_persistent

    def recorded(counts, survival, *rest):
        starts.append(survival)
        return top_persistent(counts, survival, *rest)

    monkeypatch.setattr(is_local_algorithm, "_top_persistent", recorded)
    for seed in range(3):
        graph = generate(2000, d, seed=seed)
        starts.clear()
        in_python = drive_to_the_end(graph, d, seed, t, False)
        assert 0 < len(starts) == in_python[1] <= graph.n
        assert all(a > b for a, b in zip(starts, starts[1:]))
        assert drive_to_the_end(graph, d, seed, t, True) == in_python
        assert in_python[2] != np.random.default_rng(seed).bit_generator.state


class RecordedChoices:
    """A Generator's random and choice, recording the size of each array
    that choice draws from: what the Python ladder reads of its rng."""

    def __init__(self, rng):
        self.rng = rng
        self.sizes = []

    def random(self, size):
        return self.rng.random(size)

    def choice(self, members):
        self.sizes.append(len(members))
        return self.rng.choice(members)


# 65 (d = 4) and 66 straddle a 64-bit word of the engine's bit sets
@compiled
@pytest.mark.parametrize("n, d", [(n, d) for d in (3, 4)
                                  for n in (4, 6, 66, 2000)] + [(65, 4)])
def test_forced_deletions_draw_as_rng_choice(n, d):
    # at t = 0 every thinning of a persistent class stalls, so forced
    # deletions come often: the C draw (numpy's bounded Lemire draw on
    # next_uint32, none for a one-member class) must pick the member
    # rng.choice picks and leave the generator where rng.choice leaves it
    sizes = []
    for seed in range(5):
        graph = generate(n, d, seed=seed)
        python = SurvivalGraph(graph)
        rng = RecordedChoices(np.random.default_rng(seed))
        rounds = _drive(python, rng, d, 0.0)
        sizes += rng.sizes
        g = SurvivalGraph(graph)
        in_c = np.random.default_rng(seed)
        assert run_in_c(g, in_c, d, 0.0) == rounds, seed
        assert bytes(g.status) == bytes(python.status), seed
        assert in_c.bit_generator.state == rng.rng.bit_generator.state, seed
    # both kinds of forced draw ran: from one member and from several
    assert 1 in sizes and max(sizes) > 1, sizes


def test_persistence_threshold_rounds_half_to_even():
    """On 1,250 vertices, two of degree 4 and the rest of degree 3, the
    first round's threshold is round(0.002 * 1250) = round(2.5) = 2, so it
    thins class 4; rounding half up would give 3 and a bootstrap thinning
    of class 3 instead.  The C ladder must round as Python does."""
    assert is_local_algorithm.PERSISTENCE_FRACTION * 1250 == 2.5
    for seed in range(3):
        rng = np.random.default_rng(seed)
        degrees = np.array([4, 4] + [3] * 1248)
        owner = rng.permutation(np.repeat(np.arange(1250), degrees))
        pair = np.arange(owner.size, dtype=np.int64)
        pair[0::2] += 1
        pair[1::2] -= 1
        graph = Multigraph(n=1250, owner=owner.astype(np.int64), pair=pair)
        python = SurvivalGraph(graph)
        assert is_local_algorithm._top_persistent(
            python.counts, 1250, is_local_algorithm.PERSISTENCE_FRACTION,
            3) == 4
        python_rng = np.random.default_rng(seed)
        rounds = _drive(python, python_rng, 3, THIN_PROBABILITY)
        if _kernels.BACKEND != "c":
            continue
        g = SurvivalGraph(graph)
        c_rng = np.random.default_rng(seed)
        assert run_in_c(g, c_rng, 3, THIN_PROBABILITY) == rounds
        assert bytes(g.status) == bytes(python.status)
        assert c_rng.bit_generator.state == python_rng.bit_generator.state


@compiled
def test_a_c_run_is_one_engine_call(monkeypatch):
    # the ladder runs in C: the engine calls of a run do not grow with its
    # rounds
    calls = []
    engine_run = _kernels._Engine._run

    def counted(engine, entry, *args):
        calls.append(entry)
        return engine_run(engine, entry, *args)

    monkeypatch.setattr(_kernels._Engine, "_run", counted)
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
    g = SurvivalGraph(load_edge_list(K4))
    g.status[1] = IN  # decided while still in the graph
    with engine_for(g, in_c) as engine:
        with pytest.raises(AssertionError):
            engine.deletes(np.array([1]))
    # the merge log is read only once every vertex is out of the graph
    g = SurvivalGraph(load_edge_list(K4))
    with engine_for(g, in_c) as engine:
        engine.deletes(np.array([0, 1, 2]))
        with pytest.raises(AssertionError):
            engine.unfold_merges()
    g = SurvivalGraph(load_edge_list(K4))
    with engine_for(g, in_c) as engine:
        engine.deletes(np.array([0, 1, 2, 3]))
        engine.unfold_merges()
        assert decided(g, OUT) == [0, 1, 2, 3]
    # reading the log a second time decides its vertices again: C4 settles
    # by one true merge, then a twin contraction
    g = SurvivalGraph(load_edge_list(C4))
    with engine_for(g, in_c) as engine:
        engine.settle()
        engine.unfold_merges()
        assert decided(g, UNDECIDED) == [] and len(decided(g, IN)) == 2
        with pytest.raises(AssertionError):
            engine.unfold_merges()
    # and a vertex left undecided fails as well: here the survival count
    # reads 0 while no vertex is decided
    g = SurvivalGraph(load_edge_list(K4))
    with engine_for(g, in_c) as engine:
        if in_c:
            engine.counts[0] = 0
        else:
            g.survival_count = 0
        with pytest.raises(AssertionError):
            engine.unfold_merges()


@compiled
def test_c_engine_checks_its_calls():
    g = SurvivalGraph(load_edge_list(K4))
    rng = np.random.default_rng(0)
    with _kernels.IsEngine(g, DEGREE_CAP) as engine:
        for ids in ([1, 4], [-1]):
            with pytest.raises(IndexError):
                engine.deletes(np.array(ids))
        for d in (-1, len(g.counts)):
            with pytest.raises(IndexError):
                engine.run(rng, d, 0.5, 0.5, 0.5)
        engine.deletes(np.array([2]))
        assert not g.alive[2] and g.deg[0] == 2 and engine.survival_count == 3
        with pytest.raises(ValueError):
            engine.deletes(np.array([2]))  # as SurvivalGraph.delete
        for lo, hi in ((-1, 0), (3, 2), (0, len(g.counts))):
            with pytest.raises(IndexError):
                engine.scan(lo, hi)
    assert g.survival_count == 3
    for call in (engine.settle, engine.unfold_merges,
                 lambda: engine.scan(2, 2),
                 lambda: engine.run(rng, 3, 0.5, 0.5, 0.5)):
        with pytest.raises(ValueError, match="closed"):
            call()
    with pytest.raises(ValueError, match="closed"):
        engine.deletes(np.array([0]))
