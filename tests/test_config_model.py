"""Configuration-model generation, the half-edge order, and edge-list IO."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from girthlocal import config_model
from girthlocal.config_model import (
    Multigraph,
    generate,
    load_edge_list,
    save_edge_list,
)
from girthlocal.cut_local_algorithm import count_cut
from girthlocal.is_local_algorithm import verify_independent

TRIANGLE = "3 3\n0 1\n1 2\n2 0\n"
# loops and parallel edges, on lines not grouped by vertex
LOOP_CHAIN = "4 6\n0 0\n0 1\n1 2\n1 2\n2 3\n3 3\n"


def test_handshake_smallest_cubic():
    g = generate(2, 3, seed=0)
    assert g.n == 2
    assert g.edge_count == 3
    assert int(g.degrees().sum()) == 6


def test_four_vertices_give_six_edges():
    assert generate(4, 3, seed=123).edge_count == 6


@pytest.mark.parametrize("n,d", [(3, 3), (5, 3), (1, 4), (4, 2), (0, 3)])
def test_generate_rejects_bad_shapes(n, d):
    with pytest.raises(ValueError):
        generate(n, d, seed=0)


def test_generate_is_regular_and_reproducible():
    a = generate(60, 4, seed=7)
    b = generate(60, 4, seed=7)
    c = generate(60, 4, seed=8)
    assert np.array_equal(a.pair, b.pair)
    assert not np.array_equal(a.pair, c.pair)
    assert np.all(a.degrees() == 4)


def test_ids_are_32_bit():
    for g in (generate(60, 3, seed=1), load_edge_list(TRIANGLE)):
        for a in (g.owners(), g.pair, g.degrees()):
            assert a.dtype == np.int32


@pytest.mark.parametrize("build", [
    lambda: generate(2 ** 30, 4, 0),               # 2**32 half-edges
    lambda: generate(2 ** 31, 4, 0),               # 2**31 vertices
    lambda: load_edge_list("3000000000 0\n"),
    lambda: load_edge_list("4 1073741824\n"),      # 2**31 half-edges
    lambda: Multigraph(n=2 ** 31, owner=np.zeros(0, dtype=np.int64),
                       pair=np.zeros(0, dtype=np.int64)),
], ids=["generate_half_edges", "generate_vertices", "load_vertices",
        "load_half_edges", "multigraph_vertices"])
def test_graphs_too_large_for_32_bit_ids_fail_before_allocating(build):
    # each would ask for gigabytes before any check of its own
    with pytest.raises(ValueError, match=r"2\*\*31"):
        build()


def test_an_id_out_of_32_bit_range_raises_instead_of_wrapping():
    # 2**32 + 1 narrowed to int32 would read as 1, a valid owner
    with pytest.raises(ValueError, match="owner out of range"):
        Multigraph(n=2, owner=np.array([0, 2 ** 32 + 1], dtype=np.int64),
                   pair=np.array([1, 0]))
    with pytest.raises(ValueError, match="involution"):
        Multigraph(n=2, owner=np.array([0, 1]),
                   pair=np.array([2 ** 32 + 1, 0], dtype=np.int64))


@pytest.mark.parametrize("owner, pair", [
    (np.array([0.7, 0.2, 1.9, 1.1]), np.array([1, 0, 3, 2])),
    (np.array([0, 0, 1, 1]), np.array([1.0, 0.0, 3.0, 2.0])),
    (np.array([False, False, True, True]), np.array([1, 0, 3, 2])),
], ids=["float_owner", "float_pair", "bool_owner"])
def test_ids_that_are_not_integers_raise_instead_of_casting(owner, pair):
    # a float owner would be truncated to [0, 0, 1, 1], a valid graph
    with pytest.raises(ValueError, match="integer arrays"):
        Multigraph(n=2, owner=owner, pair=pair)


def test_half_edges_are_grouped_by_owner_in_the_given_order(monkeypatch):
    g = load_edge_list(LOOP_CHAIN)
    h = np.arange(g.pair.shape[0])
    assert np.all(np.diff(g.owners()) >= 0)
    assert np.all(g.pair[g.pair] == h) and np.all(g.pair != h)
    # each vertex's half-edges keep the file's line order
    lines = [tuple(map(int, ln.split()))
             for ln in LOOP_CHAIN.splitlines()[1:]]
    nbrs = [[] for _ in range(g.n)]
    for u, v in lines:
        nbrs[u].append(v)
        nbrs[v].append(u)
    assert g.neighbor_lists() == nbrs
    bounds = np.cumsum([0, *g.degrees()]).tolist()
    assert g.slot_lists() == [list(range(a, b))
                              for a, b in zip(bounds, bounds[1:])]
    owner = g.owners()
    assert [owner[g.pair[slots]].tolist()
            for slots in g.slot_lists()] == nbrs
    assert sorted(g.edges()) == sorted(
        (u, v) if u <= v else (v, u) for u, v in lines)
    # generate's half-edges are grouped by construction, d per vertex, so
    # it gives the graph its pairing and no owners; the graph keeps that
    # pairing, with no renumbering copy, and the owners derived from its
    # blocks are vertex v's d half-edges in order
    given = {}

    def recorded(n, pair, owner=None):
        given.update(owner=owner, pair=pair)
        return Multigraph(n=n, pair=pair, owner=owner)

    monkeypatch.setattr(config_model, "Multigraph", recorded)
    g = generate(1000, 3, seed=0)
    assert given["owner"] is None
    assert np.shares_memory(g.pair, given["pair"])
    assert np.array_equal(g.owners(), np.repeat(np.arange(1000), 3))


def test_a_generated_graph_is_the_graph_of_its_owners():
    # the blocks that generate's graph takes from n and d are those that
    # Multigraph derives from the owners d*[0], d*[1], ...: the same
    # pairing and block bounds, array for array
    for n, d in ((2, 3), (1000, 3), (999, 4), (5000, 4)):
        g = generate(n, d, seed=n)
        want = Multigraph(n=n, owner=np.repeat(np.arange(n), d),
                          pair=g.pair.copy())
        for name in ("pair", "_indptr"):
            a, b = getattr(g, name), getattr(want, name)
            assert a.dtype == b.dtype == np.int32, name
            assert np.array_equal(a, b) and not a.flags.writeable, name


@pytest.mark.parametrize("n, pair, match", [
    (3, np.array([1, 0, 3, 2]), "same number"),
    (2, np.array([1, 0, 3, 3]), "involution"),
    (1, np.array([0, 1]), "involution"),
    (2, np.array([1, 0, 3, 4]), "involution"),
    (2, np.array([1.0, 0.0, 3.0, 2.0]), "integer"),
    (2, np.array([1, 0, 2]), "even-length"),
], ids=["uneven", "not_an_involution", "fixed_point", "out_of_range",
        "float", "odd"])
def test_a_graph_given_without_owners_has_its_pairing_checked(n, pair,
                                                              match):
    # with no owner array the pairing's own checks still run, and the
    # half-edges must split evenly into the n blocks
    with pytest.raises(ValueError, match=match):
        Multigraph(n=n, pair=pair)


def relabelled(graph: Multigraph, pi: np.ndarray) -> Multigraph:
    """The graph with each vertex v renamed pi[v], for a permutation pi:
    Multigraph regroups the half-edges by their new owners, stably."""
    return Multigraph(n=graph.n, owner=pi[graph.owners()], pair=graph.pair)


def test_a_relabelled_graph_keeps_each_neighbour_list_in_order():
    # vertex pi[v] of the relabelled graph lists the images of v's
    # neighbours, loops and parallel edges included, in v's order
    rng = np.random.default_rng(6)
    for graph in (load_edge_list(LOOP_CHAIN), generate(300, 3, seed=1)):
        pi = rng.permutation(graph.n)
        nbrs = graph.neighbor_lists()
        moved = relabelled(graph, pi).neighbor_lists()
        assert all(moved[pi[v]] == [pi[w] for w in nbrs[v]]
                   for v in range(graph.n))


def renamed_graphs() -> list:
    """Regular graphs with loops and parallel edges, generated cubic and
    quartic ones, and the empty graph."""
    from test_cut_local_algorithm import MULTIGRAPHS
    return [load_edge_list(text) for text in (LOOP_CHAIN, "0 0\n",
                                              *MULTIGRAPHS.values())] \
        + [generate(n, d, seed=n) for d in (3, 4) for n in (2, 300, 2001)
           if n * d % 2 == 0]


def test_renamed_is_the_stable_regroup():
    # a regular graph renamed by a permutation is the validated, stably
    # regrouped relabelled graph, array for array and in its derived
    # owners; it shares the blocks, and is as read-only as any graph
    rng = np.random.default_rng(3)
    for graph in renamed_graphs():
        pi = rng.permutation(graph.n).astype(np.int32)
        got, want = graph.renamed(pi), relabelled(graph, pi)
        assert got.n == want.n
        for name in ("pair", "_indptr"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == np.int32 and np.array_equal(a, b), name
            assert not a.flags.writeable, name
        assert np.array_equal(got.owners(), want.owners())
        assert got._indptr is graph._indptr
        assert np.array_equal(graph.pair, relabelled(graph, pi).renamed(
            np.argsort(pi).astype(np.int32)).pair)


def test_renaming_a_relabelled_graph_with_its_labels_carried_is_one_graph():
    # vertex pi[v] of the relabelled graph, labelled as v, is renamed to
    # v's label with v's half-edges in v's order: the renamed graph does
    # not depend on the ids the graph came with
    rng = np.random.default_rng(4)
    for graph in renamed_graphs():
        pi = rng.permutation(graph.n)
        labels = rng.permutation(graph.n).astype(np.int32)
        carried = np.empty_like(labels)
        carried[pi] = labels
        assert np.array_equal(relabelled(graph, pi).renamed(carried).pair,
                              graph.renamed(labels).pair)


def test_only_a_regular_graph_is_renamed():
    for text in ("3 2\n0 1\n1 2\n", "4 5\n0 1\n1 2\n2 3\n3 0\n0 2\n"):
        graph = load_edge_list(text)
        with pytest.raises(ValueError, match="regular"):
            graph.renamed(np.arange(graph.n, dtype=np.int32))


def test_pairing_must_be_involution():
    with pytest.raises(ValueError):
        Multigraph(n=2, owner=np.array([0, 0, 1, 1]),
                   pair=np.array([1, 0, 3, 3]))
    with pytest.raises(ValueError):  # fixed point
        Multigraph(n=1, owner=np.array([0, 0]), pair=np.array([0, 1]))
    with pytest.raises(ValueError):  # owner out of range
        Multigraph(n=1, owner=np.array([0, 1]), pair=np.array([1, 0]))


def test_a_graph_keeps_its_pairing_and_blocks_alone():
    # no owner array: the ndarrays a graph holds are the int32 pairing,
    # contiguous even when given strided, and the n + 1 block bounds, and a
    # renamed graph holds the same
    graph = generate(1000, 3, seed=0)
    labels = np.random.default_rng(0).permutation(1000).astype(np.int32)
    strided = Multigraph(n=1000, pair=np.repeat(graph.pair, 2)[::2])
    for g in (graph, load_edge_list(LOOP_CHAIN), graph.renamed(labels),
              strided):
        arrays = {name: value for name, value in vars(g).items()
                  if isinstance(value, np.ndarray)}
        assert sorted(arrays) == ["_indptr", "pair"]
        assert g.pair.flags.c_contiguous
        h = g.pair.shape[0]
        assert sum(a.nbytes for a in arrays.values()) == \
            4 * h + 4 * (g.n + 1)


def test_vertex_of_finds_each_half_edge_s_block():
    # by binary search of the blocks, isolated vertices (empty blocks)
    # included, for int32 and int64 ids alike
    for g in (generate(300, 3, seed=2), load_edge_list(LOOP_CHAIN),
              load_edge_list("6 3\n5 1\n1 1\n5 3\n")):
        h = np.arange(g.pair.shape[0])
        for ids in (h, h.astype(np.int32)):
            assert np.array_equal(g.vertex_of(ids), g.owners())


def boundary_pairing() -> tuple:
    """(owner, pair) of 2B + 4 half-edges, B = BLOCK, two per vertex: a
    loop at each vertex but three, u, w and x, whose half-edges B-2 .. B+3
    are paired into a triangle.  Its edges u-w (half-edges B-1, B) and u-x
    (B-2, B+2) straddle the first block boundary, and w-x (B+1, B+3) lies
    in the second block."""
    b = config_model.BLOCK
    h = 2 * b + 4
    owner = np.arange(h) // 2
    pair = np.arange(h) ^ 1
    for s, t in ((b - 1, b), (b - 2, b + 2), (b + 1, b + 3)):
        pair[s], pair[t] = t, s
    return owner, pair


def whole_array_pairing_is_valid(pair: np.ndarray) -> bool:
    idx = np.arange(pair.size)
    return not (np.any(pair[pair] != idx) or np.any(pair == idx))


def test_the_pairing_check_sees_a_fault_across_a_block_boundary():
    # each pairing's only fault involves half-edges on both sides of the
    # boundary at BLOCK; the blockwise check rejects exactly the pairings
    # the whole-array rule rejects
    b = config_model.BLOCK
    owner, good = boundary_pairing()
    # B-1 -> B -> B-2 -> B+2 -> B-1: each step crosses the boundary, and
    # every half-edge paired within its own block is paired both ways
    crossing_cycle = good.copy()
    crossing_cycle[[b - 1, b, b - 2, b + 2]] = b, b - 2, b + 2, b - 1
    fixed = good.copy()  # B-1 and B fixed, B-2 paired with B+2
    fixed[[b - 1, b, b - 2, b + 2]] = b - 1, b, b + 2, b - 2
    fixed[[b + 1, b + 3]] = b + 3, b + 1
    assert [whole_array_pairing_is_valid(p)
            for p in (good, crossing_cycle, fixed)] == [True, False, False]
    Multigraph(n=b + 2, owner=owner, pair=good)
    for pair in (crossing_cycle, fixed):
        with pytest.raises(ValueError, match="involution"):
            Multigraph(n=b + 2, owner=owner, pair=pair)


def test_owners_out_of_order_only_across_a_block_boundary_are_regrouped():
    # half-edge B-1 moves from u to x, so the owners descend from B-1 to B
    # alone: the graph is regrouped by the stable sort, as the whole-array
    # rule regroups it
    b = config_model.BLOCK
    owner, pair = boundary_pairing()
    owner[b - 1] = owner[b + 2]
    g = Multigraph(n=b + 2, owner=owner, pair=pair)
    order = np.argsort(owner, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    assert np.array_equal(g.owners(), owner[order])
    assert np.array_equal(g.pair, rank[pair[order]])


def test_the_set_and_cut_checks_see_an_edge_across_a_block_boundary():
    # the only edge inside {u, w} or {u, x}, and the only cut edges of u
    # against the rest, straddle the boundary at BLOCK; each verdict and
    # count equals the whole-array rule's
    owner, pair = boundary_pairing()
    g = Multigraph(n=owner[-1] + 1, owner=owner, pair=pair)
    b = config_model.BLOCK
    u, w, x = (b - 2) // 2, b // 2, (b + 2) // 2
    owner = g.owners()
    partner = owner[g.pair]

    def independent(vertices):
        chosen = np.zeros(g.n, dtype=bool)
        chosen[vertices] = True
        return not np.any(chosen[owner] & chosen[partner]
                          & (owner != partner))

    for vertices in ([u, w], [u, x], [u], [0, u, g.n - 1]):
        assert verify_independent(g, vertices) == independent(vertices)
    assert [verify_independent(g, v) for v in ([u, w], [u, x], [u])] == [
        False, False, True]
    colors = np.zeros(g.n, dtype=np.int8)
    colors[u] = 1
    good = int(np.count_nonzero(colors[owner] != colors[partner])) // 2
    assert count_cut(g, colors) == (good, g.edge_count - good) == (
        2, g.edge_count - 2)


def test_neighbors_and_edges_on_triangle():
    g = load_edge_list(TRIANGLE)
    assert sorted(g.neighbor_lists()[0]) == [1, 2]
    assert g.degrees()[1] == 2
    assert sorted(tuple(sorted(e)) for e in g.edges()) == [
        (0, 1), (0, 2), (1, 2)]


@pytest.mark.parametrize("bad", [
    "",
    "x y\n",
    "2\n",
    "2 1\n0 5\n",      # index out of range
    "2 1\n0\n",        # malformed edge line
    "2 1\n0 one\n",
    "2 2\n0 1\n",      # fewer lines than promised
    "2 1\n0 1\n1 0\n",  # more lines than promised
    "2 -1\n",
])
def test_load_rejects_malformed(bad):
    with pytest.raises(ValueError):
        load_edge_list(bad)


def test_save_load_round_trip_on_random_graphs():
    for seed in range(5):
        g = generate(20, 3, seed=seed)
        text = save_edge_list(g)
        h = load_edge_list(text)
        assert h.n == g.n
        assert sorted(tuple(sorted(e)) for e in g.edges()) == \
            sorted(tuple(sorted(e)) for e in h.edges())
        assert save_edge_list(h) == text


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_round_trip_fixpoint(seed):
    g = generate(10, 3, seed=seed)
    text = save_edge_list(g)
    assert save_edge_list(load_edge_list(text)) == text


def test_defects_are_locally_rare_at_scale():
    g = generate(100_000, 3, seed=2024)
    defect = set()
    multiplicity = {}
    for u, v in g.edges():
        if u == v:
            defect.add(u)
        else:
            key = (u, v) if u < v else (v, u)
            multiplicity[key] = multiplicity.get(key, 0) + 1
    for (u, v), k in multiplicity.items():
        if k > 1:
            defect.update((u, v))
    ball = set(defect)
    nbrs = g.neighbor_lists()
    for _ in range(2):
        ball |= {w for v in ball for w in nbrs[v]}
    assert len(ball) / g.n < 0.01
