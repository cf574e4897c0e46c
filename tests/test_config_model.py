"""Configuration-model generation, defect statistics, and edge-list IO."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from girthlocal.config_model import (
    GraphStats,
    Multigraph,
    generate,
    load_edge_list,
    save_edge_list,
    stats,
)

TRIANGLE = "3 3\n0 1\n1 2\n2 0\n"


def petersen() -> Multigraph:
    lines = ["10 15"]
    for i in range(5):
        lines.append(f"{i} {(i + 1) % 5}")          # outer cycle
        lines.append(f"{5 + i} {5 + (i + 2) % 5}")  # inner pentagram
        lines.append(f"{i} {5 + i}")                # spokes
    return load_edge_list("\n".join(lines) + "\n")


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
        for a in (g.owner, g.pair, g.slot_array(), g.degrees()):
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


def test_pairing_must_be_involution():
    with pytest.raises(ValueError):
        Multigraph(n=2, owner=np.array([0, 0, 1, 1]),
                   pair=np.array([1, 0, 3, 3]))
    with pytest.raises(ValueError):  # fixed point
        Multigraph(n=1, owner=np.array([0, 0]), pair=np.array([0, 1]))
    with pytest.raises(ValueError):  # owner out of range
        Multigraph(n=1, owner=np.array([0, 1]), pair=np.array([1, 0]))


def test_neighbors_and_edges_on_triangle():
    g = load_edge_list(TRIANGLE)
    assert sorted(g.neighbor_lists()[0]) == [1, 2]
    assert g.degrees()[1] == 2
    assert sorted(tuple(sorted(e)) for e in g.edges()) == [
        (0, 1), (0, 2), (1, 2)]


def test_stats_on_hexagon():
    text = "6 6\n" + "".join(f"{i} {(i + 1) % 6}\n" for i in range(6))
    s = stats(load_edge_list(text))
    assert s == GraphStats(0, 0, 0, 0, 0)


def test_stats_counts_parallel_pairs():
    s = stats(load_edge_list("2 3\n0 1\n0 1\n0 1\n"))
    assert s.parallel_pairs == 3  # C(3,2)
    assert s.self_loops == 0 and s.cycles3 == 0


def test_stats_counts_loops():
    s = stats(load_edge_list("2 2\n0 0\n0 1\n"))
    assert s.self_loops == 1


def test_stats_triangle():
    assert stats(load_edge_list(TRIANGLE)).cycles3 == 1


def test_stats_petersen_five_cycles():
    s = stats(petersen())
    assert (s.cycles3, s.cycles4, s.cycles5) == (0, 0, 12)


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
