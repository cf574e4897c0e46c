"""Exhaustive oracles: fixed anchors, witness validity, naive cross-checks."""
import numpy as np
import pytest

from girthlocal import exact_oracle
from girthlocal.config_model import load_edge_list
from girthlocal.exact_oracle import (
    SmallGraph,
    from_multigraph,
    max_cut,
    max_independent_set,
)


def graph_of(text: str) -> SmallGraph:
    return from_multigraph(load_edge_list(text))


def cycle(k: int) -> SmallGraph:
    text = f"{k} {k}\n" + "".join(f"{i} {(i + 1) % k}\n" for i in range(k))
    return graph_of(text)


def petersen() -> SmallGraph:
    lines = ["10 15"]
    for i in range(5):
        lines.append(f"{i} {(i + 1) % 5}")
        lines.append(f"{5 + i} {5 + (i + 2) % 5}")
        lines.append(f"{i} {5 + i}")
    return graph_of("\n".join(lines) + "\n")


def naive_mis(g: SmallGraph) -> int:
    best = 0
    for mask in range(1 << g.n):
        m = mask
        ok = True
        while m:
            v = (m & -m).bit_length() - 1
            if g.nbr[v] & mask:
                ok = False
                break
            m &= m - 1
        if ok:
            best = max(best, mask.bit_count())
    return best


def naive_cut(g: SmallGraph) -> int:
    best = 0
    for mask in range(1 << max(g.n - 1, 0)):
        w = sum(w for u, v, w in g.edges
                if ((mask >> u) & 1) != ((mask >> v) & 1))
        best = max(best, w)
    return best


def random_graph(rng, n: int, p: float = 0.3) -> SmallGraph:
    nbr = [0] * n
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                w = 1 + int(rng.random() < 0.2)  # occasional parallel pair
                nbr[u] |= 1 << v
                nbr[v] |= 1 << u
                edges.append((u, v, w))
    return SmallGraph(n=n, nbr=nbr, edges=edges)


def check_independent(g: SmallGraph, picked) -> bool:
    mask = sum(1 << v for v in picked)
    return all(g.nbr[v] & mask == 0 for v in picked)


def test_five_cycle():
    size, picked = max_independent_set(cycle(5))
    assert size == 2
    assert len(picked) == 2 and check_independent(cycle(5), picked)


def test_petersen_independence():
    size, picked = max_independent_set(petersen())
    assert size == 4
    assert check_independent(petersen(), picked)


def test_empty_graph():
    size, picked = max_independent_set(graph_of("7 0\n"))
    assert size == 7 and picked == list(range(7))


def test_loops_do_not_block_selection():
    size, _ = max_independent_set(graph_of("2 2\n0 0\n0 1\n"))
    assert size == 1


def test_k4_cut():
    size, sides = max_cut(graph_of(
        "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"))
    assert size == 4
    assert sides[3] == 0


def test_even_cycle_is_bipartite():
    size, sides = max_cut(cycle(6))
    assert size == 6
    assert sides == [1, 0, 1, 0, 1, 0]  # vertex 5 pinned to side 0


def test_petersen_cut():
    assert max_cut(petersen())[0] == 12


def test_parallel_edges_count_with_multiplicity():
    g = graph_of("2 3\n0 1\n0 1\n0 1\n")
    assert max_cut(g)[0] == 3
    assert max_independent_set(g)[0] == 1


def test_cut_witness_reproduces_size():
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = random_graph(rng, 9)
        size, sides = max_cut(g)
        recount = sum(w for u, v, w in g.edges if sides[u] != sides[v])
        assert recount == size


def test_size_limits():
    big = SmallGraph(n=31, nbr=[0] * 31, edges=[])
    with pytest.raises(ValueError):
        max_independent_set(big)
    mid = SmallGraph(n=27, nbr=[0] * 27, edges=[])
    with pytest.raises(ValueError):
        max_cut(mid)


def test_small_graph_validation():
    with pytest.raises(ValueError):
        SmallGraph(n=2, nbr=[2, 0], edges=[])   # asymmetric
    with pytest.raises(ValueError):
        SmallGraph(n=2, nbr=[1, 0], edges=[])   # self bit
    with pytest.raises(ValueError):
        SmallGraph(n=1, nbr=[2], edges=[])      # out of range


def test_branching_agrees_with_enumeration():
    rng = np.random.default_rng(1234)
    for _ in range(100):
        g = random_graph(rng, 10)
        size, picked = max_independent_set(g)
        assert size == naive_mis(g)
        assert len(picked) == size and check_independent(g, picked)


def test_max_cut_agrees_with_enumeration():
    rng = np.random.default_rng(4321)
    for _ in range(60):
        g = random_graph(rng, 9)
        assert max_cut(g)[0] == naive_cut(g)


def test_cut_block_size_does_not_change_the_answer(monkeypatch):
    rng = np.random.default_rng(4321)
    graphs = [random_graph(rng, 9) for _ in range(60)]
    expected = [max_cut(g) for g in graphs]
    for block in (1, 3, 8):  # 3 does not divide 2**(n-1)
        monkeypatch.setattr(exact_oracle, "CUT_BLOCK", block)
        assert [max_cut(g) for g in graphs] == expected
