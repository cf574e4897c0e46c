"""Exact oracles: fixed anchors, witness validity, naive cross-checks."""
import numpy as np
import pytest

from girthlocal import exact_oracle
from girthlocal.config_model import generate, load_edge_list
from girthlocal.exact_oracle import (
    SmallGraph,
    from_multigraph,
    max_cut,
    max_independent_set,
)
from girthlocal.is_local_algorithm import run as run_is
from girthlocal.is_local_algorithm import verify_independent


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
    # no vertex at all: no vertex n - 1 to fix to side 0
    assert max_cut(graph_of("0 0\n")) == (0, [])


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
    big = SmallGraph(n=201, nbr=[0] * 201, edges=[])
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
    with pytest.raises(ValueError):
        SmallGraph(n=3, nbr=[0, 0], edges=[])   # nbr too short
    with pytest.raises(ValueError):
        SmallGraph(n=1, nbr=[0, 0], edges=[])   # nbr too long
    path = [2, 5, 2]                            # the path 0 - 1 - 2
    for edges in ([(0, 1, 1)],                  # a pair of nbr missing
                  [(0, 1, 1), (1, 2, 1), (0, 2, 1)],   # a pair not in nbr
                  [(1, 0, 1), (1, 2, 1)],       # u > v
                  [(0, 1, 1), (1, 2, 1), (1, 2, 1)],   # a pair twice
                  [(0, 1, 0), (1, 2, 1)],       # weight 0
                  [(0, 1, 1), (1, 2, 1), (2, 2, 1)],   # a loop
                  [(0, 1, 1), (1, 2, 1), (1, 7, 1)]):  # v >= n
        with pytest.raises(ValueError):
            SmallGraph(n=3, nbr=path, edges=edges)
    with pytest.raises(ValueError):
        SmallGraph(n=3, nbr=[0, 0, 0], edges=[(0, 1, 1), (1, 7, 1),
                                              (2, 2, 1)])
    assert SmallGraph(n=3, nbr=path, edges=[(0, 1, 2), (1, 2, 1)]).n == 3


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


def gray_order_cut(g: SmallGraph):
    """max_cut's contract, one bipartition at a time: Gray-code order with
    vertex n-1 on side 0, the first strict best is the witness."""
    best, best_x = 0, 0
    for k in range(1 << max(g.n - 1, 0)):
        x = k ^ (k >> 1)
        cut = sum(w for u, v, w in g.edges if (x >> u ^ x >> v) & 1)
        if cut > best:
            best, best_x = cut, x
    return best, [(best_x >> v) & 1 for v in range(g.n)]


def test_low_bits_do_not_change_the_answer(monkeypatch):
    # at small LOW_BITS the high-bit walk takes both parities of kH, flips
    # vertices with edges to n-1, and crosses parallel pairs (weight 2)
    rng = np.random.default_rng(4321)
    graphs = [random_graph(rng, n) for n in (1, 2, 3) + (9,) * 40 + (12,) * 8]
    expected = [gray_order_cut(g) for g in graphs]
    for bits in (1, 3, 8, 13):
        monkeypatch.setattr(exact_oracle, "LOW_BITS", bits)
        assert [max_cut(g) for g in graphs] == expected


def induced(g: SmallGraph, mask: int) -> SmallGraph:
    keep = [v for v in range(g.n) if (mask >> v) & 1]
    return exact_oracle.small_graph(
        keep, [(u, v) for u, v, _ in g.edges if u in keep and v in keep])


def test_matching_bound_is_an_upper_bound():
    rng = np.random.default_rng(77)
    for _ in range(150):
        g = random_graph(rng, 11, p=rng.uniform(0.05, 0.6))
        mask = int(rng.integers(0, 1 << g.n))
        bound = exact_oracle._matching_bound(g.nbr, mask)
        assert naive_mis(induced(g, mask)) <= bound <= mask.bit_count()


def test_matching_bound_keeps_every_answer(monkeypatch):
    rng = np.random.default_rng(2024)
    graphs = [random_graph(rng, int(rng.integers(14, 25)),
                           p=rng.uniform(0.1, 0.4)) for _ in range(60)]
    calls = [0, 0]

    def counted(bound, i):
        def wrapped(nbr, avail):
            calls[i] += 1
            return bound(nbr, avail)
        return wrapped

    monkeypatch.setattr(exact_oracle, "_matching_bound",
                        counted(exact_oracle._matching_bound, 0))
    found = [max_independent_set(g) for g in graphs]
    # the count of remaining vertices, the bound before the matching one
    monkeypatch.setattr(exact_oracle, "_matching_bound",
                        counted(lambda nbr, avail: avail.bit_count(), 1))
    assert [max_independent_set(g) for g in graphs] == found
    assert calls[0] < calls[1]  # the matching bound did prune


def branch_and_bound_mis(g: SmallGraph):
    """The oracle's former search, kept as a referee: branch on a
    highest-degree vertex, solve greedily once every degree is <= 1, and
    prune a subtree whose size plus the matching bound cannot beat the
    best found."""
    nbr = g.nbr
    best = [-1, 0]

    def solve(avail: int, size: int, chosen: int) -> None:
        if size + exact_oracle._matching_bound(nbr, avail) <= best[0]:
            return
        top, top_deg = -1, -1
        for v in range(g.n):
            if (avail >> v) & 1:
                deg = (nbr[v] & avail).bit_count()
                if deg > top_deg:
                    top, top_deg = v, deg
        if top_deg <= 1:
            left = avail
            while left:
                low = left & -left
                v = low.bit_length() - 1
                chosen |= low
                size += 1
                left &= ~(low | nbr[v])
            if size > best[0]:
                best[0], best[1] = size, chosen
            return
        bit = 1 << top
        solve(avail & ~(bit | nbr[top]), size + 1, chosen | bit)
        solve(avail & ~bit, size, chosen)

    solve((1 << g.n) - 1, 0, 0)
    return best[0], [v for v in range(g.n) if (best[1] >> v) & 1]


def random_multigraph(rng, n: int, m: int) -> SmallGraph:
    """m uniform vertex pairs: loops and parallel edges included."""
    pairs = rng.integers(0, n, size=(m, 2))
    return graph_of(f"{n} {m}\n" + "".join(f"{u} {v}\n" for u, v in pairs))


def test_branch_and_reduce_agrees_with_branch_and_bound():
    rng = np.random.default_rng(4646)
    graphs = [graph_of("0 0\n"), graph_of("1 0\n"), graph_of("1 1\n0 0\n")]
    for p in (0.03, 0.08, 0.15, 0.3, 0.5, 0.7):
        graphs += [random_graph(rng, int(rng.integers(2, 31)), p)
                   for _ in range(20)]
    graphs += [random_multigraph(rng, n, int(rng.integers(n, 3 * n)))
               for n in rng.integers(2, 31, size=40)]
    graphs += [from_multigraph(generate(30, d, seed=seed))
               for d in (3, 4) for seed in range(20)]
    assert len(graphs) >= 200
    for g in graphs:
        before = list(g.nbr)
        size, picked = max_independent_set(g)
        assert g.nbr == before
        assert size == branch_and_bound_mis(g)[0]
        assert len(set(picked)) == len(picked) == size
        assert check_independent(g, picked)


# generated cubic graphs at the oracle's limit: seed -> independence number
CUBIC_200 = {0: 90, 1: 89, 2: 89}


def test_cubic_graphs_at_n_200():
    for seed, optimum in CUBIC_200.items():
        graph = generate(200, 3, seed=seed)
        size, picked = max_independent_set(from_multigraph(graph))
        assert size == optimum == len(picked)
        assert verify_independent(graph, picked)
        assert run_is(graph, 3, seed=seed).size <= size
