import random
import time
from fractions import Fraction
from itertools import combinations, permutations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from countkernel import oracles
from countkernel.graphs import Graph, TerminalPair, TreeDecomposition, validate_tree_decomposition
from countkernel.oracles import (
    TREEWIDTH_LIMIT,
    OracleSizeError,
    _adjacency_masks,
    _guard,
    _is_connected_masked,
    _subset_masks,
    count_min_st_cuts,
    count_minimal_vertex_covers,
    count_odd_cycle_transversals,
    count_vertex_covers,
    count_vertex_covers_of_size,
    exact_treewidth,
    guard_subsets,
    is_nice_oct_instance,
    lp_vc_value,
    max_matching_size,
    min_cut_size,
    random_graph,
)
from countkernel.verification import all_graphs

K3 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
EDGE = Graph.from_edges(2, [(0, 1)])
K4 = Graph.from_edges(4, list(combinations(range(4), 2)))
C4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
C5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])


def small_graphs(count=60, nmax=7, seed=123):
    rng = random.Random(seed)
    return [random_graph(rng.randint(1, nmax), rng.choice((0.2, 0.4, 0.7)),
                         rng.randrange(10**6)) for _ in range(count)]


def test_count_vertex_covers_examples():
    assert count_vertex_covers(Graph.empty(3), 2) == 7
    assert count_vertex_covers(EDGE, 1) == 2
    # all 8 subsets of K3: the three 2-subsets cover, nothing smaller does
    assert count_vertex_covers(K3, 2) == 3


def test_count_vertex_covers_monotone_and_edgeless():
    rng = random.Random(1)
    for g in small_graphs(30):
        previous = 0
        for k in range(g.n + 1):
            value = count_vertex_covers(g, k)
            assert value >= previous
            previous = value
        if g.m == 0:
            k = rng.randint(0, g.n)
            assert count_vertex_covers(g, k) == sum(comb(g.n, j) for j in range(k + 1))


def test_count_vertex_covers_of_size_partitions_total():
    for g in small_graphs(20):
        k = min(g.n, 3)
        assert count_vertex_covers(g, k) == sum(
            count_vertex_covers_of_size(g, i) for i in range(k + 1))


def test_count_minimal_vertex_covers_examples():
    assert count_minimal_vertex_covers(EDGE, 1) == 2
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    # center alone, or all three leaves
    assert count_minimal_vertex_covers(star, 3) == 2
    assert count_minimal_vertex_covers(Graph.empty(5), 4) == 1


def test_minimal_never_exceeds_all_covers():
    for g in small_graphs(40):
        for k in (1, 3):
            assert count_minimal_vertex_covers(g, k) <= count_vertex_covers(g, k)


def test_count_oct_examples():
    assert count_odd_cycle_transversals(C4, 2) == 1 + 4 + 6
    assert count_odd_cycle_transversals(C5, 0) == 0
    # each single vertex of K3 leaves one edge
    assert count_odd_cycle_transversals(K3, 1) == 3


def test_min_cut_examples():
    assert min_cut_size(EDGE, TerminalPair(0, 1)) == 1
    two_parts = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert min_cut_size(two_parts, TerminalPair(0, 2)) == 0
    assert min_cut_size(K4, TerminalPair(0, 3)) == 3


def test_count_min_st_cuts_examples():
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert count_min_st_cuts(path, TerminalPair(0, 2)) == (2, 1)
    two_parts = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert count_min_st_cuts(two_parts, TerminalPair(0, 2)) == (1, 0)
    chain = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    # every single edge of the 4-edge path separates the ends
    assert count_min_st_cuts(chain, TerminalPair(0, 4)) == (4, 1)


def test_min_cut_equals_edge_disjoint_paths():
    # Menger cross-check: flow value vs exhaustive count of disjoint paths
    # is implied by construction; spot-check against cut enumerations.
    rng = random.Random(9)
    for _ in range(25):
        n = rng.randint(2, 6)
        g = random_graph(n, 0.5, rng.randrange(10**6))
        s, t = rng.sample(range(n), 2)
        size = min_cut_size(g, TerminalPair(s, t))
        assert count_min_st_cuts(g, TerminalPair(s, t))[0] >= 1
        if size:
            # no smaller edge set separates
            edges = g.sorted_edges()
            for cut in combinations(range(len(edges)), size - 1):
                kept = [e for i, e in enumerate(edges) if i not in cut]
                reach = {s}
                frontier = [s]
                while frontier:
                    u = frontier.pop()
                    for a, b in kept:
                        for x, y in ((a, b), (b, a)):
                            if x == u and y not in reach:
                                reach.add(y)
                                frontier.append(y)
                assert t in reach


def test_matching_examples():
    assert max_matching_size(C4) == 2
    assert max_matching_size(EDGE) == 1
    assert max_matching_size(Graph.empty(4)) == 0
    assert max_matching_size(K4) == 2
    assert max_matching_size(C5) == 2


def test_lp_examples():
    assert lp_vc_value(C5) == Fraction(5, 2)
    assert lp_vc_value(EDGE) == 1
    assert lp_vc_value(K3) == Fraction(3, 2)


def _min_vertex_cover_size(g):
    for k in range(g.n + 1):
        if count_vertex_covers(g, k):
            return k
    return g.n


def test_matching_lp_cover_sandwich():
    for g in small_graphs(40):
        mu = max_matching_size(g)
        lp = lp_vc_value(g)
        vc = _min_vertex_cover_size(g)
        assert mu <= lp <= vc <= 2 * lp


def test_exact_treewidth_examples():
    tree = Graph.from_edges(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
    assert exact_treewidth(tree)[0] == 1
    assert exact_treewidth(C4)[0] == 2
    assert exact_treewidth(K4)[0] == 3
    assert exact_treewidth(Graph.empty(3))[0] == 0
    assert exact_treewidth(Graph.empty(0))[0] == 0


def test_exact_treewidth_witness_validates():
    rng = random.Random(21)
    for _ in range(25):
        g = random_graph(rng.randint(1, 8), rng.choice((0.3, 0.5, 0.8)),
                         rng.randrange(10**6))
        width, td = exact_treewidth(g)
        check = validate_tree_decomposition(g, td)
        assert check.ok, check.violation
        assert check.width == width


def test_exact_treewidth_size_guard():
    with pytest.raises(OracleSizeError):
        exact_treewidth(Graph.empty(13))


def reference_exact_treewidth(g: Graph) -> tuple[int, TreeDecomposition]:
    """The unpruned search: every remaining vertex of every prefix."""
    n = g.n
    if n > TREEWIDTH_LIMIT:
        raise OracleSizeError(f"exact_treewidth limited to {TREEWIDTH_LIMIT} vertices, got {n}")
    if n == 0:
        td = TreeDecomposition(nodes=("root",), links=frozenset(), bags={"root": frozenset()})
        return 0, td
    adj = _adjacency_masks(g)
    full = (1 << n) - 1

    def elim_degree(done: int, v: int) -> int:
        # Neighbors of v in the fill graph: vertices outside done reachable
        # from v through done.
        seen = 1 << v
        stack = [v]
        out = 0
        while stack:
            u = stack.pop()
            nbrs = adj[u] & ~seen
            while nbrs:
                w = (nbrs & -nbrs).bit_length() - 1
                nbrs &= nbrs - 1
                seen |= 1 << w
                if done >> w & 1:
                    stack.append(w)
                else:
                    out |= 1 << w
        return bin(out).count("1")

    memo: dict[int, int] = {full: -1}

    def best(done: int) -> int:
        cached = memo.get(done)
        if cached is not None:
            return cached
        result = n
        todo = full & ~done
        while todo:
            v = (todo & -todo).bit_length() - 1
            todo &= todo - 1
            result = min(result, max(elim_degree(done, v), best(done | (1 << v))))
        memo[done] = result
        return result

    width = best(0)

    order: list[int] = []
    done = 0
    while done != full:
        todo = full & ~done
        while todo:
            v = (todo & -todo).bit_length() - 1
            todo &= todo - 1
            if max(elim_degree(done, v), best(done | (1 << v))) == best(done):
                order.append(v)
                done |= 1 << v
                break

    # Standard clique-tree construction along the ordering, with fill-in.
    position = {v: i for i, v in enumerate(order)}
    work = [set() for _ in range(n)]
    for u, v in g.edges:
        work[u].add(v)
        work[v].add(u)
    bags: dict[int, frozenset[int]] = {}
    links: set[frozenset] = set()
    for idx, v in enumerate(order):
        up = {w for w in work[v] if position[w] > idx}
        bags[v] = frozenset({v} | up)
        for a in up:
            work[a].discard(v)
            for b in up:
                if b != a:
                    work[a].add(b)
        if up:
            parent = min(up, key=position.__getitem__)
        elif idx + 1 < n:
            parent = order[idx + 1]
        else:
            parent = None
        if parent is not None:
            links.add(frozenset({v, parent}))
    td = TreeDecomposition(nodes=tuple(order), links=frozenset(links), bags=bags)
    return width, td


def grid_3x4() -> Graph:
    return Graph.from_edges(12, [(r * 4 + c, r * 4 + c + 1) for r in range(3) for c in range(3)]
                            + [(r * 4 + c, r * 4 + c + 4) for r in range(2) for c in range(4)])


def treewidth_corpus():
    """Every graph on at most five vertices, a seeded G(n, p) corpus of
    400 graphs with n = 6..12 (weighted to the cheaper small n) and p =
    0.1..1.0, K12 and the 3x4 grid."""
    graphs = [g for n in range(6) for g in all_graphs(n)]
    rng = random.Random(2012)
    for n, count in zip(range(6, 13), (140, 110, 80, 40, 16, 8, 6)):
        graphs += [random_graph(n, rng.randint(1, 10) / 10, rng.randrange(10**6))
                   for _ in range(count)]
    return graphs + [random_graph(12, 1.0, 0), grid_3x4()]


def test_exact_treewidth_matches_the_unpruned_search():
    for g in treewidth_corpus():
        width, td = exact_treewidth(g)
        want_width, want = reference_exact_treewidth(g)
        assert width == want_width, g
        assert (td.nodes, td.links, dict(td.bags)) == (want.nodes, want.links, dict(want.bags)), g


def test_exact_treewidth_of_k12_and_the_grid():
    assert exact_treewidth(random_graph(12, 1.0, 0))[0] == 11
    assert exact_treewidth(grid_3x4())[0] == 3


def test_nice_instance_examples():
    assert is_nice_oct_instance(K3, 1)
    two_triangles = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2),
                                         (3, 4), (4, 5), (3, 5)])
    assert not is_nice_oct_instance(two_triangles, 2)
    assert is_nice_oct_instance(C5, 0)
    # deleting every vertex leaves the null graph, which does not count
    assert not is_nice_oct_instance(EDGE, 2)


def test_random_graph_determinism_and_extremes():
    assert random_graph(5, 0.0, 42).m == 0
    assert random_graph(5, 1.0, 42).m == 10
    assert random_graph(4, 0.5, 7) == random_graph(4, 0.5, 7)
    assert random_graph(6, 0.5, 1) != random_graph(6, 0.5, 2)


def test_oracle_size_guards():
    big = Graph.empty(64)
    with pytest.raises(OracleSizeError):
        count_vertex_covers(big, 32)
    with pytest.raises(OracleSizeError):
        count_odd_cycle_transversals(big, 32)
    dense = random_graph(12, 1.0, 0)
    with pytest.raises(OracleSizeError):
        count_min_st_cuts(dense, TerminalPair(0, 11))
    with pytest.raises(OracleSizeError):
        max_matching_size(Graph.empty(27))


@pytest.mark.parametrize("oracle", [count_vertex_covers, count_minimal_vertex_covers,
                                    count_odd_cycle_transversals, is_nice_oct_instance])
def test_subset_guard_refuses_a_huge_n_and_k_at_once(oracle):
    # 2^20000 candidates: the guard stops counting them past the limit
    started = time.perf_counter()
    with pytest.raises(OracleSizeError, match=f"more than {oracles.SUBSET_LIMIT} candidate"):
        oracle(Graph.empty(20000), 20000)
    assert time.perf_counter() - started < 1.0


# Set-based definitions, independent of the oracles' bit masks.

def _covers(g, chosen):
    return all(u in chosen or v in chosen for u, v in g.edges)


def _components(g, alive):
    """Vertex sets of the connected components of g minus its deleted vertices."""
    left, comps = set(alive), []
    while left:
        comp, frontier = set(), [left.pop()]
        while frontier:
            u = frontier.pop()
            comp.add(u)
            for a, b in g.edges:
                for x, y in ((a, b), (b, a)):
                    if x == u and y in left:
                        left.discard(y)
                        frontier.append(y)
        comps.append(frozenset(comp))
    return comps


def _two_colorable(g, alive):
    color = {}
    for comp in _components(g, alive):
        root = min(comp)
        color[root] = 0
        frontier = [root]
        while frontier:
            u = frontier.pop()
            for a, b in g.edges:
                for x, y in ((a, b), (b, a)):
                    if x == u and y in alive:
                        if y not in color:
                            color[y] = 1 - color[u]
                            frontier.append(y)
                        elif color[y] == color[u]:
                            return False
    return True


def test_enumerating_oracles_match_set_definitions_on_all_small_graphs():
    from countkernel.verification import all_graphs

    for n in range(6):
        everything = frozenset(range(n))
        subsets = [frozenset(c) for size in range(n + 1)
                   for c in combinations(range(n), size)]
        for g in all_graphs(n):
            cover = {s for s in subsets if _covers(g, s)}
            minimal = {s for s in cover if not any(s - {v} in cover for v in s)}
            transversal = {s for s in subsets if _two_colorable(g, everything - s)}
            leaves_connected = {s: len(s) < n and len(_components(g, everything - s)) == 1
                                for s in transversal}
            for k in range(n + 1):
                within = [s for s in subsets if len(s) <= k]
                assert count_vertex_covers(g, k) == sum(s in cover for s in within)
                assert count_vertex_covers_of_size(g, k) == sum(
                    s in cover for s in subsets if len(s) == k)
                assert count_minimal_vertex_covers(g, k) == sum(s in minimal for s in within)
                assert count_odd_cycle_transversals(g, k) == sum(
                    s in transversal for s in within)
                assert is_nice_oct_instance(g, k) == all(
                    leaves_connected[s] for s in within if s in transversal)


# The set of minimum s-t cuts by its definition: every edge set whose
# removal separates s from t, at the least size any such set has.

def _labels(n, edges):
    """Component label of each vertex, by union-find over ``edges``."""
    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for u, v in edges:
        parent[find(u)] = find(v)
    return [find(v) for v in range(n)]


def test_count_min_st_cuts_matches_the_set_definition_on_all_small_graphs():
    for n in range(2, 6):
        for g in all_graphs(n):
            edges = g.sorted_edges()
            removals = [(frozenset(cut), _labels(n, [e for e in edges if e not in cut]))
                        for size in range(len(edges) + 1) for cut in combinations(edges, size)]
            for s, t in combinations(range(n), 2):
                separating = [cut for cut, label in removals if label[s] != label[t]]
                least = min(map(len, separating))
                want = (sum(len(cut) == least for cut in separating), least)
                assert count_min_st_cuts(g, TerminalPair(s, t)) == want, (g, s, t)
                assert count_min_st_cuts(g, TerminalPair(t, s)) == want, (g, t, s)


# References for the oracles' bit-mask checks: the same enumerations with
# a Python loop per edge in every check, and the recursive augmenting
# search.  The oracles must give the same answers.

def reference_is_bipartite_masked(adj: list[int], n: int, removed: int) -> bool:
    color = [-1] * n
    for root in range(n):
        if removed >> root & 1 or color[root] != -1:
            continue
        color[root] = 0
        stack = [root]
        while stack:
            u = stack.pop()
            nbrs = adj[u] & ~removed
            while nbrs:
                v = (nbrs & -nbrs).bit_length() - 1
                nbrs &= nbrs - 1
                if color[v] == -1:
                    color[v] = 1 - color[u]
                    stack.append(v)
                elif color[v] == color[u]:
                    return False
    return True


def reference_count_vertex_covers(g: Graph, k: int) -> int:
    if k < 0:
        return 0
    guard_subsets(g.n, k, "count_vertex_covers")
    edge_masks = [(1 << u) | (1 << v) for u, v in g.edges]
    return sum(1 for mask in _subset_masks(g.n, range(min(k, g.n) + 1))
               if all(mask & em for em in edge_masks))


def reference_count_vertex_covers_of_size(g: Graph, size: int) -> int:
    if size < 0 or size > g.n:
        return 0
    _guard(comb(g.n, size), "count_vertex_covers_of_size")
    edge_masks = [(1 << u) | (1 << v) for u, v in g.edges]
    return sum(1 for mask in _subset_masks(g.n, range(size, size + 1))
               if all(mask & em for em in edge_masks))


def reference_count_minimal_vertex_covers(g: Graph, k: int) -> int:
    if k < 0:
        return 0
    guard_subsets(g.n, k, "count_minimal_vertex_covers")
    edge_masks = [(1 << u) | (1 << v) for u, v in g.edges]
    closed = [(1 << v) | nbrs for v, nbrs in enumerate(_adjacency_masks(g))]
    return sum(1 for mask in _subset_masks(g.n, range(min(k, g.n) + 1))
               if all(mask & em for em in edge_masks)
               and all(c & ~mask for c in closed))


def reference_count_odd_cycle_transversals(g: Graph, k: int) -> int:
    if k < 0:
        return 0
    guard_subsets(g.n, k, "count_odd_cycle_transversals")
    adj = _adjacency_masks(g)
    return sum(1 for removed in _subset_masks(g.n, range(min(k, g.n) + 1))
               if reference_is_bipartite_masked(adj, g.n, removed))


def reference_is_nice_oct_instance(g: Graph, k: int) -> bool:
    if k < 0:
        return True
    guard_subsets(g.n, k, "is_nice_oct_instance")
    adj = _adjacency_masks(g)
    everything = (1 << g.n) - 1
    for removed in _subset_masks(g.n, range(min(k, g.n) + 1)):
        if reference_is_bipartite_masked(adj, g.n, removed):
            if removed == everything or not _is_connected_masked(adj, g.n, removed):
                return False
    return True


def reference_count_min_st_cuts(g: Graph, st: TerminalPair) -> tuple[int, int]:
    st.check_in(g)
    k = min_cut_size(g, st)
    if k == 0:
        return 1, 0
    edges = g.sorted_edges()
    m = len(edges)
    _guard(comb(m, k), "count_min_st_cuts")
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for idx, (u, v) in enumerate(edges):
        adj[u].append((v, idx))
        adj[v].append((u, idx))
    removed = bytearray(m)
    seen = bytearray(g.n)
    count = 0
    for cut in combinations(range(m), k):
        for idx in cut:
            removed[idx] = 1
        for i in range(g.n):
            seen[i] = 0
        seen[st.s] = 1
        stack = [st.s]
        reached = False
        while stack:
            u = stack.pop()
            if u == st.t:
                reached = True
                break
            for v, idx in adj[u]:
                if not removed[idx] and not seen[v]:
                    seen[v] = 1
                    stack.append(v)
        if not reached:
            count += 1
        for idx in cut:
            removed[idx] = 0
    return count, k


def reference_lp_vc_value(g: Graph) -> Fraction:
    """The recursive augmenting-path search, which a path of a few
    thousand vertices takes past the interpreter's recursion limit."""
    adj_left: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adj_left[u].append(v)
        adj_left[v].append(u)
    match_right = [-1] * g.n

    def augment(u: int, visited: list[bool]) -> bool:
        for v in adj_left[u]:
            if not visited[v]:
                visited[v] = True
                if match_right[v] == -1 or augment(match_right[v], visited):
                    match_right[v] = u
                    return True
        return False

    matched = 0
    for u in range(g.n):
        if augment(u, [False] * g.n):
            matched += 1
    return Fraction(matched, 2)


BUDGETED = [
    (count_vertex_covers, reference_count_vertex_covers),
    (count_vertex_covers_of_size, reference_count_vertex_covers_of_size),
    (count_minimal_vertex_covers, reference_count_minimal_vertex_covers),
    (count_odd_cycle_transversals, reference_count_odd_cycle_transversals),
    (is_nice_oct_instance, reference_is_nice_oct_instance),
]
CUT_CANDIDATE_LIMIT = 20_000


def _same_answers(g: Graph, budgets) -> None:
    for oracle, reference in BUDGETED:
        for k in budgets:
            assert oracle(g, k) == reference(g, k), (oracle.__name__, g, k)


def _same_cut_answers(g: Graph, pairs) -> None:
    for s, t in pairs:
        st = TerminalPair(s, t)
        if comb(g.m, min_cut_size(g, st)) <= CUT_CANDIDATE_LIMIT:
            assert count_min_st_cuts(g, st) == reference_count_min_st_cuts(g, st), (g, s, t)


def six_vertex_graphs():
    """Every graph on six vertices up to relabelling, most of them many
    times: each graph on five vertices, one per relabelling class, with a
    sixth vertex joined to each of the 32 subsets of the five."""
    classes = {}
    for g in all_graphs(5):
        key = min(tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in g.edges))
                  for p in permutations(range(5)))
        classes.setdefault(key, g)
    return [Graph.from_edges(6, [*edges, *((v, 5) for v in range(5) if bits >> v & 1)])
            for edges in classes for bits in range(32)]


def test_bit_mask_checks_match_the_references_on_every_graph_of_at_most_six_vertices():
    graphs = [g for n in range(6) for g in all_graphs(n)] + six_vertex_graphs()
    for g in graphs:
        _same_answers(g, range(-1, g.n + 2))
        _same_cut_answers(g, combinations(range(g.n), 2))


def test_bit_mask_checks_match_the_references_on_a_seeded_corpus():
    rng = random.Random(2024)
    for _ in range(150):
        n = rng.randint(6, 9)
        g = random_graph(n, rng.choice((0.15, 0.3, 0.5, 0.7, 0.9)), rng.randrange(1 << 30))
        _same_answers(g, range(n + 1))
        _same_cut_answers(g, [rng.sample(range(n), 2) for _ in range(3)])
        assert lp_vc_value(g) == reference_lp_vc_value(g), g


@st.composite
def graphs_with_budgets(draw):
    n = draw(st.integers(1, 8))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return Graph.from_edges(n, edges), draw(st.integers(0, n))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(graphs_with_budgets())
def test_bit_mask_checks_match_the_references_property(case):
    g, k = case
    _same_answers(g, [k])
    if g.n >= 2:
        _same_cut_answers(g, [(0, g.n - 1)])
    assert lp_vc_value(g) == reference_lp_vc_value(g)


def _answer_or_refusal(fn, *args):
    try:
        return fn(*args)
    except OracleSizeError:
        return "refused"


def test_size_refusals_match_the_references(monkeypatch):
    monkeypatch.setattr(oracles, "SUBSET_LIMIT", 40)
    outcomes = set()
    for g in small_graphs(40):
        calls = [(oracle, reference, (g, k))
                 for oracle, reference in BUDGETED for k in range(g.n + 1)]
        if g.n >= 2:
            calls.append((count_min_st_cuts, reference_count_min_st_cuts,
                          (g, TerminalPair(0, g.n - 1))))
        for oracle, reference, args in calls:
            answer = _answer_or_refusal(oracle, *args)
            assert answer == _answer_or_refusal(reference, *args), (oracle.__name__, args)
            outcomes.add(answer == "refused")
    assert outcomes == {True, False}


def test_lp_value_matches_the_recursive_search_on_the_small_corpora():
    graphs = [g for n in range(6) for g in all_graphs(n)] + small_graphs(200, nmax=10)
    for g in graphs:
        assert lp_vc_value(g) == reference_lp_vc_value(g), g


def test_subset_masks_match_an_itertools_reference_for_every_small_n_and_size_range():
    """The candidates, in order: by size, then in ``combinations`` order,
    each as the sum of its vertices' bits."""
    for n in range(9):
        for lo in range(n + 2):
            for hi in range(lo, n + 3):
                reference = [sum(1 << v for v in subset)
                             for size in range(lo, hi) for subset in combinations(range(n), size)]
                assert list(_subset_masks(n, range(lo, hi))) == reference, (n, lo, hi)
