import random
from math import comb

import pytest

from countkernel.framework import (
    CountingInstance,
    IntegrityError,
    LiftContext,
    ProtocolError,
    oracle_count,
)
from countkernel import vc_kernel, verification
from countkernel.graphs import Graph, induced_subgraph, ordered, parse_graph, serialize_graph
from countkernel.oracles import (
    count_minimal_vertex_covers,
    count_vertex_covers,
    count_vertex_covers_of_size,
    random_graph,
)
from countkernel.vc_kernel import (
    PaddedBlowup,
    blowup_cover_multiplicity,
    blowup_parameters,
    build_padded_blowup,
    buss_reduce,
    lift_minimal_vertex_cover,
    lift_vertex_cover,
    padded_blowup_graph,
    reduce_minimal_vertex_cover,
    reduce_vertex_cover,
    reference_blowup_count,
    strip_isolated,
)
from countkernel.verification import (
    graph_corpus,
    multiplicity_by_dp,
    multiplicity_by_enumeration,
    reduce_produced_parameters,
    sweep_dominance,
)
from test_graphs import reference_serialize_graph

K3 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
EDGE = Graph.from_edges(2, [(0, 1)])
STAR5 = Graph.from_edges(6, [(0, i) for i in range(1, 6)])


def test_buss_forces_star_center():
    g1, k1 = buss_reduce(STAR5, 2)
    assert (g1.n, g1.m, k1) == (5, 0, 1)


def test_buss_leaves_triangle_alone():
    g1, k1 = buss_reduce(K3, 2)
    assert g1 == K3 and k1 == 2


def test_buss_two_stars_budget_one_is_zero():
    two_stars = Graph.from_edges(12, [(0, i) for i in range(1, 6)]
                                 + [(6, i) for i in range(7, 12)])
    assert buss_reduce(two_stars, 1) is None


def test_strip_isolated():
    g2, k2, n1 = strip_isolated(Graph.empty(5), 3)
    assert (g2.n, k2, n1) == (0, 3, 5)
    g2, k2, n1 = strip_isolated(K3, 2)
    assert g2 == K3 and n1 == 3
    padded = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2)])
    g2, _, n1 = strip_isolated(padded, 2)
    assert g2.n == 3 and g2.m == 3 and n1 == 5


def test_build_blowup_single_edge():
    g3, k3, d, t = build_padded_blowup(EDGE, 1)
    assert (d, t, k3) == (2, 12, 2)
    assert g3.n == 2 * 2 + 12 and g3.m == 4  # complete join of the copy classes


def test_build_blowup_degenerate_and_path():
    g3, k3, d, t = build_padded_blowup(Graph.empty(0), 5)
    assert (g3.n, k3, d, t) == (0, 0, 0, 0)
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    g3, k3, d, t = build_padded_blowup(path, 1)
    assert (d, t, k3) == (3, 3 + 3 + 18, 3)


def test_build_blowup_rejects_isolated_core():
    with pytest.raises(ValueError):
        build_padded_blowup(Graph.empty(2), 1)


def test_padded_blowup_checks_its_parameters():
    assert (PaddedBlowup(EDGE, 0, 0).n, PaddedBlowup(EDGE, 0, 0).m) == (0, 0)
    for copies, padding in ((-1, 0), (1, -1)):
        with pytest.raises(ValueError):
            PaddedBlowup(EDGE, copies, padding)
    with pytest.raises(TypeError):
        PaddedBlowup(frozenset({(0, 1)}), 2, 0)


def reference_padded_blowup_graph(core, copies, padding):
    """The first blowup: one ``ordered`` pair per copy pair, into a set."""
    if copies < 0 or padding < 0:
        raise ValueError("copies and padding must be nonnegative")
    edges = set()
    for u, v in core.edges:
        for i in range(copies):
            for j in range(copies):
                edges.add(ordered(u * copies + i, v * copies + j))
    return Graph(core.n * copies + padding, frozenset(edges))


def test_blowup_matches_reference_on_random_cores():
    rng = random.Random(29)
    cores = graph_corpus(80, 7, 29) + [random_graph(rng.randint(5, 12), rng.random(),
                                                    rng.randrange(10**6)) for _ in range(20)]
    for core in cores:
        for copies in range(4):
            for padding in range(4):
                assert padded_blowup_graph(core, copies, padding) \
                    == reference_padded_blowup_graph(core, copies, padding), (core, copies, padding)
    with pytest.raises(ValueError):
        padded_blowup_graph(K3, -1, 0)
    with pytest.raises(ValueError):
        padded_blowup_graph(K3, 1, -1)


def matching(k2):
    # a k2^2-edge matching: n2 = 2*k2^2, the largest core reduce keeps
    return Graph.from_edges(2 * k2 * k2, [(2 * j, 2 * j + 1) for j in range(k2 * k2)])


def star_forest(leaf_counts):
    edges, n = stars(leaf_counts)
    return Graph.from_edges(n, edges)


# The star cores of the benchmark's kernel-dense slots, each its own
# host at budget k2: no centre is above the budget, so the core is the
# whole forest.
DENSE_STAR_CORES = [(5, [5] * 5), (5, [1] * 25), (6, [6] * 5), (6, [1] * 36),
                    (7, [7] * 7), (7, [1] * 49), (8, [8] * 7)]


@pytest.mark.parametrize("instances", [
    *(pytest.param(lambda k2=k2: [(matching(k2), k2)], id=str(k2)) for k2 in range(3, 9)),
    *(pytest.param(lambda k2=k2, leaves=leaves: [(star_forest(leaves), k2)],
                   id=f"stars-{len(leaves)}x{leaves[0]}") for k2, leaves in DENSE_STAR_CORES),
    pytest.param(lambda: [(g, k) for g in graph_corpus(300, 7, 31) for k in range(6)],
                 id="corpus"),
])
def test_worst_case_reduce_output_matches_reference(instances):
    normal = 0
    for host, k in instances():
        result = reduce_vertex_cover(CountingInstance(host, None, k))
        payload = result.context.payload
        if payload["branch"] != "normal":
            continue
        normal += 1
        core, _, _ = reference_strip_isolated(*reference_buss_reduce(host, k))
        d, t, k3 = (int(payload[f]) for f in ("d", "t", "k3"))
        reference = reference_padded_blowup_graph(core, d, t)
        blowup = result.reduced.graph
        assert (blowup.n, blowup.m) == (reference.n, reference.m), (host, k)
        assert blowup.materialize() == reference and result.reduced.k == k3, (host, k)
        assert serialize_graph(blowup, k=k3) == reference_serialize_graph(reference, k=k3)
    assert normal


def reference_blowup_cover_multiplicity(i, copies, padding, budget, core_size):
    """The per-i closed form: inclusion-exclusion over the j whole
    classes, each inner partial sum rebuilt term by term for its j."""
    classes = core_size - i
    spend = copies * (budget - i)
    total = 0
    for j in range(classes + 1):
        left = spend - copies * j
        if left < 0:
            break
        pool = copies * (classes - j) + padding
        choices = 0
        term = 1  # C(pool, r)
        for r in range(min(left, pool) + 1):
            choices += term
            term = term * (pool - r) // (r + 1)
        total += (-1) ** j * comb(classes, j) * choices
    return total


def test_multiplicity_frozen_values():
    # independently recomputed by direct vector enumeration below
    assert blowup_cover_multiplicity(2, 12, 1, 2) == [135, 1]
    assert blowup_cover_multiplicity(2, 3, 1, 2) == [27, 1]
    assert multiplicity_by_enumeration(0, 2, 12, 1, 2) == 135
    assert multiplicity_by_enumeration(0, 2, 3, 1, 2) == 27


# ROADMAP's probe grid: k2 in {4, 6, 8, 10, 12} and n2 in {2, k2, k2 + 1, k2^2, 2 k2^2}.
PROBE_GRID = [(n2, k2) for k2 in (4, 6, 8, 10, 12)
              for n2 in (2, k2, k2 + 1, k2 * k2, 2 * k2 * k2)]


def test_multiplicity_list_matches_the_per_i_closed_form():
    # Every (n2, k2) that reduce emits up to k2 = 8, and the probe grid.
    pairs = [*reduce_produced_parameters(8), *PROBE_GRID]
    for n2, k2 in pairs:
        d, t, _ = blowup_parameters(n2, k2)
        assert blowup_cover_multiplicity(d, t, k2, n2) == [
            reference_blowup_cover_multiplicity(i, d, t, k2, n2)
            for i in range(min(k2, n2) + 1)], (n2, k2)
    assert len(pairs) == 434


def test_closed_form_matches_dp_on_reduce_produced_parameters():
    checked = 0
    for n2, k2 in reduce_produced_parameters(5):
        d = n2
        t = d + d * k2 + 2 * (d * k2) ** 2
        ws = blowup_cover_multiplicity(d, t, k2, n2)
        for i, w in enumerate(ws):
            assert w == multiplicity_by_dp(i, d, t, k2, n2), (i, n2, k2)
            checked += 1
    assert checked == 536


def test_dominance_at_the_papers_scale():
    # The floor-division lift is exact only if every w_i dominates the
    # tail; k2 = 7 and up were out of reach of the convolution DP.  From
    # k2 = 9 the multiplicities pass the 4,300 digits str() converts.
    # One run to k2 = 10 covers every pair of the runs to 8 and 9.
    report = sweep_dominance(kmax=10)
    assert report.passed, report.failures[:3]
    assert report.checked == 6646


def w1_replaced_by_its_tail(real):
    """``blowup_cover_multiplicity`` with w_1 replaced by its tail
    sum_{j>1} C(core_size, j) * w_j, wherever a size lies above 1."""
    def planted(copies, padding, budget, core_size):
        ws = real(copies, padding, budget, core_size)
        if len(ws) > 2:
            ws[1] = sum(comb(core_size, j) * ws[j] for j in range(2, len(ws)))
        return ws
    return planted


def test_the_lift_and_the_dominance_sweep_refuse_a_multiplicity_equal_to_its_tail(monkeypatch):
    two_edges = Graph.from_edges(4, [(0, 1), (2, 3)])
    result = reduce_vertex_cover(CountingInstance(two_edges, None, 2))
    true_count = reference_blowup_count(result.reduced)
    assert lift_vertex_cover(result.context, true_count) == 4
    planted = w1_replaced_by_its_tail(vc_kernel.blowup_cover_multiplicity)
    monkeypatch.setattr(vc_kernel, "blowup_cover_multiplicity", planted)
    monkeypatch.setattr(verification, "blowup_cover_multiplicity", planted)
    with pytest.raises(IntegrityError, match=r"w_1 .*\(n2=4, k2=2\)"):
        lift_vertex_cover(result.context, true_count)
    report = sweep_dominance(kmax=2)
    assert not report.passed
    assert report.failures[0].startswith("w_1 of "), report.failures[0]
    assert report.failures[0].endswith("(n2=2, k2=2)"), report.failures[0]


def test_multiplicity_domain_errors():
    assert blowup_cover_multiplicity(0, 0, 0, 0) == [1]
    for negative in ((-1, 12, 2, 2), (2, -1, 2, 2), (2, 12, -1, 2), (2, 12, 2, -1)):
        with pytest.raises(ValueError):
            blowup_cover_multiplicity(*negative)


def test_reduce_branch_selection():
    normal = reduce_vertex_cover(CountingInstance(K3, None, 2))
    assert normal.context.payload["branch"] == "normal"
    assert normal.context.payload["n2"] == "3"

    two_stars = Graph.from_edges(12, [(0, i) for i in range(1, 6)]
                                 + [(6, i) for i in range(7, 12)])
    zero = reduce_vertex_cover(CountingInstance(two_stars, None, 1))
    assert zero.context.payload["branch"] == "zero"
    assert zero.reduced.graph.m == 1 and zero.reduced.k == 0

    # C6 survives the degree rule but keeps more than k^2 edges
    c6 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    assert reduce_vertex_cover(CountingInstance(c6, None, 2)).context.payload["branch"] == "zero"
    assert count_vertex_covers(c6, 2) == 0

    k5 = Graph.from_edges(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
    assert reduce_vertex_cover(CountingInstance(k5, None, 1)).context.payload["branch"] == "zero"


def test_lift_single_edge_walkthrough():
    result = reduce_vertex_cover(CountingInstance(EDGE, None, 1))
    assert result.context.payload["branch"] == "normal"
    assert lift_vertex_cover(result.context, 2) == 2


def test_lift_star_with_empty_core():
    result = reduce_vertex_cover(CountingInstance(STAR5, None, 2))
    payload = result.context.payload
    assert payload["n2"] == "0" and payload["n1"] == "5"
    # the empty reduced instance has exactly one cover
    assert lift_vertex_cover(result.context, 1) == 6
    assert count_vertex_covers(STAR5, 2) == 6


def test_lift_reattaches_the_isolated_vertex_choices_as_binomial_sums():
    # Seeded normal contexts with n1 up to 4,000 digits, and a count
    # assembled from admissible y_i: the lift must weigh each y_i by
    # sum_{j <= k2 - i} C(n1 - n2, j), computed here by math.comb.
    rng = random.Random(14)
    for _ in range(40):
        k2 = rng.randint(0, 12)
        n2 = rng.choice([0, *range(2, min(2 * k2 * k2, 12) + 1)])
        n1 = n2 + rng.choice([0, 1, rng.randrange(10**6), rng.randrange(10**4000)])
        d, t, k3 = blowup_parameters(n2, k2)
        fields = {"n1": n1, "n2": n2, "k2": k2, "d": d, "t": t, "k3": k3}
        ctx = LiftContext(vc_kernel.VC_KERNEL,
                          {"branch": "normal", **{f: str(v) for f, v in fields.items()}})
        ys = [0 if i == 0 and n2 else rng.randint(0, comb(n2, i))
              for i in range(min(k2, n2) + 1)]
        count = sum(y * w for y, w in zip(ys, blowup_cover_multiplicity(d, t, k2, n2)))
        assert lift_vertex_cover(ctx, count) == sum(
            y * sum(comb(n1 - n2, j) for j in range(k2 - i + 1)) for i, y in enumerate(ys))


def test_lift_zero_branch_ignores_count():
    ctx = reduce_vertex_cover(CountingInstance(Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)]), None, 2)).context
    assert lift_vertex_cover(ctx, 12345) == 0


def test_lift_rejects_corrupted_counts():
    # Residues only become visible when the budget exceeds the core
    # order (then the last processed multiplicity is above 1).
    result = reduce_vertex_cover(CountingInstance(EDGE, None, 3))
    payload = result.context.payload
    d, t, k2, n2 = (int(payload[f]) for f in ("d", "t", "k2", "n2"))
    true_count = sum(count_vertex_covers_of_size(EDGE, i) * w
                     for i, w in enumerate(blowup_cover_multiplicity(d, t, k2, n2)))
    assert lift_vertex_cover(result.context, true_count) == count_vertex_covers(EDGE, 3)
    with pytest.raises(IntegrityError):
        lift_vertex_cover(result.context, true_count + 1)
    with pytest.raises(IntegrityError):
        lift_vertex_cover(result.context, -1)


def test_lift_rejects_foreign_context():
    ctx = LiftContext("something-else", {"branch": "normal"})
    with pytest.raises(ProtocolError):
        lift_vertex_cover(ctx, 0)


def test_context_json_round_trip():
    ctx = reduce_vertex_cover(CountingInstance(K3, None, 2)).context
    again = LiftContext.from_json(ctx.to_json())
    assert again == ctx
    assert again.to_json() == ctx.to_json()
    assert set(ctx.payload) == {"branch", "n1", "n2", "k2", "d", "t", "k3"}


def test_minimal_kernel_examples():
    star_padded = Graph.from_edges(6, [(0, 1), (0, 2), (0, 3)])
    result = reduce_minimal_vertex_cover(CountingInstance(star_padded, None, 3))
    assert result.reduced.graph.n == 4 and result.reduced.graph.m == 3
    assert lift_minimal_vertex_cover(result.context, 2) == 2

    k5 = Graph.from_edges(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
    zero = reduce_minimal_vertex_cover(CountingInstance(k5, None, 1))
    assert zero.context.payload["branch"] == "zero"
    assert lift_minimal_vertex_cover(zero.context, 99) == 0

    identity = reduce_minimal_vertex_cover(CountingInstance(EDGE, None, 1))
    assert identity.reduced.graph == EDGE
    assert lift_minimal_vertex_cover(identity.context, 2) == 2


def test_minimal_lift_refuses_counts_above_the_subset_bound():
    c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    ctx = reduce_minimal_vertex_cover(CountingInstance(c4, None, 3)).context
    assert (ctx.payload["n2"], ctx.payload["k2"]) == ("4", "3")
    # at most 1 + 4 + 6 + 4 subsets of size <= 3
    assert lift_minimal_vertex_cover(ctx, 15) == 15
    for bad in (16, 999999, -1):
        with pytest.raises(IntegrityError):
            lift_minimal_vertex_cover(ctx, bad)
    # an edgeless host at budget 0 leaves an empty core: one subset, of size 0
    empty_core = {**ctx.payload, "n2": "0", "k2": "0"}
    with pytest.raises(IntegrityError):
        lift_minimal_vertex_cover(LiftContext(ctx.compression, empty_core), 2)
    # a huge context stays cheap: the bound stops growing once it passes the count
    huge = {**ctx.payload, "n1": str(10**40), "n2": str(10**40), "k2": str(10**20)}
    assert lift_minimal_vertex_cover(LiftContext(ctx.compression, huge), 10**30) == 10**30


def test_minimal_kernel_random_round_trip():
    rng = random.Random(77)
    for _ in range(60):
        g = random_graph(rng.randint(1, 6), rng.choice((0.3, 0.6)), rng.randrange(10**6))
        k = rng.randint(0, 4)
        result = reduce_minimal_vertex_cover(CountingInstance(g, None, k))
        if result.context.payload["branch"] == "zero":
            reduced_count = 0
        else:
            reduced_count = count_minimal_vertex_covers(result.reduced.graph, result.reduced.k)
        assert lift_minimal_vertex_cover(result.context, reduced_count) \
            == count_minimal_vertex_covers(g, k)


def test_tiny_blowup_decomposition_brute_force():
    # the partition identity at enumerable scale with overridden parameters
    rng = random.Random(5)
    for _ in range(15):
        core = random_graph(rng.randint(2, 5), 0.7, rng.randrange(10**6))
        if core.isolated_vertices():
            continue
        k2 = rng.randint(1, 2)
        copies, padding = 2, 3
        blown = padded_blowup_graph(core, copies, padding)
        direct = count_vertex_covers(blown, copies * k2)
        expected = sum(count_vertex_covers_of_size(core, i) * w
                       for i, w in enumerate(blowup_cover_multiplicity(copies, padding, k2, core.n)))
        assert direct == expected


def test_oracle_matches_the_reference_on_the_enumerable_kernel_outputs():
    # The round trips count a blowup by its reference, never by the oracle,
    # so the oracle checks the reference here on every blowup the C01
    # corpus makes that it can enumerate.
    blowups = {}
    for g in graph_corpus(2000, 6, 0):
        for k in range(5):
            reduced = reduce_vertex_cover(CountingInstance(g, None, k)).reduced
            if isinstance(reduced.graph, PaddedBlowup):
                candidates = sum(comb(reduced.graph.n, i) for i in range(reduced.k + 1))
                if candidates <= 130_000:
                    blowups[reduced] = candidates
    # the empty core, and one edge at k2 = 1 and k2 = 2
    assert sorted(blowups.values()) == [1, 137, 124_314], blowups
    for reduced in blowups:
        assert oracle_count("vertex-cover", reduced) == reference_blowup_count(reduced), reduced


def test_lift_rejects_impossible_coefficients():
    # Two disjoint edges, k = 2: the core is the whole graph (n2 = 4) and
    # y = (0, 0, 4).  Each corruption below decodes to an impossible y_i.
    two_edges = Graph.from_edges(4, [(0, 1), (2, 3)])
    result = reduce_vertex_cover(CountingInstance(two_edges, None, 2))
    payload = result.context.payload
    d, t, k2, n2 = (int(payload[f]) for f in ("d", "t", "k2", "n2"))
    w = blowup_cover_multiplicity(d, t, k2, n2)
    true_count = sum(count_vertex_covers_of_size(two_edges, i) * w[i] for i in range(k2 + 1))
    assert lift_vertex_cover(result.context, true_count) == count_vertex_covers(two_edges, 2) == 4
    for corrupted in (true_count + w[0],       # y_0 = 1 on a non-empty core
                      true_count + 5 * w[0],   # y_0 = 5 > C(4, 0)
                      true_count + 5 * w[1],   # y_1 = 5 > C(4, 1)
                      true_count + 3 * w[2]):  # y_2 = 7 > C(4, 2)
        with pytest.raises(IntegrityError):
            lift_vertex_cover(result.context, corrupted)


# The CLI tests cover missing keys, a bad branch and non-numeric fields.
@pytest.mark.parametrize("payload", [
    {"branch": "zero", "n1": "0", "n2": "0", "k2": "0"},
    {"branch": "normal", "n1": 3, "n2": "3", "k2": "2", "d": "3", "t": "81", "k3": "6"},
    {"branch": "normal", "n1": " 3", "n2": "3", "k2": "2", "d": "3", "t": "81", "k3": "6"},
    # well-formed fields that no reduce run can emit together
    {"branch": "normal", "n1": "3", "n2": "3", "k2": "2", "d": "0", "t": "81", "k3": "6"},
    {"branch": "normal", "n1": "2", "n2": "3", "k2": "2", "d": "3", "t": "81", "k3": "6"},
    {"branch": "normal", "n1": "3", "n2": "3", "k2": "1", "d": "3", "t": "24", "k3": "3"},
])
def test_lift_rejects_malformed_contexts(payload):
    with pytest.raises(ProtocolError):
        lift_vertex_cover(LiftContext("vertex-cover-kernel", payload), 0)


# Normal contexts that no reduce run can emit: n1 < n2, or a core with
# more vertices than 2*k2^2, which at most k2^2 edges cannot cover.
@pytest.mark.parametrize("payload", [
    {"branch": "normal", "n1": "2", "n2": "3", "k2": "2"},
    {"branch": "normal", "n1": "9", "n2": "9", "k2": "2"},
])
def test_minimal_lift_rejects_inconsistent_contexts(payload):
    with pytest.raises(ProtocolError):
        lift_minimal_vertex_cover(LiftContext("minimal-vertex-cover-kernel", payload), 0)


# ---------------------------------------------------------------------------
# The degree rule and the strip against their first, one-deletion-at-a-time
# implementation
# ---------------------------------------------------------------------------

def reference_buss_reduce(g, k):
    """Lowest-index eligible vertex first, on per-vertex neighbour sets."""
    if k < 0:
        return None
    alive = set(range(g.n))
    adj = [set(nbrs) for nbrs in g.adjacency]
    budget = k
    while True:
        victim = next((v for v in sorted(alive) if len(adj[v]) > budget), None)
        if victim is None:
            break
        if budget == 0:
            return None
        alive.discard(victim)
        for w in adj[victim]:
            adj[w].discard(victim)
        adj[victim].clear()
        budget -= 1
    edges = frozenset(ordered(u, v) for u in alive for v in adj[u] if u < v)
    kept = sorted(alive)
    relabel = {v: i for i, v in enumerate(kept)}
    g1 = Graph(len(kept), frozenset(ordered(relabel[u], relabel[v]) for u, v in edges))
    return g1, budget


def reference_strip_isolated(g1, k1):
    keep = [v for v in range(g1.n) if g1.degree(v) > 0]
    g2, _ = induced_subgraph(g1, keep)
    return g2, k1, g1.n


def assert_matches_reference(g, k):
    got, want = buss_reduce(g, k), reference_buss_reduce(g, k)
    assert got == want, (g, k)
    if want is not None:
        assert strip_isolated(*got) == reference_strip_isolated(*want), (g, k)


def parsed_form(g):
    """``g`` read back by the bulk parse from a file whose ``e`` lines are
    shuffled and whose endpoints are in random order, as the benchmark
    writes its hosts: the graph held as endpoint columns."""
    rng = random.Random(0)
    pairs = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in g.sorted_edges()]
    rng.shuffle(pairs)
    text = f"p {g.n} {g.m}\n" + "".join(f"e {u + 1} {v + 1}\n" for u, v in pairs)
    parsed = parse_graph(text).graph
    assert "edges" not in parsed.__dict__, "the bulk parse built the edge set"
    return parsed


def both_forms(g):
    """``g`` as its builder made it and as parsed back from a shuffled
    file: two routes to one graph, whose columns differ in order and
    orientation and of which only the first may hold its edge set."""
    return g, parsed_form(g)


def assert_forms_match_reference(g, ks):
    """``assert_matches_reference`` at each k on ``both_forms(g)``,
    which must be equal and hash alike."""
    for form in both_forms(g):
        for k in ks:
            assert_matches_reference(form, k)
        assert form == g and hash(form) == hash(g)


def hub_and_leaf_host(seed, n, hubs, core_edges, core_n):
    """Hubs first, then the core, then leaves of the hubs round robin and
    a seeded handful of isolated vertices, under a seeded relabelling."""
    rng = random.Random(seed)
    label = list(range(n))
    rng.shuffle(label)
    first_leaf = hubs + core_n
    leaves = n - first_leaf - rng.randint(0, n // 50)
    pairs = [(hubs + u, hubs + v) for u, v in core_edges]
    pairs += [(j % hubs, first_leaf + j) for j in range(leaves)]
    return Graph.from_edges(n, [(label[u], label[v]) for u, v in pairs])


def stars(leaf_counts):
    edges, centre = [], 0
    for leaves in leaf_counts:
        edges += [(centre, centre + j) for j in range(1, leaves + 1)]
        centre += leaves + 1
    return edges, centre


def cliques(count, size):
    edges = [(c * size + a, c * size + b)
             for c in range(count) for a in range(size) for b in range(a + 1, size)]
    return edges, count * size


def test_buss_and_strip_match_reference_on_corpus():
    for g in graph_corpus(3000, 6, 0):
        assert_forms_match_reference(g, range(5))


def test_reduce_returns_an_unchanged_host_itself():
    cycle = Graph.from_edges(1000, [(v, (v + 1) % 1000) for v in range(1000)])
    g1, k1 = buss_reduce(cycle, 2)
    assert g1 is cycle and k1 == 2
    core, k2, n1 = strip_isolated(g1, k1)
    assert core is cycle and (k2, n1) == (2, 1000)


def test_unchanged_reduce_matches_reference_on_corpus():
    untouched = 0
    for g in graph_corpus(3000, 6, 0):
        k = max(map(len, g.adjacency), default=0)
        got = buss_reduce(g, k)
        assert got == reference_buss_reduce(g, k) and got[0] is g, g
        core = strip_isolated(*got)
        assert core == reference_strip_isolated(*got), g
        if all(g.adjacency):
            assert core[0] is g, g
            untouched += 1
    assert untouched > 100


# Ten hubs and residual budget k2 = 4 at k = 14.  The [5, 3] stars put a
# centre above the lowered budget once the hubs are gone, so the rule
# needs a second deleting round; two K5 keep 20 > 16 edges of degree 4.
HUBS, K2 = 10, 4
CORES = {"stars": stars([3, 3, 2]), "second-round": stars([5, 3]), "dense": cliques(2, 5)}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("core", sorted(CORES))
def test_buss_and_strip_match_reference_on_hub_and_leaf_hosts(seed, core):
    g = hub_and_leaf_host(seed, 2000, HUBS, *CORES[core])
    assert_forms_match_reference(g, (HUBS - 1, HUBS, HUBS + K2 - 1, HUBS + K2, HUBS + K2 + 3))
    for form in both_forms(g):
        inst = CountingInstance(form, None, HUBS + K2)
        branch = reduce_vertex_cover(inst).context.payload["branch"]
        assert branch == ("zero" if core == "dense" else "normal")
        assert buss_reduce(form, HUBS - 1) is None


@pytest.mark.parametrize("edges, n, k, expected", [
    # the centre's deletion spends the last unit and leaves no edge
    ([(0, 1), (0, 2), (0, 3)], 4, 1, (Graph.empty(3), 0)),
    # ... but one edge remains, eligible at budget 0
    ([(0, 1), (0, 2), (0, 3), (4, 5)], 6, 1, None),
    # two centres spend the budget in one round
    (stars([3, 3])[0], 8, 2, (Graph.empty(6), 0)),
    # ... and a third centre is one more than the budget
    (stars([3, 3, 3])[0], 12, 2, None),
    # a star and a path: the path's middle is eligible only after the
    # centre's deletion, and its own deletion brings the budget to 0
    ([(0, 1), (0, 2), (0, 3), (4, 5), (5, 6)], 7, 2, (Graph.empty(5), 0)),
    # ... with a second path both middles are eligible at budget 1
    ([(0, 1), (0, 2), (0, 3), (4, 5), (5, 6), (7, 8), (8, 9)], 10, 2, None),
    # ... with a spare edge it is eligible at budget 0
    ([(0, 1), (0, 2), (0, 3), (4, 5), (5, 6), (7, 8)], 9, 2, None),
])
def test_buss_budget_exhaustion_boundaries(edges, n, k, expected):
    g = Graph.from_edges(n, edges)
    for form in both_forms(g):
        assert buss_reduce(form, k) == expected
    assert_forms_match_reference(g, (k,))


def test_reduced_instance_and_context_are_byte_identical_to_reference(monkeypatch):
    g = hub_and_leaf_host(11, 20_000, HUBS, *CORES["second-round"])

    def outputs(host):
        result = reduce_vertex_cover(CountingInstance(host, None, HUBS + K2))
        return (serialize_graph(result.reduced.graph, k=result.reduced.k),
                result.context.to_json())

    fast = outputs(g)
    assert outputs(parsed_form(g)) == fast
    monkeypatch.setattr(vc_kernel, "buss_reduce", reference_buss_reduce)
    monkeypatch.setattr(vc_kernel, "strip_isolated", reference_strip_isolated)
    assert outputs(g) == fast
    parsed = parsed_form(g)
    assert outputs(parsed) == fast
    assert parsed == g and hash(parsed) == hash(g)
    assert '"branch": "normal"' in fast[1]


def test_reduce_never_builds_the_adjacency(monkeypatch):
    g = hub_and_leaf_host(5, 100_000, HUBS, *CORES["stars"])
    seen = []

    def recording_strip(g1, k1):
        seen.append(g1)
        return strip_isolated(g1, k1)

    monkeypatch.setattr(vc_kernel, "strip_isolated", recording_strip)
    result = reduce_vertex_cover(CountingInstance(g, None, HUBS + K2))
    assert result.context.payload["branch"] == "normal"
    (g1,) = seen
    assert g1.n > 90_000
    assert "adjacency" not in g.__dict__
    assert "adjacency" not in g1.__dict__


def test_reduce_never_builds_the_host_edge_set():
    g = parsed_form(hub_and_leaf_host(5, 100_000, HUBS, *CORES["stars"]))
    for reduce in (reduce_vertex_cover, reduce_minimal_vertex_cover):
        result = reduce(CountingInstance(g, None, HUBS + K2))
        assert result.context.payload["branch"] == "normal"
        assert result.context.payload["n1"] == str(g.n - HUBS)
    assert g.m > 90_000
    assert "edges" not in g.__dict__
    assert "adjacency" not in g.__dict__


def test_zero_branch_of_a_host_below_the_budget_builds_no_edge_set():
    # A 40,000-edge path and isolated vertices: degree 2 <= k, so the rule
    # deletes nothing, and the strip leaves far more than k^2 edges.
    n, k = 100_000, 12
    g = parsed_form(Graph.from_edges(n, [(v, v + 1) for v in range(40_000)]))
    for reduce in (reduce_vertex_cover, reduce_minimal_vertex_cover):
        assert reduce(CountingInstance(g, None, k)).context.payload["branch"] == "zero"
    assert "edges" not in g.__dict__
