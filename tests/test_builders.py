"""The gadget builders and the writer against the set-based code they
replaced.

``subdivide_all_edges``, ``false_twin_blowup``, the mincut-to-OCT gadget
and the OCT-to-VC doubling build endpoint columns, and ``serialize_graph``
writes a ``Graph`` from one sort of integer keys.  The ``reference_*``
functions below are the earlier versions, which built a set of ordered
pairs edge by edge and wrote it row by row.  On seeded corpora, in both
of a graph's forms, the new code must give equal graphs, equal maps, one
column entry per edge, the same refusals and the same bytes.
"""

import random
from collections import defaultdict

import pytest

from countkernel.compositions import (
    MINCUT_TO_OCT,
    mincut_to_oct_reduce,
    oct_to_vc_reduce,
    two_copy_matching_graph,
)
from countkernel.framework import CountingInstance
from countkernel.graphs import (
    BlowupError,
    Graph,
    TerminalPair,
    connected_components,
    false_twin_blowup,
    induced_subgraph,
    ordered,
    parse_graph,
    serialize_graph,
    subdivide_all_edges,
)
from countkernel.oracles import min_cut_size, random_graph
from countkernel.verification import cut_instance_pool, graph_corpus

from test_vc_kernel import both_forms


def reference_subdivide_all_edges(g):
    edge_vertex = {}
    new_edges = set()
    next_index = g.n
    for u, v in g.sorted_edges():
        a = next_index
        next_index += 1
        edge_vertex[(u, v)] = a
        new_edges.add(ordered(u, a))
        new_edges.add(ordered(v, a))
    return Graph(g.n + g.m, frozenset(new_edges)), edge_vertex


def reference_false_twin_blowup(g, targets, copies):
    target_set = set(targets)
    if copies <= 0:
        raise ValueError("copies must be positive")
    for v in target_set:
        if not 0 <= v < g.n:
            raise ValueError(f"target {v} out of range")
    for u, v in g.edges:
        if u in target_set and v in target_set:
            raise BlowupError(f"targets {u} and {v} are adjacent")
    copy_of = {}
    next_index = 0
    for v in range(g.n):
        width = copies if v in target_set else 1
        copy_of[v] = tuple(range(next_index, next_index + width))
        next_index += width
    new_edges = set()
    for u, v in g.edges:
        for cu in copy_of[u]:
            for cv in copy_of[v]:
                new_edges.add(ordered(cu, cv))
    return Graph(next_index, frozenset(new_edges)), copy_of


def reference_mincut_to_oct_graph(g, st):
    """The normal branch's graph and k, or None for separated terminals."""
    comp_s = next(c for c in connected_components(g) if st.s in c)
    if st.t not in comp_s:
        return None
    kept, vmap = induced_subgraph(g, comp_s)
    s, t = vmap[st.s], vmap[st.t]
    k = min_cut_size(kept, TerminalPair(s, t))
    subdivided, _ = reference_subdivide_all_edges(kept)
    blown, copy_of = reference_false_twin_blowup(subdivided, range(kept.n), k + 1)
    base = blown.n
    xs = [base + j for j in range(k + 1)]
    ys = [base + k + 1 + j for j in range(k + 1)]
    edges = set(blown.edges)
    for j in range(k + 1):
        edges.add(ordered(xs[j], ys[j]))
        for si in copy_of[s]:
            edges.add(ordered(si, xs[j]))
        for ti in copy_of[t]:
            edges.add(ordered(ti, ys[j]))
    return Graph(base + 2 * (k + 1), frozenset(edges)), k


def reference_two_copy_matching_graph(g):
    edges = set()
    for u, v in g.edges:
        edges.add(ordered(u, v))
        edges.add(ordered(u + g.n, v + g.n))
    for v in range(g.n):
        edges.add(ordered(v, v + g.n))
    return Graph(2 * g.n, frozenset(edges))


def reference_rows(g):
    grouped = defaultdict(list)
    for u, v in g.edges:
        grouped[u].append(v)
    for u in sorted(grouped):
        row = grouped[u]
        row.sort()
        yield u, [str(v + 1) for v in row]


def reference_row_writer(g, terminals=None, k=None, comment=None):
    """The row writer: one joined row of labels per lower endpoint."""
    lines = []
    if comment:
        lines.extend(f"c {part}" for part in comment.splitlines())
    lines.append(f"p {g.n} {g.m}")
    for u, labels in reference_rows(g):
        pre = f"e {u + 1} "
        lines.append(pre + ("\n" + pre).join(labels))
    if terminals is not None:
        lines.append(f"t {terminals.s + 1} {terminals.t + 1}")
    if k is not None:
        lines.append(f"k {k}")
    return "\n".join(lines) + "\n"


def corpus():
    rng = random.Random(41)
    graphs = graph_corpus(150, 8, 41)
    graphs += [random_graph(rng.randint(9, 80), rng.choice((0.03, 0.1, 0.4)),
                            rng.randrange(10**6)) for _ in range(25)]
    return graphs


def same_graph(got, want):
    assert got == want
    assert got.n == want.n
    assert len(got.edges) == got.m == want.m


def independent_targets(g, rng):
    """A random set of pairwise non-adjacent vertices of ``g``."""
    targets = set()
    for v in rng.sample(range(g.n), rng.randint(0, g.n)):
        if not any(g.has_edge(v, w) for w in targets):
            targets.add(v)
    return targets


def test_subdivide_matches_reference():
    for g in corpus():
        want, want_map = reference_subdivide_all_edges(g)
        for form in both_forms(g):
            got, got_map = subdivide_all_edges(form)
            same_graph(got, want)
            assert got_map == want_map


def test_blowup_matches_reference():
    rng = random.Random(43)
    for g in corpus():
        targets = independent_targets(g, rng)
        copies = rng.randint(1, 4)
        want, want_map = reference_false_twin_blowup(g, targets, copies)
        for form in both_forms(g):
            got, got_map = false_twin_blowup(form, targets, copies)
            same_graph(got, want)
            assert got_map == want_map


@pytest.mark.parametrize("targets, copies, error", [
    ("edge", 2, BlowupError),
    ("edge", 1, BlowupError),
    ("none", 0, ValueError),
    ("none", -1, ValueError),
    ("past-n", 2, ValueError),
    ("negative", 2, ValueError),
])
def test_blowup_refuses_as_the_reference(targets, copies, error):
    for g in corpus():
        if g.m == 0:
            continue
        chosen = {"edge": min(g.edges), "none": (), "past-n": (0, g.n),
                  "negative": (-1,)}[targets]
        with pytest.raises(error):
            reference_false_twin_blowup(g, chosen, copies)
        for form in both_forms(g):
            with pytest.raises(error):
                false_twin_blowup(form, chosen, copies)


def test_two_copy_matching_graph_matches_reference():
    for g in corpus():
        want = reference_two_copy_matching_graph(g)
        for form in both_forms(g):
            same_graph(two_copy_matching_graph(form), want)


def test_mincut_to_oct_matches_reference():
    pool = cut_instance_pool(150, 9, 47)
    normal = 0
    for g, st in pool:
        want = reference_mincut_to_oct_graph(g, st)
        for form in both_forms(g):
            result = mincut_to_oct_reduce(CountingInstance(form, st, None, "min-cut-size"))
            payload = result.context.expect(MINCUT_TO_OCT)
            if want is None:
                assert payload == {"branch": "separated", "k": "0"}
                continue
            graph, k = want
            same_graph(result.reduced.graph, graph)
            assert result.reduced.k == k
            assert payload == {"branch": "normal", "k": str(k)}
        normal += want is not None
    assert normal >= 50


def test_column_constructor_refuses_what_the_set_constructor_refuses():
    with pytest.raises(ValueError, match="self-loop at vertex 2"):
        Graph._from_columns(4, [0, 2], [1, 2])
    with pytest.raises(ValueError, match=r"edge \(1,4\) out of range for n=4"):
        Graph._from_columns(4, [0, 1], [1, 4])
    with pytest.raises(ValueError, match=r"out of range"):
        Graph._from_columns(4, [0, -1], [1, 2])
    assert Graph._from_columns(0, [], []) == Graph.empty(0)


def matching(n):
    return Graph.from_edges(2 * n, [(v, 2 * n - 1 - v) for v in range(n)])


@pytest.mark.parametrize("g", [
    Graph.empty(0),
    Graph.empty(5),
    matching(1),
    matching(40),
    Graph.from_edges(12, [(11, 0), (3, 9), (3, 4), (10, 3), (0, 1), (9, 11)]),
], ids=["empty", "no-edges", "one-edge", "one-edge-rows", "mixed-rows"])
@pytest.mark.parametrize("terminals, k, comment", [
    (None, None, None),
    (None, 0, ""),
    ("first-last", 7, "first\nsecond\r\nthird\n"),
    ("last-first", None, "\n\nafter blank lines"),
])
def test_serialize_matches_the_row_writer(g, terminals, k, comment):
    if terminals is not None and g.n < 2:
        terminals = None
    elif terminals is not None:
        ends = (0, g.n - 1) if terminals == "first-last" else (g.n - 1, 0)
        terminals = TerminalPair(*ends)
    want = reference_row_writer(g, terminals, k, comment)
    for form in both_forms(g):
        assert serialize_graph(form, terminals, k, comment) == want


def test_serialize_matches_the_row_writer_on_the_corpus():
    rng = random.Random(53)
    for g in corpus():
        terminals = TerminalPair(*rng.sample(range(g.n), 2)) if g.n >= 2 else None
        k = rng.choice((None, 0, rng.randrange(10**6)))
        for form in both_forms(g):
            assert serialize_graph(form) == reference_row_writer(g)
            assert serialize_graph(form, terminals, k, "corpus\nline two") \
                == reference_row_writer(g, terminals, k, "corpus\nline two")


def test_oct_to_vc_on_a_parsed_graph_never_builds_an_edge_set():
    g = random_graph(400, 0.05, 59)
    parsed = parse_graph(serialize_graph(g, k=6)).graph
    result = oct_to_vc_reduce(CountingInstance(parsed, None, 6))
    doubled = result.reduced.graph
    text = serialize_graph(doubled, k=result.reduced.k)
    assert parsed.m > 3000 and doubled.m == 2 * parsed.m + parsed.n
    for built in (parsed, doubled):
        assert "edges" not in built.__dict__
        assert "adjacency" not in built.__dict__
    assert text == reference_row_writer(reference_two_copy_matching_graph(g), k=406)
