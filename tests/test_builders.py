"""The graph builders and the writer against the set-based code they
replaced.

Every builder (``subdivide_all_edges``, ``false_twin_blowup``,
``chain_identify``, ``induced_subgraph``, the mincut-to-OCT gadget, the
OCT-to-VC doubling, ``exact_compose``, ``padded_blowup_graph`` and
``random_graph``) appends endpoint columns, and ``serialize_graph``
writes a ``Graph`` from one sort of integer keys, a slice at a time.
The ``reference_*`` functions below are the earlier versions, which
built a set of ordered pairs edge by edge and wrote it row by row.  On
seeded corpora, for each input as built and as parsed back, the new
code must give equal graphs that hash alike, equal maps, one column
entry per edge, the same refusals and the same bytes.  ``reference_exact_witness`` is the
two-pass witness builder that ``exact_compose`` folded into its one
pass; its witness must serialize alike and have the same width.
"""

import random
import sys
import tracemalloc
from array import array
from collections import defaultdict
from itertools import chain, product

import pytest

from countkernel import graphs
from countkernel.compositions import (
    MINCUT_TO_OCT,
    _input_decomposition,
    exact_compose,
    group_by_min_cut,
    mincut_to_oct_reduce,
    oct_to_vc_reduce,
    two_copy_matching_graph,
)
from countkernel.framework import CountingInstance
from countkernel.graphs import (
    BlowupError,
    Graph,
    TerminalPair,
    TreeDecomposition,
    chain_identify,
    connected_components,
    false_twin_blowup,
    induced_subgraph,
    ordered,
    parse_graph,
    serialize_graph,
    subdivide_all_edges,
)
from countkernel.oracles import TREEWIDTH_LIMIT, exact_treewidth, min_cut_size, random_graph
from countkernel.vc_kernel import padded_blowup_graph
from countkernel.verification import cut_instance_pool, graph_corpus

from test_graphs import reference_serialize_graph
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


def reference_chain_identify(instances):
    if not instances:
        raise ValueError("need at least one instance")
    for g, st in instances:
        st.check_in(g)
    maps = []
    edges = set()
    next_index = 0
    prev_t_image = None
    for g, st in instances:
        vmap = {}
        if prev_t_image is not None:
            vmap[st.s] = prev_t_image
        for v in range(g.n):
            if v not in vmap:
                vmap[v] = next_index
                next_index += 1
        for u, v in g.edges:
            edges.add(ordered(vmap[u], vmap[v]))
        maps.append(vmap)
        prev_t_image = vmap[st.t]
    s = maps[0][instances[0][1].s]
    t = maps[-1][instances[-1][1].t]
    return Graph(next_index, frozenset(edges)), TerminalPair(s, t), maps


def reference_induced_subgraph(g, keep):
    kept = sorted(set(keep))
    vmap = {v: i for i, v in enumerate(kept)}
    edges = frozenset(ordered(vmap[u], vmap[v])
                      for u, v in g.edges if u in vmap and v in vmap)
    return Graph(len(kept), edges), vmap


def reference_exact_compose_graph(instances):
    """The gadget branch's graph and terminals: the chain plus, for copy
    i of ell, m*(i-1) terminal paths with three internal vertices and
    m*(ell-1) - m*(i-1) with one, m twice the largest edge count."""
    ell = len(instances)
    m = 2 * max(g.m for g, _ in instances)
    chained, terminals, maps = reference_chain_identify(instances)
    edges = set(chained.edges)
    next_vertex = chained.n
    for i in range(1, ell + 1):
        st_i = instances[i - 1][1]
        s_i, t_i = maps[i - 1][st_i.s], maps[i - 1][st_i.t]
        for _ in range(m * (i - 1)):
            x, y, z = next_vertex, next_vertex + 1, next_vertex + 2
            next_vertex += 3
            edges.update([ordered(s_i, x), ordered(x, y), ordered(y, z), ordered(z, t_i)])
        for _ in range(m * (ell - 1) - m * (i - 1)):
            x = next_vertex
            next_vertex += 1
            edges.update([ordered(s_i, x), ordered(x, t_i)])
    return Graph(next_vertex, frozenset(edges)), terminals


def reference_exact_witness(instances, decompositions=None):
    """The gadget branch's witness as the two-pass builder made it.

    The first pass numbers each copy's long-path vertices, then its
    short-path vertices, into two lists.  The second walks the copies
    again: the input decomposition relabelled with t_i in every bag, one
    bag per short path and three per long path hung off the copy's first
    node holding s_i, and the anchors of consecutive copies linked.
    """
    ell = len(instances)
    m = 2 * max(g.m for g, _ in instances)
    input_tds = [_input_decomposition(g, supplied)
                 for (g, _), supplied in zip(instances, decompositions or [None] * ell)]
    chained, _, maps = reference_chain_identify(instances)
    next_vertex = chained.n
    long_paths, short_paths = [], []
    for i in range(1, ell + 1):
        longs, shorts = [], []
        for _ in range(m * (i - 1)):
            longs.append((next_vertex, next_vertex + 1, next_vertex + 2))
            next_vertex += 3
        for _ in range(m * (ell - 1) - m * (i - 1)):
            shorts.append(next_vertex)
            next_vertex += 1
        long_paths.append(longs)
        short_paths.append(shorts)

    nodes, links, bags, anchors = [], set(), {}, []
    for i in range(1, ell + 1):
        st_i, vmap, td = instances[i - 1][1], maps[i - 1], input_tds[i - 1]
        s_i, t_i = vmap[st_i.s], vmap[st_i.t]
        rename = {node: ("g", i, node) for node in td.nodes}
        for node in td.nodes:
            nodes.append(rename[node])
            bags[rename[node]] = frozenset(vmap[v] for v in td.bags[node]) | {t_i}
        for link in td.links:
            a, b = list(link)
            links.add(frozenset({rename[a], rename[b]}))
        anchor = next(rename[node] for node in td.nodes if s_i in bags[rename[node]])
        anchors.append(anchor)
        for j, x in enumerate(short_paths[i - 1]):
            a = ("a", i, j)
            nodes.append(a)
            bags[a] = frozenset({s_i, x, t_i})
            links.add(frozenset({anchor, a}))
        for j, (x, y, z) in enumerate(long_paths[i - 1]):
            a, b, c = ("A", i, j), ("B", i, j), ("C", i, j)
            nodes.extend([a, b, c])
            bags[a] = frozenset({s_i, x, t_i})
            bags[b] = frozenset({x, y, t_i})
            bags[c] = frozenset({y, z, t_i})
            links.update([frozenset({anchor, a}), frozenset({a, b}), frozenset({b, c})])
    for i in range(1, ell):
        links.add(frozenset({anchors[i - 1], anchors[i]}))
    return TreeDecomposition(nodes=tuple(nodes), links=frozenset(links), bags=bags)


def reference_padded_blowup_graph(core, copies, padding):
    if copies < 0 or padding < 0:
        raise ValueError("copies and padding must be nonnegative")
    edges = frozenset(chain.from_iterable(
        product(range(u * copies, u * copies + copies), range(v * copies, v * copies + copies))
        for u, v in core.edges))
    return Graph(core.n * copies + padding, edges)


def reference_random_graph(n, p, seed):
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must be in [0, 1]")
    rng = random.Random(seed)
    edges = set()
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.add((u, v))
    return Graph(n, frozenset(edges))


def reference_graph_refusal(n, edges):
    """The message the per-edge check of ``Graph(n, edges)`` raised for
    the first bad edge in the set's order, or None."""
    if n < 0:
        return "vertex count must be nonnegative"
    for u, v in edges:
        if u == v:
            return f"self-loop at vertex {u}"
        if not (0 <= u < v < n):
            return f"edge ({u},{v}) out of range for n={n}"
    return None


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
            got = subdivide_all_edges(form)
            same_graph(got, want)
            # The subdivision vertex of the edge at column indices i and
            # m + i is ``vs[i]`` (= ``vs[m + i]``), numbered in sorted order.
            us, vs = got.columns()
            assert vs[:g.m] == vs[g.m:]
            assert dict(zip(map(ordered, us[:g.m], us[g.m:]), vs)) == want_map


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
            got = two_copy_matching_graph(form)
            same_graph(got, want)
            assert [(type(c), c.typecode) for c in got.columns()] == [(array, "q")] * 2


def random_column_graph(n, m, seed):
    """m distinct random edges on n >= 3 vertices, held as lists of
    endpoint columns as a builder holds them: m distinct vertices i, each
    joined to i + d mod n for a d drawn from 1..(n-1)//2, so that no pair
    repeats.  An edge that wraps past n - 1 is held high end first."""
    rng = random.Random(seed)
    us = rng.sample(range(n), m)
    steps = rng.choices(range(1, (n + 1) // 2), k=m)
    return Graph._from_columns(n, us, [(u + d) % n for u, d in zip(us, steps)])


@pytest.mark.parametrize("size", [1, 2, 3])
def test_serialize_matches_reference_at_every_slice_boundary(monkeypatch, size):
    """``serialize_graph`` formats a graph ``graphs._SLICE`` keys at a
    time: with no edges, one, a slice less one, a full slice, a slice and
    one, and two slices and one, the text is the reference's, for a
    built, a parsed and a doubled graph."""
    monkeypatch.setattr(graphs, "_SLICE", size)
    for m in sorted({0, 1, size - 1, size, size + 1, 2 * size + 1}):
        g = random_column_graph(m + 3, m, seed=m)
        doubled = two_copy_matching_graph(g)
        assert doubled == reference_two_copy_matching_graph(g)
        for form in (g, parse_graph(reference_serialize_graph(g)).graph, doubled):
            ends = TerminalPair(form.n - 1, 0)
            for terminals, k, comment in ((None, None, None), (ends, 0, "slice\nedge"),
                                          (None, 7, None), (ends, None, "")):
                assert serialize_graph(form, terminals, k, comment) \
                    == reference_serialize_graph(form, terminals, k, comment)


def test_serialize_and_the_doubled_graph_stay_small():
    """The writer holds about a key an edge beside the text, not all the
    formatted endpoints at once, and the OCT-to-VC doubling keeps its
    columns as ``array('q')``, 16 bytes an edge and some slack."""
    g = random_column_graph(200_000, 200_000, seed=71)
    tracemalloc.start()
    try:
        text = serialize_graph(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * len(text)
    doubled = two_copy_matching_graph(g)
    assert doubled.m == 2 * g.m + g.n
    # ``getsizeof`` of a list would count its slots but not its ints.
    assert all(type(column) is array for column in doubled.columns())
    assert sum(map(sys.getsizeof, doubled.columns())) <= 20 * doubled.m


def test_mincut_to_oct_matches_reference():
    pool = cut_instance_pool(150, 9, 47)
    normal = 0
    for g, st in pool:
        want = reference_mincut_to_oct_graph(g, st)
        for form in both_forms(g):
            result = mincut_to_oct_reduce(CountingInstance(form, st, None, "min-cut-size"))
            payload = result.context.expect(MINCUT_TO_OCT)
            if want is None:
                assert payload == {"branch": "separated", "k": "0", "m": "0"}
                continue
            graph, k = want
            same_graph(result.reduced.graph, graph)
            assert result.reduced.k == k
            kept = next(c for c in connected_components(g) if st.s in c)
            kept_m = sum(u in kept for u, _ in g.edges)
            assert payload == {"branch": "normal", "k": str(k), "m": str(kept_m)}
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


def same_graph_and_hash(got, want):
    same_graph(got, want)
    assert hash(got) == hash(want)


def test_chain_identify_matches_reference():
    rng = random.Random(61)
    pool = cut_instance_pool(120, 8, 61)
    for _ in range(60):
        instances = rng.sample(pool, rng.randint(1, 4))
        want, want_st, want_maps = reference_chain_identify(instances)
        for forms in zip(*(both_forms(g) for g, _ in instances)):
            got, got_st, got_maps = chain_identify(
                [(form, st) for form, (_, st) in zip(forms, instances)])
            same_graph_and_hash(got, want)
            assert got_st == want_st and got_maps == want_maps
            assert serialize_graph(got, got_st) == reference_row_writer(want, want_st)


def test_chain_identify_refuses_as_the_reference():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    for instances, error in (([], "need at least one instance"),
                             ([(g, TerminalPair(0, 3))], "out of range")):
        for build in (reference_chain_identify, chain_identify):
            with pytest.raises(ValueError, match=error):
                build(instances)


def test_induced_subgraph_matches_reference():
    rng = random.Random(67)
    for g in corpus():
        keeps = [rng.sample(range(g.n), rng.randint(0, g.n)) for _ in range(3)]
        keeps += [sorted(c) for c in connected_components(g)]
        for keep in keeps:
            want, want_map = reference_induced_subgraph(g, keep)
            for form in both_forms(g):
                got, got_map = induced_subgraph(form, keep)
                same_graph_and_hash(got, want)
                assert got_map == want_map
                assert serialize_graph(got) == reference_row_writer(want)


def gadget_tuples(pool, rng, draws, most=3):
    """Up to ``draws`` random tuples of 1..``most`` equal-cut-size pool
    instances, skipping those the trivial branch would take: it records
    answers and builds no gadget."""
    classes = [members for members in group_by_min_cut(pool).values() if len(members) >= 2]
    for _ in range(draws):
        members = rng.choice(classes)
        instances = [pool[i] for i in rng.sample(members, min(len(members), rng.randint(1, most)))]
        if len(instances) < 2 ** max(g.m for g, _ in instances):
            yield instances


def parsed_tuples(instances):
    """``instances`` as built, then with every graph parsed back."""
    for forms in zip(*(both_forms(g) for g, _ in instances)):
        yield [(form, st) for form, (_, st) in zip(forms, instances)]


def test_exact_compose_matches_reference():
    composed = 0
    for instances in gadget_tuples(cut_instance_pool(150, 8, 71), random.Random(71), 24):
        want, want_st = reference_exact_compose_graph(instances)
        for forms in parsed_tuples(instances):
            got = exact_compose(forms)
            same_graph_and_hash(got.graph, want)
            assert got.terminals == want_st
            assert serialize_graph(got.graph, got.terminals) == reference_row_writer(want, want_st)
        composed += 1
    assert composed >= 15


def same_witness(instances, decompositions=None):
    got = exact_compose(instances, decompositions).witness
    want = reference_exact_witness(instances, decompositions)
    assert got.to_jsonable() == want.to_jsonable()
    assert got.width == want.width


def test_exact_witness_matches_reference():
    composed = 0
    for instances in gadget_tuples(cut_instance_pool(150, 8, 71), random.Random(71), 40, 4):
        for forms in parsed_tuples(instances):
            same_witness(forms)
        composed += 1
    assert composed >= 25


def renamed_decomposition(g, rng):
    """An exact decomposition of ``g`` with new node ids in a new order."""
    td = exact_treewidth(g)[1]
    order = rng.sample(td.nodes, len(td.nodes))
    name = {node: f"v{j}" for j, node in enumerate(order)}
    return TreeDecomposition(nodes=tuple(name[node] for node in order),
                             links=frozenset(frozenset(map(name.get, link)) for link in td.links),
                             bags={name[node]: sorted(td.bags[node]) for node in order})


def test_exact_witness_matches_reference_on_supplied_decompositions():
    rng = random.Random(79)
    composed = 0
    for instances in gadget_tuples(cut_instance_pool(150, 8, 79), rng, 30, 4):
        supplied = [rng.choice((None, renamed_decomposition(g, rng), TreeDecomposition(
            nodes=(0,), links=frozenset(), bags={0: range(g.n)}))) for g, _ in instances]
        for forms in parsed_tuples(instances):
            same_witness(forms, supplied)
        composed += 1
    assert composed >= 20


def test_exact_witness_matches_reference_past_the_treewidth_limit():
    # graphs on 13..16 vertices get the single-bag decomposition
    rng = random.Random(83)
    pool = cut_instance_pool(60, 16, 83, probabilities=(0.15, 0.25),
                             keep=lambda g: g.n > TREEWIDTH_LIMIT)
    pool += cut_instance_pool(60, 8, 83)
    composed = 0
    for instances in gadget_tuples(pool, rng, 30):
        if any(g.n > TREEWIDTH_LIMIT for g, _ in instances):
            for forms in parsed_tuples(instances):
                same_witness(forms)
            composed += 1
    assert composed >= 10


@pytest.mark.parametrize("copies, padding", [(0, 0), (0, 3), (1, 0), (2, 1), (3, 4)])
def test_padded_blowup_graph_matches_reference(copies, padding):
    for g in corpus()[::3]:
        want = reference_padded_blowup_graph(g, copies, padding)
        for form in both_forms(g):
            got = padded_blowup_graph(form, copies, padding)
            same_graph_and_hash(got, want)
            assert serialize_graph(got, k=copies) == reference_row_writer(want, k=copies)
    for copies, padding in ((-1, 0), (1, -1)):
        for build in (reference_padded_blowup_graph, padded_blowup_graph):
            with pytest.raises(ValueError, match="copies and padding must be nonnegative"):
                build(Graph.empty(2), copies, padding)


def test_random_graph_matches_reference():
    rng = random.Random(73)
    for n in (0, 1, 2, 5, 17, 60):
        for p in (0.0, 0.03, 0.3, 1.0):
            seed = rng.randrange(10**6)
            want = reference_random_graph(n, p, seed)
            got = random_graph(n, p, seed)
            same_graph_and_hash(got, want)
            assert serialize_graph(got) == reference_row_writer(want)
    for n, p, error in ((3, 1.5, "edge probability"), (3, -0.1, "edge probability"),
                        (-1, 0.5, "vertex count must be nonnegative")):
        for build in (reference_random_graph, random_graph):
            with pytest.raises(ValueError, match=error):
                build(n, p, 1)


@pytest.mark.parametrize("n, edges, message", [
    (4, {(2, 2)}, "self-loop at vertex 2"),
    (4, {(2, 1)}, r"edge \(2,1\) out of range for n=4"),
    (4, {(1, 4)}, r"edge \(1,4\) out of range for n=4"),
    (4, {(-1, 2)}, r"edge \(-1,2\) out of range for n=4"),
    (-1, set(), "vertex count must be nonnegative"),
], ids=["self-loop", "reversed", "past-n", "negative-endpoint", "negative-n"])
def test_graph_refusals_and_messages(n, edges, message):
    assert reference_graph_refusal(n, frozenset(edges)) == message.replace("\\", "")
    with pytest.raises(ValueError, match=f"^{message}$"):
        Graph(n, frozenset(edges))


@pytest.mark.parametrize("n, us, vs, message", [
    (4, [0, 3], [1, 3], "self-loop at vertex 3"),
    (4, [0, 2], [1, 4], r"edge \(2,4\) out of range for n=4"),
    (4, [0, 4], [1, 2], r"edge \(4,2\) out of range for n=4"),
    (4, [0, 2], [1, -1], r"edge \(2,-1\) out of range for n=4"),
    (4, [0, -1], [1, 2], r"edge \(-1,2\) out of range for n=4"),
    (-1, [], [], "vertex count must be nonnegative"),
], ids=["self-loop", "second-past-n", "first-past-n", "second-negative", "first-negative",
        "negative-n"])
def test_column_constructor_refuses_a_bad_endpoint_in_either_column(n, us, vs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Graph._from_columns(n, us, vs)
    assert Graph._from_columns(4, [3, 0], [1, 2]) == Graph.from_edges(4, [(1, 3), (0, 2)])


def test_graph_refuses_the_first_bad_edge_as_the_per_edge_check():
    rng = random.Random(79)

    def bad_edge(n):
        """A self-loop, a reversed pair, an endpoint at or past n, or a
        negative endpoint."""
        u = rng.randrange(n)
        return rng.choice([(u, u), (u + 1, u), (u, n + rng.randrange(3)),
                           (-1 - rng.randrange(3), u)])

    refused = 0
    for _ in range(400):
        n = rng.randint(1, 12)
        edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3}
        edges = frozenset(edges | {bad_edge(n) for _ in range(rng.randint(0, 3))})
        want = reference_graph_refusal(n, edges)
        if want is None:
            assert Graph(n, edges).edges is edges
            continue
        with pytest.raises(ValueError) as refusal:
            Graph(n, edges)
        assert str(refusal.value) == want
        refused += 1
    assert refused >= 200


def test_mincut_to_oct_on_a_parsed_graph_never_builds_an_edge_set():
    n = 400
    g = random_graph(n, 0.02, 83)
    parsed = parse_graph(serialize_graph(g, TerminalPair(0, n - 1))).graph
    result = mincut_to_oct_reduce(CountingInstance(parsed, TerminalPair(0, n - 1), None,
                                                   "min-cut-size"))
    assert parsed.m > 1000 and result.context.expect(MINCUT_TO_OCT)["branch"] == "normal"
    assert "edges" not in parsed.__dict__
    want, k = reference_mincut_to_oct_graph(g, TerminalPair(0, n - 1))
    same_graph(result.reduced.graph, want)
    assert result.reduced.k == k
