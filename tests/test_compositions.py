import json
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from countkernel.compositions import (
    MINCUT_TO_OCT,
    OCT_TO_VC,
    ExactMetadata,
    exact_compose,
    extract_counts,
    group_by_min_cut,
    mincut_to_oct_lift,
    mincut_to_oct_reduce,
    oct_to_vc_lift,
    oct_to_vc_reduce,
    sum_compose,
)
from countkernel.framework import (
    CompositionError,
    CountingInstance,
    IntegrityError,
    LiftContext,
    PreconditionError,
    ProtocolError,
)
from countkernel.graphs import (
    Graph,
    TerminalPair,
    parse_graph,
    serialize_graph,
    validate_tree_decomposition,
)
from countkernel.oracles import (
    count_min_st_cuts,
    count_odd_cycle_transversals,
    count_vertex_covers,
    exact_treewidth,
    is_nice_oct_instance,
    lp_vc_value,
    max_matching_size,
    random_graph,
)

from test_framework import json_texts

EDGE = (Graph.from_edges(2, [(0, 1)]), TerminalPair(0, 1))
PATH = (Graph.from_edges(3, [(0, 1), (1, 2)]), TerminalPair(0, 2))
K3 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
K4 = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])

# Spellings that int() accepts but that are not nonnegative ASCII decimals.
NONCANONICAL = {"plus-sign": "+7", "leading-space": " 7", "underscore": "1_0",
                "arabic-indic-digit": "\u0663", "empty": ""}


def test_group_by_min_cut():
    classes = group_by_min_cut([EDGE, PATH])
    assert classes == {1: [0, 1]}
    classes = group_by_min_cut([(K4, TerminalPair(0, 1)), EDGE])
    assert classes == {3: [0], 1: [1]}
    assert group_by_min_cut([]) == {}


def test_sum_compose_two_paths():
    composed = sum_compose([PATH, PATH])
    assert count_min_st_cuts(composed.graph, composed.terminals) == (4, 1)


def test_sum_compose_single_instance():
    composed = sum_compose([PATH])
    assert count_min_st_cuts(composed.graph, composed.terminals) == (2, 1)


def test_sum_compose_mixed_sizes():
    composed = sum_compose([EDGE, PATH])
    assert count_min_st_cuts(composed.graph, composed.terminals) == (3, 1)


def test_sum_compose_rejections():
    with pytest.raises(CompositionError):
        sum_compose([])
    with pytest.raises(CompositionError):
        sum_compose([EDGE, (K4, TerminalPair(0, 1))])
    apart = (Graph.from_edges(3, [(1, 2)]), TerminalPair(0, 2))
    with pytest.raises(CompositionError):
        sum_compose([apart, apart])


def test_sum_identity_random_tuples():
    rng = random.Random(4)
    pool = []
    while len(pool) < 24:
        n = rng.randint(2, 6)
        g = random_graph(n, 0.45, rng.randrange(10**6))
        s, t = rng.sample(range(n), 2)
        pool.append((g, TerminalPair(s, t)))
    classes = group_by_min_cut(pool)
    done = 0
    for size, members in classes.items():
        if size == 0 or done >= 8:
            continue
        parts = [pool[i] for i in (members * 3)[: rng.randint(1, 4)]]
        composed = sum_compose(parts)
        count, _ = count_min_st_cuts(composed.graph, composed.terminals)
        assert count == sum(count_min_st_cuts(g, st)[0] for g, st in parts)
        assert composed.k <= max(g.m for g, _ in parts)
        done += 1


# ---------------------------------------------------------------------------
# mincut -> oct
# ---------------------------------------------------------------------------

def test_mincut_oct_single_edge_counts_and_shape():
    inst = CountingInstance(*EDGE, None, "min-cut-size")
    result = mincut_to_oct_reduce(inst)
    gp, k = result.reduced.graph, result.reduced.k
    assert gp.n == 9 and k == 1
    assert count_odd_cycle_transversals(gp, k) == 1
    assert is_nice_oct_instance(gp, k)
    assert mincut_to_oct_lift(result.context, 1) == 1


def test_mincut_oct_gadget_orientation_pinned():
    # Pendant-pair vertices must split between the two terminal sides:
    # wiring both pendant classes to one side leaves degree-1 partners
    # and no odd cycles at all.  On the single edge the right wiring
    # gives one degree-4 hub (the subdivision vertex) and degree 3
    # everywhere else.
    inst = CountingInstance(*EDGE, None, "min-cut-size")
    gp = mincut_to_oct_reduce(inst).reduced.graph
    degrees = sorted(gp.degree(v) for v in range(gp.n))
    assert degrees == [3] * 8 + [4]


def test_mincut_oct_path():
    inst = CountingInstance(*PATH, None, "min-cut-size")
    result = mincut_to_oct_reduce(inst)
    assert count_odd_cycle_transversals(result.reduced.graph, result.reduced.k) == 2


def test_mincut_oct_separated_terminals():
    apart = Graph.from_edges(4, [(0, 1), (2, 3)])
    inst = CountingInstance(apart, TerminalPair(0, 2), None, "min-cut-size")
    result = mincut_to_oct_reduce(inst)
    assert result.context.payload["branch"] == "separated"
    reduced = result.reduced
    assert count_odd_cycle_transversals(reduced.graph, reduced.k) == 1
    assert mincut_to_oct_lift(result.context, 1) == 1
    assert count_min_st_cuts(apart, TerminalPair(0, 2))[0] == 1


def test_mincut_oct_lift_checks_the_count_against_its_branch():
    separated = mincut_to_oct_reduce(
        CountingInstance(Graph.from_edges(4, [(0, 1), (2, 3)]), TerminalPair(0, 2), None,
                         "min-cut-size")).context
    normal = mincut_to_oct_reduce(CountingInstance(*EDGE, None, "min-cut-size")).context
    assert mincut_to_oct_lift(separated, 1) == 1
    assert mincut_to_oct_lift(normal, 1) == 1  # one edge: C(1, 1) = 1 cut
    for ctx, bad in ((separated, 0), (separated, 5), (separated, -1), (normal, 0), (normal, -3),
                     (normal, 7)):
        with pytest.raises(IntegrityError):
            mincut_to_oct_lift(ctx, bad)
    # The bound C(10^7, 5*10^6) has about 10^7 bits; a small count never builds it.
    huge = LiftContext.of(MINCUT_TO_OCT, "normal", k=5 * 10**6, m=10**7)
    assert mincut_to_oct_lift(huge, 12345) == 12345
    # A 4300-digit m: C(m, 10^4) has about 1.4*10^8 bits, and a 10^4-bit count
    # is shown below it from bit lengths alone.
    wide = LiftContext.of(MINCUT_TO_OCT, "normal", k=10**4, m=10**4299)
    assert mincut_to_oct_lift(wide, 2**10001) == 2**10001


@pytest.mark.parametrize("payload", [
    {"branch": ["junk"]}, {"branch": "junk", "k": "1"}, {"branch": "normal"},
    {"branch": "normal", "k": 1, "m": "1"}, {"branch": "normal", "k": "0", "m": "1"},
    {"branch": "separated", "k": "2", "m": "2"}, {"k": "1"}, {"branch": "normal", "k": "1"},
    *({"branch": "normal", "k": "1", "m": m} for m in NONCANONICAL.values()),
    {"branch": "normal", "k": "3", "m": "2"}, {"branch": "separated", "k": "0", "m": "2"},
], ids=["junk-branch-no-k", "unknown-branch", "no-k", "int-k", "normal-k-0", "separated-k-2",
        "no-branch", "no-m", *(f"{case}-m" for case in NONCANONICAL), "k-above-m",
        "separated-m-2"])
def test_mincut_oct_lift_refuses_malformed_contexts(payload):
    with pytest.raises(ProtocolError):
        mincut_to_oct_lift(LiftContext(MINCUT_TO_OCT, payload), 1)


def test_mincut_oct_discards_stray_components():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
    inst = CountingInstance(g, TerminalPair(0, 2), None, "min-cut-size")
    result = mincut_to_oct_reduce(inst)
    assert count_odd_cycle_transversals(result.reduced.graph, result.reduced.k) == 2


# ---------------------------------------------------------------------------
# oct -> vc
# ---------------------------------------------------------------------------

def test_oct_vc_triangle_prism():
    result = oct_to_vc_reduce(CountingInstance(K3, None, 1))
    reduced = result.reduced
    assert reduced.graph.n == 6 and reduced.k == 4
    assert count_vertex_covers(reduced.graph, reduced.k) == 6
    assert count_odd_cycle_transversals(K3, 1) == 3
    assert max_matching_size(reduced.graph) == 3
    assert lp_vc_value(reduced.graph) == Fraction(3)


def test_oct_vc_single_vertex():
    result = oct_to_vc_reduce(CountingInstance(Graph.empty(1), None, 0))
    reduced = result.reduced
    assert reduced.graph.m == 1 and reduced.k == 1
    assert count_vertex_covers(reduced.graph, reduced.k) == 2


def test_oct_vc_halving_lift():
    ctx = oct_to_vc_reduce(CountingInstance(K3, None, 1)).context
    assert oct_to_vc_lift(ctx, 6) == 3
    with pytest.raises(IntegrityError):
        oct_to_vc_lift(ctx, 7)


def test_oct_vc_lift_refuses_counts_above_the_subset_bound():
    edge = Graph.from_edges(2, [(0, 1)])
    ctx = oct_to_vc_reduce(CountingInstance(edge, None, 0)).context
    # a single edge has one transversal of size 0: the empty set
    assert oct_to_vc_lift(ctx, 2) == count_odd_cycle_transversals(edge, 0) == 1
    for bad in (4, 10**12, -2):
        with pytest.raises(IntegrityError):
            oct_to_vc_lift(ctx, bad)
    # at most C(3, 0) + C(3, 1) = 4 transversals of size <= 1 in K3
    ctx = oct_to_vc_reduce(CountingInstance(K3, None, 1)).context
    assert oct_to_vc_lift(ctx, 8) == 4
    with pytest.raises(IntegrityError):
        oct_to_vc_lift(ctx, 10)
    # a huge context stays cheap: the bound stops growing once it passes the count
    huge = LiftContext(OCT_TO_VC, {"n": str(10**40), "k": str(10**20)})
    assert oct_to_vc_lift(huge, 2 * 10**30) == 10**30


# 5,000 sevens: past the 4,300 digits that str() converts by default.
SEVENS = 7 * (10**5000 - 1) // 9


def test_oct_vc_lift_refuses_a_count_past_the_digit_cap_with_integrity_error():
    ctx = oct_to_vc_reduce(CountingInstance(K3, None, 1)).context
    for bad in (SEVENS, SEVENS + 1):  # odd, then even and above the subset bound
        with pytest.raises(IntegrityError):
            oct_to_vc_lift(ctx, bad)


@pytest.mark.parametrize("payload", [
    {"k": "0"}, {"n": "2"}, {"n": 2, "k": "0"}, {"n": "2", "k": "-1"},
    {"n": "2", "k": "1.0"}, {"n": "\u0662", "k": "0"}, {"n": "2", "k": None},
], ids=["no-n", "no-k", "int-n", "negative-k", "fractional-k", "arabic-indic-n", "null-k"])
def test_oct_vc_lift_refuses_malformed_contexts(payload):
    with pytest.raises(ProtocolError):
        oct_to_vc_lift(LiftContext(OCT_TO_VC, payload), 2)


def test_oct_vc_niceness_precondition():
    two_triangles = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2),
                                         (3, 4), (4, 5), (3, 5)])
    with pytest.raises(PreconditionError):
        oct_to_vc_reduce(CountingInstance(two_triangles, None, 2), verify_nice=True)
    # without the check the construction is still produced
    assert oct_to_vc_reduce(CountingInstance(two_triangles, None, 2)).reduced.graph.n == 12


# ---------------------------------------------------------------------------
# exact composition
# ---------------------------------------------------------------------------

def test_exact_two_paths_pinned_example():
    composition = exact_compose([PATH, PATH])
    meta = composition.metadata
    assert meta.branch == "gadget"
    assert (meta.ell, meta.m, meta.cut_size) == (2, 4, 1)
    assert meta.exponents == (4, 8)
    assert composition.graph.n == 21 and composition.graph.m == 28
    count, size = count_min_st_cuts(composition.graph, composition.terminals)
    assert count == 2 * 2 ** 4 + 2 * 2 ** 8 == 544
    assert size == 5
    assert extract_counts(meta, count) == [2, 2]


def test_exact_trivial_branch_two_single_edges():
    composition = exact_compose([EDGE, EDGE])
    assert composition.metadata.branch == "trivial"
    assert extract_counts(composition.metadata, 999) == [1, 1]
    check = validate_tree_decomposition(composition.graph, composition.witness)
    assert check.ok


def test_exact_single_instance_unchanged():
    composition = exact_compose([PATH])
    count, _ = count_min_st_cuts(composition.graph, composition.terminals)
    assert count == 2
    assert extract_counts(composition.metadata, count) == [2]


def test_exact_gadget_branch_with_zero_cut_inputs():
    # Separated terminals plus stray edges: cut size 0 but enough edges
    # to stay out of the trivial branch.  Every composed minimum cut
    # must take one edge per gadget path of a single copy, so the
    # weighted-sum identity still holds with per-input counts of 1.
    apart = (Graph.from_edges(4, [(2, 3), (0, 2)]), TerminalPair(0, 1))
    composition = exact_compose([apart, apart])
    meta = composition.metadata
    assert meta.branch == "gadget" and meta.cut_size == 0
    count, size = count_min_st_cuts(composition.graph, composition.terminals)
    assert size == meta.m * (meta.ell - 1)
    assert count == 2 ** meta.exponents[0] + 2 ** meta.exponents[1]
    assert extract_counts(meta, count) == [1, 1]


@pytest.mark.parametrize("compose", [exact_compose, sum_compose])
def test_composing_parsed_inputs_never_builds_their_edge_sets(compose):
    # The oracles and builders read the endpoint columns, so a parsed
    # input's edge set, which the parse never builds, stays unbuilt.
    bridged = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (1, 3), (3, 4)])
    instances = [(bridged, TerminalPair(0, 4)), EDGE, PATH, PATH]
    parsed = [parse_graph(serialize_graph(g, st)) for g, st in instances]
    composition = compose([(p.graph, p.terminals) for p in parsed])
    assert composition.graph.m >= sum(p.graph.m for p in parsed)
    assert all("edges" not in p.graph.__dict__ for p in parsed)


def test_exact_unequal_cut_sizes_rejected():
    with pytest.raises(CompositionError):
        exact_compose([EDGE, (K4, TerminalPair(0, 1))])


def test_exact_extraction_residue_detected():
    meta = exact_compose([PATH, PATH]).metadata
    with pytest.raises(IntegrityError):
        extract_counts(meta, 545)


def test_extract_refuses_counts_past_the_digit_cap_with_integrity_error():
    # Input 2's count would be the 5,000 sevens; then a residue of 6,021 digits.
    with pytest.raises(IntegrityError):
        extract_counts(ExactMetadata("gadget", 2, 8, 1, (8, 16)), SEVENS << 16)
    with pytest.raises(IntegrityError):
        extract_counts(ExactMetadata("gadget", 2, 40000, 1, (40000, 80000)), (1 << 20000) + 1)


def test_exact_witness_validates_with_bound():
    rng = random.Random(13)
    pool = []
    while len(pool) < 14:
        n = rng.randint(2, 9)
        g = random_graph(n, rng.choice((0.3, 0.5)), rng.randrange(10**6))
        s, t = rng.sample(range(n), 2)
        pool.append((g, TerminalPair(s, t)))
    classes = group_by_min_cut(pool)
    composed = 0
    for size, members in classes.items():
        parts = [pool[i] for i in (members * 2)[:2]]
        composition = exact_compose(parts)
        if composition.metadata.branch == "trivial":
            continue
        check = validate_tree_decomposition(composition.graph, composition.witness)
        assert check.ok, check.violation
        bound = max(2, max(exact_treewidth(g)[0] for g, _ in parts) + 1)
        assert check.width <= bound
        composed += 1
    assert composed >= 1


def test_exact_coefficient_dominance_invariant():
    meta = exact_compose([PATH, PATH]).metadata
    cap = 2 ** (meta.m // 2)
    for i in range(1, meta.ell):
        assert 2 ** meta.exponents[i] > sum(cap * 2 ** e for e in meta.exponents[:i])


def test_exact_compose_with_supplied_decompositions():
    from countkernel.graphs import TreeDecomposition

    path_td = TreeDecomposition(
        nodes=("u", "v"),
        links=frozenset({frozenset({"u", "v"})}),
        bags={"u": frozenset({0, 1}), "v": frozenset({1, 2})})
    composition = exact_compose([PATH, PATH], decompositions=[path_td, path_td])
    check = validate_tree_decomposition(composition.graph, composition.witness)
    assert check.ok and check.width <= max(2, path_td.width + 1)
    count, _ = count_min_st_cuts(composition.graph, composition.terminals)
    assert extract_counts(composition.metadata, count) == [2, 2]

    broken = TreeDecomposition(nodes=("u",), links=frozenset(),
                               bags={"u": frozenset({0, 1})})
    with pytest.raises(ValueError):
        exact_compose([PATH, PATH], decompositions=[broken, broken])
    with pytest.raises(ValueError, match="shorter"):  # one decomposition for two inputs
        exact_compose([PATH, PATH], decompositions=[path_td])


def test_exact_metadata_json_round_trip():
    meta = exact_compose([PATH, PATH]).metadata
    again = ExactMetadata.from_json(meta.to_json())
    assert (again.branch, again.ell, again.m, again.cut_size, again.exponents) \
        == (meta.branch, meta.ell, meta.m, meta.cut_size, meta.exponents)
    trivial = exact_compose([EDGE, EDGE]).metadata
    again = ExactMetadata.from_json(trivial.to_json())
    assert again.recorded_answers == (1, 1)
    assert extract_counts(again, 0) == [1, 1]


def test_extract_refuses_counts_above_the_binomial_cap():
    # Two inputs of cut size 2 with at most 4 edges each (m = 8): two
    # parallel 2-paths (4 min cuts) and a 2-path beside the edge s-t (2).
    parallel = (Graph.from_edges(4, [(0, 1), (1, 3), (0, 2), (2, 3)]), TerminalPair(0, 3))
    shortcut = (Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)]), TerminalPair(0, 2))
    assert [count_min_st_cuts(g, st) for g, st in (parallel, shortcut)] == [(4, 2), (2, 2)]
    meta = exact_compose([parallel, shortcut]).metadata
    assert (meta.branch, meta.m, meta.cut_size, meta.exponents) == ("gadget", 8, 2, (8, 16))
    true_count = 4 * 2 ** 8 + 2 * 2 ** 16
    assert extract_counts(meta, true_count) == [4, 2]
    # Both would decode without a residue, to [4, 42] and [13, 2]; C(4, 2) = 6.
    for corrupted in (true_count + 40 * 2 ** 16, true_count + 9 * 2 ** 8):
        with pytest.raises(IntegrityError):
            extract_counts(meta, corrupted)
    with pytest.raises(IntegrityError):  # would decode to [0, -1]
        extract_counts(meta, -2 ** 16)


def _single_input_metadata(m, k):
    doc = {"branch": "gadget", "ell": 1, "m": m, "k": k, "exponents": [0]}
    return ExactMetadata.from_json(json.dumps(doc))


def test_extract_cap_is_the_binomial_exactly():
    for half in range(1, 9):  # ell = 1 < 2^half keeps the gadget branch
        for k in range(half + 2):
            cap = comb(half, k)
            meta = _single_input_metadata(2 * half, k)
            assert extract_counts(meta, cap) == [cap]
            with pytest.raises(IntegrityError):
                extract_counts(meta, cap + 1)


def test_extract_cap_stays_cheap_on_huge_metadata():
    # C(10^7, 5*10^6) has about 10^7 bits; a small count never builds it.
    meta = _single_input_metadata(2 * 10 ** 7, 5 * 10 ** 6)
    assert extract_counts(meta, 12345) == [12345]


def _metadata_doc():
    return {"branch": "gadget", "ell": 2, "m": 4, "k": 1, "exponents": [4, 8]}


@pytest.mark.parametrize("corrupt", [
    lambda d: {k: v for k, v in d.items() if k != "ell"},
    lambda d: {k: v for k, v in d.items() if k != "k"},
    lambda d: {**d, "exponents": [4]},
    lambda d: {**d, "exponents": [8, 4]},
    lambda d: {**d, "exponents": [-4, 8]},
    lambda d: {**d, "exponents": "4 8"},
    lambda d: {**d, "ell": "2"},
    lambda d: {**d, "k": True},
    lambda d: {**d, "ell": 2.0},
    lambda d: {**d, "ell": 0, "exponents": []},
    lambda d: {**d, "ell": 10 ** 12},
    lambda d: {**d, "m": 5, "exponents": [5, 10]},
    lambda d: {**d, "k": -1},
    lambda d: {**d, "branch": "other"},
    lambda d: {**d, "branch": "trivial", "recorded_answers": ["2", "2"]},
    lambda d: {**d, "recorded_answers": ["2", "2"]},
    lambda d: {**d, "ell": 1, "m": 0, "exponents": [0], "branch": "trivial"},
    lambda d: {**d, "ell": 1, "m": 0, "exponents": [0], "branch": "trivial",
               "recorded_answers": ["-1"]},
    lambda d: [d],
    lambda d: {**d, "ell": 1, "m": 0, "exponents": [0], "branch": "trivial",
               "recorded_answers": ["1" * 4301]},
    *(lambda d, a=a: {**d, "ell": 1, "m": 0, "exponents": [0], "branch": "trivial",
                      "recorded_answers": [a]} for a in NONCANONICAL.values()),
], ids=["no-ell", "no-k", "short-exponents", "wrong-exponents", "negative-exponent",
        "exponents-not-list", "ell-string", "k-bool", "ell-float", "ell-zero", "ell-huge",
        "odd-m", "negative-k", "bad-branch", "trivial-branch-too-small",
        "gadget-with-answers", "trivial-without-answers", "negative-answer", "not-an-object",
        "answer-past-the-int-digit-cap", *(f"{case}-answer" for case in NONCANONICAL)])
def test_exact_metadata_decoder_refuses_malformed_documents(corrupt):
    assert ExactMetadata.from_json(json.dumps(_metadata_doc())).exponents == (4, 8)
    with pytest.raises(ProtocolError):
        ExactMetadata.from_json(json.dumps(corrupt(_metadata_doc())))
    with pytest.raises(ProtocolError):
        ExactMetadata.from_json("{not json")


# Documents exact_compose emits: gadget branches at ell = 2 and 3, and a
# trivial branch.
METADATA_DOCS = [json.loads(ExactMetadata(*fields).to_json()) for fields in (
    ("gadget", 2, 4, 1, (4, 8)),
    ("gadget", 3, 8, 2, (16, 24, 32)),
    ("trivial", 2, 2, 1, (2, 4), (1, 0)),
)]


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(json_texts(METADATA_DOCS), st.data())
def test_metadata_decoder_and_extract_refuse_only_with_typed_errors(text, data):
    # The CLI maps ProtocolError and IntegrityError to exit 3; anything
    # else would escape it as a traceback.
    try:
        meta = ExactMetadata.from_json(text)
    except ProtocolError:
        return
    # A composed count of small input counts, perhaps off by one.
    counts = data.draw(st.lists(st.integers(0, 8), min_size=meta.ell, max_size=meta.ell))
    count = sum(c << e for c, e in zip(counts, meta.exponents)) + data.draw(st.integers(-1, 1))
    try:
        assert isinstance(extract_counts(meta, count), list)
    except IntegrityError:
        pass
