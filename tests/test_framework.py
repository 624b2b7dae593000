import copy
import json
import random
import re
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from countkernel.compositions import mincut_to_oct_ppt, oct_to_vc_ppt, oct_to_vc_reduce
from countkernel.framework import (
    Compression,
    CompositionError,
    CompressionResult,
    CountingInstance,
    IntegrityError,
    LiftContext,
    ProtocolError,
    compose_ppt_compression,
    default_registry,
    exceeds_binomial,
    oracle_count,
    run_compression,
    verify_compression,
)
from countkernel.graphs import Graph, TerminalPair
from countkernel.oracles import count_min_st_cuts, is_nice_oct_instance, random_graph

K3 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])

PROBLEMS = (
    "vertex-cover",
    "minimal-vertex-cover",
    "odd-cycle-transversal",
    "min-st-cut",
)


def identity_compression(problem: str) -> Compression:
    """The compression that changes nothing: a neutral piece for the
    composition and context tests."""
    name = f"identity-{problem}"

    def reduce(inst: CountingInstance) -> CompressionResult:
        return CompressionResult(inst, LiftContext(name, {}))

    def lift(ctx: LiftContext, count: int) -> int:
        ctx.expect(name)
        return count

    return Compression(name, problem, problem, reduce, lift)


def test_identity_compression_round_trips():
    ident = identity_compression("vertex-cover")
    inst = CountingInstance(K3, None, 2)
    assert run_compression(ident, inst, 17) == 17
    report = verify_compression(ident, inst)
    assert report.passed and report.direct_count == 3


def test_run_compression_vc_kernel_on_k3():
    kernel = default_registry()["vertex-cover-kernel"]
    report = verify_compression(kernel, CountingInstance(K3, None, 2))
    assert report.passed
    assert report.direct_count == report.lifted_count == 3
    assert report.size_bound_ok
    # the blowup of K3 at budget 2 is counted entirely by exact-size-2
    # core covers, each worth multiplicity 1
    assert run_compression(kernel, CountingInstance(K3, None, 2), 3) == 3


def test_run_compression_minimal_kernel_on_star():
    kernel = default_registry()["minimal-vertex-cover-kernel"]
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    report = verify_compression(kernel, CountingInstance(star, None, 3))
    assert report.passed and report.lifted_count == 2


def test_compose_identity_ppt_keeps_behavior():
    kernel = default_registry()["vertex-cover-kernel"]
    composite = compose_ppt_compression(identity_compression("vertex-cover"), kernel)
    rng = random.Random(2)
    for _ in range(20):
        g = random_graph(rng.randint(1, 5), 0.5, rng.randrange(10**6))
        inst = CountingInstance(g, None, rng.randint(0, 3))
        assert verify_compression(composite, inst).passed
        assert verify_compression(kernel, inst).lifted_count \
            == verify_compression(composite, inst).lifted_count


def test_compose_mismatched_handles_rejected():
    with pytest.raises(CompositionError):
        compose_ppt_compression(identity_compression("min-st-cut"),
                                identity_compression("vertex-cover"))


def test_mincut_ppt_composed_with_identity_oct_compression():
    composite = compose_ppt_compression(mincut_to_oct_ppt(),
                                        identity_compression("odd-cycle-transversal"))
    assert composite.source_problem == "min-st-cut"
    rng = random.Random(8)
    checked = 0
    while checked < 12:
        n = rng.randint(2, 6)
        g = random_graph(n, rng.choice((0.3, 0.5)), rng.randrange(10**6))
        s, t = rng.sample(range(n), 2)
        inst = CountingInstance(g, TerminalPair(s, t), None, "min-cut-size")
        report = verify_compression(composite, inst)
        assert report.passed
        assert report.lifted_count == count_min_st_cuts(g, TerminalPair(s, t))[0]
        checked += 1


def _mincut_to_vc_pipeline():
    # chain both transformations in front of the identity compression
    inner = compose_ppt_compression(oct_to_vc_ppt(),
                                    identity_compression("vertex-cover"))
    return compose_ppt_compression(mincut_to_oct_ppt(), inner)


PATH_CUT = CountingInstance(Graph.from_edges(3, [(0, 1), (1, 2)]), TerminalPair(0, 2),
                            None, "min-cut-size")


def test_full_pipeline_mincut_to_vc_via_both_ppts():
    report = verify_compression(_mincut_to_vc_pipeline(), PATH_CUT)
    assert report.passed and report.lifted_count == 2


# The pipeline context of PATH_CUT, byte for byte as contexts were written
# when nested contexts still round-tripped through JSON text.
PIPELINE_CONTEXT_JSON = (
    '{"compression": "mincut-to-oct+oct-to-vc+identity-vertex-cover", "payload": '
    '{"inner": {"compression": "oct-to-vc+identity-vertex-cover", "payload": '
    '{"inner": {"compression": "identity-vertex-cover", "payload": {}, "version": 1}, '
    '"outer": {"compression": "oct-to-vc", "payload": {"k": "1", "n": "12"}, '
    '"version": 1}}, "version": 1}, "outer": {"compression": "mincut-to-oct", '
    '"payload": {"branch": "normal", "k": "1", "m": "2"}, "version": 1}}, "version": 1}')


def test_pipeline_context_survives_json_round_trip():
    pipeline = _mincut_to_vc_pipeline()
    context = pipeline.reduce(PATH_CUT).context
    assert context.to_json() == PIPELINE_CONTEXT_JSON
    again = LiftContext.from_json(PIPELINE_CONTEXT_JSON)
    assert again == context
    # The path has 2 minimum cuts, the doubled graph twice as many covers.
    assert pipeline.lift(again, 4) == pipeline.lift(context, 4) == 2
    # The 12-vertex transversal instance at k = 1 has at most 13 transversals,
    # and the path at most C(2, 1) = 2 minimum cuts.
    for count in (6, 26, 28):
        with pytest.raises(IntegrityError):
            pipeline.lift(again, count)


@pytest.mark.parametrize("corrupt", [
    lambda p: {"outer": p["outer"]},
    lambda p: {"inner": p["inner"]},
    lambda p: {**p, "outer": "mincut-to-oct"},
    lambda p: {**p, "outer": [p["outer"]]},
    lambda p: {**p, "inner": {"payload": {}, "version": 1}},
    lambda p: [p["outer"], p["inner"]],
    lambda p: "outer",
], ids=["no-inner", "no-outer", "outer-string", "outer-list", "inner-nameless",
        "payload-list", "payload-string"])
def test_composed_lift_refuses_malformed_nested_contexts(corrupt):
    composite = compose_ppt_compression(mincut_to_oct_ppt(),
                                        identity_compression("odd-cycle-transversal"))
    context = composite.reduce(PATH_CUT).context
    with pytest.raises(ProtocolError):
        composite.lift(LiftContext(context.compression, corrupt(context.payload)), 2)


# Scalars of every JSON kind, with the strings the decoders look for,
# and containers of them a few levels deep.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10**40) | st.floats(allow_nan=False)
    | st.text(max_size=4) | st.sampled_from(
        ["-1", "1.0", "x", "normal", "zero", "gadget", "trivial", "vertex-cover-kernel"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                  max_size=3),
    max_leaves=6)
# What a mutation writes into a document: mostly decimals, as the fields
# hold, one of them too long for int().
FIELD_VALUES = (st.integers(0, 10**6).map(str) | st.integers(0, 64) | st.just("1" * 4301)
                | JSON_VALUES)


def _nested(draw):
    depth = draw(st.integers(1, 3000) | st.sampled_from([990, 1000, 200_000]))
    opener, closer = draw(st.sampled_from([("[", "]"), ('{"a": ', "}"), ('[{"b": ', "}]")]))
    return opener * depth + ("1" + closer * depth if draw(st.booleans()) else "")


@st.composite
def json_texts(draw, documents):
    """A text for a JSON decoder: one of ``documents`` as it is, with a
    value or two replaced or dropped, with a value nested deep, or cut
    short; or a random value, random text or deep nesting."""
    kind = draw(st.sampled_from(
        ["as is", "mutated", "mutated", "deep value", "cut short", "value", "text", "deep"]))
    if kind == "value":
        return json.dumps(draw(JSON_VALUES))
    if kind == "text":
        return draw(st.text(alphabet='{}[]":,.-0123456789 aeflnrstu', max_size=40))
    if kind == "deep":
        return _nested(draw)
    doc = copy.deepcopy(draw(st.sampled_from(documents)))
    for _ in range(draw(st.integers(1, 2)) if kind == "mutated" else 0):
        holders = [doc] + [v for v in doc.values() if isinstance(v, dict)]
        holders += [w for v in holders[1:] for w in v.values() if isinstance(w, dict)]
        holder = draw(st.sampled_from(holders))
        key = draw(st.sampled_from(sorted(holder) + ["extra"]))
        if draw(st.integers(0, 3)):
            holder[key] = draw(FIELD_VALUES)
        else:
            holder.pop(key, None)
    text = json.dumps(doc)
    if kind == "deep value":
        at = draw(st.sampled_from([m.end() for m in re.finditer(": ", text)]))
        end = re.compile(r'"[^"]*"|[^,}\]]*').match(text, at).end()
        text = text[:at] + _nested(draw) + text[end:]
    if kind == "cut short":
        text = text[:draw(st.integers(0, len(text)))]
    return text


# Every owner of a lift context that ships, the identity compressions
# and a pipeline, and a context of each on both branches where it has two.
REGISTRY = default_registry()
IDENTITIES = [identity_compression(problem) for problem in PROBLEMS]
OWNERS = [*REGISTRY.values(), *IDENTITIES, _mincut_to_vc_pipeline()]
K4 = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
CONTEXT_DOCS = [
    *(c.reduce(CountingInstance(g, None, k)).context.to_doc()
      for c in (REGISTRY["vertex-cover-kernel"], REGISTRY["minimal-vertex-cover-kernel"],
                *IDENTITIES)
      for g, k in ((K3, 2), (K4, 1))),
    mincut_to_oct_ppt().reduce(PATH_CUT).context.to_doc(),
    oct_to_vc_reduce(CountingInstance(K3, None, 1)).context.to_doc(),
    _mincut_to_vc_pipeline().reduce(PATH_CUT).context.to_doc(),
]


def _context_text(compression, payload):
    return f'{{"compression": "{compression}", "payload": {{{payload}}}, "version": 1}}'


_ZERO = '"branch": "zero", "d": "0", "k2": "0", "k3": "0", "n1": "0", "n2": "0", "t": "0"'
# Every registry compression's context on every branch it writes, byte for byte.
CONTEXT_BYTES = {
    "vc-normal": ("vertex-cover-kernel", CountingInstance(K3, None, 2),
                  '"branch": "normal", "d": "3", "k2": "2", "k3": "6", "n1": "3", "n2": "3", '
                  '"t": "81"'),
    "vc-zero": ("vertex-cover-kernel", CountingInstance(K4, None, 1), _ZERO),
    "minvc-normal": ("minimal-vertex-cover-kernel", CountingInstance(K3, None, 2),
                     '"branch": "normal", "k2": "2", "n1": "3", "n2": "3"'),
    "minvc-zero": ("minimal-vertex-cover-kernel", CountingInstance(K4, None, 1), _ZERO),
    "mincut-oct-separated": (
        "mincut-to-oct", CountingInstance(Graph.from_edges(4, [(0, 1), (2, 3)]),
                                          TerminalPair(0, 2), None, "min-cut-size"),
        '"branch": "separated", "k": "0", "m": "0"'),
    "mincut-oct-normal": ("mincut-to-oct", PATH_CUT, '"branch": "normal", "k": "1", "m": "2"'),
    "oct-vc": ("oct-to-vc", CountingInstance(K3, None, 1), '"k": "1", "n": "3"'),
}


@pytest.mark.parametrize("name, inst, payload", CONTEXT_BYTES.values(), ids=CONTEXT_BYTES)
def test_every_registry_context_keeps_its_bytes(name, inst, payload):
    context = REGISTRY[name].reduce(inst).context
    assert context.to_json() == _context_text(name, payload)
    assert LiftContext.from_json(context.to_json()) == context


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(json_texts(CONTEXT_DOCS), st.integers(0, 40) | st.integers(0, 10**60))
def test_context_decoder_and_lifts_refuse_only_with_typed_errors(text, count):
    # The CLI maps ProtocolError and IntegrityError to exit 3; anything
    # else would escape it as a traceback.
    try:
        ctx = LiftContext.from_json(text)
    except ProtocolError:
        return
    for owner in OWNERS:
        try:
            assert isinstance(owner.lift(ctx, count), int)
        except (ProtocolError, IntegrityError):
            pass


def test_exceeds_binomial_matches_comb_at_every_edge():
    for n in range(40):
        for k in range(-1, n + 2):
            c = comb(n, k) if k >= 0 else 0
            for q in {0, 1, c // 2, c - 1, c, c + 1, 2 * c + 1} - {-1}:
                assert exceeds_binomial(q, n, k) == (q > c), (q, n, k)


def test_oracle_count_dispatch_and_errors():
    assert oracle_count("vertex-cover", CountingInstance(K3, None, 2)) == 3
    # adjacent terminals of K3: the direct edge plus either path edge
    assert oracle_count("min-st-cut",
                        CountingInstance(K3, TerminalPair(0, 1), None, "min-cut-size")) == 2
    with pytest.raises(ValueError):
        oracle_count("no-such-problem", CountingInstance(K3, None, 1))


def test_instance_validation():
    with pytest.raises(ValueError):
        CountingInstance(K3, None, None)  # solution-size needs k
    with pytest.raises(ValueError):
        CountingInstance(K3, None, 1, "no-such-kind")
    with pytest.raises(ValueError):
        CountingInstance(K3, TerminalPair(0, 5), 1)
    with pytest.raises(ValueError):
        CountingInstance(K3, None, None, "min-cut-size")


def test_context_ownership_checks():
    ident = identity_compression("vertex-cover")
    with pytest.raises(ProtocolError):
        ident.lift(LiftContext("other", {}), 3)
    with pytest.raises(ProtocolError):
        LiftContext.from_json("{\"payload\": {}}")


def test_every_registered_compression_round_trips_small_corpus():
    from countkernel.verification import all_graphs

    for compression in default_registry().values():
        for g in all_graphs(3):
            for k in range(3):
                if compression.source_problem == "min-st-cut":
                    if g.n < 2:
                        continue
                    inst = CountingInstance(g, TerminalPair(0, g.n - 1), None,
                                            "min-cut-size")
                elif compression.name == "oct-to-vc" and not is_nice_oct_instance(g, k):
                    # its lift halves the count only on nice instances
                    continue
                else:
                    inst = CountingInstance(g, None, k)
                report = verify_compression(compression, inst)
                assert report.passed, (compression.name, g, k)


def test_verify_compression_propagates_size_guard():
    from countkernel.oracles import OracleSizeError

    ident = identity_compression("vertex-cover")
    with pytest.raises(OracleSizeError):
        verify_compression(ident, CountingInstance(Graph.empty(64), None, 32))


def test_verify_compression_counts_a_blowup_by_its_reference(monkeypatch):
    from countkernel import vc_kernel

    # one edge at k = 2: d = 2, t = 38, 124,314 subsets the oracle could enumerate
    edge = Graph.from_edges(2, [(0, 1)])

    def refuse(*args):
        raise AssertionError("verify_compression built the blowup for the oracle")

    monkeypatch.setattr(vc_kernel, "padded_blowup_graph", refuse)
    report = verify_compression(vc_kernel.vertex_cover_kernel(), CountingInstance(edge, None, 2))
    assert report.passed and report.direct_count == report.lifted_count == 3
    assert report.reduced_count == vc_kernel.decomposed_blowup_count(edge, 2, 38, 2)


@pytest.mark.parametrize("problem", ["vertex-cover", "minimal-vertex-cover",
                                     "odd-cycle-transversal"])
def test_oracle_count_refuses_a_large_blowup_before_building_it(monkeypatch, problem):
    from countkernel import vc_kernel
    from countkernel.oracles import OracleSizeError

    # the worst-case core at k2 = 8: a 64-edge matching, 1,048,576 blowup edges
    k2 = 8
    matching = Graph.from_edges(2 * k2 * k2, [(2 * j, 2 * j + 1) for j in range(k2 * k2)])
    reduced = vc_kernel.reduce_vertex_cover(CountingInstance(matching, None, k2)).reduced

    def refuse(*args):
        raise AssertionError("oracle_count built the blowup's edge set")

    monkeypatch.setattr(vc_kernel, "padded_blowup_graph", refuse)
    with pytest.raises(OracleSizeError):
        oracle_count(problem, reduced)


def test_oracle_count_guards_a_blowup_at_the_oracles_limit(monkeypatch):
    from countkernel import oracles, vc_kernel

    # one edge at k = 1: d = 2, t = 12, 137 subsets of at most 2 of 16 vertices
    edge = Graph.from_edges(2, [(0, 1)])
    reduced = vc_kernel.reduce_vertex_cover(CountingInstance(edge, None, 1)).reduced
    assert (reduced.graph.n, reduced.k) == (16, 2)
    monkeypatch.setattr(oracles, "SUBSET_LIMIT", 137)
    assert oracle_count("vertex-cover", reduced) == vc_kernel.decomposed_blowup_count(
        edge, 2, 12, 1)

    def refuse(*args):
        raise AssertionError("oracle_count built the blowup's edge set")

    monkeypatch.setattr(oracles, "SUBSET_LIMIT", 136)
    monkeypatch.setattr(vc_kernel, "padded_blowup_graph", refuse)
    with pytest.raises(oracles.OracleSizeError):
        oracle_count("vertex-cover", reduced)


def test_registry_contents():
    registry = default_registry()
    assert set(registry) == {
        "vertex-cover-kernel", "minimal-vertex-cover-kernel", "mincut-to-oct", "oct-to-vc"}
    assert all(name == c.name for name, c in registry.items())
