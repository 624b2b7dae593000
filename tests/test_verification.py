"""A planted fault in what a sweep checks fails that sweep.

Each case runs a sweep at small arguments twice: as it is, where it
must pass, and with one name it checks through replaced in the
``verification`` module, where it must fail and its first failure must
name the fault.  Some faults show only on a repeated instance, so a
sweep that reused a round trip, and not only the oracle's answer,
would miss them.
"""

import pytest

from countkernel import verification as V
from countkernel.framework import CountingInstance
from countkernel.graphs import Graph
from countkernel.vc_kernel import PaddedBlowup, minimal_vertex_cover_kernel


def plus_one(real):
    return lambda *args: real(*args) + 1


def sum_of_first_part(real):
    return lambda parts: real(parts[:1])


def one_more_padding_vertex(real):
    def reduce(inst):
        result = real(inst)
        g = result.reduced.graph
        if not isinstance(g, PaddedBlowup):
            return result
        padded = PaddedBlowup(g.core, g.copies, g.padding + 1)
        reduced = result.reduced._replace(graph=padded)
        return result._replace(reduced=reduced)
    return reduce


def budget_as_solution_size(real):
    """The transformation with its output's parameter declared the plain
    budget instead of k minus the matching number."""
    def ppt():
        compression = real()

        def reduce(inst):
            result = compression.reduce(inst)
            reduced = result.reduced._replace(param_kind="solution-size")
            return result._replace(reduced=reduced)
        return compression._replace(reduce=reduce)
    return ppt


def plus_one_each(real):
    return lambda meta, count: [q + 1 for q in real(meta, count)]


def invalid(real):
    return lambda g, td: real(g, td)._replace(ok=False, violation="planted")


def lift_one_more_on_repeats(real):
    """The kernel with a lift one too high on each round trip of an
    instance after its first, which a sweep that reused round trips
    would miss."""
    def kernel():
        compression, seen, repeat = real(), set(), False

        def reduce(inst):
            nonlocal repeat
            repeat = (inst.graph, inst.k) in seen
            seen.add((inst.graph, inst.k))
            return compression.reduce(inst)

        def lift(ctx, count):
            return compression.lift(ctx, count) + repeat

        return compression._replace(reduce=reduce, lift=lift)
    return kernel


def first_part_on_repeats(real):
    """``sum_compose`` of the first part only, on each repeat of a tuple."""
    seen = set()

    def compose(parts):
        repeat = tuple(parts) in seen
        seen.add(tuple(parts))
        return real(parts[:1] if repeat else parts)
    return compose


PLANTED = [
    pytest.param(lambda: V.sweep_map_size(seed=0, cases=8), "decomposed_blowup_count",
                 plus_one, "!= decomposition", id="C02-map-size"),
    pytest.param(lambda: V.sweep_dominance(kmax=2), "blowup_cover_multiplicity",
                 lambda real: lambda *args: [1] * len(real(*args)),
                 "w_0 of 1 bits <= tail of 2 bits",
                 id="C03-dominance"),
    pytest.param(lambda: V.sweep_multiplicity_dp(limit=2), "multiplicity_by_dp",
                 plus_one, "closed=1 dp=2 enum=1", id="C04-multiplicity-dp"),
    pytest.param(lambda: V.sweep_sum(tuples=12, nmax=5, seed=0), "sum_compose",
                 sum_of_first_part, "!= sum", id="C06-sum"),
    pytest.param(lambda: V.sweep_sum(tuples=60, nmax=5, seed=0), "sum_compose",
                 first_part_on_repeats, "!= sum", id="C06-sum-on-repeats"),
    pytest.param(lambda: V.sweep_minimal_vc(graphs=150, nmax=6, kmax=2, seed=0),
                 "minimal_vertex_cover_kernel", lift_one_more_on_repeats,
                 "lift=1 direct=0 (n=5, m=10, k=0)", id="C05-minvc-lift-on-repeats"),
    pytest.param(lambda: V.sweep_ppt_vc(corpus_size=20, nmax=5, kmax=2, seed=0),
                 "oct_to_vc_ppt", budget_as_solution_size, "derived parameter != k",
                 id="C08-ppt-vc-parameter-kind"),
    pytest.param(lambda: V.sweep_exact(tuples=1, seed=0), "extract_counts",
                 plus_one_each, "pinned example extraction != [2, 2]", id="C09-exact"),
    pytest.param(lambda: V.sweep_exact_td(tuples=4, nmax=6, seed=0),
                 "validate_tree_decomposition", invalid, "witness invalid: planted",
                 id="C10-exact-td"),
    pytest.param(lambda: V.sweep_vc_size_bounds(graphs=30, nmax=5, kmax=2, seed=0),
                 "reduce_vertex_cover", one_more_padding_vertex, "!= formula",
                 id="C11a-size-bounds"),
]


@pytest.mark.parametrize("sweep, name, plant, message", PLANTED)
def test_a_planted_fault_fails_the_sweep(monkeypatch, sweep, name, plant, message):
    clean = sweep()
    assert clean.passed, clean.failures[:3]
    monkeypatch.setattr(V, name, plant(getattr(V, name)))
    report = sweep()
    assert not report.passed
    assert message in report.failures[0], report.failures[0]


def one_more_cut_on_composed_graphs(real):
    """``count_min_st_cuts`` with one more cut on every graph of more than
    six vertices: the exact compositions, but not their inputs."""
    def count(g, st):
        total, size = real(g, st)
        return (total + 1, size) if g.n > 6 else (total, size)
    return count


def test_a_wrong_composed_count_fails_the_exact_sweep_without_aborting_it(monkeypatch):
    monkeypatch.setattr(V.oracles, "count_min_st_cuts",
                        one_more_cut_on_composed_graphs(V.oracles.count_min_st_cuts))
    report = V.sweep_exact(tuples=1, seed=0)
    assert not report.passed
    assert report.failures[0] == "pinned example count 545 != 544"
    refusal = "pinned example extraction != [2, 2]: extraction left a residue of 1 bits"
    assert refusal in report.failures
    assert any(message.startswith("extraction failed on count") for message in report.failures)


def test_each_oracle_runs_once_per_distinct_instance(monkeypatch):
    calls = []
    real = V.oracles.count_minimal_vertex_covers

    def counted(g, k):
        calls.append((g, k))
        return real(g, k)

    monkeypatch.setattr(V.oracles, "count_minimal_vertex_covers", counted)
    assert V.sweep_minimal_vc(graphs=300, nmax=6, kmax=4, seed=0).passed
    reduce = minimal_vertex_cover_kernel().reduce
    keys = set()
    for g in V.graph_corpus(300, 6, 0):
        for k in range(5):
            reduced = reduce(CountingInstance(g, None, k)).reduced
            keys |= {(g, k), (reduced.graph, reduced.k)}
    assert len(set(calls)) == len(calls) == len(keys)


def test_a_refused_instance_is_asked_again(monkeypatch):
    asked = []

    def oracle(problem, inst):
        asked.append(inst)
        return V.oracle_count(problem, inst)

    monkeypatch.setattr(V.oracles, "SUBSET_LIMIT", 10)
    count = V._shared(oracle)
    inst = CountingInstance(Graph.empty(8), None, 4)
    for _ in range(2):
        with pytest.raises(V.oracles.OracleSizeError):
            count("vertex-cover", inst)
    assert asked == [inst, inst]
