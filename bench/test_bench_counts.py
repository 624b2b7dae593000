"""The benchmark's expected answers, checked against the brute-force
oracles at enumerable scale."""

import random
import sys
from itertools import product
from math import comb
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import counts  # noqa: E402
import workloads  # noqa: E402
from countkernel import compositions, oracles  # noqa: E402
from countkernel.framework import CountingInstance  # noqa: E402
from countkernel.graphs import Graph, TerminalPair, parse_graph  # noqa: E402


def blown_up(core: Graph, copies: int, padding: int) -> Graph:
    """Copy classes joined along core edges, plus isolated padding."""
    edges = {(u * copies + a, v * copies + b)
             for u, v in core.edges for a in range(copies) for b in range(copies)}
    return Graph.from_edges(core.n * copies + padding, edges)


def test_partial_binomial_sum():
    for n, r in product(range(8), range(10)):
        assert counts.partial_binomial_sum(n, r) == sum(comb(n, j) for j in range(min(n, r) + 1))


@pytest.mark.parametrize("seed", range(6))
def test_star_forest_cover_counts_match_oracle(seed):
    rng = random.Random(seed)
    leaves = [rng.randint(1, 3) for _ in range(rng.randint(1, 4))]
    n2, edges = workloads.star_core(leaves, 0)
    core = Graph.from_edges(n2, edges)
    cap = rng.randint(1, n2)
    assert counts.star_forest_cover_counts(leaves, cap) == [
        oracles.count_vertex_covers_of_size(core, i) for i in range(cap + 1)]


@pytest.mark.parametrize("copies,padding,k2", [(1, 3, 2), (2, 2, 1), (2, 3, 2), (3, 1, 1)])
def test_blowup_multiplicities_decompose_the_blowup_count(copies, padding, k2):
    rng = random.Random(copies * 10 + padding)
    for _ in range(4):
        n2 = rng.randint(1, 4)
        pairs = [(u, v) for u in range(n2) for v in range(u + 1, n2) if rng.random() < 0.4]
        core = Graph.from_edges(n2, pairs)
        decomposed = sum(oracles.count_vertex_covers_of_size(core, i)
                         * counts.blowup_multiplicity(i, copies, padding, k2, n2)
                         for i in range(min(k2, n2) + 1))
        assert decomposed == oracles.count_vertex_covers(
            blown_up(core, copies, padding), copies * k2)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("core", [("stars", [2]), ("stars", [1, 1]), ("cliques", [2])])
def test_kernel_instance_counts_match_oracle(tmp_path, seed, core):
    path = tmp_path / "host.gr"
    rng = random.Random(seed)
    expect = workloads.kernel_instance(path, rng, n=20 + seed, hubs=2, k2=2, core=core,
                                       min_hub_degree=5)
    parsed = parse_graph(path.read_text())
    assert int(expect["count"]) == oracles.count_vertex_covers(parsed.graph, parsed.k)
    assert expect["branch"] == ("zero" if core[0] == "cliques" else "normal")


def test_exact_composition_closed_forms_match_oracle():
    path = (Graph.from_edges(3, [(0, 1), (1, 2)]), TerminalPair(0, 2))
    longer = (Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]), TerminalPair(0, 3))
    for parts in ([path, path], [path, longer, path]):
        answers = [oracles.count_min_st_cuts(g, st)[0] for g, st in parts]
        count, n_out, m_out = counts.exact_composition(answers, [(g.n, g.m) for g, _ in parts])
        composed = compositions.exact_compose(parts)
        assert (composed.graph.n, composed.graph.m) == (n_out, m_out)
        cut = oracles.min_cut_size(composed.graph, composed.terminals)
        if comb(composed.graph.m, cut) <= 200_000:
            assert oracles.count_min_st_cuts(composed.graph, composed.terminals)[0] == count
        assert compositions.extract_counts(composed.metadata, count) == answers


@pytest.mark.parametrize("seed", range(3))
def test_ppt_closed_forms_and_counts(seed):
    rng = random.Random(seed)
    edges = workloads.ppt_instance(rng, 8, 14)
    g = Graph.from_edges(8, edges)
    oct_result = compositions.mincut_to_oct_reduce(
        CountingInstance(g, TerminalPair(0, 1), None, "min-cut-size"))
    gp, k = oct_result.reduced.graph, oct_result.reduced.k
    assert (gp.n, gp.m, k) == counts.mincut_to_oct_size(8, 14, workloads.CUT)
    vc_result = compositions.oct_to_vc_reduce(CountingInstance(gp, None, k))
    reduced = vc_result.reduced
    assert (reduced.graph.n, reduced.graph.m, reduced.k) == counts.oct_to_vc_size(gp.n, gp.m, k)


@pytest.mark.parametrize("seed", range(3))
def test_cut_gadget_instances_have_the_declared_shape(seed):
    rng = random.Random(seed)
    edges = workloads.cut_gadget_instance(rng, 10, 18)
    g = Graph.from_edges(10, edges)
    assert g.m == 18
    assert oracles.count_min_st_cuts(g, TerminalPair(0, 1))[1] == workloads.CUT
