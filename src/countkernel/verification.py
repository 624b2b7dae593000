"""Property sweeps that pit every construction against the brute-force
oracles on seeded corpora.  The CLI's ``verify`` subcommand and the
acceptance test suite both run these.

Each sweep yields its checks as (ok, message) pairs, and one runner,
``_sweep``, turns the stream into a timed ``SweepReport``; a sweep
passes when it checked a positive number of cases and collected no
failures.  All corpora are deterministic in the seed.

The kernel and transformation sweeps check lift(count(reduce(x))) =
count(x) only through ``framework.verify_compression``, reference count
first, as the stream ``_round_trips``.  Oct-to-vc has no reference: its
lift halves twice the source count, so its doubled graph is
brute-forced instead.

The corpora repeat instances, so every sweep asks its oracles through
``_shared`` tables that it makes when it starts and drops when it ends:
each oracle runs once per distinct instance of the sweep.  A table
holds only the oracle's answers, keyed by graph, terminals and budget.
The round trips', the niceness and the matching and LP tables key a
graph by a flat tuple of its n and edge set, which is all its equality
reads, so they keep no reduced, gadget or doubled ``Graph`` alive.
Every reduce, lift and composition still runs on every instance, and a
size refusal is not stored.  The oracles stay the dumb arbiter and
cache nothing themselves.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import accumulate, combinations, product
from math import comb
from typing import NamedTuple

from . import oracles
from .compositions import (
    exact_compose,
    extract_counts,
    group_by_min_cut,
    mincut_to_oct_ppt,
    oct_to_vc_ppt,
    sum_compose,
)
from .framework import (
    CountingInstance,
    IntegrityError,
    oracle_count,
    verify_compression,
)
from .graphs import (
    Graph,
    TerminalPair,
    connected_components,
    validate_tree_decomposition,
)
from .vc_kernel import (
    blowup_cover_multiplicity,
    blowup_parameters,
    decomposed_blowup_count,
    minimal_vertex_cover_kernel,
    padded_blowup_graph,
    reduce_vertex_cover,
    vertex_cover_kernel,
)

ENUMERATION_BUDGET = 1 << 20


# A report keeps the messages of at most this many failures.
MAX_FAILURES = 12


class SweepReport(NamedTuple):
    """One sweep's check count, first failures' messages and time."""

    name: str
    checked: int
    failures: tuple[str, ...]
    seconds: float

    @property
    def passed(self) -> bool:
        return self.checked > 0 and not self.failures


def _sweep(name: str, checks) -> SweepReport:
    """Count a stream of (ok, message) checks into one report, keeping
    the first failures' messages; the time includes drawing the stream."""
    start = time.monotonic()
    checked, failures = 0, []
    for ok, message in checks:
        checked += 1
        if not ok and len(failures) < MAX_FAILURES:
            failures.append(message)
    return SweepReport(name, checked, tuple(failures), time.monotonic() - start)


def _shared(oracle, key=lambda *args: args):
    """``oracle``, asked once per key: its answer is stored under
    ``key(*args)`` and returned again for a repeat.  Only answers are
    stored; an exception, such as an ``OracleSizeError``, stores
    nothing and is raised again by the next ask."""
    answers = {}

    def ask(*args):
        k = key(*args)
        if k not in answers:
            answers[k] = oracle(*args)
        return answers[k]

    return ask


def _flat_key(g: Graph, *rest) -> tuple:
    """A table key for ``g`` and the oracle's other arguments: n and the
    edge set stand in for the graph, so the key holds no ``Graph``."""
    return (g.n, g.edges, *rest)


def _round_trips(compression, instances, extra_checks=lambda inst, trip: ()):
    """One check per ``verify_compression`` round trip and one per pair
    (ok, message) of ``extra_checks(inst, trip)``, each naming n, m and k."""
    count = _shared(oracle_count, key=lambda problem, inst: (
        problem, inst.graph.n, inst.graph.edges, inst.terminals, inst.k))
    for inst in instances:
        trip = verify_compression(compression, inst, count)
        k = inst.k if inst.k is not None else trip.result.reduced.k
        where = f"(n={inst.graph.n}, m={inst.graph.m}, k={k})"
        verdict = trip.error or f"lift={trip.lifted_count} direct={trip.direct_count}"
        yield trip.passed, f"{verdict} {where}"
        for ok, message in extra_checks(inst, trip):
            yield ok, f"{message} {where}"


# ---------------------------------------------------------------------------
# Corpora
# ---------------------------------------------------------------------------

def all_graphs(n: int):
    """Every graph on n vertices (use only for tiny n)."""
    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Graph.from_edges(n, (pairs[j] for j in range(len(pairs)) if bits >> j & 1))


def graph_corpus(count: int, nmax: int, seed: int) -> list[Graph]:
    """Exhaustive graphs up to 4 vertices, then seeded random ones."""
    corpus: list[Graph] = []
    for n in range(min(nmax, 4) + 1):
        corpus.extend(all_graphs(n))
        if len(corpus) >= count:
            return corpus[:count]
    rng = random.Random(seed)
    probabilities = (0.15, 0.3, 0.5, 0.7, 0.9)
    while len(corpus) < count:
        n = rng.randint(5, max(5, nmax))
        p = rng.choice(probabilities)
        corpus.append(oracles.random_graph(n, p, rng.randrange(1 << 30)))
    return corpus


def cut_instance_pool(count: int, nmax: int, seed: int, probabilities=(0.25, 0.4, 0.6),
                      keep=lambda g: True) -> list[tuple[Graph, TerminalPair]]:
    """Seeded graphs on 2..nmax vertices that ``keep`` accepts, with random terminals."""
    rng = random.Random(seed)
    pool = []
    while len(pool) < count:
        n = rng.randint(2, nmax)
        g = oracles.random_graph(n, rng.choice(probabilities), rng.randrange(1 << 30))
        if not keep(g):
            continue
        s, t = rng.sample(range(n), 2)
        pool.append((g, TerminalPair(s, t)))
    return pool


# ---------------------------------------------------------------------------
# Counting kernel sweeps
# ---------------------------------------------------------------------------

def sweep_vc_kernel(graphs: int = 2000, nmax: int = 6, kmax: int = 4,
                    seed: int = 0) -> SweepReport:
    """Lifted count equals the direct count for every corpus instance.

    The reduced instance's count is ``reference_blowup_count``: the
    proven decomposition sum_i y_i * w_i with oracle y_i (brute force on
    the blowup itself is infeasible because the padding is large); that
    identity is itself verified independently by ``sweep_map_size``.
    """
    instances = (CountingInstance(g, None, k)
                 for g in graph_corpus(graphs, nmax, seed) for k in range(kmax + 1))
    return _sweep("vc-kernel end-to-end", _round_trips(vertex_cover_kernel(), instances))


def sweep_map_size(seed: int = 0, cases: int = 120) -> SweepReport:
    """Brute force on tiny overridden blowups validates the decomposition.

    With small copies/padding the padded blowup is enumerable, so
    count(blowup, copies*k2) must equal sum_i y_i * w_i with both
    factors computed independently.
    """

    def checks():
        rng = random.Random(seed)
        overrides = ((1, 4), (2, 3), (2, 1), (3, 2))
        produced = 0
        while produced < cases:
            copies, padding = overrides[produced % len(overrides)]
            n2 = rng.randint(2, (20 - padding) // copies)
            g2 = oracles.random_graph(n2, rng.choice((0.4, 0.6, 0.9)), rng.randrange(1 << 30))
            if g2.isolated_vertices():
                continue
            k2 = rng.randint(1, 3)
            produced += 1
            blown = padded_blowup_graph(g2, copies, padding)
            direct = oracles.count_vertex_covers(blown, copies * k2)
            expected = decomposed_blowup_count(g2, copies, padding, k2)
            yield (direct == expected,
                   f"blowup count {direct} != decomposition {expected} "
                   f"(n2={n2}, m={g2.m}, k2={k2}, copies={copies}, padding={padding})")

    return _sweep("blowup decomposition at tiny scale", checks())


def reduce_produced_parameters(kmax: int = 6):
    """All (n2, k2) pairs the reduce step can emit with budget <= kmax."""
    for k2 in range(kmax + 1):
        yield 0, k2
        for n2 in range(2, 2 * k2 * k2 + 1):
            yield n2, k2


def sweep_dominance(kmax: int = 6) -> SweepReport:
    """Each multiplicity dominates everything that follows it.

    This is the property that makes floor division in the lift recover
    each y_i exactly; checked with exact arithmetic over every
    reduce-producible parameter pair.  The multiplicities pass 4,300
    digits at k2 = 9, so a message gives their bit lengths.
    """

    def checks():
        for n2, k2 in reduce_produced_parameters(kmax):
            d, t, _ = blowup_parameters(n2, k2)
            ws = blowup_cover_multiplicity(d, t, k2, n2)
            for i in range(len(ws)):
                tail = sum(comb(n2, j) * ws[j] for j in range(i + 1, len(ws)))
                yield (ws[i] > tail, f"w_{i} of {ws[i].bit_length()} bits <= tail of "
                                     f"{tail.bit_length()} bits (n2={n2}, k2={k2})")

    return _sweep("multiplicity dominance", checks())


def multiplicity_by_enumeration(i: int, copies: int, padding: int,
                                budget: int, core_size: int) -> int:
    """Direct enumeration of the admissible extension vectors.

    Walks every per-class vector (each entry below ``copies``, total
    within the remaining budget) and closes each with the padding
    choices, grouped only by distributivity.
    """
    spend = copies * (budget - i)
    classes = core_size - i
    class_weights = [comb(copies, a) for a in range(copies)]
    pad_prefix = [0] * (spend + 1)
    running = 0
    for r in range(spend + 1):
        if r <= padding:
            running += comb(padding, r)
        pad_prefix[r] = running
    total = 0

    def rec(remaining_classes: int, left: int, weight: int) -> None:
        nonlocal total
        if remaining_classes == 0:
            total += weight * pad_prefix[left]
            return
        for a in range(min(copies - 1, left) + 1):
            rec(remaining_classes - 1, left - a, weight * class_weights[a])

    rec(classes, spend, 1)
    return total


def multiplicity_by_dp(i: int, copies: int, padding: int,
                       budget: int, core_size: int) -> int:
    """Convolution over the copy classes, a second reference for the
    closed form in ``blowup_cover_multiplicity``.

    ways[p] is the weighted number of ways to take p vertices from the
    classes seen so far, each class giving s <= copies-1 of its vertices
    in C(copies, s) ways; the padding then closes each p with at most
    spend - p of its vertices.  No caching, no shortcuts.
    """
    spend = copies * (budget - i)
    class_weights = [comb(copies, s) for s in range(copies)]
    ways = [1] + [0] * spend
    for _ in range(core_size - i):
        ways = [sum(class_weights[s] * ways[p - s] for s in range(min(p, copies - 1) + 1))
                for p in range(spend + 1)]
    at_most = list(accumulate(comb(padding, r) for r in range(spend + 1)))
    return sum(ways[p] * at_most[spend - p] for p in range(spend + 1))


def sweep_multiplicity_dp(limit: int = 6) -> SweepReport:
    """Closed form, convolution DP and direct enumeration agree on all
    small parameters."""

    def checks():
        for copies, padding, budget, core in product(range(limit + 1), repeat=4):
            for i, closed in enumerate(blowup_cover_multiplicity(copies, padding, budget, core)):
                dp = multiplicity_by_dp(i, copies, padding, budget, core)
                direct = multiplicity_by_enumeration(i, copies, padding, budget, core)
                yield (closed == dp == direct,
                       f"closed={closed} dp={dp} enum={direct} at (i={i}, copies={copies}, "
                       f"padding={padding}, budget={budget}, core={core})")

    return _sweep("multiplicity closed form vs DP vs enumeration", checks())


def sweep_minimal_vc(graphs: int = 2000, nmax: int = 6, kmax: int = 4,
                     seed: int = 0) -> SweepReport:
    """Minimal-cover kernel round-trips and respects the quadratic bounds."""

    def quadratic_bounds(inst, trip):
        if trip.result.context.payload["branch"] == "zero":
            return []
        g, k = trip.result.reduced.graph, inst.k
        return [(g.n <= 2 * k * k and g.m <= k * k,
                 f"kernel size ({g.n}, {g.m}) exceeds quadratic bounds")]

    instances = (CountingInstance(g, None, k)
                 for g in graph_corpus(graphs, nmax, seed) for k in range(kmax + 1))
    return _sweep("minimal-vc kernel end-to-end",
                  _round_trips(minimal_vertex_cover_kernel(), instances, quadratic_bounds))


def sweep_vc_size_bounds(graphs: int = 400, nmax: int = 6, kmax: int = 4,
                         seed: int = 0) -> SweepReport:
    """Normal-branch blowups match the size formula and the k^6 bound."""

    def checks():
        for g in graph_corpus(graphs, nmax, seed):
            for k in range(kmax + 1):
                result = reduce_vertex_cover(CountingInstance(g, None, k))
                payload = result.context.payload
                if payload["branch"] != "normal":
                    continue
                n2, k2 = int(payload["n2"]), int(payload["k2"])
                n3 = result.reduced.graph.n
                formula = n2 * n2 + n2 + n2 * k2 + 2 * (n2 * k2) ** 2
                yield n3 == formula, f"|V|={n3} != formula {formula}"
                if k >= 1:
                    yield n3 <= 18 * k ** 6, f"|V|={n3} > 18k^6 for k={k}"

    return _sweep("vc kernel size bounds", checks())


# ---------------------------------------------------------------------------
# Composition sweeps
# ---------------------------------------------------------------------------

def _equal_cut_tuples(pool, rng, want: int, max_len: int, min_cut: int = 1):
    """Draw tuples of pool instances sharing a min-cut size."""
    classes = group_by_min_cut(pool)
    usable = {k: ix for k, ix in classes.items() if k >= min_cut and ix}
    tuples = []
    for _ in range(want if usable else 0):
        members = usable[rng.choice(sorted(usable))]
        ell = rng.randint(1, max_len)
        tuples.append([pool[rng.choice(members)] for _ in range(ell)])
    return tuples


def sweep_sum(tuples: int = 500, nmax: int = 6, seed: int = 0) -> SweepReport:
    """Composed min-cut count equals the sum of the input counts."""

    def checks():
        count_cuts = _shared(oracles.count_min_st_cuts)
        rng = random.Random(seed)
        pool = cut_instance_pool(max(60, tuples // 4), nmax, seed + 1)
        for parts in _equal_cut_tuples(pool, rng, tuples, max_len=4):
            composed = sum_compose(parts)
            if comb(composed.graph.m, composed.k) > ENUMERATION_BUDGET:
                continue
            count, size = count_cuts(composed.graph, composed.terminals)
            expected = sum(count_cuts(g, st)[0] for g, st in parts)
            yield (count == expected and size == composed.k,
                   f"composed {count} (cut {size}) != sum {expected} "
                   f"(cut {composed.k}, ell={len(parts)})")
            yield (composed.k <= max(g.m for g, _ in parts),
                   "parameter exceeds the largest input edge count")

    return _sweep("sum composition", checks())


def sweep_ppt_oct(instances: int = 300, seed: int = 0) -> SweepReport:
    """Cut counts survive the transversal gadget, and outputs are nice."""

    is_nice = _shared(oracles.is_nice_oct_instance, _flat_key)

    def nice(inst, trip):
        reduced = trip.result.reduced
        return [(is_nice(reduced.graph, reduced.k), "output not nice")]

    pool = cut_instance_pool(instances, 7, seed, probabilities=(0.3, 0.45, 0.6),
                             keep=lambda g: 0 < g.m <= 6 and len(connected_components(g)) == 1)
    corpus = (CountingInstance(g, st, None, "min-cut-size") for g, st in pool)
    return _sweep("mincut-to-oct transformation", _round_trips(mincut_to_oct_ppt(), corpus, nice))


def nice_oct_corpus(count: int, nmax: int, kmax: int, seed: int,
                    ) -> list[CountingInstance]:
    is_nice = _shared(oracles.is_nice_oct_instance, _flat_key)
    rng = random.Random(seed)
    corpus = [CountingInstance(Graph.empty(1), None, 0)]
    while len(corpus) < count:
        n = rng.randint(1, nmax)
        g = oracles.random_graph(n, rng.choice((0.3, 0.5, 0.8)), rng.randrange(1 << 30))
        k = rng.randint(0, kmax)
        if is_nice(g, k):
            corpus.append(CountingInstance(g, None, k))
    return corpus


def sweep_ppt_vc(corpus_size: int = 200, nmax: int = 6, kmax: int = 3,
                 seed: int = 0) -> SweepReport:
    """Doubling a nice instance exactly doubles the count and pins the
    matching number and LP value at n."""
    matching = _shared(oracles.max_matching_size, _flat_key)
    lp_value = _shared(oracles.lp_vc_value, _flat_key)

    def doubled(inst, trip):
        reduced, n = trip.result.reduced, inst.graph.n
        return [
            (trip.reduced_count == 2 * trip.direct_count,
             f"covers={trip.reduced_count} != 2*{trip.direct_count}"),
            (matching(reduced.graph) == n, f"matching != n={n}"),
            (lp_value(reduced.graph) == Fraction(n), f"LP value != n={n}"),
            (reduced.param_kind == "k-minus-matching"
             and reduced.k - matching(reduced.graph) == inst.k, "derived parameter != k"),
        ]

    corpus = nice_oct_corpus(corpus_size, nmax, kmax, seed)
    return _sweep("oct-to-vc transformation", _round_trips(oct_to_vc_ppt(), corpus, doubled))


def _extraction_check(meta, count: int, want: list[int], message: str):
    """The check that ``extract_counts(meta, count)`` returns ``want``; a
    refused count fails it, with the refusal added to ``message``."""
    try:
        return extract_counts(meta, count) == want, message
    except IntegrityError as exc:
        return False, f"{message}: {exc}"


def _exact_tuple_checks(composition, parts, count_cuts, cut_size, enumerate_count: bool):
    """The checks on one gadget-branch composition of ``parts``, asking
    the sweep's shared ``count_min_st_cuts`` and ``min_cut_size``."""
    meta = composition.metadata
    per_input = [count_cuts(g, st)[0] for g, st in parts]
    expected = sum(q * (1 << e) for q, e in zip(per_input, meta.exponents))
    cut = cut_size(composition.graph, composition.terminals)
    yield cut == meta.cut_size + meta.m * (meta.ell - 1), f"composed cut {cut} != k + m(ell-1)"
    if enumerate_count:
        count, _ = count_cuts(composition.graph, composition.terminals)
        yield count == expected, f"composed count {count} != weighted sum {expected}"
        yield _extraction_check(meta, count, per_input, f"extraction failed on count {count}")
    else:
        yield _extraction_check(meta, expected, per_input, "extraction failed on the weighted sum")


def sweep_exact(tuples: int = 20, seed: int = 0) -> SweepReport:
    """Exact composition verified end-to-end by full cut enumeration.

    Includes the pinned two-path example (count 544, extraction [2, 2])
    and seeded random pairs small enough to enumerate; pairs whose
    enumeration space exceeds the budget are checked structurally
    (composed cut size, extraction on the weighted sum) instead.
    """

    def checks():
        count_cuts, cut_size = _shared(oracles.count_min_st_cuts), _shared(oracles.min_cut_size)
        path = (Graph.from_edges(3, [(0, 1), (1, 2)]), TerminalPair(0, 2))
        composition = exact_compose([path, path])
        count, size = count_cuts(composition.graph, composition.terminals)
        yield count == 544, f"pinned example count {count} != 544"
        yield size == 5, f"pinned example cut size {size} != 5"
        yield _extraction_check(composition.metadata, count, [2, 2],
                                "pinned example extraction != [2, 2]")

        rng = random.Random(seed)
        pool = cut_instance_pool(80, 4, seed + 1, keep=lambda g: g.m <= 3)
        verified = structural = 0
        for parts in _equal_cut_tuples(pool, rng, tuples * 12, max_len=2):
            if len(parts) != 2:
                continue
            probe = exact_compose(parts)
            if probe.metadata.branch == "trivial":
                continue
            k_prime = probe.metadata.cut_size + probe.metadata.m * (probe.metadata.ell - 1)
            feasible = comb(probe.graph.m, k_prime) <= ENUMERATION_BUDGET
            if feasible and verified < tuples:
                yield from _exact_tuple_checks(probe, parts, count_cuts, cut_size,
                                               enumerate_count=True)
                verified += 1
            elif not feasible and structural < 5:
                yield from _exact_tuple_checks(probe, parts, count_cuts, cut_size,
                                               enumerate_count=False)
                structural += 1
            if verified >= tuples and structural >= 5:
                break
        yield verified >= tuples, f"only {verified} of {tuples} tuples verified by enumeration"

        # Trivial branch: two single edges force ell >= 2^(max edge count).
        edge = (Graph.from_edges(2, [(0, 1)]), TerminalPair(0, 1))
        trivial = exact_compose([edge, edge])
        yield trivial.metadata.branch == "trivial", "expected trivial branch"
        yield _extraction_check(trivial.metadata, 0, [1, 1], "trivial branch answers != [1, 1]")

        single = exact_compose([path])
        count1, _ = count_cuts(single.graph, single.terminals)
        yield _extraction_check(single.metadata, count1, [2], "single-instance composition != [2]")

    return _sweep("exact composition", checks())


def sweep_exact_td(tuples: int = 12, nmax: int = 10, seed: int = 0) -> SweepReport:
    """Witness decompositions validate within one of the input treewidths."""

    def checks():
        treewidth = _shared(oracles.exact_treewidth)
        rng = random.Random(seed)
        pool = cut_instance_pool(40, nmax, seed + 1)
        for parts in _equal_cut_tuples(pool, rng, tuples, max_len=3, min_cut=0):
            composition = exact_compose(parts)
            if composition.metadata.branch == "trivial":
                continue
            check = validate_tree_decomposition(composition.graph, composition.witness)
            yield check.ok, f"witness invalid: {check.violation}"
            bound = max(2, max(treewidth(g)[0] for g, _ in parts) + 1)
            yield check.width <= bound, f"witness width {check.width} > bound {bound}"

    return _sweep("exact composition treewidth witness", checks())


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

SUITES = {
    "vc-kernel": lambda nmax, kmax, seed, n: [
        sweep_vc_kernel(n(2000), nmax, kmax, seed),
        sweep_map_size(seed, cases=n(120)),
        sweep_dominance(kmax=max(kmax, 6)),
        sweep_multiplicity_dp(limit=6),
        sweep_vc_size_bounds(min(n(400), 400), nmax, kmax, seed),
    ],
    "minvc-kernel": lambda nmax, kmax, seed, n: [sweep_minimal_vc(n(2000), nmax, kmax, seed)],
    "sum": lambda nmax, kmax, seed, n: [sweep_sum(n(500), nmax, seed)],
    "exact": lambda nmax, kmax, seed, n: [sweep_exact(n(20), seed),
                                          sweep_exact_td(n(12), 10, seed)],
    "ppt-oct": lambda nmax, kmax, seed, n: [sweep_ppt_oct(n(300), seed)],
    "ppt-vc": lambda nmax, kmax, seed, n: [sweep_ppt_vc(n(200), nmax, 3, seed)],
}


def run_suite(name: str, nmax: int = 6, kmax: int = 4, seed: int = 0,
              trials: int | None = None) -> list[SweepReport]:
    """Run one named verification suite; ``all`` runs everything."""

    def n(default: int) -> int:
        return trials if trials is not None else default

    if name == "all":
        return [report for suite in SUITES.values() for report in suite(nmax, kmax, seed, n)]
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return SUITES[name](nmax, kmax, seed, n)
