"""Polynomial kernel for counting vertex covers, and the quadratic
kernel for counting minimal vertex covers.

Reduce pipeline for the counting kernel:

1. Exhaustively delete vertices whose degree exceeds the remaining
   budget (each such vertex is in every small cover), decrementing the
   budget.  If the budget would go negative the count is 0.  A
   deletion lowers the budget by 1 and other degrees by at most 1, so
   an eligible vertex stays eligible and the outcome does not depend
   on the order of deletions (``buss_reduce``).
2. Drop isolated vertices, remembering how many vertices the rule
   left (``n1``): covers of the stripped core extend to covers of the
   full graph by arbitrary isolated vertices within budget.
3. Blow the core up: replace each of its ``n2`` vertices by ``d = n2``
   pairwise non-adjacent copies, join copy classes of adjacent
   vertices completely, pad with ``t = d + d*k2 + 2*(d*k2)**2``
   isolated vertices, and scale the budget to ``k3 = d*k2``.  The
   reduced instance holds this blowup as the core plus d and t
   (``PaddedBlowup``): its file is written row by row from the core,
   and its d^2*m2 edges are built only for a caller that asks for them.

Steps 1 and 2 work on the endpoint columns alone (``Graph.columns``),
never on ``Graph.adjacency``, on ``Graph.edges`` or on anything sized
by the declared n: O(m) per round of the rule (degrees in a
``Graph.degrees`` table, the deleted vertices in a set), and the rule
needs at most k + 1 rounds, usually two; the strip ranks the endpoints
of the surviving edges, O(m log m).  Their time and memory do not depend
on n, so a file that declares n = 10^12 costs what its edges cost, and
n1 is carried as a number.  A parsed host's edge set is never built.

The count of the blown-up instance decomposes as ``sum_i y_i * w_i``
where ``y_i`` is the number of core covers of size exactly ``i`` and
``w_i`` (``blowup_cover_multiplicity``) counts the extensions attached
to each of them.  The padding makes every ``w_i`` dominate all later
terms, so the lift recovers each ``y_i`` by floor division and then
reattaches the isolated-vertex choices.

An extension takes at most spend = d*(k2 - i) vertices from the
l = n2 - i uncovered copy classes and the padding, but never a whole
class (that would cover a core vertex outside the cover).  Dropping
the whole-class limit leaves the r-subsets, r <= spend, of d*l + t
vertices; inclusion-exclusion over the j classes taken whole gives

    w_i = sum_{j >= 0, d*j <= spend} (-1)^j C(l, j) * S(i + j),
    S(s) = sum_{r <= d*(k2 - s)} C(d*(n2 - s) + t, r),

with each S(s) built once, term by term: O(d * k2^2) big-int steps
for all the w_i of one lift.

Reduce and lift never touch the brute-force ``oracles``.  Only the
verification helpers ``decomposed_blowup_count`` and
``reference_blowup_count`` count core covers with them, and import
them when called.
"""

from __future__ import annotations

from bisect import bisect
from itertools import compress, repeat
from math import comb
from typing import NamedTuple

from .framework import (
    Compression,
    CompressionResult,
    CountingInstance,
    IntegrityError,
    LiftContext,
    ProtocolError,
    binomial_prefix_sums,
    exceeds_subset_count,
)
from .graphs import Graph

VC_KERNEL = "vertex-cover-kernel"
MINIMAL_VC_KERNEL = "minimal-vertex-cover-kernel"

_CONTEXT_FIELDS = {
    VC_KERNEL: ("n1", "n2", "k2", "d", "t", "k3"),
    MINIMAL_VC_KERNEL: ("n1", "n2", "k2"),
}


def buss_reduce(g: Graph, k: int) -> tuple[Graph, int] | None:
    """Exhaust the high-degree rule; None means the count is provably 0.

    While some vertex has degree above the current budget, delete it
    (it belongs to every cover within budget) and decrement the budget.
    None means a vertex is still above the budget when the budget is 0.

    The order of deletions does not matter.  Deleting a vertex lowers
    the budget by exactly 1 and any other vertex's degree by at most 1,
    so a vertex above the budget stays above it until it is deleted.
    The deleted set, the final budget and the None decision are
    therefore the same for every order.  So each round deletes every
    vertex above the budget at once; when there are more of them than
    the budget, deleting them one by one would reach budget 0 with one
    still above it, which is None.

    The rule reads the endpoint columns of ``g`` (``Graph.columns``),
    in their order, and never its edge set.  The first round reads
    ``g.degrees``, which the parse counted; a later one counts the
    surviving columns the same way.  A round drops the edges of the
    deleted vertices from both columns with ``compress``: O(m), with no
    adjacency, edge set or tuple built and nothing sized by ``g.n``.
    The first round takes every vertex of degree above k; a later one
    deletes anything only when earlier deletions left a vertex above the
    lowered budget.  Every round but the last deletes at least one
    vertex, so there are at most k + 1 rounds, and two when the first
    round's deletions settle the rule.  A surviving vertex v is
    renumbered v - (deleted vertices below v), found by bisection in the
    sorted deleted list.  When the first round deletes nothing the
    result is ``(g, k)`` itself, with no edge rebuilt.
    """
    if k < 0:
        return None
    us, vs = g.columns()
    rest = g
    budget = k
    deleted: list[int] = []
    while True:
        victims = rest.vertices_above(budget)
        if not victims:
            break
        if len(victims) > budget:
            return None
        budget -= len(victims)
        deleted += victims
        keep = [u not in victims and v not in victims for u, v in zip(us, vs)]
        us, vs = list(compress(us, keep)), list(compress(vs, keep))
        rest = Graph._checked(g.n, (us, vs))
    if not deleted:
        return g, k
    deleted.sort()
    kept = ([u - bisect(deleted, u) for u in us], [v - bisect(deleted, v) for v in vs])
    return Graph._checked(g.n - len(deleted), columns=kept), budget


def strip_isolated(g1: Graph, k1: int) -> tuple[Graph, int, int]:
    """Drop isolated vertices; returns (core, unchanged budget, n1).

    Ranks the endpoints of the edge columns in increasing order and
    renumbers both columns by the ranks: O(m log m), with no adjacency
    or edge set built and nothing sized by ``g1.n``.  When every vertex
    is an endpoint the core is ``g1`` itself.
    """
    us, vs = g1.columns()
    endpoints = {*us, *vs}
    if len(endpoints) == g1.n:
        return g1, k1, g1.n
    rank = {v: i for i, v in enumerate(sorted(endpoints))}
    core = Graph._checked(len(rank), columns=([rank[u] for u in us], [rank[v] for v in vs]))
    return core, k1, g1.n


def padded_blowup_graph(core: Graph, copies: int, padding: int) -> Graph:
    """The edge ``Graph`` of a padded blowup: copy classes of size
    ``copies`` per core vertex, completely joined along core edges,
    followed by ``padding`` isolated vertices.

    Vertex v of the core becomes copies v*copies .. (v+1)*copies - 1.
    Each core edge (u, v) contributes the product of the two copy
    ranges, appended to the endpoint columns; distinct edges give
    disjoint products.  Parameters are free here so the decomposition
    identity can be brute-force checked at tiny scale.  The kernel never
    calls this on its own path: it keeps the blowup implicit
    (``PaddedBlowup``), and only ``PaddedBlowup.materialize`` builds
    these edges.
    """
    if copies < 0 or padding < 0:
        raise ValueError("copies and padding must be nonnegative")
    us: list[int] = []
    vs: list[int] = []
    for u, v in zip(*core.columns()):
        for a in range(u * copies, u * copies + copies):
            us += repeat(a, copies)
            vs += range(v * copies, v * copies + copies)
    return Graph._from_columns(core.n * copies + padding, us, vs)


class _BlowupFields(NamedTuple):
    core: Graph
    copies: int
    padding: int


class PaddedBlowup(_BlowupFields):
    """The padded blowup of a core, held as the core, ``copies`` and
    ``padding`` instead of its copies*copies*core.m edges.

    It stands for ``padded_blowup_graph(core, copies, padding)``.  It
    gives n and m in O(1) and ``serialize_graph`` its rows straight
    from the core; ``materialize`` builds the edge ``Graph``.  The core
    must be a ``Graph`` with no isolated vertex and both counts
    nonnegative.  The core's own checks then put every edge the rows
    describe in range and in order, so nothing is checked per edge.
    """

    __slots__ = ()

    def __new__(cls, core: Graph, copies: int, padding: int):
        if not isinstance(core, Graph):
            raise TypeError("the core of a padded blowup must be a Graph")
        if copies < 0 or padding < 0:
            raise ValueError("copies and padding must be nonnegative")
        if core.isolated_vertices():
            raise ValueError("core graph must have no isolated vertices")
        return super().__new__(cls, core, copies, padding)

    @property
    def n(self) -> int:
        return self.core.n * self.copies + self.padding

    @property
    def m(self) -> int:
        return self.core.m * self.copies * self.copies

    def rows(self):
        """The rows ``serialize_graph`` writes, in increasing u: each
        vertex with a higher neighbour, with the 1-based labels of those
        neighbours in increasing order.

        Every copy of core vertex u has the same row: the copy ranges of
        u's higher core neighbours.  So each core vertex's labels are
        formatted once and the one list is yielded for all its copies.
        """
        d = self.copies
        higher: list[list[int]] = [[] for _ in range(self.core.n)]
        for u, v in zip(*self.core.columns()):
            higher[min(u, v)].append(max(u, v))
        for u, vs in enumerate(higher):
            if vs:
                labels = [str(c) for v in sorted(vs) for c in range(v * d + 1, v * d + d + 1)]
                for a in range(u * d, u * d + d):
                    yield a, labels

    def materialize(self) -> Graph:
        return padded_blowup_graph(self.core, self.copies, self.padding)


def blowup_parameters(n2: int, k2: int) -> tuple[int, int, int]:
    """The blowup of an n2-vertex core at budget k2: (d, t, k3) with
    d = n2 copies per core vertex, t = d + d*k2 + 2*(d*k2)**2 padding
    vertices and the scaled budget k3 = d*k2."""
    k3 = n2 * k2
    return n2, n2 + k3 + 2 * k3 * k3, k3


def build_padded_blowup(g2: Graph, k2: int) -> tuple[PaddedBlowup, int, int, int]:
    """Blow up the core by ``blowup_parameters``; returns (blowup, k3, d, t).

    The blowup is the implicit ``PaddedBlowup``: the core plus d and t,
    with d*d*m2 edges that are not built here.
    """
    d, t, k3 = blowup_parameters(g2.n, k2)
    return PaddedBlowup(g2, d, t), k3, d, t


# ---------------------------------------------------------------------------
# Extension multiplicities
# ---------------------------------------------------------------------------

def blowup_cover_multiplicity(copies: int, padding: int, budget: int,
                              core_size: int) -> list[int]:
    """[w_0 .. w_min(budget, core_size)], w_i the extensions per core
    cover of size exactly i in the padded blowup.

    w_i counts the vectors (a*, a_1..a_l), l = core_size - i, with
    a* + sum a_j <= spend = copies*(budget - i), a* <= padding and each
    a_j <= copies-1, weighted by C(padding, a*) * prod C(copies, a_j):
    the ways to take at most ``spend`` vertices from the l uncovered
    copy classes and the padding, never a whole class.

    Without the whole-class limit the weighted count is the number of
    r-subsets, r <= spend, of copies*l + padding vertices.  By
    inclusion-exclusion over the set of classes taken whole, j fixed
    whole classes leave S(i + j) = sum_{r <= copies*(budget - i - j)}
    C(copies*(core_size - i - j) + padding, r) choices, and
    w_i = sum_{j >= 0, copies*j <= spend} (-1)^j C(l, j) * S(i + j).

    S(s) depends on s alone, so each is built once; s runs to
    min(budget, core_size), or to core_size when copies = 0 (each S(s)
    is then 1).  With copies >= 1 the list costs O(copies * budget^2)
    big-int steps.  Accepts arbitrary nonnegative parameters, not only
    reduce-produced ones, so the identity is testable at
    brute-forceable scale.
    """
    if min(copies, padding, budget, core_size) < 0:
        raise ValueError("copies, padding, budget and core size must be nonnegative")
    # The sums only grow, so the largest is the last, the full S(s).
    partial = [max(binomial_prefix_sums(copies * (core_size - s) + padding, copies * (budget - s)))
               for s in range(core_size + 1) if copies * (budget - s) >= 0]
    return [sum((-1) ** j * comb(core_size - i, j) * inner for j, inner in enumerate(partial[i:]))
            for i in range(min(budget, core_size) + 1)]


# ---------------------------------------------------------------------------
# The counting kernel
# ---------------------------------------------------------------------------

def _kernel_core(inst: CountingInstance, kernel: str) -> tuple[Graph, int, int] | None:
    """The degree rule, then the strip, as both kernels start: (core,
    k2, n1), or None when the count is provably 0 (the rule exhausts the
    budget, or the core keeps more than k2^2 edges)."""
    if inst.param_kind != "solution-size" or inst.k is None:
        raise ValueError(f"{kernel} expects a solution-size instance")
    step = buss_reduce(inst.graph, inst.k)
    if step is None:
        return None
    g2, k2, n1 = strip_isolated(*step)
    return None if g2.m > k2 * k2 else (g2, k2, n1)


def _zero_result(name: str) -> CompressionResult:
    # Both kernels write the counting kernel's fields, a superset of their own.
    context = LiftContext.of(name, "zero", **dict.fromkeys(_CONTEXT_FIELDS[VC_KERNEL], 0))
    reduced = CountingInstance(Graph.from_edges(2, [(0, 1)]), None, 0, "solution-size")
    return CompressionResult(reduced, context)


def reduce_vertex_cover(inst: CountingInstance) -> CompressionResult:
    """Reduce a vertex-cover counting instance to its padded blowup.

    Falls to the zero branch (a constant single-edge instance with
    budget 0, whose count is 0) when the degree rule exhausts the
    budget or the core retains more than k2^2 edges.
    """
    core = _kernel_core(inst, "vertex-cover kernel")
    if core is None:
        return _zero_result(VC_KERNEL)
    g2, k2, n1 = core
    g3, k3, d, t = build_padded_blowup(g2, k2)
    context = LiftContext.of(VC_KERNEL, "normal", n1=n1, n2=g2.n, k2=k2, d=d, t=t, k3=k3)
    return CompressionResult(CountingInstance(g3, None, k3, "solution-size"), context)


def _decode_context(ctx: LiftContext, name: str) -> dict[str, int] | None:
    """The payload's fields as integers, or None on the zero branch.

    Both branches carry every field of the owning kernel
    (``LiftContext.counts``).  A normal core has at most k2^2 edges and
    no isolated vertex, so a normal context with n1 < n2 or n2 > 2*k2^2
    raises ProtocolError.
    """
    branch, fields = ctx.counts(name, _CONTEXT_FIELDS[name], ("normal", "zero"))
    if branch == "zero":
        return None
    n1, n2, k2 = fields["n1"], fields["n2"], fields["k2"]
    if n1 < n2 or n2 > 2 * k2 * k2:
        raise ProtocolError(f"inconsistent {name} context {fields}")
    return fields


def lift_vertex_cover(ctx: LiftContext, reduced_count: int) -> int:
    """Recover the original cover count from the blowup's count.

    The context's d, t and k3 must be ``blowup_parameters(n2, k2)``.
    Sizes above the core order are skipped: no core cover can use more
    than n2 vertices, and the multiplicity is undefined there.  Floor
    division recovers y_i only if w_i > sum_{j>i} C(n2, j) * w_j, its
    tail, so the lift checks that for every i before it divides.  Each
    extracted y_i must be a possible number of size-i core covers: at
    most C(n2, i), and y_0 = 0 on a non-empty core (it has no isolated
    vertex, so the empty set covers nothing).  A coefficient outside
    that range, or a nonzero residue after the extraction loop, means
    the supplied count was not the reduced instance's true count.  Each
    y_i then takes the sum_{j <= k2 - i} C(n1 - n2, j) choices of
    isolated vertices, from ``binomial_prefix_sums``, which stops at
    j = n1 - n2, past which every term is 0.
    """
    fields = _decode_context(ctx, VC_KERNEL)
    if fields is None:
        return 0
    n1, n2, k2, d, t, k3 = (fields[f] for f in _CONTEXT_FIELDS[VC_KERNEL])
    if (d, t, k3) != blowup_parameters(n2, k2):
        raise ProtocolError(f"inconsistent {VC_KERNEL} context {fields}")
    if reduced_count < 0:
        raise IntegrityError("counts are nonnegative")
    ws = blowup_cover_multiplicity(d, t, k2, n2)
    tail = 0
    for i in reversed(range(len(ws))):
        if ws[i] <= tail:
            raise IntegrityError(f"w_{i} does not dominate its tail at (n2={n2}, k2={k2})")
        tail += comb(n2, i) * ws[i]
    isolated = n1 - n2
    choices = list(binomial_prefix_sums(isolated, k2))
    remaining = reduced_count
    total = 0
    for i, w in enumerate(ws):
        y = remaining // w
        if y > comb(n2, i) or (i == 0 and n2 and y):
            raise IntegrityError(
                f"lift extracted a {y.bit_length()}-bit number of core covers of size {i} "
                f"from a {n2}-vertex core; corrupted count")
        remaining -= y * w
        total += y * choices[min(k2 - i, isolated)]
    if remaining:
        raise IntegrityError(
            f"lift left a residue of {remaining.bit_length()} bits; corrupted count")
    return total


def decomposed_blowup_count(core: Graph, copies: int, padding: int, budget: int) -> int:
    """Covers of size at most copies*budget of the padded blowup of
    ``core``, assembled as sum_i y_i * w_i with oracle y_i."""
    from . import oracles

    return sum(oracles.count_vertex_covers_of_size(core, i) * w
               for i, w in enumerate(blowup_cover_multiplicity(copies, padding, budget, core.n)))


def reference_blowup_count(reduced: CountingInstance) -> int:
    """True count of the reduced blowup via the decomposition identity.

    The padding makes the blowup too large to enumerate directly, so
    the count is assembled as sum_i y_i * w_i with oracle y_i on the
    blowup's core at budget k3 / copies; the identity itself is
    brute-force verified at tiny overridden scale by the verification
    suite.  The zero branch's constant instance goes to the oracle; an
    empty core has no copies and one cover at any budget.
    """
    from . import oracles

    g3 = reduced.graph
    if not isinstance(g3, PaddedBlowup):
        return oracles.count_vertex_covers(g3, reduced.k)
    k2 = reduced.k // g3.copies if g3.copies else 0
    return decomposed_blowup_count(g3.core, g3.copies, g3.padding, k2)


def vertex_cover_kernel() -> Compression:
    return Compression(
        name=VC_KERNEL,
        source_problem="vertex-cover",
        target_problem="vertex-cover",
        reduce=reduce_vertex_cover,
        lift=lift_vertex_cover,
        size_bound=lambda k: max(2, 18 * k ** 6),
        reference_reduced_count=reference_blowup_count,
    )


# ---------------------------------------------------------------------------
# The minimal-cover kernel
# ---------------------------------------------------------------------------

def reduce_minimal_vertex_cover(inst: CountingInstance) -> CompressionResult:
    """Reduce a minimal-cover instance to its stripped core.

    Minimal covers never contain isolated vertices and survive the
    degree rule unchanged in number, so the core with the residual
    budget is already the kernel.
    """
    core = _kernel_core(inst, "minimal-vertex-cover kernel")
    if core is None:
        return _zero_result(MINIMAL_VC_KERNEL)
    g2, k2, n1 = core
    context = LiftContext.of(MINIMAL_VC_KERNEL, "normal", n1=n1, n2=g2.n, k2=k2)
    return CompressionResult(CountingInstance(g2, None, k2, "solution-size"), context)


def lift_minimal_vertex_cover(ctx: LiftContext, reduced_count: int) -> int:
    """The core's count is the original count, at most sum_{i<=k2} C(n2, i).

    ``exceeds_subset_count`` sums the bound only until it reaches the
    count, so a huge context stays cheap.
    """
    fields = _decode_context(ctx, MINIMAL_VC_KERNEL)
    if fields is None:
        return 0
    if reduced_count < 0:
        raise IntegrityError("counts are nonnegative")
    n2, k2 = fields["n2"], fields["k2"]
    if exceeds_subset_count(reduced_count, n2, k2):
        raise IntegrityError(
            f"a {reduced_count.bit_length()}-bit number of minimal covers of size at most "
            f"{k2} in a {n2}-vertex core; corrupted count")
    return reduced_count


def minimal_vertex_cover_kernel() -> Compression:
    return Compression(
        name=MINIMAL_VC_KERNEL,
        source_problem="minimal-vertex-cover",
        target_problem="minimal-vertex-cover",
        reduce=reduce_minimal_vertex_cover,
        lift=lift_minimal_vertex_cover,
        size_bound=lambda k: max(2, 2 * k * k),
    )
