"""Cut compositions and the parameter transformations built on them.

``sum_compose`` chains instances with equal minimum-cut size so the
composed count is the sum of the input counts.  ``exact_compose``
additionally attaches per-copy bundles of parallel terminal paths whose
cut choices scale each input's count by a distinct power of two, so a
single composed count encodes all input counts; ``extract_counts``
recovers them by repeated floor division.  The exact composition also
emits a constructive tree-decomposition witness showing the composed
treewidth stays within one of the inputs'; it builds the witness's bags
in the same pass over the copies as the paths they cover.

The two transformations move counting hardness across problems:
minimum (s,t)-cuts map to size-k odd cycle transversals of a parity
gadget graph, and odd cycle transversals of nice instances map (two
for one) to vertex covers of a doubled graph whose budget exceeds its
matching number by exactly k.
"""

from __future__ import annotations

import json
from array import array
from typing import NamedTuple

from . import oracles
from .framework import (
    CompositionError,
    Compression,
    CompressionResult,
    CountingInstance,
    IntegrityError,
    LiftContext,
    PreconditionError,
    ProtocolError,
    decimal,
    exceeds_binomial,
    exceeds_subset_count,
    json_object,
)
from .graphs import (
    Graph,
    TerminalPair,
    TreeDecomposition,
    chain_identify,
    connected_components,
    false_twin_blowup,
    induced_subgraph,
    subdivide_all_edges,
    validate_tree_decomposition,
)

MINCUT_TO_OCT = "mincut-to-oct"
OCT_TO_VC = "oct-to-vc"

CutInstance = tuple[Graph, TerminalPair]


def group_by_min_cut(instances: list[CutInstance]) -> dict[int, list[int]]:
    """Partition instance positions into classes of equal min-cut size."""
    classes: dict[int, list[int]] = {}
    for pos, (g, st) in enumerate(instances):
        classes.setdefault(oracles.min_cut_size(g, st), []).append(pos)
    return classes


def _common_cut_size(instances: list[CutInstance]) -> int:
    if not instances:
        raise CompositionError("cannot compose an empty instance list")
    sizes = {oracles.min_cut_size(g, st) for g, st in instances}
    if len(sizes) != 1:
        raise CompositionError(f"unequal min-cut sizes {sorted(sizes)}")
    return sizes.pop()


def sum_compose(instances: list[CutInstance]) -> CountingInstance:
    """Chain equal-cut-size instances; composed count = sum of counts.

    Returns a ``min-cut-size`` ``CountingInstance`` whose ``k`` is the
    common cut size.  Rejects a common cut size of 0 for two or more
    inputs: the empty cut would be shared by every copy and the sum
    identity fails (each such input has count exactly 1 anyway).
    """
    k = _common_cut_size(instances)
    if k == 0 and len(instances) > 1:
        raise CompositionError("cut size 0 is not summable across copies")
    graph, terminals, _ = chain_identify(instances)
    return CountingInstance(graph, terminals, k, "min-cut-size")


# ---------------------------------------------------------------------------
# Minimum cut -> odd cycle transversal
# ---------------------------------------------------------------------------

def mincut_to_oct_reduce(inst: CountingInstance) -> CompressionResult:
    """Turn a cut instance into an odd-cycle-transversal instance.

    Components holding neither terminal are discarded; if the terminals
    then sit in different components the cut count is 1 and a constant
    instance with count 1 is emitted.  Otherwise every edge is
    subdivided (making all original-vertex walks even), every original
    vertex becomes k+1 twins so no small transversal can afford a whole
    class, and k+1 pendant edge pairs close one odd cycle per terminal
    path: x_j adjacent to all s-copies, y_j to all t-copies, with
    x_j y_j edges.
    """
    if inst.terminals is None:
        raise ValueError("cut instances need terminals")
    g, st = inst.graph, inst.terminals
    comps = connected_components(g)
    comp_s = next(c for c in comps if st.s in c)
    if st.t not in comp_s:
        reduced = CountingInstance(Graph.empty(1), None, 0, "solution-size")
        return CompressionResult(reduced, LiftContext.of(MINCUT_TO_OCT, "separated", k=0, m=0))

    kept, vmap = induced_subgraph(g, comp_s)
    s, t = vmap[st.s], vmap[st.t]
    k = oracles.min_cut_size(kept, TerminalPair(s, t))
    blown, copy_of = false_twin_blowup(subdivide_all_edges(kept), range(kept.n), k + 1)

    base = blown.n
    us, vs = (list(column) for column in blown.columns())
    for x in range(base, base + k + 1):
        y = x + k + 1
        us += [x, *copy_of[s], *copy_of[t]]
        vs += [y] + [x] * len(copy_of[s]) + [y] * len(copy_of[t])
    gprime = Graph._from_columns(base + 2 * (k + 1), us, vs)

    reduced = CountingInstance(gprime, None, k, "solution-size")
    return CompressionResult(reduced, LiftContext.of(MINCUT_TO_OCT, "normal", k=k, m=kept.m))


def mincut_to_oct_lift(ctx: LiftContext, count: int) -> int:
    """The transversal count is the cut count: from 1 to C(m, k), the
    k-edge subsets of the kept component's m edges.  A ``separated``
    context has k = m = 0 and exactly one transversal, the empty set; a
    ``normal`` one has 1 <= k <= m."""
    branch, fields = ctx.counts(MINCUT_TO_OCT, ("k", "m"), ("separated", "normal"))
    k, m = fields["k"], fields["m"]
    if not ((k, m) == (0, 0) if branch == "separated" else 1 <= k <= m):
        raise ProtocolError(
            f"inconsistent {MINCUT_TO_OCT} context: branch {branch!r}, k = {k}, m = {m}")
    if count < 1 or exceeds_binomial(count, m, k):
        bound = f"from 1 to C({m}, {k}) transversals" if k else "exactly one transversal"
        raise IntegrityError(f"a {branch} {MINCUT_TO_OCT} instance has {bound}; corrupted count")
    return count


def mincut_to_oct_ppt() -> Compression:
    return Compression(MINCUT_TO_OCT, "min-st-cut", "odd-cycle-transversal",
                       mincut_to_oct_reduce, mincut_to_oct_lift)


# ---------------------------------------------------------------------------
# Odd cycle transversal -> vertex cover
# ---------------------------------------------------------------------------

def two_copy_matching_graph(g: Graph) -> Graph:
    """Two disjoint copies of g plus the perfect matching between them.

    The copies of g's distinct edges and the matching edges v-(v+n)
    are distinct pairs.  Its 2m + n edges are the largest graph a
    ``ppt`` step builds, so they are held as two ``array('q')`` endpoint
    columns, 16 bytes an edge: a copy of g's columns, then the second
    copy's and the matching's endpoints, each run appended from a list
    (``fromlist``, faster than filling from a ``map``).
    """
    n = g.n
    us, vs = g.columns()
    new_us, new_vs = array("q", us), array("q", vs)
    new_us.fromlist([u + n for u in us])
    new_vs.fromlist([v + n for v in vs])
    new_us.fromlist(list(range(n)))
    new_vs.fromlist(list(range(n, 2 * n)))
    # Valid by construction from a checked g.  Checking the arrays again
    # would box every entry it reads, which cost more than the build.
    return Graph._checked(2 * n, (new_us, new_vs))


def oct_to_vc_reduce(inst: CountingInstance, verify_nice: bool = False) -> CompressionResult:
    """Nice transversal instances to vertex covers, two covers per transversal.

    The output budget is n + k; the built-in perfect matching pins both
    the matching number and the cover LP value at n, so the derived
    parameter is exactly k.  Niceness (every transversal within budget
    leaves a connected graph) is the caller's obligation unless
    ``verify_nice`` is set.
    """
    if inst.param_kind != "solution-size" or inst.k is None:
        raise ValueError("transversal instances need a solution-size budget")
    g, k = inst.graph, inst.k
    if verify_nice and not oracles.is_nice_oct_instance(g, k):
        raise PreconditionError("instance is not nice: a small transversal disconnects it")
    reduced = CountingInstance(two_copy_matching_graph(g), None, g.n + k,
                               "k-minus-matching")
    return CompressionResult(reduced, LiftContext.of(OCT_TO_VC, n=g.n, k=k))


def oct_to_vc_lift(ctx: LiftContext, count: int) -> int:
    """Half the cover count: the transversal count of the n-vertex input.

    That count is at most sum_{i<=k} C(n, i), the subsets within
    budget; an odd, negative or larger count means the supplied count
    was not the doubled graph's true count.
    """
    _, fields = ctx.counts(OCT_TO_VC, ("n", "k"))
    if count < 0 or count % 2:
        raise IntegrityError("the cover count of a doubled graph must be even and nonnegative")
    n, k = fields["n"], fields["k"]
    if exceeds_subset_count(count // 2, n, k):
        raise IntegrityError(
            f"a {(count // 2).bit_length()}-bit number of transversals of size at most {k} "
            f"in a {n}-vertex graph; corrupted count")
    return count // 2


def oct_to_vc_ppt() -> Compression:
    return Compression(OCT_TO_VC, "odd-cycle-transversal", "vertex-cover",
                       oct_to_vc_reduce, oct_to_vc_lift)


# ---------------------------------------------------------------------------
# Exact composition
# ---------------------------------------------------------------------------

_METADATA_KEYS = ("branch", "ell", "m", "k", "exponents")


class ExactMetadata(NamedTuple):
    """Bookkeeping that lets one composed count encode all input counts.

    ``exponents[i]`` is the power of two multiplying input i's count in
    the composed count; in the trivial branch the per-input answers are
    recorded directly instead.
    """

    branch: str
    ell: int
    m: int
    cut_size: int
    exponents: tuple[int, ...]
    recorded_answers: tuple[int, ...] | None = None

    def to_json(self) -> str:
        doc = {
            "branch": self.branch,
            "ell": self.ell,
            "m": self.m,
            "k": self.cut_size,
            "exponents": list(self.exponents),
        }
        if self.recorded_answers is not None:
            doc["recorded_answers"] = [str(a) for a in self.recorded_answers]
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExactMetadata":
        """Decode strictly (``json_object``); every fault raises
        ProtocolError.

        Every key must be present, the counts nonnegative JSON integers
        and the branch ``gadget`` or ``trivial``.  The fields must be
        ones ``exact_compose`` emits: ell >= 1, m even, one exponent
        m*(i-1) + m*(ell-1) per input, the trivial branch exactly when
        ell >= 2^(m/2), and there one recorded answer per input, each a
        ``decimal``.
        """
        doc = json_object(text, "exact metadata")
        for key in _METADATA_KEYS:
            if key not in doc:
                raise ProtocolError(f"exact metadata lacks {key!r}")
        branch, ell, m, k, exponents = (doc[key] for key in _METADATA_KEYS)
        if branch not in ("gadget", "trivial"):
            raise ProtocolError(f"exact metadata branch {branch!r} is not 'gadget' or 'trivial'")
        if not isinstance(exponents, list):
            raise ProtocolError(f"exact metadata exponents {exponents!r} is not a list")
        for value in (ell, m, k, *exponents):
            if type(value) is not int or value < 0:  # bool is a subclass of int
                raise ProtocolError(f"exact metadata value {value!r} is not a nonnegative integer")
        if (ell < 1 or m % 2 or len(exponents) != ell
                or exponents != [m * (i - 1) + m * (ell - 1) for i in range(1, ell + 1)]):
            raise ProtocolError(
                f"inconsistent exact metadata (ell={ell}, m={m}, exponents={exponents})")
        # Trivial exactly when ell >= 2^(m/2), tested without building the power.
        if (branch == "trivial") != (m // 2 < ell.bit_length()):
            raise ProtocolError(f"exact metadata branch {branch!r} does not fit ell={ell}, m={m}")
        answers = doc.get("recorded_answers")
        if branch == "trivial":
            if not (isinstance(answers, list) and len(answers) == ell):
                raise ProtocolError(f"trivial exact metadata needs {ell} recorded answers")
            answers = tuple(decimal(a, "exact metadata recorded answer") for a in answers)
        elif answers is not None:
            raise ProtocolError("gadget exact metadata carries recorded answers")
        return cls(branch, ell, m, k, tuple(exponents), answers)


class ExactComposition(NamedTuple):
    graph: Graph
    terminals: TerminalPair
    metadata: ExactMetadata
    witness: TreeDecomposition


def _input_decomposition(g: Graph, supplied: TreeDecomposition | None) -> TreeDecomposition:
    if supplied is not None:
        check = validate_tree_decomposition(g, supplied)
        if not check.ok:
            raise ValueError(f"supplied decomposition invalid: {check.violation}")
        return supplied
    if g.n <= oracles.TREEWIDTH_LIMIT:
        return oracles.exact_treewidth(g)[1]
    node = "all"
    return TreeDecomposition(nodes=(node,), links=frozenset(),
                             bags={node: frozenset(range(g.n))})


def exact_compose(instances: list[CutInstance],
                  decompositions: list[TreeDecomposition | None] | None = None,
                  ) -> ExactComposition:
    """Compose equal-cut-size instances so every input count is recoverable.

    With ell inputs and m twice the largest input edge count, copy i
    gains m*(ell-1) internally disjoint terminal paths, the first
    m*(i-1) with three internal vertices and the rest with one.  A
    minimum composed cut picks one edge per path of one copy, giving
    composed count sum_i q_i * 2^(m*(i-1)) * 2^(m*(ell-1)).  When
    ell >= 2^(max edge count) the inputs are solved outright by oracle
    and recorded (trivial branch).  Every path vertex is new, so the
    path edges are appended to the chain's endpoint columns as they are.

    The witness decomposition is built in the same pass.  Per copy: the
    input decomposition, relabelled, with the chained t_i added to every
    bag; one 3-vertex bag per short path and a path of three bags per
    long path, each hung off the copy's first node holding s_i (its
    anchor); the anchors of consecutive copies are linked.  It is
    validated here at width at most max(2, max input width + 1).
    """
    k = _common_cut_size(instances)
    ell = len(instances)
    m_prime = max(g.m for g, _ in instances)
    m = 2 * m_prime
    exponents = tuple(m * (i - 1) + m * (ell - 1) for i in range(1, ell + 1))

    if ell >= 2 ** m_prime:
        answers = tuple(oracles.count_min_st_cuts(g, st)[0] for g, st in instances)
        meta = ExactMetadata("trivial", ell, m, k, exponents, recorded_answers=answers)
        graph = Graph.from_edges(2, [(0, 1)])
        terminals = TerminalPair(0, 1)
        node = "root"
        witness = TreeDecomposition(nodes=(node,), links=frozenset(),
                                    bags={node: frozenset({0, 1})})
        return ExactComposition(graph, terminals, meta, witness)

    if decompositions is None:
        decompositions = [None] * ell
    input_tds = [_input_decomposition(g, supplied)
                 for (g, _), supplied in zip(instances, decompositions)]

    chain, terminals, maps = chain_identify(instances)
    us, vs = (list(column) for column in chain.columns())
    next_vertex = chain.n
    bags: dict = {}  # in witness node order
    links: set[frozenset] = set()
    anchor = None
    for i, ((_, st), vmap, td) in enumerate(zip(instances, maps, input_tds, strict=True), 1):
        s_i, t_i = vmap[st.s], vmap[st.t]
        for node in td.nodes:
            bags[("g", i, node)] = frozenset(vmap[v] for v in td.bags[node]) | {t_i}
        links.update(frozenset(("g", i, node) for node in link) for link in td.links)
        previous, anchor = anchor, next(("g", i, node) for node in td.nodes
                                        if st.s in td.bags[node])
        if previous is not None:
            links.add(frozenset({previous, anchor}))
        # The long paths' vertices are numbered first, the short paths' after.
        longs = range(next_vertex, next_vertex + 3 * m * (i - 1), 3)
        shorts = range(longs.stop, longs.stop + m * (ell - i))
        next_vertex = shorts.stop
        for j, x in enumerate(shorts):
            us += [s_i, x]
            vs += [x, t_i]
            bags[("a", i, j)] = frozenset({s_i, x, t_i})
            links.add(frozenset({anchor, ("a", i, j)}))
        for j, x in enumerate(longs):
            y, z = x + 1, x + 2
            us += [s_i, x, y, z]
            vs += [x, y, z, t_i]
            a, b, c = ("A", i, j), ("B", i, j), ("C", i, j)
            bags[a] = frozenset({s_i, x, t_i})
            bags[b] = frozenset({x, y, t_i})
            bags[c] = frozenset({y, z, t_i})
            links.update((frozenset({anchor, a}), frozenset({a, b}), frozenset({b, c})))

    graph = Graph._from_columns(next_vertex, us, vs)
    meta = ExactMetadata("gadget", ell, m, k, exponents)
    witness = TreeDecomposition(nodes=tuple(bags), links=frozenset(links), bags=bags)
    check = validate_tree_decomposition(graph, witness)
    if not check.ok:
        raise RuntimeError(f"witness decomposition invalid: {check.violation}")
    bound = max(2, max(td.width for td in input_tds) + 1)
    if check.width > bound:
        raise RuntimeError(f"witness width {check.width} exceeds bound {bound}")
    return ExactComposition(graph, terminals, meta, witness)


def extract_counts(meta: ExactMetadata, composed_count: int) -> list[int]:
    """Recover all input counts from the composed count.

    Walks the exponents from the largest down, taking floor quotients.
    Each input has at most m/2 edges and cut size k, so its count is at
    most C(m/2, k); a larger quotient, a negative count or a nonzero
    final residue means the supplied count was wrong.  In the trivial
    branch the recorded answers are returned and the count is ignored.
    """
    if meta.branch == "trivial":
        if meta.recorded_answers is None:
            raise IntegrityError("trivial-branch metadata without recorded answers")
        return list(meta.recorded_answers)
    if composed_count < 0:
        raise IntegrityError("counts are nonnegative")
    remaining = composed_count
    out = [0] * meta.ell
    for i in range(meta.ell, 0, -1):
        out[i - 1] = remaining >> meta.exponents[i - 1]
        remaining -= out[i - 1] << meta.exponents[i - 1]
    if remaining:
        raise IntegrityError(f"extraction left a residue of {remaining.bit_length()} bits")
    worst = max(out)
    if exceeds_binomial(worst, meta.m // 2, meta.cut_size):
        raise IntegrityError(
            f"extracted an input count of {worst.bit_length()} bits, above "
            f"C({meta.m // 2}, {meta.cut_size}); corrupted count")
    return out

