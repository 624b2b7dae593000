"""Finite simple undirected graphs, graph-file I/O, and the gadget
transformations shared by the kernels and the cut compositions.

Vertices are dense 0-based indices.  The text file format is 1-based
(see ``parse_graph``).  ``parse_graph`` reads a file laid out the way
``serialize_graph`` writes it in bulk, and any other file line by line;
the two paths agree on every text, and each checks every edge once.
The bulk path keeps the edges as the two endpoint columns it read, and
``Graph.edges`` is built from them only when something reads it: the
#VC kernel's reduce never does (see ``Graph``).  All types are
immutable values; every transformation returns a new graph together
with explicit provenance maps, so callers never rely on index
arithmetic.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from operator import eq
from typing import Iterable, Mapping, Sequence

Edge = tuple[int, int]


class ParseError(ValueError):
    """Malformed graph file; carries the 1-based offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class BlowupError(ValueError):
    """Raised when a false-twin blow-up is requested for adjacent targets."""


def ordered(u: int, v: int) -> Edge:
    """Normalize an edge to (min, max) form."""
    return (u, v) if u < v else (v, u)


class Graph:
    """Simple undirected graph on vertices 0..n-1.

    Invariants enforced at construction: no self-loops, every endpoint
    below ``n``.  Duplicate edges cannot be represented (``edges`` is a
    set of normalized pairs).  A graph is immutable.

    A graph holds its edges in one of two forms behind one API.
    ``Graph(n, edges)`` holds the set, and derives the two endpoint
    columns (``columns``) from it when they are asked for.  The bulk
    parse, the degree rule and the isolated-vertex strip build graphs
    that hold only the columns, and ``edges`` builds the set of ordered
    pairs from them on its first read, O(m), and caches it.  The #VC
    reduce reads only the columns, so it never builds a parsed host's
    edge set.  ``m`` is O(1) in both forms.  ``==``, ``hash`` and
    ``repr`` read ``edges``, so the two forms of one graph are equal
    and hash alike.
    """

    def __init__(self, n: int, edges: frozenset[Edge]):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_columns", None)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: Graph is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: Graph is immutable")

    @classmethod
    def _checked(cls, n: int, edges: frozenset[Edge] | None = None,
                 columns: tuple[list[int], list[int]] | None = None) -> "Graph":
        """A graph whose edges the caller has already checked: distinct
        pairs below a nonnegative n, given as a set of pairs u < v or as
        endpoint columns in either orientation.  Only ``parse_graph``,
        which checks a file's edges once as it reads them, and the
        degree rule and the strip, which renumber checked edges, call
        it."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        if edges is not None:
            object.__setattr__(g, "edges", edges)
        object.__setattr__(g, "_columns", columns)
        return g

    @classmethod
    def from_edges(cls, n: int, pairs: Iterable[Sequence[int]]) -> "Graph":
        return cls(n, frozenset(ordered(u, v) for u, v in pairs))

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n, frozenset())

    @cached_property
    def edges(self) -> frozenset[Edge]:
        # Only a column-backed graph gets here; the set form holds its edges.
        us, vs = self._columns
        return frozenset([(u, v) if u < v else (v, u) for u, v in zip(us, vs)])

    def columns(self) -> tuple[list[int], list[int]]:
        """The edges as two endpoint lists: the i-th edge joins ``us[i]``
        and ``vs[i]``, in either order.  A column-backed graph returns
        the lists it holds, which the caller must not change; a graph
        built from a set derives them from ``edges``, O(m), on each
        call."""
        if self._columns is not None:
            return self._columns
        return [u for u, _ in self.edges], [v for _, v in self.edges]

    @property
    def m(self) -> int:
        return len(self._columns[0]) if self._columns is not None else len(self.edges)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"{type(self).__qualname__}(n={self.n!r}, edges={self.edges!r})"

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(a)) for a in adj)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return ordered(u, v) in self.edges

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)

    def rows(self):
        """Each vertex u with a higher neighbour, in increasing u, with
        the 1-based decimal labels of those neighbours in increasing
        order: the ``e`` records of ``serialize_graph`` by lower endpoint.

        Each row is sorted on its own, so rows in increasing u give the
        order of ``sorted(self.edges)`` without comparing tuples.
        """
        grouped: defaultdict[int, list[int]] = defaultdict(list)
        for u, v in self.edges:
            grouped[u].append(v)
        for u in sorted(grouped):
            row = grouped[u]
            row.sort()
            yield u, [str(v + 1) for v in row]

    def isolated_vertices(self) -> list[int]:
        return [v for v in range(self.n) if not self.adjacency[v]]


@dataclass(frozen=True)
class TerminalPair:
    """Two distinct terminal vertices of an owning graph."""

    s: int
    t: int

    def __post_init__(self):
        if self.s == self.t:
            raise ValueError("terminals must be distinct")
        if self.s < 0 or self.t < 0:
            raise ValueError("terminals must be nonnegative indices")

    def check_in(self, g: Graph) -> None:
        if self.s >= g.n or self.t >= g.n:
            raise ValueError(f"terminals ({self.s},{self.t}) out of range for n={g.n}")


@dataclass(frozen=True)
class ParsedGraph:
    """Result of parsing a graph file: graph plus optional records."""

    graph: Graph
    terminals: TerminalPair | None = None
    k: int | None = None


@dataclass(frozen=True, eq=False)
class TreeDecomposition:
    """Tree of bags over the vertices of a decomposed graph.

    ``links`` are unordered pairs of node ids; ``bags`` maps every node
    id to a vertex subset, given as a collection of hashable members in
    which a repeat counts once.  Validity is checked by
    ``validate_tree_decomposition``, never assumed.
    """

    nodes: tuple
    links: frozenset[frozenset]
    bags: Mapping

    @property
    def width(self) -> int:
        return max((len(frozenset(b)) for b in self.bags.values()), default=0) - 1

    def to_jsonable(self) -> dict:
        node_ix = {node: i for i, node in enumerate(self.nodes)}
        return {
            "nodes": [repr(node) for node in self.nodes],
            "links": sorted(sorted(node_ix[x] for x in link) for link in self.links),
            "bags": [sorted(self.bags[node]) for node in self.nodes],
        }


@dataclass(frozen=True)
class TdCheck:
    """Outcome of validating a tree decomposition."""

    ok: bool
    violation: str | None
    width: int


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------

# The bulk path reads the ``e`` block a chunk at a time, each chunk cut
# at the first line break after this many characters (about 80,000
# lines): one ``split()`` of a whole 10^6-edge file costs more memory
# than the edge set it yields.
_BULK_CHUNK = 1 << 20
# The line breaks ``str.splitlines`` honours besides "\n".  Any of them
# sends a file to the line loop, which counts lines by them.
_OTHER_BREAKS = "\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def parse_graph(text: str | bytes) -> ParsedGraph:
    """Parse the graph file format.

    One record per line: ``c <comment>``; ``p <n> <m>`` exactly once and
    first; ``e <u> <v>`` with 1-based endpoints, m times; optional
    ``t <s> <t>``; optional ``k <value>``.  Blank lines are ignored.

    Two paths read the same format and agree: equal results, and the
    same ``ParseError`` for every fault.  A file laid out the way
    ``serialize_graph`` writes it is read in bulk, a chunk of ``e``
    lines at a time (``_parse_bulk``).  Any other text, and any file
    the bulk path finds a fault in, is read by the line loop
    (``_parse_lines``), which raises ``ParseError`` with the offending
    line.  Both paths check each edge once, as they read it, and build
    the ``Graph`` without checking its edges again: the bulk path from
    its endpoint columns, whose edge set is built on first read, and the
    line loop from the edge set it collected.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    parsed = _parse_bulk(text)
    return parsed if parsed is not None else _parse_lines(text)


def _parse_bulk(text: str) -> ParsedGraph | None:
    """The file read in bulk, or None when the bulk path cannot vouch
    for it.

    It reads text laid out as ``serialize_graph`` writes it: ``c``
    lines, ``p n m``, the ``e`` block, then at most one ``t`` and one
    ``k`` line, each line ending in a newline except perhaps the last.
    Each chunk of the ``e`` block is ``split()`` once.  Every line of
    it starts with ``e`` and a space, and the chunk holds three tokens
    a line; the second and third columns are converted with ``int``,
    which refuses ``e``, so the lines start exactly at every third
    token and each is ``e <u> <v>``, split as the line loop splits it.
    Range and self-loops are checked on the columns, the count by their
    length, and duplicates by the size of a set of canonical int keys
    u*n + v, u < v, dropped once checked.  Anything else returns None, so
    the line loop reparses the file and reports the fault with its
    line number.
    """
    if any(c in text for c in _OTHER_BREAKS):
        return None
    start = 0
    while text.startswith("c", start):
        start = text.find("\n", start) + 1
        if not start:
            return None
    p_end = text.find("\n", start)
    if p_end < 0:
        p_end = len(text)
    head = text[start:p_end].split()
    if len(head) != 3 or head[0] != "p":
        return None
    try:
        n, m = int(head[1]), int(head[2])
    except ValueError:
        return None
    if n < 0 or m < 0:
        return None

    # The t and k lines, read from the end back to the e block.
    tail: dict[str, list[str]] = {}
    end = len(text) - text.endswith("\n")
    while end > p_end:
        cut = text.rfind("\n", p_end, end)
        line = text[cut + 1:end]
        if line[:2] not in ("t ", "k ") or line[0] in tail:
            break
        tail[line[0]] = line.split()
        end = cut
    terminals = k = None
    try:
        if "t" in tail:
            _, s, t = tail["t"]
            s, t = int(s), int(t)
            if not (1 <= s <= n and 1 <= t <= n) or s == t:
                return None
            terminals = TerminalPair(s - 1, t - 1)
        if "k" in tail:
            _, k = tail["k"]
            k = int(k)
            if k < 0:
                return None
    except ValueError:  # a wrong field count or a field that is not an integer
        return None

    us: list[int] = []
    vs: list[int] = []
    pos = p_end + 1
    while pos < end:
        cut = text.find("\n", pos + _BULK_CHUNK, end)
        if cut < 0:
            cut = end
        chunk = _edge_chunk(text[pos:cut], n)
        if chunk is None:
            return None
        us += chunk[0]
        vs += chunk[1]
        pos = cut + 1
    if len(us) != m:
        return None
    if len({u * n + v if u < v else v * n + u for u, v in zip(us, vs)}) != m:
        return None  # a duplicate edge
    return ParsedGraph(Graph._checked(n, columns=(us, vs)), terminals, k)


def _edge_chunk(chunk: str, n: int) -> tuple[list[int], list[int]] | None:
    """The 0-based endpoint columns of a chunk of ``e`` lines, in file
    order, or None if a line is not ``e <u> <v>``, an endpoint is not
    an integer in 1..n or an edge is a self-loop."""
    lines = chunk.count("\n") + 1
    if not chunk.startswith("e ") or chunk.count("\ne ") != lines - 1:
        return None
    tokens = chunk.split()
    if len(tokens) != 3 * lines:
        return None
    try:
        us = list(map(int, tokens[1::3]))
        vs = list(map(int, tokens[2::3]))
    except ValueError:
        return None
    if min(us) < 1 or min(vs) < 1 or max(us) > n or max(vs) > n or any(map(eq, us, vs)):
        return None
    return [u - 1 for u in us], [v - 1 for v in vs]


def _parse_lines(text: str) -> ParsedGraph:
    """The line loop: every record checked as it is read, and the first
    fault raised as a ``ParseError`` with its 1-based line number."""
    n = None
    declared_m = 0
    edges: set[Edge] = set()
    terminals: TerminalPair | None = None
    k: int | None = None
    last_line = 0

    def ints(parts: list[str], want: int, line: int) -> list[int]:
        if len(parts) != want:
            raise ParseError(line, f"expected {want} fields, got {len(parts)}")
        try:
            return [int(p) for p in parts]
        except ValueError:
            raise ParseError(line, f"non-integer field in {parts!r}") from None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        last_line = line_no
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        kind, *rest = line.split()
        if kind == "p":
            if n is not None:
                raise ParseError(line_no, "duplicate p record")
            n, declared_m = ints(rest, 2, line_no)
            if n < 0 or declared_m < 0:
                raise ParseError(line_no, "negative counts in p record")
            continue
        if n is None:
            raise ParseError(line_no, f"record '{kind}' before p record")
        if kind == "e":
            u, v = ints(rest, 2, line_no)
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(line_no, f"endpoint out of range 1..{n}")
            if u == v:
                raise ParseError(line_no, f"self-loop at vertex {u}")
            e = ordered(u - 1, v - 1)
            if e in edges:
                raise ParseError(line_no, f"duplicate edge {u} {v}")
            edges.add(e)
        elif kind == "t":
            s, t = ints(rest, 2, line_no)
            if not (1 <= s <= n and 1 <= t <= n):
                raise ParseError(line_no, f"terminal out of range 1..{n}")
            if s == t:
                raise ParseError(line_no, "terminals must be distinct")
            terminals = TerminalPair(s - 1, t - 1)
        elif kind == "k":
            (value,) = ints(rest, 1, line_no)
            if value < 0:
                raise ParseError(line_no, "parameter must be nonnegative")
            k = value
        else:
            raise ParseError(line_no, f"unknown record type '{kind}'")

    if n is None:
        raise ParseError(max(last_line, 1), "missing p record")
    if len(edges) != declared_m:
        raise ParseError(max(last_line, 1),
                         f"p record declares {declared_m} edges, found {len(edges)}")
    return ParsedGraph(Graph._checked(n, frozenset(edges)), terminals, k)


def serialize_graph(g: Graph, terminals: TerminalPair | None = None,
                    k: int | None = None, comment: str | None = None) -> str:
    """Write the file format read by ``parse_graph``, one record a line.

    The bytes are fixed by the arguments: a ``c <line>`` record for
    each line of ``comment``, then ``p <n> <m>``, then one
    ``e <u> <v>`` per edge with 1-based endpoints u < v, in increasing
    (u, v) order, then ``t <s> <t>`` if ``terminals`` is given and
    ``k <value>`` if ``k`` is, each line ending in a newline.

    The edges come from ``g.rows()``.  ``g`` is a ``Graph``, or any
    value with ``n``, ``m`` and rows like ``Graph.rows``, such as the
    #VC kernel's ``PaddedBlowup``, which writes its rows from its core
    and never builds its edge set.
    """
    lines = []
    if comment:
        lines.extend(f"c {part}" for part in comment.splitlines())
    lines.append(f"p {g.n} {g.m}")
    for u, labels in g.rows():
        pre = f"e {u + 1} "
        lines.append(pre + ("\n" + pre).join(labels))
    if terminals is not None:
        lines.append(f"t {terminals.s + 1} {terminals.t + 1}")
    if k is not None:
        lines.append(f"k {k}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Transformations
# ---------------------------------------------------------------------------

def subdivide_all_edges(g: Graph) -> tuple[Graph, dict[Edge, int]]:
    """Subdivide every edge once.

    Returns the new graph on n+m vertices (originals keep their indices)
    and the map from each original edge to its subdivision vertex.
    """
    edge_vertex: dict[Edge, int] = {}
    new_edges: set[Edge] = set()
    next_index = g.n
    for u, v in g.sorted_edges():
        a = next_index
        next_index += 1
        edge_vertex[(u, v)] = a
        new_edges.add(ordered(u, a))
        new_edges.add(ordered(v, a))
    return Graph(g.n + g.m, frozenset(new_edges)), edge_vertex


def false_twin_blowup(g: Graph, targets: Iterable[int],
                      copies: int) -> tuple[Graph, dict[int, tuple[int, ...]]]:
    """Replace each target vertex by ``copies`` pairwise non-adjacent twins.

    Each twin inherits exactly the target's neighborhood.  Rejects
    adjacent targets: copy-to-copy adjacency would be ambiguous there.
    Returns the new graph and the map from every original vertex to its
    copy tuple (singleton for non-targets).
    """
    target_set = set(targets)
    if copies <= 0:
        raise ValueError("copies must be positive")
    for v in target_set:
        if not 0 <= v < g.n:
            raise ValueError(f"target {v} out of range")
    for u, v in g.edges:
        if u in target_set and v in target_set:
            raise BlowupError(f"targets {u} and {v} are adjacent")

    copy_of: dict[int, tuple[int, ...]] = {}
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


def chain_identify(instances: Sequence[tuple[Graph, TerminalPair]],
                   ) -> tuple[Graph, TerminalPair, list[dict[int, int]]]:
    """Glue instances into a chain by identifying t_i with s_{i+1}.

    Returns the chained graph, the terminal pair (s of the first input,
    t of the last), and one vertex map per input.
    """
    if not instances:
        raise ValueError("need at least one instance")
    for g, st in instances:
        st.check_in(g)
    maps: list[dict[int, int]] = []
    edges: set[Edge] = set()
    next_index = 0
    prev_t_image: int | None = None
    for g, st in instances:
        vmap: dict[int, int] = {}
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


# ---------------------------------------------------------------------------
# Structure checks
# ---------------------------------------------------------------------------

def is_bipartite(g: Graph) -> tuple[bool, tuple]:
    """2-colorability test with an independently checkable witness.

    Returns ``(True, ("coloring", colors))`` with one color per vertex,
    or ``(False, ("odd_closed_walk", walk))`` where ``walk`` is a closed
    walk with an odd number of edges.
    """
    color = [-1] * g.n
    parent = [-1] * g.n
    adj = g.adjacency
    for root in range(g.n):
        if color[root] != -1:
            continue
        color[root] = 0
        queue = [root]
        while queue:
            u = queue.pop()
            for v in adj[u]:
                if color[v] == -1:
                    color[v] = 1 - color[u]
                    parent[v] = u
                    queue.append(v)
                elif color[v] == color[u]:
                    walk = _odd_walk(u, v, parent)
                    return False, ("odd_closed_walk", tuple(walk))
    return True, ("coloring", tuple(color))


def _odd_walk(u: int, v: int, parent: list[int]) -> list[int]:
    # Join the two tree paths to the root; parity of the colors makes the
    # resulting closed walk odd.
    up, vp = [u], [v]
    while parent[up[-1]] != -1:
        up.append(parent[up[-1]])
    while parent[vp[-1]] != -1:
        vp.append(parent[vp[-1]])
    return list(reversed(up)) + vp


def connected_components(g: Graph, removed: frozenset[int] = frozenset()) -> list[set[int]]:
    seen: set[int] = set(removed)
    comps = []
    adj = g.adjacency
    for start in range(g.n):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        seen.add(start)
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    comp.add(v)
                    stack.append(v)
        comps.append(comp)
    return comps


def induced_subgraph(g: Graph, keep: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Subgraph induced by ``keep``; returns the map old index -> new index."""
    kept = sorted(set(keep))
    vmap = {v: i for i, v in enumerate(kept)}
    edges = frozenset(ordered(vmap[u], vmap[v])
                      for u, v in g.edges if u in vmap and v in vmap)
    return Graph(len(kept), edges), vmap


def validate_tree_decomposition(g: Graph, td: TreeDecomposition) -> TdCheck:
    """Check both decomposition conditions and that the tree is a tree.

    Violations are reported as return values (first one found), not
    raised, in this order: node ids, links, the tree's connectivity,
    bag members, edges of ``g`` in sorted order, then each vertex in
    order (in some bag, and its bags connected).  A bag member is a
    vertex only if it is an ``int`` in ``range(g.n)``: ``True``, ``1.0``
    and ``"1"`` are violations, not vertex 1.  A bag may be any
    collection of hashable members, and a repeat counts once.

    One pass over the bags lists each vertex's holders, the nodes whose
    bag holds it.  An edge is looked up in the bags of the holders of
    whichever endpoint has fewer.  By then the tree is known to be a
    tree, so the holders of v induce a forest in it, and a forest is
    connected iff it has one link fewer than it has nodes.  One pass
    over the links, counting for each v the links whose two bags both
    hold it, therefore settles every vertex without a search.

    Cost: O(n + sum |bag|) for the bags, links and vertices (a link
    costs the size of its smaller bag; charged to its child bag in the
    rooted tree, that sums to at most sum |bag|), plus, per edge, the
    holder count of its rarer endpoint, plus ``Graph.sorted_edges``.
    """
    width = td.width
    nodes = list(td.nodes)
    if not nodes:
        return TdCheck(False, "decomposition has no nodes", width)
    index = {node: i for i, node in enumerate(nodes)}
    if len(index) != len(nodes):
        return TdCheck(False, "duplicate node ids", width)
    if set(td.bags) != index.keys():
        return TdCheck(False, "bags do not match the node set", width)

    adj: dict = {node: [] for node in nodes}
    for link in td.links:
        pair = list(link)
        if len(pair) != 2 or any(x not in index for x in pair):
            return TdCheck(False, f"bad tree edge {pair}", width)
        a, b = pair
        adj[a].append(b)
        adj[b].append(a)
    if len(td.links) != len(nodes) - 1:
        return TdCheck(False, "tree edge count is not node count minus one", width)
    seen = {nodes[0]}
    stack = [nodes[0]]
    while stack:
        for b in adj[stack.pop()]:
            if b not in seen:
                seen.add(b)
                stack.append(b)
    if len(seen) != len(nodes):
        return TdCheck(False, "tree is not connected", width)

    bags: list[frozenset] = []
    holders: list[list[int]] = [[] for _ in range(g.n)]
    for i, node in enumerate(nodes):
        for v in td.bags[node]:
            if type(v) is not int or not 0 <= v < g.n:  # bool is a subclass of int
                return TdCheck(False, f"bag of {node!r} references vertex {v}", width)
        bag = frozenset(td.bags[node])
        bags.append(bag)
        for v in bag:
            holders[v].append(i)
    for u, v in g.sorted_edges():
        rare, other = (u, v) if len(holders[u]) <= len(holders[v]) else (v, u)
        if not any(other in bags[i] for i in holders[rare]):
            return TdCheck(False, f"edge ({u},{v}) is in no bag", width)
    shared = [0] * g.n
    for link in td.links:
        a, b = (bags[index[x]] for x in link)
        if len(b) < len(a):
            a, b = b, a
        for v in a:
            if v in b:
                shared[v] += 1
    for v in range(g.n):
        if not holders[v]:
            return TdCheck(False, f"vertex {v} is in no bag", width)
        if shared[v] != len(holders[v]) - 1:
            return TdCheck(False, f"bags containing vertex {v} are disconnected", width)
    return TdCheck(True, None, width)
