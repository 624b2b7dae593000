"""Finite simple undirected graphs, graph-file I/O, and the gadget
transformations shared by the kernels and the cut compositions.

Vertices are dense 0-based indices.  The text file format is 1-based
(see ``parse_graph``).  ``parse_graph`` reads every source as a file,
once, in blocks of bytes decoded and read one at a time: each run of
``e`` lines in bulk, every other line by the record rules, and each
edge checked for range and self-loops as its block is read, and for
repeats once, by its vertices' degrees (``Graph.degrees``).  A ``Graph``
holds its edges as two endpoint columns, ``array('q')`` from the parse
and lists from most builders, and ``Graph.edges`` is built from them
only when something reads it: the #VC kernel's reduce never does (see
``Graph``).  ``serialize_graph`` writes the columns from one sort of
integer keys, formatted a slice at a time.  All types are immutable
values; every transformation returns a new graph together with explicit
provenance maps, so callers never rely on index arithmetic.  The one
exception, ``subdivide_all_edges``, keeps the old vertices' indices and
numbers the new ones by the rule its docstring states.
"""

from __future__ import annotations

import json
from array import array
from collections import Counter
from functools import cached_property
from io import BytesIO
from itertools import chain, repeat
from operator import eq, ge
from typing import BinaryIO, Iterable, Iterator, Mapping, NamedTuple, Sequence

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


# ``Graph.degrees`` keeps an ``array('i')``, counted in a list, while they
# take at most this many slots an edge, 32 bytes kept and 96 at the peak.
# Past that, as for ``e 1 1000000000000000``, a ``Counter`` keeps the count
# O(m), about 70 bytes for each of at most 2m endpoints, whatever the labels.
_SLOTS_PER_EDGE = 8


class Graph:
    """Simple undirected graph on vertices 0..n-1; immutable.

    Invariants enforced at construction: no self-loops, every endpoint
    below ``n``, no duplicate edges.  The edges are held as two endpoint
    columns (``columns``), whose range and self-loops every constructor
    checks once, in bulk (``_check``).  ``Graph(n, edges)`` takes a set
    of ordered pairs u < v and keeps it as ``edges``; ``from_edges``
    orders and merges its pairs first.  The parse and the builders hand
    over distinct pairs as columns only: the parse and the OCT-to-VC
    doubling (``compositions.two_copy_matching_graph``) as two
    ``array('q')``, 16 bytes an edge, the other builders as two lists, a
    list slot and often a boxed int an endpoint.  ``edges``, which ``==``,
    ``hash``, ``repr`` and the verification sweeps read, is built from
    them on its first read, O(m), and cached.  ``adjacency``,
    ``sorted_edges``, the reduces, the builders, the oracles and
    ``serialize_graph`` read the columns, so they never build a parsed
    host's edge set.  ``degrees`` is counted from the columns on its
    first read, O(m), and cached: the parse reads it for the repeats.
    """

    def __init__(self, n: int, edges: frozenset[Edge]):
        us = [u for u, _ in edges]
        vs = [v for _, v in edges]
        self._check(n, us, vs, ge)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_columns", (us, vs))
        object.__setattr__(self, "edges", edges)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: Graph is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: Graph is immutable")

    @staticmethod
    def _check(n: int, us: Sequence[int], vs: Sequence[int], misordered) -> None:
        """Raise ``ValueError`` for a negative n, or at the first edge
        out of range or ``misordered``: ``eq`` finds self-loops, ``ge``
        also pairs not ordered u < v.  Only a failing graph is searched."""
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        if us and (min(us) < 0 or min(vs) < 0 or max(us) >= n or max(vs) >= n
                   or any(map(misordered, us, vs))):
            u, v = next((u, v) for u, v in zip(us, vs)
                        if misordered(u, v) or not (0 <= u < n and 0 <= v < n))
            raise ValueError(f"self-loop at vertex {u}" if u == v
                             else f"edge ({u},{v}) out of range for n={n}")

    @classmethod
    def _checked(cls, n: int, columns: tuple[Sequence[int], Sequence[int]]) -> "Graph":
        """A graph on endpoint columns, in either orientation, that the
        caller has checked: distinct pairs below a nonnegative n.  The
        parse, the degree rule, the strip and the OCT-to-VC doubling call
        it, as does ``_from_columns`` after its check."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "_columns", columns)
        return g

    @classmethod
    def _from_columns(cls, n: int, us: Sequence[int], vs: Sequence[int]) -> "Graph":
        """The graph on the edges ``us[i]``-``vs[i]``, in either
        orientation, which the caller builds distinct.  It keeps the two
        columns it is given, lists or ``array('q')``, one entry of each
        an edge."""
        cls._check(n, us, vs, eq)
        return cls._checked(n, (us, vs))

    @classmethod
    def from_edges(cls, n: int, pairs: Iterable[Sequence[int]]) -> "Graph":
        return cls(n, frozenset(ordered(u, v) for u, v in pairs))

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n, frozenset())

    @cached_property
    def edges(self) -> frozenset[Edge]:
        us, vs = self._columns
        return frozenset([(u, v) if u < v else (v, u) for u, v in zip(us, vs)])

    def columns(self) -> tuple[Sequence[int], Sequence[int]]:
        """The edges as two endpoint columns: the i-th edge joins ``us[i]``
        and ``vs[i]``, in either order.  They are the columns the graph
        holds, which the caller must not change: ``array('q')`` for a
        parsed or doubled graph, lists for the other built ones.  So a
        caller that extends them copies them into lists first."""
        return self._columns

    @property
    def m(self) -> int:
        return len(self._columns[0])

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
        for u, v in zip(*self._columns):
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def degrees(self) -> Sequence[int]:
        """Each vertex's degree, indexed by vertex up to the largest
        endpoint, counted from the columns: an ``array('i')``, or, past
        ``_SLOTS_PER_EDGE`` slots an edge, a ``Counter``."""
        us, vs = self._columns
        top = max(max(us, default=-1), max(vs, default=-1)) + 1
        if top > _SLOTS_PER_EDGE * len(us):
            return Counter(chain(us, vs))
        # Counted in a list, which is indexed faster than an array.
        table = [0] * top
        for v in chain(us, vs):
            table[v] += 1
        return array("i", table)

    def vertices_above(self, bound: int) -> set[int]:
        degrees = self.degrees
        items = degrees.items() if isinstance(degrees, dict) else enumerate(degrees)
        return {v for v, d in items if d > bound}

    def degree(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise IndexError(f"vertex {v} out of range for n={self.n}")
        degrees = self.degrees
        return degrees[v] if isinstance(degrees, dict) or v < len(degrees) else 0

    def has_edge(self, u: int, v: int) -> bool:
        return ordered(u, v) in self.edges

    def sorted_edges(self) -> list[Edge]:
        return list(_sorted_pairs(self, 0))

    def isolated_vertices(self) -> list[int]:
        return [v for v in range(self.n) if not self.degree(v)]


class _TerminalFields(NamedTuple):
    s: int
    t: int


class TerminalPair(_TerminalFields):
    """Two distinct terminal vertices of an owning graph."""

    __slots__ = ()

    def __new__(cls, s: int, t: int):
        if s == t:
            raise ValueError("terminals must be distinct")
        if s < 0 or t < 0:
            raise ValueError("terminals must be nonnegative indices")
        return super().__new__(cls, s, t)

    def check_in(self, g: Graph) -> None:
        if self.s >= g.n or self.t >= g.n:
            raise ValueError(f"terminals ({self.s},{self.t}) out of range for n={g.n}")


class ParsedGraph(NamedTuple):
    """Result of parsing a graph file: graph plus optional records."""

    graph: Graph
    terminals: TerminalPair | None = None
    k: int | None = None


class TreeDecomposition(NamedTuple):
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


class TdCheck(NamedTuple):
    """Outcome of validating a tree decomposition."""

    ok: bool
    violation: str | None
    width: int


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------

# ``parse_graph`` reads its source in blocks of this many bytes, each
# cut after its last "\n" byte, which is never part of a multibyte UTF-8
# sequence, and decoded and read on its own: the file's bytes and its
# text are never whole.  A small block keeps each bulk run's lists small:
# on a 10^6-edge file the parse peaked at 109 MB with 64 KiB blocks,
# 139 MB with 1 MiB blocks and 141 MB with 4 MiB blocks.
_BLOCK = 1 << 16
# The line breaks ``str.splitlines`` honours besides "\n".  From the
# first block that holds any of them, each block is split by
# ``splitlines`` on its own; a block ends with its "\n", so the lines
# are numbered as splitlines numbers the whole file.
_OTHER_BREAKS = "\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
# The largest vertex label an ``e`` record may use: the parse keeps its
# endpoint columns as ``array('q')``.  A declared n may be any size.
_MAX_LABEL = (1 << 63) - 1
# ``serialize_graph`` formats a ``Graph``'s sorted keys this many at a
# time and frees each slice of keys once it is formatted, so that it
# never holds every edge's formatted endpoints at once.
_SLICE = 1 << 14


def parse_graph(source: str | bytes | BinaryIO) -> ParsedGraph:
    """Parse the graph file format, from its text, its bytes or a
    binary file object.

    One record per line: ``c <comment>``; ``p <n> <m>`` exactly once and
    first; ``e <u> <v>`` with 1-based endpoints, m times, each at most
    2^63 - 1; optional ``t <s> <t>``; optional ``k <value>``.  Blank
    lines are ignored.  The first fault in file order raises
    ``ParseError`` with its 1-based line number.

    Every source is read as a file: a text is encoded as UTF-8 and bytes
    are wrapped in a ``BytesIO``.  The file is read in blocks of
    ``_BLOCK`` bytes cut after their last "\\n" and decoded one at a time
    (``_blocks``).  In each block the lines from the first that starts
    with ``e `` to the last are read in bulk (``_Reader.bulk``); the lines
    around them, and all of them if the bulk read refuses the run, go
    through the record rules (``_Reader.record``).  From the first block
    that holds a line break other than "\\n", every block is split by
    ``splitlines`` and read by the record rules.  Each edge's range and
    self-loop are checked as its block is read, and repeats by the
    degrees of the edges read, at the end or before any later fault
    (``_Reader.graph``).  The ``Graph`` keeps those degrees and the two
    ``array('q')`` endpoint columns, 16 bytes an edge.
    """
    if isinstance(source, str):
        source = source.encode("utf-8")
    if isinstance(source, bytes):
        source = BytesIO(source)
    reader = _Reader()
    line = 1
    split = False
    try:
        for text in _blocks(source):
            split = split or any(c in text for c in _OTHER_BREAKS)
            if split:
                lines = text.splitlines()
                reader.lines(lines, line)
                line += len(lines)
            else:
                line = reader.chunk(text, line)
    except ValueError:
        reader.graph()
        raise
    return reader.finish(line - 1)


def _blocks(file: BinaryIO) -> Iterator[str]:
    """The text of a binary file, a block at a time: each ``_BLOCK`` bytes
    read are cut after their last "\\n", the bytes before the cut are
    decoded, and those after it start the next block.  No block is
    empty; only the last may end without a "\\n", and a file with no
    "\\n" is one block."""
    parts: list[bytes] = []
    while block := file.read(_BLOCK):
        cut = block.rfind(b"\n") + 1
        if cut:
            parts.append(block[:cut])
            yield b"".join(parts).decode("utf-8")
            parts = [block[cut:]]
        else:
            parts.append(block)
    tail = b"".join(parts)
    if tail:
        yield tail.decode("utf-8")


class _Reader:
    """One parse: the records read so far; the edges as 0-based endpoint
    columns, in file order; and ``runs``, by which a repeat is raised at
    its line: edge i is on line ``runs[s] + i - s``, s the largest key
    of ``runs`` up to i, each key the first edge after a break."""

    def __init__(self):
        self.n = self.m = self.terminals = self.k = None
        self.us = array("q")
        self.vs = array("q")
        self.runs: dict[int, int] = {}
        self.next_line = 0

    def chunk(self, text: str, line: int) -> int:
        """Read the "\\n"-separated lines of ``text``, the first numbered
        ``line``; a final "\\n" ends the last line.  Return the number of
        the line after them.  The text is read in place: only its run of
        ``e`` lines and the few lines around that run are copied out."""
        end = len(text) - text.endswith("\n")
        if text.startswith("e ", 0, end):
            first = 0
        else:
            first = text.find("\ne ", 0, end) + 1
            if not first:
                lines = text[:end].split("\n")
                self.lines(lines, line)
                return line + len(lines)
            self.lines(text[:first - 1].split("\n"), line)
        stop = text.find("\n", max(first, text.rfind("\ne ", 0, end) + 1), end)
        if stop < 0:
            stop = end
        run = text[first:stop]
        run_line = line + text.count("\n", 0, first)
        after = run_line + run.count("\n") + 1
        if not self.bulk(run, after - run_line, run_line):
            self.lines(run.split("\n"), run_line)
        if stop < end:
            self.lines(text[stop + 1:end].split("\n"), after)
        return after + text.count("\n", stop, end)

    def bulk(self, run: str, lines: int, line: int) -> bool:
        """Read ``run``, ``lines`` lines from one that starts with ``e ``
        to one that does, the first numbered ``line``, if a p record came
        before them and each line is ``e <u> <v>`` with integers
        1 <= u != v <= min(n, ``_MAX_LABEL``); otherwise read nothing and
        return False.

        A run with an ``e`` other than each line's first is refused at
        once.  Otherwise ``e `` and the spaces become commas and zeros of
        one JSON array, [0,u,v,0,u,v,...].  Its interior must be ASCII
        digits and commas, which ``json.loads`` reads as unsigned
        decimals with no leading zero and no empty field.  With 3 values
        a line, a zero at every third and the endpoints in range, every
        line is ``e <u> <v>`` exactly as the record rules read it.  Range
        and self-loops are checked on the columns.
        """
        n = self.n
        if n is None or run.count("e") != lines:
            return False
        body = run[2:].replace("\ne ", ",0,").replace(" ", ",")
        if not body.isascii() or body.encode("ascii").translate(None, b"0123456789,"):
            return False
        try:
            values = json.loads("[0," + body + "]")
        except ValueError:
            return False
        if len(values) != 3 * lines or any(values[0::3]):
            return False
        us, vs = values[1::3], values[2::3]
        top = min(n, _MAX_LABEL)
        if min(us) < 1 or min(vs) < 1 or max(us) > top or max(vs) > top or any(map(eq, us, vs)):
            return False
        self.place(line, lines)
        self.us.fromlist([u - 1 for u in us])
        self.vs.fromlist([v - 1 for v in vs])
        return True

    def place(self, line: int, count: int) -> None:
        """Map the next ``count`` edges to the lines from ``line`` on."""
        if line != self.next_line:
            self.runs[len(self.us)] = line
        self.next_line = line + count

    def lines(self, lines: Iterable[str], line: int) -> None:
        for line_no, raw in enumerate(lines, start=line):
            self.record(line_no, raw)

    def record(self, line_no: int, raw: str) -> None:
        """The record rules: one line checked and read."""
        line = raw.strip()
        if not line or line.startswith("c"):
            return
        kind, *rest = line.split()
        n = self.n
        if kind == "p":
            if n is not None:
                raise ParseError(line_no, "duplicate p record")
            n, m = self.ints(rest, 2, line_no)
            if n < 0 or m < 0:
                raise ParseError(line_no, "negative counts in p record")
            self.n, self.m = n, m
        elif n is None:
            raise ParseError(line_no, f"record '{kind}' before p record")
        elif kind == "e":
            u, v = self.ints(rest, 2, line_no)
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(line_no, f"endpoint out of range 1..{n}")
            if u == v:
                raise ParseError(line_no, f"self-loop at vertex {u}")
            if max(u, v) > _MAX_LABEL:
                raise ParseError(line_no, f"endpoint above {_MAX_LABEL}, the largest label")
            self.place(line_no, 1)
            self.us.append(u - 1)
            self.vs.append(v - 1)
        elif kind == "t":
            s, t = self.ints(rest, 2, line_no)
            if not (1 <= s <= n and 1 <= t <= n):
                raise ParseError(line_no, f"terminal out of range 1..{n}")
            if s == t:
                raise ParseError(line_no, "terminals must be distinct")
            self.terminals = TerminalPair(s - 1, t - 1)
        elif kind == "k":
            (value,) = self.ints(rest, 1, line_no)
            if value < 0:
                raise ParseError(line_no, "parameter must be nonnegative")
            self.k = value
        else:
            raise ParseError(line_no, f"unknown record type '{kind}'")

    @staticmethod
    def ints(parts: list[str], want: int, line: int) -> list[int]:
        if len(parts) != want:
            raise ParseError(line, f"expected {want} fields, got {len(parts)}")
        try:
            return [int(p) for p in parts]
        except ValueError:
            raise ParseError(line, f"non-integer field in {parts!r}") from None

    def graph(self) -> Graph:
        """The graph of the edges read so far, or ``ParseError`` at the
        line of the first that repeats an earlier one.  Both ends of a
        repeat have degree 2 or more (``Graph.degrees``), so only the edges
        between two such vertices get a key, u*n + v with u < v: on a
        hub-and-leaf host, the core's edges alone."""
        us, vs, n = self.us, self.vs, self.n
        graph = Graph._checked(n, (us, vs))
        many = graph.vertices_above(1)
        keys = [u * n + v if u < v else v * n + u
                for u, v in zip(us, vs) if u in many and v in many]
        if len(set(keys)) == len(keys):
            return graph
        seen = set()
        for i, (u, v) in enumerate(zip(us, vs)):
            if u in many and v in many:
                key = u * n + v if u < v else v * n + u
                if key in seen:
                    run = max(start for start in self.runs if start <= i)
                    raise ParseError(self.runs[run] + i - run, f"duplicate edge {u + 1} {v + 1}")
                seen.add(key)

    def finish(self, last_line: int) -> ParsedGraph:
        """The parsed file, once its last line, numbered ``last_line``, is read."""
        if self.n is None:
            raise ParseError(max(last_line, 1), "missing p record")
        graph = self.graph()
        if len(self.us) != self.m:
            raise ParseError(max(last_line, 1),
                             f"p record declares {self.m} edges, found {len(self.us)}")
        return ParsedGraph(graph, self.terminals, self.k)


def serialize_graph(g: Graph, terminals: TerminalPair | None = None,
                    k: int | None = None, comment: str | None = None) -> str:
    """Write the file format read by ``parse_graph``, one record a line.

    The bytes are fixed by the arguments: a ``c <line>`` record for
    each line of ``comment``, then ``p <n> <m>``, then one
    ``e <u> <v>`` per edge with 1-based endpoints u < v, in increasing
    (u, v) order, then ``t <s> <t>`` if ``terminals`` is given and
    ``k <value>`` if ``k`` is, each line ending in a newline.  A
    negative ``k`` or a terminal outside 0..n-1, which ``parse_graph``
    refuses, raises ``ValueError`` before anything is written.

    A ``Graph``'s edges are read from its columns, so its edge set is
    not built: one list of integer keys, sorted in decreasing order, is
    cut ``_SLICE`` keys at a time off its end, and each slice is split
    into its 1-based endpoints and formatted by one ``%`` over an
    ``e %d %d`` template.  Besides the text, the writer holds a boxed
    key an edge, fewer as the text grows, and one slice's endpoints.

    Any other ``g`` has ``n``, ``m`` and ``rows()``: each vertex u with
    a higher neighbour, in increasing u, with the 1-based decimal labels
    of those neighbours in increasing order.  The #VC kernel's
    ``PaddedBlowup`` writes its rows from its core and never builds its
    edge set.
    """
    if k is not None and k < 0:
        raise ValueError(f"parameter k = {k} must be nonnegative")
    if terminals is not None:
        terminals.check_in(g)
    lines = [f"c {part}" for part in comment.splitlines()] if comment else []
    lines.append(f"p {g.n} {g.m}")
    if isinstance(g, Graph):
        keys, base = _edge_keys(g, 1)
        keys.sort(reverse=True)
        template = None
        while keys:
            part = keys[-_SLICE:]
            del keys[-_SLICE:]
            part.reverse()
            if template is None or len(part) < _SLICE:
                template = "\n".join(["e %d %d"] * len(part))
            lines.append(template % tuple(chain.from_iterable(map(divmod, part, repeat(base)))))
    else:
        for u, labels in g.rows():
            pre = f"e {u + 1} "
            lines.append(pre + ("\n" + pre).join(labels))
    if terminals is not None:
        lines.append(f"t {terminals.s + 1} {terminals.t + 1}")
    if k is not None:
        lines.append(f"k {k}")
    lines.append("")
    return "\n".join(lines)


def _edge_keys(g: Graph, first: int) -> tuple[list[int], int]:
    """The edges' keys, in column order, and their base: edge u-v, u < v,
    has key (u + first) * base + v + first, which ``divmod`` by base
    splits back into its endpoints; distinct edges have distinct keys."""
    base = g.n + first
    shift = first * (base + 1)
    return [u * base + v + shift if u < v else v * base + u + shift
            for u, v in zip(*g.columns())], base


def _sorted_pairs(g: Graph, first: int) -> Iterable[Edge]:
    """The edges as pairs (u + first, v + first), u < v, in increasing
    order: the ``divmod`` pairs of one sorted list of integer keys."""
    keys, base = _edge_keys(g, first)
    keys.sort()
    return map(divmod, keys, repeat(base))


# ---------------------------------------------------------------------------
# Transformations
# ---------------------------------------------------------------------------

def subdivide_all_edges(g: Graph) -> Graph:
    """Subdivide every edge once: the graph on n+m vertices in which the
    originals keep their indices and the i-th edge (u, v), u < v, in
    sorted order becomes the path u-(n+i)-v.  Its endpoint columns hold
    u-(n+i) at index i and v-(n+i) at index m+i: two lists of 2m
    entries."""
    pairs = list(_sorted_pairs(g, 0))
    subdivision = range(g.n, g.n + g.m)
    us = [u for u, _ in pairs] + [v for _, v in pairs]
    return Graph._from_columns(g.n + g.m, us, [*subdivision, *subdivision])


def false_twin_blowup(g: Graph, targets: Iterable[int],
                      copies: int) -> tuple[Graph, dict[int, tuple[int, ...]]]:
    """Replace each target vertex by ``copies`` pairwise non-adjacent twins.

    Each twin inherits exactly the target's neighborhood.  Rejects
    adjacent targets: copy-to-copy adjacency would be ambiguous there.
    Returns the new graph and the map from every original vertex to its
    copy tuple (singleton for non-targets).  The new graph holds
    endpoint columns: each edge has at most one target end, so its
    copies are distinct pairs, appended as two column runs.
    """
    target_set = set(targets)
    if copies <= 0:
        raise ValueError("copies must be positive")
    for v in target_set:
        if not 0 <= v < g.n:
            raise ValueError(f"target {v} out of range")

    copy_of: dict[int, tuple[int, ...]] = {}
    next_index = 0
    for v in range(g.n):
        width = copies if v in target_set else 1
        copy_of[v] = tuple(range(next_index, next_index + width))
        next_index += width
    us: list[int] = []
    vs: list[int] = []
    for u, v in zip(*g.columns()):
        if u in target_set and v in target_set:
            raise BlowupError(f"targets {u} and {v} are adjacent")
        cu, cv = copy_of[u], copy_of[v]
        us += cu * len(cv)
        vs += cv * len(cu)
    return Graph._from_columns(next_index, us, vs), copy_of


def chain_identify(instances: Sequence[tuple[Graph, TerminalPair]],
                   ) -> tuple[Graph, TerminalPair, list[dict[int, int]]]:
    """Glue instances into a chain by identifying t_i with s_{i+1}.

    Returns the chained graph, the terminal pair (s of the first input,
    t of the last), and one vertex map per input.  Each input shares at
    most one vertex with the chain before it, so its relabelled edges
    are new, and they are appended to the endpoint columns as they are.
    """
    if not instances:
        raise ValueError("need at least one instance")
    for g, st in instances:
        st.check_in(g)
    maps: list[dict[int, int]] = []
    us: list[int] = []
    vs: list[int] = []
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
        gu, gv = g.columns()
        us += map(vmap.__getitem__, gu)
        vs += map(vmap.__getitem__, gv)
        maps.append(vmap)
        prev_t_image = vmap[st.t]
    s = maps[0][instances[0][1].s]
    t = maps[-1][instances[-1][1].t]
    return Graph._from_columns(next_index, us, vs), TerminalPair(s, t), maps


# ---------------------------------------------------------------------------
# Structure checks
# ---------------------------------------------------------------------------

def connected_components(g: Graph) -> list[set[int]]:
    seen: set[int] = set()
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
    pairs = [(vmap[u], vmap[v]) for u, v in zip(*g.columns()) if u in vmap and v in vmap]
    return Graph._from_columns(len(kept), [u for u, _ in pairs], [v for _, v in pairs]), vmap


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
