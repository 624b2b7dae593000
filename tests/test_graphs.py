import io
import random
import re
import tracemalloc
from array import array
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from countkernel import graphs
from countkernel.graphs import (
    ParsedGraph,
    BlowupError,
    Graph,
    ParseError,
    TdCheck,
    TerminalPair,
    TreeDecomposition,
    chain_identify,
    false_twin_blowup,
    ordered,
    parse_graph,
    serialize_graph,
    subdivide_all_edges,
    validate_tree_decomposition,
)
from countkernel.compositions import exact_compose, group_by_min_cut
from countkernel.framework import CountingInstance
from countkernel.oracles import count_odd_cycle_transversals, random_graph
from countkernel.vc_kernel import PaddedBlowup, buss_reduce, reduce_vertex_cover
from countkernel.verification import cut_instance_pool, graph_corpus

K3 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
PATH3 = Graph.from_edges(3, [(0, 1), (1, 2)])


def test_graph_rejects_self_loops_and_out_of_range():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(2, frozenset({(0, 2)}))


def test_parse_single_edge():
    parsed = parse_graph("p 2 1\ne 1 2")
    assert parsed.graph == Graph.from_edges(2, [(0, 1)])
    assert parsed.terminals is None and parsed.k is None


def test_parse_triangle_with_budget():
    parsed = parse_graph("p 3 3\ne 1 2\ne 2 3\ne 1 3\nk 2")
    assert parsed.graph == K3
    assert parsed.k == 2


def test_parse_terminals():
    parsed = parse_graph("p 3 2\ne 1 2\ne 2 3\nt 1 3")
    assert parsed.graph == PATH3
    assert parsed.terminals == TerminalPair(0, 2)


@pytest.mark.parametrize("text,line", [
    ("p 2 1\ne 1", 2),
    ("p 2 1\ne 1 3", 2),
    ("p 3 2\ne 1 2\ne 1 2", 3),
    ("p 2 1\ne 2 2", 2),
    ("e 1 2", 1),
    ("p 2 1\np 2 1", 2),
    ("p 2 1\nq 1 2", 2),
])
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(ParseError) as err:
        parse_graph(text)
    assert err.value.line == line


def test_parse_edge_count_mismatch():
    with pytest.raises(ParseError):
        parse_graph("p 3 2\ne 1 2")


def test_parse_degenerate_and_comments():
    assert parse_graph("p 0 0") == ParsedGraph(Graph.empty(0))
    parsed = parse_graph("c heading\n\np 2 1\nc mid\ne 1 2\n")
    assert parsed.graph.m == 1
    with pytest.raises(ParseError):
        parse_graph("")


def test_serialize_round_trip():
    text = serialize_graph(PATH3, TerminalPair(0, 2), k=1, comment="demo")
    parsed = parse_graph(text)
    assert parsed.graph == PATH3
    assert parsed.terminals == TerminalPair(0, 2)
    assert parsed.k == 1


def test_serialize_refuses_terminals_out_of_range_before_writing():
    """The parser would refuse ``t 1 6`` on a 2-vertex graph, so the
    writer refuses the terminals first, for a ``Graph`` and for the
    row-writing ``PaddedBlowup`` alike."""
    for g in (Graph.empty(2), PaddedBlowup(Graph.from_edges(2, [(0, 1)]), 1, 0)):
        for s, t in ((0, 5), (2, 0), (1, 2)):
            message = f"terminals ({s},{t}) out of range for n=2"
            with pytest.raises(ValueError, match=re.escape(message)):
                serialize_graph(g, TerminalPair(s, t), k=1, comment="c")
        assert parse_graph(serialize_graph(g, TerminalPair(1, 0))).terminals == TerminalPair(1, 0)


def reference_serialize_graph(g, terminals=None, k=None, comment=None):
    """The first serializer: every edge formatted, in ``sorted`` order."""
    lines = []
    if comment:
        lines.extend(f"c {part}" for part in comment.splitlines())
    lines.append(f"p {g.n} {g.m}")
    lines.extend(f"e {u + 1} {v + 1}" for u, v in sorted(g.edges))
    if terminals is not None:
        lines.append(f"t {terminals.s + 1} {terminals.t + 1}")
    if k is not None:
        lines.append(f"k {k}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("g, terminals, k, comment", [
    (Graph.empty(0), None, None, None),
    (Graph.empty(0), None, 0, ""),
    (Graph.empty(1), None, None, "one vertex"),
    (Graph.empty(7), TerminalPair(6, 0), 3, None),
    (PATH3, TerminalPair(0, 2), 1, "demo"),
    (K3, None, 0, "first\nsecond\r\nthird\n"),
    (K3, TerminalPair(2, 1), None, "\n\nafter blank lines"),
    # rows of several lengths, lower endpoints out of insertion order
    (Graph.from_edges(12, [(11, 0), (3, 9), (3, 4), (10, 3), (0, 1), (9, 11)]),
     TerminalPair(0, 11), 2, "c"),
])
def test_serialize_matches_reference_on_fixed_cases(g, terminals, k, comment):
    text = serialize_graph(g, terminals, k, comment)
    assert text == reference_serialize_graph(g, terminals, k, comment)


def test_serialize_matches_reference_on_random_corpus():
    rng = random.Random(23)
    corpus = graph_corpus(400, 9, 23)
    corpus += [random_graph(rng.randint(10, 300), rng.choice((0.01, 0.1, 0.5)),
                            rng.randrange(10**6)) for _ in range(30)]
    for g in corpus:
        terminals = TerminalPair(*rng.sample(range(g.n), 2)) if g.n >= 2 else None
        k = rng.choice((None, 0, rng.randrange(10**6)))
        assert serialize_graph(g) == reference_serialize_graph(g)
        assert serialize_graph(g, terminals, k, "corpus") \
            == reference_serialize_graph(g, terminals, k, "corpus")


@st.composite
def parsed_graphs(draw):
    n = draw(st.integers(0, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    terminals = None
    if n >= 2 and draw(st.booleans()):
        s, t = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        terminals = TerminalPair(s, t)
    k = draw(st.none() | st.integers(0, 10**30))
    return ParsedGraph(Graph(n, frozenset(edges)), terminals, k)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(parsed_graphs(), st.none() | st.text())
def test_serialize_parse_round_trip_property(parsed, comment):
    text = serialize_graph(parsed.graph, parsed.terminals, parsed.k, comment)
    assert parse_graph(text) == parsed


def reference_parse_graph(text):
    """The first parser: the line loop alone, with every edge checked
    again by ``Graph``."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    n = None
    declared_m = 0
    edges = set()
    terminals = None
    k = None
    last_line = 0

    def ints(parts, want, line):
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
    return ParsedGraph(Graph(n, frozenset(edges)), terminals, k)


def _outcome(parse, text):
    """The parse result, or the line and message of its ParseError;
    any other exception propagates and fails the test."""
    try:
        return parse(text)
    except ParseError as err:
        return ("ParseError", err.line, str(err))


# Block sizes that cut a fuzzed text of a few lines at many places.
SMALL_CHUNKS = (1, 3, 7, 16)
# Block sizes that cut a file of a few lines inside its records and its
# multibyte characters.
SMALL_BLOCKS = (1, 2, 3, 5, 8, 13)


def _assert_parsers_agree(text):
    """parse_graph agrees with the reference at its own block size and
    at each of SMALL_CHUNKS and SMALL_BLOCKS."""
    expected = _outcome(reference_parse_graph, text)
    assert _outcome(parse_graph, text) == expected
    for block in sorted({*SMALL_CHUNKS, *SMALL_BLOCKS}):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(graphs, "_BLOCK", block)
            assert _outcome(parse_graph, text) == expected, f"_BLOCK = {block}"


# The format's alphabet, plus characters int() or splitlines() treat
# specially: a form feed, "+", "_" and an Arabic-Indic digit.
PARSE_ALPHABET = "petkc0123456789 \t\r\n\x0c+_٣"


# Records over vertices 1..4, well formed or not, for files whose p line
# usually declares as many edges as they hold.
RECORDS = ["e 1 2", "e 2 3", "e 3 4", "e 1 3", "e 2 1", "e 4 4", "e 1 5", "e 0 2",
           "e +1 _2", "e 1_0 2", "e ٣ 1", " e 1 4", "e 1\t4", "e 2 4 1", "e 3",
           "t 1 4", "t 2 2", "t 1", "k 3", "k -1", "k", "c mid", "", "p 4 1", "q 1 2"]


@st.composite
def record_texts(draw):
    head = draw(st.lists(st.sampled_from(["c x", "c", ""]), max_size=2))
    body = draw(st.lists(st.sampled_from(RECORDS), max_size=8))
    m = sum(line.startswith("e") for line in body) + draw(st.sampled_from([0, 0, 0, 1, -1]))
    end = draw(st.sampled_from(["", "\n", "\r\n", "\n\n", "\x0c"]))
    return "\n".join(head + [f"p 4 {m}"] + body) + end


@settings(max_examples=1500, deadline=None, derandomize=True)
@given(st.text(alphabet=PARSE_ALPHABET, max_size=60) | record_texts())
def test_parse_matches_reference_on_format_text(text):
    _assert_parsers_agree(text)


# The line breaks str.splitlines() honours besides "\n".
OTHER_BREAKS = ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def _mutate(text, kind, rng):
    """One seeded fault or irregularity in a file ``serialize_graph`` wrote."""
    lines = text.splitlines()
    head = next(i for i, line in enumerate(lines) if line.startswith("p "))
    n, m = map(int, lines[head].split()[1:])
    edge_at = [i for i, line in enumerate(lines) if line.startswith("e ")]
    at = rng.choice(edge_at) if edge_at else head
    column = rng.choice((1, 2))
    if kind == "self-loop":
        v = rng.randint(1, max(n, 1))
        lines.insert(at + 1, f"e {v} {v}")
        lines[head] = f"p {n} {m + 1}"
    elif kind == "duplicate" and edge_at:
        u, v = lines[at].split()[1:]
        lines.insert(at + 1, rng.choice((f"e {u} {v}", f"e {v} {u}")))
        lines[head] = f"p {n} {m + rng.choice((0, 1))}"
    elif kind == "endpoint 0 or n+1" and edge_at:
        fields = lines[at].split()
        fields[column] = rng.choice(("0", str(n + 1)))
        lines[at] = " ".join(fields)
    elif kind == "m+1":
        lines[head] = f"p {n} {m + 1}"
    elif kind == "m-1":
        lines[head] = f"p {n} {m - 1}"
    elif kind == "negative count":
        lines[head] = rng.choice((f"p -1 {m}", f"p {n} -1"))
    elif kind == "renamed p record":
        lines[head] = rng.choice(("q", "pp", "e")) + lines[head][1:]
    elif kind == "unknown record in the e block" and edge_at:
        lines[at] = rng.choice(("q", "ee", "t", "p")) + lines[at][1:]
    elif kind == "crlf":
        lines[at] += "\r"
    elif kind == "line break in a comment":
        lines.insert(0, f"c x{rng.choice(OTHER_BREAKS)}{rng.choice(lines[head:])}")
    elif kind == "extra field":
        lines[at] += " 1"
    elif kind == "missing field":
        lines[at] = lines[at].rsplit(" ", 1)[0]
    elif kind == "field moved across a line break" and len(edge_at) >= 2:
        first = rng.choice(edge_at[:-1])
        u, v = lines[first + 1].split()[1:]
        lines[first] += " e"
        lines[first + 1] = f"{u} {v}"
    elif kind == "mid-block comment":
        lines.insert(at, "c mid-block")
    elif kind == "t/k before the e block":
        tail = [line for line in lines if line[:1] in ("t", "k")]
        lines = [line for line in lines if line[:1] not in ("t", "k")]
        lines[head + 1:head + 1] = tail or ["k 1"]
    elif kind == "second t or k record":
        lines.append(rng.choice((f"k {rng.randint(0, 9)}", f"t {n} 1")))
    elif kind == "terminal out of range":
        lines.append(f"t 1 {n + 1}")
    elif kind == "no final newline":
        return "\n".join(lines)
    return "\n".join(lines) + "\n"


MUTATIONS = ["none", "self-loop", "duplicate", "endpoint 0 or n+1", "m+1", "m-1",
             "negative count", "renamed p record", "unknown record in the e block", "crlf",
             "line break in a comment", "extra field", "missing field",
             "field moved across a line break", "mid-block comment",
             "t/k before the e block", "second t or k record", "terminal out of range",
             "no final newline"]


@settings(max_examples=1500, deadline=None, derandomize=True)
@given(parsed_graphs(), st.none() | st.text(alphabet="ab c\n", max_size=8),
       st.sampled_from(MUTATIONS), st.integers(0, 2**32))
def test_parse_matches_reference_on_mutated_files(parsed, comment, kind, seed):
    text = serialize_graph(parsed.graph, parsed.terminals, parsed.k, comment)
    if kind != "none":
        text = _mutate(text, kind, random.Random(seed))
    _assert_parsers_agree(text)


def _host_file_lines(seed):
    """The lines of a canonical file of 2*10^5 random edges among 10^5
    vertices, many blocks long."""
    rng = random.Random(seed)
    n = 100_000
    edges = set()
    while len(edges) < 200_000:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add(ordered(u, v))
    return serialize_graph(Graph(n, frozenset(edges)), TerminalPair(4, 9), 12, "bulk").split("\n")


def test_parse_reads_canonical_files_in_bulk(monkeypatch):
    lines = _host_file_lines(8)
    text = "\n".join(lines)
    # The carriage return ends line 20,001, a few blocks into the file.
    crlf = "\n".join(lines[:20_000] + [lines[20_000] + "\r"] + lines[20_001:])
    comment = "\n".join(lines[:150_000] + ["c mid-block"] + lines[150_000:])
    expected = reference_parse_graph(text)
    assert len(text) > 2 * graphs._BLOCK
    # The first line of the block that holds the carriage return: each
    # block starts after the last line break that the read before it held.
    data = crlf.encode()
    cr = data.index(b"\r")
    assert cr > 2 * graphs._BLOCK
    split_from = data.count(b"\n", 0, data.rfind(b"\n", 0, cr - cr % graphs._BLOCK)) + 2

    # The numbers of the e lines that go through the per-line record rules.
    per_line = []
    record = graphs._Reader.record

    def counting_record(self, line_no, raw):
        if raw.startswith("e"):
            per_line.append(line_no)
        record(self, line_no, raw)

    monkeypatch.setattr(graphs._Reader, "record", counting_record)
    assert parse_graph(text) == expected
    assert per_line == []
    # The comment breaks the bulk run of its own block only.
    assert parse_graph(comment) == expected
    assert min(per_line) < 150_001 < max(per_line) and len(per_line) < graphs._BLOCK
    # The e lines of the blocks before the carriage return's are read in
    # bulk, and every e line from its block on by the record rules.
    per_line.clear()
    assert parse_graph(crlf) == expected
    assert 3 < split_from <= 20_001
    assert per_line == list(range(split_from, 200_003))


def test_parse_reports_an_early_duplicate_before_a_later_fault():
    # The first block's bulk run repeats the first edge on line 4, and a
    # block 1.5*10^5 lines later holds a malformed e line: the duplicate
    # comes first in the file, so it is the error.
    lines = _host_file_lines(10)
    assert lines[2].startswith("e ")
    lines.insert(3, lines[2])
    lines[150_000] = "e 1"
    text = "\n".join(lines)
    assert len(text) > 2 * graphs._BLOCK
    u, v = lines[2].split()[1:]
    with pytest.raises(ParseError, match=f"^line 4: duplicate edge {u} {v}$"):
        parse_graph(text)


@pytest.mark.parametrize("reverse", [True, False])
def test_bulk_parse_finds_a_duplicate_chunks_apart(reverse):
    # The last e line repeats the first edge, 2*10^5 lines and many
    # blocks later; the p line counts it, so only the repeat is wrong.
    rng = random.Random(9)
    n = 100_000
    edges = set()
    while len(edges) < 200_000:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add(ordered(u, v))
    lines = serialize_graph(Graph(n, frozenset(edges))).splitlines()
    lines[0] = f"p {n} {len(edges) + 1}"
    u, v = lines[1].split()[1:]
    lines.append(f"e {v} {u}" if reverse else f"e {u} {v}")
    text = "\n".join(lines) + "\n"
    assert len(text) > 2 * graphs._BLOCK
    dup = f"{v} {u}" if reverse else f"{u} {v}"
    with pytest.raises(ParseError, match=f"^line {len(lines)}: duplicate edge {dup}$"):
        parse_graph(text)


def _assert_streamed_read_agrees(text, blocks=SMALL_BLOCKS):
    """parse_graph of the file's bytes as a binary file object, read in
    blocks of each size, agrees with parse_graph of its whole text, and
    both agree with the reference: every file read here keeps its labels
    within 2^63 - 1, a bound the reference does not check."""
    expected = _outcome(parse_graph, text)
    assert _outcome(reference_parse_graph, text) == expected
    data = text.encode("utf-8")
    for block in blocks:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(graphs, "_BLOCK", block)
            assert _outcome(parse_graph, io.BytesIO(data)) == expected, f"_BLOCK = {block}"
    return expected


# The fixed files the parse tests above and the CLI tests read.
FIXTURE_TEXTS = [
    "p 2 1\ne 1 2", "p 3 3\ne 1 2\ne 2 3\ne 1 3\nk 2", "p 3 2\ne 1 2\ne 2 3\nt 1 3",
    "p 2 1\ne 1", "p 2 1\ne 1 3", "p 3 2\ne 1 2\ne 1 2", "p 2 1\ne 2 2", "e 1 2",
    "p 2 1\np 2 1", "p 2 1\nq 1 2", "p 3 2\ne 1 2", "p 0 0",
    "c heading\n\np 2 1\nc mid\ne 1 2\n", "",
    "p 3 3\ne 1 2\ne 2 3\ne 1 3\n", "p 3 2\ne 1 2\ne 2 3\nt 1 3\n",
    "p 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 1 5\n", "p 4 3\ne 1 2\ne 1 3\ne 1 4\nk 3\n",
    f"p {10**12} 6\ne 1 2\ne 1 3\ne 1 4\ne 1 5\ne 6 7\ne 7 8\nk 3\n",
]


@pytest.mark.parametrize("text", FIXTURE_TEXTS)
def test_streamed_read_matches_the_whole_text_on_fixtures(text):
    _assert_streamed_read_agrees(text)


@pytest.mark.parametrize("text,expected", [
    # A comment of two- to four-byte characters, cut inside them by every
    # block size above.
    ("c ü€\U0001f600ü\np 2 1\ne 1 2\n", ParsedGraph(Graph.from_edges(2, [(0, 1)]))),
    # A carriage return first seen after the first block: from its block
    # on, each block is split into lines on its own.
    ("p 3 2\ne 1 2\ne 2 3\r\nk 1\r\n", ParsedGraph(PATH3, None, 1)),
    ("p 3 2\ne 1 2\ne 2 3\r\ne 2 1\r\n", ("ParseError", 4, "line 4: duplicate edge 2 1")),
    ("p 3 2\ne 1 2\ne 2 3", ParsedGraph(PATH3)),
    ("", ("ParseError", 1, "line 1: missing p record")),
])
def test_streamed_read_matches_the_whole_text_at_block_edges(text, expected):
    assert _assert_streamed_read_agrees(text) == expected


def test_streamed_read_matches_the_whole_text_on_a_host_file():
    lines = _host_file_lines(8)
    text = "\n".join(lines)
    crlf = "\n".join(lines[:5000] + [lines[5000] + "\r"] + lines[5001:])
    comment = "\n".join(lines[:150_000] + ["c mid-block ü"] + lines[150_000:])
    duplicate = "\n".join(lines[:150_000] + [lines[2]] + lines[150_000:])
    assert len(text.encode()) > 600 * 4099
    # A block of a few bytes holds at most one line, so only the plain
    # file is read that way (about 4 s).
    expected = _assert_streamed_read_agrees(text, (7, 4099))
    assert expected.graph.m == 200_000
    for variant in (text + "\n", crlf, comment):
        assert _assert_streamed_read_agrees(variant, (4099,)) == expected
    u, v = lines[2].split()[1:]
    assert _assert_streamed_read_agrees(duplicate, (4099,)) == (
        "ParseError", 150_001, f"line 150001: duplicate edge {u} {v}")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(parsed_graphs(), st.none() | st.text(alphabet="ab c\nü", max_size=8),
       st.sampled_from(MUTATIONS), st.integers(0, 2**32))
def test_streamed_read_matches_the_whole_text_on_mutated_files(parsed, comment, kind, seed):
    text = serialize_graph(parsed.graph, parsed.terminals, parsed.k, comment)
    if kind != "none":
        text = _mutate(text, kind, random.Random(seed))
    _assert_streamed_read_agrees(text)


# Lines that are not ``e <u> <v>`` as the record rules read it, but that
# a looser bulk decode could take for one.
NONCANONICAL_EDGE_LINES = [
    ["e 01 2"], ["e +1 2"], ["e 1_0 2"], ["e 1\t2"], ["e -0 1"], ["e 1e2 1"], ["e 1.0 2"],
    ["e NaN 1"], ["e Infinity 1"], ["e " + "1" * 4301 + " 2"], ["e 1 0"], ["e 1 2 3", "e 4"],
]


@pytest.mark.parametrize("odd", NONCANONICAL_EDGE_LINES, ids=lambda odd: " / ".join(odd)[:12])
@pytest.mark.parametrize("at", [0, 2, 4])
def test_bulk_runs_send_noncanonical_edge_lines_to_the_record_rules(monkeypatch, odd, at):
    run = ["e 3 4", "e 5 6", "e 7 8", "e 9 11", "e 11 12"]
    lines = ["p 12 6"] + run[:at] + odd + run[at:] + ["k 2"]
    text = "\n".join(lines) + "\n"
    expected = _outcome(reference_parse_graph, text)
    per_line = []
    record = graphs._Reader.record

    def counting_record(self, line_no, raw):
        if raw.startswith("e"):
            per_line.append(line_no)
        record(self, line_no, raw)

    monkeypatch.setattr(graphs._Reader, "record", counting_record)
    assert _outcome(parse_graph, text) == expected
    assert 2 + at in per_line
    # The same run, canonical, is read in bulk.
    per_line.clear()
    assert parse_graph("\n".join(["p 12 5", *run, "k 2"])).graph.m == 5
    assert per_line == []


def test_a_parsed_graph_holds_its_edges_in_compact_columns(tmp_path):
    lines = _host_file_lines(11)
    assert lines[1] == "p 100000 200000" and lines[100_001].startswith("e ")
    path = tmp_path / "host.gr"
    path.write_text("\n".join(["p 100000 100000", *lines[2:100_002]]), encoding="utf-8")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with path.open("rb") as file:
            parsed = parse_graph(file)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert parsed.graph.m == 100_000
    assert held <= 24 * parsed.graph.m


def _parse_peak(path):
    """The ``tracemalloc`` peak while ``parse_graph`` reads a file."""
    tracemalloc.start()
    try:
        with path.open("rb") as file:
            parse_graph(file)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_crlf_file_is_read_a_block_at_a_time(tmp_path):
    lines = _host_file_lines(8)
    lf, crlf = tmp_path / "lf.gr", tmp_path / "crlf.gr"
    lf.write_bytes("\n".join(lines).encode())
    crlf.write_bytes("\r\n".join(lines).encode())
    assert crlf.stat().st_size > 40 * graphs._BLOCK
    # Each block's lines are split on their own, so the CRLF file peaks no
    # higher than the LF one, whose blocks are read in bulk.
    assert _parse_peak(crlf) <= 1.1 * _parse_peak(lf)


class _CountingReads(io.BytesIO):
    def __init__(self, data):
        super().__init__(data)
        self.reads = 0

    def read(self, size=-1):
        self.reads += 1
        return super().read(size)


def test_a_crlf_fault_is_raised_before_the_rest_of_the_file_is_read():
    lines = _host_file_lines(8)
    assert lines[2].startswith("e ")
    lines[2] = "e 1"
    file = _CountingReads("\r\n".join(lines).encode())
    assert len(file.getvalue()) > 40 * graphs._BLOCK
    with pytest.raises(ParseError, match="^line 3: expected 2 fields, got 1$"):
        parse_graph(file)
    assert file.reads <= 2


# The degree rule's budget on ``hub_and_leaf_lines`` hosts: it deletes the
# ten hubs and keeps the 5-cycle core, whose degree is 2 <= 13 - 10.
HUB_K = 13


def hub_and_leaf_lines(m, n, seed, label=lambda v: v + 1):
    """The lines of a host file of m edges that declares n vertices:
    vertices 0-9 are hubs, 10-14 a 5-cycle and the rest leaves of the
    hubs round robin, each edge written once, in seeded order and
    orientation, with vertex v labelled ``label(v)``."""
    rng = random.Random(seed)
    pairs = [(10 + i, 10 + (i + 1) % 5) for i in range(5)]
    pairs += [(j % 10, 15 + j) for j in range(m - 5)]
    rng.shuffle(pairs)
    return [f"p {n} {m}"] + [f"e {label(u)} {label(v)}" if rng.random() < 0.5
                             else f"e {label(v)} {label(u)}" for u, v in pairs]


def test_labels_spread_to_10_15_count_in_a_counter_within_o_m_memory(tmp_path):
    # 20,000 edges whose 20,010 labels are spread over 1..10^15, where an
    # array table would take 4 * 10^15 bytes.  With m from 10^4 to 10^5 the
    # parse and the reduce peaked at 80-125 bytes an edge (Python 3.11),
    # by where the Counter's resizes fall: c = 160 is 1.25 times the most.
    m = 20_000
    labels = random.Random(4).sample(range(1, 10**15 + 1), m + 10)
    spread = hub_and_leaf_lines(m, 10**15, 5, labels.__getitem__)
    path = tmp_path / "spread.gr"
    path.write_text("\n".join(spread) + "\n", encoding="utf-8")
    tracemalloc.start()
    try:
        with path.open("rb") as file:
            g = parse_graph(file).graph
        result = reduce_vertex_cover(CountingInstance(g, None, HUB_K))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(g.degrees, Counter)
    assert peak <= 160 * m, peak / m
    payload = result.context.payload
    assert (payload["branch"], payload["n1"], payload["n2"], payload["k2"]) == (
        "normal", str(10**15 - 10), "5", "3")

    # A repeat of the first core edge, planted three quarters into the
    # file, raises at its line in the spread file and in its densely
    # labelled twin, naming that edge by each file's labels.
    dense = hub_and_leaf_lines(m, m + 10, 5)
    first = next(i for i, line in enumerate(dense)
                 if line.startswith("e ") and all(11 <= int(x) <= 15 for x in line.split()[1:]))
    assert spread[first] == "e %d %d" % tuple(labels[int(x) - 1] for x in dense[first].split()[1:])
    at = 3 * m // 4
    assert first < at
    for lines in (dense, spread):
        u, v = lines[first].split()[1:]
        planted = [f"p {lines[0].split()[1]} {m + 1}", *lines[1:at], f"e {v} {u}", *lines[at:]]
        with pytest.raises(ParseError, match=f"^line {at + 1}: duplicate edge {v} {u}$"):
            parse_graph("\n".join(planted))


def _forms(n, columns, monkeypatch):
    """The graph on ``columns`` twice, counting its degrees in a
    ``Counter`` and in an ``array('i')``; no edges count in an empty array."""
    forms = []
    for slots in (0, 2**70):
        monkeypatch.setattr(graphs, "_SLOTS_PER_EDGE", slots)
        g = Graph._checked(n, columns)
        g.degrees
        forms.append(g)
    counted = isinstance(forms[0].degrees, Counter) or not forms[0].degrees
    assert counted and isinstance(forms[1].degrees, array)
    return forms


def test_both_degree_table_forms_give_the_same_degrees_and_degree_rule(monkeypatch):
    parsed = parse_graph("\n".join(hub_and_leaf_lines(2000, 2010, 6))).graph
    assert isinstance(parsed.degrees, array)
    hosts = [parsed] + graph_corpus(300, 7, 2)
    for g in hosts:
        adjacency = g.adjacency
        counted, arrayed = _forms(g.n, g.columns(), monkeypatch)
        for form in (counted, arrayed):
            assert [form.degree(v) for v in range(g.n)] == [len(a) for a in adjacency]
            assert form.isolated_vertices() == [v for v in range(g.n) if not adjacency[v]]
            assert "adjacency" not in form.__dict__
        for k in (0, 1, 2, HUB_K - 1, HUB_K):
            assert buss_reduce(counted, k) == buss_reduce(arrayed, k), (g, k)
    assert buss_reduce(parsed, HUB_K)[0].m == 5
    for form in _forms(parsed.n, parsed.columns(), monkeypatch):
        with pytest.raises(IndexError):
            form.degree(parsed.n)


def test_subdivide_triangle_gives_six_cycle():
    out = subdivide_all_edges(K3)
    assert out.n == 6 and out.m == 6
    # The i-th edge in sorted order is subdivided by vertex n + i: its
    # ends sit at column indices i and m + i.
    us, vs = out.columns()
    assert list(zip(us[:3], us[3:], vs[:3], vs[3:])) == [(0, 1, 3, 3), (0, 2, 4, 4),
                                                         (1, 2, 5, 5)]
    assert all(out.degree(v) == 2 for v in range(out.n))
    assert count_odd_cycle_transversals(out, 0) == 1


def test_subdivide_single_edge_and_empty():
    out = subdivide_all_edges(Graph.from_edges(2, [(0, 1)]))
    assert out.n == 3 and out.m == 2
    assert tuple(map(list, out.columns())) == ([0, 1], [2, 2])
    out2 = subdivide_all_edges(Graph.empty(3))
    assert out2.n == 3 and out2.m == 0 and tuple(map(list, out2.columns())) == ([], [])


def test_subdivision_always_bipartite():
    rng = random.Random(7)
    for _ in range(40):
        g = random_graph(rng.randint(1, 7), rng.choice((0.3, 0.6, 0.9)), rng.randrange(10**6))
        out = subdivide_all_edges(g)
        assert out.n == g.n + g.m and out.m == 2 * g.m
        assert count_odd_cycle_transversals(out, 0) == 1


def test_blowup_star_leaves():
    star = Graph.from_edges(3, [(0, 1), (0, 2)])
    out, copies = false_twin_blowup(star, [1, 2], 2)
    center = copies[0][0]
    assert out.degree(center) == 4
    for v in (1, 2):
        for c in copies[v]:
            assert out.adjacency[c] == (center,)


def test_blowup_empty_targets_is_identity():
    out, copies = false_twin_blowup(K3, [], 5)
    assert out == K3
    assert all(copies[v] == (v,) for v in range(3))


def test_blowup_rejects_adjacent_targets():
    with pytest.raises(BlowupError):
        false_twin_blowup(Graph.from_edges(2, [(0, 1)]), [0, 1], 3)


def test_blowup_path_middle_degree():
    out, copies = false_twin_blowup(PATH3, [0, 2], 3)
    middle = copies[1][0]
    assert out.degree(middle) == 6


def test_blowup_single_copy_is_identity_up_to_relabeling():
    rng = random.Random(3)
    for _ in range(20):
        g = random_graph(rng.randint(1, 6), 0.5, rng.randrange(10**6))
        independent = [v for v in range(g.n) if not g.adjacency[v]]
        out, copies = false_twin_blowup(g, independent, 1)
        relabel = {v: copies[v][0] for v in range(g.n)}
        assert out.n == g.n
        assert out.edges == frozenset(ordered(relabel[u], relabel[v]) for u, v in g.edges)


def test_chain_single_instance_is_isomorphic_copy():
    g, st, maps = chain_identify([(PATH3, TerminalPair(0, 2))])
    assert g.n == 3 and g.m == 2
    assert st == TerminalPair(maps[0][0], maps[0][2])


def test_chain_two_paths():
    part = (PATH3, TerminalPair(0, 2))
    g, st, maps = chain_identify([part, part])
    assert g.n == 5 and g.m == 4
    assert maps[0][2] == maps[1][0]
    assert st.s == maps[0][0] and st.t == maps[1][2]


def test_chain_three_edges():
    part = (Graph.from_edges(2, [(0, 1)]), TerminalPair(0, 1))
    g, st, _ = chain_identify([part, part, part])
    assert g.n == 4 and g.m == 3


def test_chain_counts_property():
    rng = random.Random(11)
    for _ in range(25):
        parts = []
        for _ in range(rng.randint(1, 4)):
            n = rng.randint(2, 6)
            g = random_graph(n, 0.5, rng.randrange(10**6))
            s, t = rng.sample(range(n), 2)
            parts.append((g, TerminalPair(s, t)))
        chained, _, _ = chain_identify(parts)
        assert chained.n == sum(g.n for g, _ in parts) - (len(parts) - 1)
        assert chained.m == sum(g.m for g, _ in parts)


def _td(nodes, links, bags):
    return TreeDecomposition(tuple(nodes),
                             frozenset(frozenset(link) for link in links),
                             {node: frozenset(bag) for node, bag in bags.items()})


def test_validate_td_path():
    td = _td("ab", [("a", "b")], {"a": {0, 1}, "b": {1, 2}})
    check = validate_tree_decomposition(PATH3, td)
    assert check.ok and check.width == 1


def test_validate_td_missing_edge():
    td = _td("ab", [("a", "b")], {"a": {0}, "b": {2}})
    check = validate_tree_decomposition(PATH3, td)
    assert not check.ok and "in no bag" in check.violation


def test_validate_td_single_bag_clique():
    td = _td(["x"], [], {"x": {0, 1, 2}})
    check = validate_tree_decomposition(K3, td)
    assert check.ok and check.width == 2


def test_validate_td_disconnected_trace():
    td = _td("abc", [("a", "b"), ("b", "c")],
             {"a": {0, 1}, "b": {1, 2}, "c": {0, 2}})
    check = validate_tree_decomposition(K3, td)
    assert not check.ok and "disconnected" in check.violation


def test_validate_td_rejects_cycle_and_forest():
    td = _td("ab", [], {"a": {0, 1}, "b": {1, 2}})
    assert not validate_tree_decomposition(PATH3, td).ok
    td2 = _td("abc", [("a", "b"), ("b", "c"), ("a", "c")],
              {"a": {0, 1}, "b": {1, 2}, "c": {1}})
    assert not validate_tree_decomposition(PATH3, td2).ok


def reference_validate_tree_decomposition(g, td):
    """The first validator: each edge and each vertex scans every bag."""
    width = td.width
    nodes = list(td.nodes)
    if not nodes:
        return TdCheck(False, "decomposition has no nodes", width)
    node_set = set(nodes)
    if len(node_set) != len(nodes):
        return TdCheck(False, "duplicate node ids", width)
    if set(td.bags) != node_set:
        return TdCheck(False, "bags do not match the node set", width)

    adj = {node: [] for node in nodes}
    for link in td.links:
        pair = list(link)
        if len(pair) != 2 or any(x not in node_set for x in pair):
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

    for node in nodes:
        for v in td.bags[node]:
            if not 0 <= v < g.n:
                return TdCheck(False, f"bag of {node!r} references vertex {v}", width)
    for u, v in g.sorted_edges():
        if not any(u in td.bags[node] and v in td.bags[node] for node in nodes):
            return TdCheck(False, f"edge ({u},{v}) is in no bag", width)
    for v in range(g.n):
        trace = [node for node in nodes if v in td.bags[node]]
        if not trace:
            return TdCheck(False, f"vertex {v} is in no bag", width)
        trace_set = set(trace)
        reached = {trace[0]}
        stack = [trace[0]]
        while stack:
            for b in adj[stack.pop()]:
                if b in trace_set and b not in reached:
                    reached.add(b)
                    stack.append(b)
        if len(reached) != len(trace):
            return TdCheck(False, f"bags containing vertex {v} are disconnected", width)
    return TdCheck(True, None, width)


TD_KINDS = ("valid", "missing edge", "no bag", "disconnected", "cycle", "forest",
            "swap", "bad link", "out of range", "duplicate node", "bag mismatch")


def _td_case(pick, kind):
    """A graph (n <= 8) and a decomposition over a random tree, of one of ``TD_KINDS``.

    ``pick(lo, hi)`` draws an int in [lo, hi].  Each vertex's bags form
    a connected subtree and every edge shares a bag, so "valid" is a
    decomposition; every other kind corrupts one part of it.
    """
    n, size = pick(0, 8), pick(1, 6)
    parent = [None] + [pick(0, i - 1) for i in range(1, size)]
    links = {frozenset({i, parent[i]}) for i in range(1, size)}
    bags = [set() for _ in range(size)]
    traces = []
    for v in range(n):
        trace = {pick(0, size - 1)}
        for _ in range(pick(0, 3)):
            x, path = pick(0, size - 1), []
            while x is not None and x not in trace:
                path.append(x)
                x = parent[x]
            if x is not None:
                trace.update(path)
        traces.append(trace)
        for node in trace:
            bags[node].add(v)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = {(u, v) for u, v in pairs if traces[u] & traces[v] and pick(0, 1)}
    nodes = list(range(size))
    if kind == "missing edge":
        apart = [(u, v) for u, v in pairs if not traces[u] & traces[v]]
        if apart:
            edges.add(apart[pick(0, len(apart) - 1)])
    elif kind == "no bag" and n:
        v = pick(0, n - 1)
        for bag in bags:
            bag.discard(v)
    elif kind == "disconnected" and n:
        wide = [v for v in range(n) if len(traces[v]) >= 3] or range(n)
        v = wide[pick(0, len(wide) - 1)]
        held = sorted(traces[v])
        inner = [x for x in held if sum(parent[y] == x or parent[x] == y for y in held) >= 2]
        held = inner or held
        bags[held[pick(0, len(held) - 1)]].discard(v)
    elif kind in ("forest", "swap") and links:
        links.discard(sorted(links, key=sorted)[pick(0, len(links) - 1)])
    if kind in ("cycle", "swap"):
        links.add(frozenset({pick(0, size - 1), pick(0, size - 1)}))
    elif kind == "bad link":
        links.add(frozenset({pick(0, size - 1), size}))
    elif kind == "out of range":
        bags[pick(0, size - 1)].add((-1, n, n + 5)[pick(0, 2)])
    elif kind == "duplicate node":
        nodes.append(pick(0, size - 1))
    bag_map = {node: frozenset(bags[node]) for node in range(size)}
    if kind == "bag mismatch":
        if pick(0, 1):
            bag_map[size] = frozenset()
        else:
            del bag_map[pick(0, size - 1)]
    return Graph(n, frozenset(edges)), TreeDecomposition(tuple(nodes), frozenset(links), bag_map)


def _check_against_reference(g, td):
    new = validate_tree_decomposition(g, td)
    assert new == reference_validate_tree_decomposition(g, td)
    return new


def test_validate_td_matches_reference_on_seeded_corpus():
    rng = random.Random(31)
    seen = set()
    for i in range(4400):
        kind = TD_KINDS[i % len(TD_KINDS)]
        g, td = _td_case(rng.randint, kind)
        check = _check_against_reference(g, td)
        assert check.ok or kind != "valid"
        seen.add(re.sub(r"\[.*\]|-?\d+", "#", check.violation or "ok"))
        # Lists and tuples with every member twice give the frozensets' result.
        for form in (lambda bag: sorted(bag) * 2, lambda bag: tuple(bag) + tuple(bag)):
            again = TreeDecomposition(td.nodes, td.links,
                                      {node: form(bag) for node, bag in td.bags.items()})
            assert validate_tree_decomposition(g, again) == check
    assert seen == {
        "ok", "duplicate node ids", "bags do not match the node set", "bad tree edge #",
        "tree edge count is not node count minus one", "tree is not connected",
        "bag of # references vertex #", "edge (#,#) is in no bag", "vertex # is in no bag",
        "bags containing vertex # are disconnected",
    }
    assert not _check_against_reference(PATH3, TreeDecomposition((), frozenset(), {})).ok


@settings(max_examples=600, deadline=None, derandomize=True)
@given(st.data(), st.sampled_from(TD_KINDS))
def test_validate_td_matches_reference_property(data, kind):
    g, td = _td_case(lambda lo, hi: data.draw(st.integers(lo, hi)), kind)
    _check_against_reference(g, td)


def test_validate_td_matches_reference_on_exact_witnesses():
    pool = cut_instance_pool(36, 9, 5)
    rng = random.Random(5)
    gadgets = 0
    for members in group_by_min_cut(pool).values():
        for ell in (1, 2, 3, 4, 2, 3):
            composition = exact_compose([pool[rng.choice(members)] for _ in range(ell)])
            g, td = composition.graph, composition.witness
            assert _check_against_reference(g, td).ok
            gadgets += composition.metadata.branch == "gadget"
            # The witness with one member less in one bag, and with one link less.
            node = rng.choice(td.nodes)
            bags = {**td.bags, node: frozenset(sorted(td.bags[node])[1:])}
            _check_against_reference(g, TreeDecomposition(td.nodes, td.links, bags))
            if td.links:
                link = rng.choice(sorted(td.links, key=lambda pair: sorted(map(repr, pair))))
                _check_against_reference(g, TreeDecomposition(td.nodes, td.links - {link}, td.bags))
    assert gadgets >= 20


def _hub_path_td(length, drop_hub_at=None, split_at=None):
    """Path 1..length with hub 0 adjacent to all, bags {0, i, i+1} in a path.

    The hub sits in every bag, as the chained t_i does in the exact
    composition's witness.  ``drop_hub_at`` removes it from bag i;
    ``split_at`` removes i+1 from bag i, leaving edge (i, i+1) in no bag.
    """
    g = Graph(length + 1, frozenset([(i, i + 1) for i in range(1, length)]
                                    + [(0, i) for i in range(1, length + 1)]))
    bags = {i: {0, i, i + 1} for i in range(1, length)}
    if drop_hub_at is not None:
        bags[drop_hub_at].discard(0)
    if split_at is not None:
        bags[split_at].discard(split_at + 1)
    return g, _td(range(1, length), [(i, i + 1) for i in range(1, length - 1)], bags)


@pytest.mark.parametrize("corruption, violation", [
    ({}, None),
    ({"drop_hub_at": "middle"}, "bags containing vertex 0 are disconnected"),
    ({"split_at": 5}, "edge (5,6) is in no bag"),
])
def test_validate_td_scale_guard_hub_in_every_bag(corruption, violation):
    # 20,000 bags: the scan of every bag per edge and per vertex would take
    # about 4*10^8 steps here, so a return to it shows as a stalled suite.
    for length, middle in ((12, 6), (20_001, 10_000)):
        kwargs = {key: middle if at == "middle" else at for key, at in corruption.items()}
        g, td = _hub_path_td(length, **kwargs)
        check = validate_tree_decomposition(g, td)
        assert (check.ok, check.violation, check.width) == (violation is None, violation, 2)
        if length == 12:
            assert check == reference_validate_tree_decomposition(g, td)


@pytest.mark.parametrize("member", ["1", None, 1.5, 1.0, True, (1,), -1, 3])
def test_validate_td_reports_non_vertex_members(member):
    # True is no vertex: bool is an int subclass, but no bag member is taken
    # as a vertex unless its type is int.
    td = TreeDecomposition(("a", "b"), frozenset({frozenset({"a", "b"})}),
                           {"a": frozenset({0, 1}), "b": frozenset({member, 2})})
    check = validate_tree_decomposition(PATH3, td)
    assert (check.ok, check.violation) == (False, f"bag of 'b' references vertex {member}")


def test_validate_td_list_bags_with_repeats_match_frozensets():
    nodes, links = ("a", "b"), frozenset({frozenset({"a", "b"})})
    for bags in ({"a": [0, 1, 1, 0], "b": (2, 1, 2)}, {"a": [0, 0], "b": [1, 2, 2]}):
        as_sets = TreeDecomposition(nodes, links, {k: frozenset(v) for k, v in bags.items()})
        check = validate_tree_decomposition(PATH3, TreeDecomposition(nodes, links, bags))
        assert check == validate_tree_decomposition(PATH3, as_sets)
        assert check.width == 1
