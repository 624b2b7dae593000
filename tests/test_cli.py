import argparse
import json
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from math import comb
from pathlib import Path

import pytest

from countkernel import cli, framework, graphs, oracles, vc_kernel, verification
from countkernel.cli import build_parser, main
from countkernel.compositions import ExactMetadata
from countkernel.framework import CountingInstance
from countkernel.graphs import (
    Graph,
    ParsedGraph,
    TerminalPair,
    ordered,
    parse_graph,
    serialize_graph,
)
from countkernel.vc_kernel import lift_vertex_cover, reduce_vertex_cover

from test_builders import (
    reference_mincut_to_oct_graph,
    reference_random_graph,
    reference_row_writer,
    reference_two_copy_matching_graph,
)
from test_oracles import grid_3x4
from test_verification import one_more_cut_on_composed_graphs

K3_TEXT = "p 3 3\ne 1 2\ne 2 3\ne 1 3\n"
PATH_ST_TEXT = "p 3 2\ne 1 2\ne 2 3\nt 1 3\n"
C5_TEXT = "p 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 1 5\n"
STAR_TEXT = "p 4 3\ne 1 2\ne 1 3\ne 1 4\nk 3\n"

# Counts that int() accepts but that are not nonnegative ASCII decimals.
NONCANONICAL_COUNTS = pytest.mark.parametrize(
    "count", ["-3", "\u0663", "1_0", " 7", "7\n", "+7", ""],
    ids=["negative", "arabic-indic-digit", "underscore", "leading-space", "trailing-newline",
         "plus-sign", "empty"])


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_oracle_vc(tmp_path, capsys):
    graph = write(tmp_path, "k3.gr", K3_TEXT)
    assert main(["oracle", "vc", "--graph", graph, "--k", "2"]) == 0
    assert capsys.readouterr().out.strip() == "3"


def test_oracle_k_record_and_override(tmp_path, capsys):
    graph = write(tmp_path, "k3.gr", K3_TEXT + "k 2\n")
    assert main(["oracle", "vc", "--graph", graph]) == 0
    assert capsys.readouterr().out.strip() == "3"
    assert main(["oracle", "vc", "--graph", graph, "--k", "0"]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_oracle_lpvc_and_tw(tmp_path, capsys):
    c5 = write(tmp_path, "c5.gr", C5_TEXT)
    assert main(["oracle", "lpvc", "--graph", c5]) == 0
    assert capsys.readouterr().out.strip() == "5/2"
    assert main(["oracle", "tw", "--graph", c5]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_oracle_lpvc_on_a_long_path(tmp_path, capsys):
    path = Graph.from_edges(3000, [(v, v + 1) for v in range(2999)])
    graph = write(tmp_path, "path.gr", serialize_graph(path))
    assert main(["oracle", "lpvc", "--graph", graph]) == 0
    assert capsys.readouterr().out.strip() == "1500"


def test_oracle_tw_on_the_3x4_grid(tmp_path, capsys):
    grid = write(tmp_path, "grid.gr", serialize_graph(grid_3x4()))
    assert main(["oracle", "tw", "--graph", grid]) == 0
    assert capsys.readouterr().out.strip() == "3"


def test_oracle_mincut_json_report(tmp_path, capsys):
    path = write(tmp_path, "p.gr", PATH_ST_TEXT)
    assert main(["oracle", "mincut", "--graph", path, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["outputs"]["value"] == "2"
    assert report["outputs"]["cut_size"] == 1


def test_oracle_requires_budget(tmp_path, capsys):
    graph = write(tmp_path, "k3.gr", K3_TEXT)
    assert main(["oracle", "vc", "--graph", graph]) == 2


@pytest.mark.parametrize("which", ["vc", "minvc", "oct"])
def test_oracle_refuses_a_negative_k(tmp_path, capsys, which):
    graph = write(tmp_path, "k3.gr", K3_TEXT)
    assert main(["oracle", which, "--graph", graph, "--k", "-1"]) == 3
    assert "k = -1 must be nonnegative" in capsys.readouterr().err


def test_kernel_reduce_lift_round_trip_matches_in_process(tmp_path, capsys):
    graph = write(tmp_path, "edge.gr", "p 2 1\ne 1 2\n")
    out = str(tmp_path / "reduced.gr")
    context = str(tmp_path / "ctx.json")
    assert main(["kernel", "vc", "reduce", "--graph", graph, "--k", "1",
                 "--out", out, "--context", context]) == 0
    capsys.readouterr()
    assert main(["kernel", "vc", "lift", "--context", context, "--count", "2"]) == 0
    assert capsys.readouterr().out.strip() == "2"

    inst = CountingInstance(Graph.from_edges(2, [(0, 1)]), None, 1)
    in_process = reduce_vertex_cover(inst)
    assert lift_vertex_cover(in_process.context, 2) == 2
    written = parse_graph((tmp_path / "reduced.gr").read_text())
    assert written.graph == in_process.reduced.graph.materialize()
    assert written.k == in_process.reduced.k


def test_kernel_lift_of_a_one_vertex_host_is_instant_at_a_huge_k(tmp_path, capsys):
    # n1 - n2 = 1 isolated vertex: the partial sums stop at one term,
    # not at k2 = 10^12
    graph = write(tmp_path, "one.gr", "p 1 0\n")
    context = str(tmp_path / "ctx.json")
    assert main(["kernel", "vc", "reduce", "--graph", graph, "--k", str(10 ** 12),
                 "--out", str(tmp_path / "r.gr"), "--context", context]) == 0
    capsys.readouterr()
    assert main(["kernel", "vc", "lift", "--context", context, "--count", "1"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_kernel_minvc(tmp_path, capsys):
    graph = write(tmp_path, "star.gr", STAR_TEXT)
    out = str(tmp_path / "core.gr")
    context = str(tmp_path / "ctx.json")
    assert main(["kernel", "minvc", "reduce", "--graph", graph,
                 "--out", out, "--context", context]) == 0
    capsys.readouterr()
    assert main(["kernel", "minvc", "lift", "--context", context, "--count", "2"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_kernel_minvc_lift_refuses_counts_above_the_subset_bound(tmp_path, capsys):
    # C4 at budget 3 is its own core: n2 = 4, k2 = 3, so at most
    # 1 + 4 + 6 + 4 = 15 subsets can be counted.
    graph = write(tmp_path, "c4.gr", "p 4 4\ne 1 2\ne 2 3\ne 3 4\ne 1 4\nk 3\n")
    context = str(tmp_path / "ctx.json")
    assert main(["kernel", "minvc", "reduce", "--graph", graph,
                 "--out", str(tmp_path / "core.gr"), "--context", context]) == 0
    capsys.readouterr()
    assert main(["kernel", "minvc", "lift", "--context", context, "--count", "15"]) == 0
    assert capsys.readouterr().out.strip() == "15"
    assert main(["kernel", "minvc", "lift", "--context", context, "--count", "999999"]) == 3
    assert "corrupted count" in capsys.readouterr().err


@pytest.mark.parametrize("which, refusal", [("vc", "bit number of core covers of size 0"),
                                            ("minvc", "bit number of minimal covers")],
                         ids=["vc", "minvc"])
def test_kernel_lift_refuses_a_count_past_the_digit_cap_with_its_own_message(
        tmp_path, capsys, which, refusal):
    graph = write(tmp_path, "c4.gr", "p 4 4\ne 1 2\ne 2 3\ne 3 4\ne 1 4\nk 3\n")
    context = str(tmp_path / "ctx.json")
    assert main(["kernel", which, "reduce", "--graph", graph,
                 "--out", str(tmp_path / "r.gr"), "--context", context]) == 0
    capsys.readouterr()
    assert main(["kernel", which, "lift", "--context", context, "--count", "7" * 5000]) == 3
    err = capsys.readouterr().err
    assert refusal in err and "corrupted count" in err, err


@pytest.mark.parametrize("which", ["vc", "minvc"])
@NONCANONICAL_COUNTS
def test_kernel_lift_refuses_noncanonical_counts(tmp_path, capsys, which, count):
    graph = write(tmp_path, "star.gr", STAR_TEXT)
    context = str(tmp_path / "ctx.json")
    assert main(["kernel", which, "reduce", "--graph", graph,
                 "--out", str(tmp_path / "r.gr"), "--context", context]) == 0
    capsys.readouterr()
    assert main(["kernel", which, "lift", "--context", context, "--count", count]) == 3
    assert "not a nonnegative decimal" in capsys.readouterr().err


# Each reduce/lift step, by the argument that names it: its command, an
# input file's text and the reduce's options.
LIFT_STEPS = {
    "vc": (["kernel", "vc"], K3_TEXT, ["--k", "2"]),
    "minvc": (["kernel", "minvc"], K3_TEXT, ["--k", "2"]),
    "mincut-oct": (["ppt", "mincut-oct"], PATH_ST_TEXT, []),
    "oct-vc": (["ppt", "oct-vc"], K3_TEXT, ["--k", "1"]),
}


def reduce_to_context(tmp_path, which):
    """Reduce the step's input through main; the path of its context."""
    step, text, options = LIFT_STEPS[which]
    context = tmp_path / "ctx.json"
    assert main([*step, "reduce", "--graph", write(tmp_path, "in.gr", text), *options,
                 "--out", str(tmp_path / "r.gr"), "--context", str(context)]) == 0
    return context


def _without(field):
    return lambda p: {k: v for k, v in p.items() if k != field}


def _with(**fields):
    return lambda p: {**p, **fields}


# (step, case, payload corruption, count given to the lift, text of the error)
MALFORMED_CONTEXTS = [
    *[(which, case, corrupt, "3", "context") for which in ("vc", "minvc")
      for case, corrupt in (("no-branch", _without("branch")), ("no-n2", _without("n2")),
                            ("bad-branch", _with(branch="sometimes")),
                            ("negative", _with(k2="-1")), ("not-a-number", _with(n1="x")))],
    *[("mincut-oct", case, corrupt, "2", "context")
      for case, corrupt in (("no-branch", _without("branch")), ("no-k", _without("k")),
                            ("bad-branch", _with(branch="sometimes")),
                            ("negative", _with(k="-1")), ("not-a-number", _with(k="x")),
                            ("separated-at-k-1", _with(branch="separated")))],
    ("mincut-oct", "no-m", _without("m"), "2", "lacks field 'm'"),
    ("mincut-oct", "k-above-m", _with(k="3"), "2", "inconsistent mincut-to-oct context"),
    ("mincut-oct", "separated-m-2", _with(branch="separated", k="0"), "1",
     "inconsistent mincut-to-oct context"),
    ("mincut-oct", "separated-count-2", _with(branch="separated", k="0", m="0"), "2",
     "exactly one transversal"),
    # The path has m = 2 edges and k = 1: at most C(2, 1) = 2 minimum cuts.
    *[("mincut-oct", f"count-{count}", _with(), count, "from 1 to C(2, 1) transversals")
      for count in ("3", "99999999999")],
    *[("oct-vc", case, corrupt, "6", "context")
      for case, corrupt in (("no-n", _without("n")), ("no-k", _without("k")),
                            ("negative", _with(k="-1")), ("not-a-number", _with(n="x")))],
    ("oct-vc", "odd-count", _with(), "7", "must be even"),
]


@pytest.mark.parametrize("which, corrupt, count, message",
                         [case[:1] + case[2:] for case in MALFORMED_CONTEXTS],
                         ids=[f"{case}-{which}" for which, case, *_ in MALFORMED_CONTEXTS])
def test_kernel_lift_malformed_context_exits_3(tmp_path, capsys, which, corrupt, count,
                                                message):
    context = reduce_to_context(tmp_path, which)
    doc = json.loads(context.read_text())
    doc["payload"] = corrupt(doc["payload"])
    context.write_text(json.dumps(doc))
    capsys.readouterr()
    step = LIFT_STEPS[which][0]
    assert main([*step, "lift", "--context", str(context), "--count", count]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err, err


def test_kernel_minvc_lift_refuses_a_context_no_reduce_emits(tmp_path, capsys):
    # n1 < n2 and n2 > 2*k2^2: no core of at most k2^2 edges has 500 vertices.
    payload = {"branch": "normal", "n1": "1", "n2": "500", "k2": "2"}
    context = write(tmp_path, "ctx.json", json.dumps(
        {"compression": "minimal-vertex-cover-kernel", "payload": payload, "version": 1}))
    assert main(["kernel", "minvc", "lift", "--context", context, "--count", "5"]) == 3
    assert "inconsistent minimal-vertex-cover-kernel context" in capsys.readouterr().err


@pytest.mark.parametrize("which, version",
                         [(which, version) for which in ("minvc", "mincut-oct", "oct-vc")
                          for version in (True, 1.0)],
                         ids=["true", "float", "true-mincut-oct", "float-mincut-oct",
                              "true-oct-vc", "float-oct-vc"])
def test_kernel_lift_refuses_a_version_that_is_not_the_int_1(tmp_path, capsys, which, version):
    context = reduce_to_context(tmp_path, which)
    doc = json.loads(context.read_text())
    doc["version"] = version
    context.write_text(json.dumps(doc))
    capsys.readouterr()
    step = LIFT_STEPS[which][0]
    assert main([*step, "lift", "--context", str(context), "--count", "3"]) == 3
    assert "unsupported context version" in capsys.readouterr().err


@pytest.mark.parametrize("which, text",
                         [(which, text) for which in ("vc", "mincut-oct", "oct-vc")
                          for text in ("[" * 200_000, "{not json")],
                         ids=["nested-deep", "not-json", "nested-deep-mincut-oct",
                              "not-json-mincut-oct", "nested-deep-oct-vc", "not-json-oct-vc"])
def test_kernel_lift_refuses_a_context_that_is_not_json(tmp_path, capsys, which, text):
    context = write(tmp_path, "ctx.json", text)
    step = LIFT_STEPS[which][0]
    assert main([*step, "lift", "--context", context, "--count", "1"]) == 3
    assert "lift context is not JSON" in capsys.readouterr().err


def test_compose_sum_and_oracle(tmp_path, capsys):
    a = write(tmp_path, "a.gr", PATH_ST_TEXT)
    b = write(tmp_path, "b.gr", PATH_ST_TEXT)
    out = str(tmp_path / "sum.gr")
    assert main(["compose", "sum", "--inputs", f"{a},{b}", "--out", out]) == 0
    capsys.readouterr()
    assert main(["oracle", "mincut", "--graph", out]) == 0
    assert capsys.readouterr().out.strip() == "4"


def test_compose_sum_unequal_sizes_exits_3(tmp_path, capsys):
    a = write(tmp_path, "a.gr", PATH_ST_TEXT)
    k4 = write(tmp_path, "k4.gr",
               "p 4 6\ne 1 2\ne 1 3\ne 1 4\ne 2 3\ne 2 4\ne 3 4\nt 1 4\n")
    assert main(["compose", "sum", "--inputs", f"{a},{k4}",
                 "--out", str(tmp_path / "x.gr")]) == 3


@pytest.mark.parametrize("option", ["--meta", "--td"])
def test_compose_sum_refuses_the_exact_only_options(tmp_path, capsys, option):
    a = write(tmp_path, "a.gr", PATH_ST_TEXT)
    out = tmp_path / "sum.gr"
    with pytest.raises(SystemExit) as err:
        main(["compose", "sum", "--inputs", f"{a},{a}", "--out", str(out),
              option, str(tmp_path / "extra.json")])
    assert err.value.code == 2
    assert "compose sum takes neither --meta nor --td" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "extra.json").exists()


@pytest.mark.parametrize("argv, message", [
    *[(["kernel", which, "lift", "--context", "{dir}/ctx.json", "--count", "3", *option],
       "kernel lift takes neither --graph nor --k nor --out")
      for which in ("vc", "minvc")
      for option in (["--graph", "{graph}"], ["--k", "0"], ["--out", "{dir}/out.gr"])],
    (["kernel", "vc", "reduce", "--graph", "{graph}", "--out", "{dir}/out.gr",
      "--context", "{dir}/ctx.json", "--count", "3"], "kernel reduce takes no --count"),
    *[(["oracle", which, "--graph", "{graph}", "--k", k], f"oracle {which} takes no --k")
      for which, k in (("mincut", "1"), ("matching", "0"), ("lpvc", "2"), ("tw", "1"))],
    *[(["ppt", "mincut-oct", "--graph", "{graph}", "--out", "{dir}/out.gr", *option],
       "ppt mincut-oct takes neither --k nor --check-nice")
      for option in (["--k", "1"], ["--check-nice"])],
    *[(["ppt", which, "lift", "--context", "{dir}/ctx.json", "--count", "3", *option],
       "ppt lift takes neither --graph nor --k nor --out nor --check-nice")
      for which in ("mincut-oct", "oct-vc")
      for option in (["--graph", "{graph}"], ["--k", "0"], ["--out", "{dir}/out.gr"],
                     ["--check-nice"])],
    *[(["ppt", which, *action, "--graph", "{graph}", "--k", "1", "--out", "{dir}/out.gr",
        "--count", "3"], "ppt reduce takes no --count")
      for which in ("mincut-oct", "oct-vc") for action in ([], ["reduce"])],
    *[(["ppt", which, "lift", *option], f"ppt lift needs {missing}")
      for which in ("mincut-oct", "oct-vc")
      for option, missing in ((["--count", "3"], "--context"),
                              (["--context", "{dir}/ctx.json"], "--count"),
                              ([], "--context and --count"))],
])
def test_an_option_the_step_ignores_is_a_usage_error(tmp_path, capsys, argv, message):
    graph = write(tmp_path, "g.gr", PATH_ST_TEXT)
    before = sorted(tmp_path.iterdir())
    with pytest.raises(SystemExit) as err:
        main([arg.format(graph=graph, dir=tmp_path) for arg in argv])
    assert err.value.code == 2
    out, err_text = capsys.readouterr()
    assert out == "" and f"error: {message}" in err_text
    assert sorted(tmp_path.iterdir()) == before


def test_compose_exact_extract_pipeline(tmp_path, capsys):
    a = write(tmp_path, "a.gr", PATH_ST_TEXT)
    b = write(tmp_path, "b.gr", PATH_ST_TEXT)
    out = str(tmp_path / "exact.gr")
    meta = str(tmp_path / "meta.json")
    td = str(tmp_path / "td.json")
    assert main(["compose", "exact", "--inputs", f"{a},{b}", "--out", out,
                 "--meta", meta, "--td", td]) == 0
    capsys.readouterr()
    assert main(["oracle", "mincut", "--graph", out]) == 0
    assert capsys.readouterr().out.strip() == "544"
    assert main(["extract", "--meta", meta, "--count", "544"]) == 0
    assert capsys.readouterr().out.split() == ["2", "2"]
    witness = json.loads((tmp_path / "td.json").read_text())
    assert witness["bags"]


@pytest.mark.parametrize("corrupt", [
    lambda d: {k: v for k, v in d.items() if k != "ell"},
    lambda d: {**d, "exponents": d["exponents"][:1]},
    lambda d: {**d, "ell": str(d["ell"])},
    lambda d: {**d, "exponents": [-e for e in d["exponents"]]},
], ids=["no-ell", "short-exponents", "ell-string", "negative-exponent"])
def test_extract_malformed_metadata_exits_3(tmp_path, capsys, corrupt):
    a = write(tmp_path, "a.gr", PATH_ST_TEXT)
    meta = tmp_path / "meta.json"
    assert main(["compose", "exact", "--inputs", f"{a},{a}", "--out",
                 str(tmp_path / "exact.gr"), "--meta", str(meta)]) == 0
    meta.write_text(json.dumps(corrupt(json.loads(meta.read_text()))))
    capsys.readouterr()
    assert main(["extract", "--meta", str(meta), "--count", "544"]) == 3
    assert "exact metadata" in capsys.readouterr().err


@NONCANONICAL_COUNTS
def test_extract_refuses_noncanonical_counts(tmp_path, capsys, count):
    a = write(tmp_path, "a.gr", PATH_ST_TEXT)
    meta = str(tmp_path / "meta.json")
    assert main(["compose", "exact", "--inputs", f"{a},{a}", "--out",
                 str(tmp_path / "exact.gr"), "--meta", meta]) == 0
    capsys.readouterr()
    assert main(["extract", "--meta", meta, "--count", count]) == 3
    assert "not a nonnegative decimal" in capsys.readouterr().err


def test_extract_refuses_deeply_nested_metadata(tmp_path, capsys):
    meta = write(tmp_path, "meta.json", "[" * 200_000)
    assert main(["extract", "--meta", meta, "--count", "1"]) == 3
    assert "exact metadata is not JSON" in capsys.readouterr().err


def _decimal(value):
    """str(value) past the interpreter's int/str digit cap, if it has one."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return str(value)
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(cap)


def test_extract_reads_and_prints_counts_over_4300_digits(tmp_path, capsys):
    # Metadata of the shape compose exact gives two 4,000-edge inputs, and
    # a count of 4,817 digits that encodes the input counts 1 and 1.
    meta = write(tmp_path, "meta.json",
                 ExactMetadata("gadget", 2, 8000, 3, (8000, 16000)).to_json())
    count = _decimal(2**16000 + 2**8000)
    assert len(count) == 4817
    cap = getattr(sys, "get_int_max_str_digits", lambda: None)()
    assert main(["extract", "--meta", meta, "--count", count]) == 0
    assert capsys.readouterr().out.split() == ["1", "1"]
    assert main(["extract", "--meta", meta, "--count", count[:-1] + "3"]) == 3
    assert "residue of 1" in capsys.readouterr().err
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == cap


def test_ppt_subcommands(tmp_path, capsys):
    src = write(tmp_path, "p.gr", PATH_ST_TEXT)
    out = str(tmp_path / "oct.gr")
    assert main(["ppt", "mincut-oct", "--graph", src, "--out", out]) == 0
    capsys.readouterr()
    assert main(["oracle", "oct", "--graph", out]) == 0
    assert capsys.readouterr().out.strip() == "2"

    k3 = write(tmp_path, "k3.gr", K3_TEXT)
    out2 = str(tmp_path / "vc.gr")
    assert main(["ppt", "oct-vc", "--graph", k3, "--k", "1", "--out", out2]) == 0
    capsys.readouterr()
    assert main(["oracle", "vc", "--graph", out2]) == 0
    assert capsys.readouterr().out.strip() == "6"


# The oracle subcommand that counts each problem.
ORACLE_OF = {"vertex-cover": "vc", "minimal-vertex-cover": "minvc",
             "odd-cycle-transversal": "oct", "min-st-cut": "mincut"}


def round_trip_corpus(name, count, seed):
    """Seeded input files' text for the registry entry ``name``.  The
    #VC kernel's hosts have k <= 1: at k = 2 a core of up to 8 vertices
    blows up to 600, past what the oracle enumerates."""
    if name == "oct-to-vc":
        return [serialize_graph(inst.graph, k=inst.k)
                for inst in verification.nice_oct_corpus(count, 5, 2, seed)]
    if name == "mincut-to-oct":
        return [serialize_graph(g, st) for g, st in verification.cut_instance_pool(
            count, 5, seed, probabilities=(0.3, 0.5), keep=lambda g: g.m <= 6)]
    rng = random.Random(seed)
    kmax = 1 if name == "vertex-cover-kernel" else 3
    return [serialize_graph(oracles.random_graph(rng.randint(1, 6), rng.choice((0.3, 0.5, 0.8)),
                                                 rng.randrange(1 << 30)), k=rng.randint(0, kmax))
            for _ in range(count)]


@pytest.mark.parametrize("command, which", list(cli.STEPS),
                         ids=[f"{command}-{which}" for command, which in cli.STEPS])
def test_every_registered_compression_round_trips_through_main(tmp_path, capsys, command,
                                                               which):
    compression = framework.default_registry()[cli.STEPS[command, which]]
    source, out, context = (str(tmp_path / name) for name in ("in.gr", "out.gr", "ctx.json"))

    def run(*argv):
        assert main(list(argv)) == 0
        return capsys.readouterr().out.strip()

    branches = set()
    for text in round_trip_corpus(compression.name, 40, seed=26):
        Path(source).write_text(text, encoding="utf-8")
        run(command, which, "reduce", "--graph", source, "--out", out, "--context", context)
        branches.add(json.loads(Path(context).read_text())["payload"].get("branch"))
        reduced_count = run("oracle", ORACLE_OF[compression.target_problem], "--graph", out)
        lifted = run(command, which, "lift", "--context", context, "--count", reduced_count)
        assert lifted == run("oracle", ORACLE_OF[compression.source_problem],
                             "--graph", source), text
    # Each context shape the entry writes appears in its corpus.
    assert branches == {"vertex-cover-kernel": {"normal", "zero"},
                        "minimal-vertex-cover-kernel": {"normal", "zero"},
                        "mincut-to-oct": {"normal", "separated"},
                        "oct-to-vc": {None}}[compression.name]


def test_gen_is_deterministic(tmp_path, capsys):
    first = tmp_path / "g1.gr"
    second = tmp_path / "g2.gr"
    for out in (first, second):
        assert main(["gen", "gnp", "--n", "6", "--p", "0.5", "--seed", "9",
                     "--out", str(out), "--terminals", "0", "5"]) == 0
    assert first.read_text() == second.read_text()
    parsed = parse_graph(first.read_text())
    assert parsed.terminals == TerminalPair(0, 5)


@pytest.mark.parametrize("n, p, seed, terminals, k", [
    (0, 0.5, 1, None, None),
    (7, 0.0, 2, (0, 6), 0),
    (30, 0.2, 3, None, 4),
    (120, 0.05, 4, (5, 100), None),
    (40, 1.0, 5, (1, 0), 12),
])
def test_gen_writes_the_reference_generators_bytes(tmp_path, capsys, n, p, seed, terminals, k):
    out = tmp_path / "g.gr"
    argv = ["gen", "gnp", "--n", str(n), "--p", str(p), "--seed", str(seed), "--out", str(out)]
    argv += ["--terminals", *map(str, terminals)] if terminals else []
    argv += ["--k", str(k)] if k is not None else []
    assert main(argv) == 0
    st = TerminalPair(*terminals) if terminals else None
    assert out.read_text() == reference_row_writer(reference_random_graph(n, p, seed), st, k)


def test_gen_refuses_a_negative_k_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "g.gr"
    assert main(["gen", "gnp", "--n", "5", "--p", "0.5", "--seed", "1",
                 "--out", str(out), "--k", "-1"]) == 3
    assert "k = -1 must be nonnegative" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ValueError, match="must be nonnegative"):
        serialize_graph(Graph.empty(1), k=-1)


def test_json_reports_time_the_subcommand_from_start_to_report(tmp_path, capsys, monkeypatch):
    graph = write(tmp_path, "star.gr", STAR_TEXT)
    for argv in (["oracle", "vc", "--graph", graph],
                 ["kernel", "vc", "reduce", "--graph", graph, "--out", str(tmp_path / "r.gr"),
                  "--context", str(tmp_path / "ctx.json")]):
        ticks = iter([100.0, 102.5])
        monkeypatch.setattr(cli.time, "monotonic", lambda: next(ticks))
        assert main([*argv, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["seconds"] == 2.5


def test_ppt_pipeline_writes_the_reference_builders_bytes(tmp_path, capsys):
    # A 1,000-vertex cycle with 1,000 random chords, cut between opposite
    # vertices, through both transformations, against the set-based
    # builders and the row writer they replaced.
    rng = random.Random(61)
    n = 1000
    edges = {ordered(v, (v + 1) % n) for v in range(n)}
    while len(edges) < 2 * n:
        edges.add(ordered(*rng.sample(range(n), 2)))
    g, st = Graph(n, frozenset(edges)), TerminalPair(0, n // 2)
    cut = write(tmp_path, "cut.gr", serialize_graph(g, st))
    oct_file, vc_file = tmp_path / "oct.gr", tmp_path / "vc.gr"
    assert main(["ppt", "mincut-oct", "--graph", cut, "--out", str(oct_file)]) == 0
    assert main(["ppt", "oct-vc", "--graph", str(oct_file), "--out", str(vc_file)]) == 0
    oct_graph, k = reference_mincut_to_oct_graph(g, st)
    doubled = reference_two_copy_matching_graph(oct_graph)
    assert k >= 2 and doubled.m > 50_000
    assert oct_file.read_bytes() == reference_row_writer(oct_graph, k=k).encode()
    assert vc_file.read_bytes() == reference_row_writer(doubled, k=oct_graph.n + k).encode()


def test_verify_suite_exit_codes(tmp_path, capsys):
    assert main(["verify", "ppt-vc", "--trials", "12", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_verify_refuses_a_negative_trials_count(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "ppt-vc", "--trials", "-1"])
    assert err.value.code == 2
    assert "--trials must be nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("suite,value", [("ppt-vc", "-1"), ("sum", "-3")])
def test_verify_refuses_a_negative_nmax(capsys, suite, value):
    with pytest.raises(SystemExit) as err:
        main(["verify", suite, "--nmax", value, "--trials", "2"])
    assert err.value.code == 2
    assert "--nmax must be nonnegative" in capsys.readouterr().err


def test_verify_refuses_a_negative_kmax(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "minvc-kernel", "--kmax", "-1", "--trials", "2"])
    assert err.value.code == 2
    assert "--kmax must be nonnegative" in capsys.readouterr().err


# The checks each sweep of ``verify all --nmax 5 --kmax 3 --seed 1
# --trials 10`` made before the round trips shared ``verify_compression``.
SMALL_SCALE_CHECKS = {
    "vc-kernel end-to-end": 40,
    "blowup decomposition at tiny scale": 10,
    "multiplicity dominance": 1024,
    "multiplicity closed form vs DP vs enumeration": 6860,
    "vc kernel size bounds": 64,
    "minimal-vc kernel end-to-end": 74,
    "sum composition": 20,
    "exact composition": 47,
    "exact composition treewidth witness": 14,
    "mincut-to-oct transformation": 20,
    "oct-to-vc transformation": 50,
}


def test_verify_all_succeeds_at_small_scale(capsys):
    assert main(["verify", "all", "--nmax", "5", "--kmax", "3", "--seed", "1",
                 "--trials", "10", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["outputs"]["passed"] is True
    checks = report["checks"]
    assert [c["name"] for c in checks] == list(SMALL_SCALE_CHECKS)
    for check in checks:
        assert check["passed"], check
        checked = int(check["detail"].split(" checks")[0])
        assert checked >= SMALL_SCALE_CHECKS[check["name"]], check


def test_verify_fails_a_sweep_whose_lift_refuses_the_count(monkeypatch, capsys):
    # One more than the blowup's true count: the lift finds a residue and
    # refuses it, which is a failed check, not an input error.
    reference = vc_kernel.reference_blowup_count
    monkeypatch.setattr(vc_kernel, "reference_blowup_count", lambda r: reference(r) + 1)
    assert main(["verify", "vc-kernel", "--trials", "20"]) == 1
    out = capsys.readouterr().out
    assert re.search(r"^FAIL vc-kernel end-to-end: .*\(n=\d+, m=\d+, k=\d+\)$", out, re.M), out


def test_verify_fails_the_exact_sweep_on_a_wrong_composed_count(monkeypatch, capsys):
    # One more cut on every composed graph: extract finds a residue and
    # refuses the count, which is a failed check, not an input error.
    monkeypatch.setattr(oracles, "count_min_st_cuts",
                        one_more_cut_on_composed_graphs(oracles.count_min_st_cuts))
    assert main(["verify", "exact", "--trials", "1"]) == 1
    out = capsys.readouterr().out
    assert re.search(r"^FAIL exact composition: .* checks in .*; pinned example count 545 != 544$",
                     out, re.M), out


def test_verify_json_report(capsys):
    assert main(["verify", "minvc-kernel", "--trials", "40", "--nmax", "5",
                 "--kmax", "2", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["outputs"]["passed"] is True
    assert report["checks"]


def test_verify_deterministic_given_seed(capsys):
    runs = []
    for _ in range(2):
        assert main(["verify", "sum", "--trials", "40", "--seed", "6", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        runs.append([(c["name"], c["passed"], c["detail"].split(" checks")[0])
                     for c in report["checks"]])
    assert runs[0] == runs[1]


def test_kernel_reduce_at_k2_10_writes_the_blowup_without_its_edge_set(
        tmp_path, monkeypatch, capsys):
    # the worst-case core at k2 = 10: a 100-edge matching, 4*10^6 blowup edges
    k2 = 10
    n2 = 2 * k2 * k2
    core = Graph.from_edges(n2, [(2 * j, 2 * j + 1) for j in range(k2 * k2)])
    graph = write(tmp_path, "matching.gr", serialize_graph(core, k=k2))

    def refuse(*args):
        raise AssertionError("kernel vc reduce built the blowup's edge set")

    monkeypatch.setattr(vc_kernel, "padded_blowup_graph", refuse)
    out = tmp_path / "reduced.gr"
    assert main(["kernel", "vc", "reduce", "--graph", graph, "--out", str(out),
                 "--context", str(tmp_path / "ctx.json"), "--json"]) == 0
    d = n2
    t = d + d * k2 + 2 * (d * k2) ** 2
    n3, m3, k3 = n2 * d + t, d * d * core.m, d * k2
    outputs = json.loads(capsys.readouterr().out)["outputs"]
    assert (outputs["reduced_n"], outputs["reduced_m"], outputs["reduced_k"]) == (n3, m3, k3)
    with out.open("rb") as fh:
        assert fh.readline() == f"p {n3} {m3}\n".encode()
        fh.seek(-64, 2)
        assert fh.read().splitlines()[-1] == f"k {k3}".encode()
    out.unlink()


# A star whose hub the degree rule deletes, and a path on three vertices
# that survives it as the core, in a host that declares 10^12 vertices.
HUGE_N = 10**12
HUGE_HOST_TEXT = f"p {HUGE_N} 6\ne 1 2\ne 1 3\ne 1 4\ne 1 5\ne 6 7\ne 7 8\nk 3\n"


@pytest.mark.parametrize("which", ["vc", "minvc"])
def test_kernel_reduce_runs_in_the_edges_whatever_n_declares(tmp_path, capsys, which):
    graph = write(tmp_path, "huge.gr", HUGE_HOST_TEXT)
    out, ctx = tmp_path / "reduced.gr", tmp_path / "ctx.json"
    tracemalloc.start()
    try:
        code = main(["kernel", which, "reduce", "--graph", graph, "--out", str(out),
                     "--context", str(ctx)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 50 * 2**20
    payload = json.loads(ctx.read_text())["payload"]
    assert (payload["branch"], payload["n1"], payload["n2"], payload["k2"]) == (
        "normal", str(HUGE_N - 1), "3", "2")
    capsys.readouterr()

    # The hub is in every cover of size at most 3.  Covers of the path
    # of size i (y_1 = 1, y_2 = 3) extend by at most 2 - i of the other
    # N - 4 vertices, which are isolated once the hub is gone.
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    if which == "vc":
        y = [oracles.count_vertex_covers_of_size(path, i) for i in range(3)]
        expected = sum(y[i] * sum(comb(HUGE_N - 4, j) for j in range(3 - i)) for i in range(3))
        core = parse_graph(out.read_text())
        reduced_count = vc_kernel.decomposed_blowup_count(
            path, int(payload["d"]), int(payload["t"]), 2)
        assert core.graph.n == 3 * 3 + int(payload["t"]) and core.k == 6
    else:
        expected = oracles.count_minimal_vertex_covers(path, 2)
        reduced_count = expected
        assert parse_graph(out.read_text()) == ParsedGraph(path, None, 2)
    assert main(["kernel", which, "lift", "--context", str(ctx),
                 "--count", str(reduced_count)]) == 0
    assert capsys.readouterr().out.strip() == str(expected)


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["oracle", "nonsense", "--graph", "x"])
    assert err.value.code == 2


def test_parse_error_exits_3(tmp_path):
    bad = write(tmp_path, "bad.gr", "p 2 1\ne 1 5\n")
    assert main(["oracle", "vc", "--graph", bad, "--k", "1"]) == 3
    assert main(["oracle", "vc", "--graph", str(tmp_path / "missing.gr"), "--k", "1"]) == 3
    no_terminals = write(tmp_path, "nt.gr", K3_TEXT)
    assert main(["oracle", "mincut", "--graph", no_terminals]) == 3
    assert main(["ppt", "mincut-oct", "--graph", no_terminals,
                 "--out", str(tmp_path / "o.gr")]) == 3


def test_a_file_that_is_not_utf8_exits_3_without_a_traceback(tmp_path, capsys, monkeypatch):
    bad = tmp_path / "bad.gr"
    bad.write_bytes(b"c caf\xc3\xa9\np 2 1\ne 1 2\nc \xff\n")
    for block in (4, 1 << 22):
        monkeypatch.setattr(graphs, "_BLOCK", block)
        assert main(["oracle", "vc", "--graph", str(bad), "--k", "1"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: 'utf-8' codec can't decode byte 0xff")
        assert "Traceback" not in err


LABEL_CAP = 2**63 - 1


@pytest.mark.parametrize("edges,code", [
    (["e 99999999999999999999 1"], 3),
    (["e 1 2", f"e 1 {LABEL_CAP + 1}"], 3),
    (["e 1 2"], 0),
    ([f"e {LABEL_CAP} 1"], 0),
])
def test_kernel_reduce_refuses_labels_past_the_column_type_whatever_n_declares(
        tmp_path, capsys, edges, code):
    text = "\n".join([f"p {10**20} {len(edges)}", *edges, "k 1"]) + "\n"
    graph = write(tmp_path, "huge.gr", text)
    out, ctx = tmp_path / "reduced.gr", tmp_path / "ctx.json"
    assert main(["kernel", "vc", "reduce", "--graph", graph, "--out", str(out),
                 "--context", str(ctx)]) == code
    err = capsys.readouterr().err
    if code:
        assert err == f"error: line {len(edges) + 1}: endpoint above {LABEL_CAP}, " \
                      "the largest label\n"
        assert not out.exists()
    else:
        assert json.loads(ctx.read_text())["payload"]["n1"] == str(10**20)


def test_size_guard_exits_4(tmp_path):
    big = Graph.empty(64)
    path = write(tmp_path, "big.gr", serialize_graph(big))
    assert main(["oracle", "vc", "--graph", path, "--k", "32"]) == 4


def test_size_guard_exits_4_at_once_on_a_huge_n_and_k(tmp_path, capsys):
    path = write(tmp_path, "big.gr", serialize_graph(Graph.empty(20000)))
    started = time.perf_counter()
    assert main(["oracle", "vc", "--graph", path, "--k", "20000"]) == 4
    assert time.perf_counter() - started < 2.0
    assert "more than 67108864 candidate subsets" in capsys.readouterr().err


# Runs the argument lists in argv[1] (a JSON list of lists) through
# cli.main, then the ones in argv[2]; prints the exit codes and the
# countkernel modules loaded after each half.
FOOTPRINT_SCRIPT = """
import contextlib, io, json, sys
from countkernel import cli

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "countkernel")

codes, footprints = [], []
for steps in map(json.loads, sys.argv[1:]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes += [cli.main(argv) for argv in steps]
    footprints.append(loaded())
slow = [m for m in ("dataclasses", "inspect") if m in sys.modules]
print(json.dumps({"codes": codes, "footprints": footprints, "slow": slow}))
"""


def test_a_kernel_step_loads_only_the_kernel_path(tmp_path):
    edge = write(tmp_path, "edge.gr", "p 2 1\ne 1 2\n")
    star = write(tmp_path, "star.gr", STAR_TEXT)
    path = write(tmp_path, "p.gr", PATH_ST_TEXT)
    t = {name: str(tmp_path / name) for name in
         ("vc.gr", "vc.json", "minvc.gr", "minvc.json", "exact.gr", "meta.json", "oct.gr",
          "oct.json", "doubled.gr", "doubled.json", "gen.gr")}
    kernel_steps = [
        ["kernel", "vc", "reduce", "--graph", edge, "--k", "1",
         "--out", t["vc.gr"], "--context", t["vc.json"]],
        ["kernel", "vc", "lift", "--context", t["vc.json"], "--count", "2"],
        ["kernel", "minvc", "reduce", "--graph", star,
         "--out", t["minvc.gr"], "--context", t["minvc.json"]],
        ["kernel", "minvc", "lift", "--context", t["minvc.json"], "--count", "2"],
    ]
    cut_steps = [
        ["compose", "exact", "--inputs", f"{path},{path}", "--out", t["exact.gr"],
         "--meta", t["meta.json"]],
        ["extract", "--meta", t["meta.json"], "--count", "544"],
        ["ppt", "mincut-oct", "--graph", path, "--out", t["oct.gr"], "--context", t["oct.json"]],
        ["ppt", "oct-vc", "--graph", t["oct.gr"], "--out", t["doubled.gr"],
         "--context", t["doubled.json"]],
        ["ppt", "oct-vc", "lift", "--context", t["doubled.json"], "--count", "4"],
        ["ppt", "mincut-oct", "lift", "--context", t["oct.json"], "--count", "2"],
    ]
    other_steps = [
        ["gen", "gnp", "--n", "5", "--p", "0.5", "--seed", "1", "--out", t["gen.gr"]],
        ["oracle", "vc", "--graph", edge, "--k", "1"],
        ["verify", "minvc-kernel", "--trials", "5", "--nmax", "4", "--kmax", "2"],
    ]
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-c", FOOTPRINT_SCRIPT,
         *map(json.dumps, (kernel_steps, cut_steps, other_steps))],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["codes"] == [0] * (len(kernel_steps) + len(cut_steps) + len(other_steps))
    kernel, cut, _ = result["footprints"]
    assert kernel == ["countkernel", "countkernel.cli", "countkernel.framework",
                      "countkernel.graphs", "countkernel.vc_kernel"]
    assert "countkernel.compositions" in cut
    # Neither the cut steps nor the ppt lifts among them load the sweeps.
    assert "countkernel.verification" not in cut
    # Record types are NamedTuples or slotted classes: no step pays to load these.
    assert result["slow"] == []


def test_the_cli_reads_verify_suites_and_the_size_error_without_importing_their_owners():
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    suite = next(a for a in commands.choices["verify"]._actions if a.dest == "suite")
    assert list(suite.choices) == [*verification.SUITES, "all"]
    assert oracles.OracleSizeError is framework.OracleSizeError
