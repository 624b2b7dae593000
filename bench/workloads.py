"""Seeded workloads: input generation, pipeline steps and output checks.

``setup`` functions write every input file of one round of pipeline
instances ("ops") and return the ops with their expected answers.  An
op is a list of ``countkernel`` CLI invocations; ``{out}`` in an
argument stands for the op's private output directory.  Counts that a
pipeline feeds from one step to the next are computed here, in setup,
by ``counts`` (kernel workloads) or by the brute-force oracles (cut
workloads), never by the code under test.

The seed changes vertex labels, host padding and which random gadget
edges are drawn; the sizes of the cores and instances in a round are
fixed, so every seed puts the same amount of work into a round.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from math import gcd
from pathlib import Path

import counts


@dataclass
class Op:
    """One pipeline instance: its CLI steps and what it must output."""

    id: str
    kind: str
    steps: list[list[str]]
    expect: dict


def write_graph(path: Path, n: int, edges, labels: list[str], k: int | None = None,
                terminals: tuple[int, int] | None = None) -> None:
    """Write the p/e/t/k format; ``labels[v]`` is vertex v's 1-based name."""
    lines = [f"p {n} {len(edges)}"]
    lines.extend([f"e {labels[u]} {labels[v]}" for u, v in edges])
    if terminals is not None:
        lines.append(f"t {labels[terminals[0]]} {labels[terminals[1]]}")
    if k is not None:
        lines.append(f"k {k}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def shuffled_labels(rng: random.Random, n: int) -> list[str]:
    """A seeded permutation of 1..n as names: v -> (a*v + b) mod n + 1 with
    a coprime to n.  Ten times cheaper than a full shuffle at n = 10^6."""
    while True:
        a = rng.randrange(1, max(n, 2))
        if gcd(a, n) == 1:
            break
    b = rng.randrange(n)
    return [str((a * v + b) % n + 1) for v in range(n)]


# ---------------------------------------------------------------------------
# Kernel workloads
# ---------------------------------------------------------------------------

def star_core(star_leaves: list[int], first: int) -> tuple[int, list[tuple[int, int]]]:
    """Disjoint stars on vertices first, first+1, ...; returns (n2, edges)."""
    edges = []
    v = first
    for leaves in star_leaves:
        centre = v
        edges.extend((centre, centre + j) for j in range(1, leaves + 1))
        v += leaves + 1
    return v - first, edges


def clique_core(cliques: int, size: int, first: int) -> tuple[int, list[tuple[int, int]]]:
    """Disjoint cliques K_size on vertices first, first+1, ..."""
    edges = []
    for c in range(cliques):
        base = first + c * size
        edges.extend((base + a, base + b) for a in range(size) for b in range(a + 1, size))
    return cliques * size, edges


def kernel_instance(path: Path, rng: random.Random, *, n: int, hubs: int, k2: int,
                    core: tuple[str, list[int]], min_hub_degree: int) -> dict:
    """Write a host graph around a planted core and return its expectations.

    Vertex layout before relabelling: hubs, then the core, then the rest.
    Every other vertex is a leaf of a hub (round robin) except a seeded
    handful left isolated.  With k = hubs + k2 every hub has degree above
    k, so the high-degree rule deletes exactly the hubs; core degrees
    stay at most k2, so the core survives it intact.
    """
    kind, shape = core
    if kind == "stars":
        n2, core_edges = star_core(shape, hubs)
    else:
        n2, core_edges = clique_core(shape[0], k2 + 1, hubs)
    rest = n - hubs - n2
    isolated = rng.randint(0, max(0, rest - hubs * min_hub_degree) // 50)
    leaves = rest - isolated
    if leaves < hubs * min_hub_degree:
        raise ValueError("host too small for its hubs")
    first_leaf = hubs + n2
    edges = core_edges + [(j % hubs, first_leaf + j) for j in range(leaves)]
    k = hubs + k2
    write_graph(path, n, edges, shuffled_labels(rng, n), k=k)

    m2 = len(core_edges)
    if m2 > k2 * k2:
        # More than k2^2 edges of degree at most k2: no cover within budget.
        original, reduced = 0, 0
        n3, m3, k3 = counts.ZERO_INSTANCE
        branch = "zero"
    elif kind == "stars" and max(shape) <= k2:
        y = counts.star_forest_cover_counts(shape, k2)
        original, reduced = counts.kernel_counts(y, n2, k2, n - hubs - n2)
        n3, m3, k3 = counts.blowup_size(n2, m2, k2)
        branch = "normal"
    else:
        raise ValueError(f"no closed form for a {kind} core {shape} at k2={k2}")
    return {"branch": branch, "count": str(original), "reduced_count": str(reduced),
            "reduced": [n3, m3, k3]}


def kernel_op(op_id: str, graph: str, expect: dict) -> Op:
    return Op(op_id, "kernel", [
        ["kernel", "vc", "reduce", "--graph", graph, "--out", "{out}/reduced.gr",
         "--context", "{out}/context.json", "--json"],
        ["kernel", "vc", "lift", "--context", "{out}/context.json",
         "--count", expect["reduced_count"], "--json"],
    ], expect)


# Sparse hosts: n = 10^6 once and 10^5 six times a round, ten hubs,
# k = 16, residual budget 6.  A normal core of five 4-leaf stars (n2 = 25,
# 20 edges) keeps the blowup and the lift small; a zero core of two K7
# (42 > 36 edges, degree 6) passes the degree rule and is rejected as too
# dense.  Six like-sized ops put the round's median on a steady sample.
SPARSE_HUBS = 10
SPARSE_K2 = 6
SPARSE_NORMAL = ("stars", [4] * 5)
SPARSE_ZERO = ("cliques", [2])
SPARSE_SLOTS = ((1_000_000, SPARSE_NORMAL),) + ((100_000, SPARSE_NORMAL),
                                                (100_000, SPARSE_ZERO)) * 3


def setup_kernel_sparse(seed: int, work: Path) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for slot, (n, core) in enumerate(SPARSE_SLOTS):
        path = work / f"sparse{slot}.gr"
        expect = kernel_instance(path, rng, n=n, hubs=SPARSE_HUBS, k2=SPARSE_K2,
                                 core=core, min_hub_degree=SPARSE_HUBS + SPARSE_K2 + 1)
        ops.append(kernel_op(f"sparse{slot}", str(path), expect))
    return ops


# Dense cores at residual budget k2 = 5..8.  Yes-cores are k2 (or k2-1)
# stars of degree k2, n2 close to k2(k2+1); no-cores are k2^2-edge
# matchings, n2 = 2 k2^2, count 0, the worst case for the blowup and the
# multiplicity DP.  The k2 = 8 matching is left out: its op (a 13 MB
# blowup, ~16 s on a 2-CPU x86 VM) would be most of a run and leave too
# few samples for a steady median.  The k2 = 6 no-core and the k2 = 8
# yes-core, ops of similar length, come twice, so the round's median falls
# among four like ops.
DENSE_HUBS = 2
DENSE_SLOTS = (
    (5, ("stars", [5] * 5)),
    (5, ("stars", [1] * 25)),
    (6, ("stars", [6] * 5)),
    (6, ("stars", [1] * 36)),
    (6, ("stars", [1] * 36)),
    (7, ("stars", [7] * 7)),
    (7, ("stars", [1] * 49)),
    (8, ("stars", [8] * 7)),
    (8, ("stars", [8] * 7)),
)


def setup_kernel_dense(seed: int, work: Path) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for slot, (k2, core) in enumerate(DENSE_SLOTS):
        min_degree = DENSE_HUBS + k2 + 1
        n2 = sum(leaves + 1 for leaves in core[1])
        n = DENSE_HUBS + n2 + DENSE_HUBS * (min_degree + rng.randint(0, 20)) + rng.randint(0, 30)
        path = work / f"dense{slot}.gr"
        expect = kernel_instance(path, rng, n=n, hubs=DENSE_HUBS, k2=k2, core=core,
                                 min_hub_degree=min_degree)
        ops.append(kernel_op(f"dense{slot}", str(path), expect))
    return ops


def check_kernel(op: Op, reports: list[dict], out: Path) -> tuple[list[str], dict]:
    errors = []
    exp = op.expect
    reduce_out, lift_out = reports[0]["outputs"], reports[1]["outputs"]
    n3, m3, k3 = exp["reduced"]
    got = [reduce_out.get("reduced_n"), reduce_out.get("reduced_m"), reduce_out.get("reduced_k")]
    if got != [n3, m3, k3]:
        errors.append(f"reduce report n/m/k {got} != {[n3, m3, k3]}")
    header = graph_header(out / "reduced.gr")
    if header != (n3, m3, k3):
        errors.append(f"reduced file p/k records {header} != {(n3, m3, k3)}")
    context = json.loads((out / "context.json").read_text(encoding="utf-8"))
    branch = context.get("payload", {}).get("branch")
    if branch != exp["branch"]:
        errors.append(f"branch {branch} != {exp['branch']}")
    if lift_out.get("value") != exp["count"]:
        errors.append(f"lifted count {lift_out.get('value')} != {exp['count']}")
    return errors, {"branch": branch}


# ---------------------------------------------------------------------------
# Cut workloads
# ---------------------------------------------------------------------------

CUT = 3


def min_cut(n: int, edges) -> int:
    from countkernel.graphs import Graph, TerminalPair
    from countkernel.oracles import min_cut_size

    return min_cut_size(Graph(n, frozenset(edges)), TerminalPair(0, 1))


def cut_gadget_instance(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """A cut instance on n >= 10 vertices with m edges and min cut CUT, s = 0, t = 1.

    Two K4 clusters around s and t joined by CUT paths through the other
    vertices, plus random extra edges; drawn again until the extras keep
    the minimum cut at CUT.  The K4s make several cuts minimum, so the
    counts are not all 1.
    """
    while True:
        s_side, t_side = [0, 2, 3, 4], [1, 5, 6, 7]
        edges = {(a, b) for side in (s_side, t_side) for a in side for b in side if a < b}
        inner = list(range(8, n))
        rng.shuffle(inner)
        bounds = [0] + sorted(rng.sample(range(len(inner) + 1), CUT - 1)) + [len(inner)]
        for p in range(CUT):
            path = [rng.choice(s_side)] + inner[bounds[p]:bounds[p + 1]] + [rng.choice(t_side)]
            edges.update((min(a, b), max(a, b)) for a, b in zip(path, path[1:]))
        while len(edges) < m:
            a, b = rng.sample(range(n), 2)
            edges.add((min(a, b), max(a, b)))
        if min_cut(n, edges) == CUT:
            return sorted(edges)


def ppt_instance(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """A connected cut instance with n vertices, m edges and min cut CUT, s = 0, t = 1.

    s = 0 and t = 1 get CUT neighbours each on a Hamiltonian cycle of the
    other vertices plus random chords; drawn again until the minimum cut
    is exactly CUT.
    """
    while True:
        ring = list(range(2, n))
        rng.shuffle(ring)
        edges = {(min(a, b), max(a, b)) for a, b in zip(ring, ring[1:] + ring[:1])}
        for terminal in (0, 1):
            edges.update((terminal, v) for v in rng.sample(ring, CUT))
        while len(edges) < m:
            a, b = rng.sample(ring, 2)
            edges.add((min(a, b), max(a, b)))
        if min_cut(n, edges) == CUT:
            return sorted(edges)


# (ell, n, m) for compose exact -> extract; n for mincut-oct -> oct-vc
# (m = 2n).  The two n = 2000 instances put the round's median there.
COMPOSE_SLOTS = ((4, 10, 18), (6, 11, 20), (8, 12, 22))
PPT_SLOTS = (1000, 2000, 2000, 3000)


def setup_cut_pipelines(seed: int, work: Path) -> list[Op]:
    from countkernel.graphs import Graph, TerminalPair
    from countkernel.oracles import count_min_st_cuts

    rng = random.Random(seed)
    ops = []
    for slot, (ell, n, m) in enumerate(COMPOSE_SLOTS):
        paths, answers = [], []
        for i in range(ell):
            edges = cut_gadget_instance(rng, n, m)
            path = work / f"compose{slot}_{i}.gr"
            write_graph(path, n, edges, shuffled_labels(rng, n), terminals=(0, 1))
            answers.append(count_min_st_cuts(Graph(n, frozenset(edges)), TerminalPair(0, 1))[0])
            paths.append(str(path))
        composed, n_out, m_out = counts.exact_composition(answers, [(n, m)] * ell)
        ops.append(Op(f"compose{slot}", "compose", [
            ["compose", "exact", "--inputs", ",".join(paths), "--out", "{out}/composed.gr",
             "--meta", "{out}/meta.json", "--td", "{out}/td.json", "--json"],
            ["extract", "--meta", "{out}/meta.json", "--count", str(composed), "--json"],
        ], {"values": [str(q) for q in answers], "composed": [n_out, m_out]}))
    for slot, n in enumerate(PPT_SLOTS):
        m = 2 * n
        edges = ppt_instance(rng, n, m)
        path = work / f"ppt{slot}.gr"
        write_graph(path, n, edges, shuffled_labels(rng, n), terminals=(0, 1))
        oct_size = counts.mincut_to_oct_size(n, m, CUT)
        ops.append(Op(f"ppt{slot}", "ppt", [
            ["ppt", "mincut-oct", "--graph", str(path), "--out", "{out}/oct.gr", "--json"],
            ["ppt", "oct-vc", "--graph", "{out}/oct.gr", "--out", "{out}/vc.gr", "--json"],
        ], {"oct": list(oct_size), "vc": list(counts.oct_to_vc_size(*oct_size))}))
    return ops


def check_compose(op: Op, reports: list[dict], out: Path) -> tuple[list[str], dict]:
    errors = []
    n_out, m_out = op.expect["composed"]
    header = graph_header(out / "composed.gr")
    if header[:2] != (n_out, m_out):
        errors.append(f"composed p record {header[:2]} != {(n_out, m_out)}")
    if reports[0]["outputs"].get("branch") != "gadget":
        errors.append(f"composition branch {reports[0]['outputs'].get('branch')} != gadget")
    values = reports[1]["outputs"].get("values")
    if values != op.expect["values"]:
        errors.append(f"extracted {values} != {op.expect['values']}")
    return errors, {}


def check_ppt(op: Op, reports: list[dict], out: Path) -> tuple[list[str], dict]:
    errors = []
    for name in ("oct", "vc"):
        header = graph_header(out / f"{name}.gr")
        if list(header) != op.expect[name]:
            errors.append(f"{name} output n/m/k {list(header)} != {op.expect[name]}")
    return errors, {}


# ---------------------------------------------------------------------------
# Verification sweeps
# ---------------------------------------------------------------------------

# (suite, --trials, checks each sweep reported at commit 7357a96 for
# these arguments with --nmax 6 --kmax 4 --seed 0).
VERIFY_ARGS = ["--nmax", "6", "--kmax", "4", "--seed", "0"]
VERIFY_SLOTS = (
    ("minvc-kernel", 3000, {"minimal-vc kernel end-to-end": 22455}),
    ("sum", 30, {"sum composition": 60}),
    ("ppt-oct", 500, {"mincut-to-oct transformation": 1000}),
    ("ppt-vc", 600, {"oct-to-vc transformation": 3000}),
)


def setup_verify_sweep(seed: int, work: Path) -> list[Op]:
    return [Op(f"verify-{suite}", "verify",
               [["verify", suite, *VERIFY_ARGS, "--trials", str(trials), "--json"]],
               {"min_checked": minimum})
            for suite, trials, minimum in VERIFY_SLOTS]


def check_verify(op: Op, reports: list[dict], out: Path) -> tuple[list[str], dict]:
    errors = []
    report = reports[0]
    checked = {}
    for check in report.get("checks", []):
        match = re.match(r"(\d+) checks", check.get("detail", ""))
        checked[check.get("name")] = int(match.group(1)) if match else -1
        if not check.get("passed"):
            errors.append(f"FAIL {check.get('name')}: {check.get('detail')}")
    for name, minimum in op.expect["min_checked"].items():
        if checked.get(name, -1) < minimum:
            errors.append(f"{name}: {checked.get(name)} checks < {minimum} recorded at 7357a96")
    if report.get("outputs", {}).get("passed") is not True:
        errors.append("verify report did not pass")
    return errors, {"checked": checked}


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def graph_header(path: Path) -> tuple[int | None, int | None, int | None]:
    """(n, m, k) from a graph file's p record and trailing k record."""
    with path.open("rb") as fh:
        first = fh.readline().split()
        fh.seek(0, 2)
        fh.seek(max(0, fh.tell() - 64))
        last = fh.read().splitlines()[-1].split()
    n = m = k = None
    if len(first) == 3 and first[0] == b"p":
        n, m = int(first[1]), int(first[2])
    if len(last) == 2 and last[0] == b"k":
        k = int(last[1])
    return n, m, k


def outcome_digest(out: Path, reports: list[dict]) -> dict:
    """What an op produced, for comparing a traced run with an untraced one:
    a digest of every output file and the reports without timings."""
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(out.iterdir()) if p.is_file()}
    stripped = []
    for report in reports:
        report = {key: value for key, value in report.items() if key != "seconds"}
        report["checks"] = [{**c, "detail": re.sub(r" in [0-9.]+s", "", c["detail"])}
                            for c in report.get("checks", [])]
        stripped.append(report)
    return {"files": files, "reports": stripped}


CHECKS = {"kernel": check_kernel, "compose": check_compose, "ppt": check_ppt,
          "verify": check_verify}


@dataclass(frozen=True)
class Workload:
    setup: object
    # Spans the traced run must record at least once.
    spans: tuple[str, ...]


KERNEL_SPANS = (
    "cli.main", "graphs.parse_graph", "graphs.serialize_graph", "vc_kernel.buss_reduce",
    "vc_kernel.strip_isolated", "vc_kernel.build_padded_blowup", "vc_kernel.lift_vertex_cover",
    "vc_kernel.blowup_cover_multiplicity", "framework.LiftContext.to_json",
    "framework.LiftContext.from_json",
)

WORKLOADS = {
    "kernel-sparse": Workload(setup_kernel_sparse, KERNEL_SPANS),
    "kernel-dense": Workload(setup_kernel_dense, KERNEL_SPANS),
    "cut-pipelines": Workload(setup_cut_pipelines, (
        "cli.main", "graphs.parse_graph", "graphs.serialize_graph",
        "graphs.validate_tree_decomposition", "graphs.subdivide_all_edges",
        "graphs.false_twin_blowup", "compositions.exact_compose", "compositions.extract_counts",
        "compositions.mincut_to_oct_reduce", "compositions.oct_to_vc_reduce",
        "oracles.exact_treewidth", "oracles.min_cut_size",
    )),
    "verify-sweep": Workload(setup_verify_sweep, (
        "cli.main", "verification.sweep_minimal_vc", "verification.sweep_sum",
        "verification.sweep_ppt_oct", "verification.sweep_ppt_vc",
        "oracles.count_minimal_vertex_covers", "oracles.count_min_st_cuts",
        "oracles.count_odd_cycle_transversals", "oracles.is_nice_oct_instance",
        "oracles.count_vertex_covers", "oracles.max_matching_size", "oracles.min_cut_size",
    )),
}
