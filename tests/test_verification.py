"""A planted fault in what a sweep checks fails that sweep, and a sweep
split across processes reports what one process reports.

Each planted case runs a sweep at small arguments twice: as it is,
where it must pass, and with one name it checks through replaced in the
``verification`` module, where it must fail and its first failure must
name the fault.  Some faults show only on a repeated instance, so a
sweep that reused a round trip, and not only the oracle's answer,
would miss them.  The forked workers inherit each replacement.

The split cases force the number of processes through
``parallel.cpus``: 1 runs a sweep serially, 2 or more forks.
"""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from countkernel import cli, parallel
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


def workers(monkeypatch, count: int) -> None:
    monkeypatch.setattr(parallel, "cpus", lambda: count)


def instance_line(g, k) -> str:
    return f"{g.n} {sorted(g.edges)} {k}\n"


def record_calls(monkeypatch, path: Path, name: str = "count_minimal_vertex_covers"):
    """Replace the oracle with one that appends each call to ``path``, a
    file every forked worker appends to."""
    real = getattr(V.oracles, name)

    def counted(g, k):
        with open(path, "a", encoding="utf-8") as log:
            log.write(instance_line(g, k))
        return real(g, k)

    monkeypatch.setattr(V.oracles, name, counted)


def test_each_oracle_runs_once_per_distinct_instance(monkeypatch, tmp_path):
    # Split over 2 processes, whose oracle calls all land in one file.
    workers(monkeypatch, 2)
    record_calls(monkeypatch, tmp_path / "calls")
    assert V.sweep_minimal_vc(graphs=300, nmax=6, kmax=4, seed=0).passed
    calls = (tmp_path / "calls").read_text(encoding="utf-8").splitlines(keepends=True)
    reduce = minimal_vertex_cover_kernel().reduce
    keys = set()
    for g in V.graph_corpus(300, 6, 0):
        for k in range(5):
            reduced = reduce(CountingInstance(g, None, k)).reduced
            keys |= {instance_line(g, k), instance_line(reduced.graph, reduced.k)}
    assert len(set(calls)) == len(calls) == len(keys)


def test_a_refused_instance_is_asked_again(monkeypatch):
    asked = []

    def oracle(problem, inst):
        asked.append(inst)
        return V.oracle_count(problem, inst)

    monkeypatch.setattr(V.oracles, "SUBSET_LIMIT", 10)
    count = V.Shared(oracle)
    inst = CountingInstance(Graph.empty(8), None, 4)
    for _ in range(2):
        with pytest.raises(V.oracles.OracleSizeError):
            count("vertex-cover", inst)
    assert asked == [inst, inst]


# ---------------------------------------------------------------------------
# The split across processes
# ---------------------------------------------------------------------------

@pytest.fixture
def deadline():
    """Fail a test whose split has not ended within a minute, instead of
    hanging; forked children do not inherit the alarm."""
    def expire(signum, frame):
        raise TimeoutError("the split did not end within 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def forked(monkeypatch):
    """The pids of the workers forked during the test."""
    pids, real = [], os.fork

    def fork():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def assert_all_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def reports(name, count, monkeypatch, **args):
    workers(monkeypatch, count)
    return [(r.name, r.checked, r.failures) for r in V.run_suite(name, **args)]


@pytest.mark.parametrize("name", sorted(V.SUITES))
def test_a_split_suite_reports_what_one_process_reports(monkeypatch, deadline, forked, name):
    args = dict(nmax=5, kmax=3, seed=1, trials=12)
    serial = reports(name, 1, monkeypatch, **args)
    assert not forked
    assert reports(name, 2, monkeypatch, **args) == serial
    assert_all_reaped(forked)


@pytest.mark.parametrize("sweep, name, plant", [
    pytest.param(lambda: V.sweep_minimal_vc(graphs=150, nmax=6, kmax=2, seed=0),
                 "minimal_vertex_cover_kernel", lift_one_more_on_repeats,
                 id="C05-minvc-lift-on-repeats"),
    pytest.param(lambda: V.sweep_sum(tuples=60, nmax=5, seed=0), "sum_compose",
                 first_part_on_repeats, id="C06-sum-on-repeats"),
])
def test_a_planted_repeat_fault_fails_alike_split_and_unsplit(monkeypatch, deadline,
                                                              sweep, name, plant):
    real = getattr(V, name)
    runs = []
    for count in (1, 2):
        # A fresh plant a run: a plant's record of what it saw outlives the sweep.
        monkeypatch.setattr(V, name, plant(real))
        workers(monkeypatch, count)
        runs.append(sweep())
    serial, split = runs
    assert serial.failures and (split.checked, split.failures) == (serial.checked, serial.failures)


@pytest.mark.parametrize("sweep, oracle", [
    pytest.param(lambda: V.sweep_minimal_vc(graphs=200, nmax=6, kmax=4, seed=3),
                 "count_minimal_vertex_covers", id="minvc"),
    pytest.param(lambda: V.sweep_sum(tuples=40, nmax=5, seed=2), "count_min_st_cuts",
                 id="sum"),
])
def test_more_workers_than_cpus_share_every_answer(monkeypatch, tmp_path, deadline, forked,
                                                  sweep, oracle):
    """Five processes on any machine: each distinct instance is still
    brute-forced once, and the report is the serial one."""
    workers(monkeypatch, 1)
    serial = sweep()
    record_calls(monkeypatch, tmp_path / "calls", oracle)
    workers(monkeypatch, 5)
    split = sweep()
    calls = (tmp_path / "calls").read_text(encoding="utf-8").splitlines()
    assert len(forked) == 4 and len(set(calls)) == len(calls)
    assert (split.checked, split.failures) == (serial.checked, serial.failures)
    assert_all_reaped(forked)


def test_the_exception_of_the_lowest_instance_is_raised(monkeypatch, deadline):
    caller, only_workers = os.getpid(), False
    real = V.oracles.count_minimal_vertex_covers

    def refuse(g, k):
        if g.n == 5 and not (only_workers and os.getpid() == caller):
            raise ValueError(f"planted refusal of {sorted(g.edges)} at k={k}")
        return real(g, k)

    monkeypatch.setattr(V.oracles, "count_minimal_vertex_covers", refuse)
    messages = []
    for count in (1, 2, 3):
        workers(monkeypatch, count)
        with pytest.raises(ValueError, match="planted refusal") as raised:
            V.sweep_minimal_vc(graphs=300, nmax=6, kmax=4, seed=0)
        messages.append(str(raised.value))
    assert messages[2] == messages[1] == messages[0]
    # Refused in the workers only, the error still reaches the caller with its type.
    only_workers = True
    workers(monkeypatch, 2)
    with pytest.raises(ValueError, match="planted refusal"):
        V.sweep_minimal_vc(graphs=300, nmax=6, kmax=4, seed=0)


def test_an_oracle_size_refusal_in_a_worker_exits_4(monkeypatch, capsys, deadline, forked):
    workers(monkeypatch, 2)
    monkeypatch.setattr(V.oracles, "SUBSET_LIMIT", 10)
    assert cli.main(["verify", "minvc-kernel", "--nmax", "6", "--kmax", "4",
                     "--trials", "40"]) == 4
    assert "error:" in capsys.readouterr().err
    assert len(forked) == 1
    assert_all_reaped(forked)


def test_a_worker_that_dies_is_named_without_a_hang(monkeypatch, deadline, forked):
    caller = os.getpid()
    real = V.oracles.count_minimal_vertex_covers

    def die(g, k):
        if os.getpid() != caller:
            os._exit(9)
        return real(g, k)

    monkeypatch.setattr(V.oracles, "count_minimal_vertex_covers", die)
    workers(monkeypatch, 2)
    with pytest.raises(parallel.WorkerError, match=r"worker 1 \(pid \d+\) exited with status 9"):
        V.sweep_minimal_vc(graphs=300, nmax=6, kmax=4, seed=0)
    assert len(forked) == 1
    assert_all_reaped(forked)


def test_an_interrupt_in_the_caller_waits_for_every_worker(monkeypatch, deadline, forked):
    caller, asked = os.getpid(), []
    real = V.oracles.count_minimal_vertex_covers

    def interrupted(g, k):
        if os.getpid() == caller:
            asked.append(g)
            if len(asked) == 50:
                raise KeyboardInterrupt
        return real(g, k)

    monkeypatch.setattr(V.oracles, "count_minimal_vertex_covers", interrupted)
    workers(monkeypatch, 3)
    with pytest.raises(KeyboardInterrupt):
        V.sweep_minimal_vc(graphs=600, nmax=6, kmax=4, seed=0)
    assert len(forked) == 2
    assert_all_reaped(forked)


def test_a_process_with_other_threads_runs_a_sweep_serially(monkeypatch, forked):
    serial = reports("minvc-kernel", 1, monkeypatch, nmax=5, kmax=3, seed=1, trials=40)
    release = threading.Event()
    waiting = threading.Thread(target=release.wait, daemon=True)
    waiting.start()
    try:
        assert reports("minvc-kernel", 2, monkeypatch, nmax=5, kmax=3, seed=1, trials=40) == serial
    finally:
        release.set()
        waiting.join(timeout=10)
    assert not waiting.is_alive() and not forked


def run_python(code: str, *pre) -> subprocess.CompletedProcess:
    src = Path(V.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run([*pre, sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)


def test_workers_never_write_the_callers_buffered_output():
    # A pipe makes stdout block-buffered, so the line is still unwritten at the fork.
    done = run_python(
        "import sys\n"
        "sys.stdout.write('written once\\n')\n"
        "from countkernel import parallel, verification as V\n"
        "parallel.cpus = lambda: 3\n"
        "print(V.sweep_sum(tuples=12, nmax=5, seed=0).passed)\n")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "written once\nTrue\n"


def ended(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] in "ZX"
    except FileNotFoundError:
        return True


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
def test_workers_stop_when_their_caller_dies_holding_a_claim(tmp_path):
    # The caller claims the one key and dies computing it; the workers,
    # which ask that key later, must end instead of waiting for ever.
    code = (
        "import os, sys, time\n"
        "from countkernel import parallel\n"
        "caller, fork = os.getpid(), os.fork\n"
        "def recorded():\n"
        "    pid = fork()\n"
        "    if pid:\n"
        "        print(pid, flush=True)\n"
        "    return pid\n"
        "os.fork = recorded\n"
        "def oracle():\n"
        "    if os.getpid() == caller:\n"
        "        os._exit(0)\n"
        "    return 1\n"
        "table = parallel.Shared(oracle, key=lambda: ('one key',))\n"
        "def check(index):\n"
        "    if os.getpid() != caller:\n"
        "        time.sleep(0.5)\n"
        "    yield table() == 1, 'answered'\n"
        "parallel.cpus = lambda: 3\n"
        "parallel.run(list(range(30)), lambda index: index, check, 12, (table,))\n")
    src = Path(V.__file__).resolve().parents[1]
    # A file, not a pipe, so that waiting for the caller does not wait for its workers.
    with open(tmp_path / "pids", "w") as out:
        done = subprocess.run([sys.executable, "-c", code], stdout=out, timeout=60,
                              env={**os.environ, "PYTHONPATH": str(src)})
    workers = [int(line) for line in (tmp_path / "pids").read_text().split()]
    try:
        assert done.returncode == 0 and len(workers) == 2
        for _ in range(200):
            if all(ended(pid) for pid in workers):
                break
            time.sleep(0.05)
        assert all(ended(pid) for pid in workers)
    finally:
        for pid in workers:
            if not ended(pid):
                os.kill(pid, signal.SIGKILL)


def test_a_process_on_one_cpu_runs_a_sweep_serially():
    done = run_python(
        "import os\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "from countkernel import parallel, verification as V\n"
        "assert parallel.cpus() == 1\n"
        "def refuse():\n"
        "    raise AssertionError('forked on one CPU')\n"
        "os.fork = refuse\n"
        "print(V.sweep_minimal_vc(graphs=40, nmax=5, kmax=2, seed=0).passed)\n")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "True\n"
