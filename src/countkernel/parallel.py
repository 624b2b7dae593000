"""Run a verification sweep's independent checks on every CPU this
process may use, with the report one process gives.

``run(instances, key, check, keep, tables)`` calls ``check(instance)``,
an iterable of (ok, message) pairs, on each instance of a sequence
built before the split.  It returns the number of checks and the first
``keep`` failures' messages in instance order, failures of one
instance in check order, whatever the number of processes.

W processes split the sequence: W is the number of CPUs this process
may run on (``os.sched_getaffinity``, else ``os.cpu_count``), capped by
the instance count.  Each instance goes to bucket ``hash(key(instance))
% 64W``, where the key is made of ints only, so the repeats of an
instance share a bucket.  Whichever process is free takes the next
bucket and checks its instances in index order, so one costly instance
does not leave the other processes idle.  The calling process works
one share itself and forks the other W - 1 with ``os.fork``, so the
children inherit the interpreter as it is, the module patches of a
test included.  A process pinned to one CPU (``taskset -c 0``), one
that runs other threads (a fork copies only the calling thread, and
with it any lock another thread holds), or a platform without ``fork``
runs the sequence serially.

``Shared`` oracle tables made before the split and handed to ``run``
share their answers between the processes through one claim table in
memory that the forked processes share (``_Claims``): the first process
to ask a key claims it, computes the answer and publishes it, and
another process that asks that key waits for the published answer.  So
each oracle still runs once per distinct key across all processes.

An exception stops the checks of the instances after it; once every
share has ended, the exception of the lowest instance index is raised
in the caller with its type and message.  A child that dies raises
``WorkerError`` naming it.  On every path, an interrupt included, every
child is waited for, and children end with ``os._exit``, so the caller's
buffered output is never written twice; a child whose caller has died
ends rather than wait for the caller's claims.  The caller merges the report:
a benchmark that reads the caller's peak memory or times its spans
sees only the caller's share.
"""

from __future__ import annotations

import os
import pickle
import sys
import time
from array import array
from itertools import accumulate


class WorkerError(RuntimeError):
    """A forked worker ended without reporting its share."""


def cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class Shared:
    """``oracle``, asked once per key: its answer is stored under
    ``key(*args)`` and returned again for a repeat.  Only answers are
    stored; an exception, such as an ``OracleSizeError``, stores nothing
    and is raised again by the next ask.  While ``run`` splits a sweep
    that was handed the table, a key missing here is asked through the
    split's claim table, so no other process computes it again."""

    def __init__(self, oracle, key=lambda *args: args):
        self.oracle, self.key, self.answers = oracle, key, {}
        # (claim table, this table's index in it) while a split runs.
        self.claims = None

    def __call__(self, *args):
        k = self.key(*args)
        if k not in self.answers:
            if self.claims is None:
                self.answers[k] = self.oracle(*args)
            else:
                claims, index = self.claims
                self.answers[k] = claims.ask(index, k, lambda: self.oracle(*args))
        return self.answers[k]


def run(instances, key, check, keep: int, tables=()) -> tuple[int, list[str]]:
    """(number of checks, first ``keep`` failure messages) of ``check``
    over ``instances``, split across the CPUs by ``key``; ``tables`` are
    the ``Shared`` tables ``check`` asks."""
    workers = min(cpus(), len(instances))
    threading = sys.modules.get("threading")
    if (workers < 2 or not hasattr(os, "fork")
            or threading is not None and threading.active_count() > 1):
        return _merge([_work(instances, range(len(instances)), check, keep)], keep)
    indices, ends = _buckets(instances, key, 64 * workers)
    with _Split(workers, len(instances), tables) as split:
        def share():
            result = _work(instances, split.claims.take(indices, ends), check, keep)
            split.claims.flush()
            return result

        for rank in range(1, workers):
            split.fork(rank, share)
        results = [share()]
        results += split.collect()
    return _merge(results, keep)


def _buckets(instances, key, count: int) -> tuple[array, array]:
    """The instance indices sorted by bucket, ``hash(key(instance)) %
    count``, and in index order within a bucket; and each bucket's end."""
    buckets = array("q", (hash(key(instance)) % count for instance in instances))
    sizes = [0] * count
    for bucket in buckets:
        sizes[bucket] += 1
    ends = array("q", accumulate(sizes))
    free = array("q", (end - size for end, size in zip(ends, sizes)))
    indices = array("q", bytes(8 * len(buckets)))
    for index, bucket in enumerate(buckets):
        indices[free[bucket]] = index
        free[bucket] += 1
    return indices, ends


def _work(instances, indices, check, keep: int):
    """(checks, first failures as (index, position, message), first
    error as (index, exception) or None) of the instances at
    ``indices``; after an error only lower indices are checked."""
    checked, failures, error = 0, [], None
    for index in indices:
        if error is not None and index > error[0]:
            continue
        try:
            for position, (ok, message) in enumerate(check(instances[index])):
                checked += 1
                if not ok:
                    failures.append((index, position, message))
                    if len(failures) > 2 * keep:
                        failures = sorted(failures)[:keep]
        except Exception as exc:  # raised again in the caller by _merge
            error = index, exc
    return checked, sorted(failures)[:keep], error


def _merge(results, keep: int) -> tuple[int, list[str]]:
    errors = [error for _, _, error in results if error is not None]
    if errors:
        raise min(errors, key=lambda error: error[0])[1]
    failures = sorted(failure for _, share, _ in results for failure in share)
    return sum(checked for checked, _, _ in results), [message for *_, message in failures[:keep]]


def _portable(result) -> bytes:
    """A child's result as bytes; an exception that does not survive
    pickling becomes a ``RuntimeError`` naming its type and message."""
    checked, failures, error = result
    if error is not None:
        index, exc = error
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:  # an exception class whose arguments do not round-trip
            exc = RuntimeError(f"{type(exc).__qualname__}: {exc}")
        error = index, exc
    return pickle.dumps((checked, failures, error))


class _Split:
    """The forked children of one ``run`` and their claim table; leaving
    the ``with`` block kills the children still running after an error
    and waits for every one."""

    def __init__(self, workers: int, instances: int, tables):
        self.claims = _Claims(instances, workers, self._check_alive)
        self.tables = tables
        self.children = []  # [rank, pid, read end, exit code or None]
        for index, table in enumerate(tables):
            table.claims = self.claims, index

    def __enter__(self):
        return self

    def fork(self, rank: int, work) -> None:
        caller = os.getpid()

        def orphaned(_claimant: int) -> None:
            # A child whose caller has ended stops, rather than wait for a
            # claim the caller will never publish.
            if os.getppid() != caller:
                os._exit(1)

        read, write = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read)
            os.close(write)
            raise
        if pid == 0:
            code = 1
            try:
                os.close(read)
                for child in self.children:
                    os.close(child[2])
                self.claims.serve(rank, orphaned)
                data = memoryview(_portable(work()))
                while data:
                    data = data[os.write(write, data):]
                code = 0
            finally:
                os._exit(code)
        os.close(write)
        self.children.append([rank, pid, read, None])

    def collect(self) -> list:
        """Each child's result, in rank order, once every child has ended."""
        import select

        chunks = {child[2]: [] for child in self.children}
        open_ends = {child[2]: child for child in self.children}
        while open_ends:
            ready, _, _ = select.select(list(open_ends), [], [])
            for end in ready:
                data = os.read(end, 1 << 16)
                if data:
                    chunks[end].append(data)
                    continue
                child = open_ends.pop(end)
                self._reap(child, 0)
                if child[3] != 0:
                    raise self._died(child)
        return [pickle.loads(b"".join(chunks[child[2]])) for child in self.children]

    def _reap(self, child, flags: int) -> bool:
        if child[3] is None:
            pid, status = os.waitpid(child[1], flags)
            if pid == 0:
                return False
            child[3] = os.waitstatus_to_exitcode(status)
        return True

    def _died(self, child) -> WorkerError:
        rank, pid, _, code = child
        how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
        return WorkerError(f"verification worker {rank} (pid {pid}) {how} "
                           f"before reporting its share")

    def _check_alive(self, rank: int) -> None:
        """Raise ``WorkerError`` if the child of that rank has ended: the
        caller is waiting for an answer it claimed and will never publish."""
        child = self.children[rank - 1]
        if self._reap(child, os.WNOHANG):
            raise self._died(child)

    def __exit__(self, *exc_info):
        import signal

        try:
            for child in self.children:
                if exc_info[0] is not None and child[3] is None:
                    try:
                        os.kill(child[1], signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                while child[3] is None:
                    try:
                        self._reap(child, 0)
                    except ChildProcessError:
                        child[3] = -1
        finally:
            for child in self.children:
                os.close(child[2])
            for table in self.tables:
                table.claims = None
            self.claims.close()
        return False


class _Claims:
    """Which process computes each shared oracle answer, the answers once
    computed, and the next bucket of instances to hand out, in memory
    that the forked processes share.

    A key is pickled with its sets sorted, so equal keys give equal
    bytes, and two 64-bit ``hash`` values of those bytes, the same in
    every forked process and independent of each other, stand for it.
    A slot keeps 40 bits of the first and a record all of the second,
    so two distinct keys of one split pass for each other with chance
    2^-104.  The memory holds, as 64-bit ints, the number of keys
    claimed and the next bucket; an open-addressing table of slots, each
    the first hash with a record number in its low 24 bits; and one
    record range a process, (second hash, state, claimant's rank, answer
    offset, answer length) a record.  One byte region a process then
    holds the pickled answers.
    Every read and write of shared state holds an ``fcntl`` lock on the
    memory's file.  A table three quarters full, or a region out of
    room, leaves a new key unshared: its asker computes it alone.
    """

    CLAIMED, DONE, ABSENT = 0, 1, 2
    FIELDS = 5  # the int64s of a record
    NUMBER = (1 << 24) - 1  # a slot's record number bits

    def __init__(self, instances: int, workers: int, check_alive):
        import fcntl
        import mmap

        self.lockf = fcntl.lockf
        self.LOCK_EX, self.LOCK_NB, self.LOCK_UN = fcntl.LOCK_EX, fcntl.LOCK_NB, fcntl.LOCK_UN
        self.slots = 1 << max(12, (instances - 1).bit_length())
        # Records a process may claim, and answer bytes it may write.
        self.per_rank = min(self.slots * 3 // 4, self.NUMBER // workers)
        self.region = 64 * self.slots // workers
        words = 2 + self.slots + workers * self.per_rank * self.FIELDS
        size = 8 * words + workers * self.region
        if hasattr(os, "memfd_create"):
            self.fd = os.memfd_create("countkernel-claims")
        else:
            import tempfile

            with tempfile.TemporaryFile() as file:
                self.fd = os.dup(file.fileno())
        os.ftruncate(self.fd, size)
        self.memory = mmap.mmap(self.fd, size)
        self.words = memoryview(self.memory)[:8 * words].cast("q")
        self.records = 2 + self.slots  # the first record's word
        self.serve(0, check_alive)

    def serve(self, rank: int, check_alive) -> None:
        """Claim for the process of that rank from now on; it calls
        ``check_alive(rank)`` on each claimant it waits for."""
        self.rank, self.check_alive, self.pending = rank, check_alive, None
        self.next_record = rank * self.per_rank
        self.free = len(self.memory) - self.region * (rank + 1)
        self.end = self.free + self.region

    def close(self) -> None:
        self.words.release()
        self.memory.close()
        os.close(self.fd)

    def __enter__(self):
        # The lock is held for microseconds, so try it a few times
        # before sleeping on it: a wake-up costs far more.
        for _ in range(20):
            try:
                return self.lockf(self.fd, self.LOCK_EX | self.LOCK_NB)
            except OSError:
                pass
        self.lockf(self.fd, self.LOCK_EX)

    def __exit__(self, *exc_info):
        self.lockf(self.fd, self.LOCK_UN)

    def take(self, indices: array, ends: array):
        """The instance indices of the buckets this process takes, one
        bucket at a time, until none is left."""
        words = self.words
        while True:
            with self:
                self._flush()
                bucket = words[1]
                words[1] = bucket + 1
            if bucket >= len(ends):
                return
            yield from indices[ends[bucket - 1] if bucket else 0:ends[bucket]]

    def ask(self, table: int, key, compute):
        """The answer to ``key`` in the table of that index: computed
        here by ``compute`` and published if no process claimed it, else
        the claimant's."""
        text = _text(table, key)
        tag, check = hash(text), hash(text + b"\0")
        with self:
            self._flush()
            record, mine = self._claim(tag, check)
        if record is None:
            return compute()
        if not mine:
            return self._await(record, compute)
        try:
            answer = compute()
        except BaseException:
            self._publish(record, None)
            raise
        self._publish(record, pickle.dumps(answer))
        return answer

    def _claim(self, tag: int, check: int):
        """(record's first word, claimed here) of the key, claiming an
        empty slot for it; (None, True) if the key stays unshared."""
        words, slots, tag = self.words, self.slots, tag & ~self.NUMBER
        index = (tag >> 24) % slots
        while True:
            slot = words[2 + index]
            if slot == 0:
                break
            at = self.records + ((slot & self.NUMBER) - 1) * self.FIELDS
            if slot & ~self.NUMBER == tag and words[at] == check:
                return at, False
            index = (index + 1) % slots
        if 4 * words[0] >= 3 * slots or self.next_record == (self.rank + 1) * self.per_rank:
            return None, True
        at = self.records + self.next_record * self.FIELDS
        words[at], words[at + 1], words[at + 2] = check, self.CLAIMED, self.rank
        words[2 + index] = tag | (self.next_record + 1)
        words[0] += 1
        self.next_record += 1
        return at, True

    def _publish(self, record: int, answer: bytes | None) -> None:
        """Write ``answer`` into this process's region, unread until the
        record says so, or mark it absent: the claimant raised, or its
        region has no room.  The record itself is written by the next
        ``_flush``, which every claim, every wait, every take and the end
        of a share make, so that one lock serves a publication and what
        follows it."""
        start = self.free
        if answer is None or start + len(answer) > self.end:
            self.pending = record, self.ABSENT, 0, 0
            return
        self.memory[start:start + len(answer)] = answer
        self.free = start + len(answer)
        self.pending = record, self.DONE, start, len(answer)

    def _flush(self) -> None:
        """Write the pending record, if any; the caller holds the lock."""
        if self.pending is not None:
            record, state, start, length = self.pending
            words = self.words
            words[record + 1], words[record + 3], words[record + 4] = state, start, length
            self.pending = None

    def flush(self) -> None:
        with self:
            self._flush()

    def _await(self, record: int, compute):
        """The answer another process claimed; its own computation if
        the claimant publishes none."""
        words, pause = self.words, 1e-5
        while True:
            with self:
                self._flush()
                state, rank, start, length = words[record + 1:record + self.FIELDS].tolist()
                answer = self.memory[start:start + length] if state == self.DONE else None
            if state == self.DONE:
                return pickle.loads(answer)
            if state == self.ABSENT:
                return compute()
            self.check_alive(rank)
            time.sleep(pause)
            pause = min(2 * pause, 1e-3)


def _text(table: int, key) -> bytes:
    """The table's index and ``key`` pickled, with each set in a tuple
    key sorted, so that equal keys give equal bytes."""
    if isinstance(key, tuple):
        key = [sorted(item) if isinstance(item, frozenset) else item for item in key]
    return pickle.dumps((table, key))
