"""Reduce/lift machinery for counting problems.

A compression is a pair of polynomial-time procedures: ``reduce`` maps
an instance to a parameter-bounded instance plus a serializable
``LiftContext``, and ``lift`` maps the reduced instance's exact count
back to the original count.  A parameter transformation has the same
shape but only bounds the output parameter, not the output size, so it
is a ``Compression`` without a ``size_bound``.  Composing a
transformation with a compression yields a compression again, with
both contexts nested.

``SHIPPED`` names the shipped kernels and transformations, and the CLI
runs every reduce or lift step through ``shipped_compression``.  Counts
cross every boundary as decimal strings: ``decimal`` is the one check
of that form and ``json_object`` the one JSON guard, for lift contexts
(``LiftContext.of`` and ``LiftContext.counts``), composition metadata
and command-line counts alike.

Only the verification helper ``oracle_count`` reaches the brute-force
``oracles``, and it imports them when called, so loading this module
does not load them.
"""

from __future__ import annotations

import json
from importlib import import_module
from math import comb
from typing import TYPE_CHECKING, Callable, NamedTuple

from .graphs import Graph, TerminalPair

if TYPE_CHECKING:
    from .vc_kernel import PaddedBlowup

PARAM_KINDS = (
    "solution-size",
    "min-cut-size",
    "k-minus-matching",
)

# The problems whose oracles enumerate the subsets of at most k vertices.
SUBSET_PROBLEMS = ("vertex-cover", "minimal-vertex-cover", "odd-cycle-transversal")


class ProtocolError(Exception):
    """A lift context or composition metadata was fed to the wrong
    owner or is corrupted."""


class CompositionError(Exception):
    """Handles or instances that cannot be composed."""


class PreconditionError(Exception):
    """A declared precondition was checked and does not hold."""


class IntegrityError(Exception):
    """A count fed to a lift procedure is inconsistent with its context."""


class OracleSizeError(Exception):
    """Enumeration space too large for a brute-force oracle."""


class _InstanceFields(NamedTuple):
    graph: Graph | PaddedBlowup
    terminals: TerminalPair | None
    k: int | None
    param_kind: str


class CountingInstance(_InstanceFields):
    """A graph instance of one of the counting problems.

    ``k`` is the solution-size budget where the problem has one;
    ``param_kind`` names the parameter it bounds.  The graph is a
    ``Graph``, or the #VC kernel's ``PaddedBlowup``, which builds its
    edges only when an oracle asks for them.
    """

    __slots__ = ()

    def __new__(cls, graph: Graph | PaddedBlowup, terminals: TerminalPair | None = None,
                k: int | None = None, param_kind: str = "solution-size"):
        if param_kind not in PARAM_KINDS:
            raise ValueError(f"unknown parameter kind {param_kind!r}")
        if terminals is not None:
            terminals.check_in(graph)
        if k is not None and k < 0:
            raise ValueError("parameter budget must be nonnegative")
        if param_kind in ("solution-size", "k-minus-matching") and k is None:
            raise ValueError(f"{param_kind} instances need a budget k")
        if param_kind == "min-cut-size" and terminals is None:
            raise ValueError("min-cut-size instances need terminals")
        return super().__new__(cls, graph, terminals, k, param_kind)


def oracle_count(problem: str, inst: CountingInstance) -> int:
    """Solve an instance exactly by the matching brute-force oracle.

    An implicit graph is materialized first, so a tiny blowup is
    enumerated like any other graph.  For the oracles that enumerate
    the subsets of at most k vertices, their size guard
    (``oracles.guard_subsets``) runs on n and k before that, so a large
    blowup is refused without building its edges.
    """
    from . import oracles

    g = inst.graph
    if not isinstance(g, Graph):
        if problem in SUBSET_PROBLEMS:
            oracles.guard_subsets(g.n, inst.k, problem)
        g = g.materialize()
    if problem == "vertex-cover":
        return oracles.count_vertex_covers(g, inst.k)
    if problem == "minimal-vertex-cover":
        return oracles.count_minimal_vertex_covers(g, inst.k)
    if problem == "odd-cycle-transversal":
        return oracles.count_odd_cycle_transversals(g, inst.k)
    if problem == "min-st-cut":
        if inst.terminals is None:
            raise ProtocolError("min-st-cut instance without terminals")
        return oracles.count_min_st_cuts(g, inst.terminals)[0]
    raise ValueError(f"unknown problem {problem!r}")


# ---------------------------------------------------------------------------
# Contexts
# ---------------------------------------------------------------------------

CONTEXT_VERSION = 1


def decimal(value, what: str) -> int:
    """A count as it crosses a boundary: a nonnegative ASCII decimal
    string that ``int`` converts, which caps its length (4,300 digits by
    default) unless the caller lifted the cap.  Anything else raises
    ProtocolError naming ``what``."""
    if not (isinstance(value, str) and value.isascii() and value.isdigit()):
        raise ProtocolError(f"{what} is {value!r}, not a nonnegative decimal string")
    try:
        return int(value)
    except ValueError:
        raise ProtocolError(f"{what} has {len(value)} digits, more than int() converts") from None


def json_object(text: str, what: str) -> dict:
    """Decode a document that must be a JSON object.  Text that is not
    JSON, that nests deeper than the decoder can follow, or that holds
    another value raises ProtocolError naming ``what``."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ProtocolError(f"{what} is not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ProtocolError(f"{what} is not an object")
    return doc


class LiftContext(NamedTuple):
    """Everything a lift step needs from its matching reduce run.

    The payload is a flat JSON object: an optional ``branch`` name and
    counts as decimal strings, so arbitrary-precision values survive any
    JSON implementation.  ``of`` encodes one and ``counts`` decodes it.
    """

    compression: str
    payload: dict
    version: int = CONTEXT_VERSION

    @classmethod
    def of(cls, name: str, branch: str | None = None, **counts: int) -> "LiftContext":
        payload = {f: str(v) for f, v in counts.items()}
        if branch is not None:
            payload["branch"] = branch
        return cls(name, payload)

    def to_doc(self) -> dict:
        return {"compression": self.compression, "version": self.version,
                "payload": self.payload}

    def to_json(self) -> str:
        return json.dumps(self.to_doc(), sort_keys=True)

    @classmethod
    def from_doc(cls, doc) -> "LiftContext":
        try:
            return cls(doc["compression"], doc["payload"], doc["version"])
        except (KeyError, TypeError) as exc:
            raise ProtocolError(f"malformed lift context: {exc}") from None

    @classmethod
    def from_json(cls, text: str) -> "LiftContext":
        return cls.from_doc(json_object(text, "lift context"))

    def expect(self, compression: str) -> dict:
        """Return the payload after checking ownership, version and type."""
        if self.compression != compression:
            raise ProtocolError(
                f"context belongs to {self.compression!r}, not {compression!r}")
        if type(self.version) is not int or self.version != CONTEXT_VERSION:  # True == 1.0 == 1
            raise ProtocolError(f"unsupported context version {self.version}")
        if not isinstance(self.payload, dict):
            raise ProtocolError(f"{compression} context payload is not an object")
        return self.payload

    def counts(self, name: str, names, branches=()) -> tuple[str | None, dict[str, int]]:
        """(branch, {field: int}) of a context of ``name``, checked by
        ``expect``; the branch must be one of ``branches`` (None if there
        are none) and each named field a ``decimal``, or ProtocolError."""
        payload = self.expect(name)
        branch = None
        if branches:
            branch = payload.get("branch")
            if branch not in branches:
                raise ProtocolError(f"{name} context branch {branch!r} is not "
                                    + " or ".join(map(repr, branches)))
        fields = {}
        for f in names:
            if f not in payload:
                raise ProtocolError(f"{name} context lacks field {f!r}")
            fields[f] = decimal(payload[f], f"{name} context field {f!r}")
        return branch, fields


def binomial_prefix_sums(n: int, k: int):
    """Yield sum_{j<=s} C(n, j) for s = 0..min(k, n), each from the one
    before by one term, C(n, s) = C(n, s-1) * (n-s+1) / s."""
    term = total = 1
    for s in range(1, min(k, n) + 2):
        yield total
        term = term * (n - s + 1) // s
        total += term


def exceeds_subset_count(count: int, n: int, k: int) -> bool:
    """Whether count > sum_{i<=k} C(n, i), the number of subsets of at
    most k of n elements.

    The prefix sums stop once they reach the count; their first n/3
    terms at least double, so a huge n or k costs about three times the
    count's bit length.
    """
    return all(total < count for total in binomial_prefix_sums(n, k))


def exceeds_binomial(q: int, n: int, k: int) -> bool:
    """q > C(n, k), building C(n, k) only when q is near it.

    For 1 <= j = min(k, n-k) <= n/2, C(n, j) >= 2^(n H(j/n)) / (n+1) and
    n H(j/n) = j log2(n/j) + (n-j) log2(n/(n-j)) >= j log2(n/j) + j.
    With b the bit length of n // j, log2(n/j) >= b - 1, so C(n, k) >=
    2^(j b - c) with c the bit length of n + 1; a q of at most j b - c
    bits is below it.  Otherwise j b is
    below the bit length of q plus c, and b >= 2, so j is at most about
    half that: a crafted context or metadata with a huge n and k costs a
    binomial with no more factors than q allows, whatever n is.
    """
    j = min(k, n - k)
    if j < 0:
        return q > 0
    if j and q.bit_length() <= j * (n // j).bit_length() - (n + 1).bit_length():
        return False
    return q > comb(n, j)


class CompressionResult(NamedTuple):
    reduced: CountingInstance
    context: LiftContext


class Compression(NamedTuple):
    """A named (reduce, lift) pair between two counting problems.

    Parameter transformations are compressions without a size bound.
    ``reference_reduced_count`` maps a reduced instance to its true
    count; ``verify_compression`` prefers it to the oracle, so it must
    rest on an identity brute-force verified at enumerable scale.
    Oct-to-vc has none: its lift halves twice the source count, so the
    round trip would check nothing.
    """

    name: str
    source_problem: str
    target_problem: str
    reduce: Callable[[CountingInstance], CompressionResult]
    lift: Callable[[LiftContext, int], int]
    # Optional bound on |V| of the reduced instance as a function of k.
    size_bound: Callable[[int], int] | None = None
    reference_reduced_count: Callable[[CountingInstance], int] | None = None


# ---------------------------------------------------------------------------
# Running and composing
# ---------------------------------------------------------------------------

def run_compression(c: Compression, inst: CountingInstance, reduced_count: int) -> int:
    """Reduce, then lift the supplied count of the reduced instance.

    ``reduced_count`` must be the true count of ``c.reduce(inst).reduced``;
    under that precondition the return value is the true count of ``inst``.
    """
    result = c.reduce(inst)
    if result.context.compression != c.name:
        raise ProtocolError(
            f"reduce of {c.name!r} emitted a context for {result.context.compression!r}")
    return c.lift(result.context, reduced_count)


def compose_ppt_compression(ppt: Compression, c: Compression) -> Compression:
    """Compression for the transformation's source problem: reduce
    chains forward, lift chains backward, with both contexts nested."""
    if ppt.target_problem != c.source_problem:
        raise CompositionError(
            f"PPT targets {ppt.target_problem!r} but compression reads {c.source_problem!r}")
    name = f"{ppt.name}+{c.name}"

    def reduce(inst: CountingInstance) -> CompressionResult:
        first = ppt.reduce(inst)
        second = c.reduce(first.reduced)
        payload = {"outer": first.context.to_doc(), "inner": second.context.to_doc()}
        return CompressionResult(second.reduced, LiftContext(name, payload))

    def lift(ctx: LiftContext, count: int) -> int:
        payload = ctx.expect(name)
        outer = LiftContext.from_doc(payload.get("outer"))
        inner = LiftContext.from_doc(payload.get("inner"))
        return ppt.lift(outer, c.lift(inner, count))

    # The composite's reduced instance is the inner one, as is its reference.
    return Compression(name, ppt.source_problem, c.target_problem, reduce, lift,
                       size_bound=None, reference_reduced_count=c.reference_reduced_count)


class VerificationReport(NamedTuple):
    direct_count: int
    result: CompressionResult
    reduced_count: int
    lifted_count: int | None
    size_bound_ok: bool | None
    passed: bool
    error: str | None = None


def verify_compression(c: Compression, inst: CountingInstance,
                       count: Callable[[str, CountingInstance], int] | None = None,
                       ) -> VerificationReport:
    """Round-trip check against the oracles on one small instance.

    Reduces, counts the reduced instance by the compression's reference
    where it has one (the oracle first would brute-force small blowups)
    and by the oracle otherwise, lifts, and compares with a direct
    oracle run.  A lift that refuses the count fails the report with
    its text in ``error``.  Oracle size errors propagate.

    ``count(problem, instance)`` stands in for ``oracle_count``, which
    is looked up at call time when none is given.  A verification sweep
    passes one that keeps the oracle's answers for the length of the
    sweep, so a repeated instance is brute-forced once; the reduce and
    the lift still run on every call, and the oracles themselves cache
    nothing.
    """
    count = count or oracle_count
    direct = count(c.source_problem, inst)
    result = c.reduce(inst)
    if c.reference_reduced_count is not None:
        reduced_count = c.reference_reduced_count(result.reduced)
    else:
        reduced_count = count(c.target_problem, result.reduced)
    error = None
    try:
        lifted = c.lift(result.context, reduced_count)
    except (IntegrityError, ProtocolError) as exc:
        lifted, error = None, str(exc)
    bound_ok = None
    if c.size_bound is not None and inst.k is not None:
        bound_ok = result.reduced.graph.n <= c.size_bound(inst.k)
    return VerificationReport(
        direct_count=direct,
        result=result,
        reduced_count=reduced_count,
        lifted_count=lifted,
        size_bound_ok=bound_ok,
        passed=lifted == direct and bound_ok is not False,
        error=error,
    )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

# Each shipped compression's name, and the module that owns it with the
# factory there that builds it.
SHIPPED = {
    "vertex-cover-kernel": ("vc_kernel", "vertex_cover_kernel"),
    "minimal-vertex-cover-kernel": ("vc_kernel", "minimal_vertex_cover_kernel"),
    "mincut-to-oct": ("compositions", "mincut_to_oct_ppt"),
    "oct-to-vc": ("compositions", "oct_to_vc_ppt"),
}


def shipped_compression(name: str) -> Compression:
    """The shipped compression of that name; only its owner is imported."""
    module, factory = SHIPPED[name]
    return getattr(import_module(f".{module}", __package__), factory)()


def default_registry() -> dict[str, Compression]:
    """Every shipped compression, by name."""
    return {name: shipped_compression(name) for name in SHIPPED}
