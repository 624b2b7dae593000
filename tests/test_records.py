"""The record types are ``NamedTuple``s, three of which validate on
construction.  Every one is immutable, compares and hashes by its
fields, and copies and pickles to an equal record."""

import copy
import pickle
import re

import pytest

from countkernel.compositions import (
    ExactComposition,
    ExactMetadata,
    exact_compose,
)
from countkernel.framework import (
    Compression,
    CompressionResult,
    CountingInstance,
    LiftContext,
    VerificationReport,
    verify_compression,
)
from countkernel.graphs import (
    Graph,
    ParsedGraph,
    TdCheck,
    TerminalPair,
    TreeDecomposition,
    parse_graph,
    validate_tree_decomposition,
)
from countkernel.vc_kernel import PaddedBlowup
from countkernel.verification import SweepReport

from test_framework import identity_compression

PATH3 = Graph.from_edges(3, [(0, 1), (1, 2)])
EDGE = Graph.from_edges(2, [(0, 1)])
ISOLATED = Graph.from_edges(3, [(0, 1)])


def test_terminal_pair_refusals_keep_their_types_and_messages():
    for args, message in [((1, 1), "terminals must be distinct"),
                          ((-1, 2), "terminals must be nonnegative indices"),
                          ((0, -2), "terminals must be nonnegative indices")]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TerminalPair(*args)
    assert TerminalPair(t=1, s=0) == TerminalPair(0, 1)


@pytest.mark.parametrize("kwargs, message", [
    ({"k": 1, "param_kind": "bogus"}, "unknown parameter kind 'bogus'"),
    ({"k": 1, "terminals": TerminalPair(0, 5)}, "terminals (0,5) out of range for n=3"),
    ({"k": -1}, "parameter budget must be nonnegative"),
    ({}, "solution-size instances need a budget k"),
    ({"param_kind": "k-minus-matching"}, "k-minus-matching instances need a budget k"),
    ({"k": 1, "param_kind": "k-minus-lp"}, "unknown parameter kind 'k-minus-lp'"),
    ({"param_kind": "min-cut-size"}, "min-cut-size instances need terminals"),
])
def test_counting_instance_refusals_keep_their_types_and_messages(kwargs, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        CountingInstance(PATH3, **kwargs)


def test_counting_instance_defaults_and_accepted_forms():
    inst = CountingInstance(PATH3, k=2)
    assert (inst.terminals, inst.k, inst.param_kind) == (None, 2, "solution-size")
    assert inst == CountingInstance(PATH3, None, 2, "solution-size")
    cut = CountingInstance(PATH3, TerminalPair(0, 2), param_kind="min-cut-size")
    assert cut.k is None and cut.terminals == TerminalPair(0, 2)
    blowup = CountingInstance(PaddedBlowup(EDGE, 2, 3), k=4)
    assert blowup.graph.n == 7


@pytest.mark.parametrize("args, error, message", [
    ((None, 1, 0), TypeError, "the core of a padded blowup must be a Graph"),
    ((EDGE, -1, 0), ValueError, "copies and padding must be nonnegative"),
    ((EDGE, 1, -1), ValueError, "copies and padding must be nonnegative"),
    ((ISOLATED, 1, 0), ValueError, "core graph must have no isolated vertices"),
])
def test_padded_blowup_refusals_keep_their_types_and_messages(args, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        PaddedBlowup(*args)


def _td():
    return TreeDecomposition(nodes=("a",), links=frozenset(), bags={"a": frozenset({0, 1})})


def _exact():
    return exact_compose([(PATH3, TerminalPair(0, 2))] * 2)


def _value_records():
    """Two separately built, equal records of each value type."""
    ident = identity_compression("vertex-cover")
    inst = CountingInstance(PATH3, k=2)
    return [
        (TerminalPair(0, 2), TerminalPair(0, 2)),
        (CountingInstance(PATH3, k=2), CountingInstance(PATH3, None, 2)),
        (PaddedBlowup(EDGE, 2, 3), PaddedBlowup(EDGE, 2, 3)),
        (parse_graph("p 3 2\ne 1 2\ne 2 3\nt 1 3\n"),
         ParsedGraph(PATH3, TerminalPair(0, 2))),
        (validate_tree_decomposition(EDGE, _td()), TdCheck(True, None, 1)),
        (LiftContext("x", {"a": "1"}), LiftContext.from_json('{"compression": "x", '
                                                              '"payload": {"a": "1"}, '
                                                              '"version": 1}')),
        (CompressionResult(inst, LiftContext("x", {})),
         CompressionResult(CountingInstance(PATH3, k=2), LiftContext("x", {}))),
        (Compression("c", "a", "b", len, max), Compression("c", "a", "b", len, max, None)),
        (verify_compression(ident, inst), verify_compression(ident, inst)),
        (_td(), _td()),
        (ExactMetadata("gadget", 2, 4, 1, (4, 8)), ExactMetadata("gadget", 2, 4, 1, (4, 8), None)),
        (_exact(), _exact()),
        (SweepReport("s", 2, ("a",), 0.5), SweepReport("s", 2, ("a",), 0.5)),
    ]


def test_every_record_type_is_covered():
    types = {type(a) for a, _ in _value_records()}
    assert types == {TerminalPair, CountingInstance, PaddedBlowup, ParsedGraph, TdCheck,
                     LiftContext, CompressionResult, Compression, VerificationReport,
                     TreeDecomposition, ExactMetadata, ExactComposition, SweepReport}


def test_assigning_or_deleting_a_field_raises_attribute_error():
    for record, _ in _value_records():
        name = record._fields[0]
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.not_a_field = 1
        assert getattr(record, name) is before


def test_records_copy_pickle_and_repr_by_their_fields():
    meta = ExactMetadata("trivial", 2, 2, 1, (2, 4), recorded_answers=(3, 5))
    assert repr(meta) == ("ExactMetadata(branch='trivial', ell=2, m=2, cut_size=1, "
                          "exponents=(2, 4), recorded_answers=(3, 5))")
    for record, _ in _value_records():
        for clone in (copy.copy(record), pickle.loads(pickle.dumps(record))):
            assert type(clone) is type(record) and clone == record


def test_equal_value_records_are_equal_and_hash_alike():
    for a, b in _value_records():
        assert a is not b and a == b and not (a != b)
        try:
            hash(a)
        except TypeError:  # a LiftContext payload and a decomposition's bags are dicts
            assert isinstance(a, (LiftContext, CompressionResult, VerificationReport,
                                  TreeDecomposition, ExactComposition))
            continue
        assert hash(a) == hash(b)
    assert TerminalPair(0, 2) != TerminalPair(2, 0)
    assert CountingInstance(PATH3, k=2) != CountingInstance(PATH3, k=3)


def test_validating_records_copy_and_pickle_through_their_checks():
    for record in (TerminalPair(0, 2), CountingInstance(PATH3, k=2), PaddedBlowup(EDGE, 2, 3)):
        for clone in (copy.copy(record), pickle.loads(pickle.dumps(record))):
            assert type(clone) is type(record) and clone == record

