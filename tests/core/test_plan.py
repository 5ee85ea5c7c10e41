"""Compiled check plans: table contents, ordering, pickling, gating.

The plan is a flattening of a bounded :class:`SchemaRepresentation` — no
new semantics — so every test here is an identity against the
representation it was compiled from: same schemas, same value flags, same
candidate enumeration order, same validation errors.  The verdict-level
checks of the ENUMERATE loop live in ``test_equivalence_matrix.py`` and
the golden corpus.
"""

import pickle

import pytest

from repro.core.access_points import (AccessPoint, AccessPointRepresentation,
                                      SchemaRepresentation)
from repro.core.detector import CommutativityRaceDetector, Strategy
from repro.core.errors import MonitorError, SpecificationError
from repro.core.events import NIL, Action
from repro.core.plan import CheckPlan, compile_check_plan
from repro.core.trace import TraceBuilder
from repro.specs.dictionary import dictionary_representation


def _toy_touches(action):
    # Misbehaving ηo outputs, keyed by method name, for the validation
    # tests; "put" is the well-behaved case.
    if action.method == "bad-schema":
        return [("nope", None)]
    if action.method == "missing-value":
        return [("w", None)]
    if action.method == "value-on-plain":
        return [("p", 7)]
    return [("w", action.args[0])]


def toy_representation():
    return SchemaRepresentation(
        kind="toy", value_schemas=("w",), plain_schemas=("p",),
        conflict_pairs=(("w", "w"), ("p", "p")), touches=_toy_touches)


class _Opaque(AccessPointRepresentation):
    """A custom representation outside the schema factoring."""

    def points_of(self, action):
        return (AccessPoint(action.obj, "pt"),)

    def conflicts(self, pt1, pt2):
        return False


class TestCompilation:
    def test_table_mirrors_the_representation(self):
        rep = dictionary_representation()
        plan = compile_check_plan(rep)
        assert plan is not None
        assert plan.kind == rep.kind
        assert set(plan.table) == set(rep.schemas)
        for schema, (carries, peers) in plan.table.items():
            assert carries == rep.carries_value(schema)
            assert peers == rep.conflict_peers(schema)
        assert plan.max_conflict_degree() == rep.max_conflict_degree()

    def test_peer_order_is_candidate_enumeration_order(self):
        # Cross-process report determinism hangs on this: the compiled
        # loop must probe Co(pt) in exactly the order the generator does.
        rep = dictionary_representation()
        plan = compile_check_plan(rep)
        for schema in rep.schemas:
            value = "k" if rep.carries_value(schema) else None
            pt = AccessPoint("d", schema, value)
            assert [c.schema for c in rep.conflicting_candidates(pt)] \
                == list(plan.table[schema][1])

    def test_unbounded_representation_compiles_to_none(self):
        rep = SchemaRepresentation(
            kind="unbounded", value_schemas=("w",), plain_schemas=("s",),
            conflict_pairs=(("w", "s"),), touches=_toy_touches)
        assert not rep.bounded
        assert compile_check_plan(rep) is None

    def test_non_schema_representation_compiles_to_none(self):
        assert compile_check_plan(_Opaque()) is None

    def test_plan_pickles_for_shard_shipping(self):
        plan = compile_check_plan(dictionary_representation())
        revived = pickle.loads(pickle.dumps(plan))
        assert isinstance(revived, CheckPlan)
        assert revived.table == plan.table
        assert revived.kind == plan.kind
        action = Action("d", "put", ("k", 1), (NIL,))
        assert list(revived.touches(action)) == list(plan.touches(action))

    def test_repr_names_kind_and_degree(self):
        plan = compile_check_plan(toy_representation())
        assert "toy" in repr(plan)


class TestPlanAttachment:
    def test_strategy_and_flag_gate_the_plan(self):
        rep = dictionary_representation()
        detector = CommutativityRaceDetector(root=0)
        detector.register_object("a", rep)
        detector.register_object("b", rep, strategy=Strategy.SCAN)
        assert detector._objects["a"].plan is not None
        assert detector._objects["b"].plan is None

        # AUTO resolves to ENUMERATE exactly when the representation
        # compiles; an explicit ENUMERATE without a plan is refused.
        detector.register_object("c", _Opaque())
        assert detector._objects["c"].strategy is Strategy.SCAN
        with pytest.raises(MonitorError):
            detector.register_object("d", _Opaque(),
                                     strategy=Strategy.ENUMERATE)

    def test_precompiled_plan_is_injected_verbatim(self):
        # The sharded facade compiles once and passes the plan through
        # register_object(plan=...) inside each worker.
        rep = dictionary_representation()
        plan = compile_check_plan(rep)
        detector = CommutativityRaceDetector(root=0)
        detector.register_object("a", rep, plan=plan)
        assert detector._objects["a"].plan is plan


class TestInterning:
    def _run(self, detector):
        builder = TraceBuilder(root=0)
        builder.fork(0, 1)
        builder.fork(0, 2)
        builder.invoke(1, "d", "put", "k", 1, returns=NIL)
        builder.invoke(2, "d", "put", "k", 2, returns=1)
        builder.invoke(1, "d", "get", "k", returns=2)
        detector.run(builder.build())
        return detector._objects["d"]

    def test_points_intern_to_canonical_instances(self):
        detector = CommutativityRaceDetector(root=0)
        detector.register_object("d", dictionary_representation())
        state = self._run(detector)
        assert state.plan is not None
        assert state.interned  # the compiled path actually ran
        for (schema, value), pt in state.interned.items():
            assert (pt.obj, pt.schema, pt.value) == ("d", schema, value)
        # candidate tuples are built from the same canonical instances,
        # so dict probes ride the pointer-equality fast path
        for cands in state.candidates.values():
            for cand in cands:
                assert state.interned[(cand.schema, cand.value)] is cand

    def test_compiled_validation_errors_match_points_of(self):
        rep = toy_representation()
        for method in ("bad-schema", "missing-value", "value-on-plain"):
            builder = TraceBuilder(root=0)
            builder.fork(0, 1)
            builder.invoke(1, "o", method, returns=None)
            trace = builder.build()
            detector = CommutativityRaceDetector(root=0)
            detector.register_object("o", toy_representation())
            with pytest.raises(SpecificationError) as compiled:
                detector.run(trace)
            with pytest.raises(SpecificationError) as generic:
                rep.points_of(trace.actions()[0].action)
            assert str(compiled.value) == str(generic.value)
        assert rep.bounded  # sanity: the detector took the ENUMERATE route

    def test_invalid_pairs_raise_on_every_action(self):
        # Validation moved to the intern miss path; an invalid pair must
        # never enter the table and so must raise again on reuse.
        detector = CommutativityRaceDetector(root=0)
        detector.register_object("o", toy_representation())
        builder = TraceBuilder(root=0)
        builder.fork(0, 1)
        builder.invoke(1, "o", "missing-value", returns=None)
        trace = builder.build()
        for _ in range(2):
            fresh = CommutativityRaceDetector(root=0)
            fresh.register_object("o", toy_representation())
            with pytest.raises(SpecificationError):
                fresh.run(trace)
        # and the pair must be absent from the intern table afterwards
        with pytest.raises(SpecificationError):
            detector.run(trace)
        state = detector._objects["o"]
        assert ("w", None) not in state.interned
