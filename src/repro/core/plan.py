"""Compiled per-object check plans — the detector's ENUMERATE input.

Algorithm 1's per-action work against a :class:`~repro.core.access_points.
SchemaRepresentation` repeatedly asks the representation questions whose
answers never change after registration: which schemas carry values, which
schemas conflict with which (and in what enumeration order), and what ηo
is.  A :class:`CheckPlan` is those answers flattened at
``register_object`` time into one plain dict of plain tuples::

    table[schema] = (carries_value, (peer_schema, ...))

so the detector's ENUMERATE loop runs with no representation dispatch
and no per-action validation — ηo output validation moves to the
intern-table miss path (:func:`_intern_point`), which fires once per
distinct ``(schema, value)`` pair instead of once per action.  The peer
tuples preserve the conflict *declaration* order, which is exactly the
order ``conflicting_candidates`` yields; race-report identity across
processes depends on it.

Plans are picklable (a callable plus a dict of tuples), so the sharded
analyzer compiles once in the facade and ships the plan to every worker
instead of recompiling per shard: it travels once per shard, in the
shard's pickled payload beside the object's stamped actions.

Epoch point clocks
------------------

This module also owns the detector's point-clock representation.  A
:class:`_PointEpoch` pairs the point's full accumulated vector clock
``V`` with a ``(tid, stamp)`` *certificate* guaranteeing that for every
event clock ``C`` arriving after the epoch was stored::

    V ⊑ C   ⟺   stamp ≤ C[tid]

so both the phase-1 ordering test and the phase-2 join collapse to one
integer compare — FastTrack's O(1) epoch trick, but carrying the exact
clock (shared, never copied) instead of forgetting it, which keeps race
reports byte-identical to a full-vector-clock detector.  A point only
*inflates* to a bare vector clock on genuine contention (a concurrent
cross-thread touch, where no single-component certificate exists), and
returns to an epoch on its next ordered touch, whose event clock
certifies itself.

Interning
---------

:func:`_resolve_points` is ηo through a plan: every ``(schema, value)``
pair resolved to one canonical :class:`~repro.core.access_points.
AccessPoint` per object state, and :func:`_intern_candidates` caches
``Co(pt)`` as tuples of those canonical points.  The detector's
ENUMERATE loop and the predictor's dependence index both resolve points
through them.
"""

from __future__ import annotations

from typing import (Any, Callable, Dict, Iterable, NamedTuple, Optional,
                    Tuple, Union)

from .access_points import (AccessPoint, AccessPointRepresentation, SchemaId,
                            SchemaRepresentation)
from .errors import SpecificationError
from .events import Action
from .vector_clock import Tid, VectorClock

__all__ = ["CheckPlan", "compile_check_plan"]

#: ``schema -> (carries_value, declaration-ordered conflicting schemas)``
PlanTable = Dict[SchemaId, Tuple[bool, Tuple[SchemaId, ...]]]


class CheckPlan:
    """A bounded representation compiled to flat lookup tables.

    ``touches`` is the representation's schema-level ηo (shared, not
    copied — it is the one genuinely dynamic ingredient); ``table`` maps
    every known schema to its value-carrying flag and its conflict peers
    in declaration order; ``kind`` tags diagnostics.
    """

    __slots__ = ("touches", "table", "kind")

    def __init__(self,
                 touches: Callable[[Action], Iterable[Tuple[SchemaId, Any]]],
                 table: PlanTable,
                 kind: str):
        self.touches = touches
        self.table = table
        self.kind = kind

    def max_conflict_degree(self) -> int:
        """The Theorem 6.6 bound, as baked into the plan."""
        if not self.table:
            return 0
        return max(len(peers) for _, peers in self.table.values())

    def __reduce__(self):
        return (CheckPlan, (self.touches, self.table, self.kind))

    def __repr__(self) -> str:
        return (f"CheckPlan({self.kind!r}, {len(self.table)} schemas, "
                f"max degree {self.max_conflict_degree()})")


def compile_check_plan(
        representation: AccessPointRepresentation) -> Optional[CheckPlan]:
    """Compile ``representation`` for the ENUMERATE loop, if possible.

    Returns ``None`` when the representation is not a bounded
    :class:`SchemaRepresentation` — custom ``AccessPointRepresentation``
    subclasses and unbounded representations run the interpreted SCAN
    loop instead.
    """
    if not isinstance(representation, SchemaRepresentation):
        return None
    if not representation.bounded:
        return None
    table: PlanTable = {}
    for schema in representation.schemas:
        table[schema] = (representation.carries_value(schema),
                        representation.conflict_peers(schema))
    return CheckPlan(representation.touches, table, representation.kind)


# -- epoch point clocks -------------------------------------------------------


class _PointEpoch(NamedTuple):
    """``c@t`` plus the exact clock it certifies — a point's epoch state.

    Phase 2 stores ``(tid, clock[tid], clock)`` for the event clock
    ``clock`` of an ordered touch by thread ``tid``: ``clock`` is the
    point's full accumulated vector clock ``V`` (shared, never copied)
    and ``(tid, stamp)`` certifies it, ``V ⊑ C ⟺ stamp ≤ C[tid]`` for
    any later event clock ``C``.  A thread's component advances only on
    its own events, so dominance at ``tid`` pulls the whole event into
    ``C``'s causal past.

    Because ``clock`` is the exact ``V``, race reports are byte-identical
    to a full-vector-clock detector's — unlike FastTrack's write-epoch,
    which forgets history and only guarantees the same *first* race per
    variable.
    """

    tid: Tid
    stamp: int
    clock: VectorClock


_PointClock = Union[_PointEpoch, VectorClock]


def _point_ordered(prior: _PointClock, clock: VectorClock) -> bool:
    """``prior ⊑ vc(e)`` for either point-clock representation."""
    if type(prior) is _PointEpoch:
        return prior.stamp <= clock[prior.tid]
    return prior.leq(clock)


def _as_clock(prior: _PointClock) -> VectorClock:
    return prior.clock if type(prior) is _PointEpoch else prior




# -- ηo resolution and interning ----------------------------------------------


def _resolve_points(state, action: Action) -> Tuple[AccessPoint, ...]:
    """ηo through the plan: each ``(schema, value)`` pair of ``action``
    resolved to its canonical interned point.

    ``state`` is the object's detector state (a ``CheckPlan`` in
    ``state.plan`` plus its ``interned`` table).  The whole tuple is
    built before the caller touches any point state, so an invalid pair
    raises before anything changes, exactly like ``points_of`` would.
    """
    interned = state.interned
    touched = []
    append = touched.append
    for schema, value in state.plan.touches(action):
        pt = interned.get((schema, value))
        if pt is None:
            pt = _intern_point(state, action, schema, value)
        append(pt)
    return tuple(touched)


def _intern_point(state, action: Action,
                  schema: SchemaId, value: Any) -> AccessPoint:
    """Intern-miss path: validate the ηo output pair and canonicalize.

    Raises the same :class:`SpecificationError`s ``points_of`` would —
    invalid pairs never enter the table, so they take this path (and
    fail) on every action.
    """
    entry = state.plan.table.get(schema)
    if entry is None:
        raise SpecificationError(
            f"ηo touched unknown schema {schema!r} for {action}")
    if entry[0]:
        if value is None:
            raise SpecificationError(
                f"schema {schema!r} carries a value but ηo supplied "
                f"none for {action}")
    elif value is not None:
        raise SpecificationError(
            f"plain schema {schema!r} was given value {value!r} "
            f"for {action}")
    pt = AccessPoint(action.obj, schema, value)
    state.interned[(schema, value)] = pt
    return pt


def _intern_candidates(state, pt: AccessPoint) -> Tuple[AccessPoint, ...]:
    """Build and cache ``Co(pt)`` as a tuple of canonical points.

    Candidates are interned too, so a probe and a later real touch of
    the same (schema, value) pair share one instance — dict hits then
    ride the identity fast path with a cached hash.  Candidate pairs
    are valid by construction: peers of a value schema carry the same
    value, peers of a plain schema carry None (bounded representations
    never declare mixed conflicts), so the intern table stays
    validation-clean.
    """
    interned = state.interned
    # pt.value is None exactly for plain schemas, so it doubles as the
    # candidate value in both cases (same as conflicting_candidates).
    value = pt.value
    cands = []
    for peer in state.plan.table[pt.schema][1]:
        candidate = interned.get((peer, value))
        if candidate is None:
            candidate = AccessPoint(pt.obj, peer, value)
            interned[(peer, value)] = candidate
        cands.append(candidate)
    tup = tuple(cands)
    state.candidates[pt] = tup
    return tup
