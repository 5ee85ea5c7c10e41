"""Commutativity-aware atomicity checking (Velodrome, generalized).

Velodrome (Flanagan, Freund & Yi, PLDI'08) checks *conflict
serializability*: build the transactional happens-before graph — nodes are
transactions, with an edge ``T1 → T2`` whenever an operation of ``T1``
precedes and conflicts with an operation of ``T2`` in the observed trace —
and report a violation iff the graph has a cycle through a non-unary
transaction (the observed interleaving is then not equivalent to any serial
order of the atomic blocks).

Velodrome's conflicts are low-level reads and writes.  The paper's Section 8
observes that this "low-level definition of conflict can be extended to
handle much richer commutativity specifications (with the appropriate
modifications of the atomicity algorithms to deal with access points)".
:class:`AtomicityChecker` implements exactly that: in its
``COMMUTATIVITY`` mode, two method invocations conflict iff their access
points conflict — so an interleaved *commuting* operation (a counter
increment between two increments of an atomic block, a put to a different
key) no longer breaks serializability, eliminating a class of Velodrome
false alarms.  The ``READ_WRITE`` mode is classic Velodrome over the
low-level event stream, kept for comparison (the test-suite and the
ablation bench contrast the two on the same traces).

Both modes treat synchronization as conflicting operations on the lock
(release → acquire, fork/join edges), as Velodrome does.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterator, List, Set, Tuple

from ..core.access_points import AccessPointRepresentation
from ..core.errors import MonitorError
from ..core.events import Event, EventKind, ObjectId
from ..core.trace import Trace
from ..runtime.shared import is_internal_lock
from .transactions import Transaction, split_transactions

__all__ = ["ConflictMode", "AtomicityViolation", "AtomicityReport",
           "AtomicityChecker"]


class ConflictMode(enum.Enum):
    """Which notion of conflict drives the serializability graph."""

    COMMUTATIVITY = "commutativity"   # access points (this work)
    READ_WRITE = "read-write"         # classic Velodrome


@dataclass(frozen=True)
class AtomicityViolation:
    """A cycle in the transactional happens-before graph."""

    cycle: Tuple[Transaction, ...]

    def __str__(self) -> str:
        path = " → ".join(txn.label for txn in self.cycle)
        return f"atomicity violation: {path} → {self.cycle[0].label}"


@dataclass
class AtomicityReport:
    """Everything :meth:`AtomicityChecker.analyze` discovered."""

    transactions: List[Transaction]
    violations: List[AtomicityViolation]
    conflict_edges: int = 0

    @property
    def serializable(self) -> bool:
        return not self.violations


class AtomicityChecker:
    """Offline conflict-serializability analysis of a recorded trace.

    Usage::

        checker = AtomicityChecker(ConflictMode.COMMUTATIVITY)
        checker.register_object("o", dictionary_representation())
        report = checker.analyze(monitor.trace)
        report.serializable  # or inspect report.violations

    In COMMUTATIVITY mode, objects must be registered with their access
    point representations; actions on unregistered objects are treated as
    non-conflicting (mirroring RD2's behaviour for uninstrumented classes).
    In READ_WRITE mode registrations are ignored and the low-level
    READ/WRITE events carry the conflicts.
    """

    def __init__(self, mode: ConflictMode = ConflictMode.COMMUTATIVITY,
                 include_sync: bool = True):
        self.mode = mode
        self.include_sync = include_sync
        self._representations: Dict[ObjectId, AccessPointRepresentation] = {}

    def register_object(self, obj: ObjectId,
                        representation: AccessPointRepresentation) -> None:
        self._representations[obj] = representation

    # -- conflict footprints ---------------------------------------------------
    #
    # Each operation is mapped to a set of (resource, token) pairs plus a
    # per-resource conflict test; two operations conflict iff they touch a
    # common resource with conflicting tokens.  For access points the
    # resource is the concrete point and the token the representation;
    # for memory it is the location with a read/write token; for locks the
    # lock id (all pairs conflict: rel/acq ordering matters to Velodrome).

    def _footprint(self, event: Event):
        kind = event.kind
        if kind is EventKind.ACTION:
            if self.mode is not ConflictMode.COMMUTATIVITY:
                return
            action = event.action
            rep = self._representations.get(action.obj)
            if rep is None:
                return
            try:
                points = rep.points_of(action)
                for point in points:
                    hash(point)  # fail here, not when the graph buckets it
            except (LookupError, TypeError, ValueError) as exc:
                # The bound kind cannot interpret this action: a method
                # it lacks, or an argument that cannot be a point value.
                raise MonitorError(
                    f"event {event.index} ({event.label()}): cannot resolve "
                    f"the access points of {action.obj!r}: "
                    f"{type(exc).__name__}: {exc}") from exc
            for point in points:
                yield ("pt", point), rep
        elif kind.is_memory():
            if self.mode is not ConflictMode.READ_WRITE:
                return
            yield (("mem", event.location),
                   "w" if kind is EventKind.WRITE else "r")
        elif kind in (EventKind.ACQUIRE, EventKind.RELEASE):
            if not self.include_sync:
                return
            if (self.mode is ConflictMode.COMMUTATIVITY
                    and is_internal_lock(event.lock)):
                return  # below the interface abstraction, as in RD2
            yield (("lock", event.lock), "sync")
        elif kind in (EventKind.FORK, EventKind.JOIN):
            if self.include_sync:
                yield (("thread", event.peer), "sync")

    @staticmethod
    def _tokens_conflict(resource, token1, token2) -> bool:
        if resource[0] == "mem":
            return "w" in (token1, token2)
        return True  # locks and fork/join edges always order

    # -- analysis ------------------------------------------------------------------

    def analyze(self, trace: Trace) -> AtomicityReport:
        """Build the transactional happens-before graph; find cycles."""
        transactions = split_transactions(trace)
        txn_of_event: Dict[int, Transaction] = {}
        for txn in transactions:
            for event in txn.events:
                txn_of_event[event.index] = txn

        # Successor sets as insertion-ordered dicts: O(1) edge lookup.
        succ: Dict[int, Dict[int, None]] = {
            txn.txn_id: {} for txn in transactions}
        by_id = {txn.txn_id: txn for txn in transactions}

        edges = 0

        def add_edge(earlier: Transaction, later: Transaction) -> None:
            nonlocal edges
            if earlier.txn_id == later.txn_id:
                return
            out = succ[earlier.txn_id]
            if later.txn_id not in out:
                out[later.txn_id] = None
                edges += 1

        # Program order: consecutive transactions of the same thread.
        last_of_thread: Dict = {}
        for txn in transactions:
            previous = last_of_thread.get(txn.tid)
            if previous is not None:
                add_edge(previous, txn)
            last_of_thread[txn.tid] = txn

        # Conflict order.  For access points we exploit the factored
        # conflict structure: group prior touches per *resource key* so a
        # new touch only consults resources it can conflict with.
        touches: Dict[Hashable, List[Tuple[Transaction, object]]] = {}
        for event in trace:
            txn = txn_of_event.get(event.index)
            if txn is None:
                continue
            for resource, token in self._footprint(event):
                key = self._resource_key(resource)
                for prior_txn, prior in touches.get(key, ()):
                    prior_resource, prior_token = prior
                    if prior_txn.txn_id == txn.txn_id:
                        continue
                    if self._resources_conflict(prior_resource, prior_token,
                                                resource, token):
                        add_edge(prior_txn, txn)
                bucket = touches.setdefault(key, [])
                bucket.append((txn, (resource, token)))

        violations = []
        for component in _strongly_connected_components(succ):
            if len(component) < 2:
                continue
            cycle = tuple(by_id[node] for node in sorted(component))
            if any(not txn.unary for txn in cycle):
                violations.append(AtomicityViolation(cycle=cycle))
        violations.sort(key=lambda v: v.cycle[0].txn_id)
        return AtomicityReport(transactions=transactions,
                               violations=violations, conflict_edges=edges)

    def _resource_key(self, resource) -> Hashable:
        tag = resource[0]
        if tag == "pt":
            # Points conflict only at equal value (or plain/plain within
            # conflicting schemas); bucket by object + value so candidate
            # sets stay small, mirroring the detector's hashing.
            point = resource[1]
            return ("pt", point.obj, point.value)
        return resource

    def _resources_conflict(self, res1, token1, res2, token2) -> bool:
        tag1, tag2 = res1[0], res2[0]
        if tag1 != tag2:
            return False
        if tag1 == "pt":
            rep = token1
            return rep.conflicts(res1[1], res2[1])
        if res1 != res2:
            return False
        return self._tokens_conflict(res1, token1, token2)


def _strongly_connected_components(
        succ: Dict[int, Dict[int, None]]) -> List[List[int]]:
    """Tarjan's algorithm with an explicit stack.

    Recursion would overflow on one thread's program-order chain of more
    than ~1,000 transactions.
    """
    index: Dict[int, int] = {}
    low: Dict[int, int] = {}
    stack: List[int] = []
    on_stack: Set[int] = set()
    work: List[Tuple[int, Iterator[int]]] = []
    components: List[List[int]] = []

    def enter(node: int) -> None:
        index[node] = low[node] = len(index)
        stack.append(node)
        on_stack.add(node)
        work.append((node, iter(succ[node])))

    for root in succ:
        if root in index:
            continue
        enter(root)
        while work:
            node, children = work[-1]
            for child in children:
                if child not in index:
                    enter(child)
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    components.append(component)
    return components
