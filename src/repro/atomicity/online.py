"""Online atomicity checking: the analyzer-protocol version.

The offline :class:`~repro.atomicity.checker.AtomicityChecker` needs the
whole recorded trace; this module detects violations *while the program
runs*, as Velodrome does, so it can plug into a
:class:`~repro.runtime.monitor.Monitor` next to RD2 and FastTrack.

The algorithm maintains the transactional happens-before graph
incrementally: per conflict resource it remembers the transactions that
touched it, adds edges as new operations arrive, and checks for a cycle
whenever an edge targets a *live* transaction that could close one —
concretely, when an added edge ``A → B`` finds ``B`` already able to reach
``A`` (a reachability query over the running graph, memoized per check).

Unlike Velodrome's highly-optimized union of in-degrees, this keeps the
graph explicit (successor and predecessor dicts) and does on-demand
reachability — asymptotically heavier but transparent, and still
processing the evaluation workloads in milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Set, Tuple

from ..core.events import Event, EventKind, ObjectId
from ..core.races import RaceReport
from ..core.vector_clock import Tid
from ..runtime.analyzers import Analyzer
from .checker import AtomicityChecker, AtomicityViolation, ConflictMode
from .transactions import Transaction

__all__ = ["OnlineAtomicityViolation", "AtomicityAnalyzer"]

#: node -> its neighbours, in the order the edges were added
_Adjacency = Dict[int, Dict[int, None]]
#: BFS tree of one search side: node -> the node it was reached from
_Links = Dict[int, Optional[int]]


@dataclass(frozen=True)
class OnlineAtomicityViolation(RaceReport):
    """A serializability cycle detected while the program ran."""

    #: labels of the transactions on the detected cycle, in path order
    cycle_labels: Tuple[str, ...]
    #: the event whose processing closed the cycle
    closing_event: str

    def distinct_key(self) -> Hashable:
        return self.cycle_labels

    def __str__(self) -> str:
        return (f"atomicity violation at {self.closing_event}: "
                f"{' → '.join(self.cycle_labels)} → {self.cycle_labels[0]}")


class AtomicityAnalyzer(Analyzer):
    """Monitor-pluggable online conflict-serializability checking.

    Reuses the offline checker's conflict footprints (so the two always
    agree on what conflicts), but builds the graph event by event.  Each
    closed cycle through a non-unary transaction is reported once, as soon
    as the closing edge appears.
    """

    name = "atomicity"

    def __init__(self, mode: ConflictMode = ConflictMode.COMMUTATIVITY,
                 keep_reports: bool = True):
        self._conflicts = AtomicityChecker(mode)
        self._keep_reports = keep_reports
        # Transactions by id (ids count up from 0) and the graph's edges,
        # both directions, as insertion-ordered dicts.
        self._txns: List[Transaction] = []
        self._succ: _Adjacency = {}
        self._pred: _Adjacency = {}
        self._open: Dict[Tid, Transaction] = {}
        self._last_of_thread: Dict[Tid, Transaction] = {}
        self._touches: Dict[Hashable, List] = {}
        self._reported_cycles: Set[frozenset] = set()
        self.violations: List[OnlineAtomicityViolation] = []
        self.violation_count = 0

    # -- analyzer protocol ---------------------------------------------------

    def register_object(self, obj_id: ObjectId, *, representation=None,
                        commutes=None) -> None:
        if representation is not None:
            self._conflicts.register_object(obj_id, representation)

    def process(self, event: Event) -> None:
        tid = event.tid
        if event.kind is EventKind.BEGIN:
            txn = self._fresh_transaction(tid, unary=False)
            self._open[tid] = txn
            return
        if event.kind is EventKind.COMMIT:
            self._open.pop(tid, None)
            return

        txn = self._open.get(tid)
        if txn is None:
            txn = self._fresh_transaction(tid, unary=True)
        self._record_conflicts(event, txn)

    def races(self) -> List[RaceReport]:
        return list(self.violations)

    # -- graph maintenance ---------------------------------------------------------

    def _fresh_transaction(self, tid: Tid, unary: bool) -> Transaction:
        txn = Transaction(txn_id=len(self._txns), tid=tid, unary=unary)
        self._txns.append(txn)
        self._succ[txn.txn_id] = {}
        self._pred[txn.txn_id] = {}
        previous = self._last_of_thread.get(tid)
        if previous is not None:
            self._link(previous.txn_id, txn.txn_id)
        self._last_of_thread[tid] = txn
        return txn

    def _record_conflicts(self, event: Event, txn: Transaction) -> None:
        for resource, token in self._conflicts._footprint(event):
            key = self._conflicts._resource_key(resource)
            for prior_txn, (prior_resource, prior_token) in \
                    self._touches.get(key, ()):
                if prior_txn.txn_id == txn.txn_id:
                    continue
                if self._conflicts._resources_conflict(
                        prior_resource, prior_token, resource, token):
                    self._add_edge(prior_txn, txn, event)
            self._touches.setdefault(key, []).append(
                (txn, (resource, token)))

    def _add_edge(self, earlier: Transaction, later: Transaction,
                  event: Event) -> None:
        if later.txn_id in self._succ[earlier.txn_id]:
            return
        # Cycle check before insertion: does `earlier` already follow
        # `later`?  Then this edge closes a cycle.
        path = _shortest_path(self._succ, self._pred, later.txn_id,
                              earlier.txn_id)
        self._link(earlier.txn_id, later.txn_id)
        if path is not None:
            cycle = [self._txns[node] for node in path]
            if any(not node.unary for node in cycle):
                self._report(cycle, event)

    def _link(self, source: int, target: int) -> None:
        self._succ[source][target] = None
        self._pred[target][source] = None

    def _report(self, cycle: List[Transaction], event: Event) -> None:
        key = frozenset(txn.txn_id for txn in cycle)
        if key in self._reported_cycles:
            return
        self._reported_cycles.add(key)
        violation = OnlineAtomicityViolation(
            cycle_labels=tuple(txn.label for txn in cycle),
            closing_event=event.label())
        self.violation_count += 1
        if self._keep_reports:
            self.violations.append(violation)


def _shortest_path(succ: _Adjacency, pred: _Adjacency, source: int,
                   target: int) -> Optional[List[int]]:
    """A shortest ``source → target`` path, or None if there is none.

    Bidirectional BFS: it expands the smaller fringe (forward on ties)
    and scans neighbours in insertion order.  Which of several
    equal-length paths comes back decides the reported cycle labels and,
    through the dedup key, the violation count; a plain forward BFS
    would pick differently.
    """
    if source == target:
        return [source]
    before: _Links = {source: None}
    after: _Links = {target: None}
    forward, backward = [source], [target]
    while forward and backward:
        if len(forward) <= len(backward):
            forward, meet = _expand(forward, succ, before, after)
        else:
            backward, meet = _expand(backward, pred, after, before)
        if meet is not None:
            return _join(before, after, meet)
    return None


def _expand(fringe: List[int], adjacency: _Adjacency, links: _Links,
            other: _Links) -> Tuple[List[int], Optional[int]]:
    """One BFS level from ``fringe``: the next fringe, and the first node
    the other side has already reached (None if there is none yet)."""
    level: List[int] = []
    for node in fringe:
        for neighbour in adjacency[node]:
            if neighbour not in links:
                links[neighbour] = node
                level.append(neighbour)
            if neighbour in other:
                return level, neighbour
    return level, None


def _join(before: _Links, after: _Links, meet: int) -> List[int]:
    """The path through ``meet``: back-links to the source, reversed,
    then forward links to the target."""
    path = []
    node: Optional[int] = meet
    while node is not None:
        path.append(node)
        node = before[node]
    path.reverse()
    node = after[meet]
    while node is not None:
        path.append(node)
        node = after[node]
    return path
