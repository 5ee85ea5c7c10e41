"""Core of the reproduction: execution model, vector clocks, access points
and the commutativity race detector (Sections 3–5 of the paper)."""

from .access_points import (AccessPoint, AccessPointRepresentation,
                            NaiveRepresentation, SchemaRepresentation,
                            representations_equivalent)
from .detector import CommutativityRaceDetector, DetectorStats, Strategy
from .direct import DirectDetector
from .errors import (FragmentError, MonitorError, ParseError, ReproError,
                     SchedulerError, SpecificationError, TranslationError)
from .faults import FaultLog, FaultRecord
from .events import (NIL, Action, Event, EventKind, Nil, ObjectId,
                     acquire_event, action_event, begin_event, commit_event,
                     fork_event, join_event, read_event, release_event,
                     write_event)
from .hb import HappensBeforeTracker
from .oracle import CommutativityOracle, RacingPair
from .parallel import ShardedDetector, partition_by_load
from .races import (CommutativityRace, DataRace, LocksetWarning, RaceGroup,
                    RaceReport, RaceTally, group_races, tally)
from .serialize import (TailReader, dump_trace, dumps_trace, follow_trace,
                        load_trace, loads_trace)
from .stream import FollowStatus, StreamAnalyzer, follow_analyze
from .supervise import ShardSupervisor
from .trace import Trace, TraceBuilder
from .vector_clock import BOTTOM, MutableVectorClock, Tid, VectorClock

__all__ = [
    "AccessPoint", "AccessPointRepresentation", "NaiveRepresentation",
    "SchemaRepresentation", "representations_equivalent",
    "CommutativityRaceDetector", "DetectorStats", "Strategy",
    "DirectDetector",
    "FragmentError", "MonitorError", "ParseError", "ReproError",
    "SchedulerError", "SpecificationError", "TranslationError",
    "FaultLog", "FaultRecord",
    "ShardSupervisor",
    "NIL", "Nil", "Action", "Event", "EventKind", "ObjectId",
    "acquire_event", "action_event", "fork_event", "join_event",
    "read_event", "release_event", "write_event",
    "HappensBeforeTracker",
    "CommutativityOracle", "RacingPair",
    "ShardedDetector", "partition_by_load",
    "CommutativityRace", "DataRace", "LocksetWarning", "RaceGroup",
    "RaceReport", "RaceTally", "group_races", "tally",
    "dump_trace", "dumps_trace", "load_trace", "loads_trace",
    "TailReader", "follow_trace",
    "FollowStatus", "StreamAnalyzer", "follow_analyze",
    "begin_event", "commit_event",
    "Trace", "TraceBuilder",
    "BOTTOM", "MutableVectorClock", "Tid", "VectorClock",
]
