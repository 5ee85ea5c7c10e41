"""The benchmark's workloads: their sizes, inputs and command lines.

Each workload materializes into a directory holding its generated input
files and a ``manifest.json`` that tells every other part of the
benchmark what to run: the trace files, the ``--object`` bindings and the
extra ``repro-analyze`` flags.  Why each workload exists is recorded in
``README.md`` next to this file.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import gen

HERE = os.path.dirname(os.path.abspath(__file__))
PINS_PATH = os.path.join(HERE, "pins.json")

#: Seed whose inputs are pinned by SHA-256 in ``pins.json``.
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    #: "contended", "butterfly" or "mixed" (see :mod:`gen`)
    shape: str
    ops: int
    threads: int
    #: extra ``repro-analyze`` flags; ``None`` marks the daemon workload
    cli_flags: Optional[Tuple[str, ...]] = ()
    #: serve-2t: distinct tenant streams, concurrent connections and
    #: streams served per daemon lifetime
    pool: int = 0
    connections: int = 0
    streams_per_daemon: int = 0

    @property
    def served(self) -> bool:
        return self.cli_flags is None

    @property
    def pinned(self) -> bool:
        """The mixed shape draws on ``repro.specs`` semantics, so its
        default-seed input is pinned."""
        return self.shape == "mixed"

    def sized(self, scale: float) -> "Workload":
        """The same workload at ``scale`` times its operation count.

        Used by the tests' smoke runs; the butterfly's thread count
        shrinks with it because its lock prologue grows with the threads.
        """
        if scale == 1.0:
            return self
        ops = max(40, int(self.ops * scale))
        threads = self.threads
        if self.shape == "butterfly":
            threads = max(16, int(self.threads * scale))
        streams = (max(2 * self.connections,
                       int(self.streams_per_daemon * scale))
                   if self.served else 0)
        return dataclasses.replace(self, ops=ops, threads=threads,
                                   streams_per_daemon=streams)


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("contended64", "contended", ops=60_000, threads=64),
        Workload("butterfly768-w2", "butterfly", ops=12_000, threads=768,
                 cli_flags=("--workers", "2")),
        Workload("predict-mixed7", "mixed", ops=1_400, threads=8,
                 cli_flags=("--predict",)),
        Workload("serve-2t", "mixed", ops=2_000, threads=4, cli_flags=None,
                 pool=4, connections=2, streams_per_daemon=16),
    )
}


def generate(workload: Workload, seed: int) -> Tuple[List[str], Dict[str, str]]:
    """The workload's input texts (one per trace file) and its bindings."""
    if workload.shape == "contended":
        text, bindings = gen.contended_text(seed, workload.ops,
                                            threads=workload.threads)
        return [text], bindings
    if workload.shape == "butterfly":
        text, bindings = gen.butterfly_text(seed, workload.ops,
                                            threads=workload.threads)
        return [text], bindings
    count = workload.pool if workload.served else 1
    texts = []
    bindings: Dict[str, str] = {}
    for index in range(count):
        text, bindings = gen.mixed_text(seed * 1000 + index, workload.ops,
                                        threads=workload.threads)
        texts.append(text)
    return texts, bindings


def inputs_digest(texts: List[str]) -> str:
    digest = hashlib.sha256()
    for text in texts:
        digest.update(gen.sha256(text).encode("ascii"))
    return digest.hexdigest()


def check_pin(workload: Workload, scale: float) -> Optional[str]:
    """Regenerate the default-seed input and compare it with its pin.

    Returns an error message, or None when the input matches (or the
    workload's generator does not depend on the program's semantics).
    """
    if not workload.pinned or scale != 1.0:
        return None
    with open(PINS_PATH, encoding="utf-8") as handle:
        expected = json.load(handle).get(workload.name)
    texts, _ = generate(workload, DEFAULT_SEED)
    actual = inputs_digest(texts)
    if actual != expected:
        return (f"{workload.name}: default-seed input digest {actual} "
                f"differs from the pinned {expected}; the generator or the "
                f"semantics it draws on changed")
    return None


def materialize(workload: Workload, seed: int, directory: str) -> dict:
    """Write the inputs and ``manifest.json`` into ``directory``."""
    os.makedirs(directory, exist_ok=True)
    texts, bindings = generate(workload, seed)
    files = []
    events = 0
    size = 0
    for index, text in enumerate(texts):
        name = f"trace-{index}.jsonl"
        with open(os.path.join(directory, name), "w",
                  encoding="utf-8") as handle:
            handle.write(text)
        files.append(name)
        events += text.count("\n") - 1
        size += len(text.encode("utf-8"))
    manifest = {
        "workload": workload.name,
        "seed": seed,
        "shape": workload.shape,
        "files": files,
        "bindings": bindings,
        "cli_flags": (list(workload.cli_flags)
                      if workload.cli_flags is not None else None),
        "events": events,
        "input_bytes": size,
        "inputs_sha256": inputs_digest(texts),
    }
    with open(os.path.join(directory, "manifest.json"), "w",
              encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=1, sort_keys=True)
    return manifest


def object_flags(bindings: Dict[str, str]) -> List[str]:
    flags: List[str] = []
    for name, kind in bindings.items():
        flags += ["--object", f"{name}={kind}"]
    return flags
