"""Every seeded stream of a run, in one table.

A stream is np.random.SeedSequence(base, spawn_key=prefix + indices): its
row names the base seed it spawns from, the prefix (its domain, the fixed
head of the key) and what each index counts.  Streams on one base differ in
the first element of their key, so none can replay another's draws, and a
rerun of the same config is bit-identical whatever order clients run in.
A new stream is one new row; sequence() is the only place a key is built.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class Stream(NamedTuple):
    base: str  # "seed", "data.synthetic.seed", or the stream whose seed it spawns from
    prefix: tuple[int, ...]
    indices: tuple[str, ...]


STREAMS = {
    "init": Stream("seed", (0,), ("variant",)),
    "csv splits": Stream("seed", (1,), ("k",)),
    "training": Stream("seed", (2,), ("t", "k")),
    "scenario": Stream("seed", (3,), ("t",)),
    "class signatures": Stream("data.synthetic.seed", (101,), ()),
    "client series": Stream("data.synthetic.seed", (102,), ("k",)),
    "client split": Stream("data.synthetic.seed", (103,), ("k",)),
    # Spawned from client k's round-t training seed, which no other stream
    # uses, so its key needs no prefix.
    "feddist sub-round of layer l": Stream("training", (), ("l+1",)),
}


def sequence(name: str, base: int, *indices: int) -> np.random.SeedSequence:
    """Stream name's SeedSequence, spawned from its base seed at indices."""
    stream = STREAMS[name]
    if len(indices) != len(stream.indices):
        raise TypeError(f"stream {name!r} takes indices {stream.indices}, got {indices}")
    return np.random.SeedSequence(base, spawn_key=stream.prefix + indices)


def _key(stream: Stream) -> str:
    return ",".join(map(str, stream.prefix + stream.indices))


def _base(base: str) -> str:
    return f"<({_key(STREAMS[base])}) seed>" if base in STREAMS else base


def derivation() -> str:
    """The table as one line, as a run's manifest records it: the streams
    with a prefix grouped by base seed, then each stream without one."""
    groups: dict[str, list[str]] = {}
    spawned = []
    for name, stream in STREAMS.items():
        if stream.prefix:
            groups.setdefault(stream.base, []).append(f"({_key(stream)}) {name}")
        else:
            spawned.append(f"{name}: SeedSequence({_base(stream.base)}, "
                           f"spawn_key=({_key(stream)},))")
    return "; ".join([f"SeedSequence({_base(base)}, spawn_key=domain): " + ", ".join(rows)
                      for base, rows in groups.items()] + spawned)
