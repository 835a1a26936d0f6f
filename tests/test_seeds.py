"""The table of seeded streams: keys that cannot collide, and a manifest
derivation that states every row."""

from __future__ import annotations

from collections import defaultdict

import pytest

from fedsim.seeds import STREAMS, derivation, sequence


def test_streams_on_one_base_differ_in_the_first_element_of_their_key():
    by_base = defaultdict(list)
    for name, stream in STREAMS.items():
        assert stream.base in ("seed", "data.synthetic.seed") or stream.base in STREAMS
        by_base[stream.base].append(stream.prefix[:1])
    for base, firsts in by_base.items():
        # () is a key that starts with an index, which may take any value.
        assert len(set(firsts)) == len(firsts), base
        assert () not in firsts or len(firsts) == 1, base


def test_every_stream_is_in_the_derivation():
    text = derivation()
    for name, stream in STREAMS.items():
        key = ",".join(map(str, stream.prefix + stream.indices))
        stated = (f"({key}) {name}" if stream.prefix
                  else f"{name}: SeedSequence(<")
        assert stated in text, name
        assert stream.prefix or f"spawn_key=({key},)" in text, name


def test_a_stream_takes_exactly_its_indices():
    assert sequence("training", 7, 3, 1).spawn_key == (2, 3, 1)
    with pytest.raises(TypeError, match="'training' takes indices"):
        sequence("training", 7, 3)
