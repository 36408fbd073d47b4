"""The hash-once contract of the VFG's node keys.

``TopNode``, ``MemNode``, ``MemLoc`` and ``MemObject`` compute their
hash once, at construction.  The cached value must be the one the
generated dataclass ``__hash__`` would return (so set and dict
iteration orders do not move), and it must never travel in a pickle:
string hashes differ between processes with different hash seeds.
"""

from __future__ import annotations

import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.memobjects import HEAP, MemLoc, MemObject
from repro.vfg.graph import MemNode, TopNode

SRC = Path(__file__).resolve().parents[2] / "src"

OBJ = MemObject("h:buf", HEAP, size=4, func="f", alloc_uid=7, context=3)
LOC = MemLoc(OBJ, 2)
KEYS = {
    "MemObject": OBJ,
    "MemLoc": LOC,
    "MemNode": MemNode("f", LOC, 5),
    "TopNode": TopNode("f", "x", 3),
}

#: Rebuilds KEYS from scratch in another process (no shared objects).
_REBUILD = """
from repro.analysis.memobjects import HEAP, MemLoc, MemObject
from repro.vfg.graph import MemNode, TopNode
obj = MemObject("h:buf", HEAP, size=4, func="f", alloc_uid=7, context=3)
loc = MemLoc(obj, 2)
fresh = {
    "MemObject": obj,
    "MemLoc": loc,
    "MemNode": MemNode("f", loc, 5),
    "TopNode": TopNode("f", "x", 3),
}
"""


def field_tuple(key) -> tuple:
    return tuple(getattr(key, f.name) for f in dataclasses.fields(key))


@pytest.mark.parametrize("name", sorted(KEYS))
def test_hash_is_the_field_tuple_hash(name):
    key = KEYS[name]
    assert hash(key) == hash(field_tuple(key))


@pytest.mark.parametrize("name", sorted(KEYS))
def test_pickle_round_trip_keeps_eq_and_hash(name):
    key = KEYS[name]
    payload = pickle.dumps(key)
    assert b"_hash" not in payload
    clone = pickle.loads(payload)
    assert clone == key
    assert hash(clone) == hash(key)


@pytest.mark.parametrize("name", sorted(KEYS))
def test_deepcopy(name):
    key = KEYS[name]
    clone = copy.deepcopy(key)
    assert clone == key and clone is not key
    assert hash(clone) == hash(key)
    assert field_tuple(clone) == field_tuple(key)


def test_unpickled_hash_follows_the_new_hash_seed():
    """A key pickled here and unpickled under another hash seed hashes
    like a key built fresh there, so dict lookups keep working."""
    seed = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
    script = _REBUILD + """
import pickle, sys
keys = pickle.loads(sys.stdin.buffer.read())
for name, key in sorted(keys.items()):
    assert key == fresh[name], name
    assert hash(key) == hash(fresh[name]), name
    assert {fresh[name]: 1}[key] == 1, name
print(hash("probe"))
"""
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", script],
        input=pickle.dumps(KEYS),
        capture_output=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr.decode()
    # The child really ran under a different string hash.
    assert int(done.stdout) != hash("probe")
