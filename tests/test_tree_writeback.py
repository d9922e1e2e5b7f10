"""Write-backs that recurse into the chunk being written back.

A dirty chunk's write-back first makes its parent resident.  Fetching
the parent can evict and write back a *child* of that chunk, whose
hash update must land in the chunk's newest trusted copy — the one in
flight — not in a copy reloaded from memory, which is stale until the
outer write-back stores it.  A small trusted cache over a deep tree
makes this nesting frequent: uniform 16-byte reads and writes must then
behave exactly like a plain byte array, with no false integrity errors.

The same holds for a chunk being *filled*: the victims evicted to make
room for it can be its children, whose write-backs must update the
verified copy about to be installed rather than reload it from memory.
"""

from __future__ import annotations

import random

import pytest

from repro.hashtree.verifier import MemoryVerifier
from repro.memory import UntrustedMemory

DATA_BYTES = 16 * 1024
CACHE_CHUNKS = 8
OPS = 2_000
SPAN = 16


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("scheme", ("chash", "mhash", "ihash"))
def test_small_cache_matches_shadow(scheme, seed):
    verifier = MemoryVerifier(UntrustedMemory(4 * DATA_BYTES), DATA_BYTES,
                              scheme=scheme, cache_chunks=CACHE_CHUNKS)
    verifier.initialize()
    shadow = bytearray(DATA_BYTES)
    rng = random.Random(seed)
    for _ in range(OPS):
        address = rng.randrange(0, DATA_BYTES - SPAN + 1)
        if rng.random() < 0.5:
            payload = rng.randbytes(SPAN)
            verifier.write(address, payload)
            shadow[address:address + SPAN] = payload
        else:
            assert (verifier.read(address, SPAN)
                    == bytes(shadow[address:address + SPAN]))
    verifier.flush()
    assert verifier.read(0, DATA_BYTES) == bytes(shadow)


@pytest.mark.parametrize("cache_chunks, seed", ((2, 15), (4, 12), (4, 27)))
def test_tiny_cache_fills_match_shadow(cache_chunks, seed):
    """chash with a 2-4 chunk cache over a 32 KiB tenant, mixed 1/16/64
    byte reads and writes and frequent flushes."""
    data_bytes = 32 * 1024
    verifier = MemoryVerifier(UntrustedMemory(4 * data_bytes), data_bytes,
                              scheme="chash", cache_chunks=cache_chunks)
    verifier.initialize()
    shadow = bytearray(data_bytes)
    rng = random.Random(seed)
    for _ in range(1_500):
        draw = rng.random()
        address = rng.randrange(0, data_bytes - 64)
        length = rng.choice((1, 16, 64))
        if draw < 0.6:
            payload = rng.randbytes(length)
            verifier.write(address, payload)
            shadow[address:address + length] = payload
        elif draw < 0.85:
            assert (verifier.read(address, length)
                    == bytes(shadow[address:address + length]))
        else:
            verifier.flush()
    verifier.flush()
    assert verifier.read(0, data_bytes) == bytes(shadow)
