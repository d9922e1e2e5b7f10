"""The timing schemes index the hash tree in closed form.

chash, mhash and ihash compute each chunk's parent and entry address
inline (``parent = chunk // m - 1``, ``entry = parent * chunk_bytes +
(chunk % m) * hash_bytes``) instead of asking :class:`TreeLayout`.  These
tests hold that arithmetic to :meth:`TreeLayout.hash_location` on every
chunk of small trees, by recording the L2 hash-entry lookups a walk makes
from an empty L2 (every lookup misses, so the walk climbs to secure
memory), and check that an address past the tree still raises
``IndexError`` from both entry points.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cache.cache import CacheSim
from repro.common.config import SchemeKind, table1_config
from repro.common.units import KB
from repro.dram.bus import MainMemoryTiming
from repro.hashengine.engine import HashEngineTiming
from repro.hashtree.layout import TreeLayout
from repro.schemes import build_scheme

GEOMETRIES = [(arity, chunk_bytes)
              for arity in (2, 4, 8) for chunk_bytes in (64, 128)]
TREE_SCHEMES = (SchemeKind.CHASH, SchemeKind.MHASH, SchemeKind.IHASH)
LEAVES = 40


class RecordingL2(CacheSim):
    """An L2 that records the address of every hash-entry lookup."""

    def __init__(self, config):
        super().__init__(config)
        self.hash_lookups = []

    def access(self, address, write=False, kind="data"):
        if kind == "hash":
            self.hash_lookups.append(address)
        return super().access(address, write=write, kind=kind)


def _layout(arity: int, chunk_bytes: int) -> TreeLayout:
    return TreeLayout(LEAVES * chunk_bytes, chunk_bytes, chunk_bytes // arity)


def _scheme(kind: SchemeKind, layout: TreeLayout):
    config = table1_config(kind)
    config = dataclasses.replace(
        config, l2=dataclasses.replace(config.l2, size_bytes=64 * KB))
    l2 = RecordingL2(config.l2)
    return build_scheme(config, l2, MainMemoryTiming(config.bus, config.dram),
                        HashEngineTiming(config.hash_engine), layout)


def _expected_lookups(layout: TreeLayout, chunk: int) -> list:
    """Entry addresses from ``chunk`` up to secure memory, per the layout."""
    lookups = []
    for current in layout.path_to_root(chunk):
        location = layout.hash_location(current)
        if location.in_secure_memory:
            break
        lookups.append(location.address)
    return lookups


@pytest.mark.parametrize("arity,chunk_bytes", GEOMETRIES)
@pytest.mark.parametrize("kind", TREE_SCHEMES, ids=lambda k: k.value)
def test_miss_walk_visits_layout_entries(kind, arity, chunk_bytes):
    layout = _layout(arity, chunk_bytes)
    for chunk in range(layout.total_chunks):
        scheme = _scheme(kind, layout)
        scheme.handle_data_miss(chunk * chunk_bytes, 0, write=False)
        assert scheme.l2.hash_lookups == _expected_lookups(layout, chunk), chunk


@pytest.mark.parametrize("arity,chunk_bytes", GEOMETRIES)
@pytest.mark.parametrize("kind", TREE_SCHEMES, ids=lambda k: k.value)
def test_writeback_walk_visits_layout_entries(kind, arity, chunk_bytes):
    layout = _layout(arity, chunk_bytes)
    for chunk in range(layout.total_chunks):
        scheme = _scheme(kind, layout)
        scheme.handle_writeback(chunk * chunk_bytes, 0)
        expected = _expected_lookups(layout, chunk)
        lookups = scheme.l2.hash_lookups
        # mhash/ihash re-access the entry to dirty it once it is resident
        assert lookups[:len(expected)] == expected, chunk
        assert set(lookups) == set(expected), chunk


@pytest.mark.parametrize("arity,chunk_bytes", GEOMETRIES)
def test_naive_walk_reads_one_chunk_per_level(arity, chunk_bytes):
    layout = _layout(arity, chunk_bytes)
    for chunk in range(layout.total_chunks):
        scheme = _scheme(SchemeKind.NAIVE, layout)
        scheme.handle_data_miss(chunk * chunk_bytes, 0, write=False)
        scheme.handle_writeback(chunk * chunk_bytes, 0)
        depth = layout.depth(chunk)
        assert scheme.stats["hash_chunk_reads"] == 2 * depth, chunk
        assert scheme.stats["hash_chunk_writes"] == depth, chunk


@pytest.mark.parametrize(
    "kind", TREE_SCHEMES + (SchemeKind.NAIVE,), ids=lambda k: k.value)
def test_address_past_the_tree_raises(kind):
    layout = _layout(4, 64)
    end = layout.total_chunks * layout.chunk_bytes
    for address in (end, end + 64, 10 * end, -64):
        scheme = _scheme(kind, layout)
        with pytest.raises(IndexError):
            scheme.handle_data_miss(address, 0, write=False)
        with pytest.raises(IndexError):
            scheme.handle_writeback(address, 0)
    # the last chunk is still inside
    _scheme(kind, layout).handle_data_miss(end - 1, 0, write=False)
