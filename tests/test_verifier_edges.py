"""Edge cases of the MemoryVerifier surface not covered elsewhere."""

import pytest

from repro.common import SecureModeError
from repro.hashtree import MemoryVerifier
from repro.memory import UntrustedMemory

DATA = 64 * 64


def fresh(scheme="chash", size=1 << 18):
    memory = UntrustedMemory(size)
    verifier = MemoryVerifier(memory, DATA, scheme=scheme, cache_chunks=8)
    verifier.initialize()
    return memory, verifier


class TestBoundaryAccesses:
    def test_last_byte(self):
        _, verifier = fresh()
        verifier.write(DATA - 1, b"\x7f")
        assert verifier.read(DATA - 1, 1) == b"\x7f"

    def test_read_crossing_end_rejected(self):
        _, verifier = fresh()
        with pytest.raises(SecureModeError):
            verifier.read(DATA - 4, 8)

    def test_zero_length_rejected(self):
        _, verifier = fresh()
        with pytest.raises(ValueError):
            verifier.read(0, 0)

    def test_whole_segment_write(self):
        _, verifier = fresh()
        payload = bytes(range(256)) * (DATA // 256)
        verifier.write(0, payload)
        assert verifier.read(0, DATA) == payload


class TestExactBoundaries:
    """Regression tests for span arithmetic at the segment edges."""

    def test_zero_length_write_rejected(self):
        _, verifier = fresh()
        with pytest.raises(ValueError):
            verifier.write(0, b"")

    def test_zero_length_unchecked_read_rejected(self):
        _, verifier = fresh()
        with pytest.raises(ValueError):
            verifier.read_without_checking(0, 0)

    def test_zero_length_unchecked_write_rejected(self):
        # used to probe address - 1 (the byte *before* the span) and
        # decide based on an unrelated chunk's protection state
        _, verifier = fresh()
        verifier.unprotect_range(0, 64)
        with pytest.raises(ValueError):
            verifier.write_without_checking(64, b"")
        with pytest.raises(ValueError):
            verifier.write_without_checking(0, b"")

    def test_zero_length_unprotect_rejected(self):
        _, verifier = fresh()
        with pytest.raises(ValueError):
            verifier.unprotect_range(0, 0)
        with pytest.raises(ValueError):
            verifier.rebuild_range(0, 0)

    def test_span_ending_exactly_at_data_bytes(self):
        _, verifier = fresh()
        chunk = verifier.layout.chunk_bytes
        verifier.unprotect_range(DATA - chunk, chunk)
        verifier.write_without_checking(DATA - 4, b"edge")
        verifier.rebuild_range(DATA - chunk, chunk)
        assert verifier.read(DATA - 4, 4) == b"edge"

    def test_unprotect_crossing_end_is_secure_mode_error(self):
        _, verifier = fresh()
        with pytest.raises(SecureModeError):
            verifier.unprotect_range(DATA - 4, 8)
        # nothing was unprotected by the failed call
        assert verifier.read(DATA - 4, 4)

    def test_rebuild_crossing_end_is_secure_mode_error(self):
        _, verifier = fresh()
        with pytest.raises(SecureModeError):
            verifier.rebuild_range(DATA - 4, 8)

    def test_negative_address_unprotect_rejected(self):
        _, verifier = fresh()
        with pytest.raises(SecureModeError):
            verifier.unprotect_range(-64, 64)

    def test_rebuild_partially_covered_is_atomic(self):
        # span covers one unprotected and one protected chunk: the call
        # must fail without rebuilding (re-protecting) the first chunk
        memory, verifier = fresh()
        chunk = verifier.layout.chunk_bytes
        verifier.unprotect_range(0, chunk)  # chunk 0 only
        memory.poke(verifier.physical_address(0), b"DMA!")
        with pytest.raises(SecureModeError):
            verifier.rebuild_range(0, 2 * chunk)
        # chunk 0 is still unprotected — the failed rebuild touched nothing
        with pytest.raises(SecureModeError):
            verifier.read(0, 4)
        verifier.rebuild_range(0, chunk)
        assert verifier.read(0, 4) == b"DMA!"

    def test_unchecked_window_read_at_exact_start(self):
        _, verifier = fresh()
        window = verifier.unprotected_window
        verifier.write_without_checking(window.start, b"w")
        assert verifier.read_without_checking(window.start, 1) == b"w"

    def test_unchecked_read_spanning_protection_boundary_rejected(self):
        _, verifier = fresh()
        verifier.unprotect_range(DATA - 64, 64)
        with pytest.raises(SecureModeError):
            verifier.read_without_checking(DATA - 4, 8)


class TestReadMany:
    def test_batched_reads_match_sequential(self):
        _, verifier = fresh()
        payload = bytes(range(256)) * (DATA // 256)
        verifier.write(0, payload)
        spans = [(0, 4), (2, 8), (60, 10), (DATA - 5, 5), (100, 1)]
        batched = verifier.read_many(spans)
        assert batched == [verifier.read(a, n) for a, n in spans]

    def test_overlap_amortizes_walks(self):
        _, verifier = fresh()
        before = verifier.walk_counters()
        verifier.read_many([(0, 4), (8, 4), (16, 4), (24, 4)])  # one chunk
        after = verifier.walk_counters()
        assert after["requested"] - before["requested"] == 4
        assert after["performed"] - before["performed"] == 1

    def test_bad_span_fails_whole_batch(self):
        _, verifier = fresh()
        verifier.unprotect_range(0, 64)
        with pytest.raises(SecureModeError):
            verifier.read_many([(128, 4), (0, 4)])
        with pytest.raises(ValueError):
            verifier.read_many([(128, 4), (256, 0)])

    @pytest.mark.parametrize("scheme", ["naive", "chash", "mhash", "ihash"])
    def test_read_many_all_schemes(self, scheme):
        _, verifier = fresh(scheme=scheme)
        verifier.write(0, b"abcdefgh" * 32)
        spans = [(0, 8), (4, 8), (250, 10)]
        assert verifier.read_many(spans) == [
            verifier.read(a, n) for a, n in spans
        ]


class TestUnprotectLifecycle:
    def test_unprotect_is_chunk_granular(self):
        _, verifier = fresh()
        verifier.unprotect_range(10, 4)  # inside chunk 0
        with pytest.raises(SecureModeError):
            verifier.read(0, 4)          # whole chunk is unprotected
        verifier.read(64, 4)             # neighbouring chunk unaffected

    def test_double_unprotect_is_idempotent(self):
        _, verifier = fresh()
        verifier.unprotect_range(0, 64)
        verifier.unprotect_range(0, 64)
        verifier.rebuild_range(0, 64)
        verifier.read(0, 4)

    def test_partial_rebuild_leaves_rest_unprotected(self):
        _, verifier = fresh()
        verifier.unprotect_range(0, 128)  # two chunks
        verifier.rebuild_range(0, 64)
        verifier.read(0, 4)
        with pytest.raises(SecureModeError):
            verifier.read(64, 4)

    def test_writes_refused_on_unprotected_chunks(self):
        _, verifier = fresh()
        verifier.unprotect_range(0, 64)
        with pytest.raises(SecureModeError):
            verifier.write(0, b"x")

    def test_write_without_checking_into_unprotected_chunk(self):
        memory, verifier = fresh()
        verifier.unprotect_range(0, 64)
        verifier.write_without_checking(0, b"dma payload")
        assert verifier.read_without_checking(0, 11) == b"dma payload"
        verifier.rebuild_range(0, 64)
        assert verifier.read(0, 11) == b"dma payload"


class TestUnprotectedWindow:
    def test_window_size_matches_headroom(self):
        memory, verifier = fresh(size=1 << 18)
        expected = (1 << 18) - verifier.layout.physical_bytes
        assert len(verifier.unprotected_window) == expected

    def test_no_window_when_memory_exact(self):
        from repro.hashtree import TreeLayout
        layout = TreeLayout(DATA, 64, 16)
        memory = UntrustedMemory(layout.physical_bytes)
        verifier = MemoryVerifier(memory, DATA)
        assert len(verifier.unprotected_window) == 0

    def test_window_read_out_of_bounds(self):
        _, verifier = fresh()
        window = verifier.unprotected_window
        with pytest.raises(SecureModeError):
            verifier.read_without_checking(window.stop, 1)


class TestSchemesShareSurface:
    @pytest.mark.parametrize("scheme", ["naive", "chash", "mhash", "ihash"])
    def test_unprotect_rebuild_works_everywhere(self, scheme):
        memory, verifier = fresh(scheme=scheme)
        chunk = verifier.layout.chunk_bytes
        verifier.write(0, b"before")
        verifier.flush()
        verifier.unprotect_range(0, chunk)
        physical = verifier.physical_address(0)
        memory.poke(physical, b"DMA!")
        verifier.rebuild_range(0, chunk)
        assert verifier.read(0, 4) == b"DMA!"
