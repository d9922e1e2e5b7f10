"""High-level memory-verification API (Sections 5.6–5.8).

:class:`MemoryVerifier` is the facade a "program" (or the certified-
execution runtime) talks to.  It owns:

* one functional tree (naive / chash / mhash / ihash) over the protected
  segment ``[0, data_bytes)`` of an untrusted RAM;
* the secure-mode state machine — reads and writes only verify once
  :meth:`initialize` has run (Section 5.8);
* the unprotected window above the tree and the ``ReadWithoutChecking``
  discipline (Section 5.7): protected chunks may be marked unprotected for
  DMA and must then be explicitly rebuilt before normal reads resume.

Addresses given to the verifier are *protected-space* addresses: the
verifier (not the program) knows that leaf chunks live above the hash
chunks physically.

Every public method holds the verifier's re-entrant lock, so one
:class:`MemoryVerifier` may be shared by concurrent service threads (the
``repro.serve`` forest does exactly that).  The trees underneath are not
independently locked — the verifier lock is the single serialization
point for a tenant.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Sequence, Tuple

from ..checks.tsan import guarded_dict, new_rlock
from ..common.errors import ConfigurationError, SecureModeError
from ..crypto.hashes import HashFunction, default_hash
from ..memory.main_memory import UntrustedMemory
from .cached import CachedHashTree
from .incremental import IncrementalMacTree
from .layout import TreeLayout
from .multiblock import MultiBlockHashTree
from .tree import HashTree


class VerifierState(enum.Enum):
    UNINITIALIZED = "uninitialized"
    ACTIVE = "active"


class MemoryVerifier:
    """Verified load/store interface over an untrusted RAM.

    Parameters
    ----------
    memory:
        The untrusted RAM; must hold the tree plus any unprotected window.
    data_bytes:
        Size of the protected (program-visible) segment.
    scheme:
        ``"naive"``, ``"chash"``, ``"mhash"`` or ``"ihash"``.
    chunk_bytes, cache_chunks, blocks_per_chunk, mac_key, hash_fn:
        Forwarded to the underlying tree.
    """

    def __init__(
        self,
        memory: UntrustedMemory,
        data_bytes: int,
        scheme: str = "chash",
        chunk_bytes: int = 64,
        cache_chunks: int = 1024,
        blocks_per_chunk: int = 2,
        mac_key: bytes = b"ihash-default-key",
        hash_fn: Optional[HashFunction] = None,
    ):
        hash_fn = hash_fn if hash_fn is not None else default_hash()
        self.layout = TreeLayout(data_bytes, chunk_bytes, hash_fn.digest_bytes)
        if memory.size_bytes < self.layout.physical_bytes:
            raise ConfigurationError(
                f"memory of {memory.size_bytes} bytes cannot hold the tree "
                f"({self.layout.physical_bytes} bytes); leave headroom for "
                f"an unprotected window if DMA is needed"
            )
        self.memory = memory
        self.scheme = scheme
        if scheme == "naive":
            self.tree = HashTree(memory, self.layout, hash_fn)
        elif scheme == "chash":
            self.tree = CachedHashTree(
                memory, self.layout, hash_fn, capacity_chunks=cache_chunks
            )
        elif scheme == "mhash":
            self.tree = MultiBlockHashTree(
                memory,
                self.layout,
                blocks_per_chunk=blocks_per_chunk,
                hash_fn=hash_fn,
                capacity_blocks=cache_chunks * blocks_per_chunk,
            )
        elif scheme == "ihash":
            self.tree = IncrementalMacTree(
                memory,
                self.layout,
                blocks_per_chunk=blocks_per_chunk,
                mac_key=mac_key,
                hash_fn=hash_fn,
                capacity_blocks=cache_chunks * blocks_per_chunk,
            )
        else:
            raise ConfigurationError(f"unknown scheme {scheme!r}")
        self._lock = new_rlock("MemoryVerifier._lock")
        self.state = VerifierState.UNINITIALIZED
        # chunk -> True; a guarded dict so REPRO_TSAN=1 catches any
        # mutation that slips outside the verifier lock
        self._unprotected_chunks: Dict[int, bool] = guarded_dict(
            self._lock, "MemoryVerifier._unprotected_chunks"
        )
        self._walks_requested = 0
        self._walks_performed = 0

    # -- secure-mode lifecycle ----------------------------------------------------

    def initialize(self) -> None:
        """Enter secure mode: cover current memory contents with the tree.

        chash uses the paper's write-touch-then-flush procedure; naive
        builds bottom-up; mhash/ihash compute entries from scratch (the
        flush trick cannot produce from-scratch MACs, see Section 5.8's
        footnote).
        """
        with self._lock:
            if isinstance(self.tree, CachedHashTree):
                self.tree.initialize_by_touch()
            elif isinstance(self.tree, MultiBlockHashTree):
                self.tree.initialize_from_memory()
            else:
                self.tree.build()
            self.state = VerifierState.ACTIVE

    @property
    def active(self) -> bool:
        with self._lock:
            return self.state is VerifierState.ACTIVE

    def _require_active(self) -> None:
        if not self.active:
            raise SecureModeError("verifier not initialized; call initialize()")

    # -- protected accesses ----------------------------------------------------------

    def is_protected(self, address: int) -> bool:
        """True when ``address`` lies in the protected segment *and* its
        chunk has not been temporarily unprotected for DMA."""
        with self._lock:
            if not 0 <= address < self.layout.data_bytes:
                return False
            chunk, _ = self.layout.leaf_for_address(address)
            return chunk not in self._unprotected_chunks

    def read(self, address: int, length: int) -> bytes:
        """Verified read; refuses unprotected bytes (use read_without_checking)."""
        with self._lock:
            self._require_active()
            self._refuse_unprotected(address, length)
            return self.tree.read(address, length)

    def read_many(self, spans: Sequence[Tuple[int, int]]) -> List[bytes]:
        """Verified batched read: one tree walk per *distinct* chunk.

        Overlapping spans share chunk fetches, so N requests touching the
        same hot path cost one verification walk instead of N (the
        service batcher's amortization hook, generalizing the paper's
        Section 5.9 background checking).  Results are byte-identical to
        issuing :meth:`read` per span; every span is validated before any
        chunk is fetched, so a bad span fails the whole batch atomically.
        An empty batch is a ``ValueError``.
        """
        with self._lock:
            self._require_active()
            spans = list(spans)
            if not spans:
                raise ValueError("spans must be a non-empty list")
            plans: List[List[Tuple[int, int, int]]] = []
            for address, length in spans:
                self._refuse_unprotected(address, length)
                pieces: List[Tuple[int, int, int]] = []
                cursor, remaining = address, length
                while remaining > 0:
                    chunk, offset = self.layout.leaf_for_address(cursor)
                    take = min(remaining, self.layout.chunk_bytes - offset)
                    pieces.append((chunk, offset, take))
                    cursor += take
                    remaining -= take
                plans.append(pieces)
            needed = sorted({chunk for pieces in plans for chunk, _, _ in pieces})
            fetched: Dict[int, bytes] = {}
            for chunk in needed:
                start = self.layout.address_for_leaf(chunk)
                take = min(self.layout.chunk_bytes, self.layout.data_bytes - start)
                fetched[chunk] = self.tree.read(start, take)
            self._walks_requested += sum(len(pieces) for pieces in plans)
            self._walks_performed += len(needed)
            return [
                b"".join(fetched[chunk][offset:offset + take]
                         for chunk, offset, take in pieces)
                for pieces in plans
            ]

    def walk_counters(self) -> Dict[str, int]:
        """Chunk-fetch accounting for :meth:`read_many` amortization.

        ``requested`` counts per-span chunk touches; ``performed`` counts
        the distinct chunks actually walked.  ``requested / performed``
        is the batch-amortization ratio reported by ``repro loadgen``.
        """
        with self._lock:
            return {
                "requested": self._walks_requested,
                "performed": self._walks_performed,
            }

    def write(self, address: int, data: bytes) -> None:
        """Verified write into the protected segment."""
        with self._lock:
            self._require_active()
            self._refuse_unprotected(address, len(data))
            self.tree.write(address, data)

    def flush(self) -> None:
        """Write back all dirty trusted-cache state."""
        with self._lock:
            self.tree.flush()

    # -- the unprotected world (Section 5.7) --------------------------------------------

    @property
    def unprotected_window(self) -> range:
        """Protected-space addresses that map past the tree: always unprotected."""
        extra = self.memory.size_bytes - self.layout.physical_bytes
        return range(self.layout.data_bytes, self.layout.data_bytes + extra)

    def read_without_checking(self, address: int, length: int) -> bytes:
        """The explicit ReadWithoutChecking instruction.

        Succeeds only on unprotected bytes — a program cannot be tricked
        into unchecked reads of data it believes is protected, and
        symmetrically cannot silently read unprotected data with a normal
        load.
        """
        with self._lock:
            # bounds first: the probe loop below runs once per chunk of
            # the span, so a huge span must be refused before it starts
            physical = self._physical_span(address, length)
            for offset in range(0, length, self.layout.chunk_bytes):
                probe = address + offset
                if self.is_protected(probe) or self.is_protected(
                    min(address + length - 1, probe + self.layout.chunk_bytes - 1)
                ):
                    raise SecureModeError(
                        f"address {probe:#x} is protected; use a normal read"
                    )
            return self.memory.peek(*physical)

    def write_without_checking(self, address: int, data: bytes) -> None:
        """Raw store into unprotected bytes (models a DMA landing zone)."""
        with self._lock:
            if not data:
                # an empty store used to probe address-1, i.e. the byte
                # *before* the span, and could be refused (or allowed)
                # based on an unrelated chunk
                raise ValueError("length must be positive")
            physical, _ = self._physical_span(address, len(data))
            probes = list(range(0, len(data), self.layout.chunk_bytes))
            probes.append(len(data) - 1)
            if any(self.is_protected(address + off) for off in probes):
                raise SecureModeError("cannot write protected bytes unchecked")
            self.memory.write(physical, data)

    def unprotect_range(self, address: int, length: int) -> None:
        """Mark whole chunks as unprotected ahead of a DMA transfer.

        Cached copies are dropped so the DMA data is observed on the next
        (rebuilt) read.
        """
        with self._lock:
            self._require_active()
            for chunk in self._chunks_covering(address, length):
                self._unprotected_chunks[chunk] = True
                self.tree.invalidate_chunk(chunk)

    def rebuild_range(self, address: int, length: int) -> None:
        """Recompute tree entries over DMA-written chunks and re-protect them.

        Validates the whole span before touching the tree: a span that
        covers any still-protected chunk fails atomically instead of
        rebuilding a prefix and then raising mid-loop.
        """
        with self._lock:
            self._require_active()
            chunks = self._chunks_covering(address, length)
            stale = [c for c in chunks if c not in self._unprotected_chunks]
            if stale:
                raise SecureModeError(
                    f"chunk(s) {stale} in [{address:#x}, {address + length:#x}) "
                    "were not unprotected"
                )
            for chunk in chunks:
                self.tree.rebuild_chunk_from_memory(chunk)
                self._unprotected_chunks.pop(chunk, None)

    def physical_address(self, address: int) -> int:
        """Translate a protected/window address to its physical address."""
        physical, _ = self._physical_span(address, 1)
        return physical

    # -- internals ------------------------------------------------------------------------

    def _chunks_covering(self, address: int, length: int) -> range:
        _require_ints(address, length)
        if length <= 0:
            raise ValueError("length must be positive")
        if address < 0 or address + length > self.layout.data_bytes:
            # unprotect/rebuild spans must lie wholly inside the tree;
            # report the discipline violation, not a raw IndexError from
            # the layout probing address + length - 1
            raise SecureModeError(
                f"span [{address:#x}, {address + length:#x}) exits the "
                f"protected segment [0, {self.layout.data_bytes:#x})"
            )
        first, _ = self.layout.leaf_for_address(address)
        last, _ = self.layout.leaf_for_address(address + length - 1)
        return range(first, last + 1)

    def _refuse_unprotected(self, address: int, length: int) -> None:
        _require_ints(address, length)
        if length <= 0:
            raise ValueError("length must be positive")
        if address + length > self.layout.data_bytes:
            raise SecureModeError(
                "access crosses into the unprotected window; "
                "use read/write_without_checking"
            )
        for chunk in self._chunks_covering(address, length):
            if chunk in self._unprotected_chunks:
                raise SecureModeError(
                    f"chunk {chunk} is unprotected (pending DMA rebuild)"
                )

    def _physical_span(self, address: int, length: int) -> tuple[int, int]:
        """Map a verifier-space span to (physical_address, length)."""
        _require_ints(address, length)
        if length <= 0:
            raise ValueError("length must be positive")
        if 0 <= address < self.layout.data_bytes:
            if address + length > self.layout.data_bytes:
                raise SecureModeError("span crosses the protection boundary")
            chunk, offset = self.layout.leaf_for_address(address)
            return self.layout.chunk_address(chunk) + offset, length
        window = self.unprotected_window
        if address in window and (address + length - 1) in window:
            physical = self.layout.physical_bytes + (address - window.start)
            return physical, length
        # a discipline violation like any other out-of-bounds span: the
        # service maps SecureModeError to 403, not a dead handler thread
        raise SecureModeError(
            f"span [{address:#x}, {address + length:#x}) lies outside the "
            f"protected segment [0, {self.layout.data_bytes:#x}) and the "
            f"unprotected window [{window.start:#x}, {window.stop:#x})"
        )


def _require_ints(address, length) -> None:
    """A span is two integers (bools count, as everywhere in Python)."""
    if not isinstance(address, int) or not isinstance(length, int):
        raise TypeError(f"span ({address!r}, {length!r}) must be two "
                        f"integers")
