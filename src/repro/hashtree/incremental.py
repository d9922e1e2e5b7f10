"""Incremental-MAC tree — the ``ihash`` algorithm (Section 5.4.1).

Like mhash, one tree entry covers several cache blocks; unlike mhash the
entry is an incremental XOR-MAC, so writing back one dirty block does
**not** require assembling the whole chunk:

1. read the parent entry with ReadAndCheck (through the cache);
2. read the block's *old* value directly from memory — unchecked;
3. incrementally swap the old term for the new term in the MAC, flipping
   the block's one-bit timestamp;
4. write the block and the updated parent entry.

The one-bit timestamp per block, stored next to the MAC in the parent
entry and folded into that block's MAC term, is what makes step 2 safe: it
prevents the old/new-value cancellations the paper analyses.  Construct
with ``use_timestamps=False`` to get the *vulnerable* variant — the attacks
in :mod:`repro.attacks.macforge` forge it, and the same code fails against
the timestamped tree.

Entry format (16 bytes, same footprint as a hash entry)::

    [ MAC : 14 bytes ][ timestamp bits : 1 byte ][ reserved : 1 byte ]

which caps ``blocks_per_chunk`` at 8; the paper evaluates 2.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..common.errors import IntegrityError
from ..crypto.hashes import HashFunction
from ..crypto.mac import XorMac
from ..memory.main_memory import UntrustedMemory
from .layout import TreeLayout
from .multiblock import MultiBlockHashTree

#: Entry layout constants.
MAC_BYTES = 14
TS_OFFSET = 14


class IncrementalMacTree(MultiBlockHashTree):
    """The ihash scheme, functionally.

    Parameters
    ----------
    mac_key:
        Secret key of the processor's MAC unit.
    use_timestamps:
        Leave True for the corrected scheme.  False reproduces the
        vulnerable construction of the paper's security analysis.
    """

    def __init__(
        self,
        memory: UntrustedMemory,
        layout: TreeLayout,
        blocks_per_chunk: int = 2,
        mac_key: bytes = b"ihash-default-key",
        use_timestamps: bool = True,
        hash_fn: Optional[HashFunction] = None,
        capacity_blocks: int = 2048,
        checking_enabled: bool = True,
    ):
        if blocks_per_chunk > 8:
            raise ValueError("entry format holds at most 8 timestamp bits")
        super().__init__(
            memory,
            layout,
            blocks_per_chunk=blocks_per_chunk,
            hash_fn=hash_fn,
            capacity_blocks=capacity_blocks,
            checking_enabled=checking_enabled,
        )
        if layout.hash_bytes != MAC_BYTES + 2:
            raise ValueError("ihash entries need 16-byte tree entries")
        self.mac = XorMac(mac_key, use_timestamps=use_timestamps, mac_bytes=MAC_BYTES)
        self.stats.name = "ihash"

    # -- entry packing -------------------------------------------------------------

    @staticmethod
    def _pack_entry(mac: bytes, timestamp_bits: int) -> bytes:
        return mac + bytes([timestamp_bits & 0xFF, 0])

    @staticmethod
    def _unpack_entry(entry: bytes) -> Tuple[bytes, int]:
        return entry[:MAC_BYTES], entry[TS_OFFSET]

    @staticmethod
    def _timestamp_of(timestamp_bits: int, position: int) -> int:
        return (timestamp_bits >> position) & 1

    # -- overridden verification ------------------------------------------------------

    def _verify_against_entry(
        self, chunk: int, blocks: List[bytes], entry: bytes
    ) -> None:
        stored_mac, timestamp_bits = self._unpack_entry(entry)
        timestamps = [
            self._timestamp_of(timestamp_bits, position)
            for position in range(self.blocks_per_chunk)
        ]
        self.stats.add("mac_computations")
        computed = self.mac.compute(
            blocks, timestamps, first_index=chunk * self.blocks_per_chunk
        )
        self.stats.add("hash_checks")
        if computed != stored_mac:
            raise IntegrityError(
                f"MAC check failed for chunk {chunk}",
                address=self.layout.chunk_address(chunk),
            )

    def _initial_entry(self, chunk: int, blocks: List[bytes]) -> bytes:
        """MAC computed from scratch with all timestamps at zero.

        This replaces the paper's cache-flush initialization, which cannot
        work for ihash because its normal write path only ever *updates*
        MACs incrementally (paper, footnote to Section 5.8).
        """
        self.stats.add("mac_computations")
        mac = self.mac.compute(
            blocks,
            [0] * self.blocks_per_chunk,
            first_index=chunk * self.blocks_per_chunk,
        )
        return self._pack_entry(mac, 0)

    # -- overridden write-back: the incremental fast path ----------------------------

    def _write_back_pinned(self, chunk: int, block: int) -> None:
        """Write back one block without assembling its chunk.

        Reads the parent entry (checked, through the cache), the block's
        old memory value (unchecked — this is exactly the read the paper
        worries about), updates the MAC incrementally and flips the
        block's timestamp bit.  The inherited :meth:`write_back` pins the
        chunk's blocks around this: the entry load may recurse into
        evictions, and a concurrent write-back of a chunk-mate would
        update the very entry we are about to overwrite.
        """
        position = block - chunk * self.blocks_per_chunk
        entry = self._load_entry(chunk)
        data = self._newest(block)
        stored_mac, timestamp_bits = self._unpack_entry(entry)
        old_data = self.memory.read(self._block_address(block), self.block_bytes)
        self.stats.add("unchecked_old_reads")
        old_timestamp = self._timestamp_of(timestamp_bits, position)
        if self.mac.use_timestamps:
            new_timestamp = old_timestamp ^ 1
            new_bits = timestamp_bits ^ (1 << position)
        else:
            new_timestamp = old_timestamp
            new_bits = timestamp_bits
        self.stats.add("mac_updates")
        new_mac = self.mac.update(
            stored_mac,
            chunk * self.blocks_per_chunk + position,
            old_data,
            old_timestamp,
            data,
            new_timestamp,
        )
        self.memory.write(self._block_address(block), data)
        self.stats.add("memory_block_writes")
        self._store_entry(chunk, self._pack_entry(new_mac, new_bits))
