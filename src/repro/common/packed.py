"""Packed trace row encodings (warm-up and measured modes).

The wire formats between the workload generator and the two consumers of
packed instruction streams.  They live here, below all of them, so no
side has to import another:

* **warm mode** — :meth:`InstructionStream.packed
  <repro.workloads.generators.InstructionStream.packed>` feeding
  :meth:`MemoryHierarchy.warm_vec
  <repro.cache.hierarchy.MemoryHierarchy.warm_vec>`.  A chunk is a
  pair of parallel ``array`` columns ``(codes, values)``: ``codes``
  (``'B'``) holds one ``WARM_*`` kind code per row, ``values`` (``'Q'``)
  the row's address.  A row is one *memory event* of the warm-up replay,
  not one instruction: instruction-fetch rows appear only when the stream
  crosses into a new I-cache line (the same dedup the object-stream
  warm-up loop applies), and non-memory instructions that stay within a
  line emit nothing.

* **measured mode** — :meth:`InstructionStream.take_packed
  <repro.workloads.generators.InstructionStream.take_packed>` feeding
  :meth:`OutOfOrderCore.run_vec <repro.cpu.ooo.OutOfOrderCore.run_vec>`.
  A chunk is a 6-tuple of parallel columns
  ``(kinds, pcs, addresses, dep1s, dep2s, latencies)`` with one row per
  *instruction* — the timed schedule needs every row, so nothing is
  deduplicated here.  ``kinds`` holds a ``MEAS_*`` code (the §5.3
  full-block store mark and the branch-mispredict flag are folded into
  the code), ``pcs``/``addresses`` the fetch and data addresses,
  ``dep1s``/``dep2s`` the register-dependency distances (0 = none), and
  ``latencies`` the :data:`~repro.cpu.isa.OP_LATENCY` execution latency
  of the row's kind.  Unlike warm chunks these never reach the disk
  cache — they are generated, scheduled and dropped — so the columns are
  plain ``list`` objects: appends are cheaper and iterating them reuses
  the existing ``int`` objects instead of unboxing from a typed array.
"""

from __future__ import annotations

#: Instruction fetch entering a new I-cache line; value is the pc.
WARM_IFETCH = 0
#: Data load; value is the load address.
WARM_LOAD = 1
#: Data store; value is the store address.
WARM_STORE = 2
#: Data store carrying the §5.3 full-block mark; value is the store address.
WARM_STORE_FULL = 3

#: Measured-mode row kinds.  The memory codes are contiguous so the core
#: can classify a row with one range test (``MEAS_LOAD <= k <= MEAS_STORE_FULL``).
MEAS_ALU = 0
MEAS_FP = 1
MEAS_LOAD = 2
MEAS_STORE = 3
#: Store carrying the §5.3 full-block mark.
MEAS_STORE_FULL = 4
MEAS_BRANCH = 5
#: Branch the (implicit) predictor gets wrong.
MEAS_BRANCH_MISPREDICT = 6

#: Instructions per packed chunk: large enough to amortize per-chunk
#: overhead, small enough that a chunk's columns stay cache-resident.
PACKED_CHUNK_INSTRUCTIONS = 32_768

__all__ = [
    "WARM_IFETCH",
    "WARM_LOAD",
    "WARM_STORE",
    "WARM_STORE_FULL",
    "MEAS_ALU",
    "MEAS_FP",
    "MEAS_LOAD",
    "MEAS_STORE",
    "MEAS_STORE_FULL",
    "MEAS_BRANCH",
    "MEAS_BRANCH_MISPREDICT",
    "PACKED_CHUNK_INSTRUCTIONS",
]
