"""Synthetic instruction-stream generation.

A :class:`WorkloadProfile` captures the statistics that matter to the
memory system: footprint, access pattern, operation mix, dependency
distances (ILP), branch behaviour and streaming-store share.  A profile
plus a seed deterministically yields an instruction stream for the core
models.

Patterns:

``stream``
    Unit-stride sweeps over large arrays (scientific loops: swim, applu).
    Loads and stores walk separate cursors; stores can be marked
    ``full_block`` to model streams that overwrite whole cache lines.
``random``
    Uniform references over the footprint (mcf's sparse network).
``wset``
    Hot/cold working set: most references hit a hot region, the rest fall
    anywhere in the footprint (integer codes: gcc, twolf, vortex, vpr).
``mixed``
    Half stream, half wset (art's neural-net scans with tables).
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from math import log
from typing import Iterator, List, Tuple

from ..cpu.isa import OP_LATENCY, Instruction

BLOCK = 64  # generation granularity: one L2 block

#: Packed-row kind codes emitted by :meth:`InstructionStream.packed`.
#: A row is one *memory event* of the warm-up replay, not one instruction:
#: instruction-fetch rows are emitted only when the stream crosses into a
#: new I-cache line (the same dedup :meth:`MemoryHierarchy.warm` applies),
#: and non-memory instructions that stay within a line emit nothing.
#: (Canonical definitions live in :mod:`repro.common.packed`, below both
#: the producer and the consumer of the format; re-exported here.)
from ..common.packed import (  # noqa: E402  (re-export)
    MEAS_ALU,
    MEAS_BRANCH,
    MEAS_BRANCH_MISPREDICT,
    MEAS_FP,
    MEAS_LOAD,
    MEAS_STORE,
    MEAS_STORE_FULL,
    PACKED_CHUNK_INSTRUCTIONS,
    WARM_IFETCH,
    WARM_LOAD,
    WARM_STORE,
    WARM_STORE_FULL,
)


@dataclass(frozen=True)
class WorkloadProfile:
    """Statistical model of one benchmark (see repro.workloads.spec)."""

    name: str
    footprint_bytes: int
    code_bytes: int = 64 * 1024
    load_fraction: float = 0.25
    store_fraction: float = 0.10
    branch_fraction: float = 0.15
    fp_fraction: float = 0.0
    mispredict_rate: float = 0.05
    #: mean register-dependency distance; small = serial, large = high ILP.
    mean_dep_distance: float = 4.0
    #: probability a load's address depends on the previous load (chasing).
    serial_load_chain: float = 0.0
    pattern: str = "wset"
    hot_fraction: float = 0.9
    hot_bytes: int = 64 * 1024
    #: fraction of stores that belong to whole-block streaming sweeps.
    stream_store_fraction: float = 0.0
    #: mean consecutive 8-byte references per spatial run (wset/random);
    #: 1 disables spatial locality (true pointer chasing).
    spatial_run: float = 4.0
    #: fraction of non-streaming references that hit the stack/locals
    #: region — a few KB that lives in the L1 (real codes spend most of
    #: their references there, which is what keeps L1 miss rates low).
    stack_fraction: float = 0.55
    stack_bytes: int = 8 * 1024

    def __post_init__(self) -> None:
        if self.pattern not in ("stream", "random", "wset", "mixed"):
            raise ValueError(f"unknown pattern {self.pattern!r}")
        total = self.load_fraction + self.store_fraction + self.branch_fraction
        if total > 0.95:
            raise ValueError("operation mix leaves no room for ALU work")
        if self.footprint_bytes < 2 * BLOCK:
            raise ValueError("footprint too small")


class _AddressStream:
    """Stateful address source implementing the four patterns."""

    WORD = 8  # reference granularity

    def __init__(self, profile: WorkloadProfile, rng: random.Random):
        self.profile = profile
        self.rng = rng
        self.base = profile.code_bytes  # data segment sits above the code
        self.read_cursor = 0
        self.write_cursor = profile.footprint_bytes // 2
        self.run_cursor = 0
        self.run_remaining = 0
        # loop-invariant profile state, bound once (this object is consulted
        # for every memory reference the generator emits)
        self._footprint = profile.footprint_bytes
        self._stack_words = min(profile.stack_bytes, self._footprint) // self.WORD
        self._hot_words = min(profile.hot_bytes, self._footprint) // self.WORD
        self._footprint_words = self._footprint // self.WORD
        self._is_random = profile.pattern == "random"
        self._is_mixed = profile.pattern == "mixed"
        self._is_stream = profile.pattern == "stream"
        self._has_runs = profile.spatial_run > 1
        self._run_high = max(2, int(2 * profile.spatial_run))

    def state(self) -> Tuple[int, int, int, int]:
        """The mutable cursor state (everything not derived from the profile)."""
        return (self.read_cursor, self.write_cursor,
                self.run_cursor, self.run_remaining)

    def set_state(self, state: Tuple[int, int, int, int]) -> None:
        (self.read_cursor, self.write_cursor,
         self.run_cursor, self.run_remaining) = state

    def _wrap(self, offset: int) -> int:
        return offset % self._footprint

    def _fresh_locality_run(self) -> int:
        """Pick a new spatial run start (stack, hot or cold region)."""
        profile, rng = self.profile, self.rng
        roll = rng.random()
        if roll < profile.stack_fraction:
            region_words = self._stack_words
        elif self._is_random or rng.random() >= profile.hot_fraction:
            region_words = self._footprint_words
        else:
            region_words = self._hot_words
        start = rng.randrange(region_words) * self.WORD
        if self._has_runs:
            run = rng.randrange(1, self._run_high)
            # runs model accesses within one record/structure: they do not
            # cross a 64-byte block boundary (integer-code records are
            # small; sequential sweeps use the stream pattern instead)
            words_left_in_block = (BLOCK - start % BLOCK) // self.WORD - 1
            self.run_remaining = min(run, max(0, words_left_in_block))
        else:
            self.run_remaining = 0
        self.run_cursor = start
        return start

    def _locality_address(self) -> int:
        """wset/random reference with spatial runs of consecutive words."""
        if self.run_remaining > 0:
            self.run_remaining -= 1
            self.run_cursor = self._wrap(self.run_cursor + self.WORD)
            return self.run_cursor
        return self._fresh_locality_run()

    def load_address(self) -> int:
        stream = self._is_stream
        if self._is_mixed:
            stream = self.rng.random() < 0.5
        if stream:
            self.read_cursor = self._wrap(self.read_cursor + self.WORD)
            return self.base + self.read_cursor
        return self.base + self._locality_address()

    def store_address(self) -> tuple[int, bool]:
        """Returns (address, full_block)."""
        profile, rng = self.profile, self.rng
        if rng.random() < profile.stream_store_fraction:
            # unit-stride write sweep: the store opening a new block carries
            # the full-block mark (the sweep will overwrite all of it)
            self.write_cursor = self._wrap(self.write_cursor + self.WORD)
            address = self.base + self.write_cursor
            return address, address % BLOCK == 0
        stream = self._is_stream
        if self._is_mixed:
            stream = rng.random() < 0.5
        if stream:
            self.write_cursor = self._wrap(self.write_cursor + self.WORD)
            return self.base + self.write_cursor, False
        return self.base + self._locality_address(), False


class InstructionStream:
    """Resumable, deterministic instruction source for one (profile, seed).

    One stream owns the RNG, the address cursors and the program counter,
    so a run can be emitted in *segments* that concatenate bit-identically
    to a single :func:`generate_instructions` call:

    * :meth:`take` materializes the next ``count`` instructions as
      :class:`Instruction` objects (the measured suffix of a run);
    * :meth:`packed` emits the next ``count`` instructions as packed
      *memory-event* chunks for :meth:`MemoryHierarchy.warm_vec
      <repro.cache.hierarchy.MemoryHierarchy.warm_vec>` — no
      ``Instruction`` is ever allocated, and the dependency-distance
      values (which functional warm-up ignores) are drawn from the RNG in
      the exact same order but never computed;
    * :meth:`state` / :meth:`from_state` snapshot and resume the stream,
      which is what lets a warmed-hierarchy snapshot be shared between
      sweep cells: restore the snapshot, resume the stream, generate only
      the measured suffix.

    Both emission modes draw from the RNG in the identical order, so
    ``packed(w)`` followed by ``take(n)`` equals the ``[w:w+n]`` slice of
    the plain object stream (``tests/test_warm_replay.py`` proves it).
    """

    def __init__(self, profile: WorkloadProfile, seed: int = 0):
        self.profile = profile
        self.rng = random.Random((_stable_hash(profile.name) ^ seed) & 0xFFFFFFFF)
        self.addresses = _AddressStream(profile, self.rng)
        self.pc = 0
        self.index = 0
        self.loads_emitted = 0
        self.last_load_index = 0
        #: I-cache-line dedup cursor for :meth:`packed` (mirrors the
        #: ``last_line`` tracking of the object-stream warm-up loop).
        self._warm_line = -1

    # -- snapshot / resume -------------------------------------------------------

    def state(self) -> tuple:
        """Picklable snapshot of everything that evolves as the stream runs."""
        return (
            self.rng.getstate(),
            self.addresses.state(),
            self.pc,
            self.index,
            self.loads_emitted,
            self.last_load_index,
            self._warm_line,
        )

    def restore(self, state: tuple) -> None:
        (rng_state, address_state, self.pc, self.index,
         self.loads_emitted, self.last_load_index, self._warm_line) = state
        self.rng.setstate(rng_state)
        self.addresses.set_state(address_state)

    @classmethod
    def from_state(cls, profile: WorkloadProfile, state: tuple) -> "InstructionStream":
        """Resume a stream snapshotted by :meth:`state` (seed-independent)."""
        stream = cls(profile, seed=0)
        stream.restore(state)
        return stream

    # -- object emission -----------------------------------------------------------

    def take(self, count: int) -> List[Instruction]:
        """Materialize the next ``count`` instructions.

        This is the per-cell hot path of every sweep: all bounds, fractions
        and callables are bound to locals before the loop, and the
        geometric dependency-distance draw inlines
        :meth:`random.Random.expovariate` (``1 + int(-log(1 - u) / lambd)``)
        so the stream — including the exact RNG draw sequence — matches the
        historical generator while the loop runs ~2x faster.
        """
        profile = self.profile
        rng_random = self.rng.random
        addresses = self.addresses
        load_address = addresses.load_address
        store_address = addresses.store_address
        instruction = Instruction
        load_fraction = profile.load_fraction
        store_cut = load_fraction + profile.store_fraction
        branch_cut = store_cut + profile.branch_fraction
        fp_fraction = profile.fp_fraction
        mispredict_rate = profile.mispredict_rate
        serial_load_chain = profile.serial_load_chain
        code_bytes = profile.code_bytes
        # geometric distance with the profile's mean; at least 1
        lambd = 1.0 / profile.mean_dep_distance
        pc = self.pc
        loads_emitted = self.loads_emitted
        last_load_index = self.last_load_index
        start = self.index
        out: List[Instruction] = []
        append = out.append

        for index in range(start, start + count):
            pc = (pc + 4) % code_bytes
            roll = rng_random()
            if roll < load_fraction:
                if (serial_load_chain and loads_emitted
                        and rng_random() < serial_load_chain):
                    # pointer chase: the address register comes from the
                    # previous load in program order
                    distance = index - last_load_index
                    if distance < 1:
                        distance = 1
                else:
                    distance = 1 + int(-log(1.0 - rng_random()) / lambd)
                append(instruction(kind="load", dep1=distance,
                                   address=load_address(), pc=pc))
                last_load_index = index
                loads_emitted += 1
            elif roll < store_cut:
                address, full = store_address()
                append(instruction(kind="store",
                                   dep1=1 + int(-log(1.0 - rng_random()) / lambd),
                                   dep2=1 + int(-log(1.0 - rng_random()) / lambd),
                                   address=address, pc=pc, full_block=full))
            elif roll < branch_cut:
                mispredicted = rng_random() < mispredict_rate
                append(instruction(kind="branch",
                                   dep1=1 + int(-log(1.0 - rng_random()) / lambd),
                                   pc=pc, mispredicted=mispredicted))
            elif rng_random() < fp_fraction:
                append(instruction(kind="fp",
                                   dep1=1 + int(-log(1.0 - rng_random()) / lambd),
                                   dep2=1 + int(-log(1.0 - rng_random()) / lambd),
                                   pc=pc))
            else:
                append(instruction(kind="alu",
                                   dep1=1 + int(-log(1.0 - rng_random()) / lambd),
                                   dep2=1 + int(-log(1.0 - rng_random()) / lambd),
                                   pc=pc))

        self.pc = pc
        self.index = start + count
        self.loads_emitted = loads_emitted
        self.last_load_index = last_load_index
        return out

    def take_packed(
        self,
        count: int,
        chunk_instructions: int = PACKED_CHUNK_INSTRUCTIONS,
    ) -> Iterator[Tuple[List[int], List[int], List[int],
                        List[int], List[int], List[int]]]:
        """The next ``count`` instructions as packed measured-mode chunks.

        Yields ``(kinds, pcs, addresses, dep1s, dep2s, latencies)`` column
        tuples — one row per *instruction* (see :mod:`repro.common.packed`
        for the canonical format) — for :meth:`OutOfOrderCore.run_vec
        <repro.cpu.ooo.OutOfOrderCore.run_vec>`.  Unlike warm-mode
        :meth:`packed`, nothing is deduplicated or dropped: the timed
        schedule consumes every row, including its dependency distances
        and execution latency, so the columns carry exactly the fields of
        the :class:`~repro.cpu.isa.Instruction` objects :meth:`take` would
        build.  The RNG draw order is shared with :meth:`take`, so the
        stream can switch between packed and object emission at any
        instruction boundary without diverging.
        """
        remaining = count
        while remaining > 0:
            n = min(remaining, chunk_instructions)
            yield self._take_packed_chunk(n)
            remaining -= n

    def _take_packed_chunk(
        self, count: int
    ) -> Tuple[List[int], List[int], List[int],
               List[int], List[int], List[int]]:
        """Generate one measured-mode chunk of ``count`` instructions."""
        profile = self.profile
        rng_random = self.rng.random
        addresses = self.addresses
        load_address = addresses.load_address
        store_address = addresses.store_address
        load_fraction = profile.load_fraction
        store_cut = load_fraction + profile.store_fraction
        branch_cut = store_cut + profile.branch_fraction
        fp_fraction = profile.fp_fraction
        mispredict_rate = profile.mispredict_rate
        serial_load_chain = profile.serial_load_chain
        code_bytes = profile.code_bytes
        lambd = 1.0 / profile.mean_dep_distance
        log_ = log
        int_ = int
        lat_alu, lat_fp = OP_LATENCY["alu"], OP_LATENCY["fp"]
        lat_load, lat_store = OP_LATENCY["load"], OP_LATENCY["store"]
        lat_branch = OP_LATENCY["branch"]
        pc = self.pc
        loads_emitted = self.loads_emitted
        last_load_index = self.last_load_index
        start = self.index
        # measured chunks are transient (never disk-cached), so plain
        # lists beat typed arrays: see repro.common.packed
        kinds: List[int] = []
        pcs: List[int] = []
        addrs: List[int] = []
        dep1s: List[int] = []
        dep2s: List[int] = []
        latencies: List[int] = []
        kind_append = kinds.append
        pc_append = pcs.append
        addr_append = addrs.append
        dep1_append = dep1s.append
        dep2_append = dep2s.append
        latency_append = latencies.append

        for index in range(start, start + count):
            pc = (pc + 4) % code_bytes
            roll = rng_random()
            if roll < load_fraction:
                if (serial_load_chain and loads_emitted
                        and rng_random() < serial_load_chain):
                    distance = index - last_load_index
                    if distance < 1:
                        distance = 1
                else:
                    distance = 1 + int_(-log_(1.0 - rng_random()) / lambd)
                kind_append(MEAS_LOAD)
                addr_append(load_address())
                dep1_append(distance)
                dep2_append(0)
                latency_append(lat_load)
                last_load_index = index
                loads_emitted += 1
            elif roll < store_cut:
                address, full = store_address()
                kind_append(MEAS_STORE_FULL if full else MEAS_STORE)
                addr_append(address)
                dep1_append(1 + int_(-log_(1.0 - rng_random()) / lambd))
                dep2_append(1 + int_(-log_(1.0 - rng_random()) / lambd))
                latency_append(lat_store)
            elif roll < branch_cut:
                mispredicted = rng_random() < mispredict_rate
                kind_append(MEAS_BRANCH_MISPREDICT if mispredicted
                            else MEAS_BRANCH)
                addr_append(0)
                dep1_append(1 + int_(-log_(1.0 - rng_random()) / lambd))
                dep2_append(0)
                latency_append(lat_branch)
            elif rng_random() < fp_fraction:
                kind_append(MEAS_FP)
                addr_append(0)
                dep1_append(1 + int_(-log_(1.0 - rng_random()) / lambd))
                dep2_append(1 + int_(-log_(1.0 - rng_random()) / lambd))
                latency_append(lat_fp)
            else:
                kind_append(MEAS_ALU)
                addr_append(0)
                dep1_append(1 + int_(-log_(1.0 - rng_random()) / lambd))
                dep2_append(1 + int_(-log_(1.0 - rng_random()) / lambd))
                latency_append(lat_alu)
            pc_append(pc)

        self.pc = pc
        self.index = start + count
        self.loads_emitted = loads_emitted
        self.last_load_index = last_load_index
        return kinds, pcs, addrs, dep1s, dep2s, latencies

    # -- packed emission ------------------------------------------------------------

    def packed(
        self,
        count: int,
        line_bytes: int = 32,
        chunk_instructions: int = PACKED_CHUNK_INSTRUCTIONS,
    ) -> Iterator[Tuple[array, array]]:
        """The next ``count`` instructions as packed warm-up chunks.

        Yields ``(codes, values)`` pairs of parallel ``array`` columns: one
        row per *memory event*, with ``codes`` holding a ``WARM_*`` kind
        code and ``values`` the event's address (the instruction's ``pc``
        for :data:`WARM_IFETCH` rows, the data address otherwise; the §5.3
        full-block store mark is folded into :data:`WARM_STORE_FULL`).
        ``line_bytes`` is the L1-I block size the instruction-fetch dedup
        is keyed on — rows appear only when the pc crosses into a new line,
        exactly like the object-stream warm-up loop, so consuming the rows
        in order reproduces its cache/TLB state bit for bit.
        """
        if line_bytes <= 0 or line_bytes & (line_bytes - 1):
            raise ValueError(f"line_bytes must be a power of two, got {line_bytes}")
        line_shift = line_bytes.bit_length() - 1
        remaining = count
        while remaining > 0:
            n = min(remaining, chunk_instructions)
            yield self._packed_chunk(n, line_shift)
            remaining -= n

    def _packed_chunk(self, count: int, line_shift: int) -> Tuple[array, array]:
        """Generate one packed chunk of ``count`` instructions.

        Draws from the RNG in the exact order of :meth:`take` — including
        the dependency-distance and mispredict draws whose values the
        warm-up never uses — so the stream can switch between packed and
        object emission at any instruction boundary without diverging.
        """
        profile = self.profile
        rng_random = self.rng.random
        addresses = self.addresses
        load_address = addresses.load_address
        store_address = addresses.store_address
        load_fraction = profile.load_fraction
        store_cut = load_fraction + profile.store_fraction
        branch_cut = store_cut + profile.branch_fraction
        serial_load_chain = profile.serial_load_chain
        code_bytes = profile.code_bytes
        pc = self.pc
        loads_emitted = self.loads_emitted
        last_load_index = self.last_load_index
        last_line = self._warm_line
        codes = array("B")
        values = array("Q")
        code_append = codes.append
        value_append = values.append
        start = self.index

        for index in range(start, start + count):
            pc = (pc + 4) % code_bytes
            line = pc >> line_shift
            if line != last_line:
                last_line = line
                code_append(WARM_IFETCH)
                value_append(pc)
            roll = rng_random()
            if roll < load_fraction:
                if not (serial_load_chain and loads_emitted
                        and rng_random() < serial_load_chain):
                    rng_random()  # dependency-distance draw (value unused)
                code_append(WARM_LOAD)
                value_append(load_address())
                last_load_index = index
                loads_emitted += 1
            elif roll < store_cut:
                address, full = store_address()
                rng_random()  # dep1 draw
                rng_random()  # dep2 draw
                code_append(WARM_STORE_FULL if full else WARM_STORE)
                value_append(address)
            elif roll < branch_cut:
                rng_random()  # mispredict draw
                rng_random()  # dep1 draw
            else:
                rng_random()  # fp-fraction draw
                rng_random()  # dep1 draw
                rng_random()  # dep2 draw

        self.pc = pc
        self.index = start + count
        self.loads_emitted = loads_emitted
        self.last_load_index = last_load_index
        self._warm_line = last_line
        return codes, values


def generate_instructions(
    profile: WorkloadProfile, count: int, seed: int = 0
) -> Iterator[Instruction]:
    """Deterministically synthesize ``count`` instructions for ``profile``.

    A lazy wrapper over :meth:`InstructionStream.take` (the single source
    of truth for the stream definition), materializing one packed-chunk-
    sized segment at a time so multi-million-instruction streams never
    exist in memory at once.
    """
    stream = InstructionStream(profile, seed)
    remaining = count
    while remaining > 0:
        n = min(remaining, PACKED_CHUNK_INSTRUCTIONS)
        yield from stream.take(n)
        remaining -= n


def _stable_hash(text: str) -> int:
    """Deterministic across interpreter runs (unlike builtin hash)."""
    value = 0
    for char in text:
        value = (value * 131 + ord(char)) & 0xFFFFFFFF
    return value


def generate_list(profile: WorkloadProfile, count: int, seed: int = 0) -> List[Instruction]:
    """Materialized convenience wrapper around :func:`generate_instructions`."""
    return list(generate_instructions(profile, count, seed))
