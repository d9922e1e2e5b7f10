"""Declarative sweep cells: one :class:`CellSpec` per simulation.

A cell is everything needed to reproduce one bar of one figure — the
benchmark, the scheme, the config deltas against Table 1, and the run
parameters (instruction count, warm-up length, seed).  Cells are frozen
and hashable, so they key session caches directly, and
:func:`cell_param_defaults` is the *single* table both the session-cache
normalization and the on-disk fingerprint derive from — a config delta
equal to the Table 1 default can therefore never produce a second cache
identity for the same machine.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ...common.config import SchemeKind, SystemConfig, table1_config

#: parameters a cell may override, in the order they appear in cache keys.
CELL_PARAMS = (
    "l2_size",
    "l2_block",
    "l1i_block",
    "hash_throughput",
    "buffer_entries",
    "blocks_per_chunk",
    "write_allocate_valid_bits",
)


def cell_param_defaults() -> Dict[str, object]:
    """The Table 1 default for every overridable cell parameter.

    Derived from :class:`SystemConfig` itself (never hand-copied) so the
    normalization below and any fingerprint logic can't drift from the
    config that actually gets built.
    """
    base = SystemConfig()
    return {
        "l2_size": base.l2.size_bytes,
        "l2_block": base.l2.block_bytes,
        "l1i_block": base.l1i.block_bytes,
        "hash_throughput": base.hash_engine.throughput_gb_per_s,
        "buffer_entries": base.hash_engine.read_buffer_entries,
        "blocks_per_chunk": base.blocks_per_chunk,
        "write_allocate_valid_bits": base.write_allocate_valid_bits,
    }


@dataclass(frozen=True)
class CellSpec:
    """One self-contained simulation cell of a sweep grid.

    ``None`` for any config parameter means "the Table 1 default"; an
    explicit value equal to the default is normalized to ``None`` by
    :meth:`normalized`, so equivalent cells compare (and hash) equal.
    """

    benchmark: str
    scheme: SchemeKind
    l2_size: Optional[int] = None
    l2_block: Optional[int] = None
    l1i_block: Optional[int] = None
    hash_throughput: Optional[float] = None
    buffer_entries: Optional[int] = None
    blocks_per_chunk: Optional[int] = None
    write_allocate_valid_bits: Optional[bool] = None
    instructions: int = 12_000
    warmup: Optional[int] = None
    seed: int = 0

    def normalized(self) -> "CellSpec":
        """Collapse explicit default values to ``None`` (one identity per
        distinct machine), symmetrically for every parameter in
        :func:`cell_param_defaults` — including ``False`` values."""
        defaults = cell_param_defaults()
        changes = {}
        for param, default in defaults.items():
            value = getattr(self, param)
            if value is not None and value == default:
                changes[param] = None
        return dataclasses.replace(self, **changes) if changes else self

    def build_config(self) -> SystemConfig:
        """The :class:`SystemConfig` this cell simulates."""
        config = table1_config(self.scheme)
        if self.l2_size is not None or self.l2_block is not None:
            config = config.with_l2(size_bytes=self.l2_size,
                                    block_bytes=self.l2_block)
        if self.l1i_block is not None:
            config = dataclasses.replace(
                config,
                l1i=dataclasses.replace(config.l1i,
                                        block_bytes=self.l1i_block),
            )
        engine_changes = {}
        if self.hash_throughput is not None:
            engine_changes["throughput_gb_per_s"] = self.hash_throughput
        if self.buffer_entries is not None:
            engine_changes["read_buffer_entries"] = self.buffer_entries
            engine_changes["write_buffer_entries"] = self.buffer_entries
        if engine_changes:
            config = dataclasses.replace(
                config,
                hash_engine=dataclasses.replace(config.hash_engine,
                                                **engine_changes),
            )
        if self.blocks_per_chunk is not None:
            config = dataclasses.replace(
                config, blocks_per_chunk=self.blocks_per_chunk
            )
        if self.write_allocate_valid_bits is not None:
            config = dataclasses.replace(
                config, write_allocate_valid_bits=self.write_allocate_valid_bits
            )
        return config

    def key(self) -> Tuple:
        """Normalized tuple identity, usable as a session-cache key."""
        spec = self.normalized()
        return (spec.benchmark, spec.scheme.value) + tuple(
            getattr(spec, param) for param in CELL_PARAMS
        ) + (spec.instructions, spec.warmup, spec.seed)

    def label(self) -> str:
        """Compact human-readable cell name for progress lines."""
        spec = self.normalized()
        parts = [spec.benchmark, spec.scheme.value]
        shorts = {
            "l2_size": "l2",
            "l2_block": "blk",
            "l1i_block": "il1",
            "hash_throughput": "ht",
            "buffer_entries": "buf",
            "blocks_per_chunk": "bpc",
            "write_allocate_valid_bits": "wavb",
        }
        for param in CELL_PARAMS:
            value = getattr(spec, param)
            if value is not None:
                if param == "l2_size":
                    value = _human_size(value)
                parts.append(f"{shorts[param]}={value}")
        return "/".join(parts)


def spec_to_dict(spec: CellSpec) -> Dict[str, object]:
    """Serialize a cell to plain JSON-able data (the dispatch wire format).

    Everything that defines the cell goes over the wire, and
    :func:`spec_from_dict` round-trips it exactly.
    """
    data: Dict[str, object] = {
        "benchmark": spec.benchmark,
        "scheme": spec.scheme.value,
        "instructions": spec.instructions,
        "warmup": spec.warmup,
        "seed": spec.seed,
    }
    for param in CELL_PARAMS:
        data[param] = getattr(spec, param)
    return data


def spec_from_dict(data: Dict[str, object]) -> CellSpec:
    """Rebuild a :class:`CellSpec` from :func:`spec_to_dict` output.

    Raises ``ValueError``/``KeyError``/``TypeError`` on malformed data —
    the coordinator uses that to reject a bad seed request outright
    instead of queueing work no worker could run.
    """
    if not isinstance(data, dict):
        raise ValueError(f"cell spec is {type(data).__name__}, not an object")
    defaults = cell_param_defaults()
    overrides: Dict[str, object] = {}
    for param in CELL_PARAMS:
        value = data.get(param)
        if value is not None:
            # type-check against the defaults table so a corrupt payload
            # (a string block size, a fractional entry count) fails here,
            # not as a TypeError deep inside a worker's simulation
            kind = type(defaults[param])
            if kind is bool:
                if not isinstance(value, bool):
                    raise ValueError(f"{param} must be a boolean, "
                                     f"got {value!r}")
            elif isinstance(value, bool) \
                    or not isinstance(value, (int, float)):
                raise ValueError(f"{param} must be a number, got {value!r}")
            elif kind is int and float(value) != int(value):
                raise ValueError(f"{param} must be integral, got {value!r}")
            else:
                value = kind(value)
        overrides[param] = value
    spec = CellSpec(
        benchmark=data["benchmark"],
        scheme=SchemeKind(data["scheme"]),
        instructions=int(data.get("instructions", 12_000)),
        warmup=data.get("warmup"),
        seed=int(data.get("seed", 0)),
        **overrides,
    )
    if not isinstance(spec.benchmark, str) or not spec.benchmark:
        raise ValueError("cell spec has no benchmark")
    return spec.normalized()


def _human_size(size_bytes: int) -> str:
    """``262144 -> "256K"``, ``1048576 -> "1M"`` (exact multiples only)."""
    for shift, suffix in ((20, "M"), (10, "K")):
        if size_bytes >= (1 << shift) and size_bytes % (1 << shift) == 0:
            return f"{size_bytes >> shift}{suffix}"
    return str(size_bytes)
