"""Which entry points of the program make up each traced layer.

Layers are named after the program's modules.  The benchmark wraps only
class or module attributes that the program looks up at call time, so
the wrappers see every call without any change to the program.
"""

from __future__ import annotations

from tracing import Tracer


def _count(key: str):
    def counter(tracer: Tracer, *args, **kwargs) -> None:
        tracer.count(key)
    return counter


def install_sim() -> Tracer:
    """Wrap the simulator's layers."""
    from repro.cache.cache import CacheSim
    from repro.cache.hierarchy import MemoryHierarchy
    from repro.cache.tlb import TLBSim
    from repro.common.stats import StatGroup
    from repro.cpu.ooo import OutOfOrderCore
    from repro.dram.bus import MainMemoryTiming
    from repro.hashengine.engine import HashEngineTiming
    from repro.hashtree.layout import TreeLayout
    from repro.kernels import measure, warm
    from repro.schemes.api import TimingScheme
    from repro.schemes.base import BaseScheme
    from repro.schemes.chash import CHashScheme
    from repro.schemes.ihash import IHashScheme
    from repro.schemes.mhash import MHashScheme
    from repro.schemes.naive import NaiveScheme
    from repro.workloads.generators import InstructionStream

    tracer = Tracer()
    tracer.spans(InstructionStream, ("packed", "take_packed", "take"),
                 "workloads")
    tracer.spans(OutOfOrderCore, ("run", "run_packed", "run_vec"), "cpu")
    tracer.spans(measure.MeasurePrepass,
                 ("__init__", "run", "_apply_pending", "_flush"), "kernels")
    tracer.spans(warm, ("build_plan", "fast_mask"), "kernels")
    tracer.spans(MemoryHierarchy, ("load", "store", "ifetch", "warm",
                                   "warm_packed", "warm_vec"), "cache")
    tracer.spans(CacheSim, ("access", "warm_access", "access_batched",
                            "warm_access_batched", "fill", "warm_fill",
                            "probe", "invalidate", "resident_blocks"),
                 "cache")
    tracer.spans(TLBSim, ("access", "warm_access", "access_batched",
                          "warm_access_batched", "resident_pages"), "cache")
    tracer.spans(MemoryHierarchy, ("restore",), "system.restore")
    for scheme in (TimingScheme, BaseScheme, NaiveScheme, CHashScheme,
                   MHashScheme, IHashScheme):
        tracer.spans(scheme, ("handle_data_miss",), "schemes",
                     _count("schemes.miss_calls"))
        tracer.spans(scheme, ("handle_writeback",), "schemes",
                     _count("schemes.wb_calls"))
        tracer.spans(scheme, ("fill_l2",), "schemes")
    tracer.spans(TreeLayout, ("parent_of", "index_in_parent", "children_of",
                              "is_leaf", "chunk_address", "chunk_at_address",
                              "hash_location", "path_to_root", "depth",
                              "leaf_for_address", "address_for_leaf"),
                 "layout")
    tracer.spans(MainMemoryTiming, ("read", "read_critical", "write"), "dram")
    tracer.spans(HashEngineTiming, ("hash_op",), "hashengine",
                 _count("hashengine.ops"))
    tracer.spans(HashEngineTiming, ("begin_check", "finish_check",
                                    "begin_writeback", "finish_writeback"),
                 "hashengine")
    tracer.tally(StatGroup, "add", "stats.add_calls")
    return tracer


def _count_instance(key: str):
    """Count per instance (``(key, id(self))``) under the tracer's lock."""
    def counter(tracer: Tracer, instance, *args, **kwargs) -> None:
        tracer.count((key, id(instance)))
    return counter


def _memory_read(tracer: Tracer, memory, address, length) -> None:
    tracer.count(("memory.reads", id(memory)))
    tracer.count(("memory.read_bytes", id(memory)), length)


def _memory_write(tracer: Tracer, memory, address, data) -> None:
    tracer.count(("memory.writes", id(memory)))
    tracer.count(("memory.write_bytes", id(memory)), len(data))


def install_serve(enabled: bool = False) -> Tracer:
    """Wrap the service's layers; starts switched off unless ``enabled``."""
    from repro.crypto.hashes import HashFunction
    from repro.crypto.mac import XorMac
    from repro.hashtree.cached import CachedHashTree
    from repro.hashtree.incremental import IncrementalMacTree
    from repro.hashtree.multiblock import MultiBlockHashTree
    from repro.hashtree.tree import HashTree
    from repro.hashtree.verifier import MemoryVerifier
    from repro.memory.main_memory import UntrustedMemory
    from repro.serve.batch import ReadBatcher
    from repro.serve.service import _ServeHandler

    tracer = Tracer()
    tracer.enabled = enabled
    tracer.spans(_ServeHandler, ("do_GET", "do_POST", "do_DELETE"),
                 "service")
    tracer.spans(ReadBatcher, ("read",), "batch", _count("batch.point_reads"))
    tracer.spans(ReadBatcher, ("read_many",), "batch")
    tracer.spans(MemoryVerifier, ("read", "read_many", "write", "flush",
                                  "read_without_checking",
                                  "write_without_checking",
                                  "unprotect_range", "rebuild_range"),
                 "verifier")
    for tree in (HashTree, CachedHashTree, MultiBlockHashTree,
                 IncrementalMacTree):
        tracer.spans(tree, ("read", "write", "flush", "invalidate_chunk",
                            "rebuild_chunk_from_memory"), "tree")
    tracer.spans(HashFunction, ("digest", "digest_many"), "crypto",
                 _count_instance("crypto.digests"))
    # a MAC's work is its PRF terms: one per block to compute, two to
    # update; ``_term`` is the one place each is evaluated
    tracer.spans(XorMac, ("compute", "update"), "crypto")
    tracer.span(XorMac, "_term", "crypto", _count_instance("crypto.digests"))
    tracer.spans(UntrustedMemory, ("read",), "memory", _memory_read)
    tracer.spans(UntrustedMemory, ("write",), "memory", _memory_write)
    return tracer
