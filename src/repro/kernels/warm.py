"""Warm-path kernel placeholder.

The warm path has one route:
:meth:`MemoryHierarchy.warm_vec <repro.cache.hierarchy.MemoryHierarchy.warm_vec>`
interprets every packed warm row through the counter-free cache/TLB
warm paths, so this module defines nothing.  It stays importable for
tools that look kernels up by module.
"""
