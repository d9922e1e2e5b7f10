"""Batched column kernels for the simulator's one fast path.

Warm-up and measurement consume instruction streams as packed column
chunks.  This package batches the per-chunk work — classifying rows
into hit/miss columns, probing TLBs over whole address columns, and
precomputing the measured path's per-row latencies — as plain list
comprehensions:

* :mod:`repro.kernels.warm` plans the chunks
  :meth:`MemoryHierarchy.warm_vec <repro.cache.hierarchy.MemoryHierarchy.warm_vec>`
  replays;
* :mod:`repro.kernels.measure` is the prepass
  :meth:`OutOfOrderCore.run_vec <repro.cpu.ooo.OutOfOrderCore.run_vec>`
  schedules from.

Every step is exact integer/boolean arithmetic, so the fast path is
bit-identical to the per-:class:`~repro.cpu.isa.Instruction` object
oracle (``warm``/``run``, selected for measurement by
``REPRO_MEASURE=object``).  ``tests/test_measured_packed.py``,
``tests/test_kernels.py`` (each per-chunk route pinned on its own) and
the twin-symmetry pass of ``python -m repro check`` enforce the equivalence.
"""
