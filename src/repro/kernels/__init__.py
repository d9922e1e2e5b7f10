"""Column kernels for the simulator's one fast path.

Warm-up and measurement consume instruction streams as packed column
chunks.  The warm path needs no kernel: :meth:`MemoryHierarchy.warm_vec
<repro.cache.hierarchy.MemoryHierarchy.warm_vec>` interprets each warm
row through the counter-free cache/TLB paths.  The measured path has
one route per chunk:

* :mod:`repro.kernels.measure` is the prepass
  :meth:`OutOfOrderCore.run_vec <repro.cpu.ooo.OutOfOrderCore.run_vec>`
  schedules from — it classifies rows into timing-free and live ones,
  probes the TLBs and precomputes per-row latencies as plain list
  comprehensions and one forward walk;
* :mod:`repro.kernels.warm` is an empty placeholder kept importable.

Every step is exact integer/boolean arithmetic, so the fast path is
bit-identical to the per-:class:`~repro.cpu.isa.Instruction` object
oracle (``warm``/``run``, selected for measurement by
``REPRO_MEASURE=object``).  ``tests/test_measured_packed.py``,
``tests/test_kernels.py`` and the twin-symmetry pass of
``python -m repro check`` enforce the equivalence.
"""
