"""Golden fingerprints of the timing schemes' verification walk.

The ``REPRO_MEASURE=object`` oracle and the fast path share the scheme
code (``schemes/*``, the bus and the hash engine), so an equivalence test
between them cannot see a change to the walk itself.  This file can: it
pins a digest of every measured result — instructions, cycles and the
full sorted statistics dict — for each scheme on a cache-friendly
(gzip), a pointer-chasing (mcf) and a streaming (swim) workload at two
Figure 6 hash throughputs, and a digest of each warm snapshot, since the
walk also runs with timing off during the functional warm-up and swim's
presweep.

Each cell warms up for the default length, so the L2 is full and a
walk's parent fills evict dirty blocks into nested write-backs — the
only place the order of the walk's side effects shows.  It then
measures 8k instructions.  swim runs on a 2 MB footprint (the L2 is
1 MB, so its presweep still evicts dirty blocks through every scheme's
write-back path) to keep the presweep short.

The digests were recorded before the walk was rewritten as flat loops;
any change to a cycle count or a counter fails here.  To re-record after
a deliberate model change, run ``PYTHONPATH=src python
tests/test_scheme_walk_golden.py`` and paste its output over ``GOLDEN``.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.common.config import SchemeKind, table1_config
from repro.common.units import MB
from repro.sim.sweep.figures import FIG6_THROUGHPUTS
from repro.sim.system import prepare_warm_state, run_from_warm_state
from repro.workloads.spec import SPEC_PROFILES

SCHEMES = ("base", "naive", "chash", "mhash", "ihash")
BENCHMARKS = ("gzip", "mcf", "swim")
THROUGHPUTS = FIG6_THROUGHPUTS[1:3]
#: the default warm-up: only a full L2 evicts dirty hash chunks in the
#: middle of a walk, which is where the walk's side-effect order shows
WARMUP = None
INSTRUCTIONS = 8_000

PROFILES = {
    "gzip": SPEC_PROFILES["gzip"],
    "mcf": SPEC_PROFILES["mcf"],
    "swim": dataclasses.replace(SPEC_PROFILES["swim"], footprint_bytes=2 * MB),
}

#: (scheme, benchmark) -> (warm snapshot digest, one result digest per
#: throughput in THROUGHPUTS order)
GOLDEN = {
    ('base', 'gzip'): (
        'b6827001704fef1bd22006e6',
        '5c92491018e48cfcf917ef30',
        '5c92491018e48cfcf917ef30',
    ),
    ('base', 'mcf'): (
        'b353ea0624bd27b64238933a',
        '307d2eacdcdd072b3bfe34aa',
        '307d2eacdcdd072b3bfe34aa',
    ),
    ('base', 'swim'): (
        '5c4d3f6dec440dae6c064bbe',
        'b1fde8c4cbe91fa6b58b8479',
        'b1fde8c4cbe91fa6b58b8479',
    ),
    ('naive', 'gzip'): (
        '3e4cbbafdc8d333ec41702f8',
        'a295cf832ed96c27b6620910',
        'cefa45d176a42d2c4bfcb51a',
    ),
    ('naive', 'mcf'): (
        '539b2aa76f8c896a3f8739b7',
        'e6e9e1267dfb526241b4fd34',
        '6cb10ca8cfdac1f2aa7d0b89',
    ),
    ('naive', 'swim'): (
        'dd2fe82c8c32b19977012367',
        'ed01c4ccbb25a280dd7fb023',
        '2e0d7618956a2e9cb510085f',
    ),
    ('chash', 'gzip'): (
        '73009bd0c21d54b29efefe62',
        'd74137d449070366ace37e3f',
        'a6e231433c784a4af0419330',
    ),
    ('chash', 'mcf'): (
        '6783d407c0069ea9598dacb9',
        '98eb71908b372909a339351a',
        '58fc2aa15f3274c08f74a1a4',
    ),
    ('chash', 'swim'): (
        '1e30b1fb59ac855a6bf44251',
        '52d39fc1183f18b7ea9b3043',
        '50babaea8a5dcf01a0291e62',
    ),
    ('mhash', 'gzip'): (
        'baff6005d67824e189280def',
        '92d73b4689fa8d8618079649',
        '08af66dff65a3aaa2ffda673',
    ),
    ('mhash', 'mcf'): (
        '7531f9966a194a229d1f193e',
        'df05fcd8fe7aceecf3a8b28d',
        '91e25d8f943e103962d5cbb4',
    ),
    ('mhash', 'swim'): (
        'e87c019ae260fdb61ab562ec',
        '2ff840d9d3dbc722b9af2674',
        'b7e633210af50facb5bca177',
    ),
    ('ihash', 'gzip'): (
        'baff6005d67824e189280def',
        '28121e3b3b97ca06caf73ee9',
        'fc3c32614aa68d1372a042ea',
    ),
    ('ihash', 'mcf'): (
        '8ae321216103ff9d99bb64b2',
        'a315b61cb6e50cb43c2e6b49',
        'b9788326804fffbf06730db6',
    ),
    ('ihash', 'swim'): (
        'e9f7360e051ce7ac24a3864e',
        'ce3d76c12965ce368aa51917',
        'c1afa47cd0e1b822e30fad5c',
    ),
}



def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:24]


def _canonical(value):
    """Order-independent form of a snapshot: dicts and sets sorted, lists
    as tuples, so counter insertion order does not matter."""
    if isinstance(value, dict):
        return tuple(sorted((key, _canonical(item))
                            for key, item in value.items()))
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(value))
    if isinstance(value, (list, tuple)):
        return tuple(_canonical(item) for item in value)
    return value


def _config(scheme: str, throughput: float):
    config = table1_config(SchemeKind(scheme))
    engine = dataclasses.replace(config.hash_engine,
                                 throughput_gb_per_s=throughput)
    return dataclasses.replace(config, hash_engine=engine)


def fingerprints(scheme: str, benchmark: str) -> tuple:
    """The warm snapshot digest and one result digest per throughput."""
    profile = PROFILES[benchmark]
    state = prepare_warm_state(_config(scheme, THROUGHPUTS[0]), benchmark,
                               warmup=WARMUP, seed=0, profile=profile)
    digests = [_digest(_canonical(state.snapshot))]
    for throughput in THROUGHPUTS:
        result = run_from_warm_state(_config(scheme, throughput), benchmark,
                                     state, instructions=INSTRUCTIONS)
        digests.append(_digest((result.instructions, result.cycles,
                                sorted(result.stats.items()))))
    return tuple(digests)


@pytest.mark.parametrize("bench", BENCHMARKS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_walk_matches_golden(scheme, bench):
    assert fingerprints(scheme, bench) == GOLDEN[(scheme, bench)]


def test_golden_covers_every_cell():
    assert set(GOLDEN) == {(s, b) for s in SCHEMES for b in BENCHMARKS}


if __name__ == "__main__":
    print("GOLDEN = {")
    for scheme in SCHEMES:
        for benchmark in BENCHMARKS:
            print(f"    ({scheme!r}, {benchmark!r}): (")
            for digest in fingerprints(scheme, benchmark):
                print(f"        {digest!r},")
            print("    ),")
    print("}")
