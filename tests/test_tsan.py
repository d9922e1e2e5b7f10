"""The ``REPRO_TSAN=1`` runtime sanitizer: instrumented locks and
guarded containers.

Two halves, mirroring the acceptance criteria:

* **armed and biting** — an injected guard violation (mutating a
  guarded dict without its lock) and an injected lock inversion (ABBA
  across two instrumented locks) are both recorded, at the right names;
* **real path clean** — the full :class:`LeaseBoard` protocol cycle
  (seed / claim / heartbeat / done / status) runs under instrumentation
  with zero violations.  The ``REPRO_TSAN=1`` CI leg re-runs
  ``test_dispatch.py`` and ``test_sweep.py`` to extend that claim to
  the HTTP protocol suite, the stores, and the worker integration
  tests.

Without the environment variable the factories return the plain
``threading`` primitives and builtin containers — zero overhead on the
production path.
"""

import threading

import pytest

from repro.checks.tsan import (
    GuardError,
    GuardedDict,
    GuardedList,
    InstrumentedLock,
    LockOrderError,
    guarded_dict,
    guarded_list,
    new_lock,
    new_rlock,
    reset,
    tsan_enabled,
    violations,
)
from repro.common import SchemeKind
from repro.sim.sweep import (
    CellSpec,
    LeaseBoard,
    cell_fingerprint,
    spec_to_dict,
)


@pytest.fixture
def armed(monkeypatch):
    monkeypatch.setenv("REPRO_TSAN", "1")
    monkeypatch.delenv("REPRO_TSAN_RAISE", raising=False)
    reset()
    yield
    reset()


@pytest.fixture
def raising(monkeypatch):
    monkeypatch.setenv("REPRO_TSAN", "1")
    monkeypatch.setenv("REPRO_TSAN_RAISE", "1")
    reset()
    yield
    reset()


class TestDisabled:
    def test_factories_return_plain_primitives(self, monkeypatch):
        monkeypatch.delenv("REPRO_TSAN", raising=False)
        assert not tsan_enabled()
        lock = new_lock("t.lock")
        assert not isinstance(lock, InstrumentedLock)
        assert type(lock) is type(threading.Lock())
        assert type(new_rlock("t.rlock")) is type(threading.RLock())
        d = guarded_dict(lock, "t.d", {"a": 1})
        ls = guarded_list(lock, "t.l", [1, 2])
        assert type(d) is dict and d == {"a": 1}
        assert type(ls) is list and ls == [1, 2]


class TestGuardViolations:
    def test_unguarded_dict_write_detected(self, armed):
        lock = new_lock("t.lock")
        d = guarded_dict(lock, "t.shared")
        assert isinstance(d, GuardedDict)
        d["k"] = 1  # no lock held: the injected violation
        recorded = violations()
        assert len(recorded) == 1
        assert isinstance(recorded[0], GuardError)
        assert "t.shared" in str(recorded[0])

    def test_guarded_write_is_clean(self, armed):
        lock = new_lock("t.lock")
        d = guarded_dict(lock, "t.shared")
        with lock:
            d["k"] = 1
            d.setdefault("j", 2)
            del d["j"]
        assert violations() == []
        assert d == {"k": 1}

    def test_unguarded_list_append_detected(self, armed):
        lock = new_lock("t.lock")
        ls = guarded_list(lock, "t.log")
        assert isinstance(ls, GuardedList)
        ls.append(1)
        recorded = violations()
        assert len(recorded) == 1
        assert "t.log" in str(recorded[0])

    def test_reads_never_checked(self, armed):
        lock = new_lock("t.lock")
        d = guarded_dict(lock, "t.shared")
        with lock:
            d["k"] = 1
        assert d.get("k") == 1 and list(d) == ["k"]
        assert violations() == []

    def test_raise_mode_raises(self, raising):
        lock = new_lock("t.lock")
        d = guarded_dict(lock, "t.shared")
        with pytest.raises(GuardError):
            d["k"] = 1


class TestLockOrder:
    def test_inversion_detected(self, armed):
        a = new_lock("t.a")
        b = new_lock("t.b")
        with a:
            with b:
                pass
        with b:
            with a:  # the injected inversion
                pass
        recorded = violations()
        assert len(recorded) == 1
        assert isinstance(recorded[0], LockOrderError)
        assert "t.a" in str(recorded[0]) and "t.b" in str(recorded[0])

    def test_consistent_order_is_clean(self, armed):
        a = new_lock("t.a")
        b = new_lock("t.b")
        for _ in range(3):
            with a:
                with b:
                    pass
        assert violations() == []

    def test_rlock_reentry_is_clean(self, armed):
        lock = new_rlock("t.r")
        with lock:
            with lock:
                pass
        assert violations() == []

    def test_raise_mode_raises_on_inversion(self, raising):
        a = new_lock("t.a")
        b = new_lock("t.b")
        with a:
            with b:
                pass
        with b:
            with pytest.raises(LockOrderError):
                with a:
                    pass


def _wire_cells():
    spec = CellSpec("gzip", SchemeKind.CHASH,
                    instructions=400, warmup=300).normalized()
    return [{"fingerprint": cell_fingerprint(spec),
             "spec": spec_to_dict(spec)}]


class TestLeaseBoardUnderTsan:
    def test_board_is_instrumented_when_armed(self, armed):
        board = LeaseBoard(clock=lambda: 0.0)
        assert isinstance(board._lock, InstrumentedLock)
        assert isinstance(board._leases, GuardedDict)
        assert isinstance(board._pending, GuardedDict)
        assert isinstance(board._done, GuardedDict)
        assert isinstance(board._starving, GuardedDict)
        assert isinstance(board.workers, GuardedDict)
        assert isinstance(board._outcomes, GuardedList)

    def test_full_protocol_cycle_is_clean(self, armed):
        board = LeaseBoard(lease_ttl_s=30.0, clock=lambda: 0.0)
        board.seed([_wire_cells()])
        leased = board.claim("w1")
        assert leased["status"] == "lease"
        lease = leased["lease"]
        assert board.heartbeat(lease["id"], "w1")["ok"]
        rows = [{"fingerprint": cell["fingerprint"], "stored": True,
                 "elapsed_s": 0.1, "label": "t"}
                for cell in lease["cells"]]
        retired = board.done(lease["id"], "w1", rows)
        assert retired["retired"] and retired["accepted"] == 1
        status = board.status()
        assert status["drained"]
        assert board.claim("w1")["status"] == "empty"
        assert violations() == []

    def test_board_stays_plain_when_disabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_TSAN", raising=False)
        board = LeaseBoard(clock=lambda: 0.0)
        assert type(board._lock) is type(threading.Lock())
        assert type(board._leases) is dict
        assert type(board._outcomes) is list
