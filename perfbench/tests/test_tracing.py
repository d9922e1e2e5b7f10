"""Unit tests of the benchmark's span recorder."""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))

from tracing import Tracer  # noqa: E402


class Outer:
    def call(self, inner, pause):
        time.sleep(pause)
        return inner.call(pause)


class Inner:
    def call(self, pause):
        time.sleep(pause)
        return "done"

    def numbers(self, count):
        for value in range(count):
            time.sleep(0.002)
            yield value


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.span(Outer, "call", "outer")
    tracer.span(Inner, "call", "inner")
    try:
        assert Outer().call(Inner(), 0.02) == "done"
    finally:
        tracer.uninstall()
    layers = tracer.layers()
    assert layers["outer"]["calls"] == 1 and layers["inner"]["calls"] == 1
    assert 0.015 < layers["outer"]["self_s"] < 0.035
    assert layers["outer"]["total_s"] >= (layers["outer"]["self_s"]
                                          + layers["inner"]["self_s"])


def test_uninstall_restores_originals():
    original = Inner.__dict__["call"]
    tracer = Tracer()
    tracer.span(Inner, "call", "inner")
    assert Inner.__dict__["call"] is not original
    tracer.uninstall()
    assert Inner.__dict__["call"] is original


def test_generator_spans_cover_steps_only():
    tracer = Tracer()
    tracer.span(Inner, "numbers", "gen")
    try:
        values = []
        for value in Inner().numbers(3):
            time.sleep(0.01)  # the consumer's time is not the producer's
            values.append(value)
    finally:
        tracer.uninstall()
    assert values == [0, 1, 2]
    gen = tracer.layers()["gen"]
    assert gen["calls"] == 4  # three items and the final StopIteration
    assert gen["self_s"] < 0.02


def test_disabled_tracer_records_nothing_and_counters_run_when_on():
    seen = []
    tracer = Tracer()
    tracer.span(Inner, "call", "inner",
                lambda t, self, pause: seen.append(pause))
    try:
        tracer.enabled = False
        Inner().call(0)
        assert tracer.layers() == {} and seen == []
        tracer.enabled = True
        Inner().call(0)
    finally:
        tracer.uninstall()
    assert tracer.layers()["inner"]["calls"] == 1 and seen == [0]
