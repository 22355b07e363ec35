"""Self-time arithmetic on a fake clock, and wrapper install/uninstall."""

import pytest

from repro import obs
from repro.service import session as session_module
from repro.sketch import columnar

from perfbench.layers import LayerProbe, self_time_by_layer, self_times


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    tracer = obs.Tracer(clock=clock)
    with tracer.span("outer"):          # 0 .. 10
        clock.now = 1.0
        with tracer.span("a"):          # 1 .. 4
            clock.now = 2.0
            with tracer.span("leaf"):   # 2 .. 3
                clock.now = 3.0
            clock.now = 4.0
        clock.now = 5.0
        with tracer.span("b"):          # 5 .. 6
            clock.now = 6.0
        clock.now = 8.0
        with tracer.span("a"):          # 8 .. 9.5, no children
            clock.now = 9.5
        clock.now = 10.0
    times = self_times(tracer.phases)
    assert times[("outer",)] == pytest.approx(10 - 3 - 1 - 1.5)
    assert times[("outer", "a")] == pytest.approx((3 - 1) + 1.5)
    assert times[("outer", "a", "leaf")] == pytest.approx(1.0)
    assert times[("outer", "b")] == pytest.approx(1.0)
    assert sum(times.values()) == pytest.approx(10.0)


def test_connectivity_replay_inside_a_promotion_counts_as_promotion():
    clock = FakeClock()
    tracer = obs.Tracer(clock=clock)
    with tracer.span("session.ingest"):             # 0 .. 10
        with tracer.span("agm.ingest"):             # 0 .. 2
            clock.now = 2.0
        with tracer.span("session.ladder.promote"):  # 2 .. 9
            clock.now = 3.0
            with tracer.span("agm.ingest"):         # 3 .. 8
                clock.now = 8.0
            clock.now = 9.0
        clock.now = 10.0
    layers = self_time_by_layer(tracer.phases)
    assert layers["agm.ingest"] == pytest.approx(2.0)
    assert layers["session.ladder.promote"] == pytest.approx(7.0)
    assert layers["session.ingest"] == pytest.approx(1.0)


def test_probe_uninstall_restores_every_binding():
    before = (columnar.stack_positions_terms, session_module.cut_value,
              columnar.SketchStack.__dict__["scatter"])
    probe = LayerProbe(obs.Tracer()).install()
    assert columnar.stack_positions_terms is not before[0]
    probe.uninstall()
    after = (columnar.stack_positions_terms, session_module.cut_value,
             columnar.SketchStack.__dict__["scatter"])
    assert after == before


def test_paused_probe_records_nothing_and_resumes():
    original = columnar.stack_positions_terms
    tracer = obs.Tracer()
    previous = obs.set_tracer(tracer)
    probe = LayerProbe(tracer).install()
    try:
        with probe.paused():
            assert obs.TRACER is obs.NOOP_TRACER
            assert columnar.stack_positions_terms is original
        assert obs.TRACER is tracer
        assert columnar.stack_positions_terms is not original
    finally:
        probe.uninstall()
        obs.set_tracer(previous)
    assert columnar.stack_positions_terms is original
