"""Pinned GA-HITEC trajectories: GA fitness changes must not move a run.

Each case is a deterministic one-pass GA-HITEC run (seed 3, codegen
backend, no wall-clock limits) in which the GA justifies states several
times.  The detected set, untestable set and vectors were recorded before
the GA fitness evaluator was made word-parallel; any change to fitness
floats, early-exit slots or the GA"s RNG use shows up as a different run.
"""

import pytest

from repro import gahitec, gahitec_schedule
from repro.circuits import counter, gray_fsm, s27
from repro.telemetry import TelemetryRecorder

#: name -> (circuit builder, x, detected, untestable, vectors as 0/1 strings)
PINNED = {
    "s27": (
        s27,
        4,
        [
            "G0 s-a-0", "G0 s-a-1", "G1 s-a-0", "G1 s-a-1", "G10 s-a-0",
            "G10 s-a-1", "G11 s-a-1", "G11->G10.1 s-a-0", "G11->G17.0 s-a-0",
            "G11->G17.0 s-a-1", "G11->G6.0 s-a-0", "G12 s-a-1",
            "G12->G13.1 s-a-0", "G12->G13.1 s-a-1", "G12->G15.0 s-a-0",
            "G12->G15.0 s-a-1", "G14->G10.0 s-a-0", "G14->G8.0 s-a-1",
            "G16 s-a-1", "G2 s-a-0", "G3 s-a-0", "G8 s-a-1",
            "G8->G15.1 s-a-0", "G8->G16.1 s-a-0", "G9 s-a-0",
        ],
        [],
        [
            "0010", "1001", "1000", "0110", "1101", "1010", "0001", "1110",
            "0000", "1001", "0100", "1001",
        ],
    ),
    "counter6": (
        lambda: counter(6),
        16,
        [
            "c0 s-a-0", "c0 s-a-1", "c0->c1.1 s-a-0", "c0->c1.1 s-a-1",
            "c0->t1.1 s-a-0", "c0->t1.1 s-a-1", "c1 s-a-1", "c1->c2.1 s-a-0",
            "c1->c2.1 s-a-1", "c1->t2.1 s-a-0", "c1->t2.1 s-a-1", "c2 s-a-1",
            "c2->t3.1 s-a-0", "c2->t3.1 s-a-1", "c3 s-a-1", "c3->t4.1 s-a-1",
            "c4 s-a-1", "clr s-a-1", "d0 s-a-0", "d0 s-a-1", "d1 s-a-0",
            "d1 s-a-1", "d2 s-a-0", "d2 s-a-1", "d3 s-a-0", "d3 s-a-1",
            "d4 s-a-1", "d5 s-a-1", "en s-a-0", "en s-a-1", "en->c0.1 s-a-1",
            "en->t0.1 s-a-0", "en->t0.1 s-a-1", "q0->c0.0 s-a-1",
            "q0->t0.0 s-a-0", "q0->t0.0 s-a-1", "q1->c1.0 s-a-1",
            "q1->t1.0 s-a-0", "q1->t1.0 s-a-1", "q2->c2.0 s-a-1",
            "q2->t2.0 s-a-0", "q2->t2.0 s-a-1", "q3->c3.0 s-a-1",
            "q3->t3.0 s-a-1", "q4->t4.0 s-a-1", "q5->t5.0 s-a-1", "t0 s-a-1",
            "t1 s-a-1", "t2 s-a-1", "t3 s-a-1", "t4 s-a-1", "t5 s-a-1",
        ],
        [],
        [
            "11", "10", "10", "00", "11", "10", "10", "10", "10", "00", "11",
            "01", "00", "10", "00", "10", "10", "10", "00", "00", "11", "10",
            "10", "10", "10", "10", "10", "10", "10", "00",
        ],
    ),
    "gray_fsm": (
        gray_fsm,
        8,
        [
            "both s-a-0", "both s-a-1", "en s-a-1", "nrst s-a-0",
            "nrst s-a-1", "ns0 s-a-0", "ns0 s-a-1", "ns1 s-a-1", "rst s-a-1",
            "rst->ns0.1 s-a-0", "s0->both.1 s-a-1", "s0->ns1.0 s-a-1",
            "s0->y.1 s-a-0", "s0->y.1 s-a-1", "s1->both.0 s-a-1",
            "s1->ns0.0 s-a-0", "s1->y.0 s-a-0", "s1->y.0 s-a-1", "y s-a-0",
            "y s-a-1",
        ],
        [],
        [
            "11", "01", "00", "01", "10", "01", "00", "00", "11", "00", "01",
            "10", "00", "10", "10", "00",
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_gahitec_trajectory_is_pinned(name):
    build, x, detected, untestable, vectors = PINNED[name]
    telemetry = TelemetryRecorder()
    result = gahitec(build(), seed=3, backend="codegen", telemetry=telemetry).run(
        gahitec_schedule(x=x, num_passes=1, time_scale=None, backtrack_base=20)
    )
    assert sorted(str(f) for f in result.detected) == detected
    assert sorted(str(f) for f in result.untestable) == untestable
    assert ["".join(map(str, vec)) for vec in result.test_set] == vectors
    assert result.report.metrics["counters"]["ga.justify.successes"] > 0
