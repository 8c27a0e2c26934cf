"""Differential test: word-parallel GA fitness evaluation vs a scalar reference.

The reference simulates every genome on its own width-1 event-driven
:class:`FrameSimulator`, checks both circuits after every vector, and
scores fitness from the state after the last coded vector.  Over a batch,
the earliest vector with a full match in both circuits ends evaluation,
and the lowest matching slot at that vector supplies the payload.  The
simulator backend under test follows ``REPRO_SIM_BACKEND``.
"""

import random

from hypothesis import example, given, settings, strategies as st

from repro.atpg.constraints import InputConstraints
from repro.circuits import counter, s27, two_stage_pipeline
from repro.faults.model import full_fault_list
from repro.ga.justification import (
    GAJustifyParams,
    GAStateJustifier,
    _SequenceEvaluator,
)
from repro.simulation.encoding import X, pack_const, unpack
from repro.simulation.fault_sim import injection_for
from repro.simulation.logic_sim import FrameSimulator

CIRCUITS = {"s27": s27, "counter3": lambda: counter(3), "pipe2": two_stage_pipeline}


def _scalar_state(sim):
    return [unpack(val, 1)[0] for val in sim.get_state()]


def _count(state, flops, required):
    return sum(1 for name, got in zip(flops, state) if required.get(name, X) in (X, got))


def reference_batch(justifier, params, fault, req_good, req_faulty, start_good, batch):
    """Fitness list and early-exit payload of one batch, one genome at a time."""
    cc = justifier.cc
    flops = [cc.net_names[net] for net in cc.ff_out]
    n_ff = len(flops)
    seq_len = max(1, params.seq_len)
    injections = [injection_for(cc, fault, 1)] if fault else []
    first_match = []
    scores = []
    for genome in batch:
        good = FrameSimulator(cc, width=1)
        good.set_state([pack_const(v, 1) for v in start_good])
        faulty = FrameSimulator(cc, width=1, injections=injections)
        matched_at = None
        for v, vec in enumerate(justifier.decode(genome, seq_len, seq_len)):
            packed = [pack_const(bit, 1) for bit in vec]
            good.step(packed)
            faulty.step(packed)
            good_count = _count(_scalar_state(good), flops, req_good)
            faulty_count = _count(_scalar_state(faulty), flops, req_faulty)
            if matched_at is None and good_count == faulty_count == n_ff:
                matched_at = v
        first_match.append(matched_at)
        scores.append(
            params.good_weight * good_count + params.faulty_weight * faulty_count
        )
    hits = [(v, slot) for slot, v in enumerate(first_match) if v is not None]
    if hits:
        v, slot = min(hits)
        return [0.0] * len(batch), justifier.decode(batch[slot], seq_len, v + 1)
    return scores, None


@st.composite
def cases(draw):
    name = draw(st.sampled_from(sorted(CIRCUITS)))
    circuit = CIRCUITS[name]()
    pis = list(circuit.inputs)
    flops = list(circuit.flops)
    pin_roles = draw(
        st.lists(st.sampled_from(["free", "fixed0", "fixed1", "hold"]),
                 min_size=len(pis), max_size=len(pis))
    )
    constraints = InputConstraints(
        fixed={pi: int(role[-1]) for pi, role in zip(pis, pin_roles)
               if role.startswith("fixed")},
        hold={pi for pi, role in zip(pis, pin_roles) if role == "hold"},
    )
    # mostly cared bits, so matches tend to need a few vectors
    care = st.sampled_from([0, 1, 0, 1, X])
    requirement = st.fixed_dictionaries({ff: care for ff in flops})
    req_good = draw(requirement)
    req_faulty = draw(st.one_of(st.none(), requirement))
    model = draw(st.sampled_from(["stuck_at", "transition"]))
    fault = draw(st.one_of(st.none(), st.sampled_from(full_fault_list(circuit, model))))
    start_good = draw(
        st.one_of(
            st.none(),
            st.lists(st.sampled_from([0, 1, X]),
                     min_size=len(flops), max_size=len(flops)),
        )
    )
    seq_len = draw(st.integers(1, 6))
    word_width = draw(st.integers(1, 8))
    n_bits = max(1, seq_len * len(pis))
    # uniform random bits, like a GA population
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    genomes = [rng.getrandbits(n_bits) for _ in range(draw(st.integers(1, 20)))]
    return (circuit, constraints, req_good, req_faulty, fault, start_good,
            seq_len, word_width, genomes)


class TestEvaluateBatchDifferential:
    @settings(max_examples=80, deadline=None)
    @given(cases())
    # counter(3) reaches q=000 on the first vector with clr=1 (genome bit
    # 2v+1): slot 0 clears only at vector 1, slots 1 and 2 at vector 0
    # with different en bits, so slot 1 must win; the fifth genome forms
    # a partial batch that never matches
    @example(case=(counter(3), InputConstraints(), {"q0": 0, "q1": 0, "q2": 0},
                   None, None, None, 3, 4, [0b1000, 0b11, 0b10, 0, 0]))
    def test_matches_scalar_reference(self, case):
        (circuit, constraints, req_good, req_faulty, fault, start_good,
         seq_len, word_width, genomes) = case
        justifier = GAStateJustifier(
            circuit, rng=random.Random(0), constraints=constraints
        )
        params = GAJustifyParams(seq_len=seq_len, word_width=word_width)
        req_faulty = dict(req_good) if req_faulty is None else req_faulty
        start = [X] * justifier.n_ff if start_good is None else start_good
        evaluator = _SequenceEvaluator(
            justifier, params, fault, req_good, req_faulty, start
        )
        # the last batch is partial whenever len(genomes) % word_width != 0
        for lo in range(0, len(genomes), word_width):
            batch = genomes[lo : lo + word_width]
            expected = reference_batch(
                justifier, params, fault, req_good, req_faulty, start, batch
            )
            assert evaluator._evaluate_batch(batch) == expected
