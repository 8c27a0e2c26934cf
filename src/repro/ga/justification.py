"""Genetic state justification (Section IV of the paper).

Each GA individual encodes a candidate input sequence: ``seq_len`` vectors
of ``n_pi`` bits laid out contiguously along the binary string (vector 0
in the lowest bits).  A whole population slice is simulated at once —
individual ``i`` rides bit slot ``i`` of the packed simulator words — for
both the good circuit (starting from the *current* good state, the state
reached after all previously generated tests) and the faulty circuit
(starting all-unknown, as the paper prescribes, with the target fault
injected in every slot).

After **every** vector one AND-reduced mask says which slots fully match
the requirement in both circuits, so a successful sequence may be shorter
than the coded length; the lowest matching slot wins.  When no individual
matches, fitness — computed from the state after the last coded vector —
drives evolution toward the target:

    fitness = 9/10 · (# matching flip-flops, good circuit)
            + 1/10 · (# matching flip-flops, faulty circuit)

A flip-flop matches when the requirement is a don't-care or the values are
equal; a full match in both circuits scores exactly ``n_ff``.  The packed
PI words of a batch come from one bit-matrix transpose of its genomes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..atpg.constraints import InputConstraints, UNCONSTRAINED
from ..atpg.context import AtpgContext
from ..atpg.justify import JustifyResult, JustifyStatus
from ..circuit.netlist import Circuit
from ..faults.model import Fault
from ..knowledge import StateKnowledge
from ..simulation.compiled import CompiledCircuit, compile_circuit
from ..simulation.encoding import (
    X,
    PackedValue,
    full_mask,
    pack_const,
    popcount,
)
from ..simulation.fault_sim import injection_for
from ..simulation.logic_sim import make_simulator, resolve_backend
from ..telemetry import NULL_RECORDER, Recorder
from .engine import GAParams, GeneticAlgorithm

#: Fitness weights for the good and faulty circuit goals (paper: 9/10, 1/10).
GOOD_WEIGHT = 0.9
FAULTY_WEIGHT = 0.1


@dataclass
class GAJustifyParams:
    """Knobs for one GA justification attempt.

    Attributes:
        population_size: individuals per generation (pass 1: 64, pass 2: 128).
        generations: evolution budget (pass 1: 4, pass 2: 8).
        seq_len: coded sequence length in vectors (a multiple of the
            circuit's sequential depth, per the paper).
        word_width: simulation slots per batch.
        good_weight / faulty_weight: fitness weights (ablation knob).
    """

    population_size: int = 64
    generations: int = 4
    seq_len: int = 8
    word_width: int = 64
    good_weight: float = GOOD_WEIGHT
    faulty_weight: float = FAULTY_WEIGHT


class GAStateJustifier:
    """Evolves input sequences that drive the circuit into a required state.

    Args:
        circuit: an :class:`~repro.atpg.context.AtpgContext`, or (legacy
            shim) a circuit / compiled form plus the keyword arguments
            below, which are folded into a private context.
        rng: random source shared across attempts (seed for reproducibility).
        constraints: environment input constraints applied by construction
            (legacy shim; lives on the context).
        backend: frame-simulator backend for fitness evaluation (``"event"``
            or ``"codegen"``); ``None`` defers to ``REPRO_SIM_BACKEND``
            (legacy shim; lives on the context).
        telemetry: metrics recorder (legacy shim; lives on the context).

    When the context carries a :class:`~repro.knowledge.StateKnowledge`
    store, part of the initial GA population is seeded from its pool of
    previously successful sequences (the rest stays random), and
    successful all-X-start justifications are recorded back.
    """

    def __init__(
        self,
        circuit: "Circuit | CompiledCircuit | AtpgContext",
        rng: Optional[random.Random] = None,
        constraints: Optional[InputConstraints] = None,
        backend: Optional[str] = None,
        telemetry: Optional[Recorder] = None,
    ):
        self.ctx = AtpgContext.ensure(
            circuit,
            constraints=constraints,
            backend=backend,
            telemetry=telemetry,
        )
        self.cc = self.ctx.cc
        self.rng = rng or random.Random()
        self.telemetry = self.ctx.telemetry
        self.backend = resolve_backend(self.ctx.backend)
        self.n_pi = len(self.cc.pi)
        self.n_ff = len(self.cc.ff_out)
        self.constraints = self.ctx.constraints
        self._ff_pos: Dict[str, int] = {
            self.cc.net_names[net]: pos for pos, net in enumerate(self.cc.ff_out)
        }
        # pin categories for constrained sequence decoding
        name_of = {i: self.cc.net_names[idx] for i, idx in enumerate(self.cc.pi)}
        self._fixed_pins: Dict[int, int] = {
            pin: self.constraints.fixed[name_of[pin]]
            for pin in range(self.n_pi)
            if name_of[pin] in self.constraints.fixed
        }
        self._hold_pins = {
            pin for pin in range(self.n_pi)
            if name_of[pin] in self.constraints.hold
        }

    @property
    def knowledge(self) -> Optional[StateKnowledge]:
        return self.ctx.knowledge

    # ------------------------------------------------------------------
    def justify(
        self,
        required_good: Dict[str, int],
        params: GAJustifyParams,
        fault: Optional[Fault] = None,
        required_faulty: Optional[Dict[str, int]] = None,
        current_good_state: Optional[Sequence[int]] = None,
    ) -> JustifyResult:
        """Search for a sequence that justifies the required state.

        Args:
            required_good: cared good-circuit flip-flop values {net: 0/1}.
            params: GA parameters for this attempt.
            fault: target fault, injected during faulty-circuit simulation.
            required_faulty: cared faulty-circuit values (defaults to the
                good requirement, matching the hybrid engine's frame-0
                assignments).
            current_good_state: good-circuit starting state (scalars in
                flip-flop order); defaults to all-X.

        Returns:
            A :class:`~repro.atpg.justify.JustifyResult`; on success its
            vectors justify the state starting from ``current_good_state``.
            Failure status is always ``BOUNDED`` — a GA can never prove
            unjustifiability.
        """
        required_faulty = (
            required_faulty if required_faulty is not None else dict(required_good)
        )
        start_good = (
            list(current_good_state)
            if current_good_state is not None
            else [X] * self.n_ff
        )

        # The paper checks before searching: if the current good state
        # already satisfies the requirement and the all-unknown faulty
        # state does too (i.e. no cared faulty bits), nothing to justify.
        if self._state_matches(required_good, start_good) and not required_faulty:
            self.telemetry.count("ga.justify.trivial")
            return JustifyResult(JustifyStatus.JUSTIFIED, [])

        n_bits = max(1, params.seq_len * self.n_pi)
        evaluator = _SequenceEvaluator(
            self, params, fault, required_good, required_faulty, start_good
        )
        ga: GeneticAlgorithm = GeneticAlgorithm(
            n_bits,
            GAParams(
                population_size=params.population_size,
                generations=params.generations,
            ),
            evaluator.evaluate,
            rng=self.rng,
            telemetry=self.telemetry,
        )
        initial = self._seeded_population(ga, params)
        with self.telemetry.span("ga.justify"):
            result = ga.run(initial=initial)
        if result.payload is not None:
            self.telemetry.count("ga.justify.successes")
            know = self.knowledge
            if know is not None:
                # The pool seeds future populations regardless of start
                # state; the (a) table only takes all-X-start proofs,
                # which hold from every concrete start state.
                know.add_seed(result.payload)
                if current_good_state is None:
                    know.record_justified(required_good, result.payload)
            return JustifyResult(JustifyStatus.JUSTIFIED, result.payload)
        return JustifyResult(JustifyStatus.BOUNDED)

    def _seeded_population(
        self, ga: GeneticAlgorithm, params: GAJustifyParams
    ) -> Optional[List[int]]:
        """Random population with up to a quarter drawn from knowledge.

        Only *preloaded* stores (sidecar / cross-run reuse) seed
        populations: sequences learned within the current run stay in
        the pool for persistence but are not fed back, so a fresh
        knowledge-enabled run follows the exact GA trajectory of a
        knowledge-off run.
        """
        know = self.knowledge
        if know is None or not know.preloaded:
            return None
        seeds = know.seed_sequences(max(1, params.population_size // 4))
        if not seeds:
            return None
        population = ga.random_population()
        genomes: List[int] = []
        for seq in seeds:
            genome = self.encode(seq, params.seq_len)
            if genome not in genomes:
                genomes.append(genome)
        population[: len(genomes)] = genomes
        know.stats["ga_seeded"] += len(genomes)
        self.telemetry.count("ga.justify.seeded", len(genomes))
        return population

    # ------------------------------------------------------------------
    def _state_matches(
        self, required: Dict[str, int], state: Sequence[int]
    ) -> bool:
        for name, want in required.items():
            if state[self._ff_pos[name]] != want:
                return False
        return True

    def decode(self, genome: int, seq_len: int, n_vectors: int) -> List[List[int]]:
        """Decode the first ``n_vectors`` vectors of a genome.

        Constraints are applied by construction: fixed pins always decode
        to their constant, hold pins reuse their vector-0 bit in every
        later vector, so every candidate the GA evaluates (and every
        sequence it returns) satisfies the environment by design — the
        forward-only advantage Section VI of the paper highlights.
        """
        vectors = []
        for v in range(n_vectors):
            base = v * self.n_pi
            vec = []
            for j in range(self.n_pi):
                if j in self._fixed_pins:
                    vec.append(self._fixed_pins[j])
                elif j in self._hold_pins:
                    vec.append((genome >> j) & 1)  # vector-0 bit
                else:
                    vec.append((genome >> (base + j)) & 1)
            vectors.append(vec)
        return vectors

    def encode(self, vectors: Sequence[Sequence[int]], seq_len: int) -> int:
        """Inverse of :meth:`decode`: fold a sequence into a genome.

        Used to seed GA populations from knowledge-pool sequences.  When
        the sequence is longer than ``seq_len`` the tail is kept (the
        final vectors are what drive the state); X bits encode as 0.
        Fixed pins have no genome bits, hold pins take their vector-0
        value — so decode(encode(s)) satisfies the constraints by
        construction even when ``s`` predates them.
        """
        genome = 0
        for v, vec in enumerate(list(vectors)[-max(1, seq_len):]):
            base = v * self.n_pi
            for j in range(self.n_pi):
                if j in self._fixed_pins or j >= len(vec):
                    continue
                if vec[j] != 1:
                    continue
                if j in self._hold_pins:
                    if v == 0:
                        genome |= 1 << j
                else:
                    genome |= 1 << (base + j)
        return genome


def _transpose(rows: Sequence[int], width: int) -> List[int]:
    """Bit-matrix transpose: bit ``c`` of ``rows[r]`` is bit ``r`` of column ``c``.

    Returns ``width`` columns; row bits at or above ``width`` are ignored.
    """
    if not rows or not width:
        return [0] * width
    fmt = f"0{width}b"
    keep = (1 << width) - 1
    # The last row leads each column string, so it parses as the top bit.
    columns = [
        int("".join(col), 2)
        for col in zip(*[format(row & keep, fmt) for row in reversed(rows)])
    ]
    columns.reverse()  # strings list the top bit first
    return columns


def _cared(
    required: Dict[str, int], ff_pos: Dict[str, int]
) -> List[Tuple[int, bool]]:
    """Cared flip-flops as (position, wants 1); don't-cares always match."""
    return [(ff_pos[name], val == 1) for name, val in required.items() if val != X]


def _match_words(
    state: Sequence[PackedValue], cares: Sequence[Tuple[int, bool]], mask: int
) -> List[int]:
    """Per cared flip-flop, the slots where the state meets the requirement."""
    words: List[int] = []
    for pos, want_one in cares:
        p1, p0 = state[pos]
        words.append((p1 & ~p0 if want_one else p0 & ~p1) & mask)
    return words


def _full_match(
    state: Sequence[PackedValue], cares: Sequence[Tuple[int, bool]], hit: int
) -> int:
    """The slots of ``hit`` where every cared flip-flop meets the requirement."""
    for word in _match_words(state, cares, hit):
        hit &= word
    return hit


class _SequenceEvaluator:
    """Bit-parallel fitness evaluation of one population."""

    def __init__(
        self,
        justifier: GAStateJustifier,
        params: GAJustifyParams,
        fault: Optional[Fault],
        required_good: Dict[str, int],
        required_faulty: Dict[str, int],
        start_good: Sequence[int],
    ):
        self.j = justifier
        self.params = params
        self.fault = fault
        self.start_good = start_good
        self.good_cares = _cared(required_good, justifier._ff_pos)
        self.faulty_cares = _cared(required_faulty, justifier._ff_pos)

    def evaluate(
        self, genomes: Sequence[int]
    ) -> Tuple[List[float], Optional[List[List[int]]]]:
        """Score every genome; return a justifying sequence if one appears."""
        fitnesses: List[float] = []
        for start in range(0, len(genomes), self.params.word_width):
            batch = genomes[start : start + self.params.word_width]
            scores, payload = self._evaluate_batch(batch)
            if payload is not None:
                fitnesses.extend(scores)
                fitnesses.extend([0.0] * (len(genomes) - len(fitnesses)))
                return fitnesses, payload
            fitnesses.extend(scores)
        return fitnesses, None

    # ------------------------------------------------------------------
    def _evaluate_batch(
        self, batch: Sequence[int]
    ) -> Tuple[List[float], Optional[List[List[int]]]]:
        j = self.j
        cc = j.cc
        w = len(batch)
        mask = full_mask(w)
        good_sim = make_simulator(cc, width=w, backend=j.backend)
        good_sim.set_state([pack_const(v, w) for v in self.start_good])
        injections = (
            [injection_for(cc, self.fault, mask)] if self.fault else []
        )
        faulty_sim = make_simulator(cc, width=w, injections=injections,
                                    backend=j.backend)
        # faulty circuit starts all-unknown (paper, Section IV-A)

        seq_len = max(1, self.params.seq_len)
        for v, vector in enumerate(self._pi_words(batch, seq_len, w)):
            good_sim.step(vector)
            faulty_sim.step(vector)
            hit = _full_match(good_sim.get_state(), self.good_cares, mask)
            if hit:
                hit = _full_match(faulty_sim.get_state(), self.faulty_cares, hit)
            if hit:
                slot = (hit & -hit).bit_length() - 1  # the lowest slot wins
                return [0.0] * w, j.decode(batch[slot], seq_len, v + 1)
        good_match = self._match_counts(good_sim.get_state(), self.good_cares, w)
        faulty_match = self._match_counts(
            faulty_sim.get_state(), self.faulty_cares, w
        )
        good_weight = self.params.good_weight
        faulty_weight = self.params.faulty_weight
        return [
            good_weight * good + faulty_weight * faulty
            for good, faulty in zip(good_match, faulty_match)
        ], None

    def _pi_words(
        self, batch: Sequence[int], seq_len: int, w: int
    ) -> List[List[PackedValue]]:
        """Packed PI vectors of a batch, decoded as :meth:`GAStateJustifier.decode`."""
        j = self.j
        n_pi = j.n_pi
        mask = full_mask(w)
        genome_bits = _transpose(batch, seq_len * n_pi)
        fixed = {pin: pack_const(val, w) for pin, val in j._fixed_pins.items()}
        vectors: List[List[PackedValue]] = []
        for v in range(seq_len):
            vector: List[PackedValue] = []
            for pin in range(n_pi):
                if pin in fixed:
                    vector.append(fixed[pin])
                    continue
                p1 = genome_bits[pin if pin in j._hold_pins else v * n_pi + pin]
                vector.append((p1, ~p1 & mask))
            vectors.append(vector)
        return vectors

    def _match_counts(
        self,
        state: Sequence[PackedValue],
        cares: Sequence[Tuple[int, bool]],
        w: int,
    ) -> List[int]:
        """Per-slot count of flip-flops satisfying the requirement."""
        dont_care = self.j.n_ff - len(cares)
        words = _match_words(state, cares, full_mask(w))
        return [dont_care + popcount(column) for column in _transpose(words, w)]
