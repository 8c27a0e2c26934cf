"""The repository benchmark: deterministic GA-HITEC, HITEC and a campaign.

Run from the repository root::

    python3 perfbench/run.py --workload gahitec_s386 --seed 1 --seconds 30 --trace 0

Each operation is one workload run at one workload seed in a fresh
interpreter (``op.py``), with telemetry off, ``time_scale=None``,
``backtrack_base=50`` and the codegen backend.  A run is a fixed list of
operations that depends only on the arguments: the workload seeds that
``--seed`` derives, in ``--seconds / ROUND_S`` rounds (at least one), and
the first seed once more when there is only one round.

Every operation is checked: the result fingerprint (a hash of the sorted
detected set, the sorted untestable set and the vectors) must repeat for
a repeated seed and match ``fingerprints.json`` where that records the
seed; an event-backend re-grade of the vectors must reproduce every
claimed detection and detect no fault reported UNTESTABLE; the campaign
must fail no item.  A failed check counts the operation as failed, and it
gives no timing sample.

Shared cloud hosts change speed several times a second, so ``op.py``
probes the host's speed while it runs and reports it as ``speed``.
``wall_s``, ``cpu_s`` and ``setup_s`` are reported at a fixed reference
speed: each operation's measured seconds times its ``speed``.  The
measured seconds and speeds are in the ``--out`` file.  In a campaign
the probe runs in the parent while the two workers keep both CPUs busy,
so its ``speed`` also takes in how much the processes slow each other
down (about 0.8 where a single process sees 1.0).

With ``--trace 0`` the last line of output reports the end-to-end
metrics: ``wall_s`` and ``cpu_s`` are the sum over the run's seeds of
each seed's fastest operation, ``setup_s`` and ``peak_rss_mb`` medians
over the operations, and coverage, efficiency and vectors means over the
seeds; all of them are ``null`` unless every seed passed at least once.
With ``--trace 1`` the operations run under the span wrappers of
``layers.py``, except the second operation of the first seed, which runs
untraced for the tracing overhead; the last line reports per-layer means
per traced operation in measured seconds (``null`` where no operation
passed).  ``--out`` also saves the whole result, with the host it ran
on, for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Callable, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

#: workload -> distinct workload seeds per run.  GA-HITEC's vector count
#: moves by up to 40% from one GA seed to the next, so its run averages
#: six seeds.  HITEC's seed only fills don't-cares (on s386 every seed
#: gives the same result), so its run repeats two seeds instead.  A
#: campaign operation takes about 10 s, so its run has two seeds.
SEEDS_PER_RUN = {"gahitec_s386": 6, "hitec_s386": 2, "campaign_s820": 2}

#: workload -> nominal seconds of one round over its seeds on a 2-core
#: Xeon; ``--seconds`` divided by it gives the rounds, so the operations
#: of a run never depend on how fast the host happens to be
ROUND_S = {"gahitec_s386": 30.0, "hitec_s386": 9.0, "campaign_s820": 22.0}

#: a traced operation whose layer self times exceed its wall time by more
#: than this share counted some time twice
OVERCOUNT = 0.01

#: every operation ends by this many seconds after the run started, so
#: the whole run exits within 180 seconds
DEADLINE_S = 165.0

#: layers whose self time is reported, and the metric that holds it
SELF_TIME = {
    "hybrid": "hybrid.self_s",
    "atpg.hitec": "atpg.hitec.self_s",
    "atpg.podem.detect": "atpg.podem.detect.self_s",
    "atpg.podem.justify": "atpg.podem.justify.self_s",
    "atpg.unrolled": "atpg.unrolled.build_s",
    "ga.justify": "ga.justify.self_s",
    "atpg.justify": "atpg.justify.self_s",
    "sim.fault_sim": "sim.fault_sim.self_s",
    "sim.grade_blocks": "sim.grade_blocks.self_s",
    "sim.codegen": "sim.codegen.self_s",
    "knowledge": "knowledge.self_s",
    "policy.features": "policy.features.self_s",
    "campaign.item": "campaign.item.self_s",
    "campaign.merge": "campaign.merge.self_s",
    "telemetry.merge_reports": "telemetry.merge_reports.self_s",
}


def workload_seeds(workload: str, seed: int) -> List[int]:
    """The distinct workload seeds one run uses; the first is ``seed``."""
    return [seed] + [seed * 1000 + i for i in range(1, SEEDS_PER_RUN[workload])]


def schedule(workload: str, seed: int, seconds: float) -> List[int]:
    """The workload seed of every operation of a run, in order.

    Each seed runs once per round; with a single round the first seed runs
    twice, so that every run checks a fingerprint against a repeat.
    """
    seeds = workload_seeds(workload, seed)
    rounds = max(1, round(seconds / ROUND_S[workload]))
    return seeds * rounds + (seeds[:1] if rounds == 1 else [])


def host() -> Dict[str, Any]:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
    }


def child_env() -> Dict[str, str]:
    """Cold kernels, explicit backend, random hash seed per interpreter.

    A fingerprint that changes between operations of one seed then shows
    any dependence on hash order.
    """
    env = dict(os.environ)
    for name in ("REPRO_KERNEL_CACHE", "REPRO_SIM_BACKEND", "PYTHONHASHSEED"):
        env.pop(name, None)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def run_op(workload: str, seed: int, deadline: float, *extra: str
           ) -> Dict[str, Any]:
    """One ``op.py`` interpreter; its record, or the problem that ended it."""
    cmd = [sys.executable, os.path.join(HERE, "op.py"),
           "--workload", workload, "--seed", str(seed), *extra]
    # a session of its own, so a timeout also stops campaign workers
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        while _group_alive(proc.pid):
            time.sleep(0.05)
        return {"seed": seed, "problems": ["timed out"]}
    lines = stdout.strip().splitlines()
    try:
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
    except ValueError:
        pass
    tail = stderr.strip().splitlines()[-1:] or ["no result"]
    return {"seed": seed, "problems": [f"exit {proc.returncode}: {tail[0]}"]}


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(op: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer values of one traced operation.

    Seconds spent in campaign worker processes count ``1 / workers``: the
    workers run side by side, so that is their share of the wall time.
    With that scaling the layer self times plus ``unattributed_s`` equal
    the traced ``wall_s``.
    """
    trace = op["trace"]
    workers = trace.get("campaign.workers", 1)
    procs = [(trace["parent"], 1.0, trace["compile"])] + [
        (dump, 1.0 / workers, dump["compile"]) for dump in trace["workers"]
    ]
    seconds: Dict[str, float] = {name: 0.0 for name in SELF_TIME.values()}
    counts: Dict[str, int] = {}
    counters: Dict[str, int] = {}
    compile_s = kernels = busy = 0.0
    fault_ms: List[float] = []
    for index, (dump, scale, compiled) in enumerate(procs):
        for layer, value in dump["self_s"].items():
            seconds[SELF_TIME[layer]] += value * scale
            if index:
                busy += value
        for table, into in ((dump["counts"], counts), (dump["counters"], counters)):
            for name, value in table.items():
                into[name] = into.get(name, 0) + value
        compile_s += compiled["seconds"] * scale
        kernels += compiled["kernels"]
        fault_ms.extend(dump["fault_ms"])

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    solve_s = trace.get("campaign.solve_s", 0.0)
    values = dict(seconds)
    values.update({
        "ga.justify.calls": counts.get("ga.justify.calls", 0),
        "ga.justify.success_ratio": ratio(
            counts.get("ga.justify.successes", 0),
            counts.get("ga.justify.calls", 0)),
        "ga.evaluations": counters.get("ga.evaluations", 0),
        "ga.generations": counters.get("ga.generations", 0),
        "atpg.podem.solutions": counts.get("atpg.podem.solutions", 0),
        "atpg.podem.backtracks": counts.get("atpg.podem.backtracks", 0),
        "atpg.unrolled.builds": counts.get("atpg.unrolled.calls", 0),
        "atpg.justify.calls": counts.get("atpg.justify.calls", 0),
        "atpg.justify.success_ratio": ratio(
            counts.get("atpg.justify.successes", 0),
            counts.get("atpg.justify.calls", 0)),
        "knowledge.lookups": counts.get("knowledge.lookups", 0),
        "knowledge.hit_ratio": ratio(counts.get("knowledge.hits", 0),
                                     counts.get("knowledge.lookups", 0)),
        "sim.codegen.kernels": kernels,
        "sim.codegen.compile_s": compile_s,
        "sim.codegen.kernel_hit_ratio": 1.0 - ratio(
            kernels, counts.get("sim.codegen.calls", 0)),
        "sim.fault_sim.calls": counts.get("sim.fault_sim.calls", 0),
        "sim.fault_sim.frames": counters.get("sim.frames", 0),
        "campaign.warm_s": trace.get("campaign.warm_s", 0.0),
        "campaign.fork_s": trace.get("campaign.fork_s", 0.0),
        "campaign.solve_s": solve_s,
        "campaign.merge_s": trace.get("campaign.merge_s", 0.0),
        "campaign.items": trace.get("campaign.items", 0),
        "campaign.worker_busy_share": ratio(busy, workers * solve_s),
        "hybrid.validations": counters.get("hybrid.validations", 0),
        "hybrid.commits": counters.get("hybrid.commits", 0),
        "hybrid.commit_ratio": ratio(counters.get("hybrid.commits", 0),
                                     counters.get("hybrid.validations", 0)),
        "atpg.hitec.faults": counts.get("atpg.hitec.calls", 0),
        "atpg.hitec.fault_p50_ms": percentile(fault_ms, 0.50),
        "atpg.hitec.fault_p90_ms": percentile(fault_ms, 0.90),
        "unattributed_s": op["wall_s"] - sum(seconds.values()),
        "trace.wall_s": op["wall_s"],
    })
    return values


def check_ops(ops: List[Dict[str, Any]], recorded: Dict[str, str]) -> None:
    """Mark each op ``ok``.

    A fingerprint must repeat and match the record, and a traced op's
    layer self times must not add up to more than its wall time.
    """
    first: Dict[int, str] = {}
    for op in ops:
        fp = op.get("fingerprint")
        if fp is not None:
            want = recorded.get(str(op["seed"]), first.setdefault(op["seed"], fp))
            if fp != want:
                op["problems"].append(
                    f"fingerprint {fp} != {want} for seed {op['seed']}")
        if "trace" in op and not op["problems"]:
            unattributed = layer_metrics(op)["unattributed_s"]
            if unattributed < -OVERCOUNT * op["wall_s"]:
                op["problems"].append(
                    f"layer self times exceed wall by {-unattributed:.3f} s")
        op["ok"] = not op["problems"]


def layer_values(ops: List[Dict[str, Any]], names: List[str]
                 ) -> Dict[str, Optional[float]]:
    """Per-layer metrics: means per traced operation, and the overhead.

    The overhead compares operations of one seed at the reference speed,
    since the host's speed moves one operation's time more than tracing.
    """
    traced = [layer_metrics(op) for op in ops if op["ok"] and "trace" in op]
    values: Dict[str, Optional[float]] = dict.fromkeys(names)
    if traced:
        values.update({name: statistics.fmean(t[name] for t in traced)
                       for name in traced[0]})
    untraced = [op for op in ops if op["ok"] and "trace" not in op]
    if untraced:
        base = statistics.median(op["wall_s"] for op in untraced)
        same_seed = [op for op in ops if op["ok"] and "trace" in op
                     and op["seed"] == untraced[0]["seed"]]
        values["trace.untraced_wall_s"] = base
        if same_seed:
            values["trace.overhead_ratio"] = statistics.median(
                op["wall_s"] * op["speed"] for op in same_seed
            ) / statistics.median(op["wall_s"] * op["speed"] for op in untraced)
    return values


def end_to_end_values(ops: List[Dict[str, Any]], names: List[str]
                      ) -> Dict[str, Optional[float]]:
    """Times summed over seeds (fastest op each); quality means over seeds.

    Times are at the reference speed: each op's seconds times its
    ``speed``.  Every seed of the run must have passed, so that the sums
    always cover the same seeds; otherwise every metric is ``None``.
    """
    by_seed: Dict[int, List[Dict[str, Any]]] = {}
    for op in ops:
        by_seed.setdefault(op["seed"], []).append(op)
    good = {seed: [op for op in seed_ops if op["ok"]]
            for seed, seed_ops in by_seed.items()}
    if not all(good.values()):
        return dict.fromkeys(names)
    firsts = [seed_ops[0] for seed_ops in good.values()]
    every = [op for seed_ops in good.values() for op in seed_ops]

    def fastest_sum(name: str) -> float:
        return sum(min(op[name] * op["speed"] for op in seed_ops)
                   for seed_ops in good.values())

    def mean(fn: Callable[[Dict[str, Any]], float]) -> float:
        return statistics.fmean(map(fn, firsts))

    return {
        "wall_s": fastest_sum("wall_s"),
        "cpu_s": fastest_sum("cpu_s"),
        "setup_s": statistics.median(op["setup_s"] * op["speed"]
                                     for op in every),
        "peak_rss_mb": statistics.median(op["peak_rss_mb"] for op in every),
        "fault_coverage": mean(lambda op: 100.0 * op["detected"] / op["total"]),
        "fault_efficiency": mean(
            lambda op: 100.0 * (op["detected"] + op["untestable"]) / op["total"]),
        "vectors": mean(lambda op: op["vectors"]),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SEEDS_PER_RUN))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also save the full result as JSON here")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program at {SRC}/repro; run from a checkout",
              file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)  # leftovers of a killed run
    os.makedirs(WORK)
    # byte-compile up front: users pay that once per install, not per run
    subprocess.run([sys.executable, "-m", "compileall", "-q", SRC],
                   check=True, stdout=subprocess.DEVNULL)
    with open(os.path.join(HERE, "fingerprints.json"), encoding="utf-8") as h:
        recorded = json.load(h).get(args.workload, {})
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as h:
        metrics = json.load(h)["per_layer" if args.trace else "end_to_end"]

    deadline = time.monotonic() + DEADLINE_S
    plan = schedule(args.workload, args.seed, args.seconds)
    untraced_at = len(workload_seeds(args.workload, args.seed))
    ops: List[Dict[str, Any]] = []
    for index, seed in enumerate(plan):
        if time.monotonic() >= deadline:
            ops.append({"seed": seed, "problems": ["no time left"]})
            continue
        extra: List[str] = []
        # in a traced run, the second operation of the first seed runs
        # untraced, for the tracing overhead
        if args.trace and index != untraced_at:
            extra = ["--trace-dir", tempfile.mkdtemp(prefix="trace-", dir=WORK)]
        try:
            ops.append(run_op(args.workload, seed, deadline, *extra))
        finally:
            if extra:
                shutil.rmtree(extra[1], ignore_errors=True)

    check_ops(ops, recorded)
    failed = sum(1 for op in ops if not op["ok"])
    for op in ops:
        for problem in op["problems"]:
            print(f"FAILED seed {op['seed']}: {problem}")
    names = [m["name"] for m in metrics]
    values = (layer_values(ops, names) if args.trace
              else end_to_end_values(ops, names))
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics},
    }
    machine = host()
    print("host " + json.dumps(machine, sort_keys=True))
    speeds = [op["speed"] for op in ops if op.get("speed")]
    if speeds:
        print(f"host speed {min(speeds):.3f}..{max(speeds):.3f} "
              f"of the reference over {len(speeds)} operations")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "seconds": args.seconds, "trace": args.trace,
                       "host": machine, "result": result, "ops": ops},
                      handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
