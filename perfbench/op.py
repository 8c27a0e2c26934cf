"""One benchmark operation: one workload at one seed, in a fresh interpreter.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/op.py --workload gahitec_s386 --seed 1 [--trace-dir DIR]

Prints one JSON object: set-up, run and resource measurements, the host
speed the speed probe saw during the run, the result fingerprint, the
output check, and with ``--trace-dir`` the per-layer totals of every
process of the run.  ``run.py`` drives this script; it is not meant to
be timed on its own.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))

#: GA-HITEC on s386: x = 4 x the stand-in's sequential depth of 6
GA_X = 24
BACKTRACKS = 50
BACKEND = "codegen"

#: Shared cloud hosts switch between fast and slow spells several times a
#: second (a fixed loop runs 45% slower in a slow spell on a 2-vCPU Xeon
#: virtual machine), so the time of one run depends on the share of slow
#: spells it met.  Every ``PROBE_EVERY_S`` of the run, a timer signal
#: times ``PROBE_LOOPS`` turns of a fixed pure-Python loop; the samples
#: measure the host's speed during this run, about 2% of which the probe
#: takes.
PROBE_LOOPS = 12_000
PROBE_EVERY_S = 0.05

#: the probe sample's time in fast spells on that host.  ``speed`` is the
#: mean of this over each sample: samples come evenly in time, so that is
#: the run's mean speed relative to a fast spell.
PROBE_REF_S = 0.0009


def fingerprint(detected, untestable, vectors) -> str:
    """Hash of the sorted detected set, sorted untestable set and vectors."""
    doc = {
        "detected": sorted(str(f) for f in detected),
        "untestable": sorted(str(f) for f in untestable),
        "vectors": [list(v) for v in vectors],
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def check(circuit, faults, detected, untestable, vectors):
    """Re-grade ``vectors`` under the event backend; list every violation."""
    from repro.simulation.fault_sim import FaultSimulator

    regraded = {
        str(f)
        for f in FaultSimulator(circuit, backend="event")
        .run(vectors, faults)
        .detected
    }
    problems = []
    missed = sorted(set(map(str, detected)) - regraded)
    if missed:
        problems.append(f"{len(missed)} claimed detections not reproduced "
                        f"under event, e.g. {missed[0]}")
    wrong = sorted(set(map(str, untestable)) & regraded)
    if wrong:
        problems.append(f"{len(wrong)} UNTESTABLE faults detected by the "
                        f"event re-grade, e.g. {wrong[0]}")
    return problems


def prepare_s386(name, seed, work_dir):
    """Build s386 and its driver; return the run."""
    from repro import gahitec, gahitec_schedule, hitec_baseline, hitec_schedule
    from repro.circuits import iscas89

    circuit = iscas89("s386")
    if name == "gahitec_s386":
        driver = gahitec(circuit, seed=seed, backend=BACKEND)
        schedule = gahitec_schedule(
            x=GA_X, num_passes=1, time_scale=None, backtrack_base=BACKTRACKS
        )
    else:
        driver = hitec_baseline(circuit, seed=seed, backend=BACKEND)
        schedule = hitec_schedule(
            num_passes=2, time_scale=None, backtrack_base=BACKTRACKS
        )

    def run():
        result = driver.run(schedule)
        return {
            "circuit": circuit,
            "faults": driver.all_faults,
            "detected": list(result.detected),
            "untestable": result.untestable,
            "vectors": result.test_set,
            "total": result.total_faults,
            "problems": [],
        }

    return run


def prepare_campaign(name, seed, work_dir):
    """Build s820 and a two-worker campaign runner; return the run."""
    from repro.campaign.queue import shard_faults
    from repro.campaign.runner import CampaignRunner
    from repro.campaign.spec import CampaignSpec
    from repro.circuits import iscas89

    circuit = iscas89("s820")
    spec = CampaignSpec(
        circuits=("s820",), seed=seed, passes=1,
        backtracks=BACKTRACKS, backend=BACKEND,
    )
    runner = CampaignRunner(spec, os.path.join(work_dir, "journal.jsonl"),
                            workers=2)

    def run():
        result = runner.run()
        merged = result.circuits["s820"]
        return {
            "circuit": circuit,
            "faults": shard_faults(spec, "s820"),
            "detected": merged.detected,
            "untestable": merged.untestable,
            "vectors": merged.vectors,
            "total": merged.total_faults,
            "problems": (
                [f"{result.items_failed} campaign items failed"]
                if result.items_failed else []
            ),
            "campaign": {
                **{f"campaign.{k}": v for k, v in result.phase_times.items()},
                "campaign.items": result.items_done,
                "campaign.workers": runner.workers,
            },
        }

    return run


WORKLOADS = {
    "gahitec_s386": prepare_s386,
    "hitec_s386": prepare_s386,
    "campaign_s820": prepare_campaign,
}


@contextlib.contextmanager
def speed_probe(samples):
    """Append the seconds of a probe sample every ``PROBE_EVERY_S``."""

    def sample(signum, frame):
        # CPU time, so that waiting behind campaign workers for a CPU
        # does not count; a slow host spell still does
        start = time.thread_time()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i * i % 7
        samples.append(time.thread_time() - start)

    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _cpu() -> float:
    """CPU seconds of this process and every child it has waited for."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace-dir")
    args = parser.parse_args()

    import repro  # noqa: F401  (timed as part of set-up)
    from repro.simulation import codegen

    tracer = None
    if args.trace_dir:
        sys.path.insert(0, HERE)
        import layers

        tracer = layers.install(args.trace_dir)

    work_root = os.path.join(HERE, ".work")
    os.makedirs(work_root, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as work:
        run = WORKLOADS[args.workload](args.workload, args.seed, work)
        t_setup = time.perf_counter()
        if tracer is not None:
            tracer.clear()
        compiled0 = dict(codegen.COMPILE_STATS)
        samples = []
        cpu0 = _cpu()
        t0 = time.perf_counter()
        with speed_probe(samples):
            out = run()
        wall = time.perf_counter() - t0
        cpu = _cpu() - cpu0
        rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                     resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        traced = None
        if tracer is not None:
            traced = {
                "parent": tracer.to_dict(),
                "compile": {k: codegen.COMPILE_STATS[k] - v
                            for k, v in compiled0.items()},
                "workers": layers.worker_dumps(args.trace_dir),
                **out.get("campaign", {}),
            }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": t_setup - T_START,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": rss_kb / 1024.0,
        "speed": (statistics.fmean(PROBE_REF_S / s for s in samples)
                  if samples else None),
        "probe_samples": len(samples),
        "detected": len(out["detected"]),
        "untestable": len(out["untestable"]),
        "vectors": len(out["vectors"]),
        "total": out["total"],
        "fingerprint": fingerprint(out["detected"], out["untestable"],
                                   out["vectors"]),
        "problems": out["problems"]
        + ([] if samples else ["the speed probe took no sample"])
        + check(
            out["circuit"], out["faults"], out["detected"],
            out["untestable"], out["vectors"],
        ),
    }
    if traced is not None:
        record["trace"] = traced
    print(json.dumps(record))


if __name__ == "__main__":
    main()
