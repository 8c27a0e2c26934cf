"""Compare two saved benchmark results metric by metric.

Usage, from the repository root::

    python3 perfbench/compare.py BASE.json NEW.json

Both files come from ``run.py --out``.  The comparison is refused (exit 2)
when either result failed its output check, when the two ran on hosts
with different core counts (campaign timings depend on how many workers
actually run side by side), or when they are of different workloads or
trace modes.  Otherwise each metric is printed with
its change, and the exit code is 1 when an end-to-end metric got worse
than the bound ``BENCHMARK.json`` fixes for it.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(base_path: str, new_path: str) -> int:
    with open(base_path, encoding="utf-8") as handle:
        base = json.load(handle)
    with open(new_path, encoding="utf-8") as handle:
        new = json.load(handle)
    for label, doc in (("base", base), ("new", new)):
        result = doc["result"]
        if not result["correct"] or result["failed"]:
            print(f"refused: {label} result failed {result['failed']} of "
                  f"{result['attempted']} operations")
            return 2
    for key in ("workload", "trace"):
        if base[key] != new[key]:
            print(f"refused: {key} {base[key]!r} != {new[key]!r}")
            return 2
    if base["host"]["nproc"] != new["host"]["nproc"]:
        print(f"refused: results from {base['host']['nproc']} and "
              f"{new['host']['nproc']} cores are not comparable")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    rules = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    worse = 0
    for name, old in base["result"]["metrics"].items():
        value = new["result"]["metrics"][name]["value"]
        change = (value - old["value"]) / old["value"] if old["value"] else 0.0
        rule = rules.get(name, {})
        loss = change if rule.get("better") == "lower" else -change
        flag = ""
        if "bound" in rule and loss > rule["bound"]:
            flag = f"  WORSE than bound {rule['bound']}"
            worse += 1
        print(f"{name:34s} {old['value']:12.4f} -> {value:12.4f} "
              f"{old['unit']:6s} {100 * change:+7.2f}%{flag}")
    return 1 if worse else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        print(__doc__)
        sys.exit(2)
    sys.exit(main(sys.argv[1], sys.argv[2]))
