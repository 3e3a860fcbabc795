"""Compare the benchmark results of two commits.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the .bench_results/ files that run.py wrote for one
commit. For every workload this prints the median of each metric on both
sides; marks an end-to-end metric that got worse by more than its bound in
BENCHMARK.json; marks more failed operations; and prints "iterate path
changed" when the exact counters of any seed differ between the commits.
Exits 1 if anything was marked.
"""

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory):
    """{(workload, trace): {seed: result document}}"""
    runs = {}
    for path in sorted(Path(directory).glob("*-seed*-trace*.json")):
        doc = json.loads(path.read_text())
        runs.setdefault((doc["workload"], doc["trace"]), {})[doc["seed"]] = doc
    return runs


def compare(base, new, bounds):
    marked = False
    for key in sorted(set(base) | set(new)):
        b, n = base.get(key, {}), new.get(key, {})
        print(f"== {key[0]} trace {key[1]}: {len(b)} base runs, {len(n)} new runs")
        if not b or not n:
            continue
        for name in b[min(b)]["metrics"]:
            bv = [d["metrics"][name]["value"] for d in b.values() if name in d["metrics"]]
            nv = [d["metrics"][name]["value"] for d in n.values() if name in d["metrics"]]
            if not nv:
                print(f"  {name}: missing in new runs")
                marked = True
                continue
            bm, nm = statistics.median(bv), statistics.median(nv)
            change = (nm - bm) / abs(bm) if bm else 0.0
            note = ""
            if name in bounds:
                better, bound = bounds[name]
                worse = change if better == "lower" else -change
                note = "WORSE beyond bound" if worse > bound else "within bound"
                marked |= worse > bound
            print(f"  {name:36s} {bm:14.6g} -> {nm:14.6g}  {change:+7.1%}  {note}")
        failed = [sum(d["failed"] for d in side.values()) for side in (b, n)]
        if failed[1] > failed[0]:
            print(f"  MORE FAILED OPERATIONS: {failed[0]} -> {failed[1]}")
            marked = True
        for seed in sorted(set(b) & set(n)):
            if b[seed]["counters"] != n[seed]["counters"]:
                print(f"  iterate path changed (seed {seed}): "
                      f"{json.dumps(b[seed]['counters'])} -> {json.dumps(n[seed]['counters'])}")
                marked = True
    return marked


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    return int(compare(load(argv[0]), load(argv[1]), bounds))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
