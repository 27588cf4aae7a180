"""Steadiness check of the benchmark itself.

    python3 bench/steadiness.py [--seeds 10] [--first-seed 1] [--workload NAME ...]

For each workload it runs ``run.py`` once per seed (untraced) and reports,
for every end-to-end metric, the spread of its values -- the distance
between the first and third quartiles as a share of the median -- against
the metric's bound in BENCHMARK.json, and whether the share of failed
operations is the same in every run.  It then makes two traced runs with
the first seed and confirms that every count, and the attempted and failed
numbers per round, repeat exactly.  Exits 1 when a spread other than
``setup_s`` exceeds its bound, a failed share differs or a count differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable if a == "python3" else a for a in spec["command"]]
    cmd += ["--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workload", nargs="*", choices=names, default=names)
    args = p.parse_args(argv)
    seeds = range(args.first_seed, args.first_seed + args.seeds)

    ok = True
    for wl in args.workload:
        results = [run(spec, wl, s, 0) for s in seeds]
        print(f"== {wl}: seeds {seeds.start}..{seeds.stop - 1}", flush=True)
        print(f"   correct in every run: {all(r['correct'] for r in results)}")
        shares = {Fraction(r["failed"], r["attempted"]) for r in results}
        print(f"   failed share: {sorted(str(s) for s in shares)}")
        ok &= len(shares) == 1 and all(r["correct"] for r in results)
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            sp = spread(vals)
            within = sp <= m["bound"] / 3
            if m["name"] != "setup_s":
                ok &= sp <= m["bound"]
            print(f"   {m['name']:<14} median {statistics.median(vals):<12.6g} "
                  f"spread {sp:6.3f}  bound {m['bound']:.2f}  "
                  f"{'below a third' if within else 'ABOVE A THIRD'} of bound")

        traced = [run(spec, wl, seeds.start, 1) for _ in range(2)]
        counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
        same = all(traced[0]["metrics"][c]["value"] == traced[1]["metrics"][c]["value"]
                   for c in counts)
        rounds_equal = (Fraction(traced[0]["failed"], traced[0]["attempted"])
                        == Fraction(traced[1]["failed"], traced[1]["attempted"]))
        print(f"   traced counts repeat exactly: {same}; failed share repeats: "
              f"{rounds_equal}; overhead "
              f"{[round(t['metrics']['trace.overhead']['value'], 3) for t in traced]}")
        ok &= same and rounds_equal
    print("STEADY" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
