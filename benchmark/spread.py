#!/usr/bin/env python3
"""Run every workload N times, each with another seed, and print for each
end-to-end metric the interquartile spread as a share of the median, the
way the benchmark driver computes it. Run from the repository root:

    python3 benchmark/spread.py [runs] [first_seed]

A spread above a third of the metric's bound is flagged with '!'.
"""
import json
import statistics
import subprocess
import sys
import time

runs = int(sys.argv[1]) if len(sys.argv) > 1 else 10
first_seed = int(sys.argv[2]) if len(sys.argv) > 2 else 1000

with open("BENCHMARK.json") as f:
    manifest = json.load(f)

walls = []
for workload in manifest["workloads"]:
    values = {m["name"]: [] for m in manifest["end_to_end"]}
    raw = {}
    for i in range(runs):
        cmd = manifest["command"] + [
            "--workload", workload["name"], "--seed", str(first_seed + i),
            "--seconds", str(manifest["run_seconds"]), "--trace", "0",
        ]
        start = time.monotonic()
        run = subprocess.run(cmd, check=True, capture_output=True, text=True)
        walls.append(time.monotonic() - start)
        out = run.stdout
        # "host: ... raw cmps_per_s X job_s_p50 Y ...": the readings before
        # they were scaled to quiet-host seconds.
        words = run.stderr.split("raw", 1)[1].split()
        for name, value in zip(words[::2], words[1::2]):
            raw.setdefault(name, []).append(float(value))
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"{workload['name']} seed {first_seed + i}: {result}")
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
    print(f"== {workload['name']} ({runs} seeds from {first_seed})")
    for m in manifest["end_to_end"]:
        v = values[m["name"]]
        q1, _, q3 = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        spread = (q3 - q1) / med
        flag = "!" if spread > m["bound"] / 3 else " "
        line = (f"{flag} {m['name']:<26} median {med:<14.6g} spread {spread:7.2%}  bound {m['bound']:.0%}"
                f"  min {min(v):.6g} max {max(v):.6g}")
        if m["name"] in raw:
            q1, _, q3 = statistics.quantiles(raw[m["name"]], n=4)
            line += f"  (unscaled: spread {(q3 - q1) / statistics.median(raw[m['name']]):.2%})"
        print(line)
# The driver makes 4 + 22 × workloads runs and caps their total.
print(f"runs took {statistics.median(walls):.1f} s (median), {max(walls):.1f} s (longest): "
      f"{(4 + 22 * len(manifest['workloads'])) * statistics.mean(walls):.0f} s for the driver's runs")
