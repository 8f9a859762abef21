#!/usr/bin/env python3
"""Run the frame-path benchmark over several seeds and summarise it.

Usage, from the repository root:

    python3 perfbench/repeat.py [--workloads wcdma,ofdm,mixed_gang]
        [--seeds 1,2,3 | --count 10 --first-seed 1] [--trace 0|1]
        [--seconds S] [--out perfbench/results/<name>.json]

Each run is `perfbench/run.py`; nothing is copied by hand. For every
workload and metric it reports min, quartiles, median and max over the
runs, and for end-to-end metrics the spread (q3 - q1) / median against
the metric's bound in BENCHMARK.json, using `statistics.quantiles(values,
n=4)` as the acceptance check does. With --out the summary is written as
JSON together with its provenance: host, nproc, commit, rustc version and
the seeds. Every run's deterministic fingerprint is kept, so two runs of
one seed can be checked for identical simulated statistics.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    elapsed = time.monotonic() - t0
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    extra = {"elapsed_s": elapsed}
    for line in lines:
        if line.startswith("fingerprint: "):
            extra["fingerprint"] = line.split()[1]
        elif line.startswith("provenance: "):
            extra["provenance"] = json.loads(line[len("provenance: "):])
        elif line.startswith("paced latency"):
            p50, p99 = re.findall(r"p(?:50|99) ([0-9.]+) ms", line)
            extra["paced_latency_ms"] = {"p50": float(p50), "p99": float(p99)}
        elif line.startswith("diagnostics: "):
            extra["diagnostics"] = line[len("diagnostics: "):]
        elif line.startswith("gate: "):
            extra.setdefault("gate", []).append(line[len("gate: "):])
    return result, extra


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"min": min(values), "q1": q1, "median": statistics.median(values), "q3": q3,
            "max": max(values), "spread": (q3 - q1) / statistics.median(values)
            if statistics.median(values) else None}


def capture(cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True).stdout.strip()
    except OSError:
        return "unknown"


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds")
    ap.add_argument("--count", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out")
    args = ap.parse_args()
    seeds = ([int(s) for s in args.seeds.split(",")] if args.seeds
             else list(range(args.first_seed, args.first_seed + args.count)))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {
        "provenance": {
            "host": platform.node(),
            "nproc": os.cpu_count(),
            "commit": capture(["git", "rev-parse", "HEAD"]) or "unknown",
            "rustc": capture(["rustc", "--version"]) or "unknown",
            "seeds": seeds,
            "seconds": args.seconds,
            "trace": args.trace,
        },
        "workloads": {},
    }
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            result, extra = run_once(workload, seed, args.seconds, args.trace)
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         **extra, "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"{extra['elapsed_s']:.1f}s fingerprint={extra.get('fingerprint')}", flush=True)
            ok &= bool(result["correct"])
        names = list(runs[0]["metrics"])
        units = {k: v["unit"] for k, v in result["metrics"].items()}
        metrics = {}
        for name in names:
            s = summary([r["metrics"][name] for r in runs])
            s["unit"] = units[name]
            if name in bounds and args.trace == 0:
                s["bound"] = bounds[name]
                s["within_third_of_bound"] = name == "setup_s" or (
                    s["spread"] is not None and s["spread"] < bounds[name] / 3)
            metrics[name] = s
            flag = ""
            if "bound" in s:
                flag = "ok" if s["within_third_of_bound"] else "WIDE"
            spread = f"{s['spread']:.4f}" if s["spread"] is not None else "n/a"
            print(f"  {name:<48} median {s['median']:<14.6g} spread {spread:<8} {flag}")
        ungated = {}
        if all("paced_latency_ms" in r for r in runs):
            for q in ("p50", "p99"):
                ungated[f"latency_{q}_ms"] = summary([r["paced_latency_ms"][q] for r in runs])
                print(f"  {'latency_' + q + '_ms (not gated)':<48} median "
                      f"{ungated['latency_' + q + '_ms']['median']:<14.6g} spread "
                      f"{ungated['latency_' + q + '_ms']['spread']:.4f}")
        report["workloads"][workload] = {"metrics": metrics, "paced_latency_not_gated": ungated,
                                         "runs": runs}
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
