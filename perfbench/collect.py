"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --workloads desk_pipeline,probe_eval --seeds 1-10 \\
        --out perfbench/BENCH_baseline.json [--trace]

For every workload and metric it reports the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the spread: the distance
between the quartiles as a share of the median. It exits 1 when an
end-to-end spread other than `setup_s`'s exceeds the metric's bound in
BENCHMARK.json, and marks spreads above a third of the bound (the margin
aimed for). Runs go one after another, each in its own process.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    record = ROOT / ".perfbench" / "results" / f"{workload}-s{seed}-trace{trace}.json"
    result["record"] = json.loads(record.read_text())
    return result


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "n": len(values), "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--out")
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    trace = int(args.trace)
    summary = {"trace": trace, "run_seconds": bench["run_seconds"], "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            res = run_once(workload, seed, bench["run_seconds"], trace)
            runs.append(res)
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}", file=sys.stderr)
        metrics = {}
        for name in runs[0]["metrics"]:
            metrics[name] = summarise([r["metrics"][name]["value"] for r in runs])
            metrics[name]["unit"] = runs[0]["metrics"][name]["unit"]
            if name in bounds:
                spread, bound = metrics[name]["spread"], bounds[name]
                ok = ok and (spread <= bound or name == "setup_s")
                flag = ("  <-- above its bound" if spread > bound
                        else "  (above a third of its bound)" if spread > bound / 3 else "")
                print(f"{workload:14s} {name:28s} median {metrics[name]['median']:12.5g} "
                      f"spread {metrics[name]['spread']:.4f} (bound {bounds[name]}){flag}")
        entry = {
            "environment": runs[0]["record"]["environment"],
            "seeds": seed_list(args.seeds),
            "all_correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
        }
        if trace:
            entry["baseline_figures"] = {
                k: summarise([r["record"]["baseline_figures"][k] for r in runs])
                for k in runs[0]["record"]["baseline_figures"]
            }
        entry["environment"].pop("seed", None)
        summary["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
