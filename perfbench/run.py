"""Benchmark for the stepmask pipeline.

    python3 perfbench/run.py --workload desk_pipeline --seed 1 --seconds 20 --trace 0

Run from the root of a source tree; the library is imported from `src/`.
Each run is one process, a closed loop with one caller: it sets up, then
repeats the workload's stages back to back until `--seconds` have passed
(and at least twice, so every repeat can be checked against the first). With
`--trace 0` it prints the end-to-end metrics of BENCHMARK.json; with
`--trace 1` it mixes untraced and traced passes and prints the
per-layer metrics. The last line of stdout is the result object; the full
record, with the machine and environment, goes to `.perfbench/results/`.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: one BLAS thread measured no slower than two at
# d=768 and faster at d=64, and it keeps runs on a 2-CPU machine comparable.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3
MIN_PASSES = 2
IMPORT_PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import stepmask"

# Counts that must repeat exactly between passes and runs at one seed.
EXACT_COUNTS = (
    "model.forward.calls",
    "model.forward.tokens",
    "training.optimizer_step.bytes_computed",
    "training.optimizer_step.useful_fraction",
    "downstream.forward_calls_per_instance",
    "benchmarks.build_benchmark_set.yield",
    "training.sample_mask.empty",
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def median(values):
    return float(statistics.median(values))


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted([*SRC.glob("stepmask/*.py"), *HERE.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def import_seconds() -> float:
    """Process start plus `import stepmask`, in a fresh interpreter."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return median(times)


def rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def end_to_end(setup_s: float, setup_ledgers, ledgers) -> dict:
    """Per-pass throughputs; a stage the measured loop leaves to set-up
    (probe_eval's pre-training and full-mode fine-tune) is read from there."""

    def per_pass(stage, work_key, scale=1.0):
        source = ledgers if any(led.time.get(stage) for led in ledgers) else setup_ledgers
        repeats = [r for led in source for r in led.rates.get(stage, ())]
        if repeats:
            return median(repeats) * scale
        return median([rate(led.work[work_key] * scale, led.time[stage]) for led in source])

    losses = [led.final_loss for led in ledgers if led.final_loss is not None]
    if not losses:
        losses = [led.final_loss for led in setup_ledgers if led.final_loss is not None]
    return {
        "setup_s": setup_s,
        "wall_s": median([led.wall_s for led in ledgers]),
        "pretrain_videos_per_s": per_pass("pretrain", "pretrain_videos"),
        "finetune_instances_per_s": per_pass("finetune", "finetune_instances"),
        "probe_instances_per_s": per_pass("probe", "probe_instances"),
        "eval_instances_per_s": per_pass("eval", "eval_instances"),
        "synth_instances_per_s": per_pass("synth", "synth_instances"),
        "corpus_videos_per_s": per_pass("corpus", "corpus_videos"),
        "checkpoint_mb_per_s": per_pass("checkpoint", "checkpoint_bytes", 1e-6),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "eval_accuracy": median([statistics.fmean(led.accuracies or [0.0]) for led in ledgers]),
        "pretrain_final_loss": median(losses or [0.0]),
    }


def per_layer(tracer_mod, tracer, kinds, windows, counts, untraced, traced) -> tuple[dict, dict]:
    """Per-layer medians over traced passes, and the exact counts of each
    pass (which must agree)."""
    per_pass = []
    for (first, last), cnt in zip(windows, counts):
        name_id, start, end, parent = tracer.arrays(first, last)
        own, calls = tracer_mod.self_times(name_id, start, end, parent, len(tracer.names))
        own_by = dict(zip(tracer.names, own.tolist()))
        calls_by = dict(zip(tracer.names, calls.tolist()))
        steps = tracer_mod.step_intervals_ms(tracer, name_id, start, end, parent)
        m = {}
        for layer in tracer_mod.LAYERS:
            m[f"{layer}.self_s"] = sum(v for k, v in own_by.items() if k.startswith(layer + "."))
        for name in (
            "training.optimizer_step", "model.backward", "model.forward",
            "weaklabel.weak_label_distribution", "weaklabel.embed_text",
        ):
            m[f"{name}.calls"] = calls_by.get(name, 0)
        m["downstream.predict.calls"] = calls_by.get("downstream.predict", 0)
        m["training.sample_mask.calls"] = calls_by.get("training.sample_mask", 0)
        for name in (
            "training.optimizer_step", "model.backward", "model.forward", "training.batch_loss",
            "model.init_params", "model.clone_params", "model.save_checkpoint",
            "model.load_checkpoint", "corpus.generate_corpus", "corpus.sample_video",
            "corpus.save_corpus", "corpus.load_corpus", "corpus.split_corpus",
            "weaklabel.weak_label_distribution", "weaklabel.embed_text",
            "benchmarks.build_benchmark_set", "benchmarks.write_benchmark_jsonl",
            "benchmarks.read_benchmark_jsonl",
            *(f"downstream.{fn}.{kind}" for fn in ("finetune", "evaluate") for kind in kinds),
        ):
            m[f"{name}.s"] = own_by.get(name, 0.0)
        elements = cnt.get("training.optimizer_step.elements", 0)
        built = cnt.get("benchmarks.build_benchmark_set.instances", 0)
        skipped = sum(cnt.get(f"benchmarks.make_{k}.raised", 0) for k in ("mistake_step", "mistake_order"))
        ft_instances = cnt.get("downstream.finetune.instances", 0)
        m.update({
            "model.forward.tokens": cnt.get("model.forward.tokens", 0),
            "training.optimizer_step.bytes_computed": cnt.get("training.optimizer_step.bytes_computed", 0),
            "training.optimizer_step.useful_fraction": (
                cnt.get("training.optimizer_step.useful_elements", 0) / elements if elements else 0.0
            ),
            "downstream.forward_calls_per_instance": (
                cnt.get("downstream.finetune.forward_calls", 0) / ft_instances if ft_instances else 0.0
            ),
            "model.save_checkpoint.bytes": cnt.get("model.save_checkpoint.bytes", 0),
            "corpus.save_corpus.bytes": cnt.get("corpus.save_corpus.bytes", 0),
            "benchmarks.build_benchmark_set.instances": built,
            "benchmarks.build_benchmark_set.yield": built / (built + skipped) if built + skipped else 0.0,
            "training.sample_mask.empty": cnt.get("training.sample_mask.empty", 0),
            "training.step_ms.p50": float(np.percentile(steps, 50)) if steps.size else 0.0,
            "training.step_ms.p90": float(np.percentile(steps, 90)) if steps.size else 0.0,
            "training.step_ms.samples": int(steps.size),
            "model.params.count": tracer.gauges.get("model.params.count", 0.0),
            "model.params.arrays": tracer.gauges.get("model.params.arrays", 0.0),
        })
        per_pass.append(m)
    exact = [{k: m[k] for k in EXACT_COUNTS} for m in per_pass]
    metrics = {k: median([m[k] for m in per_pass]) for k in per_pass[0]}
    for k in EXACT_COUNTS:
        metrics[k] = exact[0][k]
    metrics["trace_overhead_s"] = median([led.wall_s for led in traced]) - median(
        [led.wall_s for led in untraced]
    )
    return metrics, exact


def baseline_figures(tracer, windows) -> dict:
    """Per pre-training video: forward plus loss, backward and optimizer time
    (inclusive, direct children of `training.pretrain`), and the optimizer's
    share of pre-training, from the last traced pass."""
    first, last = windows[-1]
    name_id, start, end, parent = tracer.arrays(first, last)
    names = np.array(tracer.names)[name_id]
    dur = end - start
    under = np.zeros(len(dur), dtype=bool)
    has_parent = parent >= 0
    under[has_parent] = names[parent[has_parent]] == "training.pretrain"
    pretrain_s = float(dur[names == "training.pretrain"].sum())
    out = {}
    for label, name in (
        ("forward_loss_ms", "training.batch_loss"),
        ("backward_ms", "model.backward"),
        ("optimizer_ms", "training.optimizer_step"),
    ):
        sel = under & (names == name)
        out[label] = float(dur[sel].mean() * 1e3) if sel.any() else 0.0
        if name == "training.optimizer_step":
            out["optimizer_share_of_pretrain"] = float(dur[sel].sum() / pretrain_s) if pretrain_s else 0.0
    return out


def load_reference(path: Path):
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        return None


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "stepmask" / "__init__.py").is_file():
        print(f"error: no stepmask sources under {SRC}", file=sys.stderr)
        return 2
    bench_path = ROOT / "BENCHMARK.json"
    declared = json.loads(bench_path.read_text())
    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[group]}

    sys.path.insert(0, str(SRC))
    import tracer as tracer_mod
    import workloads

    spec = workloads.SPECS.get(args.workload)
    if spec is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.SPECS)}",
              file=sys.stderr)
        return 2
    np.seterr(over="raise", invalid="raise", divide="raise")  # as the CLI does
    env = environment(args)
    print(json.dumps({"environment": env}), flush=True)
    workdir = OUT / "work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        record = run(args, spec, workloads, tracer_mod, str(workdir), env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = record["metrics"]
    if not record["correct"]:
        # A failed run may not reach every stage; it reports 0 for those.
        metrics = {k: metrics.get(k, 0.0) for k in units}
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json {group}: "
            f"extra {sorted(set(metrics) - set(units))}, missing {sorted(set(units) - set(metrics))}"
        )
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-s{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )
    for err in record["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


def run(args, spec, workloads, tracer_mod, workdir: str, env: dict) -> dict:
    key = f"{args.workload}-s{args.seed}-{env['source_sha256'][:16]}"
    ref_path = OUT / "reference" / f"{key}.json"
    stored = load_reference(ref_path)
    reference = dict(stored["digests"]) if stored else {}
    errors: list[str] = []
    attempted = failed = 0

    def account(led):
        nonlocal attempted, failed
        led.compare(reference)
        for name, digest in led.digests.items():
            reference.setdefault(name, digest)
        attempted += led.attempted
        failed += led.failed
        errors.extend(led.errors)

    def guarded(led, fn, *a):
        try:
            return fn(led, *a)
        except workloads.LIBRARY_ERRORS as exc:
            led.attempted += 1
            led.failed += 1
            led.errors.append(f"{fn.__name__}: {type(exc).__name__}: {exc}")
            return None

    # --- set-up, repeated; the median is reported --------------------------
    import_s = import_seconds()
    setup_times, setup_ledgers, inputs = [], [], None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        led = workloads.Ledger()
        built = guarded(led, workloads.setup, spec, args.seed, workdir)
        setup_times.append(time.perf_counter() - t0)
        setup_ledgers.append(led)
        account(led)
        inputs = inputs or built
    setup_s = import_s + median(setup_times)
    if inputs is None:
        return {"environment": env, "correct": False, "attempted": attempted, "failed": failed,
                "errors": errors, "metrics": {}}

    # --- measured loop ------------------------------------------------------
    tracer = tracer_mod.Tracer() if args.trace else None
    passes, untraced, traced, windows, counts = [], [], [], [], []
    t_start = time.perf_counter()
    while True:
        gc.collect()  # every pass starts from the same heap, without the last pass's garbage
        # Traced runs go untraced, traced, traced, then alternate.
        tracing = bool(args.trace and untraced) and (
            len(traced) < MIN_PASSES or len(traced) <= len(untraced)
        )
        if tracing:
            before = dict(tracer.counts)
            first = tracer.span_count()
            tracer.install()
        led = workloads.Ledger()
        try:
            guarded(led, workloads.iteration, spec, args.seed, workdir, inputs)
        finally:
            if tracing:
                tracer.uninstall()
        if tracing:
            windows.append((first, tracer.span_count()))
            counts.append({k: v - before.get(k, 0) for k, v in tracer.counts.items()})
            traced.append(led)
        else:
            untraced.append(led)
        # Untraced, and outside the pass's stage times.
        guarded(led, workloads.repeat_light_stages, spec, args.seed, workdir)
        passes.append({"traced": tracing, "wall_s": led.wall_s, "time": dict(led.time),
                       "work": dict(led.work), "rates": dict(led.rates), "errors": led.errors})
        account(led)
        enough = len(traced) >= MIN_PASSES if args.trace else len(untraced) >= MIN_PASSES
        if enough and time.perf_counter() - t_start >= args.seconds:
            break

    record = {"environment": env, "setup_s": {"import": import_s, "build": setup_times},
              "passes": passes}
    if args.trace:
        metrics, exact = per_layer(tracer_mod, tracer, workloads.ALL_KINDS, windows, counts, untraced, traced)
        metrics["failed_fraction"] = failed / attempted
        counts_path = OUT / "reference" / f"{key}.counts.json"
        stored_counts = load_reference(counts_path)
        others = [(f"traced pass {i + 2}", c) for i, c in enumerate(exact[1:])]
        if stored_counts:
            others.append(("an earlier run at this seed", stored_counts))
        for label, c in others:
            if c != exact[0]:
                errors.append(f"exact counts of {label} differ from the first traced pass: "
                              f"{c} != {exact[0]}")
        record["exact_counts"] = exact
        record["baseline_figures"] = baseline_figures(tracer, windows)
        tracer.save(OUT / "traces" / f"{args.workload}-s{args.seed}.npz")
        if stored_counts is None and not errors:
            counts_path.parent.mkdir(parents=True, exist_ok=True)
            counts_path.write_text(json.dumps(exact[0], sort_keys=True))
    else:
        complete = [led for led in untraced if not led.errors] or untraced
        metrics = end_to_end(setup_s, setup_ledgers, complete)
    if stored is None and not errors:
        ref_path.parent.mkdir(parents=True, exist_ok=True)
        ref_path.write_text(json.dumps({"digests": reference}, sort_keys=True))
    record.update(
        metrics=metrics, errors=errors, attempted=attempted, failed=failed,
        correct=failed == 0 and not errors,
    )
    return record


if __name__ == "__main__":
    sys.exit(main())
