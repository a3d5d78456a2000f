"""The three benchmark workloads and the pipeline they share.

Every workload runs the stages the `stepmask` CLI chains, through the same
library functions and in the same order: generate, save and load a corpus and
split it; build, write and read benchmark sets; pre-train; save and load the
checkpoint; fine-tune each kind, save and load the result and evaluate it on
the test set. The workload seed is passed as every sub-seed. Each stage is
timed, the work it did is counted, and its outputs are digested so that a
repeat at the same seed can be checked bit for bit.

Why these three (each layer carries most of the load in one of them):
- desk_pipeline: the path users and acceptance criterion 9 take. Small
  matrices, so per-call overhead, the optimizer step and backward dominate,
  and corpus and weak-label work is visible.
- paper_width: the paper's width (d=768) on a dozen videos. The optimizer's
  memory traffic, the backward GEMMs, peak memory and checkpoint I/O
  dominate; corpus, synthesis and Python overhead are negligible.
- probe_eval: linear probes and evaluation over large benchmark sets on a
  backbone pre-trained during set-up. The measured loop never runs backward,
  so it is the read path beside desk_pipeline's write path.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from stepmask import benchmarks, corpus, downstream, model, training
from stepmask.errors import StepmaskError

# Bound here, before any tracing starts: the tracer wraps functions only at
# `stepmask` module attributes, so the benchmark's own output checks keep the
# unwrapped originals and are charged to no layer.
from stepmask.downstream import trainable_names
from stepmask.model import checkpoint_digest, named_arrays, params_digest

ALL_KINDS = benchmarks.KINDS
# Acceptance criterion 9's corpus, with the validation tenth (which no stage
# reads) moved to the test split: 160 videos to train on, 40 to test.
CRITERION_9_CORPUS = dict(
    num_tasks=10, steps_per_task=6, vocab_size=60, videos_per_task=20,
    feature_noise_sigma=0.1, asr_noise=0.0, feature_dim=32, split_ratios=(0.8, 0.0, 0.2),
)


@dataclass(frozen=True)
class Spec:
    name: str
    corpus: dict
    width: str  # "desk" (desk_preset, d=64) or "paper" (full_preset, d=768)
    pretrain_epochs: int
    sets: dict  # kind -> (train, test) instances per video
    full_kinds: tuple
    full_epochs: int
    probe_kinds: tuple
    probe_epochs: int
    # Times the short corpus and synthesis stages run per pass. Only the first
    # run is part of the pass; the others are extra samples of those stages'
    # rates, run untraced, and each must reproduce the first one's outputs.
    light_repeats: int = 1
    lr: float = 1e-3  # AdamW rate for pre-training and full-mode fine-tuning
    probe_lr: float = 1e-2  # AdamW rate for linear probes, which train a head only
    # Pre-train the backbone and run the full-mode fine-tunes in set-up, so
    # the measured loop uses the model read-only.
    backbone_in_setup: bool = False


SPECS = {
    spec.name: spec
    for spec in (
        Spec(
            name="desk_pipeline",
            corpus=CRITERION_9_CORPUS,
            width="desk",
            pretrain_epochs=2,
            sets={kind: (1, 10) if kind.startswith("mistake") else (1, 1) for kind in ALL_KINDS},
            light_repeats=6,
            full_kinds=ALL_KINDS,
            full_epochs=1,
            # One probe epoch per kind as well, so that probe throughput rests
            # on more than a second of work here too.
            probe_kinds=ALL_KINDS,
            probe_epochs=1,
        ),
        Spec(
            name="paper_width",
            # 8 videos to train on and 16 to test: evaluation is forward-only
            # and cheap next to training at this width. Low clip noise and a
            # width-scaled learning rate keep accuracy and loss from swinging
            # between seeds.
            corpus=dict(
                num_tasks=4, steps_per_task=6, vocab_size=24, videos_per_task=6,
                feature_noise_sigma=0.02, asr_noise=0.0, feature_dim=768,
                split_ratios=(1 / 3, 0.0, 2 / 3),
            ),
            width="paper",
            pretrain_epochs=1,
            sets={kind: (1, 1) for kind in ALL_KINDS},  # what gen-benchmarks builds
            light_repeats=20,
            full_kinds=("proc_rec",),
            full_epochs=1,
            probe_kinds=("proc_rec",),
            probe_epochs=4,
            lr=3e-5,
            probe_lr=1e-3,
        ),
        Spec(
            name="probe_eval",
            corpus=CRITERION_9_CORPUS,
            width="desk",
            # A 4-epoch backbone: probe accuracies on a weaker one swing more
            # between seeds.
            pretrain_epochs=4,
            sets={
                kind: {"mistake_step": (16, 10), "mistake_order": (6, 10)}.get(kind, (1, 1))
                for kind in ALL_KINDS
            },
            full_kinds=("proc_rec",),
            full_epochs=1,
            light_repeats=3,
            probe_kinds=ALL_KINDS,
            probe_epochs=2,
            backbone_in_setup=True,
        ),
    )
}

# Failures the library reports for a bad run (DivergenceError is a
# StepmaskError); anything else is a bug in the benchmark and ends it.
LIBRARY_ERRORS = (StepmaskError, FloatingPointError)


@dataclass
class Ledger:
    """Timings, work counts, output digests and failures of one pass."""

    time: dict = field(default_factory=lambda: defaultdict(float))
    work: dict = field(default_factory=lambda: defaultdict(float))
    # Rates of single runs of a short, uniform stage (the pass's own run and
    # its extra repeats), so one burst of machine noise moves one sample
    # rather than the whole pass.
    rates: dict = field(default_factory=lambda: defaultdict(list))
    last: float = 0.0
    digests: dict = field(default_factory=dict)
    accuracies: list = field(default_factory=list)
    final_loss: float | None = None
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    @contextmanager
    def timed(self, stage: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.last = time.perf_counter() - t0
            self.time[stage] += self.last

    def op(self, name: str, digest: str, ok: bool = True):
        self.attempted += 1
        self.digests[name] = digest
        if not ok:
            self.failed += 1
            self.errors.append(f"{name}: output check failed")

    def compare(self, reference: dict):
        """Count every output that differs from the reference digest."""
        for name, digest in self.digests.items():
            want = reference.get(name)
            if want is not None and want != digest:
                self.failed += 1
                self.errors.append(f"{name}: digest {digest[:16]} != reference {want[:16]}")

    @property
    def wall_s(self) -> float:
        return sum(self.time.values())


def corpus_config(spec: Spec, seed: int) -> corpus.CorpusConfig:
    return corpus.CorpusConfig(seed=seed, **spec.corpus)


def model_config(spec: Spec, cfg: corpus.CorpusConfig):
    if spec.width == "paper":
        return model.full_preset(s=cfg.vocab_size, num_tasks=cfg.num_tasks)
    return model.desk_preset(d_in=cfg.feature_dim, s=cfg.vocab_size, num_tasks=cfg.num_tasks)


def _losses_digest(report) -> tuple[str, bool]:
    losses = [e.loss for e in report.epochs]
    return json.dumps([float(x).hex() for x in losses]), bool(np.all(np.isfinite(losses)))


def _arrays_equal(a, b, names=None) -> bool:
    return all(
        np.array_equal(x, y)
        for (name, x), (_, y) in zip(named_arrays(a), named_arrays(b))
        if names is None or name in names
    )


def run_corpus(led: Ledger, spec: Spec, seed: int, workdir: str):
    cfg = corpus_config(spec, seed)
    out_dir = os.path.join(workdir, "corpus")
    with led.timed("corpus"):
        generated = corpus.generate_corpus(cfg)
        corpus.save_corpus(generated, out_dir)
        loaded = corpus.load_corpus(out_dir)
    led.rates["corpus"].append(len(generated.videos) / led.last)
    with led.timed("split"):
        train, _, test = corpus.split_corpus(loaded.videos, cfg.split_ratios, seed)
    led.work["corpus_videos"] += len(generated.videos)
    digest = loaded.digest()
    ok = digest == generated.digest() == led.digests.get("corpus", digest)
    led.op("corpus", digest, ok=ok and len(train) > 0 and len(test) > 0)
    return loaded, train, test


def run_synthesis(led: Ledger, spec: Spec, seed: int, workdir: str, data, train, test):
    sets = {}
    seconds, instances = 0.0, 0
    for kind, per_video in spec.sets.items():
        for split, videos, ipv in (("train", train, per_video[0]), ("test", test, per_video[1])):
            path = os.path.join(workdir, f"{kind}.{split}.jsonl")
            set_seed = benchmarks.derive_seed(seed, f"{kind}/{split}", 0)
            with led.timed("synth"):
                built = benchmarks.build_benchmark_set(
                    kind, videos, data, set_seed, source_split=split, instances_per_video=ipv,
                )
                benchmarks.write_benchmark_jsonl(built, path)
                read = benchmarks.read_benchmark_jsonl(path, data, source_split=split)
            led.work["synth_instances"] += len(built)
            seconds += led.last
            instances += len(built)
            name = f"synth:{kind}.{split}"
            ok = read.digest == built.digest == led.digests.get(name, built.digest)
            led.op(name, read.digest, ok=ok and len(read) > 0)
            sets[kind, split] = read
    led.rates["synth"].append(instances / seconds)
    return sets


def repeat_light_stages(led: Ledger, spec: Spec, seed: int, workdir: str):
    """Run the corpus and synthesis stages `light_repeats - 1` more times
    after a pass. Their rates join the pass's samples; their time stays out
    of `led.time` (so out of `wall_s`), and every output must equal the
    pass's own."""
    for _ in range(spec.light_repeats - 1):
        extra = Ledger(digests=dict(led.digests))
        data, train, test = run_corpus(extra, spec, seed, workdir)
        run_synthesis(extra, spec, seed, workdir, data, train, test)
        for stage in ("corpus", "synth"):
            led.rates[stage].extend(extra.rates[stage])
        led.attempted += extra.attempted
        led.failed += extra.failed
        led.errors.extend(extra.errors)


def run_pretrain(led: Ledger, spec: Spec, seed: int, data, train, mcfg):
    with led.timed("pretrain"):
        params, report = training.pretrain(
            train, data.vocab, mcfg, training.MaskSpec(ratio=0.3, seed=seed),
            "sc", training.OptimizerConfig(kind="adamw", lr=spec.lr), spec.pretrain_epochs, seed,
        )
    led.work["pretrain_videos"] += spec.pretrain_epochs * len(train)
    digest, finite = _losses_digest(report)
    led.op("pretrain", digest, ok=finite)
    led.final_loss = report.epochs[-1].loss
    return params


def run_checkpoint(led: Ledger, name: str, params, mcfg, workdir: str):
    """save_checkpoint then load_checkpoint, as `pretrain`/`finetune` and the
    next CLI stage do."""
    path = os.path.join(workdir, f"{name}.vtfm")
    with led.timed("checkpoint"):
        model.save_checkpoint(path, params, mcfg, provenance={"stage": name})
        loaded, loaded_cfg = model.load_checkpoint(path)
    moved = 2 * os.path.getsize(path)
    led.work["checkpoint_bytes"] += moved
    led.rates["checkpoint"].append(moved / led.last)
    ok = loaded_cfg == mcfg and _arrays_equal(params, loaded)
    led.op(f"checkpoint:{name}", checkpoint_digest(path), ok=ok)
    return loaded


def run_finetune(led: Ledger, spec: Spec, seed: int, kind: str, mode: str, backbone, mcfg, sets, workdir):
    full = mode == "finetune"
    epochs = spec.full_epochs if full else spec.probe_epochs
    ft_cfg = downstream.FinetuneConfig(
        task_kind=kind, mode=mode, epochs=epochs, seed=seed,
        optimizer="adamw", lr=spec.lr if full else spec.probe_lr, schedule=[],
    )
    train_set = sets[kind, "train"]
    stage = "finetune" if full else "probe"
    with led.timed(stage):
        tuned, report = downstream.finetune(backbone, mcfg, ft_cfg, train_set)
    led.work[f"{stage}_instances"] += epochs * len(train_set)
    digest, finite = _losses_digest(report)
    ok = finite
    if not full:
        frozen = {n for n, _ in named_arrays(backbone)} - trainable_names(backbone, ft_cfg)
        ok = ok and _arrays_equal(backbone, tuned, frozen)
    led.op(f"{stage}:{kind}", digest, ok=ok)
    return tuned


def run_evaluate(led: Ledger, label: str, kind: str, params, mcfg, sets):
    test_set = sets[kind, "test"]
    with led.timed("eval"):
        report = downstream.evaluate(params, mcfg, test_set)
    led.work["eval_instances"] += len(test_set)
    led.accuracies.append(report.accuracy)
    led.op(f"eval:{label}", f"{report.correct}/{report.total}",
           ok=0 <= report.correct <= report.total and report.total > 0)


def setup(led: Ledger, spec: Spec, seed: int, workdir: str) -> dict:
    """Inputs built before the measured loop. For probe_eval this is the
    pre-trained backbone; its pre-training and full-mode fine-tunes give that
    workload's pretrain and fine-tune throughputs."""
    cfg = corpus_config(spec, seed)
    mcfg = model_config(spec, cfg)
    inputs = {"mcfg": mcfg}
    if not spec.backbone_in_setup:
        return inputs
    data = corpus.generate_corpus(cfg)
    train, _, _ = corpus.split_corpus(data.videos, cfg.split_ratios, seed)
    backbone = run_pretrain(led, spec, seed, data, train, mcfg)
    led.op("backbone", params_digest(backbone))
    sets = {}
    for kind in spec.full_kinds:
        sets[kind, "train"] = benchmarks.build_benchmark_set(
            kind, train, data, benchmarks.derive_seed(seed, f"{kind}/train", 0),
            source_split="train", instances_per_video=spec.sets[kind][0],
        )
        run_finetune(led, spec, seed, kind, "finetune", backbone, mcfg, sets, workdir)
    inputs["backbone"] = backbone
    return inputs


def iteration(led: Ledger, spec: Spec, seed: int, workdir: str, inputs: dict):
    """One pass of the workload's measured stages."""
    mcfg = inputs["mcfg"]
    data, train, test = run_corpus(led, spec, seed, workdir)
    sets = run_synthesis(led, spec, seed, workdir, data, train, test)
    if spec.backbone_in_setup:
        params = inputs["backbone"]
    else:
        params = run_pretrain(led, spec, seed, data, train, mcfg)
    backbone = run_checkpoint(led, "pretrain", params, mcfg, workdir)
    for mode, kinds in (("finetune", spec.full_kinds), ("linear_probe", spec.probe_kinds)):
        if mode == "finetune" and spec.backbone_in_setup:
            continue
        for kind in kinds:
            tuned = run_finetune(led, spec, seed, kind, mode, backbone, mcfg, sets, workdir)
            label = f"{mode}.{kind}"
            tuned = run_checkpoint(led, label, tuned, mcfg, workdir)
            run_evaluate(led, label, kind, tuned, mcfg, sets)
