"""Command-line pipeline: corpus generation, benchmark synthesis,
pre-training, fine-tuning, evaluation, gradient auditing, and report
aggregation.

One JSON config drives everything; `--set section.key=value` overrides
individual entries and `--seed` overrides the global seed. Machine-readable
results go to stdout and files; logs go to stderr. Exit codes: 0 success,
1 validation error, 2 divergence or synthesis failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

import numpy as np

from . import benchmarks as bm
from .config import RunConfig
from .corpus import Corpus, default_embedder, load_corpus, generate_corpus, save_corpus, split_corpus
from .downstream import attach_task_embeddings, evaluate, finetune
from .errors import (
    DivergenceError,
    StepmaskError,
    SynthesisError,
)
from .model import checkpoint_digest, load_checkpoint, save_checkpoint
from .schema import read_json, typed_fields
from .training import (
    two_phase_recipe,
    pretrain,
    run_gradient_audit,
    run_pretrain_recipe,
)

logger = logging.getLogger("stepmask")

GRADCHECK_THRESHOLD = 1e-5


def _emit(payload: dict):
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _splits(corpus: Corpus, seed: int):
    train, val, test = split_corpus(corpus.videos, corpus.cfg.split_ratios, seed)
    return {"train": train, "val": val, "test": test}


def _train_and_save(cfg: RunConfig, model_cfg, stem: str, run, provenance: dict):
    """Train with `run() -> (params, report)`, then save `<stem>.vtfm` (its
    provenance gets the wall time) and `<stem>_report.json`/`.csv`. On
    divergence the last good parameters go to a checkpoint with the
    `_lastgood` suffix before the error propagates. Returns the summary to
    print and the last epoch's accuracy (None after zero epochs)."""
    checkpoints_dir = Path(cfg.path("checkpoints_dir"))
    checkpoints_dir.mkdir(parents=True, exist_ok=True)
    try:
        params, report = run()
    except DivergenceError as exc:
        if exc.params is not None:
            save_checkpoint(
                checkpoints_dir / f"{stem}_lastgood.vtfm", exc.params, model_cfg,
                provenance={"config_digest": cfg.digest(), "aborted": str(exc)},
            )
            logger.error("divergence: last-good checkpoint saved")
        raise
    ckpt_path = checkpoints_dir / f"{stem}.vtfm"
    provenance = {**provenance, "wall_time": report.wall_time}
    save_checkpoint(ckpt_path, params, model_cfg, provenance=provenance)
    reports_dir = Path(cfg.path("reports_dir"))
    reports_dir.mkdir(parents=True, exist_ok=True)
    with open(reports_dir / f"{stem}_report.json", "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2)
        fh.write("\n")
    with open(reports_dir / f"{stem}_report.csv", "w", encoding="utf-8") as fh:
        fh.write(report.to_csv())
    last = report.epochs[-1] if report.epochs else None
    summary = {
        "checkpoint": str(ckpt_path),
        "checkpoint_digest": checkpoint_digest(ckpt_path),
        "final_loss": last.loss if last else None,
        "config_digest": cfg.digest(),
    }
    return summary, last.masked_accuracy if last else None


def cmd_gen_corpus(args) -> int:
    cfg = RunConfig.load(args.config, args.set or (), args.seed)
    out_dir = Path(args.out or cfg.path("corpus_dir"))
    corpus = generate_corpus(cfg.corpus_config())
    manifest = save_corpus(corpus, out_dir, extra={"config_digest": cfg.digest()})
    logger.info("corpus with %d videos written to %s", len(corpus.videos), out_dir)
    _emit({"out_dir": str(out_dir), **manifest})
    return 0


def cmd_gen_benchmarks(args) -> int:
    cfg = RunConfig.load(args.config, args.set or (), args.seed)
    corpus = load_corpus(args.corpus or cfg.path("corpus_dir"))
    out_dir = Path(args.out or cfg.path("benchmarks_dir"))
    out_dir.mkdir(parents=True, exist_ok=True)
    kinds = args.kinds.split(",") if args.kinds else (cfg.data["benchmarks"]["kinds"] or list(bm.KINDS))
    splits = _splits(corpus, cfg.seed)
    per_video = cfg.data["benchmarks"]["instances_per_video"]
    same_task = cfg.data["benchmarks"]["same_task_donor"]
    summary = []
    for kind in kinds:
        for split_name, videos in splits.items():
            if not videos:
                continue
            set_seed = bm.derive_seed(cfg.seed, f"{kind}/{split_name}", 0)
            bset = bm.build_benchmark_set(
                kind, videos, corpus, set_seed, source_split=split_name,
                instances_per_video=per_video, same_task_donor=same_task,
            )
            stem = f"{kind}.{split_name}"
            bm.write_benchmark_jsonl(bset, out_dir / f"{stem}.jsonl")
            manifest = {
                "kind": kind,
                "split": split_name,
                "count": len(bset),
                "seed": set_seed,
                "digest": bset.digest,
                "skipped": bset.skipped,
                "corpus_digest": corpus.digest(),
                "config_digest": cfg.digest(),
            }
            with open(out_dir / f"{stem}.manifest.json", "w", encoding="utf-8") as fh:
                json.dump(manifest, fh, indent=2)
                fh.write("\n")
            summary.append(manifest)
    _emit({"out_dir": str(out_dir), "sets": summary})
    return 0


def _build_model_config(cfg: RunConfig, corpus: Corpus):
    return cfg.model_config(
        d_in=corpus.cfg.feature_dim,
        s=len(corpus.vocab),
        num_tasks=max(corpus.task_names) + 1,
        max_k=max(v.K for v in corpus.videos),
    )


def cmd_pretrain(args) -> int:
    cfg = RunConfig.load(args.config, args.set or (), args.seed)
    corpus = load_corpus(cfg.path("corpus_dir"))
    train_videos = _splits(corpus, cfg.seed)["train"]
    model_cfg = _build_model_config(cfg, corpus)
    section = cfg.data["pretrain"]
    checkpoints_dir = Path(cfg.path("checkpoints_dir"))

    def run():
        if section["recipe"] == "two-phase":
            params, reports = run_pretrain_recipe(
                train_videos, corpus.vocab, model_cfg, cfg.mask_spec(),
                section["loss"], two_phase_recipe(), cfg.seed,
                accumulate=section["accumulate"],
                reduction=section["reduction"], config_digest=cfg.digest(),
            )
            return params, reports[-1]

        def at_boundary(epoch, snapshot):
            save_checkpoint(
                checkpoints_dir / f"pretrain_epoch{epoch:04d}.vtfm",
                snapshot, model_cfg,
                provenance={"config_digest": cfg.digest(), "epoch": epoch},
            )

        return pretrain(
            train_videos, corpus.vocab, model_cfg, cfg.mask_spec(),
            section["loss"], cfg.pretrain_optimizer(), section["epochs"],
            cfg.seed, accumulate=section["accumulate"],
            reduction=section["reduction"], config_digest=cfg.digest(),
            boundary_callback=at_boundary,
        )

    summary, accuracy = _train_and_save(cfg, model_cfg, "pretrain", run, {
        "config_digest": cfg.digest(),
        "corpus_digest": corpus.digest(),
        "loss": section["loss"],
    })
    _emit({**summary, "final_masked_accuracy": accuracy})
    return 0


def cmd_finetune(args) -> int:
    cfg = RunConfig.load(args.config, args.set or (), args.seed)
    corpus = load_corpus(cfg.path("corpus_dir"))
    ckpt = args.checkpoint or str(Path(cfg.path("checkpoints_dir")) / "pretrain.vtfm")
    params, model_cfg = load_checkpoint(ckpt)
    ft_cfg = cfg.finetune_config(args.task)
    bench_dir = Path(args.benchmarks or cfg.path("benchmarks_dir"))
    train_path = bench_dir / f"{ft_cfg.task_kind}.train.jsonl"
    dataset = bm.read_benchmark_jsonl(train_path, corpus, source_split="train")
    if ft_cfg.use_task_label:
        attach_task_embeddings(dataset, corpus, default_embedder(corpus.cfg), model_cfg.d_in)
    summary, accuracy = _train_and_save(
        cfg, model_cfg, f"finetune_{ft_cfg.task_kind}",
        lambda: finetune(params, model_cfg, ft_cfg, dataset, config_digest=cfg.digest()),
        {
            "config_digest": cfg.digest(),
            "corpus_digest": corpus.digest(),
            "task": ft_cfg.task_kind,
            "mode": ft_cfg.mode,
        },
    )
    _emit({**summary, "task": ft_cfg.task_kind, "final_train_accuracy": accuracy})
    return 0


def cmd_eval(args) -> int:
    cfg = RunConfig.load(args.config, args.set or (), args.seed)
    corpus = load_corpus(args.corpus or cfg.path("corpus_dir"))
    params, model_cfg = load_checkpoint(args.checkpoint)
    path = Path(args.benchmark)
    parts = path.name.split(".")
    split = parts[1] if len(parts) == 3 else "file"
    dataset = bm.read_benchmark_jsonl(path, corpus, source_split=split)
    use_task_label = args.use_task_label
    if use_task_label is None:
        use_task_label = cfg.data["finetune"]["use_task_label"]
    if use_task_label:
        attach_task_embeddings(dataset, corpus, default_embedder(corpus.cfg), model_cfg.d_in)
    report = evaluate(
        params, model_cfg, dataset,
        use_task_label=use_task_label, config_digest=cfg.digest(),
        per_class=args.per_class,
    )
    payload = report.to_dict()
    payload["corpus_digest"] = corpus.digest()
    reports_dir = Path(cfg.path("reports_dir"))
    reports_dir.mkdir(parents=True, exist_ok=True)
    out = reports_dir / f"eval_{dataset.kind}_{dataset.source_split}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _emit(payload)
    return 0


def cmd_gradcheck(args) -> int:
    kwargs = {}
    if args.epsilon is not None:
        kwargs["epsilon"] = float(args.epsilon)
    errors = run_gradient_audit(**kwargs)
    worst = max(errors.values())
    for kind, err in errors.items():
        logger.info("%s loss: max relative gradient error %.3e", kind, err)
    _emit({
        "errors": errors,
        "max_relative_error": worst,
        "threshold": GRADCHECK_THRESHOLD,
        "pass": bool(worst <= GRADCHECK_THRESHOLD),
    })
    return 0 if worst <= GRADCHECK_THRESHOLD else 1


def cmd_report(args) -> int:
    cfg = RunConfig.load(args.config, args.set or (), args.seed) if args.config else None
    reports_dir = Path(args.reports or (cfg.path("reports_dir") if cfg else "."))
    rows = []
    corpus_digests = set()
    for path in sorted(reports_dir.glob("eval_*.json")):
        rec = read_json(path)
        if not isinstance(rec, dict) or "task" not in rec or "accuracy" not in rec:
            continue
        typed_fields(rec, str(path), task=str, split=str, accuracy=float, correct=int, total=int)
        rows.append(rec)
        corpus_digests.add(rec.get("corpus_digest", ""))
    if not rows:
        raise StepmaskError(f"{reports_dir}: no evaluation reports found")
    if len(corpus_digests) > 1:
        raise StepmaskError(
            f"refusing to aggregate reports from different corpora: {sorted(corpus_digests)}"
        )
    rows.sort(key=lambda r: (r["task"], r["split"]))
    csv_lines = ["task,split,accuracy,correct,total"]
    csv_lines += [
        f"{r['task']},{r['split']},{r['accuracy']:.6f},{r['correct']},{r['total']}"
        for r in rows
    ]
    csv_text = "\n".join(csv_lines) + "\n"
    with open(reports_dir / "summary.csv", "w", encoding="utf-8") as fh:
        fh.write(csv_text)
    with open(reports_dir / "summary.json", "w", encoding="utf-8") as fh:
        json.dump({"reports": rows}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    sys.stdout.write(csv_text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stepmask",
        description="Masked step modeling pipeline over synthetic procedural corpora",
    )
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        if config_required:
            p.add_argument("config", help="run configuration JSON")
        else:
            p.add_argument("config", nargs="?", help="run configuration JSON")
        p.add_argument("--seed", type=int, default=None, help="override global seed")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config entry, e.g. --set pretrain.epochs=50")

    p = sub.add_parser("gen-corpus", help="generate a synthetic corpus")
    common(p)
    p.add_argument("--out", help="output directory (default: paths.corpus_dir)")
    p.set_defaults(func=cmd_gen_corpus)

    p = sub.add_parser("gen-benchmarks", help="synthesize benchmark datasets per split")
    common(p)
    p.add_argument("--corpus", help="corpus directory (default: paths.corpus_dir)")
    p.add_argument("--kinds", help="comma-separated kinds (default: all)")
    p.add_argument("--out", help="output directory (default: paths.benchmarks_dir)")
    p.set_defaults(func=cmd_gen_benchmarks)

    p = sub.add_parser("pretrain", help="masked-step pre-training on the train split")
    common(p)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune", help="fine-tune a checkpoint on one benchmark task")
    common(p)
    p.add_argument("--checkpoint", help="pretrained checkpoint (default: checkpoints_dir/pretrain.vtfm)")
    p.add_argument("--task", help="benchmark kind (default: finetune.task from config)")
    p.add_argument("--benchmarks", help="benchmark directory (default: paths.benchmarks_dir)")
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a benchmark file")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--benchmark", required=True, help="benchmark JSONL file")
    p.add_argument("--corpus", help="corpus directory (default: paths.corpus_dir)")
    p.add_argument("--use-task-label", action="store_true", default=None)
    p.add_argument("--per-class", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="audit analytic gradients against finite differences")
    common(p, config_required=False)
    p.add_argument("--epsilon", type=float, default=None)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("report", help="aggregate evaluation reports into one table")
    common(p, config_required=False)
    p.add_argument("--reports", help="reports directory (default: paths.reports_dir)")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except (DivergenceError, SynthesisError, FloatingPointError) as exc:
        logger.error("%s", exc)
        return 2
    except (StepmaskError, FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
        logger.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
