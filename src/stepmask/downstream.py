"""Fine-tuning and evaluation of the pre-trained model on the six benchmark
task kinds.

`ROUTES` holds, per kind, the hidden row its heads read (which also fixes the
reserved tokens of the forward pass), its (weight, bias) head arrays with one
pair per output slot, and how targets map to class indices and back.
`_forward` and `_slot_logits` serve both `predict` and the fine-tune loss, so
evaluation always scores the logits training optimized.

linear_probe trains only the kind's heads; finetune also trains the backbone
(`model.backbone_names`: input projection, tokens, positional, blocks), never
the other kinds' heads. Frozen arrays stay bit-identical: the optimizer
skips them entirely, weight decay included. The epoch loop is the one
pre-training runs (`training._train_epochs`), and both modes score a slot
with the same `_slot_loss`.

A linear probe runs the backbone once per instance. The first visit keeps
the hidden rows the heads read (`_head_rows`: the whole (T, d) matrix for
main-head kinds, the CLS row, or the clip rows) in one buffer of rows × d ×
8 bytes that lives for the duration of the `finetune` call; later visits
train on those rows with the same matmul shapes, so results are
bit-identical to running the forward pass each time. The training state
covers the trainable window only, with `v` for AdamW only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .benchmarks import LONG_TERM_SLOTS, BenchmarkInstance, BenchmarkSet
from .corpus import Corpus, project_to_feature_dim
from .errors import ConfigError, InvalidInput
from .model import (
    ModelConfig,
    TransformerParams,
    backbone_names,
    backward as model_backward,
    clone_params,
    flat_window,
    forward,
    get_array,
    log_softmax,
    softmax_logits,
    window_params,
)
from .training import OptimizerConfig, TrainReport, _train_epochs
from .weaklabel import TextEmbedder, embed_text


@dataclass(frozen=True)
class Route:
    """How one benchmark kind reads the transformer.

    row: "cls" (CLS prepended, row 0), "clip" (the first clip row), "query"
    (a masked position appended after the clips) or "clips" (every clip row;
    a one-column pointer head scores each clip). Heads name one (weight,
    bias) pair per output slot; `classes(target, null)` maps a target (or a
    prediction) to one class index per slot, `null` standing for an empty
    forecast slot (mcfg.s in training, None when scoring), and `decode`
    maps argmax classes back to a prediction.
    """

    row: str
    heads: tuple[tuple[str, str], ...]
    classes: Callable[[object, int], tuple[int, ...]] = lambda target, s: (int(target),)
    decode: Callable[[tuple[int, ...], int], object] = lambda classes, s: classes[0]


MAIN_HEAD = (("head_w", "head_b"),)
ROUTES: dict[str, Route] = {
    "step_cls": Route("clip", MAIN_HEAD),
    "short_term": Route("query", MAIN_HEAD),
    "proc_rec": Route("cls", (("task_head_w", "task_head_b"),)),
    "mistake_order": Route(
        "cls", (("order_head_w", "order_head_b"),),
        classes=lambda target, s: (int(bool(target)),),
        decode=lambda classes, s: bool(classes[0] == 1),
    ),
    "mistake_step": Route("clips", (("mistake_head_w", "mistake_head_b"),)),
    "long_term": Route(
        "cls", tuple((f"forecast.{i}.w", f"forecast.{i}.b") for i in range(LONG_TERM_SLOTS)),
        classes=lambda target, s: tuple(s if t is None else int(t) for t in target),
        decode=lambda classes, s: tuple(None if c == s else c for c in classes),
    ),
}
KIND_HEADS: dict[str, tuple[str, ...]] = {
    kind: tuple(name for pair in route.heads for name in pair)
    for kind, route in ROUTES.items()
}


@dataclass
class FinetuneConfig:
    task_kind: str
    mode: str = "finetune"  # "linear_probe" | "finetune"
    use_task_label: bool = False
    lr: float = 0.005
    epochs: int = 50
    schedule: list[tuple[int, float]] = field(default_factory=lambda: [(30, 0.1), (40, 0.1)])
    seed: int = 0
    optimizer: str = "sgd_momentum"
    momentum: float = 0.9
    weight_decay: float = 0.0

    def __post_init__(self):
        if self.task_kind not in KIND_HEADS:
            raise ConfigError(f"unknown task kind {self.task_kind!r}")
        if self.mode not in ("linear_probe", "finetune"):
            raise ConfigError(f"unknown mode {self.mode!r}")


@dataclass
class EvalReport:
    task_kind: str
    split: str
    accuracy: float
    correct: int
    total: int
    config_digest: str = ""
    per_class: dict[int, float] | None = None

    def to_dict(self) -> dict:
        d = {
            "task": self.task_kind,
            "split": self.split,
            "accuracy": self.accuracy,
            "correct": self.correct,
            "total": self.total,
            "config_digest": self.config_digest,
        }
        if self.per_class is not None:
            d["per_class"] = {str(k): v for k, v in self.per_class.items()}
        return d


def embed_task_label(task_name: str, embedder: TextEmbedder, d_in: int) -> np.ndarray:
    """Conditioning token: the task name's sentence embedding sized to the
    clip-feature dimension so it can join the input token list."""
    return project_to_feature_dim(embed_text(embedder, task_name), d_in)


def attach_task_embeddings(bset: BenchmarkSet, corpus: Corpus, embedder: TextEmbedder, d_in: int):
    cache: dict[int, np.ndarray] = {}
    for inst in bset.instances:
        if inst.task_id not in cache:
            name = corpus.task_names[inst.task_id]
            cache[inst.task_id] = embed_task_label(name, embedder, d_in)
        inst.task_name_embedding = cache[inst.task_id]


def trainable_names(params: TransformerParams, cfg: FinetuneConfig) -> set[str]:
    names = set(KIND_HEADS[cfg.task_kind])
    if cfg.mode == "finetune":
        names |= backbone_names(params.layout)
    return names


def _task_token(inst: BenchmarkInstance, use_task_label: bool):
    if not use_task_label:
        return None
    if inst.task_name_embedding is None:
        raise InvalidInput(
            f"instance from video {inst.video_id} has no task embedding attached"
        )
    return inst.task_name_embedding


def _head_rows(route: Route, inst: BenchmarkInstance, use_task_label: bool):
    """(rows, at): the slice of the forward pass's hidden rows a route's heads
    read, and the heads' input within those rows (one row, or every clip
    row for the pointer head)."""
    offset = int(route.row == "cls") + int(use_task_label)
    t = offset + inst.K + int(route.row == "query")
    return {
        "cls": (slice(0, 1), 0),
        "clip": (slice(0, t), offset),
        "query": (slice(0, t), offset + inst.K),
        "clips": (slice(offset, t), slice(None)),
    }[route.row]


def _forward(params, mcfg: ModelConfig, inst: BenchmarkInstance, use_task_label: bool):
    """Forward pass for one instance: (trace, rows, at) as `_head_rows`."""
    route = ROUTES.get(inst.kind)
    if route is None:
        raise InvalidInput(f"unknown instance kind {inst.kind!r}")
    clips, mask = inst.clips, ()
    if route.row == "query":
        clips, mask = np.vstack([inst.clips, np.zeros((1, mcfg.d_in))]), (inst.K,)
    trace = forward(
        params, mcfg, clips, mask_set=mask, prepend_cls=route.row == "cls",
        task_token=_task_token(inst, use_task_label),
    )
    return (trace, *_head_rows(route, inst, use_task_label))


def _slot_logits(params, route: Route, hidden: np.ndarray, at):
    """[(head input, logits)] with one entry per output slot, from the hidden
    rows `hidden` the route's heads read."""
    x = hidden[at]
    # Keep each head's matmul shape: BLAS rounds a (T, D) product's rows and
    # a single-row product differently in the last bits.
    if route.heads == MAIN_HEAD:
        return [(x, (hidden @ params.head_w + params.head_b)[at])]
    return [
        (x, (x @ get_array(params, w) + get_array(params, b)).reshape(-1))
        for w, b in route.heads
    ]


def predict(
    params: TransformerParams,
    mcfg: ModelConfig,
    inst: BenchmarkInstance,
    use_task_label: bool = False,
):
    """Task-specific prediction for one instance; ties resolve to the lowest
    index via argmax."""
    trace, rows, at = _forward(params, mcfg, inst, use_task_label)
    route = ROUTES[inst.kind]
    slots = _slot_logits(params, route, trace.hidden[rows], at)
    return route.decode(tuple(int(np.argmax(z)) for _, z in slots), mcfg.s)


def _count_correct(inst: BenchmarkInstance, prediction) -> tuple[int, int]:
    """(correct, total) over the target's slots, as `Route.classes` maps
    them; NULL (None) target slots count in neither."""
    classes = ROUTES[inst.kind].classes
    slots = [(want, got) for want, got in zip(classes(inst.target, None), classes(prediction, None))
             if want is not None]
    return sum(want == got for want, got in slots), len(slots)


def evaluate(
    params: TransformerParams,
    mcfg: ModelConfig,
    dataset: BenchmarkSet,
    *,
    use_task_label: bool = False,
    config_digest: str = "",
    per_class: bool = False,
) -> EvalReport:
    """Accuracy over a benchmark set; NULL forecast slots never enter the
    denominator. Pure counting, so instance order cannot change the result."""
    if not dataset.instances:
        raise InvalidInput("empty dataset")
    correct = 0
    total = 0
    class_counts: dict[int, list[int]] = {}
    for inst in dataset.instances:
        pred = predict(params, mcfg, inst, use_task_label=use_task_label)
        c, t = _count_correct(inst, pred)
        correct += c
        total += t
        if per_class and isinstance(inst.target, (int, np.integer)):
            slot = class_counts.setdefault(int(inst.target), [0, 0])
            slot[0] += c
            slot[1] += t
    return EvalReport(
        task_kind=dataset.kind,
        split=dataset.source_split,
        accuracy=correct / total,
        correct=correct,
        total=total,
        config_digest=config_digest,
        per_class={k: c / t for k, (c, t) in sorted(class_counts.items())} if per_class else None,
    )


def _slot_loss(
    params, mcfg: ModelConfig, inst: BenchmarkInstance, hidden, at, grads, d_hidden=None
):
    """Cross-entropy summed over the kind's head slots on the hidden rows
    `hidden` its heads read; head gradients into `grads` and, when given,
    the gradient with respect to `hidden` into `d_hidden`.

    Every long_term slot trains (padded slots target the NULL class), but
    accuracy counts non-NULL slots only, as `evaluate` does. Returns (loss,
    correct, total).
    """
    route = ROUTES[inst.kind]
    loss = 0.0
    predicted = []
    for (x, z), (w_name, b_name), target in zip(
        _slot_logits(params, route, hidden, at), route.heads, route.classes(inst.target, mcfg.s)
    ):
        if not 0 <= target < z.shape[0]:
            raise ConfigError(f"{w_name} covers {z.shape[0]} classes, target {target}")
        loss -= log_softmax(z)[target]
        d = softmax_logits(z)
        d[target] -= 1.0
        w = get_array(params, w_name)
        if x.ndim == 1:
            dw, db = np.outer(x, d), d
        else:  # pointer head: one score per clip row
            dw, db = x.T @ d[:, None], np.array([d.sum()])
        get_array(grads, w_name)[...] += dw
        get_array(grads, b_name)[...] += db
        if d_hidden is not None:
            d_hidden[at] += d @ w.T if x.ndim == 1 else np.outer(d, w[:, 0])
        predicted.append(int(np.argmax(z)))
    return (loss, *_count_correct(inst, route.decode(tuple(predicted), mcfg.s)))


def _instance_loss_grads(
    params: TransformerParams,
    mcfg: ModelConfig,
    inst: BenchmarkInstance,
    cfg: FinetuneConfig,
    grads: TransformerParams,
):
    """Full fine-tuning's loss step for one instance: forward, `_slot_loss`
    and the backward pass into the transformer. Returns (loss, correct,
    total)."""
    trace, rows, at = _forward(params, mcfg, inst, cfg.use_task_label)
    d_hidden = np.zeros((trace.T, mcfg.d))
    result = _slot_loss(params, mcfg, inst, trace.hidden[rows], at, grads, d_hidden[rows])
    model_backward(params, mcfg, trace, d_hidden=d_hidden, grads=grads)
    return result


def _probe_step(params, mcfg: ModelConfig, cfg: FinetuneConfig, instances):
    """The linear probe's loss step. The first visit to an instance runs the
    frozen backbone and keeps the hidden rows its heads read, in one buffer
    for all instances; every visit trains the heads on those rows."""
    route = ROUTES[cfg.task_kind]
    heads = [_head_rows(route, inst, cfg.use_task_label) for inst in instances]
    bounds = np.cumsum([0, *(rows.stop - rows.start for rows, _ in heads)])
    cache = np.empty((int(bounds[-1]), mcfg.d))
    seen = np.zeros(len(instances), dtype=bool)

    def step(i, grads):
        inst, (rows, at) = instances[i], heads[i]
        hidden = cache[bounds[i] : bounds[i + 1]]
        if not seen[i]:
            trace, _, _ = _forward(params, mcfg, inst, cfg.use_task_label)
            hidden[...] = trace.hidden[rows]
            seen[i] = True
        return _slot_loss(params, mcfg, inst, hidden, at, grads)

    return step


def finetune(
    pretrained: TransformerParams,
    mcfg: ModelConfig,
    cfg: FinetuneConfig,
    dataset: BenchmarkSet,
    *,
    config_digest: str = "",
) -> tuple[TransformerParams, TrainReport]:
    """Cross-entropy training of the kind head (and, in finetune mode, the
    backbone) on a benchmark set, deterministic in cfg.seed.

    A linear probe trains a window of the kind's heads on top of `pretrained`
    and runs the backbone once per instance (`_probe_step`); the full-size
    copy it returns is made after training."""
    if not dataset.instances:
        raise InvalidInput("empty dataset")
    if dataset.kind != cfg.task_kind:
        raise InvalidInput(
            f"dataset kind {dataset.kind!r} does not match config {cfg.task_kind!r}"
        )
    trainable = trainable_names(pretrained, cfg)
    opt = OptimizerConfig(
        kind=cfg.optimizer, lr=cfg.lr, momentum=cfg.momentum,
        weight_decay=cfg.weight_decay, schedule=list(cfg.schedule),
    )
    if cfg.mode == "linear_probe":
        params = window_params(pretrained, *flat_window(pretrained, trainable))
        step = _probe_step(params, mcfg, cfg, dataset.instances)
    else:
        params = clone_params(pretrained)

        def step(ii, grads):
            return _instance_loss_grads(params, mcfg, dataset.instances[ii], cfg, grads)

    report = _train_epochs(
        params, opt, trainable, len(dataset.instances), step,
        cfg.epochs, cfg.seed, 19, config_digest=config_digest,
    )
    del step  # a probe's row cache goes before its full-size copy is made
    return (params if cfg.mode == "finetune" else clone_params(params)), report
