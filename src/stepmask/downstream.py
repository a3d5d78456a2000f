"""Fine-tuning and evaluation of the pre-trained model on the six benchmark
task kinds.

`ROUTES` holds, per kind, the hidden row its heads read (which also fixes the
reserved tokens of the forward pass), its (weight, bias) head arrays with one
pair per output slot, and how targets map to class indices and back.
`_forward` and `_slot_logits` serve both `predict` and the fine-tune loss, so
evaluation always scores the logits training optimized.

Inference is batched: `_batches` groups instances by K in input order and
cuts each group so that a batch's largest intermediate stays within
BATCH_ELEMENTS float64 values, and `_forward` runs a batch as one stacked
forward pass whose products are per instance, so every score is bitwise
that of the instance's own pass. `evaluate` scores whole batches; `predict`
is a batch of one.

linear_probe trains only the kind's heads; finetune also trains the backbone
(`model.backbone_names`: input projection, tokens, positional, blocks), never
the other kinds' heads. Frozen arrays stay bit-identical: the optimizer
skips them entirely, weight decay included. The epoch loop is the one
pre-training runs (`training._train_epochs`), and both modes score a slot
with the same `_slot_loss`.

A linear probe runs the backbone once per instance. Its first step runs
every instance, batch by batch, and keeps the hidden rows the heads read
(`_head_rows`: the whole (T, d) matrix for main-head kinds, the CLS row, or
the clip rows) in one buffer of rows × d × 8 bytes that lives for the
duration of the `finetune` call; every step trains on one instance's rows
with the same matmul shapes, so results are bit-identical to running the
forward pass each time. The training state covers the trainable window
only, with `v` for AdamW only.
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
# The largest intermediate of a batched forward pass, rows (instances ×
# tokens) × mlp_hidden, in float64 values: 128 rows at d=64, while at d=768
# every batch is one instance.
BATCH_ELEMENTS = 32_768


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


def _task_token(inst: BenchmarkInstance):
    if inst.task_name_embedding is None:
        raise InvalidInput(
            f"instance from video {inst.video_id} has no task embedding attached"
        )
    return inst.task_name_embedding


def _route(kind) -> Route:
    route = ROUTES.get(kind)
    if route is None:
        raise InvalidInput(f"unknown instance kind {kind!r}")
    return route


def _head_rows(route: Route, k: int, use_task_label: bool):
    """(T, rows, at): the forward pass's token count for K clips, the slice of
    its hidden rows a route's heads read, and the heads' input within those
    rows (one row, or every clip row for the pointer head)."""
    offset = int(route.row == "cls") + int(use_task_label)
    t = offset + k + int(route.row == "query")
    return t, *{
        "cls": (slice(0, 1), 0),
        "clip": (slice(0, t), offset),
        "query": (slice(0, t), offset + k),
        "clips": (slice(offset, t), slice(None)),
    }[route.row]


def _batches(instances, mcfg: ModelConfig, use_task_label: bool):
    """Index lists into `instances`, grouped by kind and K in input order and
    cut so that a batch's rows × mlp_hidden stay within BATCH_ELEMENTS (at
    least one instance a batch)."""
    groups: dict[tuple[str, int], list[int]] = {}
    for i, inst in enumerate(instances):
        groups.setdefault((inst.kind, inst.K), []).append(i)
    for (kind, k), indices in groups.items():
        t = _head_rows(_route(kind), k, use_task_label)[0]
        size = max(1, BATCH_ELEMENTS // (t * mcfg.mlp_hidden))
        for lo in range(0, len(indices), size):
            yield indices[lo : lo + size]


def _forward(params, mcfg: ModelConfig, insts, use_task_label: bool, *, stack: bool = True):
    """One forward pass over instances of one kind and one K, with their
    query row, CLS token and task tokens assembled: (trace, rows, at) as
    `_head_rows`. A stack's trace has (B, T, d) hidden rows and no caches;
    `stack=False` runs its one instance as the 2-D call `backward` takes."""
    route, k = _route(insts[0].kind), insts[0].K
    _, rows, at = _head_rows(route, k, use_task_label)
    clips, mask = np.array([inst.clips for inst in insts]), ()
    if route.row == "query":
        query = np.zeros((len(insts), 1, clips.shape[-1]))
        clips, mask = np.concatenate([clips, query], axis=1), (k,)
    tokens = np.array([_task_token(inst) for inst in insts]) if use_task_label else None
    if not stack:
        clips, tokens = clips[0], None if tokens is None else tokens[0]
    trace = forward(
        params, mcfg, clips, mask_set=mask, prepend_cls=route.row == "cls", task_token=tokens,
    )
    return trace, rows, at


def _slot_logits(params, route: Route, hidden: np.ndarray, at):
    """[(head input, logits)] with one entry per output slot, from the hidden
    rows (..., R, d) the route's heads read; leading dims stack instances."""
    x = hidden[..., at, :]
    # Keep each head's matmul shape per instance: BLAS rounds a (T, D)
    # product's rows, a one-row product and a stack collapsed into one
    # product differently in the last bits.
    if route.heads == MAIN_HEAD:
        return [(x, (hidden @ params.head_w + params.head_b)[..., at, :])]
    pointer = isinstance(at, slice)  # one score per clip row
    rows = x if pointer else hidden[..., at : at + 1, :]
    slots = []
    for w, b in route.heads:
        z = rows @ get_array(params, w) + get_array(params, b)
        slots.append((x, z[..., 0] if pointer else z[..., 0, :]))
    return slots


def _predictions(params, mcfg: ModelConfig, insts, use_task_label: bool) -> list:
    """Predictions for instances of one kind and one K from one stacked
    forward pass; ties resolve to the lowest index via argmax."""
    trace, rows, at = _forward(params, mcfg, insts, use_task_label)
    route = ROUTES[insts[0].kind]
    slots = _slot_logits(params, route, trace.hidden[:, rows], at)
    classes = np.stack([np.argmax(z, axis=-1) for _, z in slots], axis=-1).tolist()
    return [route.decode(tuple(c), mcfg.s) for c in classes]


def predict(
    params: TransformerParams,
    mcfg: ModelConfig,
    inst: BenchmarkInstance,
    use_task_label: bool = False,
):
    """Task-specific prediction for one instance: `evaluate`'s batch of one."""
    return _predictions(params, mcfg, [inst], use_task_label)[0]


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
    denominator. Pure counting, so instance order cannot change the result.
    Instances are scored in stacked batches (`_batches`)."""
    if not dataset.instances:
        raise InvalidInput("empty dataset")
    correct = 0
    total = 0
    class_counts: dict[int, list[int]] = {}
    for batch in _batches(dataset.instances, mcfg, use_task_label):
        insts = [dataset.instances[i] for i in batch]
        for inst, pred in zip(insts, _predictions(params, mcfg, insts, use_task_label)):
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
    trace, rows, at = _forward(params, mcfg, [inst], cfg.use_task_label, stack=False)
    d_hidden = np.zeros((trace.T, mcfg.d))
    result = _slot_loss(params, mcfg, inst, trace.hidden[rows], at, grads, d_hidden[rows])
    model_backward(params, mcfg, trace, d_hidden=d_hidden, grads=grads)
    return result


def _probe_step(params, mcfg: ModelConfig, cfg: FinetuneConfig, instances):
    """The linear probe's loss step. The first call runs the frozen backbone
    over every instance, batch by batch, and keeps the hidden rows each
    instance's heads read, in one buffer for all instances; every call
    trains the heads on one instance's rows."""
    route = ROUTES[cfg.task_kind]
    heads = [_head_rows(route, inst.K, cfg.use_task_label)[1:] for inst in instances]
    bounds = np.cumsum([0, *(rows.stop - rows.start for rows, _ in heads)])
    cache = np.empty((int(bounds[-1]), mcfg.d))
    filled = False

    def step(i, grads):
        nonlocal filled
        if not filled:
            for batch in _batches(instances, mcfg, cfg.use_task_label):
                trace, rows, _ = _forward(
                    params, mcfg, [instances[j] for j in batch], cfg.use_task_label
                )
                for j, hidden in zip(batch, trace.hidden[:, rows]):
                    cache[bounds[j] : bounds[j + 1]] = hidden
            filled = True
        hidden = cache[bounds[i] : bounds[i + 1]]
        return _slot_loss(params, mcfg, instances[i], hidden, heads[i][1], grads)

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
