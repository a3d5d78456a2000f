"""Pre-training machinery: mask sampling, the two losses, exact gradients,
finite-difference verification, and seeded optimizer loops.

Losses attach only to masked positions. Both losses return the gradient with
respect to the full logits array (zero at untouched rows), which the model's
reverse pass turns into parameter gradients. By default losses average over
the number of masked positions; reduction="sum" keeps the plain sum.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from .corpus import VideoRecord
from .errors import (
    DimensionError,
    DivergenceError,
    InvalidDistribution,
    InvalidInput,
    InvalidTarget,
)
from .model import (
    ForwardTrace,
    ModelConfig,
    TransformerParams,
    backward as model_backward,
    backbone_names,
    clone_params,
    flat_spans,
    flat_window,
    forward,
    get_array,
    init_params,
    log_softmax,
    named_arrays,
    softmax_logits,
    zeros_window,
)
from .weaklabel import LabelDistribution, best_label


@dataclass
class MaskSpec:
    ratio: float
    resample_if_empty: bool = True
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.ratio <= 1.0:
            raise InvalidInput(f"mask ratio must lie in (0, 1], got {self.ratio}")


def sample_mask(k_clips: int, spec: MaskSpec, draw: int) -> tuple[int, ...]:
    """Independent Bernoulli(ratio) over positions, deterministic in
    (spec.seed, draw); redraws until non-empty when resample_if_empty."""
    if k_clips < 1:
        raise InvalidInput("need at least one position to mask")
    rng = np.random.default_rng([spec.seed, 13, draw])
    while True:
        picked = np.nonzero(rng.random(k_clips) < spec.ratio)[0]
        if picked.size or not spec.resample_if_empty:
            return tuple(int(i) for i in picked)


def truncated_binomial_mean(k_clips: int, ratio: float) -> float:
    """Mean mask size under resample-if-empty (zero-truncated binomial)."""
    return k_clips * ratio / (1.0 - (1.0 - ratio) ** k_clips)


# --- losses -----------------------------------------------------------------


def _masked_positions(targets, mask, reduction: str) -> tuple[list[int], int]:
    """The sorted masked positions, each checked to have a target, and the
    divisor `reduction` puts on the summed loss."""
    if reduction not in ("mean", "sum"):
        raise InvalidInput(f"unknown loss reduction {reduction!r}")
    positions = sorted(set(mask))
    if not positions:
        raise InvalidInput("mask is empty")
    for i in positions:
        if i not in targets:
            raise InvalidTarget(f"no target for masked position {i}")
    return positions, len(positions) if reduction == "mean" else 1


def step_classification_loss(
    trace: ForwardTrace,
    targets: dict[int, int],
    mask,
    reduction: str = "mean",
) -> tuple[float, np.ndarray]:
    """Cross entropy against the hard label at each masked position.

    Returns (loss, gradient w.r.t. the full (T, S) logits array).
    """
    positions, denom = _masked_positions(targets, mask, reduction)
    d_logits = np.zeros_like(trace.logits)
    loss = 0.0
    for i in positions:
        row = trace.offset + i
        logp = log_softmax(trace.logits[row])
        y = targets[i]
        loss -= logp[y]
        grad = softmax_logits(trace.logits[row])
        grad[y] -= 1.0
        d_logits[row] = grad / denom
    return loss / denom, d_logits


def _target_entries(target) -> list[tuple[int, float]]:
    if isinstance(target, LabelDistribution):
        return list(target.entries)
    dense = np.asarray(target, dtype=np.float64)
    if dense.ndim != 1 or abs(float(dense.sum()) - 1.0) > 1e-6 or np.any(dense < 0):
        raise InvalidDistribution("target is not a probability distribution")
    return [(int(i), float(p)) for i, p in enumerate(dense) if p > 0.0]


def distribution_matching_loss(
    trace: ForwardTrace,
    targets: dict[int, LabelDistribution],
    mask,
    reduction: str = "mean",
) -> tuple[float, np.ndarray]:
    """KL divergence from the prediction to the target distribution at each
    masked position; zero-probability target entries contribute nothing."""
    positions, denom = _masked_positions(targets, mask, reduction)
    d_logits = np.zeros_like(trace.logits)
    loss = 0.0
    for i in positions:
        row = trace.offset + i
        logq = log_softmax(trace.logits[row])
        q = np.exp(logq)
        p_dense = np.zeros_like(q)
        for label, p in _target_entries(targets[i]):
            loss += p * (np.log(p) - logq[label])
            p_dense[label] = p
        d_logits[row] = (q - p_dense) / denom
    return loss / denom, d_logits


@dataclass
class MaskedBatch:
    """One video's pre-training inputs: features, per-position targets, mask."""

    clip_features: np.ndarray
    hard_targets: dict[int, int]
    dist_targets: dict[int, LabelDistribution]
    mask: tuple[int, ...]

    @classmethod
    def from_video(cls, video: VideoRecord, mask) -> "MaskedBatch":
        return cls(
            clip_features=video.features(),
            hard_targets={i: best_label(c.weak) for i, c in enumerate(video.clips)},
            dist_targets={i: c.weak for i, c in enumerate(video.clips)},
            mask=tuple(sorted(mask)),
        )


def batch_loss(
    params: TransformerParams,
    cfg: ModelConfig,
    batch: MaskedBatch,
    loss_kind: str,
    reduction: str = "mean",
) -> tuple[float, np.ndarray, ForwardTrace]:
    trace = forward(params, cfg, batch.clip_features, mask_set=batch.mask)
    if loss_kind == "sc":
        loss, d_logits = step_classification_loss(trace, batch.hard_targets, batch.mask, reduction)
    elif loss_kind == "dm":
        loss, d_logits = distribution_matching_loss(trace, batch.dist_targets, batch.mask, reduction)
    else:
        raise InvalidInput(f"unknown loss kind {loss_kind!r}")
    return loss, d_logits, trace


def backward(
    params: TransformerParams,
    cfg: ModelConfig,
    batch: MaskedBatch,
    loss_kind: str,
    reduction: str = "mean",
) -> tuple[float, TransformerParams]:
    """Forward, loss, and exact parameter gradients for one masked video."""
    loss, d_logits, trace = batch_loss(params, cfg, batch, loss_kind, reduction)
    grads = model_backward(params, cfg, trace, d_logits=d_logits)
    return loss, grads


def grad_check(
    params: TransformerParams,
    cfg: ModelConfig,
    batch: MaskedBatch,
    loss_kind: str,
    epsilon: float = 1e-5,
    coords_per_array: int = 200,
    seed: int = 0,
) -> float:
    """Max relative error between analytic gradients and central finite
    differences over a seeded coordinate subsample of every array."""

    def loss_at(p):
        return batch_loss(p, cfg, batch, loss_kind)[0]

    _, grads = backward(params, cfg, batch, loss_kind)
    rng = np.random.default_rng([seed, 97])
    worst = 0.0
    for name, arr in named_arrays(params):
        analytic = get_array(grads, name)
        if arr.size <= coords_per_array:
            coords = np.arange(arr.size)
        else:
            coords = rng.choice(arr.size, size=coords_per_array, replace=False)
        flat = arr.reshape(-1)
        for c in coords:
            original = flat[c]
            flat[c] = original + epsilon
            up = loss_at(params)
            flat[c] = original - epsilon
            down = loss_at(params)
            flat[c] = original
            numeric = (up - down) / (2.0 * epsilon)
            a = analytic.reshape(-1)[c]
            rel = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
            worst = max(worst, rel)
    return worst


def gradient_audit_setup() -> tuple[TransformerParams, ModelConfig, MaskedBatch]:
    """Fixed small setup for auditing gradient fidelity.

    Builds a 7-label corpus and briefly trains a 2-layer width-16 model so
    the check runs at a non-degenerate parameter point: at raw init the
    attention-path gradients sit near 1e-9 where central differences are
    pure roundoff. All seeds fixed; the audited batch masks all 4 positions
    of the first video.
    """
    from .corpus import CorpusConfig, generate_corpus

    corpus_cfg = CorpusConfig(
        num_tasks=2, steps_per_task=4, vocab_size=7, videos_per_task=3,
        feature_noise_sigma=0.05, asr_noise=0.0, feature_dim=8, seed=5,
        label_share_rate=0.5,
    )
    corpus = generate_corpus(corpus_cfg)
    model_cfg = ModelConfig(
        d_in=8, d=16, layers=2, heads=2, max_positions=8, s=7, num_tasks=2,
    )
    params, _ = pretrain(
        corpus.videos, corpus.vocab, model_cfg, MaskSpec(ratio=0.3, seed=1),
        "sc", OptimizerConfig(kind="adamw", lr=1e-3), epochs=100, seed=9,
    )
    batch = MaskedBatch.from_video(corpus.videos[0], (0, 1, 2, 3))
    return params, model_cfg, batch


GRADIENT_AUDIT_EPSILON = 3e-5


def run_gradient_audit(loss_kinds=("sc", "dm"), epsilon: float = GRADIENT_AUDIT_EPSILON) -> dict[str, float]:
    """Max relative gradient error per loss kind on the audit setup."""
    params, model_cfg, batch = gradient_audit_setup()
    return {
        kind: grad_check(params, model_cfg, batch, kind, epsilon=epsilon)
        for kind in loss_kinds
    }


# --- optimizers -------------------------------------------------------------


@dataclass
class OptimizerConfig:
    kind: str  # "sgd_momentum" | "adamw"
    lr: float
    momentum: float = 0.9
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    schedule: list[tuple[int, float]] = field(default_factory=list)

    def __post_init__(self):
        if self.kind not in ("sgd_momentum", "adamw"):
            raise InvalidInput(f"unknown optimizer kind {self.kind!r}")
        if self.lr <= 0:
            raise InvalidInput("lr must be positive")

    def lr_at(self, epoch: int) -> float:
        lr = self.lr
        for boundary, mult in self.schedule:
            if epoch >= boundary:
                lr *= mult
        return lr


# Elements per chunk of the optimizer update. The chunk's slices of the
# parameter, gradient and moment buffers plus two scratch rows of this size
# stay cache-resident, and no temporaries are allocated.
OPT_CHUNK = 32_768


@dataclass
class OptimizerState:
    """Moment buffers over the layout offsets [base, base + m.size), plus the
    trainable spans cached per trainable set and the chunk scratch. SGD never
    reads `v`, which is then a read-only zero view that takes no memory."""

    cfg: OptimizerConfig
    m: np.ndarray
    v: np.ndarray
    step_count: int = 0
    spans: dict = field(default_factory=dict, repr=False)
    scratch: np.ndarray = field(default_factory=lambda: np.empty((2, OPT_CHUNK)), repr=False)
    base: int = 0


def init_optimizer(
    opt_cfg: OptimizerConfig, params: TransformerParams, window: tuple[int, int] | None = None
) -> OptimizerState:
    """Zeroed moments over the layout offsets `window` = (lo, hi), all of
    `params.flat` by default."""
    lo, hi = window or (params.base, params.base + params.flat.size)
    m = np.zeros(hi - lo)
    v = np.zeros(hi - lo) if opt_cfg.kind == "adamw" else np.broadcast_to(0.0, m.shape)
    return OptimizerState(cfg=opt_cfg, m=m, v=v, base=lo)


def optimizer_step(
    state: OptimizerState,
    params: TransformerParams,
    grads: TransformerParams,
    epoch: int,
    trainable: set[str] | None = None,
):
    """Apply one update in place. Only the spans of `params.flat` holding the
    arrays in `trainable` (all arrays when None) change; the rest stays
    bit-identical, including its weight-decay term.

    Each span is updated in chunks of OPT_CHUNK elements. A chunk runs the
    elementwise steps of the whole-array expressions
    `p -= lr * (buf + wd * p)` (SGD, buf the momentum) and
    `p -= lr * (m_hat / (sqrt(v_hat) + eps) + wd * p)` (AdamW) in their order,
    so the result is bitwise that of updating each array at once.
    """
    cfg = state.cfg
    key = frozenset(params.layout if trainable is None else trainable)
    if key not in state.spans:
        spans = flat_spans(params, key)
        if spans:
            lo, hi = spans[0][0], spans[-1][1]
            for what, base, size in (
                ("parameter", params.base, params.flat.size),
                ("gradient", grads.base, grads.flat.size),
                ("moment", state.base, state.m.size),
            ):
                if lo < base or hi > base + size:
                    raise DimensionError(
                        f"{what} buffer covers [{base}, {base + size}), "
                        f"not the trainable [{lo}, {hi})"
                    )
        state.spans[key] = spans
    lr = cfg.lr_at(epoch)
    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - cfg.beta1**t
    c2 = 1.0 - cfg.beta2**t
    for span_lo, span_hi in state.spans[key]:
        for lo in range(span_lo, span_hi, OPT_CHUNK):
            hi = min(lo + OPT_CHUNK, span_hi)
            p, g = params.span(lo, hi), grads.span(lo, hi)
            m = state.m[lo - state.base : hi - state.base]
            a, b = state.scratch[:, : hi - lo]
            if cfg.kind == "sgd_momentum":
                m *= cfg.momentum
                m += g
                np.multiply(p, cfg.weight_decay, out=a)
                a += m
            else:
                v = state.v[lo - state.base : hi - state.base]
                m *= cfg.beta1
                np.multiply(g, 1.0 - cfg.beta1, out=a)
                m += a
                v *= cfg.beta2
                np.multiply(g, 1.0 - cfg.beta2, out=a)
                a *= g
                v += a
                np.divide(m, c1, out=a)
                np.divide(v, c2, out=b)
                np.sqrt(b, out=b)
                b += cfg.eps
                a /= b
                np.multiply(p, cfg.weight_decay, out=b)
                a += b
            a *= lr
            p -= a


def two_phase_recipe() -> list[tuple[OptimizerConfig, int]]:
    """Two-phase schedule: momentum SGD with step decay, then a shorter
    low-rate AdamW round."""
    phase1 = OptimizerConfig(
        kind="sgd_momentum", lr=0.01, momentum=0.9, weight_decay=1e-4,
        schedule=[(15, 0.1), (19, 0.1)],
    )
    phase2 = OptimizerConfig(kind="adamw", lr=5e-5)
    return [(phase1, 20), (phase2, 15)]


# --- training loop ----------------------------------------------------------


@dataclass
class EpochStats:
    epoch: int
    loss: float
    masked_accuracy: float
    lr: float


@dataclass
class TrainReport:
    epochs: list[EpochStats]
    wall_time: float
    config_digest: str
    seed: int

    def to_dict(self) -> dict:
        return {
            "epochs": [vars(e) for e in self.epochs],
            "wall_time": self.wall_time,
            "config_digest": self.config_digest,
            "seed": self.seed,
        }

    def to_csv(self) -> str:
        lines = ["epoch,loss,masked_acc,lr"]
        lines.extend(
            f"{e.epoch},{e.loss:.12g},{e.masked_accuracy:.12g},{e.lr:.12g}"
            for e in self.epochs
        )
        return "\n".join(lines) + "\n"


def _train_epochs(
    params: TransformerParams,
    opt_cfg: OptimizerConfig,
    trainable: set[str],
    count: int,
    step,
    epochs: int,
    seed: int,
    salt: int,
    *,
    accumulate: int = 1,
    config_digest: str = "",
    boundary_callback=None,
) -> TrainReport:
    """The epoch loop of pre-training and fine-tuning; updates `params` (a
    window or full-size parameters) in place.

    Each epoch visits the `count` items in an order drawn from
    [seed, salt, epoch]. `step(i, grads)` writes item i's gradients into
    `grads`, which is zeroed first, and returns (loss, correct, total), or
    None to skip the item. The optimizer steps on the trainable arrays every
    `accumulate` items, with their mean gradient. The gradient, the moments
    (`v` for AdamW only), the accumulation buffer and the last-good snapshot
    cover the trainable window only: the layout offsets from the first
    trainable array to the last. A FloatingPointError or a non-finite loss
    raises DivergenceError carrying full-size parameters as they were after
    the last whole epoch, and the report so far. boundary_callback(epoch,
    params) fires after each epoch the learning-rate schedule lists
    (checkpoint hook).
    """
    if epochs < 0:
        raise InvalidInput(f"epochs must be >= 0, got {epochs}")
    start = time.perf_counter()
    lo, hi = flat_window(params, trainable)
    state = init_optimizer(opt_cfg, params, (lo, hi))
    # Reused across items: a fresh buffer per step costs page faults.
    grads = zeros_window(params.layout, lo, hi)
    pending = zeros_window(params.layout, lo, hi) if accumulate > 1 else None
    last_good = params.span(lo, hi).copy()
    history: list[EpochStats] = []

    def diverged(message: str) -> DivergenceError:
        restored = clone_params(params)
        restored.flat[lo:hi] = last_good
        report = TrainReport(history, time.perf_counter() - start, config_digest, seed)
        return DivergenceError(message, params=restored, report=report)

    for epoch in range(epochs):
        order = np.random.default_rng([seed, salt, epoch]).permutation(count)
        losses = []
        correct = total = pending_count = 0
        for i in order:
            grads.flat.fill(0.0)
            try:
                result = step(i, grads)
            except FloatingPointError as exc:
                raise diverged(f"epoch {epoch}: {exc}") from exc
            if result is None:
                continue
            loss, c, t = result
            if not np.isfinite(loss):
                raise diverged(f"non-finite loss at epoch {epoch}")
            losses.append(loss)
            correct += c
            total += t
            if pending is None:
                optimizer_step(state, params, grads, epoch, trainable)
                continue
            if pending_count:
                pending.flat += grads.flat
            else:
                pending.flat[...] = grads.flat
            pending_count += 1
            if pending_count == accumulate:
                pending.flat /= pending_count
                optimizer_step(state, params, pending, epoch, trainable)
                pending_count = 0
        if pending_count:
            pending.flat /= pending_count
            optimizer_step(state, params, pending, epoch, trainable)
        history.append(
            EpochStats(
                epoch=epoch,
                loss=float(np.mean(losses)) if losses else float("nan"),
                masked_accuracy=correct / total if total else 0.0,
                lr=opt_cfg.lr_at(epoch),
            )
        )
        last_good[...] = params.span(lo, hi)
        if boundary_callback is not None and any(b == epoch for b, _ in opt_cfg.schedule):
            boundary_callback(epoch, params)
    return TrainReport(history, time.perf_counter() - start, config_digest, seed)


def pretrain(
    videos: list[VideoRecord],
    vocab,
    model_cfg: ModelConfig,
    mask_spec: MaskSpec,
    loss_kind: str,
    opt_cfg: OptimizerConfig,
    epochs: int,
    seed: int,
    *,
    params: TransformerParams | None = None,
    accumulate: int = 1,
    reduction: str = "mean",
    config_digest: str = "",
    boundary_callback=None,
) -> tuple[TransformerParams, TrainReport]:
    """Masked-step pre-training over a corpus, deterministic in seed.

    Per epoch: seeded video shuffle, one mask per video, forward/loss/
    backward, optimizer step every `accumulate` videos (gradients averaged).
    The steps update the backbone and the main head only; the other heads
    get no gradient here. Masked-step accuracy compares argmax logits against
    the hard weak label. boundary_callback(epoch, params) fires after each
    epoch listed in the learning-rate schedule (checkpoint hook).
    """
    if not videos:
        raise InvalidInput("empty corpus")
    if vocab is not None and len(vocab) != model_cfg.s:
        raise DimensionError(f"model expects {model_cfg.s} labels, vocab has {len(vocab)}")
    for v in videos:
        if v.K > model_cfg.max_positions:
            raise InvalidInput(f"video {v.video_id} has {v.K} clips > capacity")
    if accumulate < 1:
        raise InvalidInput(f"accumulate must be >= 1, got {accumulate}")

    if params is None:
        params = init_params(model_cfg, seed)
    prepared = [MaskedBatch.from_video(v, ()) for v in videos]
    draws = itertools.count()

    def step(vi, grads):
        batch = prepared[vi]
        mask = sample_mask(batch.clip_features.shape[0], mask_spec, next(draws))
        if not mask:
            return None
        batch.mask = mask
        loss, d_logits, trace = batch_loss(params, model_cfg, batch, loss_kind, reduction)
        preds = np.argmax(trace.logits[[trace.offset + i for i in mask]], axis=1)
        wanted = np.array([batch.hard_targets[i] for i in mask])
        model_backward(params, model_cfg, trace, d_logits=d_logits, grads=grads)
        return loss, int((preds == wanted).sum()), len(mask)

    report = _train_epochs(
        params, opt_cfg, backbone_names(params.layout) | {"head_w", "head_b"},
        len(videos), step, epochs, seed, 17, accumulate=accumulate,
        config_digest=config_digest, boundary_callback=boundary_callback,
    )
    return params, report


def run_pretrain_recipe(
    videos,
    vocab,
    model_cfg: ModelConfig,
    mask_spec: MaskSpec,
    loss_kind: str,
    phases: list[tuple[OptimizerConfig, int]],
    seed: int,
    **kwargs,
) -> tuple[TransformerParams, list[TrainReport]]:
    """Chain pre-training phases (e.g. SGD round then AdamW round) over the
    same corpus, carrying parameters forward."""
    params = None
    reports = []
    for phase_idx, (opt_cfg, epochs) in enumerate(phases):
        params, report = pretrain(
            videos, vocab, model_cfg, mask_spec, loss_kind, opt_cfg, epochs,
            seed + phase_idx, params=params, **kwargs,
        )
        reports.append(report)
    return params, reports
