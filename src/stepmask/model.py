"""The step transformer: input projection, mask token, positional encodings,
pre-norm attention blocks, and output heads.

Everything runs in float64 with no dropout, so forward passes are exact
functions of (params, inputs) and the hand-written backward pass can be
checked against finite differences to tight tolerances. Each forward returns
a ForwardTrace caching every intermediate the backward pass needs.

All parameters live in one contiguous float64 buffer, `params.flat`, laid
out by `param_layout(cfg)` as an ordered name -> (offset, shape) table; every
array attribute (`w_in`, `blocks[i].wq`, `forecast_w[i]`, ...) is a view into
it. Cloning, zeroing and gradient accumulation are single array operations,
and the optimizer updates contiguous spans of the buffer. A window
(`window_params`, `zeros_window`) holds only the layout offsets [lo, hi) in
its buffer, so training state can be sized to the arrays that train.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import asdict, dataclass, field, fields

import numpy as np
from scipy.special import erf

from .errors import (
    CapacityError,
    ConfigError,
    DimensionError,
    InvalidInput,
    ParseError,
    TraceError,
)
from .schema import from_json

LN_EPS = 1e-5
INIT_STD = 0.02
FORECAST_SLOTS = 5
CHECKPOINT_MAGIC = b"VTFM"
CHECKPOINT_VERSION = 1

_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


@dataclass
class ModelConfig:
    d_in: int
    d: int
    layers: int
    heads: int
    max_positions: int
    s: int  # label-vocabulary size
    num_tasks: int = 1
    mlp_ratio: float = 4.0
    use_positional: bool = True

    def __post_init__(self):
        if min(self.d_in, self.d, self.layers, self.heads, self.max_positions, self.s, self.num_tasks) < 1:
            raise ConfigError("d_in, d, layers, heads, max_positions, s, num_tasks must be >= 1")
        if self.d % self.heads != 0:
            raise ConfigError(f"hidden width {self.d} not divisible by {self.heads} heads")
        if self.mlp_hidden < 1:
            raise ConfigError("mlp_ratio too small")

    @property
    def mlp_hidden(self) -> int:
        return int(round(self.mlp_ratio * self.d))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return from_json(cls, d)


def desk_preset(d_in: int, s: int, num_tasks: int, max_positions: int = 16) -> ModelConfig:
    """Small default used for fast local experiments."""
    return ModelConfig(
        d_in=d_in, d=64, layers=2, heads=4, max_positions=max_positions,
        s=s, num_tasks=num_tasks,
    )


def full_preset(s: int, num_tasks: int) -> ModelConfig:
    """Full-size configuration: 2 layers, width 768, 12 heads, room for 12
    clip tokens plus the two reserved sequence tokens."""
    return ModelConfig(
        d_in=768, d=768, layers=2, heads=12, max_positions=14,
        s=s, num_tasks=num_tasks,
    )


@dataclass
class BlockParams:
    """One pre-norm block. The key projection carries no bias: a key bias
    shifts every attention score in a row by the same amount, which softmax
    cancels exactly, so the parameter would be functionally dead (and its
    identically-zero gradient direction breaks finite-difference checks)."""

    ln1_gain: np.ndarray
    ln1_bias: np.ndarray
    wq: np.ndarray
    bq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    bv: np.ndarray
    wo: np.ndarray
    bo: np.ndarray
    ln2_gain: np.ndarray
    ln2_bias: np.ndarray
    w_up: np.ndarray
    b_up: np.ndarray
    w_down: np.ndarray
    b_down: np.ndarray


# Ordered name -> (offset, shape) of every parameter array in the flat buffer.
Layout = dict[str, tuple[int, tuple[int, ...]]]


@dataclass
class TransformerParams:
    """Every array is a view into `flat`, one contiguous float64 buffer laid
    out by `layout`. Update arrays in place: an attribute rebound to a new
    array is detached from the buffer that clones, zeroing and the optimizer
    work on.

    `flat` holds the layout offsets [base, base + flat.size): all of them
    unless the parameters are a window, whose other arrays are read-only.
    """

    w_in: np.ndarray
    b_in: np.ndarray
    mask_token: np.ndarray
    cls_token: np.ndarray
    positional: np.ndarray
    blocks: list[BlockParams]
    head_w: np.ndarray
    head_b: np.ndarray
    task_head_w: np.ndarray
    task_head_b: np.ndarray
    order_head_w: np.ndarray
    order_head_b: np.ndarray
    mistake_head_w: np.ndarray
    mistake_head_b: np.ndarray
    forecast_w: list[np.ndarray]
    forecast_b: list[np.ndarray]
    flat: np.ndarray = field(repr=False)
    layout: Layout = field(repr=False)
    base: int = 0

    def span(self, lo: int, hi: int) -> np.ndarray:
        """The buffer at layout offsets [lo, hi)."""
        return self.flat[lo - self.base : hi - self.base]


def param_layout(cfg: ModelConfig) -> Layout:
    """The flat buffer's layout. Its order is the declaration order used
    everywhere: checkpoints, digests and the optimizer's spans."""
    d, h, s = cfg.d, cfg.mlp_hidden, cfg.s
    shapes = {
        "w_in": (cfg.d_in, d), "b_in": (d,), "mask_token": (d,), "cls_token": (d,),
        "positional": (cfg.max_positions, d),
    }
    block = {
        "ln1_gain": (d,), "ln1_bias": (d,), "wq": (d, d), "bq": (d,), "wk": (d, d),
        "wv": (d, d), "bv": (d,), "wo": (d, d), "bo": (d,), "ln2_gain": (d,),
        "ln2_bias": (d,), "w_up": (d, h), "b_up": (h,), "w_down": (h, d), "b_down": (d,),
    }
    for i in range(cfg.layers):
        shapes.update({f"blocks.{i}.{name}": shape for name, shape in block.items()})
    shapes.update({
        "head_w": (d, s), "head_b": (s,),
        "task_head_w": (d, cfg.num_tasks), "task_head_b": (cfg.num_tasks,),
        "order_head_w": (d, 2), "order_head_b": (2,),
        "mistake_head_w": (d, 1), "mistake_head_b": (1,),
    })
    for i in range(FORECAST_SLOTS):
        shapes.update({f"forecast.{i}.w": (d, s + 1), f"forecast.{i}.b": (s + 1,)})
    layout, offset = {}, 0
    for name, shape in shapes.items():
        layout[name] = (offset, shape)
        offset += math.prod(shape)
    return layout


def backbone_names(layout: Layout) -> set[str]:
    """The arrays every task shares: all that the layout lists before
    `head_w`. Every later array belongs to an output head."""
    names = list(layout)
    return set(names[: names.index("head_w")])


def _layout_size(layout: Layout) -> int:
    offset, shape = layout[next(reversed(layout))]
    return offset + math.prod(shape)


def _bind(
    layout: Layout, flat: np.ndarray, base: int = 0, outside: TransformerParams | None = None
) -> TransformerParams:
    """Parameters whose arrays at layout offsets [base, base + flat.size) are
    views into `flat`. Every other array is a read-only view of `outside`'s
    array, or of zeros when `outside` is None."""
    hi = base + flat.size

    def array(name, offset, shape):
        size = math.prod(shape)
        if base <= offset and offset + size <= hi:
            return flat[offset - base : offset - base + size].reshape(shape)
        if offset < hi and offset + size > base:
            raise DimensionError(f"array {name} straddles the window [{base}, {hi})")
        arr = np.broadcast_to(0.0, shape) if outside is None else get_array(outside, name).view()
        arr.flags.writeable = False
        return arr

    view = {name: array(name, offset, shape) for name, (offset, shape) in layout.items()}
    layers = sum(name.endswith(".wq") for name in layout)
    return TransformerParams(
        **{name: arr for name, arr in view.items() if "." not in name},
        blocks=[
            BlockParams(**{f.name: view[f"blocks.{i}.{f.name}"] for f in fields(BlockParams)})
            for i in range(layers)
        ],
        forecast_w=[view[f"forecast.{i}.w"] for i in range(FORECAST_SLOTS)],
        forecast_b=[view[f"forecast.{i}.b"] for i in range(FORECAST_SLOTS)],
        flat=flat,
        layout=layout,
        base=base,
    )


def named_arrays(params: TransformerParams):
    """(name, array) pairs in the layout's order."""
    for name in params.layout:
        yield name, get_array(params, name)


def get_array(params: TransformerParams, name: str) -> np.ndarray:
    if name.startswith("blocks."):
        _, idx, fname = name.split(".")
        return getattr(params.blocks[int(idx)], fname)
    if name.startswith("forecast."):
        _, idx, wb = name.split(".")
        return (params.forecast_w if wb == "w" else params.forecast_b)[int(idx)]
    return getattr(params, name)


def flat_spans(params: TransformerParams, names) -> list[tuple[int, int]]:
    """The (lo, hi) ranges of `params.flat` that hold the named arrays, in
    buffer order, with adjacent arrays merged into one range."""
    spans: list[tuple[int, int]] = []
    for name, (offset, shape) in params.layout.items():
        if name not in names:
            continue
        hi = offset + math.prod(shape)
        if spans and spans[-1][1] == offset:
            spans[-1] = (spans[-1][0], hi)
        else:
            spans.append((offset, hi))
    return spans


def flat_window(params: TransformerParams, names) -> tuple[int, int]:
    """The layout offsets from the start of the first named array to the end
    of the last one (an empty range when no name is in the layout)."""
    spans = flat_spans(params, names)
    return (spans[0][0], spans[-1][1]) if spans else (params.base, params.base)


def zeros_like_params(params: TransformerParams) -> TransformerParams:
    return _bind(params.layout, np.zeros_like(params.flat), params.base)


def zeros_window(layout: Layout, lo: int, hi: int) -> TransformerParams:
    """Zeros over layout offsets [lo, hi), which must bound whole arrays; the
    arrays outside are read-only zeros that take no memory."""
    return _bind(layout, np.zeros(hi - lo), lo)


def window_params(params: TransformerParams, lo: int, hi: int) -> TransformerParams:
    """A copy of `params`' arrays at layout offsets [lo, hi) in a buffer of
    their own; the arrays outside are read-only views of `params`' arrays."""
    return _bind(params.layout, params.span(lo, hi).copy(), lo, params)


def clone_params(params: TransformerParams) -> TransformerParams:
    """A full-size copy, also of a window."""
    return _bind(params.layout, np.concatenate([arr.reshape(-1) for _, arr in named_arrays(params)]))


def params_digest(params: TransformerParams) -> str:
    h = hashlib.sha256()
    for name, arr in named_arrays(params):
        h.update(name.encode())
        h.update(arr.tobytes())
    return h.hexdigest()


# Drawn from N(0, INIT_STD^2) by init_params; layer-norm gains start at 1 and
# every other array (the biases) at 0.
_DRAWN = {
    "w_in", "mask_token", "cls_token", "positional", "wq", "wk", "wv", "wo", "w_up",
    "w_down", "head_w", "task_head_w", "order_head_w", "mistake_head_w", "w",
}


def init_params(cfg: ModelConfig, seed: int) -> TransformerParams:
    """Weights ~ N(0, 0.02^2), biases and layer-norm biases 0, layer-norm
    gains 1; mask/cls tokens drawn like weights. Deterministic in seed: the
    blocks draw first, then the other arrays in layout order."""
    rng = np.random.default_rng([seed, 7])
    layout = param_layout(cfg)
    params = _bind(layout, np.zeros(_layout_size(layout)))
    for name in sorted(layout, key=lambda name: not name.startswith("blocks.")):
        arr = get_array(params, name)
        kind = name.rsplit(".", 1)[-1]
        if kind in _DRAWN:
            arr[...] = rng.normal(0.0, INIT_STD, arr.shape)
        elif kind.endswith("_gain"):
            arr.fill(1.0)
    return params


# --- forward ----------------------------------------------------------------


def gelu(x: np.ndarray) -> np.ndarray:
    # 0.5 * x * (1 + erf(x / sqrt 2)) with two temporaries of x's size, not
    # four: a stacked pass's MLP activations are its largest arrays.
    t = x / _SQRT2
    erf(t, out=t)
    t += 1.0
    out = 0.5 * x
    out *= t
    return out


def gelu_grad(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + erf(x / _SQRT2)) + x * np.exp(-0.5 * x * x) * _INV_SQRT_2PI


def softmax_logits(logits: np.ndarray) -> np.ndarray:
    """Max-subtracted softmax along the last axis."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _layer_norm(x, gain, bias):
    mean = x.mean(axis=-1, keepdims=True)
    xc = x - mean
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    return xhat * gain + bias, xhat, inv


def _layer_norm_backward(dy, xhat, inv, gain):
    dgain = (dy * xhat).sum(axis=0)
    dbias = dy.sum(axis=0)
    dxhat = dy * gain
    dx = inv * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )
    return dx, dgain, dbias


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    """(..., T, D) -> (..., heads, T, D / heads)."""
    *lead, t, d = x.shape
    return x.reshape((*lead, t, heads, d // heads)).swapaxes(-2, -3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    """(..., heads, T, dh) -> (..., T, heads * dh)."""
    *lead, h, t, dh = x.shape
    return x.swapaxes(-2, -3).reshape((*lead, t, h * dh))


@dataclass
class BlockCache:
    x_in: np.ndarray
    a: np.ndarray        # ln1 output
    xhat1: np.ndarray
    inv1: np.ndarray
    q: np.ndarray        # (heads, T, dh)
    k: np.ndarray
    v: np.ndarray
    att: np.ndarray      # (heads, T, T) attention weights
    concat: np.ndarray   # (T, D) merged head outputs
    x_mid: np.ndarray
    m: np.ndarray        # ln2 output
    xhat2: np.ndarray
    inv2: np.ndarray
    pre: np.ndarray      # (T, H) MLP pre-activation
    act: np.ndarray


@dataclass
class ForwardTrace:
    """What a forward pass computed. A single sequence's trace has (T, D)
    hidden rows and the block caches `backward` needs; a stack's has
    (B, T, D) hidden rows and no caches or masked clips."""

    K: int
    T: int
    offset: int
    prepend_cls: bool
    has_task: bool
    mask: tuple[int, ...]
    clips_masked: np.ndarray | None   # (K, D_in), masked rows zeroed
    task_raw: np.ndarray | None
    block_caches: list[BlockCache] = field(repr=False, default_factory=list)
    hidden: np.ndarray | None = None  # (T, D) or (B, T, D)
    logits: np.ndarray | None = None  # (T, S) or (B, T, S)

    @property
    def clip_hidden(self) -> np.ndarray:
        """Hidden states of clip positions only (reserved tokens dropped)."""
        return self.hidden[..., self.offset :, :]

    @property
    def clip_logits(self) -> np.ndarray:
        return self.logits[..., self.offset :, :]


def _block_forward(blk: BlockParams, x_in, heads: int, scale: float, record: bool):
    """One pre-norm block over (..., T, D) tokens: (output, BlockCache), the
    cache None unless `record`. Its intermediates die with the call, so a
    stack holds one block's at a time."""
    a, xhat1, inv1 = _layer_norm(x_in, blk.ln1_gain, blk.ln1_bias)
    q = _split_heads(a @ blk.wq + blk.bq, heads)
    kk = _split_heads(a @ blk.wk, heads)
    v = _split_heads(a @ blk.wv + blk.bv, heads)
    scores = (q @ kk.swapaxes(-1, -2)) * scale
    scores -= scores.max(axis=-1, keepdims=True)
    e = np.exp(scores)
    att = e / e.sum(axis=-1, keepdims=True)
    concat = _merge_heads(att @ v)
    x_mid = x_in + concat @ blk.wo + blk.bo
    m, xhat2, inv2 = _layer_norm(x_mid, blk.ln2_gain, blk.ln2_bias)
    pre = m @ blk.w_up + blk.b_up
    act = gelu(pre)
    out = x_mid + act @ blk.w_down + blk.b_down
    if not record:
        return out, None
    return out, BlockCache(
        x_in=x_in, a=a, xhat1=xhat1, inv1=inv1, q=q, k=kk, v=v, att=att, concat=concat,
        x_mid=x_mid, m=m, xhat2=xhat2, inv2=inv2, pre=pre, act=act,
    )


def forward(
    params: TransformerParams,
    cfg: ModelConfig,
    clip_features: np.ndarray,
    mask_set=(),
    prepend_cls: bool = False,
    task_token: np.ndarray | None = None,
) -> ForwardTrace:
    """Run the transformer over a (partially masked) clip sequence (K, d_in),
    or over a stack (B, K, d_in) of equal-length sequences that share the
    mask and the reserved tokens; a stack's task token is (d_in,), shared,
    or (B, d_in).

    Masked clip tokens are replaced by the learned mask token after input
    projection, so outputs depend on masked positions' indices but never on
    their features. Attention is full and bidirectional.

    Every product of a stack runs per sequence (numpy's stacked matmul makes
    one BLAS call per sequence), so each sequence's hidden rows and logits
    are bitwise those of its own call. Collapsing a stack into one (B·T, D)
    product would round differently: a one-row product is a GEMV, not a
    GEMM. Only a single sequence records the block caches `backward` needs.
    """
    clip_features = np.asarray(clip_features, dtype=np.float64)
    if clip_features.ndim not in (2, 3) or clip_features.shape[-1] != cfg.d_in:
        raise DimensionError(
            f"clip features must be (K, {cfg.d_in}) or (B, K, {cfg.d_in}), "
            f"got {clip_features.shape}"
        )
    lead = clip_features.shape[:-2]
    record = not lead
    k_clips = clip_features.shape[-2]
    if k_clips < 1:
        raise InvalidInput(f"empty clip sequence {clip_features.shape}")
    mask = tuple(sorted(set(int(i) for i in mask_set)))
    if mask and (mask[0] < 0 or mask[-1] >= k_clips):
        raise InvalidInput(f"mask indices {mask} outside [0, {k_clips})")
    offset = int(prepend_cls) + int(task_token is not None)
    t_total = k_clips + offset
    if t_total > cfg.max_positions:
        raise CapacityError(
            f"{k_clips} clips + {offset} reserved tokens exceed capacity "
            f"{cfg.max_positions}"
        )

    tokens = np.empty((*lead, t_total, cfg.d))
    tokens[..., offset:, :] = clip_features @ params.w_in + params.b_in
    clips_masked = clip_features.copy() if record else None
    for i in mask:
        tokens[..., offset + i, :] = params.mask_token
        if record:
            clips_masked[i] = 0.0
    if prepend_cls:
        tokens[..., 0, :] = params.cls_token
    task_raw = None
    if task_token is not None:
        task_raw = np.asarray(task_token, dtype=np.float64)
        if task_raw.shape not in ((cfg.d_in,), (*lead, cfg.d_in)):
            raise DimensionError(
                f"task token must be ({cfg.d_in},) or one per sequence, got {task_raw.shape}"
            )
        # One (1, d_in) row per sequence: a (B, d_in) product would round
        # differently from the single sequence's vector product.
        tokens[..., offset - 1 : offset, :] = task_raw[..., None, :] @ params.w_in + params.b_in
    if cfg.use_positional:
        tokens += params.positional[:t_total]

    trace = ForwardTrace(
        K=k_clips, T=t_total, offset=offset, prepend_cls=prepend_cls,
        has_task=task_token is not None, mask=mask,
        clips_masked=clips_masked, task_raw=task_raw,
    )

    scale = 1.0 / np.sqrt(cfg.d // cfg.heads)
    for li, blk in enumerate(params.blocks):
        tokens, cache = _block_forward(blk, tokens, cfg.heads, scale, record)
        if not np.all(np.isfinite(tokens)):
            raise FloatingPointError(f"non-finite activations after block {li}")
        if record:
            trace.block_caches.append(cache)

    trace.hidden = tokens
    trace.logits = tokens @ params.head_w + params.head_b
    return trace


# --- backward ---------------------------------------------------------------


def _block_backward(blk: BlockParams, cache: BlockCache, d_out, grads_blk, heads: int):
    d_act_out = d_out
    d_act = d_act_out @ blk.w_down.T
    np.matmul(cache.act.T, d_act_out, out=grads_blk.w_down)
    grads_blk.b_down += d_act_out.sum(axis=0)
    d_pre = d_act * gelu_grad(cache.pre)
    d_m = d_pre @ blk.w_up.T
    np.matmul(cache.m.T, d_pre, out=grads_blk.w_up)
    grads_blk.b_up += d_pre.sum(axis=0)

    dx_ln2, dg2, db2 = _layer_norm_backward(d_m, cache.xhat2, cache.inv2, blk.ln2_gain)
    grads_blk.ln2_gain += dg2
    grads_blk.ln2_bias += db2
    d_x_mid = d_out + dx_ln2

    d_attn_out = d_x_mid
    d_concat = d_attn_out @ blk.wo.T
    np.matmul(cache.concat.T, d_attn_out, out=grads_blk.wo)
    grads_blk.bo += d_attn_out.sum(axis=0)

    d_ctx = _split_heads(d_concat, heads)
    d_att = d_ctx @ cache.v.transpose(0, 2, 1)
    d_v = cache.att.transpose(0, 2, 1) @ d_ctx
    d_scores = (d_att - (d_att * cache.att).sum(axis=-1, keepdims=True)) * cache.att
    dh = cache.q.shape[-1]
    d_scores *= 1.0 / np.sqrt(dh)
    d_q = d_scores @ cache.k
    d_k = d_scores.transpose(0, 2, 1) @ cache.q

    d_qc = _merge_heads(d_q)
    d_kc = _merge_heads(d_k)
    d_vc = _merge_heads(d_v)
    a = cache.a
    np.matmul(a.T, d_qc, out=grads_blk.wq)
    grads_blk.bq += d_qc.sum(axis=0)
    np.matmul(a.T, d_kc, out=grads_blk.wk)
    np.matmul(a.T, d_vc, out=grads_blk.wv)
    grads_blk.bv += d_vc.sum(axis=0)
    d_a = d_qc @ blk.wq.T + d_kc @ blk.wk.T + d_vc @ blk.wv.T

    dx_ln1, dg1, db1 = _layer_norm_backward(d_a, cache.xhat1, cache.inv1, blk.ln1_gain)
    grads_blk.ln1_gain += dg1
    grads_blk.ln1_bias += db1
    return d_x_mid + dx_ln1


def backward(
    params: TransformerParams,
    cfg: ModelConfig,
    trace: ForwardTrace,
    d_logits: np.ndarray | None = None,
    d_hidden: np.ndarray | None = None,
    grads: TransformerParams | None = None,
) -> TransformerParams:
    """Exact reverse-mode pass from output-gradients to parameter gradients.

    d_logits is the loss gradient w.r.t. the main head's (T, S) logits;
    d_hidden adds a direct gradient on the (T, D) hidden states (used by the
    auxiliary heads). `grads`, when given, arrives zeroed in every array
    this pass writes: each weight matrix's product goes straight into its
    array (`np.matmul(..., out=)`, no temporary and no read-modify-write).
    The result is that of adding into zeros, up to the sign of a zero entry
    (0.0 + -0.0 is +0.0). The pass never writes the heads other than the
    main head, nor the main head when d_logits is None, so a caller may fill
    those first.
    """
    if trace.hidden is None or len(trace.block_caches) != cfg.layers:
        raise TraceError("forward trace is missing, of a stack, or does not match the config")
    if grads is None:
        grads = zeros_like_params(params)

    dh = np.zeros((trace.T, cfg.d), dtype=np.float64)
    if d_logits is not None:
        np.matmul(trace.hidden.T, d_logits, out=grads.head_w)
        grads.head_b += d_logits.sum(axis=0)
        dh += d_logits @ params.head_w.T
    if d_hidden is not None:
        dh = dh + d_hidden

    for blk, cache, gblk in zip(
        reversed(params.blocks), reversed(trace.block_caches), reversed(grads.blocks)
    ):
        dh = _block_backward(blk, cache, dh, gblk, cfg.heads)

    if cfg.use_positional:
        grads.positional[: trace.T] += dh

    row = 0
    if trace.prepend_cls:
        grads.cls_token += dh[0]
        row += 1
    if trace.has_task:
        grads.w_in += np.outer(trace.task_raw, dh[row])
        grads.b_in += dh[row]
        row += 1

    d_clip_tokens = dh[row:].copy()
    for i in trace.mask:
        grads.mask_token += d_clip_tokens[i]
        d_clip_tokens[i] = 0.0
    if trace.has_task:
        grads.w_in += trace.clips_masked.T @ d_clip_tokens
    else:
        np.matmul(trace.clips_masked.T, d_clip_tokens, out=grads.w_in)
    grads.b_in += d_clip_tokens.sum(axis=0)
    return grads


# --- checkpoints ------------------------------------------------------------


def save_checkpoint(path, params: TransformerParams, cfg: ModelConfig, provenance: dict | None = None):
    """Binary checkpoint plus a JSON sidecar (`<path>.json`) with config and
    provenance. The binary alone determines the checkpoint digest.

    An existing checkpoint at `path` is unlinked, not truncated: ext4 starts
    writing a file that was truncated to zero and rewritten out to disk when
    it is closed, so an in-place overwrite waits on the disk."""
    cfg_bytes = json.dumps(cfg.to_dict(), sort_keys=True).encode("utf-8")
    sidecar_path = str(path) + ".json"
    for stale in (path, sidecar_path):
        try:
            os.unlink(stale)
        except FileNotFoundError:
            pass
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(cfg_bytes)))
        fh.write(cfg_bytes)
        for _, arr in named_arrays(params):
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(np.ascontiguousarray(arr, dtype="<f8"))
    sidecar = {"config": cfg.to_dict(), "provenance": provenance or {}}
    with open(sidecar_path, "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2)
        fh.write("\n")


def load_checkpoint(path) -> tuple[TransformerParams, ModelConfig]:
    """Read a checkpoint straight into a fresh flat buffer. A file that does
    not match the format raises ParseError naming the path and byte offset."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        at = 0

        def fail(message: str, where: int) -> ParseError:
            return ParseError(f"{path}: {message} at byte {where}")

        def read(n: int, what: str, into: np.ndarray | None = None):
            nonlocal at
            if at + n > size:
                raise fail(f"file ends inside {what}", at)
            at += n
            return fh.read(n) if into is None else fh.readinto(memoryview(into).cast("B"))

        magic = read(4, "the magic")
        if magic != CHECKPOINT_MAGIC:
            raise fail(f"bad magic {magic!r}", 0)
        (version,) = struct.unpack("<I", read(4, "the version"))
        if version != CHECKPOINT_VERSION:
            raise fail(f"unsupported version {version}", 4)
        (cfg_len,) = struct.unpack("<I", read(4, "the config length"))
        raw_cfg = read(cfg_len, "the config")
        try:
            cfg = ModelConfig.from_dict(json.loads(raw_cfg.decode("utf-8")))
        except (ValueError, ArithmeticError, ConfigError) as exc:
            raise fail(f"bad model config ({exc})", 12) from exc
        layout = param_layout(cfg)
        flat_size = _layout_size(layout)
        if 8 * flat_size > size - at:
            raise fail(f"file too short for the {flat_size} parameters its config declares", at)
        flat = np.empty(flat_size, dtype="<f8")
        for name, (offset, shape) in layout.items():
            start = at
            (rank,) = struct.unpack("<I", read(4, f"the rank of {name}"))
            dims = struct.unpack(f"<{rank}I", read(4 * rank, f"the shape of {name}"))
            if dims != shape:
                raise fail(f"array {name} has shape {dims}, expected {shape}", start)
            count = math.prod(shape)
            read(8 * count, name, into=flat[offset : offset + count])
        if at != size:
            raise fail(f"{size - at} trailing bytes", at)
    # A no-op on little-endian hosts, where "<f8" is the native float64.
    return _bind(layout, flat.astype(np.float64, copy=False)), cfg


def checkpoint_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()
