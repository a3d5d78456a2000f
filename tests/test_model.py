import json
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stepmask.errors import (
    CapacityError,
    ConfigError,
    DimensionError,
    InvalidInput,
    ParseError,
    StepmaskError,
    TraceError,
)
from mutations import mutated
from stepmask.model import (
    ModelConfig,
    backward,
    checkpoint_digest,
    clone_params,
    desk_preset,
    flat_spans,
    flat_window,
    forward,
    get_array,
    init_params,
    load_checkpoint,
    named_arrays,
    full_preset,
    gelu_grad,
    params_digest,
    save_checkpoint,
    softmax_logits,
    window_params,
    zeros_like_params,
    zeros_window,
    _layer_norm_backward,
    _merge_heads,
    _split_heads,
)


@pytest.fixture(scope="module")
def cfg():
    return ModelConfig(d_in=8, d=16, layers=2, heads=2, max_positions=8, s=7, num_tasks=3)


@pytest.fixture(scope="module")
def params(cfg):
    return init_params(cfg, seed=1)


def random_clips(cfg, k, seed=0):
    return np.random.default_rng(seed).normal(size=(k, cfg.d_in))


class TestConfig:
    def test_head_divisibility(self):
        with pytest.raises(ConfigError):
            ModelConfig(d_in=4, d=10, layers=1, heads=3, max_positions=4, s=2)

    def test_full_preset_shape(self):
        pc = full_preset(s=11, num_tasks=5)
        assert (pc.layers, pc.d, pc.heads) == (2, 768, 12)
        assert pc.max_positions >= 12 + 2


class TestInit:
    def test_deterministic(self, cfg):
        a = init_params(cfg, seed=4)
        b = init_params(cfg, seed=4)
        assert params_digest(a) == params_digest(b)
        assert params_digest(a) != params_digest(init_params(cfg, seed=5))

    def test_shapes(self, cfg, params):
        h = cfg.mlp_hidden
        expected = {
            "w_in": (cfg.d_in, cfg.d),
            "b_in": (cfg.d,),
            "mask_token": (cfg.d,),
            "cls_token": (cfg.d,),
            "positional": (cfg.max_positions, cfg.d),
            "head_w": (cfg.d, cfg.s),
            "head_b": (cfg.s,),
            "task_head_w": (cfg.d, cfg.num_tasks),
            "order_head_w": (cfg.d, 2),
            "mistake_head_w": (cfg.d, 1),
            "forecast.0.w": (cfg.d, cfg.s + 1),
            "blocks.0.wq": (cfg.d, cfg.d),
            "blocks.1.w_up": (cfg.d, h),
            "blocks.1.w_down": (h, cfg.d),
            "blocks.0.ln1_gain": (cfg.d,),
        }
        arrays = dict(named_arrays(params))
        for name, shape in expected.items():
            assert arrays[name].shape == shape, name
        assert np.all(arrays["blocks.0.ln1_gain"] == 1.0)
        assert np.all(arrays["b_in"] == 0.0)

    def test_init_scale(self):
        big = ModelConfig(d_in=128, d=128, layers=1, heads=4, max_positions=4, s=2)
        w = init_params(big, seed=0).w_in
        assert w.size >= 10_000
        assert w.std() == pytest.approx(0.02, abs=0.002)


class TestForward:
    def test_zero_network_logits_equal_head_bias(self, cfg):
        p = init_params(cfg, seed=0)
        for name, arr in named_arrays(p):
            arr[...] = 0.0
        bias = np.arange(cfg.s, dtype=np.float64)
        p.head_b = bias
        trace = forward(p, cfg, random_clips(cfg, 4), mask_set=(1,))
        assert np.array_equal(trace.logits, np.tile(bias, (4, 1)))

    def test_masked_content_discarded_bitwise(self, cfg, params):
        clips = random_clips(cfg, 5, seed=3)
        t1 = forward(params, cfg, clips, mask_set=(1, 3))
        perturbed = clips.copy()
        perturbed[1] += 100.0
        perturbed[3] = -7.0
        t2 = forward(params, cfg, perturbed, mask_set=(1, 3))
        assert np.array_equal(t1.hidden, t2.hidden)
        assert np.array_equal(t1.logits, t2.logits)
        for c1, c2 in zip(t1.block_caches, t2.block_caches):
            for field in vars(c1):
                assert np.array_equal(getattr(c1, field), getattr(c2, field)), field

    def test_permutation_equivariance_without_positional(self, cfg):
        flat_cfg = ModelConfig(
            d_in=8, d=16, layers=2, heads=2, max_positions=8, s=7,
            num_tasks=3, use_positional=False,
        )
        p = init_params(flat_cfg, seed=2)
        clips = random_clips(flat_cfg, 6, seed=4)
        pi = np.random.default_rng(5).permutation(6)
        base = forward(p, flat_cfg, clips)
        permuted = forward(p, flat_cfg, clips[pi])
        np.testing.assert_allclose(permuted.hidden, base.hidden[pi], atol=1e-9)
        np.testing.assert_allclose(permuted.logits, base.logits[pi], atol=1e-9)

    def test_attention_rows_sum_to_one(self, cfg, params):
        trace = forward(params, cfg, random_clips(cfg, 5), prepend_cls=True)
        for cache in trace.block_caches:
            np.testing.assert_allclose(cache.att.sum(axis=-1), 1.0, atol=1e-12)

    def test_hidden_row_count(self, cfg, params):
        task = np.zeros(cfg.d_in)
        trace = forward(params, cfg, random_clips(cfg, 4), prepend_cls=True, task_token=task)
        assert trace.hidden.shape == (6, cfg.d)
        assert trace.offset == 2
        assert trace.clip_hidden.shape == (4, cfg.d)

    def test_capacity_error(self, cfg, params):
        with pytest.raises(CapacityError):
            forward(params, cfg, random_clips(cfg, 8), prepend_cls=True)

    def test_dimension_error(self, cfg, params):
        with pytest.raises(DimensionError):
            forward(params, cfg, np.zeros((3, cfg.d_in + 1)))

    def test_mask_bounds(self, cfg, params):
        with pytest.raises(InvalidInput):
            forward(params, cfg, random_clips(cfg, 3), mask_set=(3,))

    @pytest.mark.parametrize("shape", [(0,), (2, 0)], ids=["single", "stack"])
    @pytest.mark.parametrize("prepend_cls", [False, True])
    def test_empty_clip_sequence_rejected(self, cfg, params, shape, prepend_cls):
        with pytest.raises(InvalidInput, match="empty clip sequence"):
            forward(params, cfg, np.zeros((*shape, cfg.d_in)), prepend_cls=prepend_cls)


# Two widths whose one- and two-token products BLAS rounds differently when a
# stack is collapsed into one (B·T, D) product.
STACK_CONFIGS = {
    "desk": desk_preset(d_in=12, s=9, num_tasks=3),
    "d96": ModelConfig(d_in=10, d=96, layers=2, heads=3, max_positions=12, s=7, num_tasks=2),
}


@pytest.fixture(scope="module")
def stack_params():
    # Weights well above init scale, so attention and the MLP are far from
    # their near-uniform, near-linear start.
    out = {}
    for name, cfg in STACK_CONFIGS.items():
        p = init_params(cfg, seed=3)
        p.flat[...] = np.random.default_rng(4).normal(0.0, 0.2, p.flat.size)
        out[name] = p
    return out


class TestStackedForward:
    @pytest.mark.parametrize("width", sorted(STACK_CONFIGS))
    @settings(max_examples=40, deadline=None)
    @given(
        b=st.integers(1, 9), k=st.integers(1, 8), mask_bits=st.integers(0, 255),
        prepend_cls=st.booleans(), task=st.sampled_from(["none", "shared", "per_row"]),
        seed=st.integers(0, 2**16),
    )
    @example(b=9, k=1, mask_bits=0, prepend_cls=False, task="none", seed=0)
    @example(b=9, k=1, mask_bits=1, prepend_cls=False, task="per_row", seed=1)
    @example(b=9, k=2, mask_bits=0, prepend_cls=False, task="none", seed=2)
    @example(b=9, k=2, mask_bits=2, prepend_cls=True, task="shared", seed=3)
    @example(b=9, k=1, mask_bits=0, prepend_cls=True, task="per_row", seed=4)
    def test_stack_is_bitwise_per_sequence_calls(
        self, stack_params, width, b, k, mask_bits, prepend_cls, task, seed
    ):
        cfg, params = STACK_CONFIGS[width], stack_params[width]
        rng = np.random.default_rng(seed)
        clips = rng.normal(size=(b, k, cfg.d_in))
        mask = tuple(i for i in range(k) if mask_bits >> i & 1)
        tokens = {"none": None, "shared": rng.normal(size=cfg.d_in),
                  "per_row": rng.normal(size=(b, cfg.d_in))}[task]
        stacked = forward(params, cfg, clips, mask, prepend_cls, tokens)
        assert stacked.hidden.shape == (b, stacked.T, cfg.d)
        assert stacked.block_caches == [] and stacked.clips_masked is None
        for j in range(b):
            token = tokens[j] if task == "per_row" else tokens
            one = forward(params, cfg, clips[j], mask, prepend_cls, token)
            assert stacked.hidden[j].tobytes() == one.hidden.tobytes(), j
            assert stacked.logits[j].tobytes() == one.logits.tobytes(), j
        with pytest.raises(TraceError):
            backward(params, cfg, stacked, d_logits=np.zeros_like(stacked.logits))

    def test_stack_rejects_a_task_token_of_another_batch(self, cfg, params):
        with pytest.raises(DimensionError):
            forward(params, cfg, np.zeros((3, 2, cfg.d_in)), task_token=np.zeros((2, cfg.d_in)))
        with pytest.raises(DimensionError):
            forward(params, cfg, np.zeros((2, 3, 2, cfg.d_in)))


def accumulating_backward(params, cfg, trace, d_logits=None, d_hidden=None):
    """The backward pass as it was before weight gradients were written in
    place: every gradient, weight matrices included, added into zeros. The
    reference `backward` must equal."""
    grads = zeros_like_params(params)
    dh = np.zeros((trace.T, cfg.d))
    if d_logits is not None:
        grads.head_w += trace.hidden.T @ d_logits
        grads.head_b += d_logits.sum(axis=0)
        dh += d_logits @ params.head_w.T
    if d_hidden is not None:
        dh = dh + d_hidden
    for blk, cache, g in zip(
        reversed(params.blocks), reversed(trace.block_caches), reversed(grads.blocks)
    ):
        d_act = dh @ blk.w_down.T
        g.w_down += cache.act.T @ dh
        g.b_down += dh.sum(axis=0)
        d_pre = d_act * gelu_grad(cache.pre)
        d_m = d_pre @ blk.w_up.T
        g.w_up += cache.m.T @ d_pre
        g.b_up += d_pre.sum(axis=0)
        dx_ln2, dg2, db2 = _layer_norm_backward(d_m, cache.xhat2, cache.inv2, blk.ln2_gain)
        g.ln2_gain += dg2
        g.ln2_bias += db2
        d_x_mid = dh + dx_ln2
        d_concat = d_x_mid @ blk.wo.T
        g.wo += cache.concat.T @ d_x_mid
        g.bo += d_x_mid.sum(axis=0)
        d_ctx = _split_heads(d_concat, cfg.heads)
        d_att = d_ctx @ cache.v.transpose(0, 2, 1)
        d_v = cache.att.transpose(0, 2, 1) @ d_ctx
        d_scores = (d_att - (d_att * cache.att).sum(axis=-1, keepdims=True)) * cache.att
        d_scores *= 1.0 / np.sqrt(cache.q.shape[-1])
        d_q = d_scores @ cache.k
        d_k = d_scores.transpose(0, 2, 1) @ cache.q
        d_qc, d_kc, d_vc = _merge_heads(d_q), _merge_heads(d_k), _merge_heads(d_v)
        g.wq += cache.a.T @ d_qc
        g.bq += d_qc.sum(axis=0)
        g.wk += cache.a.T @ d_kc
        g.wv += cache.a.T @ d_vc
        g.bv += d_vc.sum(axis=0)
        d_a = d_qc @ blk.wq.T + d_kc @ blk.wk.T + d_vc @ blk.wv.T
        dx_ln1, dg1, db1 = _layer_norm_backward(d_a, cache.xhat1, cache.inv1, blk.ln1_gain)
        g.ln1_gain += dg1
        g.ln1_bias += db1
        dh = d_x_mid + dx_ln1
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
    grads.w_in += trace.clips_masked.T @ d_clip_tokens
    grads.b_in += d_clip_tokens.sum(axis=0)
    return grads


class TestBackwardInPlace:
    @pytest.mark.parametrize("width", sorted(STACK_CONFIGS))
    @settings(max_examples=40, deadline=None)
    @given(
        k=st.integers(1, 8), mask_bits=st.integers(0, 255), prepend_cls=st.booleans(),
        task=st.booleans(), outputs=st.sampled_from(["logits", "hidden", "both"]),
        seed=st.integers(0, 2**16),
    )
    @example(k=1, mask_bits=1, prepend_cls=False, task=False, outputs="logits", seed=0)
    @example(k=3, mask_bits=5, prepend_cls=True, task=True, outputs="both", seed=1)
    def test_equals_accumulating_into_zeros(
        self, stack_params, width, k, mask_bits, prepend_cls, task, outputs, seed
    ):
        cfg, params = STACK_CONFIGS[width], stack_params[width]
        rng = np.random.default_rng(seed)
        mask = tuple(i for i in range(k) if mask_bits >> i & 1)
        token = rng.normal(size=cfg.d_in) if task else None
        trace = forward(params, cfg, rng.normal(size=(k, cfg.d_in)), mask, prepend_cls, token)
        d_logits = rng.normal(size=trace.logits.shape) if outputs != "hidden" else None
        d_hidden = rng.normal(size=trace.hidden.shape) if outputs != "logits" else None
        expected = accumulating_backward(params, cfg, trace, d_logits, d_hidden)
        into = zeros_like_params(params)
        assert backward(params, cfg, trace, d_logits, d_hidden, grads=into) is into
        for (name, got), (_, want) in zip(named_arrays(into), named_arrays(expected)):
            assert np.array_equal(got, want), name
        for (name, got), (_, want) in zip(
            named_arrays(backward(params, cfg, trace, d_logits, d_hidden)), named_arrays(expected)
        ):
            assert np.array_equal(got, want), name


class TestSoftmaxLogits:
    def test_uniform(self):
        assert softmax_logits(np.zeros(4)) == pytest.approx([0.25] * 4)

    def test_closed_form(self):
        out = softmax_logits(np.array([np.log(2.0), 0.0]))
        assert out == pytest.approx([2 / 3, 1 / 3], abs=1e-12)

    def test_shift_invariance(self):
        z = np.array([0.3, -1.2, 4.0])
        np.testing.assert_allclose(softmax_logits(z), softmax_logits(z + 123.0), atol=1e-12)


class TestBackwardStructure:
    def test_zero_output_grad_gives_zero_param_grads(self, cfg, params):
        trace = forward(params, cfg, random_clips(cfg, 4), mask_set=(0,))
        grads = backward(params, cfg, trace, d_logits=np.zeros_like(trace.logits))
        for name, arr in named_arrays(grads):
            assert not arr.any(), name

    def test_grad_linearity_is_exact(self, cfg, params):
        trace = forward(params, cfg, random_clips(cfg, 4), mask_set=(1, 2))
        d = np.random.default_rng(6).normal(size=trace.logits.shape)
        g1 = backward(params, cfg, trace, d_logits=d)
        g2 = backward(params, cfg, trace, d_logits=2.0 * d)
        for (name, a), (_, b) in zip(named_arrays(g1), named_arrays(g2)):
            assert np.array_equal(2.0 * a, b), name

    def test_mask_token_gradient_accumulates_only_when_masked(self, cfg, params):
        clips = random_clips(cfg, 4)
        trace = forward(params, cfg, clips)
        d = np.ones_like(trace.logits)
        grads = backward(params, cfg, trace, d_logits=d)
        assert not grads.mask_token.any()
        trace = forward(params, cfg, clips, mask_set=(2,))
        grads = backward(params, cfg, trace, d_logits=d)
        assert grads.mask_token.any()


class TestCheckpoint:
    def test_round_trip(self, cfg, params, tmp_path):
        path = tmp_path / "model.vtfm"
        save_checkpoint(path, params, cfg, provenance={"note": "test"})
        loaded, loaded_cfg = load_checkpoint(path)
        assert loaded_cfg == cfg
        assert params_digest(loaded) == params_digest(params)
        sidecar = (tmp_path / "model.vtfm.json").read_text()
        assert "note" in sidecar

    def test_digest_is_content_addressed(self, cfg, params, tmp_path):
        a = tmp_path / "a.vtfm"
        b = tmp_path / "b.vtfm"
        save_checkpoint(a, params, cfg, provenance={"when": "now"})
        save_checkpoint(b, params, cfg, provenance={"when": "later"})
        assert checkpoint_digest(a) == checkpoint_digest(b)

    def test_save_replaces_rather_than_rewrites(self, cfg, params, tmp_path):
        # A reader of the old checkpoint keeps its bytes: the file is
        # unlinked and created anew, not truncated and rewritten in place.
        path = tmp_path / "model.vtfm"
        save_checkpoint(path, params, cfg, provenance={"when": "now"})
        old = path.read_bytes()
        other = init_params(cfg, seed=2)
        with open(path, "rb") as reader:
            save_checkpoint(path, other, cfg, provenance={"when": "later"})
            assert reader.read() == old
        loaded, _ = load_checkpoint(path)
        assert params_digest(loaded) == params_digest(other)
        assert "later" in (tmp_path / "model.vtfm.json").read_text()

    def test_full_preset_round_trips(self, tmp_path):
        pc = full_preset(s=9, num_tasks=4)
        p = init_params(pc, seed=0)
        path = tmp_path / "paper.vtfm"
        save_checkpoint(path, p, pc)
        loaded, loaded_cfg = load_checkpoint(path)
        assert loaded_cfg == pc
        assert params_digest(loaded) == params_digest(p)


def _with_config(data: bytes, **changes) -> bytes:
    """A checkpoint's bytes with its embedded config JSON edited."""
    (cfg_len,) = struct.unpack_from("<I", data, 8)
    raw = json.dumps({**json.loads(data[12 : 12 + cfg_len]), **changes}).encode()
    return data[:8] + struct.pack("<I", len(raw)) + raw + data[12 + cfg_len :]


class TestCheckpointErrors:
    @pytest.mark.parametrize(
        "damage, match",
        [
            (lambda b: b[:6], "file ends inside the version at byte 4"),
            (lambda b: b[:10], "file ends inside the config length at byte 8"),
            (lambda b: b[:40], "file ends inside the config at byte 12"),
            (lambda b: b[:-100], "file ends inside forecast.4.w at byte"),
            (lambda b: _with_config(b, bogus=1), "bad model config .*bogus.* at byte 12"),
            (lambda b: b"VTFN" + b[4:], "bad magic b'VTFN' at byte 0"),
            (lambda b: _with_config(b, s=6), r"array head_w has shape \(16, 7\), expected \(16, 6\)"),
            (lambda b: _with_config(b, d=32), "file too short for the .* parameters"),
            (lambda b: b + b"\0", "1 trailing bytes at byte"),
            (lambda b: _with_config(b, layers=2.0), r"bad model config \(layers: expected int, got 2.0\)"),
            (lambda b: _with_config(b, heads=True), r"bad model config \(heads: expected int, got True\)"),
            (lambda b: _with_config(b, use_positional="no"), "bad model config .*use_positional: expected bool"),
        ],
        ids=[
            "cut_6", "cut_10", "cut_in_config", "missing_last_100", "unknown_config_key",
            "bad_magic", "config_shape_mismatch", "config_too_big", "trailing_byte",
            "float_layers", "bool_heads", "string_use_positional",
        ],
    )
    def test_damaged_file_raises_parse_error(self, cfg, params, tmp_path, damage, match):
        path = tmp_path / "model.vtfm"
        save_checkpoint(path, params, cfg)
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(ParseError, match=f"model.vtfm: {match}"):
            load_checkpoint(path)
        with pytest.raises(ParseError, match=r"at byte \d+$"):
            load_checkpoint(path)


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    # Small enough that headers and shapes are a good share of the bytes.
    cfg = ModelConfig(d_in=2, d=2, layers=1, heads=1, max_positions=2, s=2, num_tasks=1)
    path = tmp_path_factory.mktemp("fuzzed_checkpoint") / "model.vtfm"
    save_checkpoint(path, init_params(cfg, seed=0), cfg)
    return path, path.read_bytes()


class TestCheckpointFuzz:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutated_checkpoint_loads_or_names_the_byte(self, tiny_checkpoint, data):
        original, raw = tiny_checkpoint
        path = original.with_name("mutated.vtfm")
        path.write_bytes(data.draw(mutated(raw), label="contents"))
        try:
            load_checkpoint(path)
        except StepmaskError as exc:
            assert re.fullmatch(rf"{re.escape(str(path))}: .* at byte \d+", str(exc), re.S), str(exc)


class TestParamContainers:
    def test_clone_is_independent(self, cfg, params):
        c = clone_params(params)
        assert params_digest(c) == params_digest(params)
        c.w_in += 1.0
        assert params_digest(c) != params_digest(params)

    def test_zeros_like_covers_all_arrays(self, cfg, params):
        z = zeros_like_params(params)
        names_p = [n for n, _ in named_arrays(params)]
        names_z = [n for n, _ in named_arrays(z)]
        assert names_p == names_z
        for name, arr in named_arrays(z):
            assert not arr.any()
            assert arr.shape == get_array(params, name).shape

    def test_window_holds_its_span_and_reads_the_rest(self, cfg, params):
        lo, hi = flat_window(params, {"order_head_w", "mistake_head_b"})
        assert (lo, hi) == (params.layout["order_head_w"][0], params.layout["forecast.0.w"][0])
        window = window_params(params, lo, hi)
        assert (window.base, window.flat.size) == (lo, hi - lo)
        assert not np.shares_memory(window.flat, params.flat)
        for name, (offset, _) in params.layout.items():
            arr = get_array(window, name)
            assert np.array_equal(arr, get_array(params, name)), name
            assert arr.flags.writeable == (lo <= offset < hi), name
        window.mistake_head_b[...] = 7.0
        full = clone_params(window)
        assert full.base == 0 and full.flat.size == params.flat.size
        assert full.flat[window.layout["mistake_head_b"][0]] == 7.0
        window.mistake_head_b[...] = params.mistake_head_b
        assert clone_params(window).flat.tobytes() == params.flat.tobytes()

    def test_zeros_window_takes_no_memory_outside(self, params):
        lo, hi = flat_window(params, {"head_w", "head_b"})
        z = zeros_window(params.layout, lo, hi)
        assert z.flat.size == hi - lo
        assert z.w_in.strides == (0, 0) and not z.w_in.flags.writeable
        assert np.shares_memory(z.head_b, z.span(*flat_spans(params, {"head_b"})[0]))
        with pytest.raises(DimensionError, match="straddles"):
            zeros_window(params.layout, lo + 1, hi)

    def test_every_array_is_a_view_of_flat(self, cfg, params, tmp_path):
        path = tmp_path / "model.vtfm"
        save_checkpoint(path, params, cfg)
        built = {
            "init_params": init_params(cfg, seed=3),
            "clone_params": clone_params(params),
            "zeros_like_params": zeros_like_params(params),
            "load_checkpoint": load_checkpoint(path)[0],
        }
        for how, p in built.items():
            assert p.flat.dtype == np.float64 and p.flat.flags.c_contiguous, how
            for name, (offset, shape) in p.layout.items():
                arr = get_array(p, name)
                assert arr.shape == shape, (how, name)
                assert np.shares_memory(arr, p.flat[offset : offset + arr.size]), (how, name)
            assert sum(a.size for _, a in named_arrays(p)) == p.flat.size, how
