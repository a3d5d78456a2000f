import multiprocessing
import sys
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import stepmask.training as training
from stepmask.corpus import CorpusConfig, generate_corpus
from stepmask.errors import DimensionError, DivergenceError, InvalidInput, InvalidTarget
from stepmask.model import (
    ModelConfig,
    clone_params,
    flat_spans,
    flat_window,
    forward,
    get_array,
    init_params,
    named_arrays,
    params_digest,
    softmax_logits,
    zeros_like_params,
    zeros_window,
)
from stepmask.training import (
    MaskSpec,
    MaskedBatch,
    OPT_CHUNK,
    OptimizerConfig,
    backward,
    batch_loss,
    distribution_matching_loss,
    grad_check,
    gradient_audit_setup,
    init_optimizer,
    optimizer_step,
    pretrain,
    run_gradient_audit,
    sample_mask,
    step_classification_loss,
    truncated_binomial_mean,
    _train_epochs,
)
from stepmask.weaklabel import LabelDistribution, truncate_topk


@pytest.fixture(scope="module")
def cfg():
    return ModelConfig(d_in=8, d=16, layers=2, heads=2, max_positions=8, s=7, num_tasks=2)


@pytest.fixture(scope="module")
def params(cfg):
    return init_params(cfg, seed=1)


def rand_dist(rng, s, k):
    p = rng.random(s)
    p /= p.sum()
    return truncate_topk(p, k)


def make_batch(cfg, k=4, mask=(1, 3), seed=0):
    rng = np.random.default_rng(seed)
    return MaskedBatch(
        clip_features=rng.normal(size=(k, cfg.d_in)),
        hard_targets={i: int(rng.integers(cfg.s)) for i in range(k)},
        dist_targets={i: rand_dist(rng, cfg.s, 4) for i in range(k)},
        mask=tuple(mask),
    )


class TestSampleMask:
    def test_full_ratio_masks_everything(self):
        assert sample_mask(5, MaskSpec(ratio=1.0, seed=0), draw=0) == (0, 1, 2, 3, 4)

    def test_deterministic(self):
        spec = MaskSpec(ratio=0.3, seed=9)
        assert sample_mask(10, spec, draw=5) == sample_mask(10, spec, draw=5)
        assert sample_mask(10, spec, draw=5) != sample_mask(10, spec, draw=6) or True

    def test_resample_if_empty_mean(self):
        # zero-truncated binomial mean, checked by Monte Carlo
        spec = MaskSpec(ratio=0.15, seed=2, resample_if_empty=True)
        draws = 20_000
        sizes = [len(sample_mask(12, spec, d)) for d in range(draws)]
        expected = truncated_binomial_mean(12, 0.15)
        assert expected == pytest.approx(2.0985, abs=1e-3)
        assert np.mean(sizes) == pytest.approx(expected, abs=0.05)
        assert min(sizes) >= 1

    def test_no_resample_allows_empty(self):
        spec = MaskSpec(ratio=0.01, seed=3, resample_if_empty=False)
        sizes = {len(sample_mask(3, spec, d)) for d in range(200)}
        assert 0 in sizes

    def test_ratio_validated(self):
        with pytest.raises(InvalidInput):
            MaskSpec(ratio=0.0)
        with pytest.raises(InvalidInput):
            MaskSpec(ratio=1.1)


class TestStepClassificationLoss:
    def test_perfect_prediction_zero_loss(self, cfg, params):
        batch = make_batch(cfg)
        trace = forward(params, cfg, batch.clip_features, mask_set=batch.mask)
        trace.logits = np.zeros_like(trace.logits)
        for i in batch.mask:
            trace.logits[trace.offset + i, batch.hard_targets[i]] = 1000.0
        loss, grad = step_classification_loss(trace, batch.hard_targets, batch.mask)
        assert loss == 0.0
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    def test_uniform_logits_log4(self):
        cfg4 = ModelConfig(d_in=4, d=8, layers=1, heads=2, max_positions=4, s=4)
        p = init_params(cfg4, seed=0)
        trace = forward(p, cfg4, np.zeros((2, 4)), mask_set=(0,))
        trace.logits = np.zeros_like(trace.logits)
        loss, _ = step_classification_loss(trace, {0: 1}, (0,))
        assert loss == pytest.approx(np.log(4.0), abs=1e-12)

    def test_two_positions_target_prob_one_over_e(self, cfg, params):
        batch = make_batch(cfg, mask=(0, 2))
        trace = forward(params, cfg, batch.clip_features, mask_set=batch.mask)
        trace.logits = np.zeros_like(trace.logits)
        c = np.log((np.e - 1.0) / (cfg.s - 1.0))
        for i in batch.mask:
            row = np.full(cfg.s, c)
            row[batch.hard_targets[i]] = 0.0
            trace.logits[trace.offset + i] = row
        loss, _ = step_classification_loss(trace, batch.hard_targets, batch.mask)
        assert loss == pytest.approx(1.0, abs=1e-12)

    def test_sum_reduction(self, cfg, params):
        batch = make_batch(cfg)
        trace = forward(params, cfg, batch.clip_features, mask_set=batch.mask)
        mean_loss, mean_grad = step_classification_loss(trace, batch.hard_targets, batch.mask)
        sum_loss, sum_grad = step_classification_loss(
            trace, batch.hard_targets, batch.mask, reduction="sum"
        )
        assert sum_loss == pytest.approx(mean_loss * len(batch.mask), rel=1e-12)
        np.testing.assert_allclose(sum_grad, mean_grad * len(batch.mask), atol=1e-15)

    def test_missing_target(self, cfg, params):
        batch = make_batch(cfg)
        trace = forward(params, cfg, batch.clip_features, mask_set=batch.mask)
        with pytest.raises(InvalidTarget):
            step_classification_loss(trace, {}, batch.mask)

    def test_empty_mask_rejected(self, cfg, params):
        trace = forward(params, cfg, make_batch(cfg).clip_features)
        with pytest.raises(InvalidInput):
            step_classification_loss(trace, {0: 0}, ())

    def test_gradient_zero_at_unmasked_positions(self, cfg, params):
        batch = make_batch(cfg, mask=(1,))
        trace = forward(params, cfg, batch.clip_features, mask_set=batch.mask)
        _, grad = step_classification_loss(trace, batch.hard_targets, batch.mask)
        masked_row = trace.offset + 1
        for row in range(grad.shape[0]):
            if row != masked_row:
                assert not grad[row].any()


@pytest.mark.parametrize("reduction", ["meen", "none", "MEAN", ""])
@pytest.mark.parametrize("loss_kind", ["sc", "dm"])
def test_unknown_reduction_rejected(cfg, params, loss_kind, reduction):
    with pytest.raises(InvalidInput, match="reduction"):
        batch_loss(params, cfg, make_batch(cfg), loss_kind, reduction=reduction)


class TestDistributionMatchingLoss:
    def test_zero_when_prediction_matches_target(self, cfg, params):
        batch = make_batch(cfg)
        trace = forward(params, cfg, batch.clip_features, mask_set=batch.mask)
        targets = {
            i: softmax_logits(trace.logits[trace.offset + i]) for i in batch.mask
        }
        loss, grad = distribution_matching_loss(trace, targets, batch.mask)
        assert abs(loss) <= 1e-9
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    def test_closed_form_ln2(self, cfg, params):
        cfg2 = ModelConfig(d_in=4, d=8, layers=1, heads=2, max_positions=4, s=2)
        p = init_params(cfg2, seed=0)
        trace = forward(p, cfg2, np.zeros((2, 4)), mask_set=(0,))
        trace.logits = np.zeros_like(trace.logits)  # q = [0.5, 0.5]
        target = LabelDistribution(entries=((0, 1.0),), k=1)
        loss, _ = distribution_matching_loss(trace, {0: target}, (0,))
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)

    def test_nonnegative_on_random_instances(self, cfg, params):
        rng = np.random.default_rng(7)
        for _ in range(200):
            batch = make_batch(cfg, seed=int(rng.integers(1 << 30)))
            trace = forward(params, cfg, batch.clip_features, mask_set=batch.mask)
            dm, _ = distribution_matching_loss(trace, batch.dist_targets, batch.mask)
            sc, _ = step_classification_loss(trace, batch.hard_targets, batch.mask)
            assert dm >= 0.0
            assert sc >= 0.0

    def test_equals_sc_for_one_hot_targets(self, cfg, params):
        rng = np.random.default_rng(8)
        for _ in range(200):
            batch = make_batch(cfg, seed=int(rng.integers(1 << 30)))
            one_hot = {
                i: LabelDistribution(entries=((batch.hard_targets[i], 1.0),), k=1)
                for i in batch.mask
            }
            trace = forward(params, cfg, batch.clip_features, mask_set=batch.mask)
            dm, dm_grad = distribution_matching_loss(trace, one_hot, batch.mask)
            sc, sc_grad = step_classification_loss(trace, batch.hard_targets, batch.mask)
            assert dm == pytest.approx(sc, abs=1e-9)
            np.testing.assert_allclose(dm_grad, sc_grad, atol=1e-12)


class TestBackward:
    def test_zero_loss_gradient_zero_param_grads(self, cfg, params):
        batch = make_batch(cfg)
        trace = forward(params, cfg, batch.clip_features, mask_set=batch.mask)
        batch.dist_targets = {
            i: softmax_logits(trace.logits[trace.offset + i]) for i in batch.mask
        }
        _, grads = backward(params, cfg, batch, "dm")
        for name, arr in named_arrays(grads):
            np.testing.assert_allclose(arr, 0.0, atol=1e-12, err_msg=name)

    def test_gradients_match_finite_differences(self, cfg, params):
        batch = make_batch(cfg)
        err_sc = grad_check(params, cfg, batch, "sc", epsilon=3e-5, coords_per_array=40)
        err_dm = grad_check(params, cfg, batch, "dm", epsilon=3e-5, coords_per_array=40)
        # raw init has tiny attention-path gradients, so tolerance is loose here;
        # the tight bound runs at the audit point (test_audit_point below)
        assert err_sc < 1e-3
        assert err_dm < 1e-3

    def test_audit_point(self):
        params, model_cfg, batch = gradient_audit_setup()
        err = grad_check(params, model_cfg, batch, "sc", epsilon=3e-5, coords_per_array=60)
        assert err < 1e-5

    def test_epsilon_halving_stability(self):
        params, model_cfg, batch = gradient_audit_setup()
        base = grad_check(params, model_cfg, batch, "sc", epsilon=3e-5, coords_per_array=25)
        halved = grad_check(params, model_cfg, batch, "sc", epsilon=1.5e-5, coords_per_array=25)
        assert halved <= 10 * max(base, 1e-8)


class TestOptimizer:
    def _single_param_setup(self):
        cfg = ModelConfig(d_in=2, d=4, layers=1, heads=1, max_positions=2, s=2)
        params = init_params(cfg, seed=0)
        grads = init_params(cfg, seed=0)
        for _, arr in named_arrays(grads):
            arr[...] = 0.0
        return cfg, params, grads

    def test_sgd_hand_values(self):
        _, params, grads = self._single_param_setup()
        params.head_b[...] = 1.0
        grads.head_b[...] = 0.5
        state = init_optimizer(OptimizerConfig(kind="sgd_momentum", lr=0.1, momentum=0.0), params)
        optimizer_step(state, params, grads, epoch=0)
        assert params.head_b == pytest.approx([0.95, 0.95])

    def test_zero_grads_leave_params(self):
        _, params, grads = self._single_param_setup()
        before = params_digest(params)
        state = init_optimizer(OptimizerConfig(kind="sgd_momentum", lr=0.1), params)
        optimizer_step(state, params, grads, epoch=0)
        assert params_digest(params) == before

    def test_schedule(self):
        opt = OptimizerConfig(kind="adamw", lr=0.01, schedule=[(2, 0.1)])
        assert opt.lr_at(1) == pytest.approx(0.01)
        assert opt.lr_at(2) == pytest.approx(0.001)
        assert opt.lr_at(5) == pytest.approx(0.001)
        stacked = OptimizerConfig(kind="adamw", lr=0.01, schedule=[(15, 0.1), (19, 0.1)])
        assert stacked.lr_at(19) == pytest.approx(0.0001)

    def test_adamw_first_step_bias_correction(self):
        _, params, grads = self._single_param_setup()
        params.head_b[...] = 1.0
        grads.head_b[...] = 0.5
        opt = OptimizerConfig(kind="adamw", lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8)
        state = init_optimizer(opt, params)
        optimizer_step(state, params, grads, epoch=0)
        # m_hat = g, v_hat = g^2 at t=1, so the step is lr * g / (|g| + eps)
        expected = 1.0 - 0.1 * 0.5 / (0.5 + 1e-8)
        assert params.head_b == pytest.approx([expected, expected])

    def test_weight_decay_decoupled(self):
        _, params, grads = self._single_param_setup()
        params.head_b[...] = 2.0
        state = init_optimizer(
            OptimizerConfig(kind="sgd_momentum", lr=0.1, momentum=0.0, weight_decay=0.1),
            params,
        )
        optimizer_step(state, params, grads, epoch=0)
        assert params.head_b == pytest.approx([2.0 - 0.1 * 0.1 * 2.0] * 2)

    def test_trainable_filter_bit_exact(self):
        _, params, grads = self._single_param_setup()
        for _, arr in named_arrays(grads):
            arr[...] = 1.0
        before = {n: a.copy() for n, a in named_arrays(params)}
        state = init_optimizer(
            OptimizerConfig(kind="sgd_momentum", lr=0.1, weight_decay=0.5), params
        )
        optimizer_step(state, params, grads, epoch=0, trainable={"head_w", "head_b"})
        for name, arr in named_arrays(params):
            if name in ("head_w", "head_b"):
                assert not np.array_equal(arr, before[name])
            else:
                assert np.array_equal(arr, before[name]), name


def reference_steps(opt, params, grad_steps, trainable):
    """The per-array update, each whole-array expression at once: the
    reference the chunked flat optimizer_step must equal bit for bit.
    Returns the (m, v) buffers by array name."""
    m = {name: np.zeros_like(arr) for name, arr in named_arrays(params)}
    v = {name: np.zeros_like(arr) for name, arr in named_arrays(params)}
    for t, grads in enumerate(grad_steps, start=1):
        lr = opt.lr_at(t - 1)
        for name, p in named_arrays(params):
            if trainable is not None and name not in trainable:
                continue
            g = get_array(grads, name)
            if opt.kind == "sgd_momentum":
                buf = m[name]
                buf *= opt.momentum
                buf += g
                p -= lr * (buf + opt.weight_decay * p)
            else:
                m[name] *= opt.beta1
                m[name] += (1.0 - opt.beta1) * g
                v[name] *= opt.beta2
                v[name] += (1.0 - opt.beta2) * g * g
                m_hat = m[name] / (1.0 - opt.beta1**t)
                v_hat = v[name] / (1.0 - opt.beta2**t)
                p -= lr * (m_hat / (np.sqrt(v_hat) + opt.eps) + opt.weight_decay * p)
    return m, v


# blocks.0.w_up and blocks.0.w_down (96 x 384) each hold more than one chunk.
CHUNKED_CFG = ModelConfig(d_in=8, d=96, layers=1, heads=2, max_positions=4, s=5, num_tasks=2)
CHUNKED_NAMES = list(init_params(CHUNKED_CFG, seed=0).layout)
SPLIT_TRAINABLE = {"w_in", "blocks.0.w_up", "blocks.0.b_down", "head_b", "forecast.4.w"}


def _bits(arr):
    return np.ascontiguousarray(arr).tobytes()


class TestChunkedOptimizer:
    def test_layout_crosses_chunk_boundaries(self):
        params = init_params(CHUNKED_CFG, seed=0)
        assert params.blocks[0].w_up.size > OPT_CHUNK
        assert params.flat.size > 3 * OPT_CHUNK
        assert len(flat_spans(params, SPLIT_TRAINABLE)) == len(SPLIT_TRAINABLE)

    @settings(max_examples=30, deadline=None)
    @given(
        kind=st.sampled_from(["adamw", "sgd_momentum"]),
        weight_decay=st.sampled_from([0.0, 0.05]),
        trainable=st.none() | st.sets(st.sampled_from(CHUNKED_NAMES), min_size=1),
        steps=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    @example(kind="adamw", weight_decay=0.05, trainable=SPLIT_TRAINABLE, steps=2, seed=0)
    @example(kind="sgd_momentum", weight_decay=0.05, trainable=SPLIT_TRAINABLE, steps=2, seed=0)
    def test_matches_per_array_reference_bitwise(self, kind, weight_decay, trainable, steps, seed):
        opt = OptimizerConfig(
            kind=kind, lr=0.01, weight_decay=weight_decay, schedule=[(1, 0.5)]
        )
        rng = np.random.default_rng(seed)
        params = init_params(CHUNKED_CFG, seed=seed)
        params.flat[...] += rng.normal(0.0, 0.1, params.flat.size)
        grad_steps = []
        for _ in range(steps):
            grads = zeros_like_params(params)
            grads.flat[...] = rng.normal(0.0, 1.0, grads.flat.size)
            grads.flat[rng.random(grads.flat.size) < 0.1] = 0.0
            grad_steps.append(grads)
        reference = clone_params(params)
        ref_m, ref_v = reference_steps(opt, reference, grad_steps, trainable)
        state = init_optimizer(opt, params)
        for epoch, grads in enumerate(grad_steps):
            optimizer_step(state, params, grads, epoch, trainable=trainable)
        assert _bits(params.flat) == _bits(reference.flat)
        for name, (offset, _) in params.layout.items():
            size = get_array(params, name).size
            assert _bits(state.m[offset : offset + size]) == _bits(ref_m[name]), name
            assert _bits(state.v[offset : offset + size]) == _bits(ref_v[name]), name

    @pytest.mark.parametrize("kind", ["adamw", "sgd_momentum"])
    def test_window_state_matches_full_state_bitwise(self, kind):
        opt = OptimizerConfig(kind=kind, lr=0.01, weight_decay=0.05)
        rng = np.random.default_rng(3)
        full = init_params(CHUNKED_CFG, seed=3)
        full.flat[...] += rng.normal(0.0, 0.1, full.flat.size)
        lo, hi = flat_window(full, SPLIT_TRAINABLE)
        windowed = clone_params(full)
        full_state = init_optimizer(opt, full)
        window_state = init_optimizer(opt, windowed, (lo, hi))
        for epoch in range(3):
            grads = zeros_like_params(full)
            grads.flat[...] = rng.normal(0.0, 1.0, grads.flat.size)
            window_grads = zeros_window(full.layout, lo, hi)
            window_grads.flat[...] = grads.flat[lo:hi]
            optimizer_step(full_state, full, grads, epoch, trainable=SPLIT_TRAINABLE)
            optimizer_step(window_state, windowed, window_grads, epoch, trainable=SPLIT_TRAINABLE)
        assert _bits(windowed.flat) == _bits(full.flat)
        assert _bits(window_state.m) == _bits(full_state.m[lo:hi])

    def test_sgd_allocates_no_second_moment(self):
        params = init_params(CHUNKED_CFG, seed=0)
        lo, hi = flat_window(params, {"head_w", "head_b"})
        sgd = init_optimizer(OptimizerConfig(kind="sgd_momentum", lr=0.1), params, (lo, hi))
        assert (sgd.base, sgd.m.size) == (lo, hi - lo)
        assert sgd.v.shape == sgd.m.shape and sgd.v.strides == (0,) and not sgd.v.flags.writeable
        adamw = init_optimizer(OptimizerConfig(kind="adamw", lr=0.1), params, (lo, hi))
        assert adamw.v.flags.writeable and adamw.v.size == hi - lo

    def test_buffers_that_miss_the_trainable_arrays_rejected(self):
        params = init_params(CHUNKED_CFG, seed=0)
        opt = OptimizerConfig(kind="adamw", lr=0.1)
        grads = zeros_window(params.layout, *flat_window(params, {"head_b"}))
        with pytest.raises(DimensionError, match="gradient buffer"):
            optimizer_step(init_optimizer(opt, params), params, grads, 0, trainable={"head_w", "head_b"})
        state = init_optimizer(opt, params, flat_window(params, {"head_b"}))
        with pytest.raises(DimensionError, match="moment buffer"):
            optimizer_step(state, params, zeros_like_params(params), 0, trainable={"w_in"})


@pytest.fixture(scope="module")
def tiny_corpus():
    cfg = CorpusConfig(
        num_tasks=2, steps_per_task=4, vocab_size=8, videos_per_task=3,
        feature_noise_sigma=0.05, asr_noise=0.0, feature_dim=8, seed=5,
    )
    return generate_corpus(cfg)


class TestPretrain:
    def _model_cfg(self, corpus):
        return ModelConfig(
            d_in=8, d=16, layers=2, heads=2, max_positions=8,
            s=len(corpus.vocab), num_tasks=2,
        )

    def test_zero_epochs_returns_init(self, tiny_corpus):
        mcfg = self._model_cfg(tiny_corpus)
        params, report = pretrain(
            tiny_corpus.videos, tiny_corpus.vocab, mcfg, MaskSpec(ratio=0.3, seed=1),
            "sc", OptimizerConfig(kind="adamw", lr=1e-3), epochs=0, seed=7,
        )
        assert params_digest(params) == params_digest(init_params(mcfg, 7))
        assert report.epochs == []

    def test_deterministic_end_to_end(self, tiny_corpus):
        mcfg = self._model_cfg(tiny_corpus)
        runs = []
        for _ in range(2):
            params, report = pretrain(
                tiny_corpus.videos, tiny_corpus.vocab, mcfg, MaskSpec(ratio=0.3, seed=1),
                "dm", OptimizerConfig(kind="adamw", lr=1e-3), epochs=5, seed=7,
            )
            runs.append((params_digest(params), [(e.loss, e.masked_accuracy, e.lr) for e in report.epochs]))
        assert runs[0] == runs[1]

    def test_loss_trend_and_report_shape(self, tiny_corpus):
        mcfg = self._model_cfg(tiny_corpus)
        _, report = pretrain(
            tiny_corpus.videos, tiny_corpus.vocab, mcfg, MaskSpec(ratio=0.3, seed=1),
            "sc", OptimizerConfig(kind="adamw", lr=1e-3), epochs=40, seed=7,
        )
        assert [e.epoch for e in report.epochs] == list(range(40))
        assert report.epochs[-1].loss < report.epochs[0].loss
        csv = report.to_csv()
        assert csv.splitlines()[0] == "epoch,loss,masked_acc,lr"
        assert len(csv.splitlines()) == 41

    def test_divergence_raises_with_snapshot(self, tiny_corpus):
        mcfg = self._model_cfg(tiny_corpus)
        with pytest.raises(DivergenceError) as exc_info:
            pretrain(
                tiny_corpus.videos, tiny_corpus.vocab, mcfg, MaskSpec(ratio=1.0, seed=1),
                "sc", OptimizerConfig(kind="sgd_momentum", lr=1e18), epochs=50, seed=7,
            )
        assert exc_info.value.params is not None
        assert exc_info.value.report is not None

    @pytest.mark.parametrize(
        "bad", [{"reduction": "meen"}, {"accumulate": 0}, {"accumulate": -2}]
    )
    def test_bad_reduction_or_accumulate_rejected(self, tiny_corpus, bad):
        with pytest.raises(InvalidInput):
            pretrain(
                tiny_corpus.videos, tiny_corpus.vocab, self._model_cfg(tiny_corpus),
                MaskSpec(ratio=0.3, seed=1), "sc", OptimizerConfig(kind="adamw", lr=1e-3),
                epochs=1, seed=7, **bad,
            )

    def test_accumulation_changes_step_granularity_only(self, tiny_corpus):
        mcfg = self._model_cfg(tiny_corpus)
        kwargs = dict(
            videos=tiny_corpus.videos, vocab=tiny_corpus.vocab, model_cfg=mcfg,
            mask_spec=MaskSpec(ratio=0.3, seed=1), loss_kind="sc",
            opt_cfg=OptimizerConfig(kind="adamw", lr=1e-3), epochs=3, seed=7,
        )
        p1, _ = pretrain(**kwargs)
        p2, _ = pretrain(accumulate=3, **kwargs)
        assert params_digest(p1) != params_digest(p2)  # different but both finite
        for _, arr in named_arrays(p2):
            assert np.all(np.isfinite(arr))


class TestSharedLoop:
    def test_skips_zeroing_and_nonfinite_loss(self, cfg):
        params = init_params(cfg, seed=0)
        init = clone_params(params)
        calls, snapshots = [], []

        def step(i, grads):
            assert not grads.head_b.any()  # trainable spans are zeroed per item
            calls.append(int(i))
            if len(calls) == 1:
                return None
            if len(calls) > 3:
                return float("nan"), 0, 1
            grads.head_b[...] = 1.0
            return 2.0, 1, 2

        opt = OptimizerConfig(kind="sgd_momentum", lr=0.1, schedule=[(0, 1.0)])
        with pytest.raises(DivergenceError, match="^non-finite loss at epoch 1$") as exc_info:
            _train_epochs(
                params, opt, {"head_b"}, 3, step, 5, seed=0, salt=17,
                boundary_callback=lambda epoch, p: snapshots.append(clone_params(p)),
            )
        err = exc_info.value
        assert sorted(calls[:3]) == [0, 1, 2]
        assert [(e.epoch, e.loss, e.masked_accuracy) for e in err.report.epochs] == [(0, 2.0, 0.5)]
        assert params_digest(err.params) == params_digest(snapshots[0])
        changed = {
            name for name, arr in named_arrays(err.params)
            if not np.array_equal(arr, get_array(init, name))
        }
        assert changed == {"head_b"}

    def test_state_covers_the_trainable_window(self, cfg):
        params = init_params(cfg, seed=0)
        trainable = {"task_head_w", "mistake_head_b"}
        lo, hi = flat_window(params, trainable)
        seen = []

        def step(i, grads):
            seen.append((grads.base, grads.flat.size, grads.task_head_w.any()))
            grads.task_head_w[...] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                grads.w_in[...] = 1.0
            return 1.0, 0, 1

        opt = OptimizerConfig(kind="sgd_momentum", lr=0.1)
        _train_epochs(params, opt, trainable, 2, step, 2, seed=0, salt=17)
        assert seen == [(lo, hi - lo, False)] * 4
        # Inside the window but not trainable: left bitwise as it was.
        assert np.array_equal(params.order_head_w, init_params(cfg, seed=0).order_head_w)

    def test_floating_point_error_in_step_diverges(self, cfg):
        params = init_params(cfg, seed=0)

        def step(i, grads):
            raise FloatingPointError("overflow encountered in matmul")

        opt = OptimizerConfig(kind="adamw", lr=1e-3)
        with pytest.raises(DivergenceError, match="^epoch 0: overflow") as exc_info:
            _train_epochs(params, opt, {"head_b"}, 2, step, 1, seed=0, salt=17)
        assert params_digest(exc_info.value.params) == params_digest(init_params(cfg, seed=0))
        assert exc_info.value.report.epochs == []


class TestRecipesAndCallbacks:
    def test_paper_recipe_phases(self, tiny_corpus):
        from stepmask.training import two_phase_recipe, run_pretrain_recipe

        phases = two_phase_recipe()
        assert [kind for (opt, _) in phases for kind in [opt.kind]] == ["sgd_momentum", "adamw"]
        assert phases[0][0].schedule == [(15, 0.1), (19, 0.1)]
        assert phases[0][0].lr == pytest.approx(0.01)
        assert phases[1][0].lr == pytest.approx(5e-5)
        mcfg = ModelConfig(
            d_in=8, d=16, layers=2, heads=2, max_positions=8,
            s=len(tiny_corpus.vocab), num_tasks=2,
        )
        short = [(phases[0][0], 3), (phases[1][0], 2)]
        params, reports = run_pretrain_recipe(
            tiny_corpus.videos, tiny_corpus.vocab, mcfg, MaskSpec(ratio=0.3, seed=1),
            "sc", short, seed=3,
        )
        assert len(reports) == 2
        assert [len(r.epochs) for r in reports] == [3, 2]
        for _, arr in named_arrays(params):
            assert np.all(np.isfinite(arr))

    def test_boundary_callback_fires_at_schedule_epochs(self, tiny_corpus):
        mcfg = ModelConfig(
            d_in=8, d=16, layers=2, heads=2, max_positions=8,
            s=len(tiny_corpus.vocab), num_tasks=2,
        )
        seen = []
        pretrain(
            tiny_corpus.videos, tiny_corpus.vocab, mcfg, MaskSpec(ratio=0.3, seed=1),
            "sc", OptimizerConfig(kind="adamw", lr=1e-3, schedule=[(1, 0.1), (3, 0.1)]),
            epochs=5, seed=3,
            boundary_callback=lambda epoch, snapshot: seen.append(epoch),
        )
        assert seen == [1, 3]

    def test_overfit_loss_funnel(self):
        # windowed training loss stays under the first window and collapses;
        # strict monotonicity cannot hold because each epoch's loss is
        # measured on freshly resampled masks
        cfg = CorpusConfig(
            num_tasks=4, steps_per_task=(4, 6), vocab_size=24, videos_per_task=2,
            feature_noise_sigma=0.0, asr_noise=0.0, feature_dim=32, seed=6,
        )
        corpus = generate_corpus(cfg)
        from stepmask.model import desk_preset

        mcfg = desk_preset(d_in=32, s=24, num_tasks=4)
        _, report = pretrain(
            corpus.videos, corpus.vocab, mcfg, MaskSpec(ratio=0.15, seed=3),
            "sc", OptimizerConfig(kind="adamw", lr=1e-3), epochs=150, seed=4,
        )
        losses = np.array([e.loss for e in report.epochs])
        windows = losses.reshape(-1, 10).mean(axis=1)
        assert np.all(windows[1:] <= windows[0])
        assert windows[-1] <= 0.2 * windows[0]


class TestGradientAudit:
    def test_runs_under_tolerance(self):
        errors = run_gradient_audit()
        assert set(errors) == {"sc", "dm"}
        for kind, err in errors.items():
            assert err < 1e-5, kind


# --- the two-thread update ---------------------------------------------------


def serial_step(state, params, grads, epoch, trainable=None):
    """The optimizer update as one thread ran it before the split, weight
    decay term included when it is zero: the reference the split update must
    equal bit for bit."""
    cfg = state.cfg
    key = frozenset(params.layout if trainable is None else trainable)
    lr = cfg.lr_at(epoch)
    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - cfg.beta1**t
    c2 = 1.0 - cfg.beta2**t
    scratch = np.empty((2, OPT_CHUNK))
    for span_lo, span_hi in flat_spans(params, key):
        for lo in range(span_lo, span_hi, OPT_CHUNK):
            hi = min(lo + OPT_CHUNK, span_hi)
            p, g = params.span(lo, hi), grads.span(lo, hi)
            m = state.m[lo - state.base : hi - state.base]
            a, b = scratch[:, : hi - lo]
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


# The split threshold the tests below run at, unless they say otherwise: the
# real one (SPLIT_ELEMENTS) would make every array they build 16 times larger.
SPLIT = 2 * OPT_CHUNK


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(training, "_cpus", lambda: 2)
    monkeypatch.setattr(training, "SPLIT_ELEMENTS", SPLIT)


# At d=1 the input projection has d_in elements and the positional table
# max_positions: two arrays of any size, three elements apart in the layout.
BIG = ("w_in", "positional")
SMALL = ("b_in", "mask_token", "blocks.0.wq", "blocks.0.w_up", "head_b", "forecast.2.b")


def sized_config(sizes: dict[str, int]) -> ModelConfig:
    return ModelConfig(
        d_in=sizes.get("w_in", 1), d=1, layers=1, heads=1,
        max_positions=sizes.get("positional", 1), s=5, num_tasks=2,
    )


@st.composite
def split_problems(draw):
    """A config, a trainable set and the sizes of its big arrays such that
    the trainable elements total a drawn count, often at the split
    threshold."""
    trainable = draw(st.none() | st.sets(st.sampled_from(BIG + SMALL), min_size=1))
    unit = init_params(sized_config({}), 0)
    chosen = unit.layout if trainable is None else trainable
    big = [name for name in BIG if name in chosen]
    small = sum(get_array(unit, name).size for name in chosen if name not in BIG)
    target = draw(
        st.integers(SPLIT - 3, SPLIT + 3)
        | st.integers(1, 3 * OPT_CHUNK)
    )
    room = max(target - small, len(big))
    sizes = {}
    if len(big) == 2:
        first = draw(st.integers(1, room - 1))
        sizes = {big[0]: first, big[1]: room - first}
    elif big:
        sizes = {big[0]: room}
    return sized_config(sizes), trainable


def _signed_zeros(rng, flat):
    """Set a few entries of `flat` to +0.0 and a few to -0.0."""
    flat[rng.random(flat.size) < 0.05] = 0.0
    flat[rng.random(flat.size) < 0.05] = -0.0


class TestSplitOptimizer:
    @settings(max_examples=60, deadline=None)
    @given(
        problem=split_problems(),
        kind=st.sampled_from(["adamw", "sgd_momentum"]),
        weight_decay=st.sampled_from([0.0, 1e-4]),
        steps=st.integers(1, 3),
        cpus=st.sampled_from([1, 2]),
        seed=st.integers(0, 2**16),
    )
    def test_matches_the_serial_update_bitwise(self, problem, kind, weight_decay, steps, cpus, seed):
        cfg, trainable = problem
        opt = OptimizerConfig(kind=kind, lr=0.01, weight_decay=weight_decay, schedule=[(1, 0.5)])
        rng = np.random.default_rng(seed)
        params = init_params(cfg, seed=seed)
        params.flat[...] += rng.normal(0.0, 0.1, params.flat.size)
        _signed_zeros(rng, params.flat)
        reference = clone_params(params)
        state, ref_state = init_optimizer(opt, params), init_optimizer(opt, reference)
        with mock.patch.object(training, "_cpus", return_value=cpus), \
                mock.patch.object(training, "SPLIT_ELEMENTS", SPLIT):
            for epoch in range(steps):
                grads = zeros_like_params(params)
                grads.flat[...] = rng.normal(0.0, 1.0, grads.flat.size)
                _signed_zeros(rng, grads.flat)
                optimizer_step(state, params, grads, epoch, trainable=trainable)
                serial_step(ref_state, reference, grads, epoch, trainable=trainable)
        assert params.flat.tobytes() == reference.flat.tobytes()
        assert state.m.tobytes() == ref_state.m.tobytes()
        assert np.asarray(state.v).tobytes() == np.asarray(ref_state.v).tobytes()

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_splits_from_the_threshold(self, monkeypatch, offset):
        monkeypatch.setattr(training, "_cpus", lambda: 2)
        total = training.SPLIT_ELEMENTS + offset
        halves = self._halves_run(monkeypatch, sized_config({"w_in": total}), {"w_in"})
        if offset < 0:
            assert halves == [("caller", [(0, total)])]
        else:
            assert halves == [("caller", [(0, total // 2)]), ("worker", [(total // 2, total)])]

    def test_one_cpu_runs_inline(self, monkeypatch, two_cpus):
        monkeypatch.setattr(training, "_cpus", lambda: 1)
        total = 3 * OPT_CHUNK
        halves = self._halves_run(monkeypatch, sized_config({"w_in": total}), {"w_in"})
        assert halves == [("caller", [(0, total)])]

    def test_cut_falls_inside_the_span_holding_the_midpoint(self, monkeypatch, two_cpus):
        cfg = sized_config({"w_in": 3 * OPT_CHUNK, "positional": OPT_CHUNK})
        params = init_params(cfg, seed=0)
        (w_lo, w_hi), (p_lo, p_hi) = flat_spans(params, BIG)
        halves = self._halves_run(monkeypatch, cfg, set(BIG))
        cut = w_lo + 2 * OPT_CHUNK
        assert halves == [("caller", [(w_lo, cut)]), ("worker", [(cut, w_hi), (p_lo, p_hi)])]

    @staticmethod
    def _halves_run(monkeypatch, cfg, trainable):
        """The spans each thread updated in one step, caller first; the
        worker is held back so that a step returning early would miss it."""
        done = []
        update = training._update

        def recorded(state, params, grads, spans, *rest):
            worker = threading.current_thread() is not threading.main_thread()
            if worker:
                time.sleep(0.05)
            update(state, params, grads, spans, *rest)
            done.append(("worker" if worker else "caller", list(spans)))

        monkeypatch.setattr(training, "_update", recorded)
        params = init_params(cfg, seed=0)
        state = init_optimizer(OptimizerConfig(kind="adamw", lr=0.01), params)
        optimizer_step(state, params, zeros_like_params(params), 0, trainable=trainable)
        return sorted(done)

    def test_worker_half_raises_under_the_callers_error_state(self, two_cpus):
        total = SPLIT + 7
        params = init_params(sized_config({"w_in": total}), seed=0)
        grads = zeros_like_params(params)
        grads.w_in[-1] = 1e200  # in the second half: g * g overflows
        state = init_optimizer(OptimizerConfig(kind="adamw", lr=0.01), params)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            optimizer_step(state, params, grads, 0, trainable={"w_in"})

    def test_caller_error_waits_for_the_worker(self, monkeypatch, two_cpus):
        finished = []
        update = training._update

        def slow_worker(*args):
            if threading.current_thread() is not threading.main_thread():
                time.sleep(0.1)
                update(*args)
                finished.append("worker")
            else:
                update(*args)

        monkeypatch.setattr(training, "_update", slow_worker)
        params = init_params(sized_config({"w_in": 3 * OPT_CHUNK}), seed=0)
        grads = zeros_like_params(params)
        grads.w_in[0] = 1e200  # in the caller's half
        state = init_optimizer(OptimizerConfig(kind="adamw", lr=0.01), params)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            optimizer_step(state, params, grads, 0, trainable={"w_in"})
        assert finished == ["worker"]

    def test_concurrent_callers_share_the_worker(self, two_cpus):
        # More callers than CPUs, each with its own state, all splitting
        # through the one worker thread while the interpreter switches
        # threads often: each must end bitwise where a serial run ends.
        cfg = sized_config({"w_in": SPLIT + 5})
        opt = OptimizerConfig(kind="adamw", lr=0.01, weight_decay=1e-4)
        runs = []
        for seed in range(4):
            rng = np.random.default_rng(seed)
            params = init_params(cfg, seed=seed)
            grads = zeros_like_params(params)
            grads.flat[...] = rng.normal(size=grads.flat.size)
            reference = clone_params(params)
            ref_state = init_optimizer(opt, reference)
            for epoch in range(3):
                serial_step(ref_state, reference, grads, epoch)
            runs.append((params, init_optimizer(opt, params), grads, reference))

        def train(params, state, grads, _):
            for epoch in range(3):
                optimizer_step(state, params, grads, epoch)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=train, args=run) for run in runs]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for params, _, _, reference in runs:
            assert params.flat.tobytes() == reference.flat.tobytes()

    def test_forked_child_starts_its_own_worker(self, two_cpus):
        # A child forked after a split step has the parent's executor but
        # not its thread; the child's own split steps must still finish.
        params = init_params(sized_config({"w_in": SPLIT}), seed=0)
        state = init_optimizer(OptimizerConfig(kind="adamw", lr=0.01), params)
        grads = zeros_like_params(params)
        optimizer_step(state, params, grads, 0)
        child = multiprocessing.get_context("fork").Process(
            target=optimizer_step, args=(state, params, grads, 1)
        )
        child.start()
        child.join(timeout=60)
        hung = child.is_alive()
        if hung:
            child.kill()
            child.join()
        assert not hung and child.exitcode == 0


class TestOptimizerDivergence:
    @pytest.mark.parametrize("accumulate", [1, 4])
    @pytest.mark.parametrize("where", ["first", "last"])
    @pytest.mark.parametrize(
        "trainable", [{"head_b"}, None], ids=["below_split", "above_split"]
    )
    def test_overflow_in_the_update_diverges(self, two_cpus, trainable, where, accumulate):
        cfg = CHUNKED_CFG
        params = init_params(cfg, seed=0)
        trainable = set(params.layout) if trainable is None else trainable
        lo, hi = flat_window(params, trainable)
        assert (hi - lo >= SPLIT) == (len(trainable) > 1)
        snapshots = []

        def step(i, grads):
            grads.flat[...] = 1e-3
            if len(snapshots) == 1:  # epoch 1: a finite gradient whose square overflows
                grads.flat[0 if where == "first" else -1] = 1e200
            return 1.0, 0, 1

        opt = OptimizerConfig(kind="adamw", lr=1e-3, schedule=[(0, 1.0)])
        with np.errstate(over="raise"), pytest.raises(
            DivergenceError, match="^epoch 1: overflow"
        ) as exc_info:
            _train_epochs(
                params, opt, trainable, 3, step, 3, seed=0, salt=17, accumulate=accumulate,
                boundary_callback=lambda epoch, p: snapshots.append(clone_params(p)),
            )
        assert params_digest(exc_info.value.params) == params_digest(snapshots[0])
        assert len(exc_info.value.report.epochs) == 1
