import math

import numpy as np
import pytest

from stepmask.benchmarks import KINDS, build_benchmark_set, make_long_term
from stepmask.corpus import CorpusConfig, default_embedder, generate_corpus
import stepmask.downstream as downstream_module
from stepmask.downstream import (
    KIND_HEADS,
    FinetuneConfig,
    attach_task_embeddings,
    embed_task_label,
    evaluate,
    finetune,
    predict,
    trainable_names,
    ROUTES,
    _batches,
    _count_correct,
    _forward,
    _instance_loss_grads,
    _slot_logits,
)
from stepmask.errors import ConfigError, DivergenceError, InvalidInput
from stepmask.model import (
    backbone_names,
    clone_params,
    desk_preset,
    forward,
    get_array,
    init_params,
    named_arrays,
    params_digest,
    zeros_like_params,
)
from stepmask.training import MaskSpec, OptimizerConfig, pretrain
from stepmask.weaklabel import TextEmbedder


@pytest.fixture(scope="module")
def corpus():
    cfg = CorpusConfig(
        num_tasks=4, steps_per_task=4, vocab_size=16, videos_per_task=4,
        feature_noise_sigma=0.0, asr_noise=0.0, feature_dim=16, seed=17,
    )
    return generate_corpus(cfg)


@pytest.fixture(scope="module")
def mcfg(corpus):
    return desk_preset(d_in=16, s=16, num_tasks=4)


@pytest.fixture(scope="module")
def pretrained(corpus, mcfg):
    params, _ = pretrain(
        corpus.videos, corpus.vocab, mcfg, MaskSpec(ratio=0.25, seed=1),
        "sc", OptimizerConfig(kind="adamw", lr=1e-3), epochs=60, seed=2,
    )
    return params


class TestPredictRouting:
    def test_zero_mistake_head_ties_to_position_zero(self, corpus, mcfg):
        params = init_params(mcfg, seed=0)
        params.mistake_head_w[...] = 0.0
        params.mistake_head_b[...] = 0.0
        bset = build_benchmark_set("mistake_step", corpus.videos, corpus, seed=1)
        assert predict(params, mcfg, bset.instances[0]) == 0

    def test_long_term_null_mapping(self, corpus, mcfg, pretrained):
        video = corpus.videos[0]
        inst = make_long_term(video, i=video.K - 2, seed=0)
        pred = predict(pretrained, mcfg, inst)
        assert len(pred) == 5
        assert all(p is None or 0 <= p < mcfg.s for p in pred)

    def test_prediction_types(self, corpus, mcfg, pretrained):
        for kind, type_check in [
            ("step_cls", lambda p: isinstance(p, int)),
            ("short_term", lambda p: isinstance(p, int)),
            ("proc_rec", lambda p: isinstance(p, int)),
            ("mistake_order", lambda p: isinstance(p, bool)),
            ("mistake_step", lambda p: isinstance(p, int)),
        ]:
            bset = build_benchmark_set(kind, corpus.videos[:2], corpus, seed=3)
            assert type_check(predict(pretrained, mcfg, bset.instances[0])), kind


@pytest.mark.parametrize("kind", KINDS)
class TestHeadTable:
    def test_loss_counts_match_predict(self, corpus, mcfg, pretrained, kind):
        bset = build_benchmark_set(kind, corpus.videos[:4], corpus, seed=3)
        cfg = FinetuneConfig(task_kind=kind)
        grads = zeros_like_params(pretrained)
        for inst in bset.instances:
            _, correct, total = _instance_loss_grads(pretrained, mcfg, inst, cfg, grads)
            assert (correct, total) == _count_correct(inst, predict(pretrained, mcfg, inst))

    def test_finetune_gradient_matches_finite_differences(self, corpus, mcfg, pretrained, kind):
        # eps=1e-4 keeps the roundoff of a ~10-nat loss below the 1e-6 floor;
        # the floor covers exactly-zero gradients such as single-clip wq.
        eps = 1e-4
        params = clone_params(pretrained)
        inst = build_benchmark_set(kind, corpus.videos[:1], corpus, seed=3).instances[0]
        cfg = FinetuneConfig(task_kind=kind, mode="finetune")
        grads = zeros_like_params(params)
        _instance_loss_grads(params, mcfg, inst, cfg, grads)
        scratch = zeros_like_params(params)
        rng = np.random.default_rng(0)
        for name in (*KIND_HEADS[kind], "w_in", "blocks.0.wq"):
            flat = get_array(params, name).reshape(-1)
            analytic = get_array(grads, name).reshape(-1)
            for c in rng.choice(flat.size, size=min(flat.size, 12), replace=False):
                original = flat[c]
                flat[c] = original + eps
                up = _instance_loss_grads(params, mcfg, inst, cfg, scratch)[0]
                flat[c] = original - eps
                down = _instance_loss_grads(params, mcfg, inst, cfg, scratch)[0]
                flat[c] = original
                numeric = (up - down) / (2 * eps)
                a = analytic[c]
                assert abs(a - numeric) / max(1e-6, abs(a) + abs(numeric)) < 1e-5, (name, c)


class TestBackboneHeadSplit:
    def test_backbone_and_route_heads_partition_the_layout(self, mcfg):
        layout = init_params(mcfg, seed=0).layout
        backbone = backbone_names(layout)
        heads = {name for names in KIND_HEADS.values() for name in names}
        assert backbone | heads == set(layout)
        assert not backbone & heads

    def test_pretraining_leaves_other_heads_bitwise_unchanged(self, corpus, mcfg):
        init = init_params(mcfg, seed=2)
        params, _ = pretrain(
            corpus.videos, corpus.vocab, mcfg, MaskSpec(ratio=0.25, seed=1), "sc",
            OptimizerConfig(kind="sgd_momentum", lr=1e-2, weight_decay=1e-4), epochs=2, seed=2,
        )
        others = set(params.layout) - backbone_names(params.layout) - {"head_w", "head_b"}
        assert len(others) == 16
        for name in params.layout:
            same = get_array(params, name).tobytes() == get_array(init, name).tobytes()
            assert same == (name in others), name


class TestTaskLabelToken:
    def test_embedding_deterministic(self, corpus):
        emb = default_embedder(corpus.cfg)
        a = embed_task_label("task-000", emb, d_in=16)
        b = embed_task_label("task-000", emb, d_in=16)
        assert np.array_equal(a, b)
        assert a.shape == (16,)

    def test_token_participates_in_attention(self, corpus, mcfg, pretrained):
        emb = default_embedder(corpus.cfg)
        bset = build_benchmark_set("long_term", corpus.videos[:1], corpus, seed=4)
        attach_task_embeddings(bset, corpus, emb, mcfg.d_in)
        inst = bset.instances[0]
        with_token = forward(
            pretrained, mcfg, inst.clips, prepend_cls=True,
            task_token=inst.task_name_embedding,
        )
        zeroed = forward(
            pretrained, mcfg, inst.clips, prepend_cls=True,
            task_token=np.zeros(mcfg.d_in),
        )
        assert not np.allclose(with_token.logits, zeroed.logits)

    def test_flag_off_means_no_token(self, corpus, mcfg, pretrained):
        bset = build_benchmark_set("proc_rec", corpus.videos[:1], corpus, seed=4)
        inst = bset.instances[0]
        inst.task_name_embedding = np.ones(mcfg.d_in)
        plain = forward(pretrained, mcfg, inst.clips, prepend_cls=True)
        assert plain.T == inst.K + 1  # CLS only, no task token row
        assert predict(pretrained, mcfg, inst) == predict(pretrained, mcfg, inst, use_task_label=False)

    def test_missing_embedding_rejected(self, corpus, mcfg, pretrained):
        bset = build_benchmark_set("proc_rec", corpus.videos[:1], corpus, seed=4)
        with pytest.raises(InvalidInput):
            predict(pretrained, mcfg, bset.instances[0], use_task_label=True)


class TestFinetune:
    def test_zero_epochs_identity(self, corpus, mcfg, pretrained):
        bset = build_benchmark_set("proc_rec", corpus.videos, corpus, seed=5)
        cfg = FinetuneConfig(task_kind="proc_rec", epochs=0)
        tuned, report = finetune(pretrained, mcfg, cfg, bset)
        assert params_digest(tuned) == params_digest(pretrained)
        assert report.epochs == []

    def test_linear_probe_freeze_contract(self, corpus, mcfg, pretrained):
        bset = build_benchmark_set("long_term", corpus.videos, corpus, seed=5)
        cfg = FinetuneConfig(task_kind="long_term", mode="linear_probe", epochs=2, seed=1)
        tuned, _ = finetune(pretrained, mcfg, cfg, bset)
        heads = set(trainable_names(pretrained, cfg))
        for (name, before), (_, after) in zip(named_arrays(pretrained), named_arrays(tuned)):
            if name in heads:
                assert not np.array_equal(before, after), name
            else:
                assert np.array_equal(before, after), name

    def test_finetune_trains_transformer_not_other_heads(self, corpus, mcfg, pretrained):
        bset = build_benchmark_set("mistake_order", corpus.videos, corpus, seed=5)
        cfg = FinetuneConfig(
            task_kind="mistake_order", mode="finetune", epochs=1, seed=1,
            optimizer="adamw", lr=1e-3,
        )
        tuned, _ = finetune(pretrained, mcfg, cfg, bset)
        allowed = trainable_names(pretrained, cfg)
        for (name, before), (_, after) in zip(named_arrays(pretrained), named_arrays(tuned)):
            if not np.array_equal(before, after):
                assert name in allowed, name
        assert np.array_equal(tuned.head_w, pretrained.head_w)
        assert np.array_equal(tuned.mistake_head_w, pretrained.mistake_head_w)

    @pytest.mark.parametrize(
        "errors", [{"over": "raise", "invalid": "raise", "divide": "raise"}, {"all": "ignore"}]
    )
    def test_divergence_returns_pretrained_weights(self, corpus, mcfg, pretrained, errors):
        # The run ends in its first epoch, so the weights of the last whole
        # epoch are the input's, whether numpy raises or not.
        bset = build_benchmark_set("proc_rec", corpus.videos, corpus, seed=5)
        cfg = FinetuneConfig(task_kind="proc_rec", epochs=3, lr=1e18)
        with np.errstate(**errors), pytest.raises(DivergenceError, match="epoch 0") as exc_info:
            finetune(pretrained, mcfg, cfg, bset)
        assert params_digest(exc_info.value.params) == params_digest(pretrained)
        assert exc_info.value.report is not None
        assert exc_info.value.report.epochs == []

    def test_kind_mismatch_rejected(self, corpus, mcfg, pretrained):
        bset = build_benchmark_set("proc_rec", corpus.videos, corpus, seed=5)
        with pytest.raises(InvalidInput):
            finetune(pretrained, mcfg, FinetuneConfig(task_kind="step_cls"), bset)

    def test_deterministic(self, corpus, mcfg, pretrained):
        bset = build_benchmark_set("step_cls", corpus.videos[:4], corpus, seed=5)
        cfg = FinetuneConfig(task_kind="step_cls", epochs=2, seed=9, optimizer="adamw", lr=1e-3)
        a, _ = finetune(pretrained, mcfg, cfg, bset)
        b, _ = finetune(pretrained, mcfg, cfg, bset)
        assert params_digest(a) == params_digest(b)

    def test_noiseless_mistake_step_overfits(self, corpus, mcfg, pretrained):
        bset = build_benchmark_set(
            "mistake_step", corpus.videos, corpus, seed=6, instances_per_video=2
        )
        cfg = FinetuneConfig(
            task_kind="mistake_step", mode="finetune", epochs=50, seed=2,
            optimizer="adamw", lr=1e-3, schedule=[(30, 0.1)],
        )
        tuned, report = finetune(pretrained, mcfg, cfg, bset)
        assert report.epochs[-1].masked_accuracy >= 0.99

    def test_short_term_matches_grammar_successor(self, corpus, mcfg, pretrained):
        # deterministic grammar: after the first n steps of a task the next
        # label is unique, so the oracle is the template's canonical sequence
        bset = build_benchmark_set("short_term", corpus.videos, corpus, seed=9)
        cfg = FinetuneConfig(
            task_kind="short_term", mode="finetune", epochs=30, seed=3,
            optimizer="adamw", lr=1e-3, schedule=[(20, 0.1)],
        )
        tuned, _ = finetune(pretrained, mcfg, cfg, bset)
        by_task = {t.task_id: t.canonical_steps for t in corpus.templates}
        for inst in bset.instances:
            successor = by_task[inst.task_id][inst.K]
            assert inst.target == successor
            assert predict(tuned, mcfg, inst) == successor

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            FinetuneConfig(task_kind="unknown")
        with pytest.raises(ConfigError):
            FinetuneConfig(task_kind="proc_rec", mode="bogus")


# params_digest of the `pretrained` fixture, of a 3-epoch SGD pre-training
# (weight decay, gradient accumulation) and of 2-epoch full fine-tunes on the
# `corpus` fixture, measured with the single-threaded optimizer update and the
# accumulating backward pass: splitting the update over two threads and
# writing weight gradients in place must leave every trained bit as it was.
PINNED_TRAINING_DIGESTS = {
    ("pretrain", "adamw"): "a4c0e37fb6a190eb5c31c6231d381fe012f13244e535b9aec0d9800f0e51a29d",
    ("pretrain", "sgd"): "336024f819fc247384d533552bde145a47f1a09ed64acff47c6ca3ac9f5bda10",
    ("finetune", "mistake_order"): "e2f58b57ad2068d835dffc561d2b0410c5e3a9b28c81021b10feb3e9bdd053ef",
    ("finetune", "step_cls"): "db1403d5e55fcda6873f4a42f27284b9fba70218f3e3a4208ddc6dc1d0dfa455",
    ("finetune", "proc_rec"): "e829566099db5069449c68d66a79b738846efd8acf2fc8fd3f344d163d297074",
    ("finetune", "mistake_step"): "1e3790edfd2d826eabab2a20c7b018783bd21f52c67ebf27ef76a5b48277f6d4",
    ("finetune", "long_term"): "a285b54751d192b8533b48e82d1490f63a31496221db1174bf46e03869a6f6db",
}
FULL_FINETUNES = {
    "mistake_order": (dict(optimizer="adamw", lr=1e-3), False),
    "step_cls": (dict(lr=1e-4), False),
    "proc_rec": (dict(optimizer="adamw", lr=1e-3, weight_decay=1e-4, schedule=[(1, 0.5)]), True),
    "mistake_step": (dict(optimizer="adamw", lr=1e-3), False),
    "long_term": (dict(lr=1e-4, weight_decay=1e-4), False),
}


class TestPinnedTraining:
    def test_pretraining(self, corpus, mcfg, pretrained):
        assert params_digest(pretrained) == PINNED_TRAINING_DIGESTS["pretrain", "adamw"]
        params, _ = pretrain(
            corpus.videos, corpus.vocab, mcfg, MaskSpec(ratio=0.5, seed=3), "dm",
            OptimizerConfig(kind="sgd_momentum", lr=1e-2, weight_decay=1e-4, schedule=[(1, 0.5)]),
            epochs=3, seed=4, accumulate=3,
        )
        assert params_digest(params) == PINNED_TRAINING_DIGESTS["pretrain", "sgd"]

    @pytest.mark.parametrize("kind", sorted(FULL_FINETUNES))
    def test_full_finetune(self, corpus, mcfg, pretrained, kind):
        opt, use_task_label = FULL_FINETUNES[kind]
        bset = build_benchmark_set(kind, corpus.videos, corpus, seed=5)
        if use_task_label:
            attach_task_embeddings(bset, corpus, default_embedder(corpus.cfg), mcfg.d_in)
        cfg = FinetuneConfig(
            task_kind=kind, mode="finetune", epochs=2, seed=1, use_task_label=use_task_label, **opt
        )
        tuned, _ = finetune(pretrained, mcfg, cfg, bset)
        assert params_digest(tuned) == PINNED_TRAINING_DIGESTS["finetune", kind]


# params_digest of a 3-epoch linear probe on the `corpus` fixture (seed 5, two
# instances per video), measured before the probe cached its hidden rows: the
# cache must leave every trained bit as it was.
PROBE_OPTIMIZERS = {
    "sgd": {},
    "adamw": dict(optimizer="adamw", lr=1e-2, weight_decay=1e-3, schedule=[(2, 0.5)]),
}
PINNED_PROBE_DIGESTS = {
    ("mistake_step", "sgd", False): "f9961a56cbcf092dda79f623dd155abcf882497069d70f4cefc5396617e962d0",
    ("mistake_step", "adamw", False): "2d9b1ecddf202d1e10239148ac3ab880e97147bc70940bb1feea17f77f4c0e02",
    ("mistake_order", "sgd", False): "9c35a992cef6baa0736fecf3bc7173f615ba60bd3ee75bb28bb2144f63c15952",
    ("mistake_order", "adamw", False): "cff80950ac252e1aa6b7b358e3eeb4d0e06486312cf4488318984e6d2550c266",
    ("short_term", "sgd", False): "f284d1f5a5e7027677951d76c7d85ff4f223d8b148250de9f75037432b5e3746",
    ("short_term", "adamw", False): "92df7cfaa5d445c9cd8647d86916360fbae6740ae32d50472a93392ca8909b07",
    ("long_term", "sgd", False): "275ab5049625681f6738962039d09f5c6677b8479185d83b02f23c51ce0b47ca",
    ("long_term", "adamw", False): "65377cc2d63380912953bccc1d90364bd002d629e6760e3c1b0ba190ed08c3a3",
    ("proc_rec", "sgd", False): "5e53c85e542db59d68e4ec16647d1dd4dde87de9500f5344d66765c1c5247fb3",
    ("proc_rec", "adamw", False): "d634c02e31d5b2b207305f0d74afd659ade6657005f643ab1313d735479371ea",
    ("step_cls", "sgd", False): "61806da7130345b380e8b7f7228f26511377cffa35d9b556116815764d4421b5",
    ("step_cls", "adamw", False): "4a90f17244b587ee68a0237c75a78f930b0bf4d0e7f278c6dafb00077043173c",
    ("proc_rec", "sgd", True): "a6229c83544737781ef0b2282fe631ad7ad6e22fbe192e94e701d8977e610c5a",
    ("step_cls", "adamw", True): "a12420b1e03c57d71d8d91844eda1448a90ac98cc9eb0f12a99a190540d24800",
}


def _probe_set(corpus, mcfg, kind, use_task_label=False):
    bset = build_benchmark_set(kind, corpus.videos, corpus, seed=5, instances_per_video=2)
    if use_task_label:
        attach_task_embeddings(bset, corpus, default_embedder(corpus.cfg), mcfg.d_in)
    return bset


class TestLinearProbe:
    @pytest.mark.parametrize("kind, optimizer, use_task_label", sorted(PINNED_PROBE_DIGESTS))
    def test_pinned_probe_digest(self, corpus, mcfg, pretrained, kind, optimizer, use_task_label):
        cfg = FinetuneConfig(
            task_kind=kind, mode="linear_probe", epochs=3, seed=4,
            use_task_label=use_task_label, **PROBE_OPTIMIZERS[optimizer],
        )
        tuned, _ = finetune(pretrained, mcfg, cfg, _probe_set(corpus, mcfg, kind, use_task_label))
        assert params_digest(tuned) == PINNED_PROBE_DIGESTS[kind, optimizer, use_task_label]

    @pytest.mark.parametrize("epochs", [0, 3])
    @pytest.mark.parametrize("kind", KINDS)
    def test_backbone_runs_once_per_instance(self, corpus, mcfg, pretrained, monkeypatch, kind, epochs):
        sequences = []

        def counting_forward(params, cfg, clip_features, *args, **kwargs):
            sequences.append(math.prod(np.shape(clip_features)[:-2]))  # 1 for a 2-D call
            return forward(params, cfg, clip_features, *args, **kwargs)

        monkeypatch.setattr(downstream_module, "forward", counting_forward)
        bset = _probe_set(corpus, mcfg, kind)
        cfg = FinetuneConfig(task_kind=kind, mode="linear_probe", epochs=epochs, seed=4)
        finetune(pretrained, mcfg, cfg, bset)
        assert sum(sequences) == (len(bset) if epochs else 0)

    @pytest.mark.parametrize(
        "errors", [{"over": "raise", "invalid": "raise", "divide": "raise"}, {"all": "ignore"}]
    )
    def test_divergence_returns_pretrained_weights(self, corpus, mcfg, pretrained, errors):
        # One instance's infinite features make the frozen backbone raise when
        # it first runs, in epoch 0, so the last whole epoch's weights are the
        # input's.
        bset = _probe_set(corpus, mcfg, "proc_rec")
        bset.instances[len(bset) // 2].clips[...] = np.inf
        cfg = FinetuneConfig(task_kind="proc_rec", mode="linear_probe", epochs=3, seed=4)
        with np.errstate(**errors), pytest.raises(DivergenceError, match="epoch 0") as exc_info:
            finetune(pretrained, mcfg, cfg, bset)
        restored = exc_info.value.params
        assert restored.flat.size == pretrained.flat.size
        assert restored.flat.tobytes() == pretrained.flat.tobytes()
        assert exc_info.value.report.epochs == []


class TestEvaluate:
    def test_constant_ordered_predictor_scores_half(self, corpus, mcfg):
        params = init_params(mcfg, seed=0)
        params.order_head_w[...] = 0.0
        params.order_head_b[...] = np.array([1.0, 0.0])  # always "ordered"
        bset = build_benchmark_set(
            "mistake_order", corpus.videos, corpus, seed=7, instances_per_video=4
        )
        report = evaluate(params, mcfg, bset)
        positives = sum(1 for i in bset.instances if not i.target)
        assert report.accuracy == pytest.approx(positives / len(bset))
        assert report.accuracy == pytest.approx(0.5, abs=0.01)

    def test_long_term_slot_counting(self):
        class FakeInst:
            kind = "long_term"
            target = (3, 7, None, None, None)

        correct, total = _count_correct(FakeInst(), (3, 1, None, None, None))
        assert (correct, total) == (1, 2)
        correct, total = _count_correct(FakeInst(), (3, 7, 2, 2, 2))
        assert (correct, total) == (2, 2)  # junk predictions at NULL slots ignored

    def test_order_independence(self, corpus, mcfg, pretrained):
        bset = build_benchmark_set("step_cls", corpus.videos, corpus, seed=8)
        r1 = evaluate(pretrained, mcfg, bset)
        rng = np.random.default_rng(0)
        shuffled = build_benchmark_set("step_cls", corpus.videos, corpus, seed=8)
        rng.shuffle(shuffled.instances)
        r2 = evaluate(pretrained, mcfg, shuffled)
        assert (r1.accuracy, r1.correct, r1.total) == (r2.accuracy, r2.correct, r2.total)

    def test_empty_dataset_rejected(self, corpus, mcfg, pretrained):
        bset = build_benchmark_set("step_cls", corpus.videos, corpus, seed=8)
        bset.instances = []
        with pytest.raises(InvalidInput):
            evaluate(pretrained, mcfg, bset)

    @pytest.mark.parametrize("budget", ["default", "three_rows"])
    @pytest.mark.parametrize("use_task_label", [False, True])
    @pytest.mark.parametrize("kind", KINDS)
    def test_batches_equal_per_instance_scoring(
        self, corpus, mcfg, pretrained, monkeypatch, kind, use_task_label, budget
    ):
        if budget == "three_rows":
            monkeypatch.setattr(downstream_module, "BATCH_ELEMENTS", 3 * mcfg.mlp_hidden)
        bset = build_benchmark_set(kind, corpus.videos, corpus, seed=8, instances_per_video=4)
        if use_task_label:
            attach_task_embeddings(bset, corpus, default_embedder(corpus.cfg), mcfg.d_in)
        batches = list(_batches(bset.instances, mcfg, use_task_label))
        assert sorted(i for batch in batches for i in batch) == list(range(len(bset)))
        if kind in ("mistake_step", "mistake_order") or budget == "three_rows":
            assert len(batches) > 1  # sets larger than one batch
        if kind == "short_term":
            assert len({bset.instances[i].K for i in range(len(bset))}) > 1

        report = evaluate(pretrained, mcfg, bset, use_task_label=use_task_label, per_class=True)
        correct = total = 0
        class_counts = {}
        for inst in bset.instances:
            c, t = _count_correct(inst, predict(pretrained, mcfg, inst, use_task_label))
            correct, total = correct + c, total + t
            if isinstance(inst.target, int):
                counts = class_counts.setdefault(inst.target, [0, 0])
                counts[0], counts[1] = counts[0] + c, counts[1] + t
        assert (report.correct, report.total) == (correct, total)
        assert report.per_class == {k: c / t for k, (c, t) in sorted(class_counts.items())}

        # Each batch's head logits are bitwise those of the instance's own
        # 2-D pass, the one full fine-tuning runs.
        route = ROUTES[kind]
        for batch in batches:
            insts = [bset.instances[i] for i in batch]
            trace, rows, at = _forward(pretrained, mcfg, insts, use_task_label)
            stacked = _slot_logits(pretrained, route, trace.hidden[:, rows], at)
            for j, inst in enumerate(insts):
                one, rows, at = _forward(pretrained, mcfg, [inst], use_task_label, stack=False)
                for (_, z), (_, want) in zip(stacked, _slot_logits(pretrained, route, one.hidden[rows], at)):
                    assert z[j].tobytes() == want.tobytes()

    def test_per_class_accuracy(self, corpus, mcfg, pretrained):
        bset = build_benchmark_set("step_cls", corpus.videos, corpus, seed=8)
        report = evaluate(pretrained, mcfg, bset, per_class=True)
        assert report.per_class
        totals = sum(
            1 for inst in bset.instances for _ in [inst.target]
        )
        assert report.total == totals
