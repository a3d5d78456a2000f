import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stepmask.corpus import (
    Corpus,
    CorpusConfig,
    ambiguous_twin_corpus,
    generate_corpus,
    generate_task_library,
    label_prototypes,
    load_annotations,
    load_corpus,
    quantize_f32,
    read_feature_sidecar,
    sample_video,
    save_corpus,
    split_corpus,
    synthetic_vocabulary,
)
from stepmask.errors import (
    ConfigError, InvalidAnnotation, InvalidInput, ParseError, StepmaskError, VocabularyMismatch,
)
from stepmask.weaklabel import TextEmbedder, best_label

from mutations import mutated


def small_config(**overrides) -> CorpusConfig:
    base = dict(
        num_tasks=3, steps_per_task=4, vocab_size=15, videos_per_task=3,
        feature_noise_sigma=0.0, asr_noise=0.0, feature_dim=8, seed=5,
    )
    base.update(overrides)
    return CorpusConfig(**base)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            small_config(steps_per_task=1)
        with pytest.raises(ConfigError):
            small_config(vocab_size=2)
        with pytest.raises(ConfigError):
            small_config(asr_noise=1.0)

    def test_steps_range(self):
        assert small_config(steps_per_task=(4, 6)).steps_range() == (4, 6)
        assert small_config().steps_range() == (4, 4)


class TestTaskLibrary:
    def test_counts(self):
        cfg = small_config(num_tasks=1, steps_per_task=3)
        vocab = synthetic_vocabulary(cfg.vocab_size, TextEmbedder(dim=8, seed=5), 5)
        lib = generate_task_library(cfg, vocab)
        assert len(lib) == 1
        assert len(lib[0].canonical_steps) == 3

    def test_seeded_determinism(self):
        cfg = small_config()
        vocab = synthetic_vocabulary(cfg.vocab_size, TextEmbedder(dim=8, seed=5), 5)
        a = generate_task_library(cfg, vocab)
        b = generate_task_library(cfg, vocab)
        assert [t.canonical_steps for t in a] == [t.canonical_steps for t in b]
        assert [t.alternatives for t in a] == [t.alternatives for t in b]

    def test_no_sharing_uses_distinct_labels(self):
        cfg = small_config(num_tasks=10, steps_per_task=6, vocab_size=60, embed_dim=8)
        vocab = synthetic_vocabulary(60, TextEmbedder(dim=8, seed=5), 5)
        lib = generate_task_library(cfg, vocab)
        used = list(itertools.chain.from_iterable(t.canonical_steps for t in lib))
        assert len(used) == 60
        assert len(set(used)) == 60

    def test_insufficient_vocabulary(self):
        cfg = small_config(num_tasks=4, steps_per_task=4, vocab_size=15)
        vocab = synthetic_vocabulary(15, TextEmbedder(dim=8, seed=5), 5)
        with pytest.raises(ConfigError):
            generate_task_library(cfg, vocab)


class TestSampleVideo:
    def test_noiseless_matches_canonical(self):
        cfg = small_config()
        corpus = generate_corpus(cfg)
        for template, video in zip(corpus.templates, corpus.videos[:: cfg.videos_per_task]):
            assert video.truths() == template.canonical_steps
            for clip in video.clips:
                assert best_label(clip.weak) == clip.truth

    def test_zero_sigma_features_equal_prototypes(self):
        cfg = small_config()
        corpus = generate_corpus(cfg)
        protos = label_prototypes(corpus.vocab, cfg.feature_dim)
        for video in corpus.videos:
            for clip in video.clips:
                assert np.array_equal(clip.feature, quantize_f32(protos[clip.truth]))

    def test_skip_statistics_against_enumeration_oracle(self):
        # exact expectation by enumerating all skip patterns with the >=2 floor
        cfg = small_config(
            num_tasks=1, steps_per_task=6, vocab_size=6, videos_per_task=1,
            skip_probability=0.2,
        )
        p = cfg.skip_probability
        expected = 0.0
        for pattern in itertools.product([0, 1], repeat=6):  # 1 = wants to skip
            prob = np.prod([p if b else 1 - p for b in pattern])
            kept = 0
            for pos, wants_skip in enumerate(pattern):
                can_drop = kept + (6 - pos - 1) >= 2
                if not (wants_skip and can_drop):
                    kept += 1
            expected += prob * kept
        assert expected == pytest.approx(4.802, abs=5e-3)

        corpus = generate_corpus(cfg)
        template, vocab = corpus.templates[0], corpus.vocab
        lengths = [
            sample_video(template, vocab, cfg, draw_seed=d).K for d in range(1000)
        ]
        assert np.mean(lengths) == pytest.approx(expected, abs=0.1)
        assert min(lengths) >= 2

    def test_deterministic_in_draw_seed(self):
        cfg = small_config(feature_noise_sigma=0.3, asr_noise=0.2)
        corpus = generate_corpus(cfg)
        a = sample_video(corpus.templates[0], corpus.vocab, cfg, draw_seed=9)
        b = sample_video(corpus.templates[0], corpus.vocab, cfg, draw_seed=9)
        assert a.truths() == b.truths()
        assert all(np.array_equal(x.feature, y.feature) for x, y in zip(a.clips, b.clips))
        assert [x.asr for x in a.clips] == [y.asr for y in b.clips]

    def test_alternatives_substitute(self):
        cfg = small_config(alternative_fraction=1.0, vocab_size=30, seed=3)
        corpus = generate_corpus(cfg)
        template = corpus.templates[0]
        assert template.alternatives
        seen = set()
        for d in range(200):
            v = sample_video(template, corpus.vocab, cfg, draw_seed=d)
            for pos, label in enumerate(v.truths()):
                if pos in template.alternatives:
                    seen.add((pos, label))
        for pos, alts in template.alternatives.items():
            realized = {label for p, label in seen if p == pos}
            assert realized == {template.canonical_steps[pos], *alts}


class TestCorpusDeterminism:
    def test_bit_for_bit(self):
        cfg = small_config(feature_noise_sigma=0.1, asr_noise=0.1)
        a = generate_corpus(cfg)
        b = generate_corpus(cfg)
        assert a.digest() == b.digest()


class TestFiles:
    def test_round_trip(self, tmp_path):
        cfg = small_config(feature_noise_sigma=0.2, asr_noise=0.1)
        corpus = generate_corpus(cfg)
        save_corpus(corpus, tmp_path)
        loaded = load_corpus(tmp_path)
        assert loaded.digest() == corpus.digest()
        for a, b in zip(corpus.videos, loaded.videos):
            assert a.video_id == b.video_id
            assert a.task_id == b.task_id
            assert a.truths() == b.truths()
            for ca, cb in zip(a.clips, b.clips):
                assert np.array_equal(ca.feature, cb.feature)
                assert ca.asr == cb.asr
                assert ca.weak.entries == cb.weak.entries

    def test_manifest_contents(self, tmp_path):
        cfg = small_config()
        corpus = generate_corpus(cfg)
        manifest = save_corpus(corpus, tmp_path, extra={"config_digest": "abc"})
        on_disk = json.loads((tmp_path / "manifest.json").read_text())
        assert on_disk == manifest
        assert on_disk["digest"] == corpus.digest()
        assert on_disk["config_digest"] == "abc"

    def test_unknown_manifest_config_key_rejected(self, tmp_path):
        save_corpus(generate_corpus(small_config()), tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["config"]["clip_vectors_per_step"] = 1
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ParseError, match="manifest.json.*clip_vectors_per_step"):
            load_corpus(tmp_path)

    def test_empty_video_list(self, tmp_path):
        (tmp_path / "ann.json").write_text('{"videos": []}')
        cfg = small_config()
        corpus = generate_corpus(cfg)
        emb = TextEmbedder(dim=cfg.embed_dim, seed=cfg.seed)
        _, videos, _ = load_annotations(tmp_path / "ann.json", corpus.vocab, emb, k=3)
        assert videos == []

    def _write_annotation(self, tmp_path, steps):
        payload = {
            "videos": [
                {"video_id": "v0", "task_id": 0, "task_name": "t", "steps": steps}
            ]
        }
        path = tmp_path / "ann.json"
        path.write_text(json.dumps(payload))
        return path

    def test_overlapping_segments_rejected(self, tmp_path):
        cfg = small_config()
        corpus = generate_corpus(cfg)
        emb = TextEmbedder(dim=cfg.embed_dim, seed=cfg.seed)
        path = self._write_annotation(
            tmp_path,
            [
                {"label_id": 0, "start": 0.0, "end": 2.0, "asr": "a"},
                {"label_id": 1, "start": 1.5, "end": 3.0, "asr": "b"},
            ],
        )
        with pytest.raises(InvalidAnnotation):
            load_annotations(path, corpus.vocab, emb, k=3)

    def test_unknown_label_rejected(self, tmp_path):
        cfg = small_config()
        corpus = generate_corpus(cfg)
        emb = TextEmbedder(dim=cfg.embed_dim, seed=cfg.seed)
        path = self._write_annotation(
            tmp_path,
            [
                {"label_id": 0, "start": 0.0, "end": 1.0, "asr": "a"},
                {"label_id": 99, "start": 1.0, "end": 2.0, "asr": "b"},
            ],
        )
        with pytest.raises(VocabularyMismatch):
            load_annotations(path, corpus.vocab, emb, k=3)

    @pytest.mark.parametrize("edit, match", [
        (lambda v: v.update(task_id=0.9), r"videos\[0\]: task_id 0.9 is not an integer"),
        (lambda v: v.update(task_id=True), r"videos\[0\]: task_id True is not an integer"),
        (lambda v: v["steps"][1].update(label_id="2"),
         r"videos\[0\]\.steps\[1\]: label_id '2' is not an integer"),
    ], ids=["float_task_id", "bool_task_id", "string_label_id"])
    def test_annotation_types_are_exact(self, tmp_path, edit, match):
        save_corpus(generate_corpus(small_config()), tmp_path)
        path = tmp_path / "annotations.json"
        payload = json.loads(path.read_text())
        edit(payload["videos"][0])
        path.write_text(json.dumps(payload))
        with pytest.raises(ParseError, match=match):
            load_corpus(tmp_path)

    def test_features_synthesized_without_sidecar(self, tmp_path):
        cfg = small_config()
        corpus = generate_corpus(cfg)
        save_corpus(corpus, tmp_path)
        (tmp_path / "features.stpf").unlink()
        loaded = load_corpus(tmp_path)
        protos = label_prototypes(corpus.vocab, cfg.feature_dim)
        for v in loaded.videos:
            for c in v.clips:
                assert np.array_equal(c.feature, quantize_f32(protos[c.truth]))


class TestFeatureSidecar:
    HEADER = 20

    @pytest.fixture
    def saved(self, tmp_path):
        cfg = small_config()
        save_corpus(generate_corpus(cfg), tmp_path)
        return tmp_path / "features.stpf", 12 + 4 * cfg.feature_dim

    @pytest.mark.parametrize("keep", [0, 3, 10, 19])
    def test_short_header(self, saved, keep):
        path, _ = saved
        path.write_bytes(path.read_bytes()[:keep])
        message = rf"features.stpf: file ends inside the header at byte {keep}$"
        with pytest.raises(ParseError, match=message):
            read_feature_sidecar(path)

    def test_truncated_and_trailing_records(self, saved):
        path, _ = saved
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(ParseError, match=rf"ends inside record \d+ at byte {len(data) - 5}$"):
            read_feature_sidecar(path)
        path.write_bytes(data + b"\0" * 3)
        with pytest.raises(ParseError, match=rf"3 trailing bytes at byte {len(data)}$"):
            read_feature_sidecar(path)

    def test_duplicate_record_rejected(self, saved):
        path, record = saved
        data = bytearray(path.read_bytes())
        first = slice(self.HEADER, self.HEADER + record)
        data[self.HEADER + record : self.HEADER + 2 * record] = data[first]
        path.write_bytes(bytes(data))
        at = self.HEADER + record
        with pytest.raises(ParseError, match=rf"duplicate record for clip 0 .* at byte {at}$"):
            read_feature_sidecar(path)
        with pytest.raises(ParseError, match=rf"features.stpf: duplicate .* at byte {at}$"):
            load_corpus(path.parent)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_names_its_byte(self, saved, value):
        path, record = saved
        data = bytearray(path.read_bytes())
        at = self.HEADER + record + 12 + 4
        data[at : at + 4] = np.float32(value).tobytes()
        path.write_bytes(bytes(data))
        with np.errstate(invalid="raise"):
            with pytest.raises(ParseError, match=rf"non-finite feature value .* at byte {at}$"):
                read_feature_sidecar(path)
            with pytest.raises(ParseError, match=rf"features.stpf: non-finite .* at byte {at}$"):
                load_corpus(path.parent)

    def test_record_for_another_clip_names_its_byte(self, saved):
        path, record = saved
        data = bytearray(path.read_bytes())
        data[self.HEADER + record + 8 : self.HEADER + record + 12] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        message = (
            r"features.stpf: no record for .*videos\[0\]\.steps\[1\] \(clip 1 of video hash .*\);"
            rf" record 1 holds clip 99 of video hash .* at byte {self.HEADER + record}$"
        )
        with pytest.raises(ParseError, match=message):
            load_corpus(path.parent)

    def test_missing_last_record_names_the_end(self, saved):
        path, record = saved
        data = bytearray(path.read_bytes()[:-record])
        count = int.from_bytes(data[12:20], "little")
        data[12:20] = (count - 1).to_bytes(8, "little")
        path.write_bytes(bytes(data))
        message = rf"the file ends after {count - 1} records at byte {len(data)}$"
        with pytest.raises(ParseError, match=message):
            load_corpus(path.parent)


@pytest.fixture(scope="module")
def saved_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzzed_corpus")
    save_corpus(generate_corpus(small_config(feature_dim=2)), out)
    return out, (out / "features.stpf").read_bytes()


class TestFeatureSidecarFuzz:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutated_sidecar_loads_or_names_the_byte(self, saved_corpus, data):
        out, raw = saved_corpus
        path = out / "features.stpf"
        path.write_bytes(data.draw(mutated(raw), label="contents"))
        try:
            load_corpus(out)
        except StepmaskError as exc:
            assert re.fullmatch(rf"{re.escape(str(path))}: .* at byte \d+", str(exc), re.S), str(exc)
        finally:
            path.write_bytes(raw)


class TestSplit:
    def test_all_train(self):
        corpus = generate_corpus(small_config())
        train, val, test = split_corpus(corpus.videos, (1.0, 0.0, 0.0), seed=1)
        assert len(train) == len(corpus.videos)
        assert not val and not test

    def test_partition_property(self):
        corpus = generate_corpus(small_config(videos_per_task=7))
        ids = {v.video_id for v in corpus.videos}
        for seed in range(5):
            train, val, test = split_corpus(corpus.videos, (0.6, 0.2, 0.2), seed=seed)
            got = [v.video_id for v in train + val + test]
            assert len(got) == len(ids)
            assert set(got) == ids

    def test_stratified_counts(self):
        cfg = small_config(num_tasks=10, steps_per_task=4, vocab_size=40,
                           videos_per_task=10)
        corpus = generate_corpus(cfg)
        train, val, test = split_corpus(corpus.videos, (0.8, 0.1, 0.1), seed=3)
        for task in range(10):
            assert sum(1 for v in train if v.task_id == task) == 8
            assert sum(1 for v in val if v.task_id == task) == 1
            assert sum(1 for v in test if v.task_id == task) == 1

    def test_small_task_falls_back_to_pool(self, caplog):
        cfg = small_config(videos_per_task=2)
        corpus = generate_corpus(cfg)
        with caplog.at_level("WARNING"):
            train, val, test = split_corpus(corpus.videos, (0.5, 0.25, 0.25), seed=0)
        assert "unstratified" in caplog.text
        assert len(train) + len(val) + len(test) == len(corpus.videos)

    def test_bad_ratios(self):
        corpus = generate_corpus(small_config())
        with pytest.raises(InvalidInput):
            split_corpus(corpus.videos, (0.5, 0.2, 0.2), seed=0)
        with pytest.raises(InvalidInput):
            split_corpus(corpus.videos, (1.2, -0.1, -0.1), seed=0)


class TestTwinCorpus:
    def test_twins_share_prototype_and_positions(self):
        twin = ambiguous_twin_corpus(videos_per_task=6, sigma=0.0, seed=2)
        corpus = twin.corpus
        a, b = twin.twin_labels
        # with sigma 0 the twin clips' features coincide exactly
        feats = {}
        for v in corpus.videos:
            pos = twin.twin_positions[v.task_id]
            assert v.truths()[pos] in twin.twin_labels
            feats.setdefault(v.truths()[pos], v.clips[pos].feature)
        assert np.array_equal(feats[a], feats[b])
        assert twin.twin_positions[0] != twin.twin_positions[1]

    def test_balanced(self):
        twin = ambiguous_twin_corpus(videos_per_task=5, seed=2)
        counts = {0: 0, 1: 0}
        for v in twin.corpus.videos:
            counts[v.task_id] += 1
        assert counts[0] == counts[1] == 5
