import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from stepmask.benchmarks import (
    KIND_SPECS,
    KINDS,
    BenchmarkSet,
    build_benchmark_set,
    derive_seed,
    make_long_term,
    make_mistake_order,
    make_mistake_step,
    make_proc_rec,
    make_short_term,
    make_step_cls,
    read_benchmark_jsonl,
    write_benchmark_jsonl,
)
from stepmask.corpus import Clip, Corpus, CorpusConfig, VideoRecord, generate_corpus
from stepmask.downstream import ROUTES
from stepmask.errors import InvalidInput, ParseError, StepmaskError, SynthesisError
from stepmask.weaklabel import LabelDistribution

from mutations import mutated


@pytest.fixture(scope="module")
def corpus():
    cfg = CorpusConfig(
        num_tasks=4, steps_per_task=5, vocab_size=20, videos_per_task=5,
        feature_noise_sigma=0.1, asr_noise=0.0, feature_dim=8, seed=13,
    )
    return generate_corpus(cfg)


def constant_label_video(label: int, k: int = 3) -> tuple[Corpus, VideoRecord]:
    dist = LabelDistribution(entries=((label, 1.0),), k=1)
    clips = [
        Clip(feature=np.full(4, float(i)), asr="x", weak=dist, truth=label)
        for i in range(k)
    ]
    video = VideoRecord(video_id="flat", task_id=0, clips=clips)
    corpus = Corpus(
        vocab=None, videos=[video], task_names={0: "t0"}, cfg=None,
    )
    return corpus, video


class TestMistakeStep:
    def test_construction_trace(self, corpus):
        video = corpus.videos[0]
        inst = make_mistake_step(video, corpus, seed=5)
        src = video.truths()
        diffs = [i for i, (a, b) in enumerate(zip(src, inst.labels)) if a != b]
        assert diffs == [inst.target]
        assert inst.K == video.K
        donor_vid, donor_idx = inst.clip_refs[inst.target]
        assert donor_vid != video.video_id
        donor = corpus.video(donor_vid).clips[donor_idx]
        assert np.array_equal(inst.clips[inst.target], donor.feature)

    def test_deterministic(self, corpus):
        a = make_mistake_step(corpus.videos[1], corpus, seed=9)
        b = make_mistake_step(corpus.videos[1], corpus, seed=9)
        assert a.clip_refs == b.clip_refs
        assert a.target == b.target

    def test_position_uniformity(self, corpus):
        counts = np.zeros(corpus.videos[0].K)
        video = corpus.videos[0]
        for s in range(10_000):
            inst = make_mistake_step(video, corpus, seed=derive_seed(3, video.video_id, s))
            counts[inst.target] += 1
        p = stats.chisquare(counts).pvalue
        assert p > 0.01, counts

    def test_no_eligible_donor(self):
        corpus, video = constant_label_video(label=2)
        with pytest.raises(SynthesisError):
            make_mistake_step(video, corpus, seed=0)


class TestMistakeOrder:
    def test_two_clip_swap(self, corpus):
        video = corpus.videos[2]
        inst = make_mistake_order(video, corpus, seed=1, force_permuted=True)
        assert inst.target is True
        assert inst.labels != video.truths()
        assert sorted(inst.labels) == sorted(video.truths())

    def test_unmodified_branch(self, corpus):
        video = corpus.videos[2]
        inst = make_mistake_order(video, corpus, seed=1, force_permuted=False)
        assert inst.target is False
        assert inst.labels == video.truths()

    def test_all_identical_labels_unpermutable(self):
        corpus, video = constant_label_video(label=1)
        with pytest.raises(SynthesisError):
            make_mistake_order(video, corpus, seed=0, force_permuted=True)

    def test_permuted_avoids_same_task_orderings(self, corpus):
        valid = {}
        for v in corpus.videos:
            valid.setdefault(v.task_id, set()).add(tuple(v.truths()))
        for video in corpus.videos:
            for r in range(20):
                inst = make_mistake_order(
                    video, corpus, seed=derive_seed(7, video.video_id, r),
                    force_permuted=True,
                )
                assert tuple(inst.labels) not in valid[video.task_id]


class TestSlicingKinds:
    def test_short_term(self, corpus):
        video = corpus.videos[0]
        inst = make_short_term(video, n=2, seed=0)
        assert inst.K == 2
        assert inst.target == video.truths()[2]
        assert make_short_term(video, n=video.K - 1, seed=0).K == video.K - 1
        with pytest.raises(InvalidInput):
            make_short_term(video, n=0, seed=0)
        with pytest.raises(InvalidInput):
            make_short_term(video, n=video.K, seed=0)

    def test_short_term_enumeration_count(self, corpus):
        video = corpus.videos[0]
        instances = [make_short_term(video, n, 0) for n in range(1, video.K)]
        assert len(instances) == video.K - 1

    def test_long_term_padding(self, corpus):
        video = corpus.videos[0]  # K = 5
        inst = make_long_term(video, i=0, seed=0)
        assert inst.target == tuple(video.truths()[1:5]) + (None,)
        tail = make_long_term(video, i=video.K - 2, seed=0)
        assert tail.target[0] == video.truths()[-1]
        assert tail.target[1:] == (None, None, None, None)
        nulls = [t for t in tail.target if t is None]
        assert len(nulls) == 4
        with pytest.raises(InvalidInput):
            make_long_term(video, i=video.K - 1, seed=0)

    def test_long_term_no_nulls_on_long_video(self):
        dist = LabelDistribution(entries=((0, 1.0),), k=1)
        clips = [
            Clip(feature=np.zeros(4), asr="x", weak=dist, truth=i % 3)
            for i in range(7)
        ]
        video = VideoRecord(video_id="long", task_id=0, clips=clips)
        inst = make_long_term(video, i=0, seed=0)
        assert all(t is not None for t in inst.target)

    def test_nulls_are_a_suffix(self, corpus):
        for video in corpus.videos:
            for i in range(video.K - 1):
                target = make_long_term(video, i, 0).target
                seen_null = False
                for t in target:
                    if t is None:
                        seen_null = True
                    else:
                        assert not seen_null

    def test_proc_rec_and_step_cls(self, corpus):
        video = corpus.videos[3]
        pr = make_proc_rec(video)
        assert pr.K == video.K
        assert pr.target == video.task_id
        sc = make_step_cls(video, 1)
        assert sc.K == 1
        assert sc.target == video.truths()[1]

    def test_step_cls_enumeration_count(self, corpus):
        total = sum(
            len(build_benchmark_set("step_cls", [v], corpus, seed=0).instances)
            for v in corpus.videos
        )
        assert total == sum(v.K for v in corpus.videos)


class TestBuilder:
    def test_balanced_order_set(self, corpus):
        bset = build_benchmark_set(
            "mistake_order", corpus.videos, corpus, seed=3, instances_per_video=4
        )
        positives = sum(1 for inst in bset.instances if not inst.target)
        assert abs(positives / len(bset) - 0.5) <= 0.5 / len(bset) + 1e-9

    def test_determinism_via_digest(self, corpus):
        a = build_benchmark_set("mistake_step", corpus.videos, corpus, seed=3)
        b = build_benchmark_set("mistake_step", corpus.videos, corpus, seed=3)
        assert a.digest == b.digest
        c = build_benchmark_set("mistake_step", corpus.videos, corpus, seed=4)
        assert a.digest != c.digest

    def test_unknown_kind(self, corpus):
        with pytest.raises(InvalidInput):
            build_benchmark_set("nope", corpus.videos, corpus, seed=0)

    @pytest.mark.parametrize("kind, same_task_donor, digest", [
        ("mistake_step", False, "28f9cb3da827d8e17d5e0e29aa3e56c3aab1f0a8ba9e85143216a14cc7edb640"),
        ("mistake_step", True, "59f90b7416ef00a8118bcdf31e647e0968cb575121bb3f8425d357dabf02b617"),
        ("mistake_order", False, "d6434230323aa187596c4b85bce871121b1cb180576618385324dd9d1872c9c9"),
        ("short_term", False, "131dc3c4e6323781ae1e0be5772b0830d80981086f4346139023ee8688f04870"),
        ("long_term", False, "5bf29a05422a5ac4918fba9ff5db1ca5bedd3bad6b78ab9b6ee50aeec56ea981"),
        ("proc_rec", False, "449d19d16cf9bec5d117b8060eb1ef24d498f5a6ddd18a563fdb9400d62a8e31"),
        ("step_cls", False, "cb1116516b7bfa0001beaa1e58e921da406bac7209a39b345b506eedd49bf2b8"),
    ])
    def test_pinned_set_digests(self, corpus, kind, same_task_donor, digest):
        # Synthesis must not move: every RNG draw, and the order of each
        # instance's eligible donors, stay as they were when these were recorded.
        bset = build_benchmark_set(
            kind, corpus.videos, corpus, seed=5, instances_per_video=3,
            same_task_donor=same_task_donor,
        )
        assert bset.digest == digest

    def test_skipped_slots_counted_outside_the_digest(self):
        corpus, video = constant_label_video(label=2)
        bset = build_benchmark_set("mistake_step", [video], corpus, seed=0, instances_per_video=3)
        assert (len(bset), bset.skipped) == (0, 3)
        assert bset.digest == BenchmarkSet("mistake_step", [], "all", 0).digest

    def test_kind_table_matches_routes(self):
        assert tuple(KIND_SPECS) == KINDS
        assert set(KINDS) == set(ROUTES)


@pytest.fixture(scope="module")
def jsonl_files(corpus, tmp_path_factory):
    """Each kind's benchmark file over three videos, two instances a video."""
    out = tmp_path_factory.mktemp("jsonl")
    raw = {}
    for kind in KINDS:
        path = out / f"{kind}.jsonl"
        write_benchmark_jsonl(
            build_benchmark_set(kind, corpus.videos[:3], corpus, seed=5, instances_per_video=2), path
        )
        raw[kind] = path.read_bytes()
    return out, raw


class TestJsonl:
    @settings(max_examples=200, deadline=None)
    @given(kind=st.sampled_from(KINDS), data=st.data())
    def test_mutated_file_loads_or_names_the_line(self, corpus, jsonl_files, kind, data):
        out, raw = jsonl_files
        path = out / "mutated.jsonl"
        path.write_bytes(data.draw(mutated(raw[kind]), label="contents"))
        try:
            read_benchmark_jsonl(path, corpus)
        except StepmaskError as exc:
            assert re.match(rf"{re.escape(str(path))}:\d+: ", str(exc)), str(exc)

    @pytest.mark.parametrize("kind", KINDS)
    def test_record_without_clips_names_its_line(self, corpus, jsonl_files, kind):
        out, raw = jsonl_files
        lines = raw[kind].splitlines(keepends=True)
        record = json.loads(lines[1])
        record["clip_refs"] = []
        path = out / "no_clips.jsonl"
        path.write_bytes(lines[0] + json.dumps(record).encode() + b"\n")
        with pytest.raises(ParseError, match=r"no_clips.jsonl:2: clip_refs \[\] is not a non-empty list"):
            read_benchmark_jsonl(path, corpus)

    def test_record_of_another_kind_names_its_line(self, corpus, jsonl_files):
        out, raw = jsonl_files
        path = out / "mixed.jsonl"
        path.write_bytes(raw["proc_rec"] + raw["step_cls"].splitlines(keepends=True)[0])
        lines = raw["proc_rec"].count(b"\n")
        with pytest.raises(ParseError, match=rf"mixed.jsonl:{lines + 1}: kind 'step_cls' differs"):
            read_benchmark_jsonl(path, corpus)

    @pytest.mark.parametrize("kind", ["mistake_step", "mistake_order", "short_term", "long_term", "proc_rec", "step_cls"])
    def test_round_trip(self, corpus, kind, tmp_path):
        bset = build_benchmark_set(kind, corpus.videos, corpus, seed=5, source_split="test")
        path = tmp_path / f"{kind}.jsonl"
        write_benchmark_jsonl(bset, path)
        loaded = read_benchmark_jsonl(path, corpus, source_split="test")
        assert loaded.kind == kind
        assert len(loaded) == len(bset)
        assert loaded.digest == bset.digest
        for a, b in zip(bset.instances, loaded.instances):
            assert a.clip_refs == b.clip_refs
            assert a.target == b.target
            assert a.labels == b.labels
            assert np.array_equal(a.clips, b.clips)

    def test_records_naming_one_clip_share_its_ref(self, corpus, tmp_path):
        bset = build_benchmark_set("mistake_order", corpus.videos[:2], corpus, seed=5, instances_per_video=4)
        path = tmp_path / "order.jsonl"
        write_benchmark_jsonl(bset, path)
        loaded = read_benchmark_jsonl(path, corpus)
        first, second = loaded.instances[0], loaded.instances[1]
        assert first.video_id == second.video_id
        ref = first.clip_refs[0]
        shared = next(r for r in second.clip_refs if r == ref)
        assert shared is ref
        assert ref[0] is corpus.video(ref[0]).video_id
        assert loaded.digest == bset.digest

    @pytest.mark.parametrize(
        "kind, edit, match",
        [
            ("step_cls", lambda r, k: r.update(clip_refs=[[r["video_id"], -1]]), "clip -1 .* outside"),
            ("step_cls", lambda r, k: r.update(clip_refs=[[r["video_id"], k]]), "outside"),
            ("step_cls", lambda r, k: r.update(clip_refs=[["nope", 0]]), "unknown video 'nope'"),
            ("step_cls", lambda r, k: r.update(video_id="nope"), "unknown video 'nope'"),
            ("step_cls", lambda r, k: r.update(target=20), "not a corpus label"),
            ("long_term", lambda r, k: r.update(target=[3, 99, None, None, None]), "not a corpus label"),
            ("long_term", lambda r, k: r.update(target=3), "not iterable"),
            ("proc_rec", lambda r, k: r.update(target=57), "not a corpus task id"),
            ("mistake_step", lambda r, k: r.update(target=-1), "not a clip position"),
            ("mistake_step", lambda r, k: r.update(target=k), "not a clip position"),
            ("mistake_order", lambda r, k: r.update(target="no"), "'no' is not true or false"),
            ("mistake_order", lambda r, k: r.update(target=1), "1 is not true or false"),
            ("long_term", lambda r, k: r.update(target=[1, 2]), "2 slots, not 5"),
            ("step_cls", lambda r, k: r.update(clip_refs=[[r["video_id"], 0.7]]), r"clip ref \[.*, 0.7\] is not"),
            ("step_cls", lambda r, k: r.update(seed=1.5), "seed 1.5 is not an integer"),
            ("proc_rec", lambda r, k: r.update(target=True), "True is not a corpus task id"),
            ("step_cls", lambda r, k: r.update(target="3"), "'3' is not a corpus label"),
            ("step_cls", lambda r, k: r.update(target=3.9), "3.9 is not a corpus label"),
            ("long_term", lambda r, k: r.update(target=[3, 2.0, None, None, None]), "2.0 is not a corpus label"),
            ("step_cls", lambda r, k: b"\xff" + json.dumps(r).encode(), "'utf-8' codec can't decode byte 0xff"),
        ],
        ids=[
            "negative_clip", "clip_past_end", "unknown_ref_video", "unknown_video_id",
            "label", "long_term_label", "long_term_scalar", "task_id",
            "negative_mistake_step", "mistake_step_past_end",
            "mistake_order_string", "mistake_order_int", "long_term_slot_count",
            "float_clip_index", "float_seed", "bool_task_id", "string_label", "float_label",
            "float_long_term_slot", "not_utf8",
        ],
    )
    def test_out_of_range_record_rejected(self, corpus, kind, edit, match, tmp_path):
        bset = build_benchmark_set(kind, corpus.videos[:1], corpus, seed=5)
        path = tmp_path / "bad.jsonl"
        write_benchmark_jsonl(bset, path)
        record = json.loads(path.read_text().splitlines()[0])
        damaged = edit(record, corpus.videos[0].K)  # bytes, or None after editing the record
        path.write_bytes(damaged or (json.dumps(record) + "\n").encode())
        with pytest.raises(ParseError, match=f"bad.jsonl:1: .*{match}"):
            read_benchmark_jsonl(path, corpus)

    def test_empty_file_rejected(self, corpus, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(InvalidInput, match="empty dataset"):
            read_benchmark_jsonl(path, corpus)
