import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stepmask.errors import (
    InvalidDistribution,
    InvalidInput,
    MissingEmbedding,
    ParseError,
    StepmaskError,
)
from stepmask.weaklabel import (
    LabelDistribution,
    StepVocabulary,
    TextEmbedder,
    best_label,
    embed_text,
    normalize_text,
    stable_softmax,
    truncate_topk,
    weak_label_distribution,
)

from mutations import mutated


@pytest.fixture
def embedder():
    return TextEmbedder(dim=16, seed=7)


class TestEmbedText:
    def test_deterministic(self, embedder):
        a = embed_text(embedder, "whisk the batter")
        b = embed_text(embedder, "whisk the batter")
        assert np.array_equal(a, b)

    def test_unit_norm(self, embedder):
        for text in ("whisk the batter", "x", "a much longer narration sentence here"):
            v = embed_text(embedder, text)
            assert v.shape == (16,)
            assert abs(np.linalg.norm(v) - 1.0) < 1e-9

    def test_normalization_rule(self, embedder):
        a = embed_text(embedder, "Whisk  the batter")
        b = embed_text(embedder, "whisk the batter")
        assert np.array_equal(a, b)

    def test_distinct_seed_distinct_vector(self):
        a = embed_text(TextEmbedder(dim=16, seed=7), "whisk the batter")
        b = embed_text(TextEmbedder(dim=16, seed=8), "whisk the batter")
        assert not np.array_equal(a, b)

    def test_empty_text_rejected(self, embedder):
        with pytest.raises(InvalidInput):
            embed_text(embedder, "   ")

    def test_table_mode(self, tmp_path):
        path = tmp_path / "table.tsv"
        path.write_text("hello there\t3 4\nbye\t0 1\n")
        emb = TextEmbedder.from_table_file(path)
        v = embed_text(emb, "Hello  THERE")
        assert v == pytest.approx([0.6, 0.8])
        with pytest.raises(MissingEmbedding):
            embed_text(emb, "unknown sentence")

    def test_table_mode_bad_rows(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\t1 2\nb\t1 2 3\n")
        with pytest.raises(ParseError):
            TextEmbedder.from_table_file(path)
        path.write_text("no tab here\n")
        with pytest.raises(ParseError):
            TextEmbedder.from_table_file(path)


class TestTruncateTopk:
    def test_hand_renormalization(self):
        dist = truncate_topk(np.array([0.5, 0.3, 0.2]), k=2)
        assert dist.entries == ((0, pytest.approx(0.625)), (1, pytest.approx(0.375)))

    def test_k_equals_s_unchanged(self):
        p = np.array([0.1, 0.4, 0.2, 0.3])
        dist = truncate_topk(p, k=4)
        assert dist.as_dense(4) == pytest.approx(p, abs=1e-12)

    def test_tie_breaks_to_lower_id(self):
        dist = truncate_topk(np.array([0.4, 0.4, 0.2]), k=1)
        assert dist.entries == ((0, 1.0),)

    def test_zero_entries_never_kept(self):
        dist = truncate_topk(np.array([1.0, 0.0, 0.0]), k=2)
        assert dist.entries == ((0, 1.0),)

    def test_rejects_non_distribution(self):
        with pytest.raises(InvalidDistribution):
            truncate_topk(np.array([0.9, 0.3]), k=1)

    @given(st.integers(2, 30), st.integers(1, 30), st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, s, k, seed):
        rng = np.random.default_rng(seed)
        p = rng.random(s)
        p /= p.sum()
        once = truncate_topk(p, k)
        twice = truncate_topk(once.as_dense(s), k)
        assert once.labels() == twice.labels()
        np.testing.assert_allclose(once.as_dense(s), twice.as_dense(s), atol=1e-12)


class TestWeakLabelDistribution:
    def test_equal_similarities_uniform(self, embedder):
        # identical descriptions embed identically, so all similarities tie
        vocab = StepVocabulary.build(
            [f"t{i}" for i in range(4)], ["same description"] * 4, embedder
        )
        dist = weak_label_distribution("anything spoken", vocab, embedder, k=4)
        assert dist.as_dense(4) == pytest.approx([0.25] * 4, abs=1e-12)

    def test_two_label_closed_form(self):
        # similarities [1, 0] against the query
        table = {"query": [1.0, 0.0], "first": [1.0, 0.0], "second": [0.0, 1.0]}
        emb = TextEmbedder(
            dim=2, mode="table",
            table={k: np.array(v) for k, v in table.items()},
        )
        vocab = StepVocabulary.build(["a", "b"], ["first", "second"], emb)
        dist = weak_label_distribution("query", vocab, emb, k=2)
        assert dist.as_dense(2) == pytest.approx([0.7311, 0.2689], abs=1e-4)

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            s = rng.normal(size=rng.integers(2, 40))
            c = rng.normal() * 10
            np.testing.assert_allclose(
                stable_softmax(s), stable_softmax(s + c), atol=1e-12
            )

    def test_invariants_and_argmax_consistency(self, embedder):
        # brute-force oracle over random vocabularies with S <= 50
        rng = np.random.default_rng(1)
        for trial in range(40):
            s = int(rng.integers(2, 51))
            vocab = StepVocabulary.build(
                [f"t{trial}-{i}" for i in range(s)],
                [f"desc {trial} {i}" for i in range(s)],
                embedder,
            )
            sentence = f"spoken sentence {trial}"
            k = int(rng.integers(1, s + 1))
            dist = weak_label_distribution(sentence, vocab, embedder, k)
            dense = dist.as_dense(s)
            assert abs(dense.sum() - 1.0) < 1e-9
            assert len(dist.entries) <= k
            assert all(p > 0 for _, p in dist.entries)
            sims = vocab.embeddings @ embed_text(embedder, sentence)
            assert best_label(dist) == int(np.argmax(sims))


class TestBestLabel:
    def test_argmax(self):
        dist = LabelDistribution(entries=((3, 0.9), (1, 0.1)), k=2)
        assert best_label(dist) == 3

    def test_tie_breaks_to_lower_id(self):
        dist = truncate_topk(np.array([0.0, 0.0, 0.5, 0.0, 0.0, 0.5]), k=3)
        assert best_label(dist) == 2


class TestVocabularyIO:
    def test_round_trip(self, tmp_path, embedder):
        vocab = StepVocabulary.build(["a", "b"], ["first", "second"], embedder)
        vocab.to_json_file(tmp_path / "vocab.json")
        loaded = StepVocabulary.from_json_file(tmp_path / "vocab.json", embedder)
        assert loaded.titles == vocab.titles
        assert np.array_equal(loaded.embeddings, vocab.embeddings)

    def test_non_contiguous_ids_rejected(self, tmp_path, embedder):
        (tmp_path / "vocab.json").write_text(
            '[{"id": 0, "title": "a", "description": "x"},'
            ' {"id": 2, "title": "b", "description": "y"}]'
        )
        with pytest.raises(ParseError):
            StepVocabulary.from_json_file(tmp_path / "vocab.json", embedder)

    def test_duplicate_titles_rejected(self, embedder):
        with pytest.raises(InvalidInput):
            StepVocabulary.build(["a", "a"], ["x", "y"], embedder)

    @pytest.mark.parametrize(
        "records, match",
        [
            ([], "expected a non-empty JSON array"),
            ([{"id": 0, "title": "a", "description": "x"}, {"id": 1, "title": "a", "description": "y"}],
             r"entry 1: duplicate title 'a'"),
            ([{"id": 0, "title": "a", "description": " "}], r"entry 0: cannot embed empty text"),
            ([{"id": 0, "title": "a", "description": "x"}, {"id": -1, "title": "b", "description": "y"}],
             r"entry 1: id -1 outside \[0, 2\)"),
        ],
        ids=["empty", "duplicate_title", "blank_description", "negative_id"],
    )
    def test_bad_entry_names_the_file_and_entry(self, tmp_path, embedder, records, match):
        path = tmp_path / "vocab.json"
        path.write_text(json.dumps(records))
        with pytest.raises(StepmaskError, match=re.escape(str(path)) + ": " + match):
            StepVocabulary.from_json_file(path, embedder)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_mutated_file_loads_or_names_the_place(self, vocab_file, embedder_for_fuzz, data):
        src, path = vocab_file
        path.write_bytes(data.draw(mutated(src.read_bytes()), label="contents"))
        try:
            StepVocabulary.from_json_file(path, embedder_for_fuzz)
        except StepmaskError as exc:
            assert str(exc).startswith(f"{path}: "), str(exc)
            assert re.search(r"\b(line|entry) \d+", str(exc)), str(exc)


@pytest.fixture(scope="module")
def embedder_for_fuzz():
    return TextEmbedder(dim=16, seed=7)


@pytest.fixture(scope="module")
def vocab_file(embedder_for_fuzz, tmp_path_factory):
    """A four-step vocabulary as `to_json_file` writes it, and a path for
    mutated copies."""
    out = tmp_path_factory.mktemp("vocab")
    vocab = StepVocabulary.build(
        ["crack eggs", "whisk", "heat pan", "pour"],
        ["crack two eggs", "whisk them", "heat the pan", "pour the eggs in"],
        embedder_for_fuzz,
    )
    vocab.to_json_file(out / "vocab.json")
    return out / "vocab.json", out / "mutated.json"
