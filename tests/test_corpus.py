import json
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from notepheno.corpus import (
    PAD_ID,
    PAD_TOKEN,
    UNK_ID,
    UNK_TOKEN,
    Note,
    SplitSpec,
    build_vocabulary,
    load_notes_jsonl,
    save_notes_jsonl,
    split_dataset,
    tokenize,
    write_split_manifest,
)

ascii_text = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=80
)


class TestTokenize:
    def test_clinical_sentence(self):
        assert tokenize("CHF with EF 30.") == ["chf", "with", "ef", "30", "."]

    def test_empty(self):
        assert tokenize("") == []

    def test_lowercasing(self):
        assert tokenize("EtOH abuse") == ["etoh", "abuse"]

    def test_punctuation_singletons(self):
        assert tokenize("r/o CHF, s/p CABG!") == [
            "r", "/", "o", "chf", ",", "s", "/", "p", "cabg", "!",
        ]

    def test_underscore_is_punctuation(self):
        assert tokenize("a_b") == ["a", "_", "b"]

    def test_pad_token_is_not_producible(self):
        # No input token can ever collide with the reserved names.
        assert tokenize(PAD_TOKEN) == ["<", "pad", ">"]
        assert tokenize(UNK_TOKEN) == ["<", "unk", ">"]

    @given(ascii_text)
    def test_tokens_are_normalized(self, text):
        for tok in tokenize(text):
            assert tok, "no empty tokens"
            assert tok == tok.lower()
            assert not any(c.isspace() for c in tok)

    @given(ascii_text)
    def test_idempotent_on_canonical_form(self, text):
        tokens = tokenize(text)
        assert tokenize(" ".join(tokens)) == tokens


class TestVocabulary:
    def test_threshold(self):
        vocab = build_vocabulary([["a", "a", "b"]], min_count=2)
        assert vocab.resolve(["a", "b"]) == [2, UNK_ID]

    def test_empty_corpus(self):
        vocab = build_vocabulary([], min_count=1)
        assert vocab.id_to_token == [PAD_TOKEN, UNK_TOKEN]

    def test_frequency_then_lexicographic_order(self):
        vocab = build_vocabulary([["x", "y"], ["y"]], min_count=1)
        assert vocab.token_to_id == {PAD_TOKEN: 0, UNK_TOKEN: 1, "y": 2, "x": 3}

    def test_min_count_must_be_positive(self):
        with pytest.raises(ValueError):
            build_vocabulary([["a"]], min_count=0)

    def test_roundtrip(self):
        vocab = build_vocabulary([["x", "y"], ["y"]], min_count=1)
        again = vocab.from_dict(vocab.to_dict())
        assert again.id_to_token == vocab.id_to_token
        assert again.sha256() == vocab.sha256()

    @given(st.lists(st.lists(st.sampled_from("abcdef"), max_size=8), max_size=10))
    def test_every_token_has_unique_id_or_unk(self, corpus):
        vocab = build_vocabulary(corpus, min_count=2)
        assert vocab.id_to_token[PAD_ID] == PAD_TOKEN
        assert vocab.id_to_token[UNK_ID] == UNK_TOKEN
        seen = set()
        for tokens in corpus:
            for tok, i in zip(tokens, vocab.resolve(tokens)):
                assert i == UNK_ID or i >= 2
                if i >= 2:
                    assert vocab.id_to_token[i] == tok
                    seen.add(i)
        assert len(seen) == len({vocab.id_to_token[i] for i in seen})


def _notes(n):
    return [Note(note_id=f"n{i}", text=f"note {i}", labels={"p": i % 2}) for i in range(n)]


class TestSplit:
    def test_paper_scale_sizes(self):
        train, val, test = split_dataset(_notes(1610), SplitSpec(seed=3))
        assert (len(train), len(val), len(test)) == (1127, 161, 322)

    def test_deterministic(self):
        notes = _notes(10)
        spec = SplitSpec(seed=11)
        a = split_dataset(notes, spec)
        b = split_dataset(notes, spec)
        assert [[n.note_id for n in part] for part in a] == [
            [n.note_id for n in part] for part in b
        ]

    def test_tiny_corpus_warns_and_gives_all_to_train(self):
        with pytest.warns(UserWarning, match="degenerate"):
            train, val, test = split_dataset(_notes(3), SplitSpec(seed=0))
        assert (len(train), len(val), len(test)) == (3, 0, 0)

    def test_rejects_bad_fractions(self):
        with pytest.raises(ValueError):
            split_dataset(_notes(5), SplitSpec(0.5, 0.1, 0.2, seed=0))
        with pytest.raises(ValueError):
            split_dataset(_notes(5), SplitSpec(0.9, 0.2, -0.1, seed=0))

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError):
            split_dataset([], SplitSpec(seed=0))

    @pytest.mark.filterwarnings("ignore:degenerate split")
    @given(st.integers(min_value=4, max_value=200), st.integers(min_value=0, max_value=2**31))
    def test_partition_property(self, n, seed):
        notes = _notes(n)
        train, val, test = split_dataset(notes, SplitSpec(seed=seed))
        ids = [x.note_id for x in train] + [x.note_id for x in val] + [x.note_id for x in test]
        assert sorted(ids) == sorted(x.note_id for x in notes)
        assert len(set(ids)) == len(ids)


class TestNoteIO:
    def test_roundtrip(self, tmp_path):
        notes = [
            Note(note_id="a", text="CHF with EF 30.", labels={"hf": 1, "dm": 0}),
            Note(note_id="b", text="unlabeled note"),
        ]
        path = tmp_path / "notes.jsonl"
        save_notes_jsonl(notes, path)
        loaded = load_notes_jsonl(path)
        assert loaded == notes

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "notes.jsonl"
        path.write_text(
            json.dumps({"note_id": "a", "text": "x"}) + "\n" +
            json.dumps({"note_id": "a", "text": "y"}) + "\n"
        )
        with pytest.raises(ValueError, match="duplicate"):
            load_notes_jsonl(path)

    @pytest.mark.parametrize(
        "record",
        [[1, 2], {"text": "x"}, {"note_id": "a", "text": 5}, {"note_id": "a"},
         {"note_id": "a", "text": "x", "labels": [1]},
         {"note_id": "a", "text": "x", "labels": {"p": None}},
         {"note_id": "a", "text": "x", "labels": {"p": 2}},
         {"note_id": "a", "text": "x", "labels": {"p": 0.7}},
         {"note_id": "a", "text": "x", "labels": {"p": "1"}},
         {"note_id": "a", "text": "x", "labels": {"p": True}}],
        ids=["list", "no-id", "int-text", "no-text", "list-labels", "null-label", "label-2",
             "label-0.7", "label-string", "label-true"],
    )
    def test_mistyped_record_names_its_line(self, tmp_path, record):
        path = tmp_path / "notes.jsonl"
        path.write_text(json.dumps({"note_id": "ok", "text": "fine"}) + "\n" + json.dumps(record) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: ")):
            load_notes_jsonl(path)

    def test_float_labels_equal_to_0_or_1_read_as_ints(self, tmp_path):
        path = tmp_path / "notes.jsonl"
        path.write_text(json.dumps({"note_id": "a", "text": "x", "labels": {"p": 1.0, "q": 0.0}}) + "\n")
        labels = load_notes_jsonl(path)[0].labels
        assert labels == {"p": 1, "q": 0} and all(type(v) is int for v in labels.values())

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError):
            Note(note_id="a", text="x", labels={"p": 2})

    @pytest.mark.parametrize("value", [-1, 0.7, "1", True, None])
    def test_non_binary_label_rejected_by_note(self, value):
        with pytest.raises(ValueError):
            Note(note_id="a", text="x", labels={"p": value})

    def test_note_stores_labels_as_ints(self):
        assert type(Note(note_id="a", text="x", labels={"p": 1.0}).labels["p"]) is int

    def test_empty_note_id_rejected(self):
        with pytest.raises(ValueError):
            Note(note_id="", text="x")

    def test_split_manifest(self, tmp_path):
        notes = _notes(10)
        train, val, test = split_dataset(notes, SplitSpec(seed=5))
        h1 = write_split_manifest(tmp_path, train, val, test)
        h2 = write_split_manifest(tmp_path, train, val, test)
        assert h1 == h2
        lines = (tmp_path / "train.ids").read_text().splitlines()
        assert lines == [n.note_id for n in train]
        assert (tmp_path / "val.ids").exists() and (tmp_path / "test.ids").exists()
