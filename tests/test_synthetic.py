import numpy as np
import pytest

from notepheno.corpus import load_notes_jsonl, tokenize
from notepheno.synthetic import (
    SyntheticSpec,
    build_planted_dictionary,
    decoy_phrases,
    generate_labeled_notes,
    generate_synthetic_corpus,
    generate_unlabeled_notes,
    planted_phrases,
)


def contains(tokens, phrase):
    m = len(phrase)
    return any(tuple(tokens[i : i + m]) == phrase for i in range(len(tokens) - m + 1))


class TestGeneration:
    def test_noiseless_labels_equal_phrase_presence(self):
        spec = SyntheticSpec(n_notes=150, n_phenotypes=2, noise_rate=0.0, seed=3)
        notes = generate_labeled_notes(spec)
        phrases = planted_phrases(spec)
        for note in notes:
            tokens = tokenize(note.text)
            for name, variants in phrases.items():
                present = any(contains(tokens, v) for v in variants)
                assert note.labels[name] == int(present)

    def test_noise_flip_fraction_concentrates(self):
        clean = SyntheticSpec(n_notes=1000, noise_rate=0.0, seed=9)
        noisy = SyntheticSpec(n_notes=1000, noise_rate=0.1, seed=9)
        labels_clean = [n.labels["pheno0"] for n in generate_labeled_notes(clean)]
        labels_noisy = [n.labels["pheno0"] for n in generate_labeled_notes(noisy)]
        flipped = np.mean([a != b for a, b in zip(labels_clean, labels_noisy)])
        assert abs(flipped - 0.1) <= 0.03

    def test_deterministic_output(self, tmp_path):
        spec = SyntheticSpec(n_notes=40, seed=12)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        paths1 = generate_synthetic_corpus(spec, d1)
        paths2 = generate_synthetic_corpus(spec, d2)
        for key in paths1:
            assert paths1[key].read_bytes() == paths2[key].read_bytes()

    def test_synonym_variants_share_tail(self):
        spec = SyntheticSpec(phrases_per_phenotype=4, phrase_length=3)
        variants = planted_phrases(spec)["pheno0"]
        assert len(variants) == 4
        heads = {v[0] for v in variants}
        tails = {v[1:] for v in variants}
        assert len(heads) == 4 and len(tails) == 1

    def test_dictionary_lists_canonical_variant_only(self):
        spec = SyntheticSpec(n_phenotypes=2, phrases_per_phenotype=4)
        dictionary = build_planted_dictionary(spec)
        phrases = planted_phrases(spec)
        assert len(dictionary.entries) == 2
        for j, entry in enumerate(dictionary.entries):
            assert entry.phrase == phrases[f"pheno{j}"][0]
            assert entry.phenotypes == frozenset({f"pheno{j}"})

    def test_unlabeled_notes_have_no_labels(self):
        spec = SyntheticSpec(n_notes=20, seed=1)
        for note in generate_unlabeled_notes(spec):
            assert note.labels is None

    def test_written_files_load_back(self, tmp_path):
        spec = SyntheticSpec(n_notes=25, seed=5)
        paths = generate_synthetic_corpus(spec, tmp_path)
        labeled = load_notes_jsonl(paths["labeled"])
        unlabeled = load_notes_jsonl(paths["unlabeled"])
        assert len(labeled) == 25 and len(unlabeled) == 25
        assert all(n.labels is not None for n in labeled)

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            SyntheticSpec(noise_rate=0.5).validate()
        with pytest.raises(ValueError):
            SyntheticSpec(min_note_tokens=2, phrase_length=3).validate()
        with pytest.raises(ValueError):
            SyntheticSpec(n_notes=0).validate()
        with pytest.raises(ValueError):  # rather than giving no unlabeled notes
            SyntheticSpec(n_unlabeled=-1)


class TestDecoys:
    def test_decoys_never_flip_labels(self):
        spec = SyntheticSpec(n_notes=200, decoy_phrases=2, noise_rate=0.0, seed=8)
        phrases = planted_phrases(spec)
        for note in generate_labeled_notes(spec):
            tokens = tokenize(note.text)
            present = any(contains(tokens, v) for v in phrases["pheno0"])
            assert note.labels["pheno0"] == int(present)

    def test_decoys_corrupt_one_slot_each(self):
        spec = SyntheticSpec(decoy_phrases=2, phrase_length=3)
        real = planted_phrases(spec)["pheno0"][0]
        for decoy in decoy_phrases(spec)["pheno0"]:
            assert decoy != real
            assert len(decoy) == len(real)
            assert sum(a != b for a, b in zip(decoy, real)) == 1

    def test_decoys_appear_only_in_negatives(self):
        spec = SyntheticSpec(n_notes=400, decoy_phrases=1, noise_rate=0.0, seed=8)
        decoys = decoy_phrases(spec)["pheno0"]
        found = 0
        for note in generate_labeled_notes(spec):
            tokens = tokenize(note.text)
            if any(contains(tokens, d) for d in decoys):
                found += 1
                assert note.labels["pheno0"] == 0
        assert found > 30  # decoys actually occur
