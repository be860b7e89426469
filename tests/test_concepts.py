import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import baselines_oracle as oracle
from notepheno.concepts import (
    NEGATION_TRIGGERS,
    NEGATION_WINDOW,
    SCOPE_BREAKERS,
    ConceptDictionary,
    ConceptEntry,
    ConceptMention,
    count_concepts,
    detect_negation,
    filter_dictionary,
    load_dictionary,
    match_concepts,
    save_dictionary,
)


def entry(cid, phrase, tags=()):
    return ConceptEntry(cid, tuple(phrase.split()), frozenset(tags))


@pytest.fixture
def alcohol_dict():
    return ConceptDictionary(entries=[entry("C1", "alcohol abuse", ["alcohol_abuse"])])


class TestMatching:
    def test_negated_mention(self, alcohol_dict):
        mentions = match_concepts(["denies", "alcohol", "abuse"], alcohol_dict)
        assert mentions == [ConceptMention("C1", 1, 3, True)]

    def test_plain_mention(self, alcohol_dict):
        mentions = match_concepts(["alcohol", "abuse"], alcohol_dict)
        assert mentions == [ConceptMention("C1", 0, 2, False)]

    def test_longest_match_wins(self):
        d = ConceptDictionary(entries=[entry("C1", "ef 30"), entry("C2", "ef")])
        mentions = match_concepts(["ef", "30"], d)
        assert mentions == [ConceptMention("C1", 0, 2, False)]

    def test_non_overlapping_scan(self):
        d = ConceptDictionary(entries=[entry("C1", "a a")])
        mentions = match_concepts(["a", "a", "a"], d)
        assert [(m.start, m.end) for m in mentions] == [(0, 2)]

    def test_shared_phrase_emits_both_concepts(self):
        d = ConceptDictionary(entries=[entry("C2", "chf"), entry("C1", "chf")])
        mentions = match_concepts(["chf"], d)
        assert [m.concept_id for m in mentions] == ["C1", "C2"]

    def test_empty_dictionary(self):
        assert match_concepts(["a"], ConceptDictionary()) == []

    def test_spans_in_bounds(self, alcohol_dict):
        tokens = ["x", "alcohol", "abuse", "y", "alcohol", "abuse"]
        for m in match_concepts(tokens, alcohol_dict):
            assert 0 <= m.start < m.end <= len(tokens)


class TestNegation:
    def test_trigger_within_window(self):
        assert detect_negation(["no", "history", "of", "chf"], (3, 4))

    def test_scope_broken_by_period(self):
        assert not detect_negation(["no", ".", "chf"], (2, 3))

    def test_trigger_too_far(self):
        tokens = ["no", "a", "b", "c", "d", "e", "chf"]
        assert not detect_negation(tokens, (6, 7))  # six tokens back

    def test_trigger_at_window_edge(self):
        tokens = ["no", "a", "b", "c", "d", "chf"]
        assert detect_negation(tokens, (5, 6))  # exactly five tokens back

    def test_bigram_trigger(self):
        assert detect_negation(["negative", "for", "chf"], (2, 3))
        assert detect_negation(["ruled", "out", "chf"], (2, 3))

    def test_tokenized_shorthand_trigger(self):
        assert detect_negation(["r", "/", "o", "chf"], (3, 4))

    def test_but_breaks_scope(self):
        assert not detect_negation(["denies", "cp", "but", "chf"], (3, 4))

    def test_invalid_span(self):
        with pytest.raises(ValueError):
            detect_negation(["a"], (1, 1))


class TestCounting:
    def test_empty(self):
        assert count_concepts([]) == {}

    def test_split_by_negation_flag(self):
        mentions = [
            ConceptMention("C1", 0, 1, True),
            ConceptMention("C1", 2, 3, True),
            ConceptMention("C1", 4, 5, False),
        ]
        assert count_concepts(mentions) == {("C1", True): 2, ("C1", False): 1}

    @given(
        st.lists(
            st.tuples(st.sampled_from(["C1", "C2", "C3"]), st.booleans()),
            max_size=30,
        )
    )
    def test_conservation_and_permutation_invariance(self, pairs):
        mentions = [ConceptMention(cid, i, i + 1, neg) for i, (cid, neg) in enumerate(pairs)]
        counts = count_concepts(mentions)
        assert sum(counts.values()) == len(mentions)
        assert count_concepts(list(reversed(mentions))) == counts


class TestFilter:
    @pytest.fixture
    def tagged_dict(self):
        return ConceptDictionary(
            entries=[
                entry("C1", "alcohol abuse", ["alcohol_abuse"]),
                entry("C2", "cardiomyopathy", ["adv_heart_disease"]),
                entry("C3", "etoh", ["alcohol_abuse", "substance_abuse"]),
            ]
        )

    def test_keeps_tagged_entries(self, tagged_dict):
        filtered = filter_dictionary(tagged_dict, "adv_heart_disease")
        assert [e.concept_id for e in filtered.entries] == ["C2"]

    def test_idempotent(self, tagged_dict):
        once = filter_dictionary(tagged_dict, "alcohol_abuse")
        twice = filter_dictionary(once, "alcohol_abuse")
        assert once.entries == twice.entries

    def test_entry_with_two_tags_survives_both(self, tagged_dict):
        for phenotype in ("alcohol_abuse", "substance_abuse"):
            filtered = filter_dictionary(tagged_dict, phenotype)
            assert any(e.concept_id == "C3" for e in filtered.entries)

    def test_subset(self, tagged_dict):
        filtered = filter_dictionary(tagged_dict, "alcohol_abuse")
        assert set(filtered.entries) <= set(tagged_dict.entries)

    def test_unknown_phenotype_warns(self, tagged_dict):
        with pytest.warns(UserWarning, match="no dictionary entries"):
            filtered = filter_dictionary(tagged_dict, "nonexistent")
        assert filtered.entries == []

    def test_empty_phenotype_rejected(self, tagged_dict):
        with pytest.raises(ValueError):
            filter_dictionary(tagged_dict, "")


class TestDictionaryFile:
    def test_roundtrip(self, tmp_path):
        d = ConceptDictionary(
            entries=[
                entry("C1", "alcohol abuse", ["alcohol_abuse"]),
                entry("C2", "ef 30"),
            ]
        )
        path = tmp_path / "dict.tsv"
        save_dictionary(d, path)
        loaded = load_dictionary(path)
        assert loaded.entries == d.entries

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "dict.tsv"
        path.write_text("# comment\n\nC1\tAlcohol Abuse\talcohol_abuse\n")
        loaded = load_dictionary(path)
        assert loaded.entries == [entry("C1", "alcohol abuse", ["alcohol_abuse"])]

    def test_phrases_are_tokenized_on_load(self, tmp_path):
        path = tmp_path / "dict.tsv"
        path.write_text("C1\tEF 30.\t\n")
        assert load_dictionary(path).entries[0].phrase == ("ef", "30", ".")

    def test_duplicate_entries_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ConceptDictionary(entries=[entry("C1", "chf"), entry("C1", "chf")])


def brute_force_negated(tokens, span):
    """Independent re-statement of the trigger/scope rule by full enumeration."""
    start = span[0]
    for trigger in NEGATION_TRIGGERS:
        for pos in range(len(tokens)):
            if tuple(tokens[pos : pos + len(trigger)]) != trigger:
                continue
            trigger_end = pos + len(trigger)
            if trigger_end > start:
                continue
            if start - pos > NEGATION_WINDOW:
                continue  # trigger starts outside the window
            if any(t in SCOPE_BREAKERS for t in tokens[trigger_end:start]):
                continue
            return True
    return False


@given(
    st.lists(
        st.sampled_from(
            ["no", "not", "denies", "negative", "for", "ruled", "out", "r", "/",
             "o", ".", ",", "but", "however", "pt", "with", "chf", "ef", "alcohol",
             "abuse", "history"]
        ),
        min_size=1,
        max_size=12,
    )
)
def test_negation_agrees_with_brute_force(tokens):
    d = ConceptDictionary(
        entries=[entry("C1", "chf"), entry("C2", "alcohol abuse"), entry("C3", "ef")]
    )
    for mention in match_concepts(tokens, d):
        assert mention.negated == brute_force_negated(tokens, (mention.start, mention.end))


# Dictionary and note tokens: phrase words that start, end or sit inside
# several phrases, and words of every negation trigger and scope breaker.
_WORDS = ["a", "b", "c", "d", "no", "negative", "for", "ruled", "out", "r", "/", "o", ".", "but"]


@st.composite
def _dictionaries(draw):
    """Entries of 1-4 token phrases, each with some of its prefixes, and
    phrases listed under several concept ids."""
    phrases = set()
    for phrase in draw(st.lists(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=4), max_size=6)):
        phrases.add(tuple(phrase))
        phrases.update(tuple(phrase[:cut]) for cut in draw(st.sets(st.integers(1, len(phrase)))))
    entries = []
    for phrase in sorted(phrases):
        for cid in sorted(draw(st.sets(st.sampled_from(["C1", "C2", "C3"]), min_size=1))):
            entries.append(ConceptEntry(cid, phrase))
    return ConceptDictionary(entries=draw(st.permutations(entries)))


@settings(max_examples=200, deadline=None)
@given(_dictionaries(), st.lists(st.sampled_from(_WORDS), max_size=25))
@example(ConceptDictionary(entries=[entry("C1", "a b c"), entry("C2", "a b"), entry("C1", "a")]),
         ["no", "a", "b", "a", "b", "c", "a", "b"])
def test_matches_equal_the_oracle_scan(dictionary, tokens):
    """The first-token index finds the mentions the every-length scan found:
    the same spans, concept ids and negation flags, in the same order."""
    assert match_concepts(tokens, dictionary) == oracle.match_concepts(tokens, dictionary)
