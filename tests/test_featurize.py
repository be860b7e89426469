import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import baselines_oracle as oracle
from notepheno.checkpoint import _key_from_json, _key_to_json
from notepheno.featurize import (
    FeatureSpace,
    extract_ngrams,
    fit_feature_space,
    tfidf_transform,
    transform,
)


def rows(X) -> list[dict[int, float]]:
    """The {column: value} dict of each row of a CSR matrix."""
    return [dict(zip(X[r].indices.tolist(), X[r].data.tolist())) for r in range(X.shape[0])]


class TestNgrams:
    def test_bigrams(self):
        assert extract_ngrams(["a", "b", "c"], 2) == {("a", "b"): 1, ("b", "c"): 1}

    def test_short_input(self):
        assert extract_ngrams(["a"], 3) == {}

    def test_repeats_counted(self):
        assert extract_ngrams(["a", "a", "a"], 2) == {("a", "a"): 2}

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError):
            extract_ngrams(["a"], 0)

    @given(st.lists(st.sampled_from(["a", "b", "c"]), max_size=12), st.integers(1, 4))
    @example(tokens=["a", "b"], n=3)
    def test_counts_equal_the_oracle_loop(self, tokens, n):
        """The same keys in the same first-seen order, with the same int counts."""
        got = extract_ngrams(tokens, n)
        want = oracle.extract_ngrams(tokens, n)
        assert list(got.items()) == list(want.items())
        assert all(type(count) is int for count in got.values())


class TestIdf:
    def test_single_document(self):
        space = fit_feature_space([{"a": 1}])
        assert space.idf[space.feature_to_index["a"]] == pytest.approx(
            math.log(2 / 2) + 1, abs=1e-15
        )

    def test_feature_in_every_document(self):
        space = fit_feature_space([{"a": 1}, {"a": 2}, {"a": 3}])
        assert space.idf[space.feature_to_index["a"]] == pytest.approx(1.0, abs=1e-15)

    def test_rare_feature(self):
        space = fit_feature_space([{"a": 1, "b": 1}, {"a": 2}, {"a": 3}])
        assert space.idf[space.feature_to_index["b"]] == pytest.approx(
            math.log(4 / 2) + 1, abs=1e-15
        )

    def test_first_seen_column_order(self):
        space = fit_feature_space([{"b": 1}, {"a": 1, "c": 1}])
        assert space.feature_to_index == {"b": 0, "a": 1, "c": 2}

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            fit_feature_space([])


class TestTfidf:
    def test_single_feature_normalizes_to_one(self):
        space = fit_feature_space([{"a": 1}])
        vec = tfidf_transform({"a": 1}, space)
        assert vec == {0: pytest.approx(1.0)}

    def test_empty_counts(self):
        space = fit_feature_space([{"a": 1}])
        assert tfidf_transform({}, space) == {}

    def test_two_feature_hand_computation(self):
        # Independent evaluation of the formula: df over 3 docs, one doc
        # carrying {a:2, b:1}, then L2 normalization.
        space = fit_feature_space([{"a": 1, "b": 1}, {"a": 2}, {"a": 3}])
        vec = tfidf_transform({"a": 2, "b": 1}, space)
        idf_a = math.log(4 / 4) + 1
        idf_b = math.log(4 / 2) + 1
        raw = (2 * idf_a, 1 * idf_b)
        norm = math.hypot(*raw)
        assert vec[space.feature_to_index["a"]] == pytest.approx(raw[0] / norm, abs=1e-12)
        assert vec[space.feature_to_index["b"]] == pytest.approx(raw[1] / norm, abs=1e-12)

    def test_unseen_features_dropped(self):
        space = fit_feature_space([{"a": 1}])
        assert tfidf_transform({"zzz": 4}, space) == {}

    def test_count_transform_keeps_raw_counts(self):
        space = fit_feature_space([{"a": 1, "b": 2}])
        X = transform([{"a": 3, "b": 1, "zzz": 9}], space, tfidf=False)
        assert rows(X) == [{0: 3.0, 1: 1.0}]

    def test_tfidf_needs_a_fitted_idf(self):
        space = FeatureSpace(feature_to_index={"a": 0})
        with pytest.raises(ValueError, match="no fitted idf"):
            transform([{"a": 1}], space, tfidf=True)


counts_strategy = st.dictionaries(
    st.sampled_from(["a", "b", "c", "d", "e"]), st.integers(1, 9), min_size=1, max_size=5
)


class TestProperties:
    @given(st.lists(counts_strategy, min_size=1, max_size=8), counts_strategy)
    def test_unit_or_zero_norm(self, corpus, doc):
        space = fit_feature_space(corpus)
        vec = tfidf_transform(doc, space)
        norm = math.sqrt(sum(v * v for v in vec.values()))
        assert norm == pytest.approx(1.0, abs=1e-9) or norm == 0.0
        assert all(not math.isnan(v) for v in vec.values())

    @given(st.lists(counts_strategy, min_size=1, max_size=8), counts_strategy)
    def test_scale_invariance(self, corpus, doc):
        space = fit_feature_space(corpus)
        once = tfidf_transform(doc, space)
        doubled = tfidf_transform({k: 2 * v for k, v in doc.items()}, space)
        assert set(once) == set(doubled)
        for idx in once:
            assert once[idx] == pytest.approx(doubled[idx], abs=1e-12)

    @given(st.lists(counts_strategy, min_size=1, max_size=8))
    def test_fit_then_transform_never_drops(self, corpus):
        space = fit_feature_space(corpus)
        for doc in corpus:
            vec = tfidf_transform(doc, space)
            assert len(vec) == len(doc)


class TestKeySerialization:
    @pytest.mark.parametrize(
        "key",
        [("alcohol", "abuse"), ("a",), ("cui001", True), ("cui001", False)],
    )
    def test_roundtrip(self, key):
        # the pipeline record's fields that a key must fit: a concept pipeline has no n
        pipeline = {"model": "m"} if isinstance(key[-1], bool) else {"model": "m", "n": len(key)}
        assert _key_from_json(_key_to_json(key), pipeline) == key


# Documents over a ten-key pool, so rows reach 8+ features (where a pairwise
# sum would part from a sequential one), with keys the space never saw and
# empty documents.
pool_counts = st.dictionaries(
    st.sampled_from([f"k{j}" for j in range(10)] + ["unseen"]), st.integers(0, 9), max_size=11
)


class TestMatrixAgainstOracle:
    @given(st.lists(pool_counts, max_size=6), st.lists(pool_counts, min_size=1, max_size=6),
           st.booleans())
    @example(fit_docs=[], docs=[{"k0": 1}, {}], tfidf=True)
    def test_rows_equal_the_oracle_dicts_bit_for_bit(self, fit_docs, docs, tfidf):
        # no fit documents, or only empty ones, give a zero-feature space
        space = fit_feature_space([{k: c for k, c in d.items() if k != "unseen"} for d in fit_docs] or [{}])
        one = oracle.tfidf_transform if tfidf else oracle.count_transform
        X = transform(docs, space, tfidf)
        assert X.shape == (len(docs), space.n_features)
        assert rows(X) == [one(doc, space) for doc in docs]
        assert all(X[r].indices.tolist() == sorted(X[r].indices) for r in range(len(docs)))
        if tfidf:
            assert tfidf_transform(docs[0], space) == one(docs[0], space)
