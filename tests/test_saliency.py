import numpy as np
import pytest

from notepheno.cnn import CnnConfig, forward, init_model
from notepheno.corpus import build_vocabulary
from notepheno.embeddings import EmbeddingMatrix
from notepheno.saliency import (
    global_top_phrases,
    local_salient_phrases,
    phrase_scores,
    report_to_json,
    report_to_tsv,
    save_report,
)

TOKENS = ["alcohol", "abuse", "pt", "denies", "heavy", "use", "chronic", "pain"]


@pytest.fixture(scope="module")
def planted():
    """Model whose single width-2 filter matches 'alcohol abuse' and whose
    output layer fires exactly when that phrase is present."""
    vocab = build_vocabulary([TOKENS], min_count=1)
    rng = np.random.default_rng(8)
    vectors = np.vstack([np.zeros(6), rng.normal(0, 0.5, (len(vocab) - 1, 6))])
    emb = EmbeddingMatrix(vectors=vectors)
    cfg = CnnConfig(filter_widths=(2,), filters_per_width=1, dropout_p=0.0, seed=0)
    model = init_model(cfg, emb)
    phrase_ids = vocab.resolve(["alcohol", "abuse"])
    model.conv_weights[2][0] = emb.vectors[phrase_ids] * 4.0
    model.conv_biases[2][:] = 0.0
    model.output_weights[:] = 0.0
    model.output_bias[:] = 0.0

    # calibrate: logit positive only above the best non-phrase activation
    def pooled(tokens):
        return forward(model, vocab.resolve(tokens)).pooled[0, 0]

    on = pooled(["pt", "alcohol", "abuse", "use"])
    off = max(
        pooled(["pt", "denies", "heavy", "use"]),
        pooled(["chronic", "pain", "pt", "use"]),
    )
    assert on > off
    cut = (on + off) / 2
    model.output_weights[0, 0] = 20.0
    model.output_bias[0] = -20.0 * cut
    return model, vocab


def zero_weight_model():
    vocab = build_vocabulary([TOKENS], min_count=1)
    rng = np.random.default_rng(3)
    vectors = np.vstack([np.zeros(4), rng.normal(0, 0.4, (len(vocab) - 1, 4))])
    cfg = CnnConfig(filter_widths=(2, 3), filters_per_width=2, dropout_p=0.0, seed=1)
    model = init_model(cfg, EmbeddingMatrix(vectors=vectors))
    for w in cfg.filter_widths:
        model.conv_weights[w][:] = 0.0
        model.conv_biases[w][:] = 0.0
    model.output_weights[:] = 0.0
    model.output_bias[:] = 0.0
    return model, vocab


class TestPhraseScores:
    def test_zero_convolutions_score_zero(self):
        model, vocab = zero_weight_model()
        scores = phrase_scores(model, vocab, ["pt", "denies", "heavy", "use"])
        assert all(s.score == 0.0 for s in scores)

    def test_planted_filter_ranks_its_window_first(self, planted):
        model, vocab = planted
        tokens = ["pt", "alcohol", "abuse", "heavy", "use"]
        scores = phrase_scores(model, vocab, tokens, note_id="n1")
        best = max(scores, key=lambda s: s.score)
        assert best.phrase == ("alcohol", "abuse")
        assert best.position == 1
        others = [s.score for s in scores if s.phrase != ("alcohol", "abuse")]
        assert all(best.score > o for o in others)

    def test_score_count_formula(self):
        model, vocab = zero_weight_model()
        tokens = ["pt", "denies", "heavy", "use", "chronic"]
        scores = phrase_scores(model, vocab, tokens)
        length = len(tokens)
        expected = sum(length - w + 1 for w in model.config.filter_widths)
        assert len(scores) == expected

    def test_short_document_counts_padded_windows(self):
        model, vocab = zero_weight_model()  # widths (2, 3)
        scores = phrase_scores(model, vocab, ["pt"])  # padded to length 3
        expected = (3 - 2 + 1) + (3 - 3 + 1)
        assert len(scores) == expected

    def test_norm_variant_is_local(self, planted):
        # the plain bank norm only sees the window itself
        model, vocab = planted
        a = phrase_scores(model, vocab, ["alcohol", "abuse", "pt", "use"], variant="norm")
        b = phrase_scores(model, vocab, ["alcohol", "abuse", "chronic", "pain"], variant="norm")
        assert a[0].score == b[0].score  # the (0, 1) window is untouched

    def test_empty_input_rejected(self, planted):
        model, vocab = planted
        with pytest.raises(ValueError):
            phrase_scores(model, vocab, [])

    def test_unknown_variant_rejected(self, planted):
        model, vocab = planted
        with pytest.raises(ValueError):
            phrase_scores(model, vocab, ["pt"], variant="gradient")

    def test_weighted_variant_nonnegative(self, planted):
        model, vocab = planted
        scores = phrase_scores(
            model, vocab, ["pt", "alcohol", "abuse", "use"], variant="weighted"
        )
        assert all(s.score >= 0.0 for s in scores)
        best = max(scores, key=lambda s: s.score)
        assert best.phrase == ("alcohol", "abuse")

    def test_norm_variant_ranks_planted_window_first(self, planted):
        model, vocab = planted
        scores = phrase_scores(
            model, vocab, ["pt", "alcohol", "abuse", "heavy", "use"], variant="norm"
        )
        best = max(scores, key=lambda s: s.score)
        assert best.phrase == ("alcohol", "abuse")


class TestGlobal:
    def docs(self):
        return [
            ("pos1", ["pt", "alcohol", "abuse", "use"]),
            ("pos2", ["alcohol", "abuse", "alcohol", "abuse", "pt"]),
            ("neg1", ["pt", "denies", "heavy", "use"]),
        ]

    def test_planted_phrase_ranks_first(self, planted):
        model, vocab = planted
        report = global_top_phrases(model, vocab, self.docs(), "alcohol_abuse", 0, 5)
        assert report.scope == "global"
        assert report.entries[0].text == "alcohol abuse"

    def test_only_positive_predictions_contribute(self, planted):
        model, vocab = planted
        report = global_top_phrases(model, vocab, self.docs(), "alcohol_abuse", 0, 100)
        note_ids = {e.note_id for e in report.entries}
        assert "neg1" not in note_ids

    def test_no_positives_warns_and_is_empty(self, planted):
        model, vocab = planted
        docs = [("neg1", ["pt", "denies", "heavy", "use"])]
        with pytest.warns(UserWarning, match="no document was predicted positive"):
            report = global_top_phrases(model, vocab, docs, "alcohol_abuse", 0, 5)
        assert report.entries == []

    def test_duplicate_phrases_removed(self, planted):
        model, vocab = planted
        report = global_top_phrases(model, vocab, self.docs(), "alcohol_abuse", 0, 100)
        texts = [e.text for e in report.entries]
        assert len(texts) == len(set(texts))

    def test_k_exceeding_distinct_returns_all_sorted(self, planted):
        model, vocab = planted
        report = global_top_phrases(model, vocab, self.docs(), "alcohol_abuse", 0, 10_000)
        scores = [e.score for e in report.entries]
        assert scores == sorted(scores, reverse=True)


class TestLocal:
    def test_dedup_in_single_document(self, planted):
        model, vocab = planted
        tokens = ["alcohol", "abuse", "pt", "alcohol", "abuse"]
        report = local_salient_phrases(model, vocab, "n1", tokens, "alcohol_abuse", 0, 50)
        assert [e.text for e in report.entries].count("alcohol abuse") == 1

    def test_twin_documents_identical_reports(self, planted):
        model, vocab = planted
        tokens = ["pt", "alcohol", "abuse", "use"]
        r1 = local_salient_phrases(model, vocab, "a", tokens, "alcohol_abuse", 0, 5)
        r2 = local_salient_phrases(model, vocab, "a", tokens, "alcohol_abuse", 0, 5)
        assert [(e.text, e.score) for e in r1.entries] == [
            (e.text, e.score) for e in r2.entries
        ]

    def test_negative_prediction_flagged(self, planted):
        model, vocab = planted
        with pytest.warns(UserWarning, match="predicted negative"):
            report = local_salient_phrases(
                model, vocab, "n1", ["pt", "denies", "heavy", "use"], "alcohol_abuse", 0, 3
            )
        assert report.flagged_negative

    def test_single_token_document_has_no_pad_phrases(self):
        model, vocab = zero_weight_model()
        report = local_salient_phrases(model, vocab, "n1", ["pt"], "p", 0, 10)
        assert all("<pad>" not in e.text for e in report.entries)
        per_width = {}
        for e in report.entries:
            per_width[e.width] = per_width.get(e.width, 0) + 1
        assert all(count <= 1 for count in per_width.values())

    def test_at_most_k_rows(self, planted):
        model, vocab = planted
        tokens = ["pt", "alcohol", "abuse", "heavy", "use", "chronic", "pain"]
        report = local_salient_phrases(model, vocab, "n1", tokens, "alcohol_abuse", 0, 3)
        assert len(report.entries) <= 3


class TestReportFiles:
    def test_tsv_layout(self, planted, tmp_path):
        model, vocab = planted
        report = local_salient_phrases(
            model, vocab, "n1", ["pt", "alcohol", "abuse", "use"], "alcohol_abuse", 0, 4
        )
        tsv = report_to_tsv(report)
        lines = tsv.strip().splitlines()
        assert lines[0] == "rank\tphrase\twidth\tscore"
        first = lines[1].split("\t")
        assert first[0] == "1" and first[1] == "alcohol abuse" and first[2] == "2"
        float(first[3])  # parses at full precision

    def test_json_and_files(self, planted, tmp_path):
        model, vocab = planted
        report = local_salient_phrases(
            model, vocab, "n1", ["pt", "alcohol", "abuse", "use"], "alcohol_abuse", 0, 4
        )
        doc = report_to_json(report)
        assert doc["scope"] == "local" and doc["entries"][0]["rank"] == 1
        save_report(report, tmp_path / "r.tsv", tmp_path / "r.json")
        assert (tmp_path / "r.tsv").exists() and (tmp_path / "r.json").exists()

    @pytest.mark.filterwarnings("ignore:all phrase scores")
    def test_deterministic_tie_break_ordering(self):
        model, vocab = zero_weight_model()
        tokens = ["pt", "denies", "heavy", "use"]
        report = local_salient_phrases(model, vocab, "n1", tokens, "p", 0, 100)
        keys = [(-e.score, e.width, e.position, e.note_id) for e in report.entries]
        assert keys == sorted(keys)
