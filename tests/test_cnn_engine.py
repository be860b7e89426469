"""The batched CNN engine against the per-example oracle in cnn_oracle.py."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cnn_oracle as oracle
from notepheno import cnn, saliency
from notepheno.corpus import SplitSpec, build_vocabulary, split_dataset, tokenize
from notepheno.embeddings import EmbeddingMatrix, init_embeddings
from notepheno.synthetic import SyntheticSpec, generate_labeled_notes

RAGGED_LENGTHS = (1, 3, 5, 20, 40)  # 1, 3 and 5 are shorter than the widest filter


def random_model(widths=(2, 4, 6), filters=8, dim=6, vocab_size=30, n_heads=1,
                 activation="tanh", dropout_p=0.5, seed=0):
    rng = np.random.default_rng(seed)
    vectors = np.vstack([np.zeros(dim), rng.normal(0, 0.5, (vocab_size - 1, dim))])
    cfg = cnn.CnnConfig(filter_widths=widths, filters_per_width=filters, dropout_p=dropout_p,
                        n_heads=n_heads, activation=activation, seed=seed)
    model = cnn.init_model(cfg, EmbeddingMatrix(vectors=vectors))
    for w in widths:
        model.conv_weights[w] = rng.normal(0, 0.3, model.conv_weights[w].shape)
        model.conv_biases[w] = rng.normal(0, 0.1, model.conv_biases[w].shape)
    model.output_weights = rng.normal(0, 0.5, model.output_weights.shape)
    model.output_bias = rng.normal(0, 0.1, model.output_bias.shape)
    return model


def ragged_notes(rng, vocab_size=30, lengths=RAGGED_LENGTHS):
    # ids from 1 (UNK) up, with a PAD id inside one note as the corpus may hold
    notes = [list(rng.integers(1, vocab_size, size=n)) for n in lengths]
    notes[-1][7] = 0
    return notes


class TestAgainstOracle:
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("n_heads", [1, 3])
    def test_summed_gradients_of_a_ragged_group(self, activation, n_heads):
        model = random_model(n_heads=n_heads, activation=activation, seed=n_heads)
        rng = np.random.default_rng(7)
        notes = ragged_notes(rng)
        labels = rng.integers(0, 2, size=(len(notes), n_heads)).astype(float)

        draws = np.random.default_rng(11).random(len(notes) * model.total_filters)
        acts = cnn.forward_batch(model, notes, draws.reshape(len(notes), -1))
        got = cnn.backward_batch(model, acts, labels)

        oracle_rng = np.random.default_rng(11)  # the same dropout stream, one note at a time
        want = {name: np.zeros_like(p) for name, p in model.parameters().items()}
        for b, (ids, y) in enumerate(zip(notes, labels)):
            one = oracle.forward(model, ids, train_mode=True, dropout_rng=oracle_rng)
            np.testing.assert_array_equal(acts.dropout_mask[b], one.dropout_mask)
            np.testing.assert_allclose(acts.probs[b], one.probs, rtol=0, atol=1e-12)
            for name, g in oracle.backward(model, one, y).items():
                want[name] += g
        assert set(got) == set(want)
        for name in want:
            np.testing.assert_allclose(got[name], want[name], rtol=0, atol=1e-10, err_msg=name)
        assert np.any(got["embeddings"] != 0.0)

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_one_step_on_a_batch_in_descending_length_order(self, activation, monkeypatch):
        # train runs the batch in length order, over two groups; each note
        # still gets the dropout draws the oracle gives it in batch order.
        monkeypatch.setattr(cnn, "GROUP_ELEMENTS", 2 * 40 * 96)  # 96 elements per position
        rng = np.random.default_rng(3)
        notes = ragged_notes(rng)[::-1]
        labels = rng.integers(0, 2, size=(len(notes), 2)).astype(float)
        models = {}
        for name in ("engine", "oracle"):
            models[name] = random_model(n_heads=2, activation=activation, seed=6)
            models[name].config.epochs = 1  # one step: the batch holds every note
        perm = np.random.default_rng([6, 0xD47A]).permutation(len(notes))  # train's order stream
        train_data = [None] * len(notes)
        for j, i in enumerate(perm):
            train_data[i] = (notes[j], labels[j])

        masks = {"engine": {}, "oracle": {}}
        step_grads = {}
        group_sizes = []

        def spy_batch(model, id_lists, draws=None):
            acts = real_batch(model, id_lists, draws)
            group_sizes.append(len(id_lists))
            for ids, mask in zip(id_lists, acts.dropout_mask):
                masks["engine"][tuple(ids)] = mask
            return acts

        def spy_forward(model, ids, train_mode=False, dropout_rng=None):
            acts = real_forward(model, ids, train_mode, dropout_rng)
            masks["oracle"][tuple(ids)] = acts.dropout_mask
            return acts

        def spy_step(name, real_step):
            def step(params, grads, *args):
                step_grads[name] = {k: g * len(notes) for k, g in grads.items()}
                return real_step(params, grads, *args)
            return step

        real_batch, real_forward = cnn.forward_batch, oracle.forward
        monkeypatch.setattr(cnn, "forward_batch", spy_batch)
        monkeypatch.setattr(oracle, "forward", spy_forward)
        monkeypatch.setattr(cnn, "adadelta_step", spy_step("engine", cnn.adadelta_step))
        monkeypatch.setattr(oracle, "adadelta_step", spy_step("oracle", oracle.adadelta_step))
        _, got = cnn.train(models["engine"], train_data)
        _, want = oracle.train(models["oracle"], train_data)

        assert list(masks["oracle"]) == [tuple(ids) for ids in notes]  # descending lengths
        assert group_sizes == [4, 1]  # lengths 1, 3, 5, 20, then 40
        assert set(masks["engine"]) == set(masks["oracle"])
        for ids, mask in masks["oracle"].items():
            np.testing.assert_array_equal(masks["engine"][ids], mask)
        for name, g in step_grads["oracle"].items():
            np.testing.assert_allclose(step_grads["engine"][name], g, rtol=0, atol=1e-10,
                                       err_msg=name)
        np.testing.assert_allclose(got.train_loss, want.train_loss, rtol=1e-12)

    @pytest.mark.parametrize("dropout_p", [0.0, 0.5])
    def test_single_note_backward_matches(self, dropout_p):
        model = random_model(n_heads=3, dropout_p=dropout_p)
        ids = ragged_notes(np.random.default_rng(2))[3]
        labels = np.array([1.0, 0.0, 1.0])
        # a (1, total filters) draw reads the same uniforms as the oracle's draw of total filters
        draws = np.random.default_rng(8).random((1, model.total_filters)) if dropout_p else None
        got = cnn.backward(model, cnn.forward_batch(model, [ids], draws), labels)
        want = oracle.backward(model, oracle.forward(model, ids, True, np.random.default_rng(8)), labels)
        for name in want:
            np.testing.assert_allclose(got[name], want[name], rtol=0, atol=1e-12, err_msg=name)


# --------------------------------------------------------------------------
# One full training run on the criterion-3 corpus, engine and oracle.
# --------------------------------------------------------------------------
@pytest.fixture(scope="module")
def criterion3_runs():
    spec = SyntheticSpec(
        n_notes=1000, vocab_size=500, n_phenotypes=1, phrases_per_phenotype=1,
        phrase_length=3, noise_rate=0.0, decoy_phrases=2, seed=4,
    )
    notes = generate_labeled_notes(spec)
    tokens_by_id = {n.note_id: tokenize(n.text) for n in notes}
    train_notes, val_notes, test_notes = split_dataset(notes, SplitSpec(seed=11))
    vocab = build_vocabulary([tokens_by_id[n.note_id] for n in train_notes], min_count=1)

    def data_for(split):
        return [
            (vocab.resolve(tokens_by_id[n.note_id]), np.array([float(n.labels["pheno0"])]))
            for n in split
        ]

    train_data, val_data = data_for(train_notes), data_for(val_notes)
    test_ids = [ids for ids, _ in data_for(test_notes)]
    runs = {}
    for name, train in (("engine", cnn.train), ("oracle", oracle.train)):
        config = cnn.CnnConfig(seed=0)  # the published hyperparameters
        model = cnn.init_model(config, init_embeddings(len(vocab), 24, seed=10_000))
        steps = []
        model, history = train(model, train_data, val_data,
                               step_callback=lambda m, epoch, step: steps.append((epoch, step)))
        runs[name] = {"model": model, "history": history, "steps": steps}
    documents = [(n.note_id, tokens_by_id[n.note_id]) for n in test_notes]
    return {"runs": runs, "vocab": vocab, "test_ids": test_ids, "documents": documents}


class TestTrainingAgainstOracle:
    def test_same_steps_and_test_predictions(self, criterion3_runs):
        engine, reference = criterion3_runs["runs"]["engine"], criterion3_runs["runs"]["oracle"]
        assert engine["steps"] == reference["steps"]
        assert len(engine["steps"]) == 20 * 14  # 20 epochs of 700 notes in batches of 50
        ids = criterion3_runs["test_ids"]
        _, got = cnn.predict_batch(engine["model"], ids)
        want = [oracle.predict(reference["model"], note)[1] for note in ids]
        np.testing.assert_array_equal(got, np.array(want))
        np.testing.assert_allclose(
            engine["history"].train_loss, reference["history"].train_loss, rtol=1e-9
        )
        assert engine["history"].val_f1 == reference["history"].val_f1

    @pytest.mark.parametrize("variant", saliency.VARIANTS)
    def test_global_saliency_matches_phrase_scores_path(self, criterion3_runs, variant):
        model = criterion3_runs["runs"]["engine"]["model"]
        vocab, documents = criterion3_runs["vocab"], criterion3_runs["documents"]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = saliency.global_top_phrases(model, vocab, documents, "pheno0", 0, 19, variant)
            want = oracle.global_top_phrases(model, vocab, documents, "pheno0", 0, 19, variant)
        assert len(got.entries) == 19
        assert [(e.text, e.width, e.position, e.note_id) for e in got.entries] == [
            (e.text, e.width, e.position, e.note_id) for e in want.entries
        ]
        np.testing.assert_allclose(
            [e.score for e in got.entries], [e.score for e in want.entries], rtol=1e-9
        )

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.parametrize("variant", saliency.VARIANTS)
    def test_explain_equals_the_listed_paths(self, criterion3_runs, variant):
        # the array ranking keeps every entry, score bits included
        model = criterion3_runs["runs"]["engine"]["model"]
        vocab, documents = criterion3_runs["vocab"], criterion3_runs["documents"]
        got = saliency.global_top_phrases(model, vocab, documents, "pheno0", 0, 19, variant)
        assert len(got.entries) == 19
        assert got == oracle.global_top_phrases_listed(model, vocab, documents, "pheno0", 0, 19, variant)
        for note_id, tokens in documents[:20]:
            assert saliency.local_salient_phrases(model, vocab, note_id, tokens, "pheno0", 0, 19, variant) \
                == oracle.local_salient_phrases_listed(model, vocab, note_id, tokens, "pheno0", 0, 19, variant)

    def test_phrase_scores_match_per_note(self, criterion3_runs):
        # every window the engine scores, a short note's PAD-to-widest ones included
        model = criterion3_runs["runs"]["engine"]["model"]
        vocab = criterion3_runs["vocab"]
        for note_id, tokens in criterion3_runs["documents"][:5] + [("short", ["w1", "w2"])]:
            acts = cnn.forward(model, vocab.resolve(tokens))
            for variant in saliency.VARIANTS:
                values = saliency._window_values(model, acts, variant, 0)
                got = oracle._note_scores(acts, values, 0, tokens, note_id)
                want = oracle.phrase_scores(model, vocab, tokens, note_id, variant)
                assert [(s.phrase, s.width, s.position) for s in got] == [
                    (s.phrase, s.width, s.position) for s in want
                ]
                np.testing.assert_allclose(
                    [s.score for s in got], [s.score for s in want], rtol=1e-9, atol=1e-300
                )


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("zero_weights", [True, False])
@pytest.mark.parametrize("k", [1, 7, 1000])
@pytest.mark.parametrize("one_note_groups", [False, True])
def test_global_ties_and_duplicates_match_the_oracle(zero_weights, k, one_note_groups, monkeypatch):
    # zero weights tie every score, so width, position and note id decide the
    # order; a repeated note id and a literal "<pad>" token are kept as given.
    # One-note groups carry the running top k across every group boundary.
    # The two "n1" notes run in length order whichever comes first, and their
    # full ties still rank in input order.
    if one_note_groups:
        monkeypatch.setattr(cnn, "GROUP_ELEMENTS", 1)
    rng = np.random.default_rng(5)
    pool = ["a", "b", "c", "d", "<pad>"]
    documents = [(note_id, [pool[i] for i in rng.integers(0, 5, size=n)])
                 for note_id, n in [("n3", 9), ("n1", 4), ("n2", 1), ("n1", 12), ("n0", 6)]]
    vocab = build_vocabulary([tokens for _, tokens in documents], min_count=1)
    model = random_model(widths=(2, 3), vocab_size=len(vocab), dropout_p=0.0, seed=4)
    if zero_weights:
        for w in (2, 3):
            model.conv_weights[w][:] = 0.0
            model.conv_biases[w][:] = 0.0
        model.output_weights[:] = 0.0
    model.output_bias[:] = 5.0  # every document is predicted positive
    swapped = [documents[0], documents[3], documents[2], documents[1], documents[4]]
    for docs in (documents, swapped):
        for variant in saliency.VARIANTS:
            got = saliency.global_top_phrases(model, vocab, docs, "p", 0, k, variant)
            want = oracle.global_top_phrases(model, vocab, docs, "p", 0, k, variant)
            assert [(e.phrase, e.width, e.position, e.note_id) for e in got.entries] == [
                (e.phrase, e.width, e.position, e.note_id) for e in want.entries
            ]
            np.testing.assert_allclose([e.score for e in got.entries],
                                       [e.score for e in want.entries], rtol=1e-9)
            assert got == oracle.global_top_phrases_listed(model, vocab, docs, "p", 0, k, variant)
            for note_id, tokens in docs:
                assert saliency.local_salient_phrases(model, vocab, note_id, tokens, "p", 0, k, variant) \
                    == oracle.local_salient_phrases_listed(model, vocab, note_id, tokens, "p", 0, k, variant)


# --------------------------------------------------------------------------
# Grouping never changes a note's outputs.
# --------------------------------------------------------------------------
CHUNK_MODEL = random_model(widths=(2, 3, 5), filters=6, dim=5, vocab_size=25, n_heads=2)


@settings(max_examples=60, deadline=None)
@given(
    notes=st.lists(
        st.lists(st.integers(0, 24), min_size=1, max_size=30), min_size=1, max_size=12
    ),
    cuts=st.sets(st.integers(1, 11)),
)
def test_probabilities_do_not_depend_on_grouping(notes, cuts):
    alone = np.array([cnn.forward(CHUNK_MODEL, ids).probs[0] for ids in notes])
    bounds = [0] + sorted(c for c in cuts if c < len(notes)) + [len(notes)]
    regrouped = np.concatenate([
        cnn.forward_batch(CHUNK_MODEL, notes[lo:hi]).probs for lo, hi in zip(bounds, bounds[1:])
    ])
    np.testing.assert_allclose(regrouped, alone, rtol=0, atol=1e-12)
    probs, _ = cnn.predict_batch(CHUNK_MODEL, notes)
    np.testing.assert_allclose(probs, np.clip(alone, cnn.PROB_CLAMP, 1 - cnn.PROB_CLAMP),
                               rtol=0, atol=1e-12)


EXACT_MODELS = {(activation, n_heads): random_model(widths=(2, 3, 5), filters=6, dim=5, vocab_size=25,
                                                    n_heads=n_heads, activation=activation, seed=n_heads)
                for activation in ("tanh", "relu") for n_heads in (1, 3)}


@settings(max_examples=80, deadline=None)
@given(
    notes=st.lists(
        st.lists(st.integers(0, 24), min_size=1, max_size=30), min_size=1, max_size=12
    ),
    activation=st.sampled_from(["tanh", "relu"]),
    n_heads=st.sampled_from([1, 3]),
    dropout=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_forward_batch_is_bit_identical_to_the_reference(notes, activation, n_heads, dropout, seed):
    # ragged groups, notes shorter than the widest filter (5) and PAD ids (0)
    model = EXACT_MODELS[activation, n_heads]
    draws = np.random.default_rng(seed).random((len(notes), model.total_filters)) if dropout else None
    got = cnn.forward_batch(model, notes, draws)
    want = oracle.forward_batch_reference(model, notes, draws)
    for name in ("ids", "lengths", "embedded", "pooled", "dropped", "probs"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert (got.dropout_mask is None) == (want.dropout_mask is None)
    assert got.dropout_mask is None or np.array_equal(got.dropout_mask, want.dropout_mask)
    for w in model.config.filter_widths:
        assert np.array_equal(got.grids[w], want.grids[w]), w
        assert np.array_equal(got.argmax[w], want.argmax[w]), w


def test_groups_respect_the_element_cap():
    model = cnn.init_model(cnn.CnnConfig(), init_embeddings(50, 24, seed=0))
    rng = np.random.default_rng(0)
    notes = [list(rng.integers(1, 50, size=n)) for n in rng.integers(1, 400, size=300)]
    notes.append(list(range(1, 50)) * 40)  # one note over the cap on its own
    bounds = cnn.groups(model, notes)
    assert bounds[0][0] == 0 and bounds[-1][1] == len(notes)
    assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
    per_position = model.total_filters + sum(model.config.filter_widths) * 24
    for lo, hi in bounds:
        longest = max(max(len(ids), 5) for ids in notes[lo:hi])
        assert hi - lo == 1 or (hi - lo) * longest * per_position <= cnn.GROUP_ELEMENTS


def test_no_notes_predict_to_empty_arrays():
    probs, labels = cnn.predict_batch(CHUNK_MODEL, [])
    assert probs.shape == labels.shape == (0, 2)
