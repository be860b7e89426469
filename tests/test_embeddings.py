import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import embeddings_oracle as oracle
from notepheno.corpus import PAD_ID, build_vocabulary
from notepheno.embeddings import (
    MIN_LR_FRACTION,
    PretrainConfig,
    _block_gradients,
    _epoch_pairs,
    _negative_sampling_cdf,
    _sgns_block_step,
    init_embeddings,
    load_embeddings,
    pretrain_embeddings,
    save_embeddings,
)
from notepheno.optim import scatter_add as _scatter_add


def synonym_corpus(seed=77, n_sentences=400):
    """Sentences where 'etoh' and 'alcohol' appear in interchangeable contexts
    (each synonym sentence uses one of them uniformly at random)."""
    rng = np.random.default_rng(seed)
    contexts = [f"c{i}" for i in range(8)]
    fillers = [f"f{i}" for i in range(40)]
    sentences = []
    for _ in range(n_sentences):
        if rng.random() < 0.5:
            syn = "etoh" if rng.random() < 0.5 else "alcohol"
            sentences.append(
                [
                    fillers[rng.integers(0, len(fillers))],
                    contexts[rng.integers(0, len(contexts))],
                    syn,
                    contexts[rng.integers(0, len(contexts))],
                    fillers[rng.integers(0, len(fillers))],
                ]
            )
        else:
            sentences.append([fillers[rng.integers(0, len(fillers))] for _ in range(6)])
    return sentences


ORACLE_CFG = PretrainConfig(dim=16, window=2, negatives=5, epochs=12, learning_rate=0.05, seed=5)


@pytest.fixture(scope="module")
def trained_synonyms():
    corpus = synonym_corpus()
    vocab = build_vocabulary(corpus, min_count=1)
    emb = pretrain_embeddings(corpus, vocab, ORACLE_CFG)
    return corpus, vocab, emb


def _cosine(emb, vocab, a, b):
    va, vb = emb.vectors[vocab.resolve([a, b])]
    return float(va @ vb / (np.linalg.norm(va) * np.linalg.norm(vb)))


class TestPretraining:
    def test_zero_epochs_returns_seeded_init(self):
        corpus = [["a", "b"], ["b", "a"]]
        vocab = build_vocabulary(corpus, min_count=1)
        cfg = PretrainConfig(dim=4, epochs=0, seed=9)
        emb = pretrain_embeddings(corpus, vocab, cfg)
        expected = init_embeddings(len(vocab), 4, seed=9)
        np.testing.assert_array_equal(emb.vectors, expected.vectors)

    def test_deterministic(self):
        corpus = synonym_corpus(n_sentences=40)
        vocab = build_vocabulary(corpus, min_count=1)
        cfg = PretrainConfig(dim=8, epochs=2, seed=3)
        a = pretrain_embeddings(corpus, vocab, cfg)
        b = pretrain_embeddings(corpus, vocab, cfg)
        np.testing.assert_array_equal(a.vectors, b.vectors)

    def test_interchangeable_contexts_give_similar_vectors(self, trained_synonyms):
        _, vocab, emb = trained_synonyms
        target = _cosine(emb, vocab, "etoh", "alcohol")
        rng = np.random.default_rng(99)
        real = [vocab.id_to_token[i] for i in range(2, len(vocab))]
        random_cosines = [
            _cosine(emb, vocab, *rng.choice(real, size=2, replace=False))
            for _ in range(100)
        ]
        assert target > float(np.median(random_cosines))

    def test_synonym_found_after_pretraining(self, trained_synonyms):
        # "alcohol" is among the 5 real tokens of highest cosine to "etoh"
        _, vocab, emb = trained_synonyms
        others = [t for t in vocab.id_to_token[2:] if t != "etoh"]
        nearest = sorted(others, key=lambda t: -_cosine(emb, vocab, "etoh", t))[:5]
        assert "alcohol" in nearest

    def test_pad_row_stays_zero(self, trained_synonyms):
        _, _, emb = trained_synonyms
        np.testing.assert_array_equal(emb.vectors[PAD_ID], 0.0)

    def test_epoch_loss_trends_down(self):
        corpus = synonym_corpus(seed=13, n_sentences=120)
        vocab = build_vocabulary(corpus, min_count=1)
        cfg = PretrainConfig(dim=8, window=2, negatives=5, epochs=11, learning_rate=0.05, seed=2)
        losses = []
        pretrain_embeddings(corpus, vocab, cfg, loss_history=losses)
        assert len(losses) == 11
        assert losses[10] < losses[0]

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            PretrainConfig(dim=0).validate()
        with pytest.raises(ValueError):
            PretrainConfig(window=0).validate()
        with pytest.raises(ValueError):
            PretrainConfig(negatives=0).validate()
        for lr in (float("nan"), float("inf"), 0.0, -1.0):
            with pytest.raises(ValueError, match="learning_rate"):
                PretrainConfig(learning_rate=lr).validate()

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            PretrainConfig(seed=-1)

    def test_a_diverged_run_is_an_error_naming_the_epoch(self):
        corpus = synonym_corpus(n_sentences=40)
        vocab = build_vocabulary(corpus, min_count=1)
        cfg = PretrainConfig(dim=4, window=2, negatives=2, epochs=2, learning_rate=1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the overflow is reported by the epoch check alone
            with pytest.raises(ValueError, match="^pretraining diverged at epoch 1; lower pretrain.learning_rate$"):
                pretrain_embeddings(corpus, vocab, cfg)

    def test_one_token_notes_give_no_pairs(self):
        # No note has a neighbour, so no pair exists: the seeded init comes
        # back unchanged and every epoch records a mean loss of 0.0, as in
        # the per-pair loop.
        corpus = [["a"], ["b"], ["a"], ["c"]]
        vocab = build_vocabulary(corpus, min_count=1)
        cfg = PretrainConfig(dim=4, epochs=3, seed=9)
        losses, oracle_losses = [], []
        emb = pretrain_embeddings(corpus, vocab, cfg, loss_history=losses)
        oracle_emb = oracle.pretrain_embeddings(corpus, vocab, cfg, loss_history=oracle_losses)
        np.testing.assert_array_equal(emb.vectors, init_embeddings(len(vocab), 4, seed=9).vectors)
        np.testing.assert_array_equal(emb.vectors, oracle_emb.vectors)
        assert losses == oracle_losses == [0.0, 0.0, 0.0]

    def test_negative_sampling_cdf_matches_oracle(self):
        sequences = [[2, 3, 3, 1], [], [5, 2, 0, 3], [1]]
        ids = np.array([i for seq in sequences for i in seq])
        np.testing.assert_array_equal(
            _negative_sampling_cdf(ids, 7), oracle._negative_sampling_cdf(sequences, 7)
        )
        assert _negative_sampling_cdf(np.array([0, 0]), 3) is None


class TestSgnsGradients:
    def test_matches_finite_differences(self):
        # 5-word vocabulary, dim 3: perturb every coordinate of every vector.
        rng = np.random.default_rng(21)
        center = rng.normal(0, 0.5, 3)
        context = rng.normal(0, 0.5, 3)
        negatives = rng.normal(0, 0.5, (3, 3))
        _, d_center, d_context, d_negs = oracle.sgns_gradients(center, context, negatives)

        h = 1e-5
        def check(vec, grad, setter):
            for i in range(vec.size):
                orig = vec.flat[i]
                vec.flat[i] = orig + h
                up = oracle.sgns_loss(center, context, negatives)
                vec.flat[i] = orig - h
                down = oracle.sgns_loss(center, context, negatives)
                vec.flat[i] = orig
                fd = (up - down) / (2 * h)
                if abs(grad.flat[i]) > 1e-8:
                    assert abs(grad.flat[i] - fd) / abs(grad.flat[i]) < 1e-4

        check(center, d_center, None)
        check(context, d_context, None)
        check(negatives, d_negs, None)

    def test_no_negatives(self):
        center = np.array([0.1, -0.2])
        context = np.array([0.3, 0.4])
        loss, d_center, _, d_negs = oracle.sgns_gradients(center, context, np.zeros((0, 2)))
        assert loss == pytest.approx(oracle.sgns_loss(center, context, np.zeros((0, 2))))
        assert d_negs.shape == (0, 2)


@settings(max_examples=200, deadline=None)
@given(
    lengths=st.lists(st.integers(0, 7), min_size=1, max_size=6),
    window=st.integers(1, 9) | st.sampled_from([50, 20_000]),
    data=st.data(),
)
def test_epoch_pairs_match_a_python_enumeration(lengths, window, data):
    """Ragged notes (empty, one token, shorter than the window, every note
    narrower than a window of 50 or 20,000): the pair arrays and learning
    rates equal the per-pair loop's, in its order."""
    n = sum(lengths)
    spans = data.draw(st.lists(st.integers(1, window), min_size=n, max_size=n))
    epoch = data.draw(st.integers(0, 2))
    epochs = epoch + data.draw(st.integers(1, 3))
    cfg = PretrainConfig(window=window, learning_rate=0.025)
    ids = 2 + 3 * np.arange(n)  # distinct ids, so a pair names its positions
    total = epochs * n

    expected = []
    processed = epoch * n
    start = 0
    for length in lengths:
        note = ids[start:start + length].tolist()
        for t in range(length):
            lr = max(
                cfg.learning_rate * (1.0 - processed / total),
                cfg.learning_rate * MIN_LR_FRACTION,
            )
            b = spans[start + t]
            processed += 1
            for offset in range(-b, b + 1):
                pos = t + offset
                if offset != 0 and 0 <= pos < length:
                    expected.append((note[t], note[pos], lr))
        start += length

    centers, contexts, lrs = _epoch_pairs(
        ids, np.array(lengths), np.array(spans, dtype=np.int64), cfg, epoch * n, total
    )
    assert list(zip(centers.tolist(), contexts.tolist(), lrs.tolist())) == expected


def _tables(seed, vocab_size, dim):
    rng = np.random.default_rng(seed)
    return rng.normal(0, 0.5, (vocab_size, dim)), rng.normal(0, 0.5, (vocab_size, dim))


def _kept(targets):
    return targets[:, 1:] != targets[:, :1]


class TestBlockEngine:
    """The block step against the per-pair oracle: sgns_gradients and the
    update the per-pair loop applied after every pair."""

    def test_disjoint_rows_equal_sequential_pair_updates(self):
        w_in, w_out = _tables(3, 40, 5)
        rng = np.random.default_rng(4)
        centers = rng.permutation(np.arange(2, 40))[:6]
        targets = rng.permutation(np.arange(2, 40))[:24].reshape(6, 4)
        targets[1, 2] = targets[1, 0]  # a draw equal to its context is dropped
        lrs = np.linspace(0.05, 0.02, 6)

        expected_in, expected_out = w_in.copy(), w_out.copy()
        for center, row, lr in zip(centers, targets, lrs):
            context, draws = row[0], row[1:]
            negs = draws[draws != context]
            v, u_ctx, u_negs = expected_in[center], expected_out[context], expected_out[negs]
            _, d_v, d_ctx, d_negs = oracle.sgns_gradients(v, u_ctx, u_negs)
            expected_in[center] = v - lr * d_v
            expected_out[context] = u_ctx - lr * d_ctx
            np.subtract.at(expected_out, negs, lr * d_negs)

        _sgns_block_step(w_in, w_out, centers, targets, _kept(targets), lrs, False)
        np.testing.assert_allclose(w_in, expected_in, rtol=0, atol=1e-12)
        np.testing.assert_allclose(w_out, expected_out, rtol=0, atol=1e-12)

    def test_repeated_rows_sum_per_pair_gradients_at_block_start(self):
        w_in, w_out = _tables(5, 7, 4)
        rng = np.random.default_rng(6)
        centers = rng.integers(2, 7, 12)
        targets = rng.integers(2, 7, (12, 5))
        kept = _kept(targets)
        assert len(set(centers.tolist())) < 12 and not kept.all() and kept.any()
        lrs = rng.uniform(0.01, 0.1, 12)

        delta_in, delta_out = np.zeros_like(w_in), np.zeros_like(w_out)
        expected_loss = 0.0
        for center, row, lr in zip(centers, targets, lrs):
            negs = row[1:][row[1:] != row[0]]
            loss, d_v, d_ctx, d_negs = oracle.sgns_gradients(
                w_in[center], w_out[row[0]], w_out[negs]
            )
            expected_loss += loss
            delta_in[center] += lr * d_v
            delta_out[row[0]] += lr * d_ctx
            np.add.at(delta_out, negs, lr * d_negs)
        expected_in, expected_out = w_in - delta_in, w_out - delta_out

        loss = _sgns_block_step(w_in, w_out, centers, targets, kept, lrs, True)
        assert loss == pytest.approx(expected_loss, rel=0, abs=1e-12)
        np.testing.assert_allclose(w_in, expected_in, rtol=0, atol=1e-12)
        np.testing.assert_allclose(w_out, expected_out, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("negatives_survive", [True, False], ids=["negatives", "none-kept"])
    def test_block_gradient_matches_finite_differences(self, negatives_survive):
        w_in, w_out = _tables(7, 6, 3)
        rng = np.random.default_rng(8)
        centers = rng.integers(1, 6, 5)
        targets = rng.integers(1, 6, (5, 3))
        kept = _kept(targets) if negatives_survive else np.zeros((5, 2), dtype=bool)
        assert kept.any() == negatives_survive

        _, d_centers, d_targets = _block_gradients(w_in, w_out, centers, targets, kept, False)
        grad_in, grad_out = np.zeros_like(w_in), np.zeros_like(w_out)
        np.add.at(grad_in, centers, d_centers)
        np.add.at(grad_out, targets, d_targets)

        def loss():
            return _block_gradients(w_in, w_out, centers, targets, kept, True)[0]

        h = 1e-6
        for table, grad in ((w_in, grad_in), (w_out, grad_out)):
            for i in range(table.size):
                orig = table.flat[i]
                table.flat[i] = orig + h
                up = loss()
                table.flat[i] = orig - h
                down = loss()
                table.flat[i] = orig
                assert abs((up - down) / (2 * h) - grad.flat[i]) < 1e-7


@settings(max_examples=100, deadline=None)
@given(
    n_rows=st.integers(1, 6),
    dim=st.integers(1, 5),
    shape=st.sampled_from([(7,), (3, 4), (2, 1)]),
    data=st.data(),
)
def test_scatter_add_is_the_2d_add_at_bit_for_bit(n_rows, dim, shape, data):
    """The flat scatter both trainers use equals np.add.at on the 2-D table
    bit for bit, repeated rows summed in the same order, and adding negated
    deltas equals np.subtract.at."""
    rows = np.array(data.draw(st.lists(st.integers(0, n_rows - 1), min_size=int(np.prod(shape)),
                                       max_size=int(np.prod(shape))))).reshape(shape)
    floats = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False, allow_subnormal=True)
    deltas = np.array(data.draw(st.lists(floats, min_size=rows.size * dim, max_size=rows.size * dim)))
    deltas = deltas.reshape(*shape, dim)
    start = np.array(data.draw(st.lists(floats, min_size=n_rows * dim, max_size=n_rows * dim)))
    start = start.reshape(n_rows, dim)

    flat, expected = start.copy(), start.copy()
    _scatter_add(flat, rows, deltas)
    np.add.at(expected, rows.ravel(), deltas.reshape(-1, dim))
    assert flat.tobytes() == expected.tobytes()

    flat, expected = start.copy(), start.copy()
    _scatter_add(flat, rows, -deltas)
    np.subtract.at(expected, rows.ravel(), deltas.reshape(-1, dim))
    assert flat.tobytes() == expected.tobytes()


class TestEmbeddingFile:
    def test_roundtrip_exact(self, tmp_path, small_vocab, small_embeddings):
        path = tmp_path / "emb.txt"
        save_embeddings(small_embeddings, small_vocab, path)
        tokens, loaded = load_embeddings(path)
        assert tokens == small_vocab.id_to_token
        np.testing.assert_array_equal(loaded.vectors, small_embeddings.vectors)

    def test_header(self, tmp_path, small_vocab, small_embeddings):
        path = tmp_path / "emb.txt"
        save_embeddings(small_embeddings, small_vocab, path)
        assert path.read_text().splitlines()[0] == "dim 6"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("5 100\n")
        with pytest.raises(ValueError, match="header"):
            load_embeddings(path)
