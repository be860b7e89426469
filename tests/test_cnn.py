import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

import cnn_oracle as oracle
from notepheno.cnn import (
    PROB_CLAMP,
    CnnConfig,
    activate,
    backward,
    forward,
    forward_batch,
    init_model,
    loss,
    predict,
    predict_batch,
    apply_max_norm,
    train,
)
from notepheno import checkpoint
from notepheno.corpus import PAD_ID, build_vocabulary, tokenize
from notepheno.embeddings import EmbeddingMatrix, init_embeddings
from notepheno.metrics import confusion, f1
from notepheno.optim import AdadeltaState, adadelta_step
from notepheno.synthetic import SyntheticSpec, generate_labeled_notes


def tiny_model(
    widths=(2, 3),
    filters=3,
    dim=4,
    vocab_size=7,
    n_heads=1,
    dropout_p=0.0,
    seed=3,
    randomize=True,
):
    rng = np.random.default_rng(seed)
    vectors = np.vstack([np.zeros(dim), rng.normal(0, 0.3, (vocab_size - 1, dim))])
    cfg = CnnConfig(
        filter_widths=widths,
        filters_per_width=filters,
        dropout_p=dropout_p,
        epochs=1,
        n_heads=n_heads,
        seed=seed,
    )
    model = init_model(cfg, EmbeddingMatrix(vectors=vectors))
    if randomize:
        for w in widths:
            model.conv_weights[w] = rng.normal(0, 0.2, model.conv_weights[w].shape)
            model.conv_biases[w] = rng.normal(0, 0.1, model.conv_biases[w].shape)
        model.output_weights = rng.normal(0, 0.3, model.output_weights.shape)
        model.output_bias = rng.normal(0, 0.1, model.output_bias.shape)
    return model


def zero_model(**kwargs):
    model = tiny_model(randomize=False, **kwargs)
    for w in model.config.filter_widths:
        model.conv_weights[w][:] = 0.0
        model.conv_biases[w][:] = 0.0
    model.output_weights[:] = 0.0
    model.output_bias[:] = 0.0
    return model


class TestForward:
    def test_zero_model_outputs_half(self):
        model = zero_model(n_heads=3)
        acts = forward(model, [2, 3, 4])
        np.testing.assert_allclose(acts.probs, 0.5)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            forward(tiny_model(), [])

    def test_short_input_padded_to_max_width(self):
        model = tiny_model(widths=(2, 5), filters=2)
        acts = forward(model, [3])
        assert acts.ids[0].tolist() == [3, PAD_ID, PAD_ID, PAD_ID, PAD_ID]
        assert acts.grids[5].shape[1] == 1  # width-5 bank sees exactly one position
        assert acts.grids[2].shape[1] == 4

    def test_pooled_equals_max_over_positions(self):
        model = tiny_model()
        acts = forward(model, [2, 3, 4, 5, 6])
        nf = model.config.filters_per_width
        for k, w in enumerate(model.config.filter_widths):
            seg = acts.pooled[0, k * nf : (k + 1) * nf]
            np.testing.assert_array_equal(seg, activate(model, acts.grids[w][0], w).max(axis=0))

    def test_planted_filter_prefers_its_phrase(self):
        vocab = build_vocabulary([["alcohol", "abuse", "pt", "denies", "heavy", "use"]], 1)
        rng = np.random.default_rng(8)
        vectors = np.vstack([np.zeros(4), rng.normal(0, 0.5, (len(vocab) - 1, 4))])
        emb = EmbeddingMatrix(vectors=vectors)
        cfg = CnnConfig(filter_widths=(2,), filters_per_width=1, dropout_p=0.0, seed=0)
        model = init_model(cfg, emb)
        phrase_ids = vocab.resolve(["alcohol", "abuse"])
        model.conv_weights[2][0] = emb.vectors[phrase_ids]
        model.conv_biases[2][:] = 0.0

        with_phrase = vocab.resolve(["pt", "alcohol", "abuse", "use"])
        others = [
            vocab.resolve(["pt", "denies", "heavy", "use"]),
            vocab.resolve(["heavy", "use", "pt", "denies"]),
            vocab.resolve(["use", "pt", "denies", "heavy"]),
        ]

        def brute_force_pooled(ids):
            best = -np.inf
            for i in range(len(ids) - 1):
                window = emb.vectors[ids[i : i + 2]]
                best = max(best, math.tanh(float(np.sum(window * model.conv_weights[2][0]))))
            return best

        pooled_with = forward(model, with_phrase).pooled[0, 0]
        assert pooled_with == pytest.approx(brute_force_pooled(with_phrase))
        for ids in others:
            pooled_other = forward(model, ids).pooled[0, 0]
            assert pooled_other == pytest.approx(brute_force_pooled(ids))
            assert pooled_with > pooled_other

    def test_duplicating_windows_keeps_pooled_vector(self):
        # A periodic input repeated once more duplicates every window (the
        # argmax ones included) and introduces no new window contents.
        model = tiny_model(widths=(2, 3))
        base = [2, 3, 4] * 2
        longer = [2, 3, 4] * 3
        np.testing.assert_array_equal(
            forward(model, base).pooled, forward(model, longer).pooled
        )

    def test_inference_deterministic(self):
        model = tiny_model()
        a = forward(model, [2, 3, 4, 5])
        b = forward(model, [2, 3, 4, 5])
        np.testing.assert_array_equal(a.probs, b.probs)


class TestLoss:
    def test_half_probability(self):
        assert loss(np.array([0.5]), np.array([1.0])) == pytest.approx(math.log(2), abs=1e-9)

    def test_clamped_confident_correct(self):
        value = loss(np.array([1.0 - 1e-7]), np.array([1.0]))
        assert value == pytest.approx(1e-7, rel=1e-3)

    def test_mean_over_heads(self):
        value = loss(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
        assert value == pytest.approx(math.log(2), abs=1e-9)

    def test_clamp_prevents_infinity(self):
        assert math.isfinite(loss(np.array([0.0]), np.array([1.0])))


class TestAdadelta:
    def test_first_step_hand_value(self):
        params = {"x": np.array([0.0])}
        state = AdadeltaState.for_params(params)
        adadelta_step(params, {"x": np.array([1.0])}, state, 0.95, 1e-6)
        expected = -math.sqrt(1e-6 / (0.05 + 1e-6))
        assert params["x"][0] == pytest.approx(expected, rel=1e-6)
        assert params["x"][0] == pytest.approx(-0.004472, abs=1e-6)

    def test_zero_gradient_only_decays_accumulators(self):
        params = {"x": np.array([1.5])}
        state = AdadeltaState.for_params(params)
        state.sq_grad["x"][:] = 0.8
        state.sq_update["x"][:] = 0.2
        adadelta_step(params, {"x": np.array([0.0])}, state, 0.95, 1e-6)
        assert params["x"][0] == 1.5
        assert state.sq_grad["x"][0] == pytest.approx(0.95 * 0.8)
        assert state.sq_update["x"][0] == pytest.approx(0.95 * 0.2)

    def test_update_opposes_gradient(self):
        rng = np.random.default_rng(5)
        g = rng.normal(0, 1, 20)
        params = {"x": np.zeros(20)}
        state = AdadeltaState.for_params(params)
        adadelta_step(params, {"x": g}, state, 0.95, 1e-6)
        nonzero = np.abs(g) > 0
        assert np.all(np.sign(params["x"][nonzero]) == -np.sign(g[nonzero]))


    @pytest.mark.parametrize("shape, order", [
        ((70_001,), "C"), ((1,), "C"), ((0,), "C"), ((0, 5), "C"), ((3, 0), "C"),
        ((331, 301), "C"), ((331, 301), "F"), ((2, 40_001), "C"), ((40_001, 3), "F"),
    ])
    def test_blocked_step_is_the_whole_array_step_bit_for_bit(self, shape, order):
        """Parameters of one block and of many, odd sizes, zero-size, 1-D and
        Fortran-ordered ones: three steps give the whole-array bytes."""
        rng = np.random.default_rng(sum(shape))

        def arrays():
            scale = 10.0 ** rng.uniform(-8, 8, shape)
            return {"p": np.asarray(rng.normal(0, 1, shape) * scale, order=order),
                    "q": rng.normal(0, 1, 5)}

        got = arrays()
        want = {name: p.copy(order="K") for name, p in got.items()}
        got_state, want_state = AdadeltaState.for_params(got), AdadeltaState.for_params(want)
        for _ in range(3):
            grads = arrays()
            adadelta_step(got, grads, got_state, 0.95, 1e-6)
            oracle.adadelta_step_whole(want, grads, want_state, 0.95, 1e-6)
        for name in got:
            assert got[name].tobytes() == want[name].tobytes(), name
            assert got_state.sq_grad[name].tobytes() == want_state.sq_grad[name].tobytes(), name
            assert got_state.sq_update[name].tobytes() == want_state.sq_update[name].tobytes(), name


class TestMaxNorm:
    @pytest.mark.parametrize("shape", [(1, 5), (2, 3), (331, 301), (30_001, 3), (70_001, 1)])
    def test_blocked_norms_are_the_whole_array_norms_bit_for_bit(self, shape):
        rng = np.random.default_rng(sum(shape))
        vectors = rng.normal(0, 2, shape) * rng.choice([0.1, 1.0, 10.0], size=(shape[0], 1))
        got, want = EmbeddingMatrix(vectors=vectors.copy()), EmbeddingMatrix(vectors=vectors.copy())
        apply_max_norm(got, 3.0)
        oracle.apply_max_norm_whole(want, 3.0)
        assert got.vectors.tobytes() == want.vectors.tobytes()

    def test_rescales_long_row(self):
        emb = EmbeddingMatrix(vectors=np.array([[0.0, 0.0, 0.0], [6.0, 0.0, 0.0]]))
        apply_max_norm(emb, 3.0)
        np.testing.assert_allclose(emb.vectors[1], [3.0, 0.0, 0.0])

    def test_short_row_unchanged(self):
        emb = EmbeddingMatrix(vectors=np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]))
        apply_max_norm(emb, 3.0)
        np.testing.assert_array_equal(emb.vectors[1], [1.0, 1.0, 1.0])

    def test_pad_row_untouched(self):
        emb = EmbeddingMatrix(vectors=np.zeros((2, 3)))
        apply_max_norm(emb, 3.0)
        np.testing.assert_array_equal(emb.vectors[PAD_ID], 0.0)


def finite_difference_check(model, ids, labels, h=1e-4, tol=1e-4):
    acts = forward(model, ids)
    grads = backward(model, acts, labels)
    params = model.parameters()
    checked = 0
    for name, arr in params.items():
        flat = arr.ravel()
        g = grads[name].ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss(forward(model, ids).probs, labels)
            flat[i] = orig - h
            down = loss(forward(model, ids).probs, labels)
            flat[i] = orig
            fd = (up - down) / (2 * h)
            if abs(g[i]) > 1e-8:
                rel = abs(g[i] - fd) / max(abs(g[i]), abs(fd))
                assert rel < tol, f"{name}[{i}]: analytic {g[i]} vs fd {fd}"
                checked += 1
    assert checked > 0


class TestBackward:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gradients_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        model = tiny_model(widths=(2, 3), filters=4, dim=5, vocab_size=10, n_heads=2, seed=seed)
        length = int(rng.integers(3, 9))
        ids = list(rng.integers(1, 10, size=length))
        labels = rng.integers(0, 2, size=2).astype(float)
        finite_difference_check(model, ids, labels)

    def test_saturated_loss_has_tiny_output_gradient(self):
        model = tiny_model()
        model.output_bias[:] = 30.0  # probability numerically clamps at the label
        acts = forward(model, [2, 3, 4])
        grads = backward(model, acts, np.array([1.0]))
        assert np.max(np.abs(grads["output_weights"])) < 1e-6
        assert np.max(np.abs(grads["output_bias"])) < 1e-6

    def test_dropped_filter_gets_zero_gradient(self):
        model = tiny_model(widths=(2,), filters=3, dropout_p=0.5)
        # keep filters 0 and 2, drop filter 1
        acts = forward_batch(model, [[2, 3, 4]], np.array([[0.9, 0.1, 0.9]]))
        assert acts.dropout_mask[0].tolist() == [1.0, 0.0, 1.0]
        grads = backward(model, acts, np.array([1.0]))
        np.testing.assert_array_equal(grads["conv_w2"][1], 0.0)
        assert grads["conv_b2"][1] == 0.0
        assert np.any(grads["conv_w2"][0] != 0.0)

    def test_embedding_gradient_only_at_winning_windows(self):
        model = tiny_model(widths=(2,), filters=1)
        ids = [2, 3, 4, 5, 6]
        acts = forward(model, ids)
        grads = backward(model, acts, np.array([1.0]))
        start = int(acts.argmax[2][0, 0])
        winners = set(ids[start : start + 2])
        for token_id in set(ids) - winners:
            np.testing.assert_array_equal(grads["embeddings"][token_id], 0.0)
        assert np.max(np.abs(grads["embeddings"][PAD_ID])) == 0.0


def planted_training_data(n_notes=200, seed=4):
    spec = SyntheticSpec(
        n_notes=n_notes,
        vocab_size=50,
        n_phenotypes=1,
        phrase_length=3,
        seed=seed,
        min_note_tokens=15,
        max_note_tokens=30,
    )
    notes = generate_labeled_notes(spec)
    token_lists = [tokenize(n.text) for n in notes]
    vocab = build_vocabulary(token_lists, min_count=1)
    data = [
        (vocab.resolve(tokens), np.array([float(note.labels["pheno0"])]))
        for note, tokens in zip(notes, token_lists)
    ]
    return vocab, data


class TestTraining:
    @pytest.mark.parametrize("param, epochs, epoch", [("output_weights", 3, 1), ("output_bias", 2, 2)])
    def test_a_diverged_run_is_an_error_naming_the_epoch(self, param, epochs, epoch):
        """Infinite output weights give NaN losses in the first step; an
        infinite bias gives clamped, finite losses, and only the check of
        the parameters after the last epoch finds it."""
        model = tiny_model()
        model.config = replace(model.config, epochs=epochs)
        getattr(model, param)[:] = np.inf
        data = [([2, 3, 4], np.array([1.0])), ([5, 6], np.array([0.0]))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^CNN training diverged at epoch {epoch}$"):
                train(model, data)

    def test_zero_epochs_is_identity(self):
        vocab, data = planted_training_data(n_notes=20)
        cfg = CnnConfig(filter_widths=(2,), filters_per_width=2, epochs=0, seed=1)
        model = init_model(cfg, init_embeddings(len(vocab), 6, seed=2))
        before = {k: v.copy() for k, v in model.parameters().items()}
        model, history = train(model, data)
        for name, arr in model.parameters().items():
            np.testing.assert_array_equal(arr, before[name])
        assert history.train_loss == []

    def test_planted_phrase_reaches_perfect_training_f1(self):
        vocab, data = planted_training_data()
        cfg = CnnConfig(
            filter_widths=(2, 3),
            filters_per_width=8,
            dropout_p=0.5,
            max_norm=3.0,
            epochs=20,
            batch_size=20,
            seed=0,
        )
        model = init_model(cfg, init_embeddings(len(vocab), 16, seed=1))
        model, history = train(model, data)
        preds = [int(predict(model, ids)[1][0]) for ids, _ in data]
        labels = [int(y[0]) for _, y in data]
        assert f1(confusion(preds, labels)) == 1.0
        assert history.train_loss[-1] < history.train_loss[0]

    def test_same_seed_is_bit_identical(self):
        vocab, data = planted_training_data(n_notes=40)
        cfg = CnnConfig(
            filter_widths=(2,), filters_per_width=4, epochs=3, batch_size=10, seed=7
        )

        def run():
            model = init_model(cfg, init_embeddings(len(vocab), 6, seed=2))
            model, history = train(model, data, val_data=data[:10])
            return model, history

        m1, h1 = run()
        m2, h2 = run()
        for name in m1.parameters():
            np.testing.assert_array_equal(m1.parameters()[name], m2.parameters()[name])
        assert h1.train_loss == h2.train_loss
        assert h1.val_f1 == h2.val_f1

    def test_max_norm_holds_after_every_step(self):
        vocab, data = planted_training_data(n_notes=60)
        cfg = CnnConfig(
            filter_widths=(2,), filters_per_width=4, epochs=2, batch_size=10,
            max_norm=0.05, seed=7,  # tight bound so the constraint actually binds
        )
        model = init_model(cfg, init_embeddings(len(vocab), 6, seed=2))
        worst = []

        def check(model, epoch, step):
            norms = np.linalg.norm(model.embeddings.vectors[1:], axis=1)
            worst.append(float(norms.max()))
            assert np.all(model.embeddings.vectors[PAD_ID] == 0.0)

        train(model, data, step_callback=check)
        assert worst, "callback never fired"
        assert max(worst) <= 0.05 + 1e-9
        assert max(worst) > 0.049  # the bound was actually reached

    def test_label_width_mismatch_rejected(self):
        vocab, data = planted_training_data(n_notes=10)
        cfg = CnnConfig(filter_widths=(2,), filters_per_width=2, epochs=1, n_heads=2, seed=1)
        model = init_model(cfg, init_embeddings(len(vocab), 4, seed=2))
        with pytest.raises(ValueError, match="heads"):
            train(model, data)


class TestPredict:
    def test_zero_model_boundary_convention(self):
        model = zero_model()
        probs, labels = predict(model, [2, 3, 4])  # the default threshold, 0.5
        assert probs[0] == 0.5 and labels[0] == 1

    def test_threshold_one_never_fires(self):
        model = tiny_model()
        model.output_bias[:] = 100.0
        model.config = replace(model.config, threshold=1.0 - PROB_CLAMP / 10)  # valid, and above the clamped probability
        _, labels = predict(model, [2, 3, 4])
        assert labels[0] == 0

    @pytest.mark.parametrize("bias, prob", [(-1000.0, PROB_CLAMP), (1000.0, 1.0 - PROB_CLAMP)])
    def test_an_overflowing_logit_gives_the_clamped_probability_without_a_warning(self, bias, prob):
        model = tiny_model()
        model.output_bias[:] = bias
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            probs, labels = predict_batch(model, [[2, 3, 4], [5, 6]])
        assert probs.tolist() == [[prob], [prob]]
        assert labels.tolist() == [[int(bias > 0)], [int(bias > 0)]]

    def test_concurrent_inference_matches_sequential(self):
        model = tiny_model(widths=(2, 3), filters=4)
        rng = np.random.default_rng(0)
        inputs = [list(rng.integers(1, 7, size=rng.integers(3, 12))) for _ in range(24)]
        sequential = [predict(model, ids)[0][0] for ids in inputs]
        with ThreadPoolExecutor(max_workers=8) as pool:
            concurrent = [p[0][0] for p in pool.map(lambda ids: predict(model, ids), inputs)]
        assert sequential == concurrent


class TestCheckpoint:
    def test_roundtrip_reproduces_predictions_bit_exactly(self, tmp_path):
        vocab = build_vocabulary([["alcohol", "abuse", "pt", "denies"]], 1)
        model = tiny_model(vocab_size=len(vocab), n_heads=2)
        path = tmp_path / "model.json"
        checkpoint.save(checkpoint.Checkpoint("cnn", model, ["alcohol_abuse", "depression"], vocab=vocab), path)
        loaded = checkpoint.load(path)
        assert loaded.kind == "cnn" and loaded.phenotypes == ["alcohol_abuse", "depression"]
        assert loaded.vocab.id_to_token == vocab.id_to_token
        ids = vocab.resolve(["pt", "denies", "alcohol", "abuse"])
        np.testing.assert_array_equal(forward(model, ids).probs, forward(loaded.model, ids).probs)
        got = loaded.model.parameters()
        for name, array in model.parameters().items():
            assert got[name].dtype == array.dtype and got[name].tobytes() == array.tobytes(), name

    def test_double_roundtrip_is_stable(self, tmp_path):
        vocab = build_vocabulary([["a", "b", "c"]], 1)
        model = tiny_model(vocab_size=len(vocab))
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        checkpoint.save(checkpoint.Checkpoint("cnn", model, ["p"], vocab=vocab), p1)
        checkpoint.save(checkpoint.load(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "svm", "format_version": 1}')
        with pytest.raises(ValueError, match="unknown checkpoint kind 'svm'"):
            checkpoint.load(path)
        path.write_text('{"kind": "cnn", "format_version": 1}')
        with pytest.raises(ValueError, match="cnn checkpoint format version 1, expected 2"):
            checkpoint.load(path)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"filter_widths": ()},
            {"filter_widths": (2, 2)},
            {"filter_widths": (0,)},
            {"filters_per_width": 0},
            {"dropout_p": 1.0},
            {"max_norm": 0.0},
            {"threshold": 0.0},
            {"threshold": 1.0},
            {"n_heads": 0},
            {"activation": "gelu"},
            {"seed": -1},  # the seed reaches np.random.default_rng, which takes no negative one
        ],
    )
    def test_bad_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            CnnConfig(**kwargs).validate()

    def test_relu_activation_supported(self):
        model = tiny_model()
        model.config = replace(model.config, activation="relu")
        finite_difference_check(model, [2, 3, 4, 5], np.array([1.0]))
