"""Trainer: loss baseline at ln(V), pad masking, descent, seeded shuffling,
determinism, and best-validation checkpoint selection."""

import math
from dataclasses import replace

import numpy as np
import pytest

from cxrgen import tensor as T
from cxrgen.data import default_corpus_spec, synthesize_corpus
from cxrgen.demographics import DemographicCodec, select_top_categories
from cxrgen.errors import ConfigError, ContractError, TrainingError
from cxrgen.model import ModelConfig, decoder_forward, encode_inputs, generate, init_parameters
from cxrgen.optim import Adam
from cxrgen.text import END_ID, PAD_ID, START_ID, build_vocabulary
from cxrgen.tensor import Tensor
from cxrgen.training import (EncodedExample, TrainConfig, batch_loss, clip_gradients,
                             encode_examples, epoch_order, evaluate_loss, fit,
                             teacher_forcing_batch, train_step)

from oracles import (PerTensorAdam, adam_moments, detached, direct_softmax,
                     padded_teacher_forcing_batch, per_example_batch_loss, two_op_batch_loss)


def tiny_setup(n_per_stratum=2, d_model=16, max_len=24, dropout=0.0, seed=0):
    spec = default_corpus_spec(n_per_stratum=n_per_stratum, feature_dim=8)
    points = synthesize_corpus(spec, seed=seed)
    categories, _ = select_top_categories([p.demographics for p in points], k=5)
    codec = DemographicCodec(tuple(categories))
    vocab = build_vocabulary([p.report for p in points], cap=128)
    cfg = ModelConfig(feature_dim=8, d_model=d_model, d_embed=d_model, n_heads=2,
                      vocab_size=len(vocab), max_len=max_len,
                      demographic_dim=codec.dim, dropout_rate=dropout)
    examples = encode_examples(points, vocab, codec, cfg)
    return points, vocab, codec, cfg, examples


# the criterion-5 desk model
DESK = ModelConfig(feature_dim=24, d_model=32, d_embed=32, n_heads=2, vocab_size=96,
                   max_len=24, demographic_dim=7, dropout_rate=0.0)


class TestTeacherForcing:
    def test_views_trim_trailing_pads(self):
        ids = np.asarray([1, 7, 8, 2, 0, 0, 0])
        inputs, targets, mask = (part[0] for part in teacher_forcing_batch([ids]))
        assert inputs.tolist() == [1, 7, 8]
        assert targets.tolist() == [7, 8, 2]
        assert mask.all()

    def test_rejects_degenerate_sequence(self):
        with pytest.raises(ContractError):
            teacher_forcing_batch([np.asarray([1, 0, 0])])

    @pytest.mark.parametrize("id_dtype", [np.int64, np.int32, np.float64])
    def test_batch_matches_padded_oracle(self, id_dtype):
        """Random spans up to the full width and an interior PAD_ID: the
        whole-array assembly equals per-row np.pad."""
        rng = np.random.default_rng(8)
        max_len = 24
        for trial in range(40):
            rows = []
            for _ in range(int(rng.integers(1, 9))):
                span = int(rng.integers(2, max_len + 1))
                row = np.full(max_len, PAD_ID)
                row[:span] = rng.integers(3, 40, size=span)
                row[0], row[span - 1] = START_ID, END_ID
                if span > 3 and rng.random() < 0.3:
                    row[int(rng.integers(1, span - 1))] = PAD_ID
                rows.append(row.astype(id_dtype))
            got = teacher_forcing_batch(rows)
            want = padded_teacher_forcing_batch(rows, PAD_ID)
            for part, ref in zip(got, want):
                assert part.dtype == ref.dtype
                assert np.array_equal(part, ref), trial

    def test_batch_rejects_a_degenerate_row(self):
        good = np.asarray([START_ID, 7, END_ID, PAD_ID])
        for bad in ([START_ID, PAD_ID, PAD_ID, PAD_ID], [PAD_ID] * 4,
                    [END_ID, PAD_ID, PAD_ID, PAD_ID]):
            rows = [good, np.asarray(bad)]
            with pytest.raises(ContractError, match="too short"):
                padded_teacher_forcing_batch(rows, PAD_ID)
            with pytest.raises(ContractError, match="too short"):
                teacher_forcing_batch(rows)


class TestLoss:
    def test_initial_loss_near_log_vocab(self):
        """Untrained model at the published vocabulary size: per-token loss
        within 5% of ln(2212) = 7.70."""
        vocab_size = 2212
        cfg = ModelConfig(feature_dim=8, d_model=16, d_embed=16, n_heads=2,
                          vocab_size=vocab_size, max_len=12, demographic_dim=4,
                          dropout_rate=0.0)
        params = init_parameters(cfg, seed=0)
        rng = np.random.default_rng(0)
        examples = []
        for i in range(6):
            ids = np.concatenate([[1], rng.integers(4, vocab_size, size=9), [2]])
            examples.append(EncodedExample(f"e{i}", rng.normal(size=8),
                                           np.eye(4)[i % 4], ids))
        loss = evaluate_loss(examples, params, cfg, batch_size=64)
        assert abs(loss - math.log(vocab_size)) / math.log(vocab_size) < 0.05

    def test_repeated_example_equals_single(self):
        _, _, _, cfg, examples = tiny_setup()
        params = init_parameters(cfg, seed=1)
        single, _ = batch_loss(examples[:1], params, cfg)
        T.reset_graph()
        repeated, _ = batch_loss(examples[:1] * 4, params, cfg)
        assert repeated.item() == pytest.approx(single.item(), rel=1e-6)

    def test_repeated_example_same_gradient_direction(self):
        _, _, _, cfg, examples = tiny_setup()

        def grads_for(batch):
            T.reset_graph()
            params = init_parameters(cfg, seed=2)
            loss, _ = batch_loss(batch, params, cfg)
            T.backward(loss)
            return {n: p.grad.copy() for n, p in params.items() if p.grad is not None}

        g1 = grads_for(examples[:1])
        g4 = grads_for(examples[:1] * 4)
        assert set(g1) == set(g4)
        for name in g1:
            np.testing.assert_allclose(g1[name], g4[name], rtol=1e-5, atol=1e-7)

    def test_pad_positions_contribute_nothing(self):
        """Loss matches a hand-masked oracle, and extending the padding
        leaves loss and gradients bit-identical."""
        _, vocab, codec, cfg, examples = tiny_setup()
        ex = examples[0]
        params = init_parameters(cfg, seed=3)

        # hand-masked oracle: per-position softmax CE over non-pad targets only
        from cxrgen.model import decoder_forward, encode_inputs
        hybrid = encode_inputs(ex.features, ex.demo, params, cfg)
        inputs, targets, mask = (part[0] for part in teacher_forcing_batch([ex.ids]))
        logits = decoder_forward(inputs[None], hybrid, params, cfg).data
        manual_terms = [
            -math.log(direct_softmax(logits[i])[targets[i]])
            for i in range(len(targets)) if targets[i] != PAD_ID
        ]
        T.reset_graph()
        loss, count = batch_loss([ex], params, cfg)
        assert count == len(manual_terms)
        assert loss.item() == pytest.approx(np.mean(manual_terms), rel=1e-5)

        def run(ids):
            T.reset_graph()
            run_params = init_parameters(cfg, seed=3)
            value, _ = batch_loss([EncodedExample(ex.id, ex.features, ex.demo, ids)],
                                  run_params, cfg)
            T.backward(value)
            grads = {n: p.grad.copy() for n, p in run_params.items()
                     if p.grad is not None}
            return value.item(), grads

        short = ex.ids
        longer = np.concatenate([ex.ids, np.full(6, PAD_ID, dtype=np.int64)])
        loss_a, grads_a = run(short)
        loss_b, grads_b = run(longer)
        assert loss_a == loss_b
        assert set(grads_a) == set(grads_b)
        for name in grads_a:
            assert np.array_equal(grads_a[name], grads_b[name])


def loss_and_gradients(loss_fn, batch, cfg, seed):
    T.reset_graph()
    params = init_parameters(cfg, seed=seed)
    loss, count = loss_fn(batch, params, cfg)
    T.backward(loss)
    return loss.item(), count, {name: p.grad for name, p in params.items()}


def random_examples(cfg, lengths, seed):
    rng = np.random.default_rng(seed)
    examples = []
    for i, length in enumerate(lengths):
        ids = np.concatenate([[START_ID], rng.integers(4, cfg.vocab_size, size=length),
                              [END_ID], np.full(cfg.max_len - length - 2, PAD_ID)])
        examples.append(EncodedExample(f"e{i}", rng.normal(size=cfg.feature_dim),
                                       rng.random(cfg.demographic_dim), ids))
    return examples


class TestBatchedLoss:
    """One padded forward over the batch against the model run one example at a time."""

    def assert_matches_per_example(self, batch, cfg, seed):
        loss, count, grads = loss_and_gradients(batch_loss, batch, cfg, seed)
        ref_loss, ref_count, ref_grads = loss_and_gradients(per_example_batch_loss, batch,
                                                            cfg, seed)
        assert count == ref_count
        assert abs(loss - ref_loss) <= 1e-5 * abs(ref_loss)
        assert grads.keys() == ref_grads.keys()
        for name, ref in ref_grads.items():
            # max |delta| over max |reference| per tensor
            error = np.abs(grads[name] - ref).max() / np.abs(ref).max()
            assert error <= 1e-5, (name, error)

    def test_mixed_length_desk_batch_matches_per_example_oracle(self):
        _, _, _, cfg, examples = tiny_setup(n_per_stratum=2, d_model=32, max_len=50)
        batch = examples[:16]
        lengths = {teacher_forcing_batch([ex.ids])[0].shape[1] for ex in batch}
        assert len(lengths) > 3
        self.assert_matches_per_example(batch, cfg, seed=4)

    def test_paper_scale_pair_matches_per_example_oracle(self):
        cfg = ModelConfig(dropout_rate=0.0)
        self.assert_matches_per_example(random_examples(cfg, (30, 17), seed=6), cfg, seed=0)

    def test_other_examples_and_future_tokens_leave_past_logits_bit_identical(self):
        """Example b's logits at positions <= t do not move, bit for bit, when
        a token of b after t changes or when any token of another example
        changes."""
        cfg = ModelConfig(feature_dim=10, d_model=16, d_embed=16, n_heads=2, vocab_size=20,
                          max_len=8, demographic_dim=7, n_decoder_blocks=2, dropout_rate=0.0)
        params = init_parameters(cfg, seed=2)
        rng = np.random.default_rng(21)
        lengths = np.asarray([8, 5, 3, 7])
        ids = np.full((4, 8), PAD_ID)
        for b, length in enumerate(lengths):
            ids[b, :length] = np.concatenate([[START_ID],
                                              rng.integers(4, cfg.vocab_size, size=length - 1)])
        hybrid = encode_inputs(rng.normal(size=(4, 10)), rng.random((4, 7)), params, cfg)

        def logits(batch_ids):
            return decoder_forward(batch_ids, hybrid, params, cfg).data.reshape(4, 8, -1)

        base = logits(ids)
        for trial in range(60):
            b = int(rng.integers(4))
            perturbed = ids.copy()
            if trial % 2:
                t = int(rng.integers(0, lengths[b] - 1))
                j = int(rng.integers(t + 1, lengths[b]))
                row = b
            else:
                t = lengths[b] - 1
                row = int(rng.choice([r for r in range(4) if r != b]))
                j = int(rng.integers(0, lengths[row]))
            while perturbed[row, j] == ids[row, j]:
                perturbed[row, j] = rng.integers(4, cfg.vocab_size)
            assert np.array_equal(logits(perturbed)[b, :t + 1], base[b, :t + 1]), trial

    def test_empty_batch_rejected(self):
        _, _, _, cfg, _ = tiny_setup()
        with pytest.raises(ContractError):
            batch_loss([], init_parameters(cfg, seed=0), cfg)

    def test_dropout_runs_exactly_when_handed_an_rng(self):
        """``batch_loss`` runs dropout when handed an rng and draws nothing
        without one, so its loss is then the one of the same model with no
        dropout; a training step with dropout but no rng is refused."""
        _, _, _, cfg, examples = tiny_setup(dropout=0.5)
        params = init_parameters(cfg, seed=0)
        with pytest.raises(ContractError, match="needs an rng"):
            train_step(examples[:2], params, Adam(params, lr=3e-4), cfg)
        plain, _ = batch_loss(examples[:2], params, cfg)
        dropped, _ = batch_loss(examples[:2], params, cfg, rng=np.random.default_rng(0))
        assert dropped.item() != plain.item()
        assert plain.item() == batch_loss(examples[:2], params,
                                          replace(cfg, dropout_rate=0.0))[0].item()


class TestValidationOnArrays:
    """``evaluate_loss``, ``batch_loss`` per batch over tensors that need no
    gradient pooled over the batches' token counts, against the model run
    one example at a time (``oracles.per_example_batch_loss``) over the whole
    split: the mean over every target token, to a relative 1e-5."""

    @staticmethod
    def _examples(cfg, n, seed):
        """Reports of mixed lengths, some with an interior pad id, encoded to
        ``max_len`` ids."""
        rng = np.random.default_rng(seed)
        lengths = rng.integers(1, cfg.max_len - 1, size=n)
        examples = random_examples(cfg, lengths, seed)
        for ex, length in zip(examples[::3], lengths[::3]):
            ex.ids[int(rng.integers(1, length + 1))] = PAD_ID
        if not cfg.uses_demographics:
            examples = [EncodedExample(ex.id, ex.features, None, ex.ids) for ex in examples]
        return examples

    @pytest.mark.parametrize("cfg", [
        DESK, replace(DESK, n_decoder_blocks=2), replace(DESK, n_decoder_blocks=3),
        replace(DESK, demographic_dim=0), ModelConfig()],
        ids=["desk", "desk-2-blocks", "desk-3-blocks", "image-only", "paper"])
    def test_matches_the_per_example_loss_pooled_over_the_split(self, cfg):
        n, batch_size = (5, 2) if cfg == ModelConfig() else (23, 8)   # a short last batch
        examples = self._examples(cfg, n, seed=11)
        params = init_parameters(cfg, seed=5)
        if cfg != ModelConfig():   # move off the initialisation's zero biases
            fit(examples, examples, params, cfg, TrainConfig(
                batch_size=batch_size, learning_rate=1e-2, epochs=1, seed=2))
        loss = evaluate_loss(examples, params, cfg, batch_size)
        reference, _ = per_example_batch_loss(examples, detached(params), cfg)
        assert abs(loss - reference.item()) <= 1e-5 * abs(reference.item())

    @pytest.mark.parametrize("bad", [-1, 96, 200], ids=["negative", "vocab-size", "beyond"])
    @pytest.mark.parametrize("position", [0, 3, 10], ids=["first", "later", "end-marker"])
    def test_an_id_out_of_range_is_a_contract_error(self, bad, position):
        """An input id is refused by the embedding, and the end marker, which
        is only a target, by the cross-entropy."""
        examples = random_examples(DESK, (6, 9), seed=4)
        examples[1].ids[position] = bad
        params = init_parameters(DESK, seed=0)
        what = "target" if position == 10 else "embedding"
        with pytest.raises(ContractError, match=f"{what} id out of range"):
            evaluate_loss(examples, params, DESK, batch_size=64)

    @pytest.mark.parametrize("cfg", [DESK, replace(DESK, dropout_rate=0.1)],
                             ids=["desk", "desk-dropout-0.1"])
    def test_validation_inside_a_step_changes_nothing(self, cfg):
        """``evaluate_loss`` called between a step's ``batch_loss`` and its
        backward pass appends nothing to the tape and draws nothing from the
        dropout rng: the gradients and the parameters after ``Adam.step``
        equal, byte for byte, those of a step without the call."""
        batch = random_examples(cfg, (12, 5, 20, 9), seed=3)
        results = []
        for validate in (False, True):
            T.reset_graph()
            params = init_parameters(cfg, seed=0)
            optimizer = Adam(params, lr=1e-2)
            optimizer.zero_grad()
            loss, _ = batch_loss(batch, params, cfg, rng=np.random.default_rng(5))
            entries = len(T.active_graph())
            if validate:
                evaluate_loss(batch, params, cfg, batch_size=3)
                assert len(T.active_graph()) == entries
            T.backward(loss)
            grads = {name: p.grad.tobytes() for name, p in params.items()}
            optimizer.step()
            results.append((entries, grads, {name: p.data.tobytes() for name, p in params.items()}))
        T.reset_graph()
        assert results[0] == results[1]

    def test_validation_and_generation_record_nothing(self):
        examples = random_examples(DESK, (6, 9, 4), seed=4)
        params = init_parameters(DESK, seed=0)
        assert all(p.requires_grad for p in params.values())
        evaluate_loss(examples, params, DESK, 2)
        generate(examples[0].features, examples[0].demo, params, DESK, temperature=0.5)
        assert T.active_graph() == []
        assert all(p.grad is None for p in params.values())


class TestOneLossOp:
    """``batch_loss`` takes the pooled mean inside the cross-entropy op; its
    value and every gradient equal, byte for byte, the summed cross-entropy
    followed by a separate ``scale`` op that it replaced."""

    @pytest.mark.parametrize("cfg, rng_seed", [
        (DESK, None), (replace(DESK, dropout_rate=0.1), 5), (ModelConfig(), None)],
        ids=["desk", "desk-dropout-0.1", "paper"])
    def test_batch_loss_matches_two_op_reference_bytes(self, cfg, rng_seed):
        batch = random_examples(cfg, (12, 5, 20, 9), seed=3)
        results = []
        for loss_fn in (batch_loss, two_op_batch_loss):
            T.reset_graph()
            params = init_parameters(cfg, seed=0)
            rng = None if rng_seed is None else np.random.default_rng(rng_seed)
            loss, count = loss_fn(batch, params, cfg, rng=rng)
            T.backward(loss)
            results.append((loss.data.tobytes(), count,
                            {name: p.grad.tobytes() for name, p in params.items()}))
        assert results[0] == results[1]


class TestTapeSize:
    """A training step's tape is pinned, so un-fusing an op fails here and
    not only in a traced benchmark run."""

    @pytest.mark.parametrize("demographic_dim, entries", [(7, 24), (0, 20)],
                             ids=["demographics", "image-only"])
    def test_desk_batch_loss_records_a_fixed_number_of_entries(self, demographic_dim, entries):
        cfg = replace(DESK, demographic_dim=demographic_dim)
        batch = random_examples(cfg, (12, 5, 20, 9), seed=3)
        T.reset_graph()
        batch_loss(batch, init_parameters(cfg, seed=0), cfg, rng=np.random.default_rng(0))
        assert len(T.active_graph()) == entries


class TestTrainStep:
    def test_two_steps_decrease_loss_across_seeds(self):
        """Descent on a fixed tiny batch: at most 1 failure in 20 seeds."""
        _, _, _, cfg, examples = tiny_setup()
        batch = examples[:4]
        failures = 0
        for seed in range(20):
            params = init_parameters(cfg, seed=seed)
            before = evaluate_loss(batch, params, cfg, batch_size=64)
            optimizer = Adam(params, lr=1e-3)
            for _ in range(2):
                train_step(batch, params, optimizer, cfg)
            after = evaluate_loss(batch, params, cfg, batch_size=64)
            if after >= before:
                failures += 1
        assert failures <= 1

    def test_empty_batch_rejected(self):
        _, _, _, cfg, _ = tiny_setup()
        params = init_parameters(cfg, seed=0)
        with pytest.raises(ContractError):
            train_step([], params, Adam(params, lr=3e-4), cfg)

    def test_non_finite_loss_aborts_with_ids(self):
        _, _, _, cfg, examples = tiny_setup()
        params = init_parameters(cfg, seed=0)
        params["classifier.w"].data[0, 0] = np.nan
        with pytest.raises(TrainingError, match=examples[0].id):
            train_step(examples[:1], params, Adam(params, lr=3e-4), cfg)

    def test_grad_clip_bounds_global_norm(self):
        _, _, _, cfg, examples = tiny_setup()
        params = init_parameters(cfg, seed=0)
        optimizer = Adam(params, lr=1e-3)
        train_step(examples[:2], params, optimizer, cfg, grad_clip=1e-6)
        # after clipping, the applied step is tiny but finite
        assert all(np.isfinite(p.data).all() for p in params.values())


class TestGradientClipping:
    @staticmethod
    def _params(*grads):
        params = {"no_grad": Tensor(np.ones(3), requires_grad=True)}
        for i, grad in enumerate(grads):
            params[f"p{i}"] = Tensor(np.zeros_like(grad), requires_grad=True)
            params[f"p{i}"].grad = np.array(grad, dtype=np.float32)
        return params

    @staticmethod
    def _norm(params):
        return math.sqrt(sum(float(np.square(p.grad, dtype=np.float64).sum())
                             for p in params.values() if p.grad is not None))

    def test_clipped_norm_equals_max_norm(self):
        rng = np.random.default_rng(0)
        params = self._params(rng.normal(size=(4, 3)) * 10, rng.normal(size=5) * 10)
        before = self._norm(params)
        assert clip_gradients(params, 1.5) == before > 1.5
        assert abs(self._norm(params) - 1.5) <= 1e-6
        assert params["no_grad"].grad is None

    def test_norm_within_max_is_left_untouched(self):
        rng = np.random.default_rng(1)
        params = self._params(rng.normal(size=(4, 3)), rng.normal(size=5))
        grads = [p.grad.copy() for p in params.values() if p.grad is not None]
        norm = clip_gradients(params, self._norm(params) * 2)
        assert norm == self._norm(params)
        for p, grad in zip((p for p in params.values() if p.grad is not None), grads):
            assert p.grad.tobytes() == grad.tobytes()

    def test_float32_squares_do_not_overflow(self):
        params = self._params(np.full(4, 2e19))   # norm 4e19; each square 4e38 > float32 max
        assert clip_gradients(params, 1.0) == pytest.approx(4e19, rel=1e-6)
        assert np.isfinite(params["p0"].grad).all()
        assert abs(self._norm(params) - 1.0) <= 1e-6

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_gradient_is_a_training_error(self, bad):
        params = self._params([1.0, bad, 2.0])
        with pytest.raises(TrainingError, match="gradient norm"):
            clip_gradients(params, 1.0)

    @pytest.mark.parametrize("grad_clip", [0.0, -1.0, math.nan, math.inf])
    def test_config_rejects_a_clip_that_is_not_positive_and_finite(self, grad_clip):
        with pytest.raises(ConfigError, match="grad_clip"):
            TrainConfig(grad_clip=grad_clip)
        assert TrainConfig(grad_clip=0.5).grad_clip == 0.5
        assert TrainConfig().grad_clip is None


class TestTrainConfig:
    @pytest.mark.parametrize("learning_rate", [math.nan, math.inf, -1.0, 0.0])
    def test_rejects_a_learning_rate_that_is_not_positive_and_finite(self, learning_rate):
        with pytest.raises(ConfigError, match="learning_rate"):
            TrainConfig(learning_rate=learning_rate)
        assert TrainConfig(learning_rate=0.5).learning_rate == 0.5


class TestShuffling:
    def test_epoch_order_is_permutation(self):
        for epoch in range(5):
            order = epoch_order(37, epoch, seed=4)
            assert sorted(order.tolist()) == list(range(37))

    def test_orders_differ_across_epochs_and_match_across_runs(self):
        a = [epoch_order(20, e, seed=9).tolist() for e in range(4)]
        b = [epoch_order(20, e, seed=9).tolist() for e in range(4)]
        assert a == b
        assert len({tuple(o) for o in a}) > 1


class TestFit:
    def _fit_once(self, dropout=0.1, epochs=3, seed=5):
        _, _, _, cfg, examples = tiny_setup(dropout=dropout)
        params = init_parameters(cfg, seed=seed)
        train_cfg = TrainConfig(batch_size=4, learning_rate=1e-3, epochs=epochs,
                                seed=seed, patience=None)
        log = fit(examples[:12], examples[12:16], params, cfg, train_cfg)
        return log, params, cfg

    def test_fixed_seed_reproduces_trajectory(self):
        log_a, _, _ = self._fit_once()
        log_b, _, _ = self._fit_once()
        assert log_a.trajectory() == log_b.trajectory()

    def test_trajectory_matches_per_tensor_adam(self, monkeypatch):
        """Flat-buffer Adam and gradients written straight into their slots
        change no bit of a 3-epoch fit: dropout 0.1, two decoder blocks,
        desk width."""
        import dataclasses

        import cxrgen.training
        from cxrgen.checkpoint import parameter_checksum

        _, _, _, cfg, examples = tiny_setup(d_model=32, dropout=0.1)
        cfg = dataclasses.replace(cfg, n_decoder_blocks=2)
        train_cfg = TrainConfig(batch_size=4, learning_rate=1e-2, epochs=3, seed=3,
                                patience=None)

        def run():
            params = init_parameters(cfg, seed=3)
            log = fit(examples[:12], examples[12:16], params, cfg, train_cfg)
            return log.trajectory(), parameter_checksum(params, cfg)

        flat = run()
        monkeypatch.setattr(cxrgen.training, "Adam", PerTensorAdam)
        assert run() == flat

    @staticmethod
    def _state(params, optimizer):
        """Every parameter and both moments, as bytes: tobytes tells -0.0
        from +0.0, which array equality does not."""
        m, v = adam_moments(optimizer)
        return [array.tobytes() for array in (*(p.data for p in params.values()),
                                             *m.values(), *v.values())]

    def test_paper_scale_steps_match_per_tensor_adam(self):
        """Two ``ModelConfig()`` steps with dropout 0.1 leave the parameters
        and moments of the slot-writing flat Adam byte-equal to those of the
        per-tensor optimizer, whose gradients are fresh arrays."""
        cfg = ModelConfig()
        assert cfg.dropout_rate == 0.1
        rng = np.random.default_rng(8)
        batch = []
        for i in range(4):
            words = rng.integers(4, cfg.vocab_size, size=cfg.max_len - 2 - i)
            ids = np.concatenate([[START_ID], words, [END_ID], np.full(i, PAD_ID)])
            batch.append(EncodedExample(f"p{i}", rng.normal(size=cfg.feature_dim),
                                        rng.random(cfg.demographic_dim), ids.astype(np.int64)))
        initial = init_parameters(cfg, seed=8)
        states = []
        for optimizer_class in (Adam, PerTensorAdam):
            params = {name: Tensor(p.data.copy(), requires_grad=True)
                      for name, p in initial.items()}
            optimizer = optimizer_class(params, lr=3e-4)
            dropout_rng = np.random.default_rng(9)
            for _ in range(2):
                train_step(batch, params, optimizer, cfg, rng=dropout_rng)
            states.append(self._state(params, optimizer))
        assert states[0] == states[1]

    def test_image_only_fit_matches_per_tensor_adam(self, monkeypatch):
        """A 3-epoch image-only desk fit with dropout 0.1: the same
        parameter and moment bytes under both optimizers."""
        import cxrgen.training

        points, vocab, codec, cfg, _ = tiny_setup(d_model=32, dropout=0.1)
        cfg = replace(cfg, demographic_dim=0)
        examples = encode_examples(points, vocab, codec, cfg)
        train_cfg = TrainConfig(batch_size=4, learning_rate=1e-2, epochs=3, seed=3,
                                patience=None)
        states = []
        for optimizer_class in (Adam, PerTensorAdam):
            built = []

            def recording(params, lr, optimizer_class=optimizer_class, built=built):
                built.append(optimizer_class(params, lr=lr))
                return built[-1]

            monkeypatch.setattr(cxrgen.training, "Adam", recording)
            params = init_parameters(cfg, seed=3)
            fit(examples[:12], examples[12:16], params, cfg, train_cfg)
            states.append(self._state(params, built[0]))
        assert states[0] == states[1]

    def test_nan_in_unwritten_slots_changes_no_bit_of_a_step(self):
        """``zero_grad`` leaves the gradient buffer as the last step left it,
        so each slot is written before it is read: two desk steps with
        dropout 0.1 after NaN-filling every slot at each ``zero_grad`` leave
        the parameters and moments byte-equal to unpoisoned steps."""
        _, _, _, cfg, examples = tiny_setup(d_model=32, dropout=0.1)

        class PoisonedAdam(Adam):
            def zero_grad(self):
                super().zero_grad()
                for _, p, *_ in self._slots:
                    p.grad_slot.fill(np.nan)

        states = []
        for optimizer_class in (PoisonedAdam, Adam):
            params = init_parameters(cfg, seed=3)
            optimizer = optimizer_class(params, lr=1e-2)
            dropout_rng = np.random.default_rng(4)
            for start in (0, 4):
                train_step(examples[start:start + 4], params, optimizer, cfg, rng=dropout_rng)
            states.append(self._state(params, optimizer))
        assert states[0] == states[1]

    def test_validation_is_pure(self):
        _, _, _, cfg, examples = tiny_setup(dropout=0.3)
        params = init_parameters(cfg, seed=0)
        a = evaluate_loss(examples[:4], params, cfg, batch_size=64)
        b = evaluate_loss(examples[:4], params, cfg, batch_size=64)
        assert a == b

    def test_best_checkpoint_is_minimum_validation(self):
        _, _, _, cfg, examples = tiny_setup()
        params = init_parameters(cfg, seed=1)
        train_cfg = TrainConfig(batch_size=4, learning_rate=3e-3, epochs=5, seed=1,
                                patience=None)
        log = fit(examples[:12], examples[12:16], params, cfg, train_cfg)
        val_losses = [r.val_loss for r in log.records]
        assert log.best_val_loss == min(val_losses)
        assert log.best_epoch == int(np.argmin(val_losses))
        from cxrgen.checkpoint import parameter_checksum
        assert parameter_checksum(params, cfg) == log.records[log.best_epoch].param_checksum

    def test_train_command_saves_the_best_epoch(self, tmp_path):
        """`cxrgen train` writes `best` from the parameters fit restores: the
        checkpoint's checksum is that of the minimum-validation-loss epoch in
        trainlog.jsonl, here not the last epoch."""
        import json
        from cxrgen.checkpoint import load_checkpoint, parameter_checksum
        from cxrgen.cli import main
        assert main(["synth-data", "--out", str(tmp_path / "corpus"), "--seed", "7",
                     "--n-per-stratum", "4", "--feature-dim", "8"]) == 0
        assert main(["prepare-data", "--data", str(tmp_path / "corpus" / "dataset.jsonl"),
                     "--out", str(tmp_path / "prep"), "--seed", "3", "--subset-size", "24",
                     "--vocab-cap", "64"]) == 0
        run = tmp_path / "run"
        assert main(["train", "--data", str(tmp_path / "prep"), "--out", str(run),
                     "--d-model", "16", "--n-heads", "2", "--max-len", "24",
                     "--dropout", "0.0", "--batch-size", "8", "--learning-rate", "0.1",
                     "--epochs", "4", "--seed", "1"]) == 0
        records = [json.loads(line) for line in (run / "trainlog.jsonl").read_text().splitlines()]
        best = min(range(len(records)), key=lambda i: records[i]["val_loss"])
        assert best != len(records) - 1
        params, cfg = load_checkpoint(run / "best")
        assert parameter_checksum(params, cfg) == records[best]["param_checksum"]

    def test_restore_best_puts_best_weights_in_params(self):
        log, params, cfg = self._fit_once(dropout=0.0, epochs=4)
        from cxrgen.checkpoint import parameter_checksum
        assert parameter_checksum(params, cfg) == log.records[log.best_epoch].param_checksum

    def test_early_stopping_respects_patience(self):
        _, _, _, cfg, examples = tiny_setup()
        params = init_parameters(cfg, seed=2)
        # learning rate so large the model degrades immediately
        train_cfg = TrainConfig(batch_size=4, learning_rate=0.5, epochs=30, seed=2,
                                patience=2)
        log = fit(examples[:12], examples[12:16], params, cfg, train_cfg)
        assert len(log.records) < 30

    def test_no_finite_validation_loss_raises(self):
        """NaN validation features give a NaN validation loss every epoch, so
        there is no best epoch: fit raises instead of reporting one."""
        _, _, _, cfg, examples = tiny_setup()
        val = [EncodedExample(ex.id, np.full_like(ex.features, np.nan), ex.demo, ex.ids)
               for ex in examples[12:16]]
        params = init_parameters(cfg, seed=0)
        train_cfg = TrainConfig(batch_size=4, learning_rate=1e-3, epochs=3, seed=0,
                                patience=None)
        with pytest.raises(TrainingError, match="finite validation loss"):
            fit(examples[:12], val, params, cfg, train_cfg)

    def test_empty_splits_rejected(self):
        _, _, _, cfg, examples = tiny_setup()
        params = init_parameters(cfg, seed=0)
        train_cfg = TrainConfig(batch_size=2, epochs=1)
        with pytest.raises(ConfigError):
            fit([], examples[:2], params, cfg, train_cfg)
        with pytest.raises(ConfigError):
            fit(examples[:2], [], params, cfg, train_cfg)

    def test_loss_drops_on_small_corpus(self):
        _, _, _, cfg, examples = tiny_setup(n_per_stratum=2)
        params = init_parameters(cfg, seed=0)
        before = evaluate_loss(examples, params, cfg, batch_size=64)
        train_cfg = TrainConfig(batch_size=8, learning_rate=1e-2, epochs=20, seed=0,
                                patience=None)
        fit(examples, examples, params, cfg, train_cfg)
        after = evaluate_loss(examples, params, cfg, batch_size=64)
        assert after < before * 0.5

    def test_log_jsonl_round_trip(self, tmp_path):
        _, _, _, cfg, examples = tiny_setup()
        params = init_parameters(cfg, seed=0)
        log_path = tmp_path / "log.jsonl"
        train_cfg = TrainConfig(batch_size=8, learning_rate=1e-3, epochs=2, seed=0,
                                patience=None)
        log = fit(examples[:8], examples[8:12], params, cfg, train_cfg,
                  log_path=log_path)
        import json
        lines = [json.loads(l) for l in log_path.read_text().splitlines()]
        assert len(lines) == len(log.records)
        assert lines[0]["epoch"] == 0
        assert lines[-1]["param_checksum"] == log.records[-1].param_checksum
