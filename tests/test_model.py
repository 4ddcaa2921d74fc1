"""Network forward passes against straight-line numpy re-compositions,
shape closure across configs, causal masking, and seeded generation."""

from dataclasses import replace

import numpy as np
import pytest

from cxrgen import model, tensor as T
from cxrgen.errors import ConfigError, ContractError, ShapeError
from cxrgen.model import (MAX_D_MODEL, MAX_DECODER_BLOCKS, DecodeCache, ModelConfig,
                          check_parameters, decoder_forward, encode_inputs, generate,
                          init_parameters, join_heads, parameter_shapes)
from cxrgen.tensor import Tensor
from cxrgen.text import END_ID, PAD_ID, START_ID
from cxrgen.training import EncodedExample, batch_loss

from oracles import (add, full_prefix_generate, full_softmax_mha, gather_rows, head_block,
                     per_head_forward, per_head_init, per_head_shapes, relu, split_heads)

TINY = ModelConfig(feature_dim=10, d_model=16, d_embed=16, n_heads=2, vocab_size=20,
                   max_len=8, demographic_dim=7, n_decoder_blocks=1, dropout_rate=0.0)
# an image-only model: its encoder is the visual unit alone
TINY_IMAGE = replace(TINY, demographic_dim=0)
# the criterion-5 desk model
DESK = ModelConfig(feature_dim=24, d_model=32, d_embed=32, n_heads=2, vocab_size=96,
                   max_len=24, demographic_dim=7, dropout_rate=0.0)


# -- straight-line numpy mirror (no Tensor/tape machinery) -------------------

def np_layer_norm(x, gain, bias, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gain + bias


def full_attention_weights(params, cfg, rng):
    """Parameter arrays plus random query/key weights for every single-key
    attention block, which the model evaluates in closed form without them."""
    weights = {name: tensor.data for name, tensor in params.items()}
    for name in list(weights):
        if name.endswith(".wv") and name[:-2] + "wq" not in weights:
            for role in ("wq", "wk"):
                weights[name[:-2] + role] = rng.normal(
                    size=(cfg.d_model, cfg.d_model)).astype(np.float32)
    return weights


def np_visual_encode(features, w, cfg):
    x = np.asarray(features, dtype=np.float32)[None, :]
    x = np_layer_norm(x, w["visual.feat_norm.gain"], w["visual.feat_norm.bias"])
    h = np.maximum(x @ w["visual.ff.w"] + w["visual.ff.b"], 0)
    attended = full_softmax_mha(w, "visual.attn", cfg.n_heads, h, h)
    return np_layer_norm(h + attended, w["visual.norm.gain"], w["visual.norm.bias"])


def np_encode(features, demo, w, cfg):
    """The visual unit, the semantic unit and the fusion block, each
    attention computed as a full softmax over its keys."""
    visual = np_visual_encode(features, w, cfg)
    semantic = np.asarray(demo, dtype=np.float32)[None, :] @ w["semantic.fc.w"] \
        + w["semantic.fc.b"]
    attended = full_softmax_mha(w, "fusion.attn", cfg.n_heads, visual, semantic)
    return np_layer_norm(visual + attended, w["fusion.norm.gain"], w["fusion.norm.bias"])


def np_decoder_forward(ids, hybrid, w, cfg):
    """The decoder with every attention block, cross-attention included,
    computed as a full softmax over its keys."""
    length = len(ids)
    x = w["embed.table"][ids] + T.sinusoidal_positions(length, cfg.d_embed,
                                                       w["embed.table"].dtype)
    causal = np.tril(np.ones((length, length), dtype=bool))
    for i in range(cfg.n_decoder_blocks):
        attended = full_softmax_mha(w, f"dec{i}.self_attn", cfg.n_heads, x, x, causal)
        x = np_layer_norm(x + attended, w[f"dec{i}.norm1.gain"], w[f"dec{i}.norm1.bias"])
        cross = full_softmax_mha(w, f"dec{i}.cross_attn", cfg.n_heads, x, hybrid)
        x = np_layer_norm(x + cross, w[f"dec{i}.norm2.gain"], w[f"dec{i}.norm2.bias"])
        x = x + np.maximum(x @ w[f"dec{i}.ff.w"] + w[f"dec{i}.ff.b"], 0)
    return x @ w["classifier.w"] + w["classifier.b"]


class TestParameters:
    def test_shapes_closed_and_complete(self):
        shapes = parameter_shapes(TINY)
        params = init_parameters(TINY, seed=0)
        assert list(params) == list(shapes)
        for name, shape in shapes.items():
            assert tuple(params[name].shape) == shape
        check_parameters(params, TINY)

    def test_baseline_config_drops_semantic_parameters(self):
        baseline = ModelConfig(feature_dim=10, d_model=16, d_embed=16, n_heads=2,
                               vocab_size=20, max_len=8, demographic_dim=0)
        names = parameter_shapes(baseline)
        assert not any(n.startswith(("semantic.", "fusion.")) for n in names)

    def test_check_parameters_catches_drift(self):
        params = init_parameters(TINY, seed=0)
        del params["classifier.b"]
        with pytest.raises(ContractError):
            check_parameters(params, TINY)

    def test_seeded_init_reproducible(self):
        a = init_parameters(TINY, seed=5)
        b = init_parameters(TINY, seed=5)
        for name in a:
            np.testing.assert_array_equal(a[name].data, b[name].data)

    @pytest.mark.parametrize("cfg", [TINY, ModelConfig()], ids=["tiny", "paper"])
    def test_init_joins_the_per_head_draws_bit_for_bit(self, cfg):
        params = init_parameters(cfg, seed=7)
        per_head = per_head_init(cfg, seed=7)
        for name, tensor in params.items():
            prefix, _, role = name.rpartition(".")
            if role in model.ATTENTION_ROLES:
                expected = join_heads(role, [per_head[f"{prefix}.h{h}.{role}"]
                                             for h in range(cfg.n_heads)])
            else:
                expected = per_head[name]
            assert tensor.data.dtype == expected.dtype
            assert np.array_equal(tensor.data, expected), name

    def test_paper_scale_counts(self):
        cfg = ModelConfig()
        shapes = parameter_shapes(cfg)
        assert len(shapes) == 33
        assert len(per_head_shapes(cfg)) == 103
        assert sum(np.prod(shape) for shape in shapes.values()) == 5_820_068

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(d_model=30, n_heads=4)
        with pytest.raises(ConfigError):
            ModelConfig(d_model=32, d_embed=64, n_heads=4)
        with pytest.raises(ConfigError):
            ModelConfig(dropout_rate=1.0)
        with pytest.raises(ConfigError,
                           match=rf"n_decoder_blocks must be in \[1, {MAX_DECODER_BLOCKS}\]"):
            ModelConfig(n_decoder_blocks=MAX_DECODER_BLOCKS + 1)
        wide = MAX_D_MODEL + ModelConfig().n_heads
        with pytest.raises(ConfigError, match=rf"d_model must be in \[1, {MAX_D_MODEL}\]"):
            ModelConfig(d_model=wide, d_embed=wide)
        # the caps themselves are allowed
        ModelConfig(d_model=MAX_D_MODEL, d_embed=MAX_D_MODEL, n_decoder_blocks=MAX_DECODER_BLOCKS)

    @pytest.mark.parametrize("field, least", [
        ("feature_dim", 1), ("n_heads", 1), ("vocab_size", 5), ("max_len", 3),
        ("demographic_dim", 0), ("n_decoder_blocks", 1)])
    def test_each_size_has_its_least_value(self, field, least):
        """The vocabulary covers the four reserved ids and one word, a
        sequence a start id, a word and an end id; an image-only model takes
        no demographic input."""
        replace(ModelConfig(), **{field: least})
        with pytest.raises(ConfigError, match=rf"{field} must be in \[{least}, "):
            replace(ModelConfig(), **{field: least - 1})

    @pytest.mark.parametrize("field, value", [
        ("d_model", 512.0), ("n_heads", True), ("max_len", float("nan")),
        ("demographic_dim", np.int64(7)), ("n_decoder_blocks", 1.5),
        ("dropout_rate", False), ("dropout_rate", "0.1"), ("dropout_rate", None)])
    def test_a_value_of_the_wrong_type_is_rejected(self, field, value):
        """A checkpoint's config comes from JSON, where true equals 1 and 16.0
        equals 16 in Python: each size must be an int, and the dropout rate
        an int or float that is not a bool."""
        with pytest.raises(ConfigError, match=field):
            replace(ModelConfig(), **{field: value})


class TestVisualUnit:
    """The visual unit, as the whole encoder of an image-only model."""

    def test_zero_features_zero_biases_give_zero(self):
        params = init_parameters(TINY_IMAGE, seed=1)
        out = encode_inputs(np.zeros(10), None, params, TINY_IMAGE)
        np.testing.assert_array_equal(out.data, np.zeros((1, 16)))

    def test_output_shape_is_one_by_dense_dim_for_default_config(self):
        cfg = ModelConfig(demographic_dim=0)
        params = init_parameters(cfg, seed=0)
        rng = np.random.default_rng(2)
        out = encode_inputs(rng.normal(size=1280), None, params, cfg)
        assert tuple(out.shape) == (1, 512)

    def test_matches_straight_line_forward_oracle(self):
        params = init_parameters(TINY_IMAGE, seed=9)
        rng = np.random.default_rng(3)
        features = rng.normal(size=10)
        out = encode_inputs(features, None, params, TINY_IMAGE)
        expected = np_visual_encode(features, full_attention_weights(params, TINY_IMAGE, rng),
                                    TINY_IMAGE)
        np.testing.assert_allclose(out.data, expected, rtol=1e-5, atol=1e-6)

    def test_wrong_feature_length(self):
        params = init_parameters(TINY_IMAGE, seed=0)
        with pytest.raises(ShapeError):
            encode_inputs(np.zeros(11), None, params, TINY_IMAGE)


class TestSemanticUnit:
    """The semantic unit's output row, recorded from its layer inside
    ``encode_inputs``, and the hybrid row that the fusion block makes of it."""

    @staticmethod
    def _semantic_row(monkeypatch, demo, params, cfg=TINY):
        """The [1 x d_model] output of the semantic unit's layer for ``demo``."""
        linear, rows = T.linear, []

        def recording_linear(x, w, b, relu=False):
            out = linear(x, w, b, relu=relu)
            if w is params["semantic.fc.w"]:
                rows.append(out.data)
            return out

        monkeypatch.setattr(T, "linear", recording_linear)
        features = np.random.default_rng(1).normal(size=cfg.feature_dim)
        encode_inputs(features, demo, params, cfg)
        assert len(rows) == 1
        return rows[0]

    def test_zero_vector_zero_bias_gives_zero(self, monkeypatch):
        params = init_parameters(TINY, seed=0)
        out = self._semantic_row(monkeypatch, np.zeros(7), params)
        np.testing.assert_array_equal(out, np.zeros((1, 16)))

    def test_one_hot_selects_weight_column(self, monkeypatch):
        params = init_parameters(TINY, seed=4)
        demo = np.zeros(7)
        demo[3] = 1.0
        out = self._semantic_row(monkeypatch, demo, params)
        np.testing.assert_allclose(out[0], params["semantic.fc.w"].data[3], rtol=1e-6)

    def test_matches_matvec_oracle(self, monkeypatch):
        params = init_parameters(TINY, seed=4)
        rng = np.random.default_rng(8)
        demo = rng.normal(size=7)
        out = self._semantic_row(monkeypatch, demo, params)
        expected = demo.astype(np.float32) @ params["semantic.fc.w"].data \
            + params["semantic.fc.b"].data
        np.testing.assert_allclose(out[0], expected, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("demo", [np.zeros(7), np.eye(7)[3],
                                      np.random.default_rng(8).normal(size=7)],
                             ids=["zero", "one-hot", "random"])
    def test_matches_matvec_and_fusion_oracle(self, demo):
        params = init_parameters(TINY, seed=4)
        rng = np.random.default_rng(8)
        features = rng.normal(size=10)
        out = encode_inputs(features, demo, params, TINY)
        expected = np_encode(features, demo, full_attention_weights(params, TINY, rng), TINY)
        np.testing.assert_allclose(out.data, expected, rtol=1e-5, atol=1e-6)

    def test_wrong_length(self):
        params = init_parameters(TINY, seed=0)
        with pytest.raises(ShapeError, match="demographic vectors"):
            encode_inputs(np.zeros(10), np.zeros(6), params, TINY)


class TestFusion:
    def test_single_key_attention_weight_is_one(self):
        """With one semantic row, each head's attention weight is exactly 1,
        so the closed form matches full softmax attention whatever the
        query/key weights."""
        params = init_parameters(TINY, seed=6)
        rng = np.random.default_rng(6)
        features, demo = rng.normal(size=(2, 10)), rng.normal(size=(2, 7))
        out = encode_inputs(features, demo, params, TINY)
        w = full_attention_weights(params, TINY, rng)
        for row in range(2):
            expected = np_encode(features[row], demo[row], w, TINY)
            np.testing.assert_allclose(out.data[row:row + 1], expected, rtol=1e-5, atol=1e-6)

    def test_output_shape_default_config(self):
        cfg = ModelConfig()
        params = init_parameters(cfg, seed=0)
        rng = np.random.default_rng(1)
        out = encode_inputs(rng.normal(size=1280), rng.random(7), params, cfg)
        assert tuple(out.shape) == (1, 512)

    def test_demographic_sensitivity_over_seeds(self):
        """Distinct demographic vectors give distinct hybrids for random
        nonzero parameters, checked over 100 seeds."""
        rng = np.random.default_rng(0)
        distinct = 0
        for seed in range(100):
            params = init_parameters(TINY, seed=seed)
            features = rng.normal(size=10)
            demo_a = np.zeros(7)
            demo_a[2] = 1.0
            demo_b = demo_a.copy()
            demo_b[1] = 0.7
            out_a = encode_inputs(features, demo_a, params, TINY)
            out_b = encode_inputs(features, demo_b, params, TINY)
            if float(np.linalg.norm(out_a.data - out_b.data)) > 0:
                distinct += 1
        assert distinct == 100

    def test_row_count_mismatch(self):
        params = init_parameters(TINY, seed=0)
        with pytest.raises(ShapeError, match="fusion expects"):
            encode_inputs(np.zeros((1, 10)), np.zeros((2, 7)), params, TINY)


class TestDecoder:
    def _hybrid(self, params, cfg, seed=0):
        rng = np.random.default_rng(seed)
        return encode_inputs(rng.normal(size=cfg.feature_dim),
                             np.eye(cfg.demographic_dim)[0], params, cfg)

    def test_logits_shape_default_vocab(self):
        cfg = ModelConfig()
        params = init_parameters(cfg, seed=0)
        rng = np.random.default_rng(0)
        hybrid = encode_inputs(rng.normal(size=1280), np.eye(7)[0], params, cfg)
        logits = decoder_forward([[START_ID, 5, 9]], hybrid, params, cfg)
        assert tuple(logits.shape) == (3, 2212)

    def test_causal_invariance_bit_exact(self):
        params = init_parameters(TINY, seed=3)
        hybrid = self._hybrid(params, TINY)
        rng = np.random.default_rng(10)
        base = rng.integers(4, TINY.vocab_size, size=6)
        base_logits = decoder_forward(base[None], hybrid, params, TINY).data
        for t in range(5):
            for _ in range(3):
                perturbed = base.copy()
                j = rng.integers(t + 1, 6)
                perturbed[j] = rng.integers(4, TINY.vocab_size)
                new_logits = decoder_forward(perturbed[None], hybrid, params, TINY).data
                assert np.array_equal(new_logits[: t + 1], base_logits[: t + 1])

    def test_single_token_matches_primitive_composition(self):
        """T=1: each self-attention head reduces to its projected value row;
        rebuild the whole forward from tensor-core primitives."""
        params = init_parameters(TINY, seed=12)
        hybrid = self._hybrid(params, TINY, seed=12)
        ids = [START_ID]
        logits = decoder_forward([ids], hybrid, params, TINY)

        x = gather_rows(params["embed.table"], ids)
        x = add(x, Tensor(T.sinusoidal_positions(1, TINY.d_embed, np.float32)))

        def heads_summed(prefix, rows):
            out = None
            for h in range(TINY.n_heads):
                wv, wo = (Tensor(head_block(params[f"{prefix}.{role}"].data, role, h,
                                            TINY.n_heads)) for role in ("wv", "wo"))
                proj = T.matmul(T.matmul(rows, wv), wo)
                out = proj if out is None else add(out, proj)
            return add(out, params[f"{prefix}.bo"])

        sa = heads_summed("dec0.self_attn", x)
        x = T.layer_norm(add(x, sa), params["dec0.norm1.gain"], params["dec0.norm1.bias"])
        ca = heads_summed("dec0.cross_attn", hybrid)
        x = T.layer_norm(add(x, ca), params["dec0.norm2.gain"], params["dec0.norm2.bias"])
        ff = relu(add(T.matmul(x, params["dec0.ff.w"]), params["dec0.ff.b"]))
        x = add(x, ff)
        expected = add(T.matmul(x, params["classifier.w"]), params["classifier.b"])
        np.testing.assert_allclose(logits.data, expected.data, rtol=1e-5, atol=1e-6)

    def test_multi_token_matches_full_softmax_attention_oracle(self):
        cfg = replace(TINY, n_decoder_blocks=2)
        params = init_parameters(cfg, seed=5)
        hybrid = self._hybrid(params, cfg, seed=5)
        rng = np.random.default_rng(13)
        ids = np.concatenate([[START_ID], rng.integers(4, cfg.vocab_size, size=6)])
        logits = decoder_forward(ids[None], hybrid, params, cfg)
        expected = np_decoder_forward(ids, hybrid.data,
                                      full_attention_weights(params, cfg, rng), cfg)
        np.testing.assert_allclose(logits.data, expected, rtol=1e-5, atol=1e-6)

    def test_id_out_of_range_rejected(self):
        params = init_parameters(TINY, seed=0)
        hybrid = self._hybrid(params, TINY)
        with pytest.raises(ContractError, match="out of range"):
            decoder_forward([[0, 25]], hybrid, params, TINY)

    def test_ids_that_are_not_a_batch_are_a_shape_error(self):
        """The decoder takes [B x L] ids only: one sequence is [1 x L]."""
        params = init_parameters(TINY, seed=0)
        hybrid = self._hybrid(params, TINY)
        for ids in ([START_ID, 4], [[[START_ID, 4]]]):
            with pytest.raises(ShapeError, match=r"\[B x L\]"):
                decoder_forward(ids, hybrid, params, TINY)

    def test_sequence_too_long_rejected(self):
        params = init_parameters(TINY, seed=0)
        hybrid = self._hybrid(params, TINY)
        with pytest.raises(ContractError, match="exceeds the maximum"):
            decoder_forward([[START_ID] * 9], hybrid, params, TINY)

    def test_shape_closure_sweep(self):
        """Construct + forward for heads in {1,2,4,8} x d_model in {32,64,512}."""
        for n_heads in (1, 2, 4, 8):
            for d_model in (32, 64, 512):
                cfg = ModelConfig(feature_dim=12, d_model=d_model, d_embed=d_model,
                                  n_heads=n_heads, vocab_size=30, max_len=6,
                                  demographic_dim=4, dropout_rate=0.0)
                params = init_parameters(cfg, seed=0)
                hybrid = encode_inputs(np.ones(12), np.eye(4)[1], params, cfg)
                logits = decoder_forward([[START_ID, 4, 5]], hybrid, params, cfg)
                assert tuple(logits.shape) == (3, 30)

    def test_multi_block_decoder_runs(self):
        cfg = ModelConfig(feature_dim=6, d_model=8, d_embed=8, n_heads=2, vocab_size=12,
                          max_len=6, demographic_dim=3, n_decoder_blocks=3,
                          dropout_rate=0.0)
        params = init_parameters(cfg, seed=0)
        hybrid = encode_inputs(np.ones(6), np.eye(3)[0], params, cfg)
        logits = decoder_forward([[START_ID, 4]], hybrid, params, cfg)
        assert tuple(logits.shape) == (2, 12)


class TestGenerate:
    def _setup(self, seed=0):
        params = init_parameters(TINY, seed=seed)
        rng = np.random.default_rng(seed)
        return params, rng.normal(size=10), np.eye(7)[2]

    def test_greedy_is_deterministic_across_calls(self):
        params, features, demo = self._setup()
        a = generate(features, demo, params, TINY, temperature=0.0, seed=1)
        b = generate(features, demo, params, TINY, temperature=0.0, seed=99)
        assert a == b

    def test_fixed_seed_sampling_is_deterministic(self):
        params, features, demo = self._setup()
        a = generate(features, demo, params, TINY, temperature=0.5, seed=7)
        b = generate(features, demo, params, TINY, temperature=0.5, seed=7)
        assert a == b

    def test_seeds_can_change_samples(self):
        params, features, demo = self._setup()
        outputs = {tuple(generate(features, demo, params, TINY, temperature=2.0, seed=s))
                   for s in range(8)}
        assert len(outputs) > 1

    def test_length_never_exceeds_max_len(self):
        params, features, demo = self._setup()
        for seed in range(5):
            out = generate(features, demo, params, TINY, temperature=1.5, seed=seed)
            assert 1 <= len(out) <= TINY.max_len

    def test_stops_at_end_id(self):
        params, features, demo = self._setup()
        out = generate(features, demo, params, TINY, temperature=0.8, seed=3)
        if END_ID in out:
            assert out.index(END_ID) == len(out) - 1

    def test_negative_temperature_rejected(self):
        params, features, demo = self._setup()
        with pytest.raises(ContractError):
            generate(features, demo, params, TINY, temperature=-0.1, seed=0)

    @pytest.mark.parametrize("temperature", [1e-30, 1e-300, 5e-324])
    def test_tiny_temperature_samples_the_argmax(self, temperature):
        params, features, demo = self._setup()
        greedy = generate(features, demo, params, TINY, temperature=0.0)
        assert generate(features, demo, params, TINY, temperature=temperature, seed=3) == greedy

    @pytest.mark.parametrize("temperature", [float("nan"), float("inf")])
    def test_non_finite_temperature_rejected(self, temperature):
        params, features, demo = self._setup()
        with pytest.raises(ContractError, match="finite"):
            generate(features, demo, params, TINY, temperature=temperature, seed=0)

    @pytest.mark.parametrize("cfg", [TINY, DESK], ids=["tiny", "desk"])
    def test_a_draw_past_the_rounded_total_takes_the_last_possible_id(self, cfg,
                                                                        monkeypatch):
        """The float32 cumulative total can fall short of a draw just below 1;
        the id drawn then is the last of positive probability, never one of
        probability 0."""
        params = init_parameters(cfg, seed=0)
        params["classifier.b"].data[-1] = -1e4   # id V-1 has probability 0
        features = np.random.default_rng(0).normal(size=cfg.feature_dim)

        class TopDraw:
            def __init__(self, seed):
                pass

            def random(self):
                return 1.0 - 2.0 ** -53

        monkeypatch.setattr(np.random, "default_rng", TopDraw)
        ids = generate(features, np.eye(7)[1], params, cfg, temperature=0.5)
        assert len(ids) == cfg.max_len and cfg.vocab_size - 1 not in ids
        assert ids == full_prefix_generate(features, np.eye(7)[1], params, cfg)

    def test_baseline_model_generates_without_demographics(self):
        cfg = ModelConfig(feature_dim=10, d_model=16, d_embed=16, n_heads=2,
                          vocab_size=20, max_len=8, demographic_dim=0,
                          dropout_rate=0.0)
        params = init_parameters(cfg, seed=0)
        out = generate(np.ones(10), None, params, cfg, temperature=0.0, seed=0)
        assert 1 <= len(out) <= cfg.max_len


class TestArrayEncoder:
    """``generate``'s encoder on plain arrays against ``encode_inputs``."""

    @pytest.mark.parametrize("cfg", [TINY, DESK, ModelConfig()], ids=["tiny", "desk", "paper"])
    @pytest.mark.parametrize("demographic_dim", [7, 0], ids=["demo", "base"])
    @pytest.mark.parametrize("n_rows", [None, 3], ids=["vector", "rows"])
    def test_matches_encode_inputs_bit_for_bit(self, cfg, demographic_dim, n_rows):
        cfg = replace(cfg, demographic_dim=demographic_dim)
        params = init_parameters(cfg, seed=5)
        rng = np.random.default_rng(5)
        rows = () if n_rows is None else (n_rows,)
        features = rng.normal(size=(*rows, cfg.feature_dim)) * 3.0
        demo = rng.random((*rows, 7)) if demographic_dim else None
        expected = encode_inputs(features, demo, params, cfg).data
        assert np.array_equal(model._encode_arrays(features, demo, params, cfg), expected)

    def test_keeps_encode_inputs_checks(self):
        params = init_parameters(TINY, seed=0)
        features, demo = np.ones((2, TINY.feature_dim)), np.eye(7)[:3]
        for encode in (encode_inputs, model._encode_arrays):
            with pytest.raises(ShapeError, match="fusion expects"):
                encode(features, demo, params, TINY)
            with pytest.raises(ShapeError, match="image feature vectors"):
                encode(np.ones(TINY.feature_dim + 1), demo[0], params, TINY)
            with pytest.raises(ShapeError, match="demographic vectors"):
                encode(features[0], np.ones(6), params, TINY)
            with pytest.raises(ContractError, match="requires a demographic vector"):
                encode(features[0], None, params, TINY)


class TestDecodeCache:
    """Decoding one new position per call against the whole-prefix forward."""

    @staticmethod
    def _inputs(cfg, seed):
        params = init_parameters(cfg, seed=seed)
        rng = np.random.default_rng(seed)
        return params, rng.normal(size=cfg.feature_dim), np.eye(cfg.demographic_dim)[1]

    @staticmethod
    def _relative_error(got, ref):
        return float(np.abs(got - ref).max() / np.abs(ref).max())

    @pytest.mark.parametrize("cfg", [TINY, DESK, ModelConfig()], ids=["tiny", "desk", "paper"])
    @pytest.mark.parametrize("temperature", [0.0, 0.5])
    def test_generate_matches_full_prefix_oracle(self, cfg, temperature):
        params, features, demo = self._inputs(cfg, seed=2)
        ids = generate(features, demo, params, cfg, temperature=temperature, seed=5)
        assert ids == full_prefix_generate(features, demo, params, cfg,
                                           temperature=temperature, seed=5)
        if cfg == ModelConfig():
            assert len(ids) == cfg.max_len   # one full-length report

    @pytest.mark.parametrize("cfg", [DESK, replace(DESK, n_decoder_blocks=2), ModelConfig()],
                             ids=["desk", "desk-2-blocks", "paper"])
    def test_cached_logits_match_full_forward_with_a_pad(self, cfg):
        """Three sequences stepped one id at a time, one with a pad decoded
        mid-row and one ended by pads: each step's logits match the last
        row of ``decoder_forward`` on the whole prefix."""
        params, _, _ = self._inputs(cfg, seed=3)
        rng = np.random.default_rng(3)
        ids = np.concatenate([np.full((3, 1), START_ID),
                              rng.integers(4, cfg.vocab_size, size=(3, 11))], axis=1)
        ids[1, 5] = PAD_ID
        ids[2, 8:] = PAD_ID
        hybrid = encode_inputs(rng.normal(size=(3, cfg.feature_dim)),
                               np.eye(cfg.demographic_dim)[:3], params, cfg)
        cache = DecodeCache(hybrid.data, params, cfg)
        for t in range(ids.shape[1]):
            prefix = ids[:, :t + 1]
            reference = decoder_forward(prefix, hybrid, params, cfg).data.reshape(3, t + 1, -1)
            step = cache.step(ids[:, t])
            assert step.shape == (3, cfg.vocab_size)
            assert self._relative_error(step, reference[:, t]) <= 1e-5, t
            assert (cache.mask is not None) == (t >= 5)
        assert cache.length == ids.shape[1]

    def test_batched_cache_matches_full_forward(self):
        params, _, _ = self._inputs(DESK, seed=4)
        rng = np.random.default_rng(4)
        ids = np.concatenate([np.full((3, 1), START_ID),
                              rng.integers(4, DESK.vocab_size, size=(3, 7))], axis=1)
        ids[1, 3:] = PAD_ID
        ids[2, 2] = PAD_ID
        hybrid = encode_inputs(rng.normal(size=(3, DESK.feature_dim)),
                               np.eye(DESK.demographic_dim)[:3], params, DESK)
        reference = decoder_forward(ids, hybrid, params, DESK).data.reshape(3, 8, -1)
        cache = DecodeCache(hybrid.data, params, DESK)
        steps = [cache.step(ids[:, t]) for t in range(ids.shape[1])]
        assert self._relative_error(np.stack(steps, axis=1), reference) <= 1e-5
        with pytest.raises(ShapeError, match="holds 3 sequences"):
            cache.step(np.array([4]))

    def test_generated_pads_stay_masked_out(self):
        """With classifier.b rigged, greedy decoding emits <pad> until max_len;
        each cached step must score like the full forward, which masks pad keys."""
        params, features, demo = self._inputs(DESK, seed=6)
        params["classifier.b"].data[PAD_ID] = 50.0
        ids = generate(features, demo, params, DESK, temperature=0.0)
        assert ids == [PAD_ID] * DESK.max_len
        assert ids == full_prefix_generate(features, demo, params, DESK, temperature=0.0)
        prefix = np.asarray([START_ID] + ids[:-1])
        params["classifier.b"].data[PAD_ID] = 0.0
        hybrid = encode_inputs(features, demo, params, DESK)
        reference = decoder_forward(prefix[None], hybrid, params, DESK).data
        cache = DecodeCache(hybrid.data, params, DESK)
        steps = [cache.step(prefix[t:t + 1]) for t in range(len(prefix))]
        assert self._relative_error(np.concatenate(steps), reference) <= 1e-5

    def test_misuse_is_a_contract_error(self):
        """A step past ``max_len`` is a ``ContractError``, and ids that are
        not one per sequence a ``ShapeError``; neither moves the cache."""
        params, features, demo = self._inputs(TINY, seed=0)
        hybrid = encode_inputs(features, demo, params, TINY)
        cache = DecodeCache(hybrid.data, params, TINY)
        for next_id in [START_ID] + [4] * (TINY.max_len - 1):
            cache.step(np.array([next_id]))
        with pytest.raises(ContractError, match="exceeds the maximum"):
            cache.step(np.array([4]))
        for ids in (np.array([[4]]), np.array([4, 5]), np.array(4)):
            with pytest.raises(ShapeError, match="holds 1 sequences"):
                cache.step(ids)
        assert cache.length == TINY.max_len

    def test_a_sequence_starting_with_pad_is_a_contract_error(self):
        """Its first position would attend to no key; the full forward's
        attention op rejects it too."""
        params, features, demo = self._inputs(TINY, seed=0)
        hybrid = encode_inputs(np.stack([features] * 2), np.stack([demo] * 2), params, TINY)
        with pytest.raises(ContractError, match="every key masked out"):
            decoder_forward([[START_ID, 4], [PAD_ID, 4]], hybrid, params, TINY)
        cache = DecodeCache(hybrid.data, params, TINY)
        with pytest.raises(ContractError, match="pad id"):
            cache.step(np.array([START_ID, PAD_ID]))
        assert cache.length == 0
        assert cache.mask is None

    def test_generate_records_nothing_while_recording_is_on(self):
        params, features, demo = self._inputs(TINY, seed=0)
        T.reset_graph()
        generate(features, demo, params, TINY, temperature=0.5, seed=1)
        assert len(T.active_graph()) == 0
        assert all(tensor.grad is None for tensor in params.values())


class TestJoinedHeads:
    """One matrix per attention role against the per-head layer it replaced."""

    @staticmethod
    def _forward_backward(forward, cfg):
        """The logits of ``forward(ids, features, demo)`` on a padded batch of
        3, after the backward pass of their cross-entropy."""
        rng = np.random.default_rng(8)
        ids = np.concatenate([np.full((3, 1), START_ID),
                              rng.integers(4, cfg.vocab_size, size=(3, 8))], axis=1)
        ids[1, 6:] = PAD_ID
        T.reset_graph()
        logits = forward(ids[:, :-1], rng.normal(size=(3, cfg.feature_dim)),
                         rng.random((3, cfg.demographic_dim)))
        targets = ids[:, 1:].reshape(-1)
        T.backward(T.sparse_cross_entropy(logits, targets, targets != PAD_ID))
        T.reset_graph()
        return logits.data

    @staticmethod
    def _relative_error(got, ref):
        return float(np.abs(got - ref).max() / np.abs(ref).max())

    @pytest.mark.parametrize("cfg", [replace(TINY, n_decoder_blocks=2), ModelConfig()],
                             ids=["tiny-2-blocks", "paper"])
    def test_logits_and_gradients_match_per_head_oracle(self, cfg):
        params = init_parameters(cfg, seed=4)
        logits = self._forward_backward(lambda ids, features, demo: decoder_forward(
            ids, encode_inputs(features, demo, params, cfg), params, cfg), cfg)
        reference_params = init_parameters(cfg, seed=4)
        heads = split_heads(reference_params, cfg)
        reference = self._forward_backward(lambda ids, features, demo: per_head_forward(
            ids, features, demo, reference_params, heads, cfg), cfg)
        assert self._relative_error(logits, reference) <= 1e-5
        for name, tensor in params.items():
            prefix, _, role = name.rpartition(".")
            if role in model.ATTENTION_ROLES:
                expected = join_heads(role, [heads[f"{prefix}.h{h}.{role}"].grad
                                             for h in range(cfg.n_heads)])
            else:
                expected = reference_params[name].grad
            assert self._relative_error(tensor.grad, expected) <= 1e-5, name

    def test_cache_holds_one_key_and_value_array_per_block(self):
        cfg = replace(DESK, n_decoder_blocks=2)
        params = init_parameters(cfg, seed=0)
        hybrid = encode_inputs(np.ones((2, cfg.feature_dim)),
                               np.eye(cfg.demographic_dim)[:2], params, cfg)
        cache = DecodeCache(hybrid.data, params, cfg)
        for ids in ([START_ID, START_ID], [4, 6], [5, PAD_ID]):
            cache.step(np.array(ids))
        buffers = [*cache.keys, *cache.values]
        cache.step(np.array([7, 8]))
        assert len(cache.keys) == len(cache.values) == cfg.n_decoder_blocks
        held = [*cache.keys, *cache.values]
        assert all(now is before for now, before in zip(held, buffers))   # written in place
        for buffer in held:
            assert buffer.shape == (2, cfg.max_len, cfg.d_model)
        assert cache.length == 4


class TestGradientReach:
    @pytest.mark.parametrize("base, n_examples, length", [
        (TINY, 2, 6), (ModelConfig(), 1, 12)], ids=["tiny", "paper-scale"])
    @pytest.mark.parametrize("use_demographics", [True, False],
                             ids=["demographics", "image-only"])
    def test_every_parameter_gets_a_nonzero_gradient(self, base, n_examples, length,
                                                     use_demographics):
        cfg = base if use_demographics else replace(base, demographic_dim=0)
        params = init_parameters(cfg, seed=0)
        rng = np.random.default_rng(4)
        examples = []
        for i in range(n_examples):
            ids = np.concatenate([[START_ID], rng.integers(4, cfg.vocab_size, size=length),
                                  [END_ID, PAD_ID]])
            demo = rng.random(cfg.demographic_dim) if use_demographics else None
            examples.append(EncodedExample(f"e{i}", rng.normal(size=cfg.feature_dim),
                                           demo, ids))
        loss, _ = batch_loss(examples, params, cfg)
        T.backward(loss)
        dead = [name for name, tensor in params.items()
                if tensor.grad is None or not np.count_nonzero(tensor.grad)]
        assert dead == []
