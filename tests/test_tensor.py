"""Tensor-core: forward values against independent oracles, gradient rules
against central finite differences, and the documented error contracts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cxrgen import tensor as T
from cxrgen.errors import ContractError, ShapeError
from cxrgen.optim import Adam
from cxrgen.tensor import Tensor

import oracles
from oracles import (direct_layer_norm, direct_softmax, finite_difference_gradients,
                     loop_attention, loop_matmul, max_relative_error)


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1, 2], [3, 4]])
        out = T.matmul(a, Tensor(np.eye(2)))
        np.testing.assert_array_equal(out.data, [[1, 2], [3, 4]])

    def test_zero(self):
        a = Tensor([[1, 2], [3, 4]])
        out = T.matmul(a, Tensor(np.zeros((2, 2))))
        np.testing.assert_array_equal(out.data, [[0, 0], [0, 0]])

    def test_against_triple_loop_oracle(self):
        # loop_matmul([[1,2],[3,4]], [[5,6],[7,8]]) == [[19,22],[43,50]]
        expected = loop_matmul([[1, 2], [3, 4]], [[5, 6], [7, 8]])
        np.testing.assert_array_equal(expected, [[19, 22], [43, 50]])
        out = T.matmul(Tensor([[1, 2], [3, 4]]), Tensor([[5, 6], [7, 8]]))
        np.testing.assert_allclose(out.data, expected)

    def test_random_against_oracle(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(4, 6))
        b = rng.normal(size=(6, 3))
        out = T.matmul(Tensor(a), Tensor(b))
        np.testing.assert_allclose(out.data, loop_matmul(a, b), rtol=1e-5, atol=1e-6)

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))

    def test_gradients(self):
        rng = np.random.default_rng(1)
        with T.default_dtype(np.float64):
            a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
            b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)

            def loss_fn():
                T.reset_graph()
                return oracles.sum_all(oracles.mul(T.matmul(a, b), T.matmul(a, b))).item()

            loss = oracles.sum_all(oracles.mul(T.matmul(a, b), T.matmul(a, b)))
            T.backward(loss)
            fd = finite_difference_gradients(loss_fn, {"a": a, "b": b}, step=1e-5)
        assert max_relative_error(a.grad, fd["a"]) < 1e-6
        assert max_relative_error(b.grad, fd["b"]) < 1e-6

    @pytest.mark.parametrize("a_shape, b_shape", [((3, 2, 4), (3, 4, 5)), ((2, 4), (3, 4, 5))])
    def test_stacked_operands_rejected(self, a_shape, b_shape):
        with pytest.raises(ShapeError, match="matmul"):
            T.matmul(Tensor(np.zeros(a_shape)), Tensor(np.zeros(b_shape)))


class TestStackedMatmul:
    """``oracles.stacked_matmul``, the stacked product of the composed chains."""

    def test_rank3_batch_against_oracle_and_finite_differences(self):
        rng = np.random.default_rng(3)
        with T.default_dtype(np.float64):
            a = Tensor(rng.normal(size=(3, 2, 4)), requires_grad=True)
            b = Tensor(rng.normal(size=(3, 4, 5)), requires_grad=True)
            direction = Tensor(rng.normal(size=(3, 2, 5)))

            def loss_fn():
                T.reset_graph()
                return oracles.sum_all(oracles.mul(oracles.stacked_matmul(a, b),
                                                   direction)).item()

            out = oracles.stacked_matmul(a, b)
            for i in range(3):
                np.testing.assert_allclose(out.data[i], loop_matmul(a.data[i], b.data[i]),
                                           rtol=1e-12)
            T.backward(oracles.sum_all(oracles.mul(out, direction)))
            fd = finite_difference_gradients(loss_fn, {"a": a, "b": b}, step=1e-5)
        assert max_relative_error(a.grad, fd["a"]) < 1e-6
        assert max_relative_error(b.grad, fd["b"]) < 1e-6

    @pytest.mark.parametrize("a_shape, b_shape", [
        ((2, 3, 4), (3, 4, 5)), ((2, 3, 4), (4, 5)), ((3, 4), (2, 4, 5)), ((2, 3, 4), (2, 3, 5))])
    def test_rank3_shape_errors(self, a_shape, b_shape):
        with pytest.raises(ShapeError):
            oracles.stacked_matmul(Tensor(np.zeros(a_shape)), Tensor(np.zeros(b_shape)))


class TestSoftmax:
    def test_uniform_input(self):
        out = oracles.softmax(Tensor([0.0, 0.0, 0.0, 0.0]), axis=0)
        np.testing.assert_allclose(out.data, [0.25, 0.25, 0.25, 0.25], atol=1e-7)

    def test_saturation_limit(self):
        out = oracles.softmax(Tensor([3.0, 3.0 + 60.0]), axis=0)
        np.testing.assert_allclose(out.data, [0.0, 1.0], atol=1e-12)

    def test_against_direct_oracle(self):
        expected = direct_softmax([1.0, 2.0, 3.0])
        out = oracles.softmax(Tensor([1.0, 2.0, 3.0]), axis=0)
        np.testing.assert_allclose(out.data, expected, rtol=1e-6)

    def test_axis_out_of_range(self):
        with pytest.raises(ShapeError):
            oracles.softmax(Tensor([[1.0, 2.0]]), axis=2)

    def test_large_inputs_stable(self):
        out = oracles.softmax(Tensor([1000.0, 1001.0, 999.0]), axis=0)
        assert np.isfinite(out.data).all()
        assert abs(out.data.sum() - 1.0) < 1e-6

    @given(st.lists(st.floats(-30, 30), min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_rows_sum_to_one(self, row):
        out = oracles.softmax(Tensor([row, row]), axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-5)
        assert (out.data >= 0).all()


class TestLayerNorm:
    def test_constant_row_maps_to_zero(self):
        out = T.layer_norm(Tensor([[5.0, 5.0, 5.0]]), Tensor([1.0, 1.0, 1.0]),
                           Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_array_equal(out.data, [[0.0, 0.0, 0.0]])

    def test_mean_and_variance_after_norm(self):
        rng = np.random.default_rng(3)
        x = rng.normal(2.0, 4.0, size=(5, 32))
        ones, zeros = Tensor(np.ones(32)), Tensor(np.zeros(32))
        out = T.layer_norm(Tensor(x), ones, zeros).data
        assert np.abs(out.mean(axis=1)).max() < 1e-5
        assert np.abs(out.var(axis=1) - 1.0).max() < 1e-3

    def test_against_direct_oracle(self):
        expected = direct_layer_norm([1.0, 2.0, 3.0], [1.0] * 3, [0.0] * 3)
        out = T.layer_norm(Tensor([[1.0, 2.0, 3.0]]), Tensor([1.0] * 3), Tensor([0.0] * 3))
        np.testing.assert_allclose(out.data[0], expected, rtol=1e-5)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("width", [7, 24, 32, 512, 1280, 2212])
    def test_row_mean_is_ndarray_mean_bit_for_bit(self, dtype, width):
        rng = np.random.default_rng(width)
        a = (rng.normal(size=(64, width)) * rng.lognormal(0, 4, size=(64, 1))).astype(dtype)
        assert T._row_mean(a).tobytes() == a.mean(axis=1, keepdims=True).tobytes()

    def test_mismatched_affine_shapes(self):
        with pytest.raises(ShapeError):
            T.layer_norm(Tensor([[1.0, 2.0, 3.0]]), Tensor([1.0, 1.0]), Tensor([0.0, 0.0]))

    def test_gradients(self):
        rng = np.random.default_rng(5)
        with T.default_dtype(np.float64):
            x = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
            gain = Tensor(rng.normal(size=6), requires_grad=True)
            bias = Tensor(rng.normal(size=6), requires_grad=True)
            direction = Tensor(rng.normal(size=(3, 6)))

            def loss_fn():
                T.reset_graph()
                return oracles.sum_all(oracles.mul(T.layer_norm(x, gain, bias), direction)).item()

            loss = oracles.sum_all(oracles.mul(T.layer_norm(x, gain, bias), direction))
            T.backward(loss)
            fd = finite_difference_gradients(loss_fn, {"x": x, "g": gain, "b": bias},
                                             step=1e-6)
        assert max_relative_error(x.grad, fd["x"], floor=1e-6) < 1e-3
        assert max_relative_error(gain.grad, fd["g"], floor=1e-6) < 1e-3
        assert max_relative_error(bias.grad, fd["b"], floor=1e-6) < 1e-3


class TestAttention:
    def test_single_key_returns_value_row_exactly(self):
        q = Tensor([[0.3, -0.7]])
        k = Tensor([[1.5, 0.2]])
        v = Tensor([[4.0, -2.0]])
        out = oracles.scaled_dot_attention(q, k, v)
        np.testing.assert_array_equal(out.data, v.data)

    def test_diagonal_mask_returns_values(self):
        rng = np.random.default_rng(11)
        q = Tensor(rng.normal(size=(4, 3)))
        k = Tensor(rng.normal(size=(4, 3)))
        v = Tensor(rng.normal(size=(4, 5)))
        out = oracles.scaled_dot_attention(q, k, v, mask=np.eye(4, dtype=bool))
        np.testing.assert_array_equal(out.data, v.data)

    def test_two_by_three_against_loop_oracle(self):
        q = [[1.0, 0.5], [-0.3, 0.8]]
        k = [[0.2, 1.0], [0.9, -0.4], [0.0, 0.6]]
        v = [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
        expected = loop_attention(q, k, v)
        out = oracles.scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v))
        np.testing.assert_allclose(out.data, expected, rtol=1e-5, atol=1e-6)

    def test_masked_against_loop_oracle(self):
        rng = np.random.default_rng(13)
        q = rng.normal(size=(3, 4))
        k = rng.normal(size=(5, 4))
        v = rng.normal(size=(5, 2))
        mask = np.tril(np.ones((3, 5), dtype=bool))
        expected = loop_attention(q, k, v, mask)
        out = oracles.scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v), mask=mask)
        np.testing.assert_allclose(out.data, expected, rtol=1e-5, atol=1e-6)

    def test_all_keys_masked_raises(self):
        q = Tensor(np.zeros((2, 2)))
        k = Tensor(np.zeros((3, 2)))
        v = Tensor(np.zeros((3, 2)))
        mask = np.ones((2, 3), dtype=bool)
        mask[1, :] = False
        with pytest.raises(ContractError, match="row 1"):
            oracles.scaled_dot_attention(q, k, v, mask=mask)

    def test_batched_matches_loop_oracle_per_sequence(self):
        rng = np.random.default_rng(29)
        q = rng.normal(size=(3, 4, 2))
        k = rng.normal(size=(3, 5, 2))
        v = rng.normal(size=(3, 5, 3))
        mask = rng.random((3, 4, 5)) < 0.6
        mask[:, :, 0] = True
        out = oracles.scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v), mask=mask)
        for b in range(3):
            np.testing.assert_allclose(out.data[b], loop_attention(q[b], k[b], v[b], mask[b]),
                                       rtol=1e-5, atol=1e-6)

    def test_batched_all_keys_masked_names_sequence_and_row(self):
        q = Tensor(np.zeros((2, 3, 2)))
        k = Tensor(np.zeros((2, 4, 2)))
        mask = np.ones((2, 3, 4), dtype=bool)
        mask[1, 2, :] = False
        with pytest.raises(ContractError, match="row 1, 2 "):
            oracles.scaled_dot_attention(q, k, k, mask=mask)

    def test_rank4_stack_matches_loop_oracle_per_head(self):
        rng = np.random.default_rng(41)
        q = rng.normal(size=(2, 3, 4, 2))
        k = rng.normal(size=(2, 3, 5, 2))
        v = rng.normal(size=(2, 3, 5, 3))
        mask = rng.random((2, 3, 4, 5)) < 0.6
        mask[..., 0] = True
        out = oracles.scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v), mask=mask)
        for b in range(2):
            for h in range(3):
                np.testing.assert_allclose(
                    out.data[b, h], loop_attention(q[b, h], k[b, h], v[b, h], mask[b, h]),
                    rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("k_shape", [(4, 2), (2, 4, 2)], ids=["mixed-ranks", "batch-sizes"])
    def test_mismatched_operands_rejected(self, k_shape):
        with pytest.raises(ShapeError):
            oracles.scaled_dot_attention(Tensor(np.zeros((1, 3, 2))), Tensor(np.zeros(k_shape)),
                                   Tensor(np.zeros((1, 4, 2))))

    def test_output_in_convex_hull_of_values(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            q = Tensor(rng.normal(size=(3, 4)))
            k = Tensor(rng.normal(size=(6, 4)))
            v = Tensor(rng.normal(size=(6, 5)))
            out = oracles.scaled_dot_attention(q, k, v).data
            lo = v.data.min(axis=0) - 1e-5
            hi = v.data.max(axis=0) + 1e-5
            assert (out >= lo).all() and (out <= hi).all()

    def test_gradients(self):
        rng = np.random.default_rng(19)
        with T.default_dtype(np.float64):
            q = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
            k = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
            v = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
            direction = Tensor(rng.normal(size=(2, 3)))
            mask = np.asarray([[True, True, False, True], [True, False, True, True]])

            def loss_fn():
                T.reset_graph()
                attended = oracles.scaled_dot_attention(q, k, v, mask)
                return oracles.sum_all(oracles.mul(attended, direction)).item()

            attended = oracles.scaled_dot_attention(q, k, v, mask)
            loss = oracles.sum_all(oracles.mul(attended, direction))
            T.backward(loss)
            fd = finite_difference_gradients(loss_fn, {"q": q, "k": k, "v": v}, step=1e-6)
        for name, tensor in (("q", q), ("k", k), ("v", v)):
            assert max_relative_error(tensor.grad, fd[name], floor=1e-6) < 1e-3


def _forward_and_gradients(op, arrays, direction, dtype=np.float32):
    """The op's output and the gradient of sum(output * direction) for every
    input, on a fresh tape."""
    T.reset_graph()
    with T.default_dtype(dtype):
        inputs = [Tensor(a, requires_grad=True) for a in arrays]
        out = op(*inputs)
        T.backward(oracles.sum_all(oracles.mul(out, Tensor(direction))))
    T.reset_graph()
    return [out.data] + [t.grad for t in inputs]


def _pad_masked(rng, n_seq, n_query, n_key, causal):
    """A [B x Lq x Lk] mask with the last key of sequence 0 a pad and, for
    causal masks, only keys at or before each query's position."""
    mask = np.ones((n_seq, n_query, n_key), dtype=bool)
    if causal:
        mask &= np.tri(n_query, n_key, n_key - n_query, dtype=bool)
    mask[0, :, -1] = False
    mask[..., 0] = True
    return mask


class TestFusedOps:
    """The fused ops against the composed chains they replaced
    (``oracles.composed_*``), against finite differences, and their errors."""

    @pytest.mark.parametrize("n_seq, n_query, n_key, width, n_heads", [
        (16, 23, 23, 32, 2), (8, 48, 48, 512, 8), (3, 5, 5, 16, 2), (2, 4, 9, 24, 3),
        (1, 1, 7, 32, 2)], ids=["desk", "paper", "tiny", "cross-shaped", "one-query"])
    def test_attention_matches_composed_chain(self, n_seq, n_query, n_key, width, n_heads):
        rng = np.random.default_rng(n_seq * 100 + n_key)
        arrays = [rng.normal(size=(n_seq * length, width)).astype(np.float32)
                  for length in (n_query, n_key, n_key)]
        mask = _pad_masked(rng, n_seq, n_query, n_key, causal=n_query == n_key)
        direction = rng.normal(size=(n_seq * n_query, width)).astype(np.float32)
        fused = _forward_and_gradients(
            lambda q, k, v: T.multi_head_attention(q, k, v, n_heads, mask), arrays, direction)
        composed = _forward_and_gradients(
            lambda q, k, v: oracles.composed_multi_head_attention(q, k, v, n_heads, mask),
            arrays, direction)
        for got, expected in zip(fused, composed):
            assert got.shape == expected.shape and got.dtype == expected.dtype
            if n_query > 1:   # the model's training shapes: bit-equal
                assert got.tobytes() == expected.tobytes()
            assert max_relative_error(got, expected, floor=1e-6) <= 1e-6

    def test_linear_and_repeat_rows_match_composed_ops(self):
        rng = np.random.default_rng(3)
        x, w, b = (rng.normal(size=shape).astype(np.float32) for shape in ((6, 5), (5, 4), (4,)))
        direction = rng.normal(size=(6, 4))
        fused = _forward_and_gradients(T.linear, [x, w, b], direction)
        composed = _forward_and_gradients(oracles.composed_linear, [x, w, b], direction)
        direction = rng.normal(size=(18, 5))
        fused += _forward_and_gradients(lambda t: T.repeat_rows(t, 3), [x], direction)
        composed += _forward_and_gradients(lambda t: oracles.owner_repeat_rows(t, 3), [x],
                                           direction)
        for got, expected in zip(fused, composed):
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes()

    def test_add_layer_norm_and_linear_relu_match_composed_ops(self):
        rng = np.random.default_rng(31)
        x, residual = (rng.normal(size=(7, 6)).astype(np.float32) for _ in range(2))
        gain, bias = (rng.normal(size=6).astype(np.float32) for _ in range(2))
        direction = rng.normal(size=(7, 6))
        fused = _forward_and_gradients(T.add_layer_norm, [x, residual, gain, bias], direction)
        composed = _forward_and_gradients(oracles.composed_add_layer_norm,
                                          [x, residual, gain, bias], direction)
        w, b = rng.normal(size=(6, 5)).astype(np.float32), rng.normal(size=5).astype(np.float32)
        direction = rng.normal(size=(7, 5))
        fused += _forward_and_gradients(lambda *t: T.linear(*t, relu=True), [x, w, b],
                                        direction)
        composed += _forward_and_gradients(oracles.composed_linear_relu, [x, w, b], direction)
        assert (fused[-4] == 0).any() and (fused[-4] > 0).any()   # both sides of the kink
        for got, expected in zip(fused, composed):
            assert got.shape == expected.shape and got.dtype == expected.dtype
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("ids", [
        [[3, 1, 3, 3], [5, 1, 0, 3], [1, 1, 6, 2]],
        [[4, 4, 4, 4], [4, 4, 4, 4], [4, 4, 4, 4]],
        [[0, 6, 0, 6], [6, 6, 0, 0], [0, 0, 0, 6]]], ids=["repeated", "all-equal", "ends"])
    def test_embedding_with_positions_matches_composed_ops(self, ids):
        """The positions added in the gather, and the flat gradient scatter,
        bit-equal to the add of tiled position rows and a row-wise np.add.at."""
        rng = np.random.default_rng(37)
        table = rng.normal(size=(7, 5)).astype(np.float32)
        positions = T.sinusoidal_positions(4, 5)
        direction = rng.normal(size=(12, 5))
        fused = _forward_and_gradients(lambda t: T.embedding(t, ids, positions), [table],
                                       direction)
        composed = _forward_and_gradients(
            lambda t: oracles.composed_embedding(t, ids, positions), [table], direction)
        for got, expected in zip(fused, composed):
            assert got.shape == expected.shape and got.dtype == expected.dtype
            assert got.tobytes() == expected.tobytes()

    def test_add_layer_norm_linear_relu_and_embedding_match_finite_differences(self):
        rng = np.random.default_rng(41)
        ids = np.asarray([[2, 0, 2], [4, 4, 1]])
        with T.default_dtype(np.float64):
            params = {name: Tensor(rng.normal(size=shape), requires_grad=True)
                      for name, shape in (("table", (5, 4)), ("r", (6, 4)), ("g", (4,)),
                                          ("b", (4,)), ("w", (4, 4)), ("c", (4,)))}
            positions = T.sinusoidal_positions(3, 4)
            direction = Tensor(rng.normal(size=(6, 4)))

            def loss():
                x = T.embedding(params["table"], ids, positions)
                x = T.add_layer_norm(x, params["r"], params["g"], params["b"])
                hidden = T.linear(x, params["w"], params["c"], relu=True)
                return oracles.sum_all(oracles.mul(hidden, direction))

            def loss_fn():
                T.reset_graph()
                return loss().item()

            T.backward(loss())
            fd = finite_difference_gradients(loss_fn, params, step=1e-6)
        for name, tensor in params.items():
            assert max_relative_error(tensor.grad, fd[name], floor=1e-6) < 1e-6, name

    @pytest.mark.parametrize("ids, positions", [
        ([0, 1, 2], np.zeros((3, 2))), ([[0, 1, 2]], np.zeros((2, 2))),
        ([[0, 1, 2]], np.zeros((3, 3)))], ids=["flat-ids", "length", "width"])
    def test_embedding_shape_errors(self, ids, positions):
        with pytest.raises(ShapeError):
            T.embedding(Tensor(np.zeros((4, 2))), ids, positions)

    def test_add_layer_norm_shape_error(self):
        with pytest.raises(ShapeError):
            T.add_layer_norm(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 3))),
                             Tensor(np.ones(3)), Tensor(np.zeros(3)))

    def test_one_head_matches_loop_oracle_per_sequence(self):
        rng = np.random.default_rng(29)
        q, k, v = (rng.normal(size=(3 * length, 2)) for length in (4, 5, 5))
        mask = rng.random((3, 4, 5)) < 0.6
        mask[:, :, 0] = True
        out = T.multi_head_attention(Tensor(q), Tensor(k), Tensor(v), 1, mask).data
        for b in range(3):
            np.testing.assert_allclose(
                out[4 * b:4 * b + 4],
                loop_attention(q[4 * b:4 * b + 4], k[5 * b:5 * b + 5], v[5 * b:5 * b + 5],
                               mask[b]), rtol=1e-5, atol=1e-6)

    def test_keys_and_values_may_be_a_sequence_stacked_view(self):
        """The decode step reads its keys and values as [B x Lk x d] views of
        its buffers; the arithmetic the op runs gives them the same bits."""
        rng = np.random.default_rng(5)
        q, k, v = (Tensor(rng.normal(size=(2 * length, 8))) for length in (1, 3, 3))
        mask = np.ones((2, 1, 3), dtype=bool)
        rows = T.multi_head_attention(q, k, v, 2, mask).data
        buffer = np.zeros((2, 6, 8), dtype=np.float32)
        buffer[:, :3] = k.data.reshape(2, 3, 8)
        values = np.zeros_like(buffer)
        values[:, :3] = v.data.reshape(2, 3, 8)
        stacked = T._attend(q.data, buffer[:, :3], values[:, :3], 2, mask)[0]
        assert stacked.tobytes() == rows.tobytes()

    @pytest.mark.parametrize("n_seq, n_query, n_key, width, n_heads",
                             [(1, 1, 1, 32, 2), (1, 1, 24, 32, 2), (2, 3, 5, 16, 4),
                              (1, 1, 50, 512, 8)])
    def test_no_mask_is_every_key_allowed(self, n_seq, n_query, n_key, width, n_heads):
        rng = np.random.default_rng(n_key)
        q = rng.normal(size=(n_seq * n_query, width)).astype(np.float32)
        k, v = (rng.normal(size=(n_seq, n_key, width)).astype(np.float32) for _ in "kv")
        masked = T._attend(q, k, v, n_heads, np.ones((n_seq, n_query, n_key), dtype=bool))
        unmasked = T._attend(q, k, v, n_heads, None)
        for a, b in zip(masked, unmasked):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("n_heads", [1, 2])
    def test_attention_gradients_match_finite_differences(self, n_heads):
        rng = np.random.default_rng(19 + n_heads)
        mask = _pad_masked(rng, 2, 3, 4, causal=False)
        with T.default_dtype(np.float64):
            q, k, v = (Tensor(rng.normal(size=(2 * length, 4)), requires_grad=True)
                       for length in (3, 4, 4))
            direction = Tensor(rng.normal(size=(6, 4)))

            def loss():
                return oracles.sum_all(oracles.mul(T.multi_head_attention(q, k, v, n_heads, mask),
                                       direction))

            def loss_fn():
                T.reset_graph()
                return loss().item()

            T.backward(loss())
            fd = finite_difference_gradients(loss_fn, {"q": q, "k": k, "v": v}, step=1e-6)
        for name, tensor in (("q", q), ("k", k), ("v", v)):
            assert max_relative_error(tensor.grad, fd[name], floor=1e-6) < 1e-6, name
        assert not v.grad[3].any()   # sequence 0's pad key passes on no gradient

    def test_linear_and_repeat_rows_gradients_match_finite_differences(self):
        rng = np.random.default_rng(23)
        with T.default_dtype(np.float64):
            params = {name: Tensor(rng.normal(size=shape), requires_grad=True)
                      for name, shape in (("x", (2, 3)), ("w", (3, 4)), ("b", (4,)))}
            direction = Tensor(rng.normal(size=(6, 4)))

            def loss():
                rows = T.repeat_rows(T.linear(params["x"], params["w"], params["b"]), 3)
                return oracles.sum_all(oracles.mul(oracles.mul(rows, rows), direction))

            def loss_fn():
                T.reset_graph()
                return loss().item()

            T.backward(loss())
            fd = finite_difference_gradients(loss_fn, params, step=1e-6)
        for name, tensor in params.items():
            assert max_relative_error(tensor.grad, fd[name], floor=1e-6) < 1e-6, name

    def test_all_keys_masked_names_sequence_and_row(self):
        q = Tensor(np.zeros((6, 4)))
        k = Tensor(np.zeros((8, 4)))
        mask = np.ones((2, 3, 4), dtype=bool)
        mask[1, 2, :] = False
        T.reset_graph()
        with pytest.raises(ContractError, match="row 2 of sequence 1 has every key masked"):
            T.multi_head_attention(q, k, k, 2, mask)
        assert len(T.active_graph()) == 0

    @pytest.mark.parametrize("q_rows, k_rows, width, n_heads, mask_shape", [
        (6, 8, 4, 3, (2, 3, 4)), (6, 7, 4, 2, (2, 3, 4)), (5, 8, 4, 2, (2, 3, 4)),
        (6, 8, 4, 2, (3, 4))], ids=["heads", "keys", "queries", "mask-rank"])
    def test_attention_shape_errors(self, q_rows, k_rows, width, n_heads, mask_shape):
        with pytest.raises(ShapeError):
            T.multi_head_attention(Tensor(np.zeros((q_rows, width))),
                                   Tensor(np.zeros((k_rows, width))),
                                   Tensor(np.zeros((k_rows, width))), n_heads,
                                   np.ones(mask_shape, dtype=bool))

    @pytest.mark.parametrize("x_shape, w_shape, b_shape", [
        ((2, 3), (4, 5), (5,)), ((2, 3), (3, 5), (3,)), ((2, 2, 3), (3, 5), (5,))])
    def test_linear_shape_errors(self, x_shape, w_shape, b_shape):
        with pytest.raises(ShapeError):
            T.linear(Tensor(np.zeros(x_shape)), Tensor(np.zeros(w_shape)),
                     Tensor(np.zeros(b_shape)))


# the graphs that TestBackward.test_repeated_backward_accumulates replays twice
REPEATED_BUILDS = {"square": "_square", "linear-relu-cross-entropy": "_dense_relu_cross_entropy",
                   "attention": "_attention", "embedding": "_embedding",
                   "add-layer-norm": "_add_layer_norm", "dropout": "_dropout"}


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)
        T.backward(oracles.sum_all(x))
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_quadratic_gives_two_x(self):
        x = Tensor([[1.0, -2.0], [3.0, 0.5]], requires_grad=True)
        T.backward(oracles.sum_all(oracles.mul(x, x)))
        np.testing.assert_allclose(x.grad, 2 * x.data, rtol=1e-6)

    def test_non_scalar_loss_rejected(self):
        x = Tensor([[1.0, 2.0]], requires_grad=True)
        with pytest.raises(ContractError):
            T.backward(oracles.mul(x, x))

    def test_disconnected_loss_rejected(self):
        with pytest.raises(ContractError):
            T.backward(Tensor(1.0))

    @staticmethod
    def _square():
        x = Tensor([2.0, 3.0], requires_grad=True)
        return oracles.sum_all(oracles.mul(x, x)), [x]

    @staticmethod
    def _dense_relu_cross_entropy():
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        b = Tensor(rng.normal(size=6), requires_grad=True)
        hidden = T.linear(x, w, b, relu=True)
        assert (hidden.data == 0).any() and (hidden.data > 0).any()
        loss = T.sparse_cross_entropy(hidden, [0, 5, 2, 1, 3], [True, True, False, True, True])
        return loss, [x, w, b]

    @staticmethod
    def _attention():
        rng = np.random.default_rng(4)
        q, k, v = (Tensor(rng.normal(size=(6, 4)), requires_grad=True) for _ in range(3))
        mask = np.tril(np.ones((2, 3, 3), dtype=bool))
        out = T.multi_head_attention(q, k, v, 2, mask)
        return oracles.sum_all(oracles.mul(out, out)), [q, k, v]

    @staticmethod
    def _embedding():
        table = Tensor(np.random.default_rng(5).normal(size=(5, 4)), requires_grad=True)
        out = T.embedding(table, [[2, 0, 3], [2, 2, 1]], T.sinusoidal_positions(3, 4))
        return oracles.sum_all(oracles.mul(out, out)), [table]

    @staticmethod
    def _add_layer_norm():
        rng = np.random.default_rng(6)
        x, residual = (Tensor(rng.normal(size=(3, 4)), requires_grad=True) for _ in range(2))
        gain, bias = (Tensor(rng.normal(size=4), requires_grad=True) for _ in range(2))
        out = T.add_layer_norm(x, residual, gain, bias)
        return oracles.sum_all(oracles.mul(out, out)), [x, residual, gain, bias]

    @staticmethod
    def _dropout():
        x = Tensor(np.random.default_rng(7).normal(size=(4, 5)), requires_grad=True)
        out = T.dropout(x, 0.3, np.random.default_rng(8))
        return oracles.sum_all(oracles.mul(out, out)), [x]

    @pytest.mark.parametrize("build,adopted",
                             [(build, adopted) for adopted in (False, True)
                              for build in REPEATED_BUILDS.values()],
                             ids=[name + ("-adopted" if adopted else "")
                                  for adopted in (False, True) for name in REPEATED_BUILDS])
    def test_repeated_backward_accumulates(self, build, adopted):
        """A second backward over the same tape adds exactly the first
        gradient again: no backward rule writes into an array its forward
        kept. With the leaves adopted by ``Adam``, the first backward writes
        into their slots and the second adds fresh arrays onto them."""
        loss, leaves = getattr(self, build)()
        if adopted:
            Adam({str(i): leaf for i, leaf in enumerate(leaves)}, lr=3e-4).zero_grad()
        slots = [leaf.grad_slot for leaf in leaves]
        T.backward(loss)
        if adopted:
            assert all(leaf.grad is slot for leaf, slot in zip(leaves, slots))
        first = [leaf.grad.copy() for leaf in leaves]
        T.backward(loss)
        for leaf, grad in zip(leaves, first):
            assert np.array_equal(leaf.grad, grad + grad)

    def test_shared_input_used_twice(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = oracles.sum_all(T.add(oracles.mul(x, x), x))
        T.backward(loss)
        np.testing.assert_allclose(x.grad, 2 * x.data + 1)

    def test_only_leaves_receive_gradients(self):
        x = Tensor([[1.0, 2.0], [3.0, -1.0]], requires_grad=True)
        w = Tensor([[0.5], [-2.0]], requires_grad=True)
        hidden = oracles.relu(T.matmul(x, w))
        T.backward(oracles.sum_all(oracles.mul(hidden, hidden)))
        assert hidden.grad is None
        np.testing.assert_allclose(w.grad, [[21.0], [-7.0]])
        assert x.grad is not None

    def test_mini_model_matches_finite_differences(self):
        """Embedding with positions -> attention -> cross-entropy, every gradient vs FD."""
        rng = np.random.default_rng(23)
        ids = np.asarray([2, 0, 3])
        targets = np.asarray([0, 3, 1])
        with T.default_dtype(np.float64):
            params = {
                "table": Tensor(rng.normal(size=(5, 4)), requires_grad=True),
                "wq": Tensor(rng.normal(size=(4, 4)), requires_grad=True),
                "wk": Tensor(rng.normal(size=(4, 4)), requires_grad=True),
                "wv": Tensor(rng.normal(size=(4, 4)), requires_grad=True),
                "wc": Tensor(rng.normal(size=(4, 5)), requires_grad=True),
            }
            mask = np.tril(np.ones((1, 3, 3), dtype=bool))
            positions = T.sinusoidal_positions(3, 4)

            def forward():
                x = T.embedding(params["table"], ids[None], positions)
                attended = T.multi_head_attention(
                    T.matmul(x, params["wq"]), T.matmul(x, params["wk"]),
                    T.matmul(x, params["wv"]), 2, mask)
                logits = T.matmul(attended, params["wc"])
                return T.sparse_cross_entropy(logits, targets, np.ones(3, dtype=bool))

            def loss_fn():
                T.reset_graph()
                return forward().item()

            loss = forward()
            T.backward(loss)
            fd = finite_difference_gradients(loss_fn, params, step=1e-3)
        for name, tensor in params.items():
            assert max_relative_error(tensor.grad, fd[name]) < 1e-3, name

    def test_random_small_graphs_match_finite_differences(self):
        """Random dense/relu/norm/softmax graphs under 500 parameters."""
        for seed in range(4):
            rng = np.random.default_rng(100 + seed)
            rows, d_in, d_mid, d_out = rng.integers(2, 6, size=4)
            with T.default_dtype(np.float64):
                params = {
                    "x": Tensor(rng.normal(size=(rows, d_in)), requires_grad=True),
                    "w1": Tensor(rng.normal(size=(d_in, d_mid)), requires_grad=True),
                    "b1": Tensor(rng.normal(size=d_mid), requires_grad=True),
                    "g": Tensor(rng.normal(size=d_mid) + 1.0, requires_grad=True),
                    "b2": Tensor(rng.normal(size=d_mid), requires_grad=True),
                    "w2": Tensor(rng.normal(size=(d_mid, d_out)), requires_grad=True),
                }
                targets = rng.integers(0, d_out, size=rows)

                def forward():
                    h = T.linear(params["x"], params["w1"], params["b1"], relu=True)
                    h = T.layer_norm(h, params["g"], params["b2"])
                    return T.sparse_cross_entropy(T.matmul(h, params["w2"]), targets,
                                                  np.ones(rows, dtype=bool))

                def loss_fn():
                    T.reset_graph()
                    return forward().item()

                loss = forward()
                T.backward(loss)
                fd = finite_difference_gradients(loss_fn, params, step=1e-3)
            for name, tensor in params.items():
                assert max_relative_error(tensor.grad, fd[name]) < 1e-3, (seed, name)


class TestOtherOps:
    def test_add_bias_broadcast_gradient(self):
        x = Tensor(np.ones((3, 2)), requires_grad=True)
        b = Tensor([1.0, -1.0], requires_grad=True)
        T.backward(oracles.sum_all(oracles.add(x, b)))
        np.testing.assert_array_equal(b.grad, [3.0, 3.0])
        np.testing.assert_array_equal(x.grad, np.ones((3, 2)))

    def test_reshape_round_trip_and_gradient(self):
        x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        stacked = oracles.reshape(x, (2, 3, 2))
        np.testing.assert_array_equal(stacked.data, np.arange(12.0).reshape(2, 3, 2))
        weights = Tensor(np.arange(12.0).reshape(2, 3, 2))
        T.backward(oracles.sum_all(oracles.mul(stacked, weights)))
        np.testing.assert_array_equal(x.grad, np.arange(12.0).reshape(3, 4))
        with pytest.raises(ShapeError):
            oracles.reshape(x, (5, 2))

    @pytest.mark.parametrize("axes", [(1, 0), (0, 2, 1, 3), (3, 1, 0, 2), (2, 0, 1)])
    def test_permute_then_inverse_is_exact(self, axes):
        rng = np.random.default_rng(31)
        x = Tensor(rng.normal(size=(2, 3, 4, 5)[:len(axes)]))
        out = oracles.permute(x, axes)
        np.testing.assert_array_equal(out.data, np.transpose(x.data, axes))
        back = oracles.permute(out, np.argsort(axes))
        assert back.data.dtype == x.data.dtype
        assert back.data.tobytes() == x.data.tobytes()

    def test_permute_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(37)
        with T.default_dtype(np.float64):
            x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
            w = Tensor(rng.normal(size=(4, 3, 5)), requires_grad=True)
            direction = Tensor(rng.normal(size=(4, 2, 5)))

            def loss():
                moved = oracles.permute(x, (2, 0, 1))          # [4 x 2 x 3]
                squared = oracles.mul(moved, moved)
                return oracles.sum_all(oracles.mul(oracles.stacked_matmul(squared, w), direction))

            def loss_fn():
                T.reset_graph()
                return loss().item()

            T.backward(loss())
            fd = finite_difference_gradients(loss_fn, {"x": x, "w": w}, step=1e-5)
        assert max_relative_error(x.grad, fd["x"]) < 1e-6
        assert max_relative_error(w.grad, fd["w"]) < 1e-6

    @pytest.mark.parametrize("axes", [(0, 1), (0, 0, 1), (0, 1, 3)])
    def test_permute_rejects_a_non_permutation(self, axes):
        with pytest.raises(ShapeError, match="permutation"):
            oracles.permute(Tensor(np.zeros((2, 3, 4))), axes)

    def test_add_shape_error(self):
        with pytest.raises(ShapeError):
            T.add(Tensor(np.ones((2, 2))), Tensor(np.ones((3, 2))))

    def test_positions_table_is_built_once_per_size_and_dtype_and_read_only(self):
        table = T.sinusoidal_positions(8, 6)
        assert T.sinusoidal_positions(8, 6, np.float32) is table
        assert not table.flags.writeable
        with T.default_dtype(np.float64):
            wide = T.sinusoidal_positions(8, 6)
        assert wide.dtype == np.float64 and table.dtype == np.float32
        np.testing.assert_array_equal(table, wide.astype(np.float32))
        np.testing.assert_array_equal(table[:, 0], np.sin(np.arange(8)).astype(np.float32))

    def test_embedding_gradient_scatters(self):
        table = Tensor(np.arange(10, dtype=float).reshape(5, 2), requires_grad=True)
        out = T.embedding(table, [[1, 1, 4]], np.zeros((3, 2)))
        T.backward(oracles.sum_all(out))
        expected = np.zeros((5, 2))
        expected[1] = 2.0
        expected[4] = 1.0
        np.testing.assert_array_equal(table.grad, expected)

    def test_embedding_out_of_range(self):
        table = Tensor(np.zeros((3, 2)))
        with pytest.raises(ContractError):
            T.embedding(table, [[0, 3]], np.zeros((2, 2)))

    def test_dropout_deterministic_under_seeded_rng(self):
        x = Tensor(np.ones((4, 4)))
        a = T.dropout(x, 0.5, np.random.default_rng(9)).data
        b = T.dropout(x, 0.5, np.random.default_rng(9)).data
        np.testing.assert_array_equal(a, b)
        kept = a != 0
        np.testing.assert_allclose(a[kept], 2.0)

    def test_dropout_gradient_leaves_a_shared_adjoint_alone(self):
        """``add`` hands one adjoint array to both summands; dropout's rule
        scales its own copy, so the other summand's gradient is unscaled."""
        rng = np.random.default_rng(10)
        x, y = (Tensor(rng.normal(size=(4, 6)), requires_grad=True) for _ in range(2))
        out = T.add(x, T.dropout(y, 0.5, np.random.default_rng(11)))
        T.backward(oracles.sum_all(oracles.mul(out, out)))
        keep = (np.random.default_rng(11).random((4, 6)) >= 0.5).astype(np.float32)
        np.testing.assert_array_equal(x.grad, 2 * out.data)
        np.testing.assert_array_equal(y.grad, 2 * out.data * keep * 2.0)

    def test_cross_entropy_matches_manual(self):
        logits = np.asarray([[2.0, 0.0, -1.0], [0.5, 0.5, 0.5]])
        targets = [0, 2]
        out = T.sparse_cross_entropy(Tensor(logits), targets, [True, True])
        manual = -np.mean([
            np.log(direct_softmax(logits[0])[0]),
            np.log(direct_softmax(logits[1])[2]),
        ])
        assert abs(out.item() - manual) < 1e-6

    def test_cross_entropy_masked_rows_contribute_nothing(self):
        rng = np.random.default_rng(31)
        logits_data = rng.normal(size=(4, 5))
        targets = [1, 2, 3, 4]
        for row in range(4):
            mask = np.ones(4, dtype=bool)
            mask[row] = False
            full = Tensor(logits_data, requires_grad=True)
            loss = T.sparse_cross_entropy(full, targets, mask)
            T.backward(loss)
            assert np.all(full.grad[row] == 0.0)
            kept = [i for i in range(4) if i != row]
            manual = np.mean([
                -np.log(direct_softmax(logits_data[i])[targets[i]]) for i in kept
            ])
            assert abs(loss.item() - manual) < 1e-6
            T.reset_graph()

    def test_cross_entropy_all_masked_rejected(self):
        with pytest.raises(ContractError):
            T.sparse_cross_entropy(Tensor(np.zeros((2, 3))), [0, 1],
                                   np.zeros(2, dtype=bool))


class TestInvariants:
    def test_tensor_shape_value_consistency(self):
        t = Tensor(np.zeros((3, 4)))
        assert int(np.prod(t.shape)) == t.size == t.data.size

    def test_float32_default_dtype(self):
        assert Tensor([1.0]).data.dtype == np.float32

    def test_determinism_bit_identical_forward_backward(self):
        def run():
            T.reset_graph()
            rng = np.random.default_rng(77)
            x = Tensor(rng.normal(size=(5, 8)), requires_grad=True)
            w = Tensor(rng.normal(size=(8, 8)), requires_grad=True)
            out = T.multi_head_attention(T.matmul(x, w), x, x, 2,
                                         np.ones((1, 5, 5), dtype=bool))
            loss = T.sparse_cross_entropy(out, rng.integers(0, 8, size=5),
                                          np.ones(5, dtype=bool))
            T.backward(loss)
            return out.data.copy(), x.grad.copy(), w.grad.copy()

        first = run()
        second = run()
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    def test_no_nan_or_inf_on_random_valid_inputs(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            rows = int(rng.integers(1, 6))
            width = int(rng.integers(1, 6))
            x = Tensor(rng.normal(scale=5.0, size=(rows, width)), requires_grad=True)
            w = Tensor(rng.normal(scale=5.0, size=(width, width)), requires_grad=True)
            h = T.linear(x, w, Tensor(np.zeros(width)), relu=True)
            probs = oracles.softmax(h, axis=-1)
            loss = oracles.sum_all(oracles.mul(probs, probs))
            T.backward(loss)
            for arr in (h.data, probs.data, x.grad, w.grad):
                assert np.isfinite(arr).all()
            T.reset_graph()
