"""Adam: first-step magnitude, zero-gradient behavior, and the two-step
recurrence against a hand-unrolled reference."""

import numpy as np
import pytest

from cxrgen import tensor as T
from cxrgen.errors import ContractError
from cxrgen.optim import CHUNK, Adam
from cxrgen.tensor import Tensor

from oracles import PerTensorAdam, adam_reference, allocating_adam_step


def test_zero_gradient_leaves_parameters_unchanged():
    p = Tensor([1.0, -2.0, 3.0], requires_grad=True)
    opt = Adam({"p": p}, lr=0.1)
    p.grad = np.zeros_like(p.data)
    opt.step()
    np.testing.assert_array_equal(p.data, [1.0, -2.0, 3.0])


def test_missing_gradient_skips_parameter():
    p = Tensor([1.0], requires_grad=True)
    opt = Adam({"p": p}, lr=0.1)
    opt.step()
    np.testing.assert_array_equal(p.data, [1.0])


def test_first_step_magnitude_is_learning_rate():
    """Bias correction makes the first update ~ lr * sign(g) for eps << |g|."""
    for g in (0.5, -3.0, 1e-3):
        p = Tensor([2.0], requires_grad=True)
        opt = Adam({"p": p}, lr=3e-4)
        p.grad = np.asarray([g], dtype=np.float32)
        opt.step()
        moved = float(p.data[0]) - 2.0
        assert abs(abs(moved) - 3e-4) < 3e-6
        assert np.sign(moved) == -np.sign(g)


def test_two_steps_match_recurrence_oracle():
    grads = [0.7, -0.2]
    expected = adam_reference(1.5, grads, lr=0.01)
    p = Tensor([1.5], requires_grad=True)
    opt = Adam({"p": p}, lr=0.01)
    for g, want in zip(grads, expected):
        p.grad = np.asarray([g], dtype=np.float32)
        opt.step()
        assert abs(float(p.data[0]) - want) < 1e-6
        p.grad = None


def test_longer_trajectory_matches_recurrence_oracle():
    rng = np.random.default_rng(2)
    grads = rng.normal(size=10).tolist()
    expected = adam_reference(0.3, grads, lr=0.05)
    p = Tensor([0.3], requires_grad=True)
    opt = Adam({"p": p}, lr=0.05)
    for g, want in zip(grads, expected):
        p.grad = np.asarray([g], dtype=np.float32)
        opt.step()
        assert abs(float(p.data[0]) - want) < 1e-5


def test_moment_shape_mismatch_rejected():
    p = Tensor([1.0, 2.0], requires_grad=True)
    opt = Adam({"p": p}, lr=0.1)
    opt.m["p"] = np.zeros(3, dtype=np.float32)
    p.grad = np.zeros(2, dtype=np.float32)
    with pytest.raises(ContractError):
        opt.step()


def test_invalid_learning_rate_rejected():
    with pytest.raises(ContractError):
        Adam({"p": Tensor([1.0])}, lr=0.0)


@pytest.mark.parametrize("lr", [float("nan"), float("inf"), -1.0])
def test_learning_rate_that_is_not_positive_and_finite_rejected(lr):
    with pytest.raises(ContractError, match="learning rate"):
        Adam({"p": Tensor([1.0])}, lr=lr)


def test_zero_grad_clears_all():
    a, b = Tensor([1.0], requires_grad=True), Tensor([2.0], requires_grad=True)
    a.grad = np.ones(1, dtype=np.float32)
    b.grad = np.ones(1, dtype=np.float32)
    Adam({"a": a, "b": b}).zero_grad()
    assert a.grad is None and b.grad is None


def test_in_place_step_bit_identical_to_allocating_formula():
    """Five steps over tensors of several shapes, one of them skipped on two
    steps, match the textbook formula with fresh temporaries bit for bit."""
    rng = np.random.default_rng(5)
    shapes = {"w": (7, 5), "b": (5,), "big": (64, 33)}
    params = {name: Tensor(rng.normal(size=shape), requires_grad=True)
              for name, shape in shapes.items()}
    reference = {name: p.data.copy() for name, p in params.items()}
    m = {name: np.zeros_like(p.data) for name, p in params.items()}
    v = {name: np.zeros_like(p.data) for name, p in params.items()}
    opt = Adam(params, lr=0.02)
    for t in range(1, 6):
        for name, p in params.items():
            p.grad = None if name == "b" and t in (2, 4) else \
                (rng.normal(size=p.data.shape) * 10.0 ** -t).astype(np.float32)
            if p.grad is not None:
                allocating_adam_step(reference[name], p.grad, m[name], v[name], t, lr=0.02)
        opt.step()
        for name, p in params.items():
            assert np.array_equal(p.data, reference[name]), (t, name)
            assert np.array_equal(opt.m[name], m[name]) and np.array_equal(opt.v[name], v[name])


def twin_params(shapes, dtype, seed):
    """Two independent parameter maps holding the same values."""
    rng = np.random.default_rng(seed)
    values = {name: rng.normal(size=shape).astype(dtype) for name, shape in shapes.items()}
    with T.default_dtype(dtype):
        return tuple({name: Tensor(value, requires_grad=True) for name, value in values.items()}
                     for _ in range(2))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_flat_chunked_step_bit_identical_to_per_tensor_oracle(dtype):
    """Five steps over a layout whose first tensor spans a chunk boundary,
    with the middle tensor skipped on two steps (splitting the run): data
    and both moments match the per-tensor optimizer bit for bit."""
    shapes = {"big": (300, 250), "b": (7,), "w": (80, 90)}
    assert shapes["big"][0] * shapes["big"][1] > CHUNK
    params, reference = twin_params(shapes, dtype, seed=11)
    opt, oracle = Adam(params, lr=0.02), PerTensorAdam(reference, lr=0.02)
    rng = np.random.default_rng(12)
    for t in range(1, 6):
        opt.zero_grad()
        oracle.zero_grad()
        for name, shape in shapes.items():
            if name == "b" and t in (2, 4):
                continue
            g = (rng.normal(size=shape) * 10.0 ** -t).astype(dtype)
            params[name].grad, reference[name].grad = g, g.copy()
        opt.step()
        oracle.step()
        for name in shapes:
            assert params[name].data.dtype == dtype
            assert np.array_equal(params[name].data, reference[name].data), (t, name)
            assert np.array_equal(opt.m[name], oracle.m[name]), (t, name)
            assert np.array_equal(opt.v[name], oracle.v[name]), (t, name)


def test_rebound_data_still_moves_like_oracle():
    """A caller that rebinds ``p.data`` after adoption (as fit's restore does)
    still sees the tensor it holds updated exactly as the oracle's."""
    shapes = {"a": (4, 3), "b": (5,), "c": (2, 2)}
    params, reference = twin_params(shapes, np.float32, seed=3)
    opt, oracle = Adam(params, lr=0.05), PerTensorAdam(reference, lr=0.05)
    rng = np.random.default_rng(4)
    for t in range(3):
        if t != 1:
            params["b"].data = params["b"].data.copy()
        opt.zero_grad()
        for name, shape in shapes.items():
            g = rng.normal(size=shape).astype(np.float32)
            params[name].grad, reference[name].grad = g, g.copy()
        held = params["b"]
        opt.step()
        oracle.step()
        assert held is params["b"]
        for name in shapes:
            assert np.array_equal(params[name].data, reference[name].data), (t, name)


def test_backward_fills_the_handed_out_slot_once():
    """After ``zero_grad`` a parameter's first gradient lands in its
    pre-zeroed slot; once used, the slot is not handed out again, so a
    stale slot never seeds a later gradient."""
    w = Tensor([[1.0], [2.0]], requires_grad=True)
    x = Tensor([[3.0, -1.0]], requires_grad=True)
    opt = Adam({"w": w}, lr=0.1)

    def backward():
        T.reset_graph()
        T.backward(T.matmul(x, w))

    opt.zero_grad()
    slot = w.grad_slot
    backward()
    assert w.grad is slot and w.grad_slot is None
    np.testing.assert_array_equal(w.grad, [[3.0], [-1.0]])
    assert x.grad is not None and x.grad_slot is None
    w.grad = None
    backward()
    assert w.grad is not slot
    np.testing.assert_array_equal(w.grad, [[3.0], [-1.0]])
    opt.zero_grad()
    assert w.grad is None and w.grad_slot is slot
    np.testing.assert_array_equal(slot, 0.0)


def test_mixed_dtypes_rejected():
    with T.default_dtype(np.float64):
        wide = Tensor([1.0], requires_grad=True)
    with pytest.raises(ContractError, match="one dtype"):
        Adam({"a": Tensor([1.0], requires_grad=True), "b": wide})
