"""Adam: first-step magnitude, zero-gradient behavior, and the two-step
recurrence against a hand-unrolled reference."""

import numpy as np
import pytest

from cxrgen import tensor as T
from cxrgen.errors import ContractError
from cxrgen.optim import CHUNK, Adam
from cxrgen.tensor import Tensor

import oracles
from oracles import PerTensorAdam, adam_reference, allocating_adam_step


def test_zero_gradient_leaves_parameters_unchanged():
    p = Tensor([1.0, -2.0, 3.0], requires_grad=True)
    opt = Adam({"p": p}, lr=0.1)
    opt.zero_grad()
    p.accumulate_grad(np.zeros_like(p.data))
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
        opt.zero_grad()
        p.accumulate_grad(np.asarray([g], dtype=np.float32))
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
        opt.zero_grad()
        p.accumulate_grad(np.asarray([g], dtype=np.float32))
        opt.step()
        assert abs(float(p.data[0]) - want) < 1e-6


def test_longer_trajectory_matches_recurrence_oracle():
    rng = np.random.default_rng(2)
    grads = rng.normal(size=10).tolist()
    expected = adam_reference(0.3, grads, lr=0.05)
    p = Tensor([0.3], requires_grad=True)
    opt = Adam({"p": p}, lr=0.05)
    for g, want in zip(grads, expected):
        opt.zero_grad()
        p.accumulate_grad(np.asarray([g], dtype=np.float32))
        opt.step()
        assert abs(float(p.data[0]) - want) < 1e-5


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
    Adam({"a": a, "b": b}, lr=3e-4).zero_grad()
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
        opt.zero_grad()
        for name, p in params.items():
            if name == "b" and t in (2, 4):
                continue
            g = (rng.normal(size=p.data.shape) * 10.0 ** -t).astype(np.float32)
            p.accumulate_grad(g)
            allocating_adam_step(reference[name], g, m[name], v[name], t, lr=0.02)
        opt.step()
        for name, p in params.items():
            assert np.array_equal(p.data, reference[name]), (t, name)
            opt_m, opt_v = oracles.adam_moments(opt)
            assert np.array_equal(opt_m[name], m[name]) and np.array_equal(opt_v[name], v[name])


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
            params[name].accumulate_grad(g)
            reference[name].grad = g.copy()
        opt.step()
        oracle.step()
        opt_m, opt_v = oracles.adam_moments(opt)
        for name in shapes:
            assert params[name].data.dtype == dtype
            assert np.array_equal(params[name].data, reference[name].data), (t, name)
            assert np.array_equal(opt_m[name], oracle.m[name]), (t, name)
            assert np.array_equal(opt_v[name], oracle.v[name]), (t, name)


def test_rebound_data_is_rejected():
    """A caller that rebinds ``p.data`` after adoption gets a ``ContractError``
    naming the parameter, and no tensor moves."""
    a, b = Tensor([1.0], requires_grad=True), Tensor([2.0, 3.0], requires_grad=True)
    opt = Adam({"a": a, "b": b}, lr=0.1)
    b.data = b.data.copy()
    opt.zero_grad()
    a.accumulate_grad(np.ones(1, dtype=np.float32))
    b.accumulate_grad(np.ones(2, dtype=np.float32))
    with pytest.raises(ContractError, match="parameter 'b': data"):
        opt.step()
    assert a.data[0] == 1.0 and opt.t == 0


def test_assigned_grad_is_rejected():
    """A gradient assigned to ``p.grad`` instead of accumulated into its slot
    is refused by name, so it can never be silently dropped."""
    a, b = Tensor([1.0], requires_grad=True), Tensor([2.0, 3.0], requires_grad=True)
    opt = Adam({"a": a, "b": b}, lr=0.1)
    opt.zero_grad()
    a.accumulate_grad(np.ones(1, dtype=np.float32))
    b.grad = np.ones(2, dtype=np.float32)
    with pytest.raises(ContractError, match="parameter 'b': grad"):
        opt.step()
    assert a.data[0] == 1.0 and opt.t == 0


def test_backward_fills_the_handed_out_slot_once():
    """After ``zero_grad`` a parameter's first gradient is written into its
    slot; once used, the slot is not handed out again, and whatever a slot
    held before it was written never seeds a gradient."""
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
    slot.fill(np.nan)   # zero_grad leaves the buffer as it is; poison it
    backward()
    assert w.grad is slot
    np.testing.assert_array_equal(w.grad, [[3.0], [-1.0]])


def test_mixed_dtypes_rejected():
    with T.default_dtype(np.float64):
        wide = Tensor([1.0], requires_grad=True)
    with pytest.raises(ContractError, match="one dtype"):
        Adam({"a": Tensor([1.0], requires_grad=True), "b": wide}, lr=3e-4)


def _square_linear_twice(p, x):
    """w feeds two linears; the later one replays first and takes the slot."""
    return T.linear(T.linear(x, p["w"], p["b"], relu=True), p["w"], p["b"])


def _add_replays_before_linear(p, x):
    """w's first adjoint is add's g, shared with the linear's output; the
    linear's slot is summed into, never g."""
    return T.add(T.linear(x, p["w"], p["b"]), p["w"])


def _linear_replays_before_add(p, x):
    return T.linear(T.add(p["w"], p["u"]), p["w"], p["b"])


def _add_of_one_parameter(p, x):
    """add passes one adjoint array to both of its inputs."""
    return T.linear(x, T.add(p["w"], p["w"]), p["b"])


def _add_after_slot_write(p, x):
    """w's slot is written first; add then passes one g to w and to u."""
    later = T.linear(x, p["w"], p["b"])
    return T.add(T.linear(x, T.add(p["w"], p["u"]), p["b"]), later)


def _matmul_square(p, x):
    return T.matmul(p["w"], p["w"])


def _three_way(p, x):
    """w's gradient sums three contributions: a matmul's slot, then a
    linear's input rows and its weight product."""
    return T.add(T.linear(p["w"], p["w"], p["b"]), T.matmul(x, p["w"]))


def _gain_is_bias(p, x):
    """One tensor as a layer norm's gain and bias: one rule, two slots."""
    return T.layer_norm(x, p["b"], p["b"])


@pytest.mark.parametrize("build", [_square_linear_twice, _add_replays_before_linear,
                                   _linear_replays_before_add, _add_of_one_parameter,
                                   _add_after_slot_write, _matmul_square, _three_way,
                                   _gain_is_bias],
                         ids=lambda build: build.__name__.lstrip("_"))
def test_slot_writes_under_shared_use_match_an_unadopted_twin(build):
    """A parameter feeding several tape entries gets, in its slot, the bytes
    an un-adopted twin leaf gets in a fresh array; a NaN-poisoned slot
    proves no rule reads it before writing it, and ``step`` accepts every
    gradient."""
    rng = np.random.default_rng(21)
    values = {"w": rng.normal(size=(3, 3)), "b": rng.normal(size=3),
              "u": rng.normal(size=(3, 3))}
    x = rng.normal(size=(3, 3))

    def gradients(adopt):
        params = {name: Tensor(value, requires_grad=True) for name, value in values.items()}
        if adopt:
            opt = Adam(params, lr=0.1)
            opt.zero_grad()
            for p in params.values():
                p.grad_slot.fill(np.nan)
            slots = {name: p.grad_slot for name, p in params.items()}
        T.reset_graph()
        out = build(params, Tensor(x))
        T.backward(oracles.sum_all(oracles.mul(out, out)))
        if adopt:
            assert all(p.grad is None or p.grad is slots[name] for name, p in params.items())
            opt.step()
        return {name: None if p.grad is None else p.grad.tobytes()
                for name, p in params.items()}

    twin = gradients(adopt=False)
    assert twin["w"] is not None or twin["b"] is not None
    assert gradients(adopt=True) == twin
