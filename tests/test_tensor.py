"""Autodiff engine: forward oracles, gradient checks, tape contracts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clozerm.errors import ContractError, ShapeError
from clozerm.tensor import (
    Tape,
    Tensor,
    add,
    bce_with_logits,
    bmm,
    clamp_min,
    cross_entropy_rows,
    div,
    gather_rows,
    gelu,
    layer_norm,
    matmul,
    mul,
    reshape,
    softmax,
    sqrt,
    sub,
    tmean,
    transpose,
    tsum,
)
from helpers import FD_TOL, gradcheck, matmul_loops

SEEDS = range(5)


def t(a, grad=False):
    return Tensor(np.asarray(a, dtype=np.float64), requires_grad=grad)


# ---------------------------------------------------------------- forward


def test_matmul_identity():
    out = matmul(t(np.eye(2)), t([[1.0, 2.0], [3.0, 4.0]]))
    assert np.allclose(out.data, [[1, 2], [3, 4]])


def test_matmul_hand_product():
    out = matmul(t([[1.0, 2.0], [3.0, 4.0]]), t([[5.0, 6.0], [7.0, 8.0]]))
    assert np.array_equal(out.data, [[19.0, 22.0], [43.0, 50.0]])


def test_matmul_against_triple_loop():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    out = matmul(t(a), t(b))
    assert np.abs(out.data - matmul_loops(a, b)).max() < 1e-6


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError) as exc:
        matmul(t(np.zeros((2, 3))), t(np.zeros((4, 2))))
    msg = str(exc.value)
    assert "(2, 3)" in msg and "(4, 2)" in msg


def test_softmax_symmetry():
    assert np.allclose(softmax(t([0.0, 0.0])).data, [0.5, 0.5])


def test_softmax_hand_values():
    out = softmax(t([1.0, 2.0, 3.0]))
    assert np.abs(out.data - [0.0900306, 0.2447285, 0.6652410]).max() < 1e-6


def test_softmax_no_overflow():
    out = softmax(t([1000.0, 1000.0]))
    assert np.allclose(out.data, [0.5, 0.5])
    assert np.isfinite(out.data).all()


def test_layer_norm_constant_row():
    out = layer_norm(t([[1.0, 1.0, 1.0]]), t([1.0, 1.0, 1.0]), t([0.0, 0.0, 0.0]))
    assert np.abs(out.data).max() < 1e-2


def test_layer_norm_hand_values():
    out = layer_norm(
        t([[1.0, 2.0, 3.0]]), t([1.0, 1.0, 1.0]), t([0.0, 0.0, 0.0]), eps=1e-12
    )
    assert np.abs(out.data - [[-1.2247, 0.0, 1.2247]]).max() < 1e-3


def test_layer_norm_affine_only():
    out = layer_norm(t([[7.0, -2.0, 0.5]]), t([0.0, 0.0, 0.0]), t([5.0, 5.0, 5.0]))
    assert np.allclose(out.data, [[5.0, 5.0, 5.0]])


def test_gelu_fixed_points():
    assert float(gelu(t(0.0)).data) == 0.0
    assert abs(float(gelu(t(1.0)).data) - 0.841192) < 1e-4
    assert abs(float(gelu(t(-10.0)).data)) < 1e-3


def test_cross_entropy_uniform():
    loss = cross_entropy_rows(t(np.zeros((1, 10))), [3])
    assert abs(float(loss.data[0]) - math.log(10)) < 1e-6


def test_cross_entropy_saturated():
    logits = np.zeros((1, 10))
    logits[0, 4] = 100.0
    assert float(cross_entropy_rows(t(logits), [4]).data[0]) < 1e-6


def test_cross_entropy_against_lse_oracle():
    rng = np.random.default_rng(1)
    logits = rng.normal(size=12)
    gold = 5
    lse = math.log(np.exp(logits - logits.max()).sum()) + logits.max()
    want = lse - logits[gold]
    got = float(cross_entropy_rows(t(logits[None, :]), [gold]).data[0])
    assert abs(got - want) < 1e-6


def test_cross_entropy_gold_out_of_range():
    with pytest.raises(IndexError):
        cross_entropy_rows(t(np.zeros((1, 4))), [4])


# ---------------------------------------------------------------- backward


def test_backward_linear_functional_gives_ones():
    w = t(np.arange(6.0).reshape(2, 3), grad=True)
    with Tape() as tape:
        loss = tsum(w)
    tape.backward(loss)
    assert np.array_equal(w.grad, np.ones((2, 3)))


def test_backward_fanout_accumulates():
    x = t(3.0, grad=True)
    with Tape() as tape:
        loss = add(x, x)
    tape.backward(loss)
    assert float(x.grad) == 2.0


def test_first_gradient_keeps_data_layout():
    # transpose's backward hands its input an F-order view; the stored
    # gradient must still be laid out like the C-order data.
    x = Tensor(np.arange(12, dtype=np.float32).reshape(3, 4), requires_grad=True)
    w = np.arange(12, dtype=np.float32).reshape(4, 3) + 1
    with Tape() as tape:
        loss = tsum(mul(transpose(x, (1, 0)), w))
    tape.backward(loss)
    assert x.grad.flags.c_contiguous
    assert np.array_equal(x.grad, w.T)


def test_backward_twice_is_error():
    x = t(1.0, grad=True)
    with Tape() as tape:
        loss = mul(x, x)
    tape.backward(loss)
    with pytest.raises(ContractError):
        tape.backward(loss)


def test_backward_non_scalar_loss_is_error():
    x = t([1.0, 2.0], grad=True)
    with Tape() as tape:
        out = mul(x, x)
        with pytest.raises(ContractError):
            tape.backward(out)


def test_backward_foreign_loss_is_error():
    x = t(1.0, grad=True)
    with Tape() as tape:
        mul(x, x)
    with pytest.raises(ContractError):
        tape.backward(t(1.0))


# ------------------------------------------------------- gradient suite

# Each entry: name, builder(seed) -> (fn, arrays). The fn contracts its
# output to a scalar through a fixed random projection so gradients are
# not trivially uniform.


def _proj(shape, seed):
    return Tensor(np.random.default_rng(seed + 1000).normal(size=shape))


def _case_add(seed):
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
    p = _proj((2, 3), seed)
    return lambda x, y: tsum(mul(add(x, y), p)), [a, b]


def _case_sub(seed):
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
    p = _proj((2, 3), seed)
    return lambda x, y: tsum(mul(sub(x, y), p)), [a, b]


def _case_mul(seed):
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
    p = _proj((2, 3), seed)
    return lambda x, y: tsum(mul(mul(x, y), p)), [a, b]


def _case_div(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2, 3))
    b = np.abs(rng.normal(size=(2, 3))) + 0.5
    p = _proj((2, 3), seed)
    return lambda x, y: tsum(mul(div(x, y), p)), [a, b]


def _case_matmul(seed):
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=(2, 3)), rng.normal(size=(3, 2))
    p = _proj((2, 2), seed)
    return lambda x, y: tsum(mul(matmul(x, y), p)), [a, b]


def _case_bmm(seed):
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=(2, 2, 3)), rng.normal(size=(2, 3, 2))
    p = _proj((2, 2, 2), seed)
    return lambda x, y: tsum(mul(bmm(x, y), p)), [a, b]


def _case_reshape(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2, 6))
    p = _proj((3, 4), seed)
    return lambda x: tsum(mul(reshape(x, (3, 4)), p)), [a]


def _case_transpose(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2, 3, 4))
    p = _proj((2, 4, 3), seed)
    return lambda x: tsum(mul(transpose(x, (0, 2, 1)), p)), [a]


def _case_tsum(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(3, 4))
    p = _proj((3, 1), seed)
    return lambda x: tsum(mul(tsum(x, axis=1, keepdims=True), p)), [a]


def _case_tmean(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(3, 4))
    p = _proj((3,), seed)
    return lambda x: tsum(mul(tmean(x, axis=1), p)), [a]


def _case_softmax(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2, 5))
    p = _proj((2, 5), seed)
    return lambda x: tsum(mul(softmax(x, axis=-1), p)), [a]


def _case_layer_norm(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2, 4))
    g = rng.normal(size=4)
    b = rng.normal(size=4)
    p = _proj((2, 4), seed)
    return lambda x, gg, bb: tsum(mul(layer_norm(x, gg, bb), p)), [a, g, b]


def _case_gelu(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2, 4))
    p = _proj((2, 4), seed)
    return lambda x: tsum(mul(gelu(x), p)), [a]


def _case_sqrt(seed):
    rng = np.random.default_rng(seed)
    a = np.abs(rng.normal(size=(2, 3))) + 0.5
    p = _proj((2, 3), seed)
    return lambda x: tsum(mul(sqrt(x), p)), [a]


def _case_clamp_min(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2, 4))
    a[np.abs(a) < 0.1] = 0.5  # keep away from the clamp kink
    p = _proj((2, 4), seed)
    return lambda x: tsum(mul(clamp_min(x, 0.0), p)), [a]


def _case_gather_rows(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(4, 3))
    idx = np.array([0, 2, 2, 1])  # repeated row exercises accumulation
    p = _proj((4, 3), seed)
    return lambda x: tsum(mul(gather_rows(x, idx), p)), [a]


def _case_ce_rows(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(3, 5))
    golds = np.array([1, 4, 0])
    return lambda x: tmean(cross_entropy_rows(x, golds)), [a]


def _case_bce(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=6)
    labels = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 0.0])
    return lambda x: tmean(bce_with_logits(x, labels)), [a]


GRAD_CASES = {
    "add": _case_add,
    "sub": _case_sub,
    "mul": _case_mul,
    "div": _case_div,
    "matmul": _case_matmul,
    "bmm": _case_bmm,
    "reshape": _case_reshape,
    "transpose": _case_transpose,
    "tsum": _case_tsum,
    "tmean": _case_tmean,
    "softmax": _case_softmax,
    "layer_norm": _case_layer_norm,
    "gelu": _case_gelu,
    "sqrt": _case_sqrt,
    "clamp_min": _case_clamp_min,
    "gather_rows": _case_gather_rows,
    "cross_entropy_rows": _case_ce_rows,
    "bce_with_logits": _case_bce,
}


@pytest.mark.parametrize("name", sorted(GRAD_CASES))
def test_gradcheck(name):
    for seed in SEEDS:
        fn, arrays = GRAD_CASES[name](seed)
        gradcheck(fn, arrays, tol=FD_TOL)


# ------------------------------------------------------- recording rule

# Each op of GRAD_CASES called once on that case's inputs.
SINGLE_OPS = {
    "add": add,
    "sub": sub,
    "mul": mul,
    "div": div,
    "matmul": matmul,
    "bmm": bmm,
    "reshape": lambda x: reshape(x, (3, 4)),
    "transpose": lambda x: transpose(x, (0, 2, 1)),
    "tsum": lambda x: tsum(x, axis=1, keepdims=True),
    "tmean": lambda x: tmean(x, axis=1),
    "softmax": softmax,
    "layer_norm": layer_norm,
    "gelu": gelu,
    "sqrt": sqrt,
    "clamp_min": lambda x: clamp_min(x, 0.0),
    "gather_rows": lambda x: gather_rows(x, [0, 2, 2, 1]),
    "cross_entropy_rows": lambda x: cross_entropy_rows(x, [1, 4, 0]),
    "bce_with_logits": lambda x: bce_with_logits(x, [1.0, 0.0, 1.0, 1.0, 0.0, 0.0]),
}
MULTI_PARENT_OPS = ("add", "sub", "mul", "div", "matmul", "bmm", "layer_norm")


def _op_inputs(name, requires):
    _, arrays = GRAD_CASES[name](0)
    return [t(a, grad=r) for a, r in zip(arrays, requires)]


@pytest.mark.parametrize("name", sorted(GRAD_CASES))
def test_recording_rule(name):
    op = SINGLE_OPS[name]
    n = len(GRAD_CASES[name](0)[1])

    out = op(*_op_inputs(name, [True] * n))
    assert not out.requires_grad  # no tape open

    with Tape() as tape:
        out = op(*_op_inputs(name, [False] * n))
    assert len(tape) == 0 and not out.requires_grad

    # All parents, then each parent alone, requiring a gradient.
    for requires in [[True] * n] + [[i == j for i in range(n)] for j in range(n)]:
        with Tape() as tape:
            for calls in (1, 2):
                out = op(*_op_inputs(name, requires))
                assert len(tape) == calls and out.requires_grad


def _grads(name, requires):
    inputs = _op_inputs(name, requires)
    with Tape() as tape:
        out = SINGLE_OPS[name](*inputs)
        loss = tsum(mul(out, _proj(out.shape, 0)))
    tape.backward(loss)
    return [x.grad for x in inputs]


@pytest.mark.parametrize("name", MULTI_PARENT_OPS)
def test_one_parent_requiring_grad_gets_the_full_gradient(name):
    full = _grads(name, [True] * len(GRAD_CASES[name](0)[1]))
    for which in range(len(full)):
        grads = _grads(name, [i == which for i in range(len(full))])
        for i, grad in enumerate(grads):
            if i == which:
                assert np.array_equal(grad, full[i])
            else:
                assert grad is None


# ------------------------------------------------------------- properties


def test_determinism_bitwise():
    def run():
        rng = np.random.default_rng(11)
        a = Tensor(rng.normal(size=(3, 4)).astype(np.float32), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)).astype(np.float32), requires_grad=True)
        with Tape() as tape:
            loss = tsum(gelu(matmul(a, b)))
        tape.backward(loss)
        return loss.data.copy(), a.grad.copy(), b.grad.copy()

    l1, ga1, gb1 = run()
    l2, ga2, gb2 = run()
    assert np.array_equal(l1, l2)
    assert np.array_equal(ga1, ga2)
    assert np.array_equal(gb1, gb2)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-50, max_value=50, allow_nan=False),
        min_size=2,
        max_size=8,
    )
)
def test_softmax_rows_sum_to_one(row):
    out = softmax(t([row]))
    assert abs(float(out.data.sum()) - 1.0) < 1e-6


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-100, max_value=100, allow_nan=False),
        min_size=2,
        max_size=8,
    )
)
def test_layer_norm_rows_centered(row):
    n = len(row)
    out = layer_norm(t([row]), t(np.ones(n)), t(np.zeros(n)))
    assert abs(float(out.data.mean())) < 1e-5


def test_float32_is_default_storage():
    x = Tensor(np.asarray([1.0, 2.0], dtype=np.float32))
    assert x.data.dtype == np.float32
    assert add(x, x).data.dtype == np.float32
