"""Dense tensors with reverse-mode automatic differentiation on an explicit tape.

Storage and compute are float32. A float64 path exists solely so test
oracles can run finite-difference checks without float32 rounding noise;
production code never passes dtype explicitly.

Every operation builds its output through :func:`_op`, which records the
op's backward function onto the active :class:`Tape` (opened with a
``with`` block) whenever any input requires a gradient. Gradients
accumulate additively, so a tensor used twice receives the sum of both
contributions. A tape can be walked backward exactly once.

A tape and the tensors it records are confined to one thread; tensors that
never require gradients are immutable after construction and may be shared
across threads for read-only inference.
"""

import threading

import numpy as np

from .errors import ContractError, ShapeError

_GELU_C = float(np.sqrt(2.0 / np.pi))

_state = threading.local()


def _tape_stack():
    stack = getattr(_state, "stack", None)
    if stack is None:
        stack = []
        _state.stack = stack
    return stack


def active_tape():
    """The innermost open Tape on this thread, or None."""
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tape:
    """Ordered record of operations for one forward pass.

    Operations are appended in forward order as ``(out, backward)``;
    ``backward`` walks them in reverse, calling ``backward(out.grad)``.
    Re-running backward without a fresh forward is an error.
    """

    def __init__(self):
        self._ops = []
        self._produced = set()
        self._consumed = False

    def __enter__(self):
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _tape_stack().pop()
        assert popped is self
        return False

    def _record(self, out, backward_fn):
        self._ops.append((out, backward_fn))
        self._produced.add(id(out))

    def __len__(self):
        return len(self._ops)

    def backward(self, loss):
        if self._consumed:
            raise ContractError("tape already walked backward; run a new forward pass")
        if not isinstance(loss, Tensor) or loss.data.ndim != 0:
            raise ContractError("backward requires a scalar loss tensor")
        if id(loss) not in self._produced:
            raise ContractError("loss was not produced on this tape")
        self._consumed = True
        loss.grad = np.ones((), dtype=loss.data.dtype)
        for out, fn in reversed(self._ops):
            fn(out.grad)


def backward(tape: Tape, loss) -> None:
    """Populate .grad on every requires-grad tensor reachable from loss."""
    tape.backward(loss)


class Tensor:
    """A row-major float array plus an optional gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if dtype is None:
            # Preserve an explicit float64 array (the test-oracle path);
            # everything else becomes float32.
            if isinstance(data, np.ndarray) and data.dtype == np.float64:
                dtype = np.float64
            else:
                dtype = np.float32
        elif dtype not in (np.float32, np.float64):
            raise ContractError("Tensor supports float32 (default) and float64 only")
        self.data = np.asarray(data, dtype=dtype)
        self.grad = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def _accum(self, g) -> None:
        # The first contribution is copied into a buffer laid out like
        # ``data``: a transposed (F-order) ``g`` must not make the gradient
        # F-order, or later matmuls on it pick a different BLAS kernel.
        if self.grad is None:
            self.grad = np.empty_like(self.data)
            np.copyto(self.grad, g)
        else:
            self.grad += g

    def __repr__(self):
        return f"Tensor(shape={tuple(self.shape)}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"


def _as_tensor(x, dtype_hint=np.float32) -> Tensor:
    if isinstance(x, Tensor):
        return x
    if isinstance(x, np.ndarray) and x.dtype == np.float64:
        return Tensor(x, dtype=np.float64)
    if isinstance(x, (int, float, np.floating)):
        return Tensor(np.asarray(x, dtype=dtype_hint), dtype=dtype_hint)
    return Tensor(x)


def _op(data, dtype, parents, backward_fn) -> Tensor:
    """An op's output tensor. ``backward_fn(g)``, which adds the gradient
    ``g`` of the output into the parents that require one, is recorded only
    when a tape is open and some parent requires a gradient."""
    out = Tensor(data, dtype=dtype)
    tape = active_tape()
    if tape is not None:
        for parent in parents:
            if parent.requires_grad:
                out.requires_grad = True
                tape._record(out, backward_fn)
                break
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Reduce a broadcast gradient back down to an input's shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def _binary(a, b, fwd, bwd_a, bwd_b):
    a = _as_tensor(a)
    b = _as_tensor(b, dtype_hint=a.dtype)
    x, y = a.data, b.data
    o = fwd(x, y)

    def _bwd(g):
        if a.requires_grad:
            a._accum(_unbroadcast(bwd_a(g, x, y, o), a.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(bwd_b(g, x, y, o), b.shape))

    return _op(o, np.result_type(a.dtype, b.dtype), (a, b), _bwd)


def add(a, b) -> Tensor:
    return _binary(a, b, lambda x, y: x + y, lambda g, x, y, o: g, lambda g, x, y, o: g)


def sub(a, b) -> Tensor:
    return _binary(a, b, lambda x, y: x - y, lambda g, x, y, o: g, lambda g, x, y, o: -g)


def mul(a, b) -> Tensor:
    return _binary(a, b, lambda x, y: x * y, lambda g, x, y, o: g * y, lambda g, x, y, o: g * x)


def div(a, b) -> Tensor:
    """Elementwise a / b. Callers must keep b bounded away from zero; the
    guarded paths in this package clamp denominators before dividing."""
    return _binary(
        a, b, lambda x, y: x / y, lambda g, x, y, o: g / y, lambda g, x, y, o: -g * o / y
    )


def _product(a, b) -> Tensor:
    """a @ b over the last two axes, for matmul and bmm."""

    def _bwd(g):
        if a.requires_grad:
            a._accum(g @ np.swapaxes(b.data, -1, -2))
        if b.requires_grad:
            b._accum(np.swapaxes(a.data, -1, -2) @ g)

    return _op(a.data @ b.data, np.result_type(a.dtype, b.dtype), (a, b), _bwd)


def matmul(a, b) -> Tensor:
    a = _as_tensor(a)
    b = _as_tensor(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {tuple(a.shape)} x {tuple(b.shape)}")
    return _product(a, b)


def bmm(a, b) -> Tensor:
    """Batched matmul over matching leading dimension: [n,p,q] x [n,q,r]."""
    a = _as_tensor(a)
    b = _as_tensor(b)
    if (
        a.ndim != 3
        or b.ndim != 3
        or a.shape[0] != b.shape[0]
        or a.shape[2] != b.shape[1]
    ):
        raise ShapeError(f"bmm: incompatible shapes {tuple(a.shape)} x {tuple(b.shape)}")
    return _product(a, b)


def transpose(a, axes) -> Tensor:
    a = _as_tensor(a)
    axes = tuple(axes)

    def _bwd(g):
        a._accum(np.transpose(g, tuple(np.argsort(axes))))

    return _op(np.transpose(a.data, axes), a.dtype, (a,), _bwd)


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)

    def _bwd(g):
        a._accum(np.reshape(g, a.data.shape))

    return _op(np.reshape(a.data, shape), a.dtype, (a,), _bwd)


def gather_rows(a, indices) -> Tensor:
    """Select rows of a 2-D tensor by integer index; backward scatter-adds."""
    a = _as_tensor(a)
    if a.ndim != 2:
        raise ShapeError(f"gather_rows expects a 2-D tensor, got shape {tuple(a.shape)}")
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError("gather_rows expects a 1-D index array")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise IndexError(f"gather_rows: index out of range for {a.shape[0]} rows")

    def _bwd(g):
        buf = np.zeros_like(a.data)
        np.add.at(buf, idx, g)
        a._accum(buf)

    return _op(a.data[idx], a.dtype, (a,), _bwd)


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)

    def _bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a._accum(np.broadcast_to(g, a.data.shape).copy())

    return _op(np.sum(a.data, axis=axis, keepdims=keepdims), a.dtype, (a,), _bwd)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)

    def _bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        count = a.data.size if axis is None else a.data.shape[axis]
        a._accum(np.broadcast_to(g, a.data.shape) / np.asarray(count, dtype=a.dtype))

    return _op(np.mean(a.data, axis=axis, keepdims=keepdims), a.dtype, (a,), _bwd)


def softmax(x, axis: int = -1) -> Tensor:
    """Softmax along one axis, computed with max-subtraction for stability."""
    x = _as_tensor(x)
    shifted = x.data - np.max(x.data, axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / np.sum(e, axis=axis, keepdims=True)

    def _bwd(g):
        inner = np.sum(g * y, axis=axis, keepdims=True)
        x._accum((g - inner) * y)

    return _op(y, x.dtype, (x,), _bwd)


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Zero-mean unit-variance normalization over the last axis, then affine."""
    x = _as_tensor(x)
    gain = _as_tensor(gain, dtype_hint=x.dtype)
    bias = _as_tensor(bias, dtype_hint=x.dtype)
    h = x.shape[-1]
    if gain.shape != (h,) or bias.shape != (h,):
        raise ShapeError(
            f"layer_norm: gain/bias must have shape ({h},), got {tuple(gain.shape)} and {tuple(bias.shape)}"
        )
    if eps <= 0:
        raise ContractError("layer_norm: eps must be positive")
    mu = np.mean(x.data, axis=-1, keepdims=True)
    var = np.mean((x.data - mu) ** 2, axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + np.asarray(eps, dtype=x.dtype))
    xhat = (x.data - mu) * inv_std

    def _bwd(g):
        lead_axes = tuple(range(x.ndim - 1))
        if gain.requires_grad:
            gain._accum(np.sum(g * xhat, axis=lead_axes))
        if bias.requires_grad:
            bias._accum(np.sum(g, axis=lead_axes))
        if x.requires_grad:
            dxhat = g * gain.data
            m1 = np.mean(dxhat, axis=-1, keepdims=True)
            m2 = np.mean(dxhat * xhat, axis=-1, keepdims=True)
            x._accum(inv_std * (dxhat - m1 - xhat * m2))

    return _op(xhat * gain.data + bias.data, x.dtype, (x, gain, bias), _bwd)


def gelu(x) -> Tensor:
    """Tanh-approximation GELU, elementwise."""
    x = _as_tensor(x)
    c = np.asarray(_GELU_C, dtype=x.dtype)
    # x * x * x, not x**3: NumPy's float32 cube is a slow pow() per element.
    u = c * (x.data + np.asarray(0.044715, dtype=x.dtype) * (x.data * x.data * x.data))
    t = np.tanh(u)

    def _bwd(g):
        du = c * (1.0 + np.asarray(3 * 0.044715, dtype=x.dtype) * x.data**2)
        dx = 0.5 * (1.0 + t) + 0.5 * x.data * (1.0 - t * t) * du
        x._accum(g * dx)

    return _op(0.5 * x.data * (1.0 + t), x.dtype, (x,), _bwd)


def sqrt(x) -> Tensor:
    """Elementwise square root; inputs must be strictly positive for a finite
    backward (the package always clamps first, see clamp_min)."""
    x = _as_tensor(x)
    root = np.sqrt(x.data)

    def _bwd(g):
        x._accum(g * 0.5 / root)

    return _op(root, x.dtype, (x,), _bwd)


def clamp_min(x, lo: float) -> Tensor:
    """max(x, lo) elementwise; clamped entries get zero gradient."""
    x = _as_tensor(x)

    def _bwd(g):
        x._accum(g * (x.data > lo))

    return _op(np.maximum(x.data, np.asarray(lo, dtype=x.dtype)), x.dtype, (x,), _bwd)


def cross_entropy_rows(logits, golds) -> Tensor:
    """Row-wise cross entropy: logits [n, v], golds [n] -> losses [n]."""
    logits = _as_tensor(logits)
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy_rows expects 2-D logits, got {tuple(logits.shape)}")
    n, v = logits.shape
    idx = np.asarray(golds, dtype=np.int64)
    if idx.shape != (n,):
        raise ShapeError(f"cross_entropy_rows: golds must have shape ({n},)")
    if idx.size and (idx.min() < 0 or idx.max() >= v):
        raise IndexError(f"gold id out of range for vocabulary of {v}")
    m = np.max(logits.data, axis=1, keepdims=True)
    z = logits.data - m
    lse = m[:, 0] + np.log(np.sum(np.exp(z), axis=1))

    def _bwd(g):
        e = np.exp(z)
        p = e / e.sum(axis=1, keepdims=True)
        p[np.arange(n), idx] -= 1.0
        logits._accum(g[:, None] * p)

    return _op(lse - logits.data[np.arange(n), idx], logits.dtype, (logits,), _bwd)


def bce_with_logits(scores, labels) -> Tensor:
    """Per-element binary cross entropy on raw scores; labels in {0, 1}.

    Uses the overflow-safe form max(s,0) - s*y + log(1 + exp(-|s|)).
    """
    scores = _as_tensor(scores)
    y = np.asarray(labels, dtype=scores.dtype)
    if y.shape != scores.shape:
        raise ShapeError(
            f"bce_with_logits: labels shape {y.shape} != scores shape {tuple(scores.shape)}"
        )
    s = scores.data

    def _bwd(g):
        sig = 1.0 / (1.0 + np.exp(-s))
        scores._accum(g * (sig - y))

    return _op(np.maximum(s, 0) - s * y + np.log1p(np.exp(-np.abs(s))), scores.dtype, (scores,), _bwd)
