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

The encoder-block ops ``residual_attention`` and ``residual_ffn`` take their
large temporaries from a scratch arena when the op will not be recorded (no
tape open, or no parent requires a gradient): one buffer per thread, kept
in the thread-local state beside the tape stack, which every call reuses
from the front, so that a run of inference forwards does not free and fault
in fresh heap pages on each call. Recorded ops take fresh arrays, which
their backward reads. An unrecorded op keeps only the temporaries it reads
again, so the arena's written pages never exceed the largest single op's:
4 * (3 * hidden + n_heads * seq) bytes per stacked token for attention and
8 * ffn width bytes for the FFN, 1.38 MiB for 512 tokens at the README
shape (hidden 64, 8 heads, FFN width 256) and max_seq 64. The buffer grows
by doubling, so it reserves at most twice that. Scoring runs its forwards
on the calling thread and on helper threads that the evaluation module
starts for each call and joins before it returns, so a helper's arena is
freed with its thread and only the calling thread's lives for the process.
No op returns a view of the arena: every output is a fresh array.
"""

import math
import threading

import numpy as np

from .errors import ContractError, ShapeError

_GELU_C = float(np.sqrt(2.0 / np.pi))

ROW_NORM_EPS = 1e-8

# Each array carved from an arena starts a multiple of this many bytes (a
# cache line) into its buffer, which keeps float32 and float64 carves aligned.
_ARENA_ALIGN = 64

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


def _recording_tape(parents):
    """The open tape if one is open and some parent requires a gradient:
    the tape an op on these parents is recorded on. Otherwise None."""
    tape = active_tape()
    if tape is not None:
        for parent in parents:
            if parent.requires_grad:
                return tape
    return None


def _op(data, dtype, parents, backward_fn) -> Tensor:
    """An op's output tensor. ``backward_fn(g)``, which adds the gradient
    ``g`` of the output into the parents that require one, is recorded only
    when a tape is open and some parent requires a gradient."""
    out = Tensor(data, dtype=dtype)
    tape = _recording_tape(parents)
    if tape is not None:
        out.requires_grad = True
        tape._record(out, backward_fn)
    return out


class _Arena:
    """One byte buffer that only grows. An op carves its temporaries from
    the front with take() and starts again at the front on its next call, so
    a run of forwards reuses the same pages instead of freeing and
    faulting in fresh heap for every call."""

    __slots__ = ("buf", "used")

    def __init__(self):
        self.buf = np.empty(0, dtype=np.uint8)
        self.used = 0

    def start(self):
        """Hand the whole buffer to a new op; returns its allocator."""
        self.used = 0
        return self.take

    def take(self, shape, dtype, reuse=None):
        """An uninitialised array carved after the op's earlier ones. When
        it does not fit, a buffer at least twice as big replaces the old
        one, which lives on only as the base of the op's earlier arrays.

        reuse, a C-ordered temporary of the op that it no longer reads,
        lends its memory instead when it has the dtype and is big enough."""
        dtype = np.dtype(dtype)
        n = math.prod(shape)
        if reuse is not None and reuse.dtype == dtype and reuse.size >= n:
            return np.ndarray(shape, dtype, reuse)
        lo = -(-self.used // _ARENA_ALIGN) * _ARENA_ALIGN
        self.used = hi = lo + n * dtype.itemsize
        if hi > self.buf.size:
            self.buf = np.empty(max(hi, 2 * self.buf.size), dtype=np.uint8)
        return np.ndarray(shape, dtype, self.buf, lo)


def _fresh(shape, dtype, reuse=None):
    """A new array. A recorded op's backward may read any of its forward
    temporaries, so none lends its memory."""
    return np.empty(shape, dtype)


def _allocator(parents):
    """How an op on these parents allocates its large temporaries,
    new(shape, dtype, reuse=None): fresh arrays when the op will be
    recorded, since its backward reads them, and otherwise the thread's
    arena, since nothing reads them after the op returns."""
    if _recording_tape(parents) is not None:
        return _fresh
    arena = getattr(_state, "arena", None)
    if arena is None:
        arena = _state.arena = _Arena()
    return arena.start()


def _matmul(x, y, new, reuse=None):
    """x @ y written into new(shape, dtype, reuse)."""
    return np.matmul(x, y, out=new(x.shape[:-1] + y.shape[-1:], np.result_type(x, y), reuse))


def _copy(t, new, reuse=None):
    """A C-ordered copy of t in new(shape, dtype, reuse)."""
    out = new(t.shape, t.dtype, reuse)
    np.copyto(out, t)
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


def mul(a, b) -> Tensor:
    return _binary(a, b, lambda x, y: x * y, lambda g, x, y, o: g * y, lambda g, x, y, o: g * x)


def matmul(a, b) -> Tensor:
    a = _as_tensor(a)
    b = _as_tensor(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {tuple(a.shape)} x {tuple(b.shape)}")

    def _bwd(g):
        if a.requires_grad:
            a._accum(g @ b.data.T)
        if b.requires_grad:
            b._accum(a.data.T @ g)

    return _op(a.data @ b.data, np.result_type(a.dtype, b.dtype), (a, b), _bwd)


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
    # add.reduce / h, not np.mean: the same bits (a float64 quotient rounded
    # to float32 is the correctly rounded float32 quotient) without the
    # wrapper's overhead. x - mu is computed once and scaled into xhat in
    # place, and its square is xhat * xhat, the bits of NumPy's xhat**2.
    mu = np.add.reduce(x.data, axis=-1, keepdims=True) / h
    xhat = x.data - mu
    var = np.add.reduce(xhat * xhat, axis=-1, keepdims=True) / h
    inv_std = 1.0 / np.sqrt(var + np.asarray(eps, dtype=x.dtype))
    xhat *= inv_std
    out = xhat * gain.data
    out += bias.data

    def _bwd(g):
        lead_axes = tuple(range(x.ndim - 1))
        if gain.requires_grad:
            gain._accum(np.add.reduce(g * xhat, axis=lead_axes))
        if bias.requires_grad:
            bias._accum(np.add.reduce(g, axis=lead_axes))
        if x.requires_grad:
            # inv_std * (dxhat - m1 - xhat * m2), step by step in place.
            dxhat = g * gain.data
            m1 = np.add.reduce(dxhat, axis=-1, keepdims=True) / h
            t = dxhat * xhat
            m2 = np.add.reduce(t, axis=-1, keepdims=True) / h
            np.multiply(xhat, m2, out=t)
            dxhat -= m1
            dxhat -= t
            dxhat *= inv_std
            x._accum(dxhat)

    return _op(out, x.dtype, (x, gain, bias), _bwd)


def _move_heads(t, split, shape, new, view, reuse=None):
    """Reshape the C-ordered t to split, swap its two middle axes and
    reshape to shape. With view set, which the callers set exactly where
    reshape returns a view, the result is that view: copying there would
    change the layout the matmuls it feeds hand to BLAS. Otherwise it is a
    C-ordered copy into new(..., reuse), laid out as Tensor._accum lays out a
    gradient, so that those matmuls pick the same BLAS kernel."""
    moved = t.reshape(split).transpose(0, 2, 1, 3)
    if view:
        return moved.reshape(shape)
    return _copy(moved, new, reuse).reshape(shape)


def _split_heads(t, batch, seq, n_heads, new, fresh=False, strided=False):
    """[batch*seq, hidden] -> [batch*n_heads, seq, head_dim]: a view when
    batch, seq or n_heads is 1, else (and always with fresh) a copy. With
    strided, the view [batch, n_heads, seq, head_dim] of t at every shape."""
    if strided:
        return t.reshape(batch, seq, n_heads, -1).transpose(0, 2, 1, 3)
    view = not fresh and 1 in (batch, seq, n_heads)
    return _move_heads(t, (batch, seq, n_heads, -1), (batch * n_heads, seq, -1), new, view)


def _merge_heads(t, batch, seq, n_heads, new, fresh=False, reuse=None):
    """[batch*n_heads, seq, head_dim] -> [batch*seq, hidden], the inverse of
    _split_heads: a view when seq or n_heads is 1, else (and always with
    fresh) a copy."""
    view = not fresh and 1 in (seq, n_heads)
    return _move_heads(t, (batch, n_heads, seq, -1), (batch * seq, -1), new, view, reuse)


def residual_attention(x, a, wq, wk, wv, wo, seq: int, n_heads: int, query=None) -> Tensor:
    """x + merge(softmax(q @ k^T / sqrt(head_dim)) @ v) @ wo as one tape op,
    where q, k and v are the head-split projections a @ wq, a @ wk and a @ wv;
    x and a are [batch*seq, hidden] and head_dim is hidden // n_heads.

    With query, an int array [batch] of positions, only the rows
    rows = arange(batch)*seq + query are computed: q is projected from
    a[rows] alone (k and v still from every row) and the result is
    x[rows] + attn @ wo, shaped [batch, hidden]. The backward scatters the
    gradients of x and of the q-side of a into those rows.

    Without query the backward makes the NumPy calls that the unfused chain
    of matmul, head split/merge, batched product, scale, softmax and residual
    add made in reverse tape order: the residual gradient into x, then wo,
    the attention core, and the projections v, k, q, each adding into a and
    then into its weight. Gradients are therefore bit-identical to that
    chain's.
    """
    x, a, wq, wk, wv, wo = (_as_tensor(t) for t in (x, a, wq, wk, wv, wo))
    h = x.shape[-1] if x.ndim else 0
    if (
        x.ndim != 2
        or a.shape != x.shape
        or any(w.shape != (h, h) for w in (wq, wk, wv, wo))
        or seq < 1
        or x.shape[0] % seq
        or n_heads < 1
        or h % n_heads
    ):
        raise ShapeError(
            f"residual_attention: x {tuple(x.shape)}, a {tuple(a.shape)} and (hidden, hidden)"
            f" weights do not fit seq {seq} and {n_heads} heads"
        )
    batch = x.shape[0] // seq
    if query is None:
        n_q, x_q, a_q = seq, x.data, a.data
    else:
        query = np.asarray(query, dtype=np.int64)
        if query.shape != (batch,):
            raise ShapeError(f"residual_attention: query must have shape ({batch},), got {query.shape}")
        if batch and (query.min() < 0 or query.max() >= seq):
            raise IndexError(f"residual_attention: query position outside a sequence of {seq}")
        rows = np.arange(batch, dtype=np.int64) * seq + query
        n_q, x_q, a_q = 1, x.data[rows], a.data[rows]

    def scatter(d):
        """A [batch, hidden] gradient of the query rows as a gradient of
        every row; the rows are distinct, so assignment suffices."""
        if query is None:
            return d
        full = np.zeros((x.shape[0], h), dtype=d.dtype)
        full[rows] = d
        return full

    # Every temporary below comes from new; only the result is a fresh array.
    # Unrecorded, the heads are [batch, n_heads, seq, head_dim] strided views
    # of their projections, except k on the query path: there a strided k
    # sends the one-row products to another BLAS kernel, which rounds
    # differently. Recorded, they are _split_heads' views and copies, which
    # the backward reads.
    new = _allocator((x, a, wq, wk, wv, wo))
    lean = new is not _fresh

    def heads(t, n, strided):
        split = _split_heads(t, batch, n, n_heads, new, strided=strided)
        return split.reshape(batch, n_heads, n, -1) if lean else split

    q_proj, k_proj = _matmul(a_q, wq.data, new), _matmul(a.data, wk.data, new)
    q = heads(q_proj, n_q, lean)
    k = heads(k_proj, seq, lean and query is None)
    v = heads(_matmul(a.data, wv.data, new), seq, lean)
    kt = k.swapaxes(-1, -2)
    # The scores are scaled, shifted, exponentiated and normalised in place.
    # The row maxima are taken down the columns of a transposed copy of the
    # score rows: a maximum is exact in any order, and a last-axis reduction
    # over many short rows is slow. Unrecorded, the copy is made a block of
    # rows at a time into k's projection, which nothing reads once the
    # scores exist; recorded, it is one fresh array.
    p = _matmul(q, kt, new)
    scale = np.asarray(1.0 / math.sqrt(h // n_heads), dtype=p.dtype)
    p *= scale
    score_rows = p.reshape(-1, seq)
    row_max = np.empty(len(score_rows), p.dtype)
    step = max(1, k_proj.size // seq if lean else len(score_rows))
    for lo in range(0, len(score_rows), step):
        block = _copy(score_rows[lo : lo + step].T, new, k_proj)
        np.maximum.reduce(block, axis=0, out=row_max[lo : lo + step])
    p -= row_max.reshape(*p.shape[:-1], 1)
    np.exp(p, out=p)
    p /= np.add.reduce(p, axis=-1, keepdims=True)
    # Once the scores are formed, only a backward reads q and k, so their
    # projections can take the context and its head merge.
    ctx = _merge_heads(_matmul(p, v, new, q_proj), batch, n_q, n_heads, new, reuse=k_proj)
    data = ctx @ wo.data
    data += x_q

    def _bwd(g):
        if x.requires_grad:
            x._accum(scatter(g))
        need_q, need_k, need_v = (a.requires_grad or w.requires_grad for w in (wq, wk, wv))
        if need_q or need_k or need_v:
            d_ctx = _split_heads(g @ wo.data.T, batch, n_q, n_heads, _fresh, fresh=True)
        if wo.requires_grad:
            wo._accum(ctx.T @ g)
        d_q = d_k = d_v = None
        if need_q or need_k:
            # (d_p - rowsum(d_p * p)) * p * scale, step by step in place.
            d_s = d_ctx @ v.swapaxes(-1, -2)
            d_s -= np.add.reduce(d_s * p, axis=-1, keepdims=True)
            d_s *= p
            d_s *= scale
            if need_q:
                d_q = d_s @ kt.swapaxes(-1, -2)
            if need_k:
                d_k = (q.swapaxes(-1, -2) @ d_s).swapaxes(-1, -2)
        if need_v:
            d_v = p.swapaxes(-1, -2) @ d_ctx
        for w, d, a_in, q_side in ((wv, d_v, a.data, False), (wk, d_k, a.data, False), (wq, d_q, a_q, True)):
            if d is not None:
                d = _merge_heads(d, batch, n_q if q_side else seq, n_heads, _fresh, fresh=True)
                if a.requires_grad:
                    d_a = d @ w.data.T
                    a._accum(scatter(d_a) if q_side else d_a)
                if w.requires_grad:
                    w._accum(a_in.T @ d)

    return _op(data, data.dtype, (x, a, wq, wk, wv, wo), _bwd)


def residual_ffn(x, b, w1, w2) -> Tensor:
    """x + gelu(b @ w1) @ w2 as one tape op, with the tanh-approximation GELU;
    x and b are [rows, hidden].

    The backward makes the NumPy calls of the unfused matmul, GELU, matmul,
    add chain in reverse tape order (x, w2, GELU, then b and w1), so
    gradients are bit-identical to that chain's.
    """
    x, b, w1, w2 = (_as_tensor(t) for t in (x, b, w1, w2))
    if (
        x.ndim != 2
        or b.shape != x.shape
        or w1.ndim != 2
        or w1.shape[0] != x.shape[1]
        or w2.shape != (w1.shape[1], x.shape[1])
    ):
        raise ShapeError(
            f"residual_ffn: incompatible shapes x {tuple(x.shape)}, b {tuple(b.shape)},"
            f" w1 {tuple(w1.shape)}, w2 {tuple(w2.shape)}"
        )
    # Every temporary below comes from new; only the result is a fresh array.
    new = _allocator((x, b, w1, w2))
    z = _matmul(b.data, w1.data, new)
    c = np.asarray(_GELU_C, dtype=z.dtype)
    # tanh(c * (z + 0.044715 * z*z*z)) and 0.5 * z * (1 + t), each step in
    # place in the order of the expression (products and sums commute
    # exactly). z * z * z, not z**3: NumPy's float32 cube is a slow pow()
    # per element.
    t = np.multiply(z, z, out=new(z.shape, z.dtype))
    t *= z
    t *= np.asarray(0.044715, dtype=z.dtype)
    t += z
    t *= c
    np.tanh(t, out=t)
    # Only a backward reads z and t from here on, so 0.5 * z and 1 + t can
    # take their memory.
    act = np.multiply(0.5, z, out=new(z.shape, z.dtype, z))
    act *= np.add(1.0, t, out=new(z.shape, z.dtype, t))
    data = act @ w2.data
    data += x.data

    def _bwd(g):
        if x.requires_grad:
            x._accum(g)
        need = b.requires_grad or w1.requires_grad
        if need:
            d_act = g @ w2.data.T
        if w2.requires_grad:
            w2._accum(act.T @ g)
        if not need:
            return
        # d_z = d_act * (0.5 * (1 + t) + 0.5 * z * (1 - t * t) * du) with
        # du = c * (1 + 3 * 0.044715 * z**2), step by step in place; z * z
        # gives the bits of NumPy's z**2.
        du = z * z
        du *= np.asarray(3 * 0.044715, dtype=z.dtype)
        du += 1.0
        du *= c
        d_gelu = t * t
        np.subtract(1.0, d_gelu, out=d_gelu)
        tail = 0.5 * z
        tail *= d_gelu
        tail *= du
        np.add(t, 1.0, out=d_gelu)
        d_gelu *= 0.5
        d_gelu += tail
        d_z = d_act
        d_z *= d_gelu
        if b.requires_grad:
            b._accum(d_z @ w1.data.T)
        if w1.requires_grad:
            w1._accum(b.data.T @ d_z)

    return _op(data, data.dtype, (x, b, w1, w2), _bwd)


def dora_norm(vt) -> np.ndarray:
    """The per-output-feature norms sqrt(max(sum of squares, 1e-16)) of a
    direction stored input-by-output, [d_in, d_out], computed as dora_weight
    computes them: a magnitude built with this from a base gives back
    exactly that base while b = 0."""
    lo = np.asarray(ROW_NORM_EPS * ROW_NORM_EPS, dtype=vt.dtype)
    return np.sqrt(np.maximum(np.einsum("ij,ij->j", vt, vt), lo))


def dora_weight(w0, a, b, m) -> Tensor:
    """The DoRA effective weight V^T * (m / n) as one tape op, laid out like
    the frozen base w0 [d_in, d_out] (no gradient reaches it): V^T = w0 +
    a^T @ b^T for a [rank, d_in], b [d_out, rank] and m [d_out], and n holds
    the norms of V^T's columns, sqrt(max(sum of squares, 1e-16)). The result
    is a C-ordered array, and the backward is finite on all-zero columns.

    The backward is the closed form of the DoRA paper (Liu et al. 2024,
    arXiv 2402.09353), with c the column dots of the output gradient g and
    V^T: dm = c / n, dV^T = g * s - (dm * s / n) * V^T for s = m / n (no
    second term on a clamped column), dB = (a @ dV^T)^T and dA = (dV^T @ b)^T.
    """
    w0 = _as_tensor(w0).data
    a, b, m = (_as_tensor(t) for t in (a, b, m))
    d_in, d_out = w0.shape if w0.ndim == 2 else (-1, -1)
    if a.ndim != 2 or a.shape[1] != d_in or b.shape != (d_out, a.shape[0]) or m.shape != (d_out,):
        raise ShapeError(
            f"dora_weight: incompatible shapes w0 {w0.shape}, a {a.shape}, b {b.shape}, m {m.shape}"
        )
    vt = a.data.T @ b.data.T
    vt += w0
    norm = dora_norm(vt)
    scale = m.data / norm
    eff = vt * scale

    def _bwd(g):
        dm = np.einsum("ij,ij->j", g, vt)
        dm /= norm
        if m.requires_grad:
            m._accum(dm)
        if not (a.requires_grad or b.requires_grad):
            return
        coef = dm * scale
        coef /= norm
        coef *= norm > ROW_NORM_EPS  # a clamped norm is exactly ROW_NORM_EPS
        d_vt = g * scale
        d_vt -= coef * vt
        if b.requires_grad:
            b._accum((a.data @ d_vt).T)
        if a.requires_grad:
            a._accum((d_vt @ b.data).T)

    return _op(eff, eff.dtype, (a, b, m), _bwd)


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
    m = np.maximum.reduce(logits.data, axis=1, keepdims=True)
    z = logits.data - m
    lse = m[:, 0] + np.log(np.add.reduce(np.exp(z), axis=1))

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
