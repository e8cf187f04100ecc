"""Shared test oracles: finite differences, loop-level references.

Everything here is written independently of the package internals so the
tests check the implementation against a second derivation, not against
itself. Oracles run in float64.
"""

import json
import math

import numpy as np

from clozerm.tensor import Tape, Tensor, _binary, _op, add, matmul, mul, reshape, tsum

FD_H = 1e-3
FD_TOL = 1e-3
FD_FLOOR = 1e-4


def run_scalar(fn, arrays):
    """Evaluate fn on plain (no-grad) tensors; returns a python float."""
    out = fn(*[Tensor(a.copy()) for a in arrays])
    return float(out.data)


def gradcheck(fn, arrays, h=FD_H, tol=FD_TOL, floor=FD_FLOOR):
    """Central finite differences against analytic gradients, float64 path.

    fn maps len(arrays) tensors to a scalar Tensor. Relative error uses
    denominator max(|analytic|, |numeric|, floor). Returns the worst
    relative error so callers can report it.
    """
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    with Tape() as tape:
        loss = fn(*tensors)
    tape.backward(loss)

    worst = 0.0
    for which, base in enumerate(arrays):
        grad = tensors[which].grad
        assert grad is not None, f"input {which} received no gradient"
        grad = np.asarray(grad, dtype=np.float64).reshape(-1)
        flat = base.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            up = run_scalar(fn, arrays)
            flat[idx] = orig - h
            down = run_scalar(fn, arrays)
            flat[idx] = orig
            numeric = (up - down) / (2.0 * h)
            denom = max(abs(grad[idx]), abs(numeric), floor)
            worst = max(worst, abs(grad[idx] - numeric) / denom)
    assert worst < tol, f"finite-difference mismatch: worst rel err {worst:.3e}"
    return worst


def matmul_loops(a, b):
    """Triple-loop matrix product, no numpy matmul."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def gelu_scalar(x: float) -> float:
    c = math.sqrt(2.0 / math.pi)
    return 0.5 * x * (1.0 + math.tanh(c * (x + 0.044715 * x**3)))


def layer_norm_rows(x, gain, bias, eps=1e-5):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    for i in range(x.shape[0]):
        row = x[i]
        mu = row.mean()
        var = ((row - mu) ** 2).mean()
        out[i] = (row - mu) / math.sqrt(var + eps) * gain + bias
    return out


def softmax_vec(v):
    v = np.asarray(v, dtype=np.float64)
    e = np.exp(v - v.max())
    return e / e.sum()


def encoder_loops(weights, config, ids):
    """Loop-level encoder reference: explicit per-position attention and FFN.

    Mirrors the declared architecture (pre-LN residual blocks, learned
    absolute positions, tanh GELU, scale 1/sqrt(head_dim), final LN) using
    python loops and float64. Returns [seq, hidden] final hidden states.
    """
    ids = list(ids)
    seq = len(ids)
    h = config.hidden
    nh = config.n_heads
    dh = h // nh
    w = {k: np.asarray(v, dtype=np.float64) for k, v in weights.items()}

    x = np.zeros((seq, h), dtype=np.float64)
    for i, tok in enumerate(ids):
        x[i] = w["tok_emb"][tok] + w["pos_emb"][i]

    for li in range(config.n_layers):
        p = f"layer{li}."
        a = layer_norm_rows(x, w[p + "ln1.gain"], w[p + "ln1.bias"])
        q = matmul_loops(a, w[p + "wq"])
        k = matmul_loops(a, w[p + "wk"])
        v = matmul_loops(a, w[p + "wv"])
        ctx = np.zeros((seq, h), dtype=np.float64)
        for head in range(nh):
            lo, hi = head * dh, (head + 1) * dh
            for i in range(seq):
                scores = np.empty(seq, dtype=np.float64)
                for j in range(seq):
                    scores[j] = float(q[i, lo:hi] @ k[j, lo:hi]) / math.sqrt(dh)
                probs = softmax_vec(scores)
                for j in range(seq):
                    ctx[i, lo:hi] += probs[j] * v[j, lo:hi]
        x = x + matmul_loops(ctx, w[p + "wo"])

        b = layer_norm_rows(x, w[p + "ln2.gain"], w[p + "ln2.bias"])
        inner = matmul_loops(b, w[p + "w1"])
        for i in range(inner.shape[0]):
            for j in range(inner.shape[1]):
                inner[i, j] = gelu_scalar(inner[i, j])
        x = x + matmul_loops(inner, w[p + "w2"])

    return layer_norm_rows(x, w["final_ln.gain"], w["final_ln.bias"])


def head_loops(weights, hidden_rows):
    w = np.asarray(weights["head.w"], dtype=np.float64)
    b = np.asarray(weights["head.b"], dtype=np.float64)
    return matmul_loops(np.atleast_2d(hidden_rows), w) + b



# The encoder block and the DoRA effective weight as chains of single tape
# ops (matmul, head split and merge, batched product, scale, softmax, GELU,
# residual add; add, square, row sum, clamp, square root, division, scale,
# transpose): the oracles for the bit-identity of the fused ops. Each
# backward is recorded on the tape, so the tape alone fixes the order in
# which gradients add up. test_tensor checks the single ops defined here
# like the package's ops.


def transpose(a, axes):
    def _bwd(g):
        a._accum(np.transpose(g, tuple(np.argsort(axes))))

    return _op(np.transpose(a.data, axes), a.dtype, (a,), _bwd)


def div(a, b):
    return _binary(a, b, lambda x, y: x / y, lambda g, x, y, o: g / y, lambda g, x, y, o: -g * o / y)


def sqrt(x):
    root = np.sqrt(x.data)

    def _bwd(g):
        x._accum(g * 0.5 / root)

    return _op(root, x.dtype, (x,), _bwd)


def clamp_min(x, lo):
    def _bwd(g):
        x._accum(g * (x.data > lo))

    return _op(np.maximum(x.data, np.asarray(lo, dtype=x.dtype)), x.dtype, (x,), _bwd)


def bmm(a, b):
    def _bwd(g):
        if a.requires_grad:
            a._accum(g @ np.swapaxes(b.data, -1, -2))
        if b.requires_grad:
            b._accum(np.swapaxes(a.data, -1, -2) @ g)

    return _op(a.data @ b.data, a.dtype, (a, b), _bwd)


def softmax(x):
    e = np.exp(x.data - np.max(x.data, axis=-1, keepdims=True))
    y = e / np.sum(e, axis=-1, keepdims=True)

    def _bwd(g):
        x._accum((g - np.sum(g * y, axis=-1, keepdims=True)) * y)

    return _op(y, x.dtype, (x,), _bwd)


def gelu(x):
    c = np.asarray(math.sqrt(2.0 / math.pi), dtype=x.dtype)
    t = np.tanh(c * (x.data + np.asarray(0.044715, dtype=x.dtype) * (x.data * x.data * x.data)))

    def _bwd(g):
        du = c * (1.0 + np.asarray(3 * 0.044715, dtype=x.dtype) * x.data**2)
        x._accum(g * (0.5 * (1.0 + t) + 0.5 * x.data * (1.0 - t * t) * du))

    return _op(0.5 * x.data * (1.0 + t), x.dtype, (x,), _bwd)


def unfused_attention(x, a, wq, wk, wv, wo, seq, n_heads):
    h = x.shape[1]
    batch, dh = x.shape[0] // seq, h // n_heads
    scale = 1.0 / math.sqrt(dh)

    def heads(t):
        return reshape(transpose(reshape(t, (batch, seq, n_heads, dh)), (0, 2, 1, 3)), (batch * n_heads, seq, dh))

    q, k, v = heads(matmul(a, wq)), heads(matmul(a, wk)), heads(matmul(a, wv))
    attn = softmax(mul(bmm(q, transpose(k, (0, 2, 1))), scale))
    ctx = bmm(attn, v)
    ctx = reshape(transpose(reshape(ctx, (batch, n_heads, seq, dh)), (0, 2, 1, 3)), (batch * seq, h))
    return add(x, matmul(ctx, wo))


def unfused_ffn(x, b, w1, w2):
    return add(x, matmul(gelu(matmul(b, w1)), w2))


def unfused_dora(w0, a, b, m):
    """(m * V / max(rownorm V, 1e-8))^T with V = w0^T + b @ a, for a constant
    base w0 stored input-by-output; V's norm is sqrt(max(sum of squares,
    1e-16)) on a C-ordered copy of w0^T."""
    base = Tensor(np.ascontiguousarray(np.asarray(w0).T))
    directed = add(base, matmul(b, a))
    norm = sqrt(clamp_min(tsum(mul(directed, directed), axis=1, keepdims=True), 1e-8 * 1e-8))
    return transpose(mul(reshape(m, (m.shape[0], 1)), div(directed, norm)), (1, 0))


MALFORMED_CHECKPOINTS = (
    "manifest-not-utf8",
    "dimension-not-integer",
    "dimension-negative",
    "dimension-overflow",
    "offset-not-integer",
    "config-rejected",
    "tensor-duplicate",
    "tensor-missing",
    "tensor-unknown",
    "tensor-misshapen",
    "tensor-non-finite",
    "trailing-bytes",
    "tensor-overlapping",
    "payload-gap",
)


def malformed_checkpoint(blob: bytes, case: str) -> bytes:
    """A copy of a valid TRM1 file with one defect planted, keeping every
    length field consistent so that only the named defect is wrong."""
    start = 12  # magic, version, manifest length
    end = start + int.from_bytes(blob[8:12], "little")
    manifest = blob[start:end]
    name, dims, offset = manifest.split(b"\n")[0].split(b" ")
    if case == "manifest-not-utf8":
        manifest = b"\xff" + manifest[1:]
    elif case == "dimension-not-integer":
        manifest = manifest.replace(name + b" " + dims, name + b" q" + dims[1:], 1)
    elif case == "dimension-negative":
        manifest = manifest.replace(name + b" " + dims, name + b" -" + b"0" * (len(dims) - 2) + b"1", 1)
    elif case == "dimension-overflow":  # 2**32 x 2**32 elements wrap to 0 in int64
        manifest = manifest.replace(name + b" " + dims, name + b" 4294967296x4294967296", 1)
    elif case == "offset-not-integer":
        manifest = manifest.replace(dims + b" " + offset, dims + b" z" + offset[1:], 1)
    elif case == "tensor-duplicate":
        manifest = manifest.replace(b"\npos_emb ", b"\ntok_emb ", 1)
    elif case == "tensor-missing":
        lines = manifest.split(b"\n")
        manifest = b"\n".join(line for line in lines if not line.startswith(b"layer0.wq "))
    elif case == "tensor-unknown":
        manifest = manifest.replace(b"\npos_emb ", b"\npos_emx ", 1)
    elif case == "tensor-misshapen":  # the same element count, transposed
        rows, cols = dims.split(b"x")
        manifest = manifest.replace(name + b" " + dims, name + b" " + cols + b"x" + rows, 1)
    elif case == "tensor-overlapping":  # ln1.bias reads ln1.gain's bytes
        lines = {line.split(b" ")[0]: line for line in manifest.split(b"\n")}
        gain, bias = lines[b"layer0.ln1.gain"], lines[b"layer0.ln1.bias"]
        manifest = manifest.replace(bias, bias.rpartition(b" ")[0] + b" " + gain.rpartition(b" ")[2], 1)
    elif case == "payload-gap":  # the last tensor starts 4 bytes later
        last = manifest.rstrip(b"\n").rpartition(b"\n")[2]
        entry, _, at = last.rpartition(b" ")
        manifest = manifest.replace(last, entry + b" " + str(int(at) + 4).encode(), 1)
    tail = blob[end:]
    if case == "tensor-non-finite":  # NaN as the first tensor's first element
        at = 8 + int(offset)
        tail = tail[:at] + np.float32(np.nan).astype("<f4").tobytes() + tail[at + 4 :]
    elif case == "trailing-bytes":
        tail += b"\x00"
    elif case == "payload-gap":  # four zero bytes more at the payload's end
        size = int.from_bytes(tail[:8], "little")
        tail = (size + 4).to_bytes(8, "little") + tail[8 : 8 + size] + bytes(4) + tail[8 + size :]
    if case == "config-rejected":
        config_at = 8 + int.from_bytes(tail[:8], "little")
        config = json.loads(tail[config_at + 4 :])
        config["model"].update(hidden=8, n_heads=3)
        block = json.dumps(config).encode("utf-8")
        tail = tail[:config_at] + len(block).to_bytes(4, "little") + block
    return blob[:8] + len(manifest).to_bytes(4, "little") + manifest + tail
