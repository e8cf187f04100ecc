"""Shared test oracles: finite differences, loop-level references.

Everything here is written independently of the package internals so the
tests check the implementation against a second derivation, not against
itself. Oracles run in float64.
"""

import json
import math

import numpy as np

from clozerm.tensor import Tape, Tensor

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


MALFORMED_CHECKPOINTS = (
    "manifest-not-utf8",
    "dimension-not-integer",
    "offset-not-integer",
    "config-rejected",
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
    elif case == "offset-not-integer":
        manifest = manifest.replace(dims + b" " + offset, dims + b" z" + offset[1:], 1)
    tail = blob[end:]
    if case == "config-rejected":
        config_at = 8 + int.from_bytes(tail[:8], "little")
        config = json.loads(tail[config_at + 4 :])
        config["model"].update(hidden=8, n_heads=3)
        block = json.dumps(config).encode("utf-8")
        tail = tail[:config_at] + len(block).to_bytes(4, "little") + block
    return blob[:start] + manifest + tail
