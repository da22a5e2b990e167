"""Encoder-decoder transformer in plain numpy with hand-written backprop.

Parameters live in a flat dict keyed by dotted names ("enc0.att.w_q",
"dec1.ff.b2", ...), which keeps the optimizer and gradient checking generic.
Everything is float64. The forward pass records the intermediates backward
needs in a tape dict; backward walks the blocks in reverse, takes each
block's entry off the tape as it reads it, so a block's activations are
freed once its backward has run, and fills a grads dict with exactly the
same keys as the parameters. ``forward`` records no tape.

Layout per layer (post-layer-norm residual blocks):

* encoder:  x = LN1(x + drop(SelfAtt(x)));  x = LN2(x + drop(FF(x)))
* decoder:  y = LN1(y + drop(SelfAtt(y)));  y = LN2(y + drop(Cross(y, mem)));
            y = LN3(y + drop(FF(y)))

Token embeddings are scaled by sqrt(d_model) before the sinusoidal position
table is added, and the final projection to vocabulary logits is a plain
affine map from the decoder output.

One encoder stack and one decoder block serve training and inference. The
block runs T new target positions per row against a ``DecoderCache``, which
holds cross-attention keys and values projected once from the encoder
memory, one row per record and shared by every decoded row of that record,
and gains each call's self-attention keys and values.
``forward_with_tape`` runs it once over the whole target with a tape, and
``decode_step`` once per position.

The PAD id is ``mwp.preprocess.PAD_ID``, the one ``Vocab`` reserves: a key
whose token is PAD is never attended to, and a PAD target is never scored.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..preprocess import PAD_ID
from .attention import causal_mask, log_softmax, masked_softmax, padding_mask, positional_encoding, softmax_backward
from .config import ModelConfig

Parameters = dict[str, np.ndarray]

LN_EPS = 1e-5


def parameter_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name and shape of every parameter, in initialization order."""
    d, h, d_k, d_ff = config.d_model, config.n_heads, config.d_k, config.d_ff
    shapes: dict[str, tuple[int, ...]] = {}

    def add_mha(prefix: str) -> None:
        for name in ("w_q", "w_k", "w_v"):
            shapes[f"{prefix}.{name}"] = (h, d, d_k)
        shapes[f"{prefix}.w_o"] = (h * d_k, d)

    def add_ln(prefix: str) -> None:
        shapes[f"{prefix}.g"] = (d,)
        shapes[f"{prefix}.b"] = (d,)

    def add_ff(prefix: str) -> None:
        shapes[f"{prefix}.w1"] = (d, d_ff)
        shapes[f"{prefix}.b1"] = (d_ff,)
        shapes[f"{prefix}.w2"] = (d_ff, d)
        shapes[f"{prefix}.b2"] = (d,)

    shapes["src_embed"] = (config.src_vocab_size, d)
    shapes["tgt_embed"] = (config.tgt_vocab_size, d)
    for i in range(config.n_encoder_layers):
        add_mha(f"enc{i}.att")
        add_ln(f"enc{i}.ln1")
        add_ff(f"enc{i}.ff")
        add_ln(f"enc{i}.ln2")
    for i in range(config.n_decoder_layers):
        add_mha(f"dec{i}.self")
        add_ln(f"dec{i}.ln1")
        add_mha(f"dec{i}.cross")
        add_ln(f"dec{i}.ln2")
        add_ff(f"dec{i}.ff")
        add_ln(f"dec{i}.ln3")
    shapes["out.w"] = (d, config.tgt_vocab_size)
    shapes["out.b"] = (config.tgt_vocab_size,)
    return shapes


def init_parameters(config: ModelConfig, rng: np.random.Generator) -> Parameters:
    """Glorot-uniform weights, zero biases, unit layer-norm gains.

    A weight's fan-in and fan-out are its last two dimensions, so each
    attention head's (d_model, d_k) projection is scaled on its own.
    """
    params: Parameters = {}
    for name, shape in parameter_shapes(config).items():
        if name.endswith(".g"):
            params[name] = np.ones(shape)
        elif len(shape) == 1:
            params[name] = np.zeros(shape)
        else:
            limit = np.sqrt(6.0 / (shape[-2] + shape[-1]))
            params[name] = rng.uniform(-limit, limit, size=shape)
    return params


# --- primitive blocks (paired forward/backward) -----------------------------
# The contractions below are written as flat reshape + matmul so they hit
# BLAS; einsum keeps these shapes out of dgemm and is several times slower.


def _mm(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(..., D) @ (D, F) as a single flat matrix product."""
    lead = x.shape[:-1]
    return (x.reshape(-1, x.shape[-1]) @ w).reshape(*lead, w.shape[-1])


def _fuse_heads(w: np.ndarray) -> np.ndarray:
    """(H, D, K) -> (D, H*K): every head's projection as one matrix."""
    h, d, k = w.shape
    return w.transpose(1, 0, 2).reshape(d, h * k)


def _project_heads(x: np.ndarray, w: np.ndarray, fused: np.ndarray | None = None) -> np.ndarray:
    """(B, T, D) x (H, D, K) -> (B, H, T, K); ``fused`` is ``_fuse_heads(w)`` if already made."""
    h, d, k = w.shape
    b, t, _ = x.shape
    out = x.reshape(b * t, d) @ (_fuse_heads(w) if fused is None else fused)
    return out.reshape(b, t, h, k).transpose(0, 2, 1, 3)


def _project_heads_wgrad(x: np.ndarray, d_heads: np.ndarray) -> np.ndarray:
    """(B, T, D) x (B, H, T, K) -> (H, D, K)."""
    b, h, t, k = d_heads.shape
    d = x.shape[-1]
    g = x.reshape(b * t, d).T @ d_heads.transpose(0, 2, 1, 3).reshape(b * t, h * k)
    return np.ascontiguousarray(g.reshape(d, h, k).transpose(1, 0, 2))


def _project_heads_xgrad(d_heads: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(B, H, T, K) x (H, D, K) -> (B, T, D)."""
    h, d, k = w.shape
    b, _, t, _ = d_heads.shape
    out = d_heads.transpose(0, 2, 1, 3).reshape(b * t, h * k) @ w.transpose(0, 2, 1).reshape(h * k, d)
    return out.reshape(b, t, d)


def _outer_grad(x: np.ndarray, d_out: np.ndarray) -> np.ndarray:
    """(B, T, F) x (B, T, D) -> (F, D), summing over batch and time."""
    return x.reshape(-1, x.shape[-1]).T @ d_out.reshape(-1, d_out.shape[-1])


def _dropout_fwd(x, p, train, rng, tape, key):
    """Inverted dropout. The tape keeps the boolean keep-mask, an eighth of a
    float64 mask: ``x * keep * scale`` has the bits of ``x * (keep / (1 - p))``
    for kept, dropped (a signed zero) and non-finite entries alike."""
    if not train or p == 0.0:
        if tape is not None:
            tape[key] = None
        return x
    if rng is None:
        raise ValueError("training-mode forward with dropout needs an rng")
    keep = rng.random(x.shape) >= p
    scale = 1.0 / (1.0 - p)
    tape[key] = (keep, scale)
    return _masked(x, keep, scale)


def _dropout_bwd(d_out, tape, key):
    entry = tape.pop(key)
    return d_out if entry is None else _masked(d_out, *entry)


def _masked(x, keep, scale):
    """``x * keep * scale`` with one new array."""
    out = x * keep
    out *= scale
    return out


def _ln_fwd(params, prefix, x, tape=None):
    c = x - x.mean(axis=-1, keepdims=True)
    # (c * c).mean is the reduction x.var runs, so this keeps its bits
    inv = 1.0 / np.sqrt((c * c).mean(axis=-1, keepdims=True) + LN_EPS)
    xhat = c * inv
    if tape is not None:
        tape[prefix] = (xhat, inv)
    return params[f"{prefix}.g"] * xhat + params[f"{prefix}.b"]


def _ln_bwd(params, prefix, d_out, tape, grads):
    xhat, inv = tape.pop(prefix)
    axes = tuple(range(d_out.ndim - 1))
    grads[f"{prefix}.g"] = (d_out * xhat).sum(axis=axes)
    grads[f"{prefix}.b"] = d_out.sum(axis=axes)
    dxhat = d_out * params[f"{prefix}.g"]
    return inv * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )


def _attend(params, prefix, q, k, v, mask):
    """Scaled dot-product attention over projected heads, then ``w_o``.

    q is (B, H, T_q, K); k and v are (B, H, T_k, K). Returns the output
    (B, T_q, D) plus the weights and concatenated heads that backward needs.
    """
    scores = q @ k.swapaxes(-1, -2) / np.sqrt(q.shape[-1])
    weights = masked_softmax(scores, mask)
    heads = weights @ v
    b, h, t_q, d_k = heads.shape
    concat = heads.transpose(0, 2, 1, 3).reshape(b, t_q, h * d_k)
    return _mm(concat, params[f"{prefix}.w_o"]), weights, concat


def _mha_fwd(params, prefix, query, key, value, mask, tape=None, kv=None, w_q=None):
    """Attention of ``query`` over ``key``/``value``; ``kv`` is their projection
    and ``w_q`` the fused query weight, if already made."""
    q = _project_heads(query, params[f"{prefix}.w_q"], w_q)
    if kv is None:
        kv = _project_heads(key, params[f"{prefix}.w_k"]), _project_heads(value, params[f"{prefix}.w_v"])
    k, v = kv
    out, weights, concat = _attend(params, prefix, q, k, v, mask)
    if tape is not None:
        tape[prefix] = (query, key, value, q, k, v, weights, concat)
    return out


def _mha_bwd(params, prefix, d_out, tape, grads):
    query, key, value, q, k, v, weights, concat = tape.pop(prefix)
    w_q, w_k, w_v, w_o = (params[f"{prefix}.{n}"] for n in ("w_q", "w_k", "w_v", "w_o"))
    grads[f"{prefix}.w_o"] = _outer_grad(concat, d_out)
    d_concat = _mm(d_out, w_o.T)
    b, t_q, _ = d_concat.shape
    h, _, d_k = w_q.shape
    d_heads = d_concat.reshape(b, t_q, h, d_k).transpose(0, 2, 1, 3)
    d_weights = d_heads @ v.swapaxes(-1, -2)
    d_v = weights.swapaxes(-1, -2) @ d_heads
    d_scores = softmax_backward(d_weights, weights) / np.sqrt(d_k)
    d_q = d_scores @ k
    d_k_heads = d_scores.swapaxes(-1, -2) @ q
    grads[f"{prefix}.w_q"] = _project_heads_wgrad(query, d_q)
    grads[f"{prefix}.w_k"] = _project_heads_wgrad(key, d_k_heads)
    grads[f"{prefix}.w_v"] = _project_heads_wgrad(value, d_v)
    d_query = _project_heads_xgrad(d_q, w_q)
    d_key = _project_heads_xgrad(d_k_heads, w_k)
    d_value = _project_heads_xgrad(d_v, w_v)
    return d_query, d_key, d_value


def _ff_fwd(params, prefix, x, tape=None):
    pre = _mm(x, params[f"{prefix}.w1"]) + params[f"{prefix}.b1"]
    hidden = np.maximum(pre, 0.0, out=pre)
    if tape is not None:
        tape[prefix] = (x, hidden)
    return _mm(hidden, params[f"{prefix}.w2"]) + params[f"{prefix}.b2"]


def _ff_bwd(params, prefix, d_out, tape, grads):
    x, hidden = tape.pop(prefix)
    grads[f"{prefix}.w2"] = _outer_grad(hidden, d_out)
    grads[f"{prefix}.b2"] = d_out.sum(axis=(0, 1))
    # the ReLU passes gradient where its input was positive, which is where its output is
    d_hidden = _mm(d_out, params[f"{prefix}.w2"].T) * (hidden > 0)
    grads[f"{prefix}.w1"] = _outer_grad(x, d_hidden)
    grads[f"{prefix}.b1"] = d_hidden.sum(axis=(0, 1))
    return _mm(d_hidden, params[f"{prefix}.w1"].T)


# --- full model -------------------------------------------------------------


def pad_rows(rows) -> np.ndarray:
    """The (len(rows), longest row) int64 array of id rows, each filled out
    with PAD on the right."""
    out = np.full((len(rows), max(map(len, rows))), PAD_ID, dtype=np.int64)
    for r, ids in enumerate(rows):
        out[r, : len(ids)] = ids
    return out


def _check_batch(name, ids, max_len):
    ids = np.asarray(ids)
    if ids.ndim != 2:
        raise ValueError(f"{name} must be a (batch, time) integer array, got shape {ids.shape}")
    if ids.shape[1] == 0:
        raise ValueError(f"{name} has zero time steps")
    if ids.shape[1] > max_len:
        raise ValueError(f"{name} length {ids.shape[1]} exceeds max_len {max_len}")
    return ids.astype(np.int64, copy=False)


@lru_cache(maxsize=None)
def position_table(max_len: int, d_model: int) -> np.ndarray:
    """The sinusoidal position table of one shape, built once and read-only."""
    table = positional_encoding(max_len, d_model)
    table.flags.writeable = False
    return table


def _encoder_stack(params, config, src, src_mask, tape=None, train=False, rng=None):
    """Encoder memory (B, T_src, D); dropout only when ``train`` is set."""
    p = config.dropout
    scale = np.sqrt(config.d_model)
    x = params["src_embed"][src] * scale + position_table(config.max_len, config.d_model)[: src.shape[1]]
    x = _dropout_fwd(x, p, train, rng, tape, "drop.src_embed")
    for i in range(config.n_encoder_layers):
        a = _mha_fwd(params, f"enc{i}.att", x, x, x, src_mask, tape)
        a = _dropout_fwd(a, p, train, rng, tape, f"drop.enc{i}.att")
        x = _ln_fwd(params, f"enc{i}.ln1", x + a, tape)
        f = _ff_fwd(params, f"enc{i}.ff", x, tape)
        f = _dropout_fwd(f, p, train, rng, tape, f"drop.enc{i}.ff")
        x = _ln_fwd(params, f"enc{i}.ln2", x + f, tape)
    return x


def _forward(params, config, src_ids, tgt_in_ids, tape=None, train=False, rng=None):
    """Batched logits (B, T_tgt, tgt_vocab); records into ``tape`` unless it is None."""
    src = _check_batch("src_ids", src_ids, config.max_len)
    tgt = _check_batch("tgt_in_ids", tgt_in_ids, config.max_len)
    if src.shape[0] != tgt.shape[0]:
        raise ValueError("src and tgt batch sizes differ")
    if tape is not None:
        tape.update(src=src, tgt=tgt, scale=np.sqrt(config.d_model))
    src_mask = padding_mask(src, PAD_ID)
    memory = _encoder_stack(params, config, src, src_mask, tape, train, rng)
    cache = start_decoding(params, config, memory, src_mask)
    return _decoder_block(params, config, cache, tgt, memory, tape, train, rng)


def forward_with_tape(
    params: Parameters,
    config: ModelConfig,
    src_ids,
    tgt_in_ids,
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, dict]:
    """Batched logits (B, T_tgt, tgt_vocab) plus the tape backward consumes."""
    tape: dict = {}
    return _forward(params, config, src_ids, tgt_in_ids, tape, train, rng), tape


def forward(params: Parameters, config: ModelConfig, src_ids, tgt_in_ids) -> np.ndarray:
    """Evaluation-mode logits, with no tape; accepts a single example (1-D) or a batch (2-D)."""
    src = np.asarray(src_ids)
    tgt = np.asarray(tgt_in_ids)
    single = src.ndim == 1
    if single != (tgt.ndim == 1):
        raise ValueError("src_ids and tgt_in_ids must both be 1-D or both 2-D")
    if single:
        src, tgt = src[None], tgt[None]
    logits = _forward(params, config, src, tgt)
    return logits[0] if single else logits


def _ce_with_grad(logits, targets):
    targets = np.asarray(targets, dtype=np.int64)
    logp = log_softmax(logits)
    mask = targets != PAD_ID
    n = int(mask.sum())
    if n == 0:
        raise ValueError("every target position is padding; nothing to score")
    picked = np.take_along_axis(logp, targets[..., None], axis=-1)[..., 0]
    loss = -(picked * mask).sum() / n
    d_logits = np.exp(logp)
    idx = targets[..., None]
    np.put_along_axis(d_logits, idx, np.take_along_axis(d_logits, idx, axis=-1) - 1.0, axis=-1)
    d_logits *= mask[..., None] / n
    return float(loss), d_logits


def cross_entropy_loss(logits, targets) -> float:
    """Mean token-level cross entropy over non-padding target positions."""
    loss, _ = _ce_with_grad(np.asarray(logits, dtype=np.float64), targets)
    return loss


def backward(
    params: Parameters,
    config: ModelConfig,
    src_ids,
    tgt_in_ids,
    tgt_out_ids,
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[float, Parameters]:
    """Loss and gradients for one batch; grads share the parameter dict keys.

    Each tape entry is popped as it is read, so the tape ends empty."""
    logits, tape = forward_with_tape(params, config, src_ids, tgt_in_ids, train=train, rng=rng)
    loss, d_logits = _ce_with_grad(logits, tgt_out_ids)
    grads: Parameters = {}
    src, tgt, scale = tape.pop("src"), tape.pop("tgt"), tape.pop("scale")

    grads["out.w"] = _outer_grad(tape.pop("dec_out"), d_logits)
    grads["out.b"] = d_logits.sum(axis=(0, 1))
    d_y = _mm(d_logits, params["out.w"].T)

    d_memory = 0.0
    for i in reversed(range(config.n_decoder_layers)):
        d_u = _ln_bwd(params, f"dec{i}.ln3", d_y, tape, grads)
        d_f = _dropout_bwd(d_u, tape, f"drop.dec{i}.ff")
        d_y = d_u + _ff_bwd(params, f"dec{i}.ff", d_f, tape, grads)
        d_u = _ln_bwd(params, f"dec{i}.ln2", d_y, tape, grads)
        d_c = _dropout_bwd(d_u, tape, f"drop.dec{i}.cross")
        d_q, d_k, d_v = _mha_bwd(params, f"dec{i}.cross", d_c, tape, grads)
        d_memory = d_memory + d_k + d_v
        d_y = d_u + d_q
        d_u = _ln_bwd(params, f"dec{i}.ln1", d_y, tape, grads)
        d_a = _dropout_bwd(d_u, tape, f"drop.dec{i}.self")
        d_q, d_k, d_v = _mha_bwd(params, f"dec{i}.self", d_a, tape, grads)
        d_y = d_u + d_q + d_k + d_v
    d_y = _dropout_bwd(d_y, tape, "drop.tgt_embed")
    grads["tgt_embed"] = np.zeros_like(params["tgt_embed"])
    np.add.at(grads["tgt_embed"], tgt, d_y * scale)

    d_x = d_memory
    for i in reversed(range(config.n_encoder_layers)):
        d_u = _ln_bwd(params, f"enc{i}.ln2", d_x, tape, grads)
        d_f = _dropout_bwd(d_u, tape, f"drop.enc{i}.ff")
        d_x = d_u + _ff_bwd(params, f"enc{i}.ff", d_f, tape, grads)
        d_u = _ln_bwd(params, f"enc{i}.ln1", d_x, tape, grads)
        d_a = _dropout_bwd(d_u, tape, f"drop.enc{i}.att")
        d_q, d_k, d_v = _mha_bwd(params, f"enc{i}.att", d_a, tape, grads)
        d_x = d_u + d_q + d_k + d_v
    d_x = _dropout_bwd(d_x, tape, "drop.src_embed")
    grads["src_embed"] = np.zeros_like(params["src_embed"])
    np.add.at(grads["src_embed"], src, d_x * scale)
    return loss, grads


def encode(params: Parameters, config: ModelConfig, src_ids):
    """Encoder memory and source mask for incremental decoding."""
    src = _check_batch("src_ids", np.atleast_2d(np.asarray(src_ids)), config.max_len)
    src_mask = padding_mask(src, PAD_ID)
    return _encoder_stack(params, config, src, src_mask), src_mask


class DecoderCache:
    """What incremental decoding keeps between steps.

    ``weights`` holds each decoder layer's fused self-attention query, key
    and value weights and cross-attention query weight (``_fuse_heads``),
    made once rather than at every step. ``cross`` holds each layer's
    cross-attention keys and values, projected once from the encoder
    memory, one row per record; ``src_mask`` is their (records, 1, 1,
    T_src) source mask. The decoded sequences are the rows: ``record``
    maps each row to its record, or is None while row i is record i, so
    several rows (a record's beam hypotheses) share one record's keys and
    values. ``keys`` and ``values`` hold each layer's self-attention keys
    and values for the positions decoded so far, one row per sequence, and
    ``key_ok`` (rows, T) marks which of those positions may be attended to.
    """

    def __init__(self, weights, cross, src_mask, record, keys, values, key_ok):
        self.weights = weights
        self.cross = cross
        self.src_mask = src_mask
        self.record = record
        self.keys = keys
        self.values = values
        self.key_ok = key_ok

    @property
    def length(self) -> int:
        return self.key_ok.shape[1]

    def select(self, rows) -> "DecoderCache":
        """The cache of ``rows`` in that order; a row may repeat. The
        records' keys, values and source mask are shared, not copied, and
        the rows in their own order are this cache itself."""
        rows = np.asarray(rows, dtype=np.intp)
        if len(rows) == len(self.key_ok) and (rows == np.arange(len(rows))).all():
            return self
        return DecoderCache(
            self.weights,
            self.cross,
            self.src_mask,
            rows if self.record is None else self.record[rows],
            [k[rows] for k in self.keys],
            [v[rows] for v in self.values],
            self.key_ok[rows],
        )


def start_decoding(params: Parameters, config: ModelConfig, memory, src_mask) -> DecoderCache:
    """An empty cache with one row per memory row."""
    batch = memory.shape[0]
    n = config.n_decoder_layers
    weights = [
        tuple(_fuse_heads(params[f"dec{i}.{name}"]) for name in ("self.w_q", "self.w_k", "self.w_v", "cross.w_q"))
        for i in range(n)
    ]
    cross = [
        (_project_heads(memory, params[f"dec{i}.cross.w_k"]), _project_heads(memory, params[f"dec{i}.cross.w_v"]))
        for i in range(n)
    ]
    empty = np.empty((batch, config.n_heads, 0, config.d_k))
    return DecoderCache(weights, cross, src_mask, None, [empty] * n, [empty] * n, np.empty((batch, 0), dtype=bool))


def _decoder_block(params, config, cache, tgt, memory=None, tape=None, train=False, rng=None):
    """Logits (B, T, V) for T new target positions per row, after ``cache``.

    Appends the positions' self-attention keys and values to ``cache``. A
    position attends to the cached ones, itself and earlier new ones, but
    never to a key whose token is PAD. Cross-attention gathers each
    row's record from ``cache.cross`` by ``cache.record``. Only the tape
    needs ``memory``, which ``cache.cross`` was projected from.
    """
    t0, t = cache.length, tgt.shape[1]
    if t0 + t > config.max_len:
        raise ValueError(f"tgt_in_ids length {t0 + t} exceeds max_len {config.max_len}")
    cache.key_ok = np.concatenate([cache.key_ok, tgt != PAD_ID], axis=1)
    self_mask = cache.key_ok[:, None, None, :]
    if t > 1:  # one new position may attend to every key
        self_mask = self_mask & causal_mask(t0 + t)[t0:]
    p = config.dropout
    pe = position_table(config.max_len, config.d_model)
    y = params["tgt_embed"][tgt] * np.sqrt(config.d_model) + pe[t0 : t0 + t]
    y = _dropout_fwd(y, p, train, rng, tape, "drop.tgt_embed")
    record = cache.record
    src_mask = cache.src_mask if record is None else cache.src_mask[record]
    for i in range(config.n_decoder_layers):
        prefix = f"dec{i}.self"
        w_q, w_k, w_v, cross_w_q = cache.weights[i]
        cache.keys[i] = np.concatenate([cache.keys[i], _project_heads(y, params[f"{prefix}.w_k"], w_k)], axis=2)
        cache.values[i] = np.concatenate([cache.values[i], _project_heads(y, params[f"{prefix}.w_v"], w_v)], axis=2)
        a = _mha_fwd(params, prefix, y, y, y, self_mask, tape, kv=(cache.keys[i], cache.values[i]), w_q=w_q)
        a = _dropout_fwd(a, p, train, rng, tape, f"drop.{prefix}")
        y = _ln_fwd(params, f"dec{i}.ln1", y + a, tape)
        cross = cache.cross[i] if record is None else tuple(kv[record] for kv in cache.cross[i])
        c = _mha_fwd(params, f"dec{i}.cross", y, memory, memory, src_mask, tape, kv=cross, w_q=cross_w_q)
        c = _dropout_fwd(c, p, train, rng, tape, f"drop.dec{i}.cross")
        y = _ln_fwd(params, f"dec{i}.ln2", y + c, tape)
        f = _ff_fwd(params, f"dec{i}.ff", y, tape)
        f = _dropout_fwd(f, p, train, rng, tape, f"drop.dec{i}.ff")
        y = _ln_fwd(params, f"dec{i}.ln3", y + f, tape)
    if tape is not None:
        tape["dec_out"] = y
    return _mm(y, params["out.w"]) + params["out.b"]


def decode_step(params: Parameters, config: ModelConfig, cache: DecoderCache, token_ids):
    """Logits (B, V) for one new token per row at the next position.

    Appends the token's self-attention keys and values to ``cache``. A key
    whose token is PAD is never attended to, as in a full forward.
    """
    tokens = np.asarray(token_ids, dtype=np.int64).reshape(-1, 1)
    return _decoder_block(params, config, cache, tokens)[:, 0]
