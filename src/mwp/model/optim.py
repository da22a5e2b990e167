"""Adam optimizer over flat parameter dicts."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import TrainConfig
from .network import Parameters


@dataclass
class AdamState:
    m: Parameters
    v: Parameters
    t: int = 0


def init_adam(params: Parameters) -> AdamState:
    return AdamState(
        m={k: np.zeros_like(p) for k, p in params.items()},
        v={k: np.zeros_like(p) for k, p in params.items()},
        t=0,
    )


def adam_scratch(params: Parameters) -> tuple[np.ndarray, np.ndarray]:
    """Two flat work buffers, each the size of the largest tensor, that
    ``adam_update`` reuses for every tensor in turn."""
    size = max((p.size for p in params.values()), default=0)
    return np.empty(size), np.empty(size)


def adam_update(
    params: Parameters,
    grads: Parameters,
    state: AdamState,
    config: TrainConfig,
    scratch: tuple[np.ndarray, np.ndarray],
) -> None:
    """One bias-corrected Adam update, written in place into ``params`` and
    ``state`` through the ``adam_scratch`` buffers, so a step allocates no
    tensor-sized array.

    The operations run in the order of the textbook formulas, so the result
    has the same bits as computing each expression afresh.
    """
    if grads.keys() != params.keys():
        missing = params.keys() ^ grads.keys()
        raise ValueError(f"gradient keys do not match parameters: {sorted(missing)}")
    b1, b2, eps, lr = config.beta1, config.beta2, config.eps, config.learning_rate
    state.t += 1
    c1, c2 = 1.0 - b1**state.t, 1.0 - b2**state.t
    for key, p in params.items():
        g, m, v = grads[key], state.m[key], state.v[key]
        s, r = (buf[: p.size].reshape(p.shape) for buf in scratch)
        # m = b1 * m + (1 - b1) * g
        np.multiply(m, b1, out=m)
        np.add(m, np.multiply(g, 1.0 - b1, out=s), out=m)
        # v = b2 * v + (1 - b2) * g * g
        np.multiply(g, 1.0 - b2, out=s)
        np.multiply(s, g, out=s)
        np.multiply(v, b2, out=v)
        np.add(v, s, out=v)
        # p = p - lr * (m / c1) / (sqrt(v / c2) + eps)
        np.divide(v, c2, out=r)
        np.sqrt(r, out=r)
        np.add(r, eps, out=r)
        np.divide(m, c1, out=s)
        np.multiply(s, lr, out=s)
        np.divide(s, r, out=s)
        np.subtract(p, s, out=p)


def adam_step(
    params: Parameters,
    grads: Parameters,
    state: AdamState,
    config: TrainConfig,
) -> tuple[Parameters, AdamState]:
    """One bias-corrected Adam update; returns fresh params and state and
    leaves its inputs untouched."""
    new_params = {k: p.copy() for k, p in params.items()}
    new_state = AdamState(
        m={k: a.copy() for k, a in state.m.items()},
        v={k: a.copy() for k, a in state.v.items()},
        t=state.t,
    )
    adam_update(new_params, grads, new_state, config, adam_scratch(params))
    return new_params, new_state


def global_norm(grads: Parameters) -> float:
    return float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))


def clip_gradients(grads: Parameters, max_norm: float) -> tuple[Parameters, float]:
    """Scale all gradients so the global L2 norm is at most max_norm."""
    norm = global_norm(grads)
    if norm <= max_norm or norm == 0.0:
        return grads, norm
    factor = max_norm / norm
    return {k: g * factor for k, g in grads.items()}, norm
