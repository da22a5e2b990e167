"""Adam update tests against a hand-rolled scalar recurrence."""

import numpy as np
import pytest

from mwp.model.config import TrainConfig
from mwp.model.optim import adam_scratch, adam_step, adam_update, clip_gradients, global_norm, init_adam


def scalar_adam_oracle(grads, lr, b1, b2, eps):
    """Run the textbook recurrence on one scalar, step by step."""
    m = v = 0.0
    x = 1.0
    out = []
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        x = x - lr * m_hat / (np.sqrt(v_hat) + eps)
        out.append(x)
    return out


def test_three_steps_match_scalar_recurrence():
    config = TrainConfig(learning_rate=0.1, beta1=0.9, beta2=0.999, eps=1e-8)
    grad_sequence = [0.5, -1.25, 2.0]
    expected = scalar_adam_oracle(grad_sequence, 0.1, 0.9, 0.999, 1e-8)

    params = {"w": np.array([1.0])}
    state = init_adam(params)
    for g, want in zip(grad_sequence, expected):
        params, state = adam_step(params, {"w": np.array([g])}, state, config)
        assert params["w"][0] == pytest.approx(want, rel=1e-12)
    assert state.t == 3


def test_first_step_size_is_roughly_lr():
    # Bias correction makes m_hat = g and v_hat = g^2 at t=1, so the move
    # is lr * g / (|g| + eps), i.e. lr in the direction opposite the gradient.
    config = TrainConfig(learning_rate=1e-4)
    params = {"w": np.array([0.0, 0.0])}
    grads = {"w": np.array([3.0, -0.01])}
    new, _ = adam_step(params, grads, init_adam(params), config)
    np.testing.assert_allclose(new["w"], [-1e-4, 1e-4], rtol=1e-3)


def test_zero_gradient_leaves_params_unchanged():
    config = TrainConfig()
    params = {"w": np.array([2.0, -3.0]), "b": np.array([0.5])}
    grads = {k: np.zeros_like(p) for k, p in params.items()}
    new, state = adam_step(params, grads, init_adam(params), config)
    for key in params:
        np.testing.assert_array_equal(new[key], params[key])
    assert state.t == 1


def test_inputs_are_not_mutated():
    config = TrainConfig(learning_rate=0.5)
    params = {"w": np.array([1.0])}
    grads = {"w": np.array([1.0])}
    state = init_adam(params)
    before = params["w"].copy()
    adam_step(params, grads, state, config)
    np.testing.assert_array_equal(params["w"], before)
    assert state.t == 0
    np.testing.assert_array_equal(state.m["w"], [0.0])


def test_mismatched_keys_rejected():
    config = TrainConfig()
    params = {"w": np.array([1.0])}
    state = init_adam(params)
    with pytest.raises(ValueError, match="b"):
        adam_step(params, {"b": np.array([1.0])}, state, config)
    with pytest.raises(ValueError, match="w"):
        adam_step(params, {}, state, config)


def test_multi_tensor_step_matches_independent_scalars():
    # Adam is coordinatewise, so a dict of tensors must behave like a bag of
    # unrelated scalar problems.
    config = TrainConfig(learning_rate=0.01)
    rng = np.random.default_rng(7)
    params = {"a": rng.normal(size=(2, 3)), "b": rng.normal(size=(4,))}
    sequences = [rng.normal(size=(2, 3)), rng.normal(size=(4,))]
    grad_steps = [{"a": sequences[0] * s, "b": sequences[1] * s} for s in (1.0, 0.3, -2.0)]

    state = init_adam(params)
    p = params
    for grads in grad_steps:
        p, state = adam_step(p, grads, state, config)

    for key in params:
        flat = params[key].ravel()
        for i, x0 in enumerate(flat):
            gs = [g[key].ravel()[i] for g in grad_steps]
            want = scalar_adam_oracle(gs, 0.01, 0.9, 0.999, 1e-8)[-1]
            got = p[key].ravel()[i] - x0 + 1.0  # oracle starts at x=1
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


# --- gradient norms ------------------------------------------------------------


def test_global_norm_hand_case():
    grads = {"a": np.array([3.0]), "b": np.array([4.0])}
    assert global_norm(grads) == pytest.approx(5.0)


def test_global_norm_empty_is_zero():
    assert global_norm({}) == 0.0


def test_clip_below_threshold_is_identity():
    grads = {"a": np.array([0.3, 0.4])}
    clipped, norm = clip_gradients(grads, max_norm=1.0)
    assert norm == pytest.approx(0.5)
    np.testing.assert_array_equal(clipped["a"], grads["a"])


def test_clip_above_threshold_rescales_to_max():
    grads = {"a": np.array([30.0]), "b": np.array([40.0])}
    clipped, norm = clip_gradients(grads, max_norm=5.0)
    assert norm == pytest.approx(50.0)
    assert global_norm(clipped) == pytest.approx(5.0)
    # Direction is preserved.
    assert clipped["a"][0] / clipped["b"][0] == pytest.approx(30.0 / 40.0)


def test_clip_zero_gradients_is_safe():
    grads = {"a": np.zeros(3)}
    clipped, norm = clip_gradients(grads, max_norm=1.0)
    assert norm == 0.0
    np.testing.assert_array_equal(clipped["a"], np.zeros(3))


def test_clip_never_exceeds_threshold():
    rng = np.random.default_rng(3)
    for _ in range(50):
        grads = {"g": rng.normal(size=rng.integers(1, 20)) * rng.uniform(0, 100)}
        clipped, _ = clip_gradients(grads, max_norm=2.5)
        assert global_norm(clipped) <= 2.5 * (1 + 1e-12)


# --- in-place update -------------------------------------------------------------


def reference_adam(params, grads, m, v, t, config):
    """The textbook formulas, each expression computed afresh."""
    b1, b2, eps, lr = config.beta1, config.beta2, config.eps, config.learning_rate
    m = {k: b1 * m[k] + (1.0 - b1) * grads[k] for k in params}
    v = {k: b2 * v[k] + (1.0 - b2) * grads[k] * grads[k] for k in params}
    new = {}
    for k, p in params.items():
        m_hat = m[k] / (1.0 - b1**t)
        v_hat = v[k] / (1.0 - b2**t)
        new[k] = p - lr * m_hat / (np.sqrt(v_hat) + eps)
    return new, m, v


def test_in_place_update_matches_textbook_and_adam_step_bit_for_bit():
    config = TrainConfig(learning_rate=3e-3)
    rng = np.random.default_rng(11)
    shapes = {"w": (2, 5, 3), "m": (7, 4), "b": (4,), "s": ()}
    # small and zero parameters keep the last bits of each step visible
    scales = {"w": 1.0, "m": 1e-6, "b": 0.0, "s": 1e-9}
    params = {k: np.array(rng.normal(size=shape) * scales[k]) for k, shape in shapes.items()}
    grad_steps = [{k: rng.normal(size=shape) * 10.0**e for k, shape in shapes.items()} for e in (-3, 0, 2, -1, 1)]

    zeros = {k: np.zeros(shape) for k, shape in shapes.items()}
    ref, ref_m, ref_v = params, zeros, zeros
    pure, pure_state = params, init_adam(params)
    live = {k: p.copy() for k, p in params.items()}
    state, scratch = init_adam(live), adam_scratch(live)
    owned = [a for d in (live, state.m, state.v) for a in d.values()]
    for t, grads in enumerate(grad_steps, start=1):
        ref, ref_m, ref_v = reference_adam(ref, grads, ref_m, ref_v, t, config)
        pure, pure_state = adam_step(pure, grads, pure_state, config)
        adam_update(live, grads, state, config, scratch)
        for key in shapes:
            for got, want in ((live, ref), (state.m, ref_m), (state.v, ref_v), (pure, ref),
                              (pure_state.m, ref_m), (pure_state.v, ref_v)):
                assert got[key].tobytes() == want[key].tobytes()
    assert state.t == pure_state.t == 5
    # the update wrote into the arrays it was given
    assert all(a is b for a, b in zip(owned, [a for d in (live, state.m, state.v) for a in d.values()]))


def test_in_place_update_rejects_mismatched_keys():
    params = {"w": np.array([1.0])}
    with pytest.raises(ValueError, match="b"):
        adam_update(params, {"b": np.array([1.0])}, init_adam(params), TrainConfig(), adam_scratch(params))
