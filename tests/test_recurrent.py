"""Tests for the grouped BLSTM stack against a naive reference implementation."""

import numpy as np
import pytest

from voicedet.nn.ops import layer_norm_forward
from voicedet.nn.recurrent import GroupedBlstmLayer, RecurrentStack, shuffle_permutation


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def reference_lstm(x, wx, wh, bias):
    """Plain per-step LSTM over [T, D] returning [T, H]."""
    t_len, _ = x.shape
    h_dim = wh.shape[0]
    h = np.zeros(h_dim)
    c = np.zeros(h_dim)
    out = np.zeros((t_len, h_dim))
    for t in range(t_len):
        a = x[t] @ wx + h @ wh + bias
        i = sigmoid(a[:h_dim])
        f = sigmoid(a[h_dim : 2 * h_dim])
        g = np.tanh(a[2 * h_dim : 3 * h_dim])
        o = sigmoid(a[3 * h_dim :])
        c = f * c + i * g
        h = o * np.tanh(c)
        out[t] = h
    return out


def test_shuffle_permutation_small():
    perm = shuffle_permutation(8, 4)
    assert list(perm) == [0, 2, 4, 6, 1, 3, 5, 7]
    inv = np.argsort(perm)
    x = np.arange(8)
    assert np.array_equal(x[perm][inv], x)


def test_single_group_matches_reference_blstm():
    rng = np.random.default_rng(0)
    t_len, width, hidden = 11, 6, 5
    layer = GroupedBlstmLayer("l", width, 1, hidden, rng, np.float64)
    x = rng.standard_normal((1, t_len, width))
    y, _ = layer.forward(x)

    fwd = reference_lstm(x[0], layer.wx[0], layer.wh[0], layer.bias[0])
    bwd = reference_lstm(x[0, ::-1], layer.wx[1], layer.wh[1], layer.bias[1])[::-1]
    hcat = np.concatenate([fwd, bwd], axis=1)
    proj = hcat @ layer.proj_w[0] + layer.proj_b[0]
    expect, _ = layer_norm_forward(proj[None], layer.ln_gain, layer.ln_offset, layer.ln_eps)
    assert np.allclose(y, expect, atol=1e-9)


def test_grouped_equals_independent_references():
    # groups=2: each group must evolve independently of the other's features
    rng = np.random.default_rng(1)
    t_len, width, hidden, groups = 7, 8, 4, 2
    layer = GroupedBlstmLayer("l", width, groups, hidden, rng, np.float64)
    x = rng.standard_normal((1, t_len, width))
    y, _ = layer.forward(x)
    dg = width // groups
    pre_ln = np.zeros((t_len, width))
    for g in range(groups):
        xg = x[0, :, g * dg : (g + 1) * dg]
        fwd = reference_lstm(xg, layer.wx[g], layer.wh[g], layer.bias[g])
        bwd = reference_lstm(
            xg[::-1], layer.wx[groups + g], layer.wh[groups + g], layer.bias[groups + g]
        )[::-1]
        hcat = np.concatenate([fwd, bwd], axis=1)
        pre_ln[:, g * dg : (g + 1) * dg] = hcat @ layer.proj_w[g] + layer.proj_b[g]
    expect, _ = layer_norm_forward(pre_ln[None], layer.ln_gain, layer.ln_offset, layer.ln_eps)
    assert np.allclose(y, expect, atol=1e-9)


def test_zero_params_zero_output():
    rng = np.random.default_rng(2)
    layer = GroupedBlstmLayer("l", 8, 2, 4, rng, np.float64)
    for _, arr in layer.params():
        arr[...] = 0.0
    x = np.zeros((2, 5, 8))
    y, _ = layer.forward(x)
    assert np.all(y == 0)


def test_batch_consistency():
    rng = np.random.default_rng(3)
    layer = GroupedBlstmLayer("l", 6, 2, 3, rng, np.float64)
    a = rng.standard_normal((1, 9, 6))
    b = rng.standard_normal((1, 9, 6))
    ya, _ = layer.forward(a)
    yb, _ = layer.forward(b)
    both, _ = layer.forward(np.concatenate([a, b], axis=0))
    assert np.allclose(both[0], ya[0], atol=1e-12)
    assert np.allclose(both[1], yb[0], atol=1e-12)


def test_stack_backward_finite_differences():
    rng = np.random.default_rng(4)
    stack = RecurrentStack("s", 6, 2, 3, 2, rng, np.float64)
    x = rng.standard_normal((1, 5, 6))
    up = rng.standard_normal((1, 5, 6))

    def loss():
        y, _ = stack.forward(x, False)
        return float((y * up).sum())

    y, caches = stack.forward(x, True)
    grads = {}
    dx = stack.backward(up, caches, grads)

    eps = 1e-6
    params = dict(stack.params())
    for name, arr in params.items():
        flat = arr.ravel()
        for idx in rng.choice(flat.size, size=min(6, flat.size), replace=False):
            old = flat[idx]
            flat[idx] = old + eps
            lp = loss()
            flat[idx] = old - eps
            lm = loss()
            flat[idx] = old
            fd = (lp - lm) / (2 * eps)
            assert grads[name].ravel()[idx] == pytest.approx(fd, rel=2e-4, abs=1e-8), name
    flat = x.ravel()
    for idx in rng.choice(flat.size, size=10, replace=False):
        old = flat[idx]
        flat[idx] = old + eps
        lp = loss()
        flat[idx] = old - eps
        lm = loss()
        flat[idx] = old
        assert dx.ravel()[idx] == pytest.approx((lp - lm) / (2 * eps), rel=2e-4, abs=1e-8)


def test_indivisible_width_rejected():
    rng = np.random.default_rng(5)
    with pytest.raises(ValueError):
        GroupedBlstmLayer("l", 7, 2, 4, rng, np.float64)
