"""Oracle and gradient tests for the array-level NN primitives."""

import numpy as np
import pytest
from conftest import assert_bits_equal
from hypothesis import assume, given, settings, strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from voicedet.nn import ops


def pad_freq(x, pad):
    """x with `pad` zero bins on each side of the frequency axis."""
    return np.pad(x, ((0, 0), (0, 0), (pad, pad), (0, 0)))


def naive_conv_freq(x, w, b, stride, pad):
    """Explicit-loop convolution oracle, channels-last."""
    bsz, t, f, c = x.shape
    k, _, o = w.shape
    xp = np.zeros((bsz, t, f + 2 * pad, c))
    xp[:, :, pad : pad + f, :] = x
    fo = (f + 2 * pad - k) // stride + 1
    y = np.zeros((bsz, t, fo, o))
    for bi in range(bsz):
        for ti in range(t):
            for fi in range(fo):
                for oi in range(o):
                    acc = 0.0
                    for j in range(k):
                        for ci in range(c):
                            acc += xp[bi, ti, fi * stride + j, ci] * w[j, ci, oi]
                    y[bi, ti, fi, oi] = acc + b[oi]
    return y


class TestConvFreq:
    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(0)
        for stride, pad, k in ((1, 1, 3), (2, 1, 4), (1, 0, 2)):
            x = rng.standard_normal((2, 3, 9, 4))
            w = rng.standard_normal((k, 4, 5))
            b = rng.standard_normal(5)
            y, _ = ops.conv_freq_forward(pad_freq(x, pad), w, b, stride)
            assert np.allclose(y, naive_conv_freq(x, w, b, stride, pad), atol=1e-12)

    def test_freq_sizes(self):
        assert ops.conv_freq_out_size(513, 4, 2, 1) == 256
        assert ops.conv_freq_out_size(513, 3, 1, 1) == 513
        chain = [513]
        for _ in range(7):
            chain.append(ops.conv_freq_out_size(chain[-1], 4, 2, 1))
        assert chain == [513, 256, 128, 64, 32, 16, 8, 4]

    def test_gradients_by_finite_differences(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 2, 7, 3))
        w = rng.standard_normal((3, 3, 4))
        b = rng.standard_normal(4)
        u = rng.standard_normal((1, 2, 7, 4))  # random upstream projection

        def loss(x_, w_, b_):
            y, _ = ops.conv_freq_forward(pad_freq(x_, 1), w_, b_, 1)
            return float((y * u).sum())

        y, cache = ops.conv_freq_forward(pad_freq(x, 1), w, b, 1)
        dx = np.zeros(x.shape)
        dw, db = ops.conv_freq_backward(u, cache, dx)
        eps = 1e-6
        for arr, grad, name in ((x, dx, "x"), (w, dw, "w"), (b, db, "b")):
            flat = arr.ravel()
            for idx in rng.choice(flat.size, size=min(12, flat.size), replace=False):
                old = flat[idx]
                flat[idx] = old + eps
                lp = loss(x, w, b)
                flat[idx] = old - eps
                lm = loss(x, w, b)
                flat[idx] = old
                fd = (lp - lm) / (2 * eps)
                assert grad.ravel()[idx] == pytest.approx(fd, rel=1e-5, abs=1e-9), name


def loop_im2col(xp, k, stride, fo):
    """Reference columns: one strided slice copy per tap."""
    b, t, _, c = xp.shape
    span = (fo - 1) * stride + 1
    cols = np.empty((b, t, fo, k * c), dtype=xp.dtype)
    for j in range(k):
        cols[..., j * c : (j + 1) * c] = xp[:, :, j : j + span : stride, :]
    return cols


def column_conv_reference(x, w, b, dy, stride, pad):
    """(xp, cols, y, dx, dw, db) of the unrolled convolution with the loop
    columns and the input gradient scattered from one full column gradient."""
    k, c, o = w.shape
    xp = pad_freq(x, pad) if pad else x
    fo = ops.conv_freq_out_size(x.shape[2], k, stride, pad)
    span = (fo - 1) * stride + 1
    cols = loop_im2col(xp, k, stride, fo)
    y = (cols.reshape(-1, k * c) @ w.reshape(k * c, o)).reshape(*cols.shape[:3], o)
    y += b
    dy2 = dy.reshape(-1, o)
    dw = (cols.reshape(-1, k * c).T @ dy2).reshape(k, c, o)
    db = dy2.sum(axis=0)
    dcols = (dy2 @ w.reshape(k * c, o).T).reshape(*dy.shape[:3], k * c)
    dxp = np.zeros_like(xp)
    for j in range(k):
        dxp[:, :, j : j + span : stride, :] += dcols[..., j * c : (j + 1) * c]
    dx = dxp[:, :, pad : pad + x.shape[2], :] if pad else dxp
    return xp, cols, y, dx, dw, db


def assert_conv_matches_reference(rng, shape, k, o, stride, pad, dtype, spare=3):
    """Bit-equal columns, output and gradients for an input that is the
    channel prefix of a wider buffer with `pad` zero bins on each side of
    the frequency axis, and an interior input gradient added into the
    channel prefix of a wider gradient buffer, as ConvDcBlock passes them."""
    b, t, f, c = shape
    buf = np.zeros((b, t, f + 2 * pad, c + spare), dtype=dtype)
    buf[:, :, pad : pad + f] = rng.standard_normal((b, t, f, c + spare)).astype(dtype)
    x = buf[:, :, pad : pad + f, :c]
    w = rng.standard_normal((k, c, o)).astype(dtype)
    bias = rng.standard_normal(o).astype(dtype)
    fo = ops.conv_freq_out_size(f, k, stride, pad)
    dy = rng.standard_normal((b, t, fo, o)).astype(dtype)
    xp, cols, *want = column_conv_reference(x, w, bias, dy, stride, pad)
    assert_bits_equal(ops._im2col(xp, k, stride, fo), cols, "cols")
    y, cache = ops.conv_freq_forward(buf[..., :c], w, bias, stride)
    assert_bits_equal(y, want[0], "y")
    # a zero prefix, so it receives dx itself, then a prefix holding values;
    # the spare channels must not change
    for prefix in (np.zeros, rng.standard_normal):
        acc = rng.standard_normal((b, t, f, c + spare)).astype(dtype)
        acc[..., :c] = prefix((b, t, f, c))
        want_acc = acc.copy()
        want_acc[..., :c] += want[1]
        dw, db = ops.conv_freq_backward(dy, cache, acc[..., :c])
        for name, g, r in zip(("dx", "dw", "db"), (acc, dw, db), (want_acc, *want[2:])):
            assert_bits_equal(g, r, name)


def assert_gated_matches_reference(rng, shape, k, o, stride, dtype, pad=1, spare=3):
    """Bit-equal output, cache and gradients of the gated convolution against
    each path's column reference and the gate written out, for an input that
    is the channel prefix of a wider buffer with `pad` zero bins per side."""
    b, t, f, c = shape
    buf = np.zeros((b, t, f + 2 * pad, c + spare), dtype=dtype)
    buf[:, :, pad : pad + f] = rng.standard_normal((b, t, f, c + spare)).astype(dtype)
    x = buf[:, :, pad : pad + f, :c]
    w1, w2 = (rng.standard_normal((k, c, o)).astype(dtype) for _ in range(2))
    b1, b2 = (rng.standard_normal(o).astype(dtype) for _ in range(2))
    fo = ops.conv_freq_out_size(f, k, stride, pad)
    dv = rng.standard_normal((b, t, fo, o)).astype(dtype)
    m1 = column_conv_reference(x, w1, b1, dv, stride, pad)[2]
    s2 = ops.sigmoid(column_conv_reference(x, w2, b2, dv, stride, pad)[2])
    *_, dx1, dw1, db1 = column_conv_reference(x, w1, b1, dv * s2, stride, pad)
    *_, dx2, dw2, db2 = column_conv_reference(x, w2, b2, dv * m1 * s2 * (1.0 - s2), stride, pad)
    v, cache = ops.gated_conv_forward(buf[..., :c], w1, b1, w2, b2, stride)
    for name, g, r in (("v", v, m1 * s2), ("m1", cache[0], m1), ("gate", cache[1], s2)):
        assert_bits_equal(g, r, name)
    du, *grads = ops.gated_conv_backward(dv, cache)
    assert_bits_equal(du[:, :, pad : pad + f], dx1 + dx2, "du")
    for name, g, r in zip(("dw1", "db1", "dw2", "db2"), grads, (dw1, db1, dw2, db2)):
        assert_bits_equal(g, r, name)


class TestConvColumnsBitEqual:
    """The window-view columns and the per-tap input gradient give the same
    bits as per-tap slice copies and a scattered full column gradient."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("pad", [0, 1])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_small_shapes(self, stride, pad, k, dtype):
        rng = np.random.default_rng([stride, pad, k, np.dtype(dtype).itemsize])
        for c in range(1, 21):
            assert_conv_matches_reference(rng, (2, 3, 11 + c, c), k, 5, stride, pad, dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_reduced_model_shapes(self, dtype):
        # the composite (C = 2..14, stride 1) and gated (C = 18, stride 2)
        # convolutions of the reduced model's first block, at fewer frames
        rng = np.random.default_rng(11)
        for c in (2, 6, 10, 14):
            assert_conv_matches_reference(rng, (2, 6, 513, c), 3, 4, 1, 1, dtype)
        assert_conv_matches_reference(rng, (2, 6, 513, 18), 4, 2, 2, 1, dtype)

    @settings(max_examples=60)
    @given(
        b=st.integers(1, 3), t=st.integers(1, 4), f=st.integers(1, 40), c=st.integers(1, 24),
        k=st.integers(1, 5), o=st.integers(1, 12), stride=st.integers(1, 3), pad=st.integers(0, 2),
        dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**32 - 1),
    )
    def test_random_shapes(self, b, t, f, c, k, o, stride, pad, dtype, seed):
        assume(f + 2 * pad >= k)
        assert_conv_matches_reference(np.random.default_rng(seed), (b, t, f, c), k, o, stride, pad, dtype)

    @settings(max_examples=40)
    @given(
        b=st.integers(1, 3), t=st.integers(1, 4), f=st.integers(1, 40), c=st.integers(1, 24),
        k=st.integers(1, 5), o=st.integers(1, 12), stride=st.integers(1, 3), pad=st.integers(0, 2),
        dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**32 - 1),
    )
    def test_random_gated_shapes(self, b, t, f, c, k, o, stride, pad, dtype, seed):
        assume(f + 2 * pad >= k)
        assert_gated_matches_reference(np.random.default_rng(seed), (b, t, f, c), k, o, stride, dtype, pad)

    def test_into_must_be_the_interior_and_a_row_view(self):
        x = np.zeros((2, 3, 10, 4))
        y, cache = ops.conv_freq_forward(x, np.ones((3, 4, 2)), np.zeros(2), 1)
        dy = np.ones(y.shape)
        with pytest.raises(ValueError, match="interior"):
            ops.conv_freq_backward(dy, cache, into=np.zeros((2, 3, 7, 4)))
        into = np.zeros((3, 2, 8, 4)).transpose(1, 0, 2, 3)
        with pytest.raises(ValueError, match="do not merge"):
            ops.conv_freq_backward(dy, cache, into=into)
        assert not into.any()


class TestGatedConv:
    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(2)
        u = rng.standard_normal((1, 2, 8, 3))
        w1 = rng.standard_normal((4, 3, 5))
        b1 = rng.standard_normal(5)
        w2 = rng.standard_normal((4, 3, 5))
        b2 = rng.standard_normal(5)
        v, _ = ops.gated_conv_forward(pad_freq(u, 1), w1, b1, w2, b2, 2)
        m1 = naive_conv_freq(u, w1, b1, 2, 1)
        m2 = naive_conv_freq(u, w2, b2, 2, 1)
        expect = m1 * (1.0 / (1.0 + np.exp(-m2)))
        assert np.allclose(v, expect, atol=1e-12)

    def test_saturated_gate_high(self):
        rng = np.random.default_rng(3)
        u = rng.standard_normal((1, 2, 8, 3))
        w1 = rng.standard_normal((4, 3, 5))
        b1 = rng.standard_normal(5)
        w2 = np.zeros((4, 3, 5))
        b2 = np.full(5, 50.0)  # gate ~ 1
        v, _ = ops.gated_conv_forward(pad_freq(u, 1), w1, b1, w2, b2, 2)
        m1, _ = ops.conv_freq_forward(pad_freq(u, 1), w1, b1, 2)
        assert np.allclose(v, m1, atol=1e-9)

    def test_saturated_gate_low(self):
        rng = np.random.default_rng(4)
        u = rng.standard_normal((1, 2, 8, 3))
        w1 = rng.standard_normal((4, 3, 5))
        b1 = rng.standard_normal(5)
        v, _ = ops.gated_conv_forward(pad_freq(u, 1), w1, b1, np.zeros((4, 3, 5)), np.full(5, -50.0), 2)
        assert np.allclose(v, 0.0, atol=1e-12)

    def test_backward_finite_differences(self):
        rng = np.random.default_rng(5)
        u = rng.standard_normal((1, 2, 6, 3))
        w1 = rng.standard_normal((4, 3, 2))
        b1 = rng.standard_normal(2)
        w2 = rng.standard_normal((4, 3, 2))
        b2 = rng.standard_normal(2)
        up = rng.standard_normal((1, 2, 3, 2))

        def loss():
            v, _ = ops.gated_conv_forward(pad_freq(u, 1), w1, b1, w2, b2, 2)
            return float((v * up).sum())

        v, cache = ops.gated_conv_forward(pad_freq(u, 1), w1, b1, w2, b2, 2)
        dup, dw1, db1, dw2, db2 = ops.gated_conv_backward(up, cache)
        du = dup[:, :, 1:-1]
        eps = 1e-6
        for arr, grad in ((u, du), (w1, dw1), (b1, db1), (w2, dw2), (b2, db2)):
            flat = arr.ravel()
            for idx in rng.choice(flat.size, size=min(10, flat.size), replace=False):
                old = flat[idx]
                flat[idx] = old + eps
                lp = loss()
                flat[idx] = old - eps
                lm = loss()
                flat[idx] = old
                fd = (lp - lm) / (2 * eps)
                assert grad.ravel()[idx] == pytest.approx(fd, rel=1e-5, abs=1e-9)

    def test_zero_upstream_zero_grads(self):
        rng = np.random.default_rng(6)
        u = rng.standard_normal((1, 2, 6, 3))
        w = rng.standard_normal((4, 3, 2))
        b = rng.standard_normal(2)
        v, cache = ops.gated_conv_forward(pad_freq(u, 1), w, b, w.copy(), b.copy(), 2)
        du, dw1, db1, dw2, db2 = ops.gated_conv_backward(np.zeros_like(v), cache)
        for g in (du, dw1, db1, dw2, db2):
            assert np.all(g == 0)

    def test_missing_cache_rejected(self):
        with pytest.raises(ValueError):
            ops.gated_conv_backward(np.zeros((1, 1, 1, 1)), None)

    def test_saturated_gate_gradient_matches_plain_conv(self):
        rng = np.random.default_rng(7)
        u = rng.standard_normal((1, 2, 6, 3))
        w1 = rng.standard_normal((4, 3, 2))
        b1 = rng.standard_normal(2)
        up = rng.standard_normal((1, 2, 3, 2))
        v, cache = ops.gated_conv_forward(pad_freq(u, 1), w1, b1, np.zeros((4, 3, 2)), np.full(2, 60.0), 2)
        du, dw1, _, _, _ = ops.gated_conv_backward(up, cache)
        _, cache_plain = ops.conv_freq_forward(pad_freq(u, 1), w1, b1, 2)
        du_plain = np.zeros(u.shape)
        dw_plain, _ = ops.conv_freq_backward(up, cache_plain, du_plain)
        assert np.allclose(du[:, :, 1:-1], du_plain, atol=1e-6)
        assert np.allclose(dw1, dw_plain, atol=1e-6)


class TestBatchNorm:
    def args(self, c, dtype=float):
        return (
            np.ones(c, dtype=dtype),
            np.zeros(c, dtype=dtype),
            np.zeros(c, dtype=dtype),
            np.ones(c, dtype=dtype),
        )

    def test_training_normalizes(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((2, 5, 7, 3)) * 4 + 2
        gamma, beta, rm, rv = self.args(3)
        y, _ = ops.batchnorm_forward(x, gamma, beta, rm, rv, 0.9, 1e-5, True)
        assert np.allclose(y.mean(axis=(0, 1, 2)), 0.0, atol=1e-10)
        assert np.allclose(y.var(axis=(0, 1, 2)), 1.0, atol=1e-3)

    def test_running_stats_update(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, 5, 7, 3)) + 5
        gamma, beta, rm, rv = self.args(3)
        ops.batchnorm_forward(x, gamma, beta, rm, rv, 0.9, 1e-5, True)
        assert np.allclose(rm, 0.1 * x.mean(axis=(0, 1, 2)))
        assert np.allclose(rv, 0.9 * 1.0 + 0.1 * x.var(axis=(0, 1, 2)))

    def test_inference_batch_size_independent(self):
        rng = np.random.default_rng(10)
        gamma = rng.standard_normal(3)
        beta = rng.standard_normal(3)
        rm = rng.standard_normal(3)
        rv = rng.uniform(0.5, 2.0, 3)
        x = rng.standard_normal((1, 4, 6, 3))
        y1, _ = ops.batchnorm_forward(x, gamma, beta, rm, rv, 0.9, 1e-5, False)
        stacked = np.concatenate([x, rng.standard_normal((3, 4, 6, 3))], axis=0)
        y4, _ = ops.batchnorm_forward(stacked, gamma, beta, rm, rv, 0.9, 1e-5, False)
        assert np.array_equal(y1, y4[:1])

    def test_training_backward_finite_differences(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2, 3, 4, 2))
        gamma = rng.standard_normal(2)
        beta = rng.standard_normal(2)
        up = rng.standard_normal(x.shape)

        def loss():
            rm = np.zeros(2)
            rv = np.ones(2)
            y, _ = ops.batchnorm_forward(x, gamma, beta, rm, rv, 0.9, 1e-5, True)
            return float((y * up).sum())

        rm = np.zeros(2)
        rv = np.ones(2)
        _, cache = ops.batchnorm_forward(x, gamma, beta, rm, rv, 0.9, 1e-5, True)
        dx, dgamma, dbeta = ops.batchnorm_backward(up, cache)
        eps = 1e-6
        for arr, grad in ((x, dx), (gamma, dgamma), (beta, dbeta)):
            flat = arr.ravel()
            for idx in rng.choice(flat.size, size=min(8, flat.size), replace=False):
                old = flat[idx]
                flat[idx] = old + eps
                lp = loss()
                flat[idx] = old - eps
                lm = loss()
                flat[idx] = old
                assert grad.ravel()[idx] == pytest.approx((lp - lm) / (2 * eps), rel=1e-4, abs=1e-9)


class TestEluAndSigmoid:
    def test_elu_values(self):
        x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        y, _ = ops.elu_forward(x)
        assert np.allclose(y, [np.expm1(-2), np.expm1(-0.5), 0.0, 0.5, 2.0])

    def test_elu_gradient(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal(100)
        y, cache = ops.elu_forward(x)
        dy = rng.standard_normal(100)
        dx = ops.elu_backward(dy, cache)
        eps = 1e-7
        yp, _ = ops.elu_forward(x + eps)
        ym, _ = ops.elu_forward(x - eps)
        assert np.allclose(dx, dy * (yp - ym) / (2 * eps), atol=1e-6)

    def test_sigmoid_stable_extremes(self):
        y = ops.sigmoid(np.array([-800.0, 0.0, 800.0]))
        assert y[0] == 0.0 and y[1] == 0.5 and y[2] == 1.0
        assert np.all(np.isfinite(y))


# The broadcast and branch formulas the row-view ops replaced, kept verbatim
# as bit-exact references.

def ref_batchnorm_forward(x, gamma, beta, running_mean, running_var, momentum, eps, training):
    if training:
        mean = x.mean(axis=(0, 1, 2))
        var = x.var(axis=(0, 1, 2))
        running_mean *= momentum
        running_mean += (1.0 - momentum) * mean
        running_var *= momentum
        running_var += (1.0 - momentum) * var
    else:
        mean = running_mean
        var = running_var
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean) * inv_std
    y = gamma * xhat + beta
    cache = (xhat, gamma, inv_std) if training else None
    return y, cache


def ref_batchnorm_backward(dy, cache):
    xhat, gamma, inv_std = cache
    axes = tuple(range(dy.ndim - 1))
    dgamma = (dy * xhat).sum(axis=axes)
    dbeta = dy.sum(axis=axes)
    dxhat = dy * gamma
    n = dy.size // dy.shape[-1]
    sum_dxhat = dxhat.sum(axis=axes)
    sum_dxhat_xhat = (dxhat * xhat).sum(axis=axes)
    dx = (inv_std / n) * (n * dxhat - sum_dxhat - xhat * sum_dxhat_xhat)
    return dx, dgamma, dbeta


def ref_elu_forward(x):
    y = x.copy()
    np.expm1(y, out=y, where=y < 0)
    return y, y


def ref_elu_backward(dy, y):
    return dy * np.where(y > 0, 1.0, y + 1.0)


def ref_sigmoid(x):
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


DTYPES = [np.float32, np.float64]
# C = 1, 4 and 18 channels, F = 1 bin, and the reduced model's first block
CHANNEL_SHAPES = [(2, 3, 5, 1), (2, 3, 5, 4), (2, 3, 5, 18), (3, 4, 1, 4), (2, 2, 1, 1), (2, 4, 513, 8)]


def special_values(dtype):
    tiny = np.finfo(dtype).smallest_subnormal
    return np.array([0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny, 800.0, -800.0], dtype=dtype)


def with_specials(rng, shape, dtype):
    """Normal samples with every special value planted at random positions."""
    x = rng.standard_normal(shape).astype(dtype)
    flat = x.reshape(-1)
    for v in special_values(dtype):
        flat[rng.choice(flat.size, size=min(3, flat.size), replace=False)] = v
    return x


def channel_slice(rng, arr, spare=3):
    """arr copied into the leading channels of a wider array, as ConvDcBlock
    hands per-layer slices of its buffer to the layers."""
    wide = rng.standard_normal((*arr.shape[:-1], arr.shape[-1] + spare)).astype(arr.dtype)
    wide[..., : arr.shape[-1]] = arr
    return wide[..., : arr.shape[-1]]


def assert_results_bit_equal(got, want, name):
    if isinstance(got, np.ndarray) or isinstance(want, np.ndarray):
        assert_bits_equal(got, want, name)
    elif isinstance(got, tuple):
        assert isinstance(want, tuple) and len(got) == len(want), name
        for i, (g, w) in enumerate(zip(got, want)):
            assert_results_bit_equal(g, w, f"{name}[{i}]")
    else:
        assert got == want, name


class TestRowViewOpsBitEqual:
    """Batch norm, ELU and sigmoid on [rows, F*C] views with tiled channel
    vectors give the bits of the broadcast and branch formulas: outputs,
    caches, running statistics and gradients, float32 and float64."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape", CHANNEL_SHAPES)
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("momentum", [0.9, 0.0])  # 0: a stray inference update would replace the statistics
    @pytest.mark.parametrize("sliced", [False, True])
    def test_batchnorm(self, dtype, shape, training, momentum, sliced):
        rng = np.random.default_rng([shape[-2], shape[-1], training, sliced])
        c = shape[-1]
        x = (rng.standard_normal(shape) * 3 + 1).astype(dtype)
        dy = rng.standard_normal(shape).astype(dtype)
        if sliced:
            x, dy = channel_slice(rng, x), channel_slice(rng, dy)
        gamma, beta, mean = (rng.standard_normal(c).astype(dtype) for _ in range(3))
        var = rng.uniform(0.5, 2.0, c).astype(dtype)
        stats, ref_stats = (mean.copy(), var.copy()), (mean.copy(), var.copy())
        got = ops.batchnorm_forward(x, gamma, beta, *stats, momentum, 1e-5, training)
        want = ref_batchnorm_forward(x, gamma, beta, *ref_stats, momentum, 1e-5, training)
        assert_results_bit_equal(got, want, "forward")
        assert_results_bit_equal(stats, ref_stats, "running statistics")
        if training:
            assert_results_bit_equal(ops.batchnorm_backward(dy, got[1]),
                                     ref_batchnorm_backward(dy, want[1]), "backward")

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape", [(67,), (1,), (16,), *CHANNEL_SHAPES])
    def test_elu_forward_and_backward(self, dtype, shape):
        rng = np.random.default_rng([len(shape), *shape])
        x = with_specials(rng, shape, dtype)
        y, cache = ops.elu_forward(x)
        ref_y, ref_cache = ref_elu_forward(x)
        assert_bits_equal(y, ref_y, "y")
        assert_bits_equal(cache, ref_cache, "cache")
        # the backward also at special output values the forward never makes
        for yv in (ref_y, with_specials(rng, shape, dtype)):
            dy = with_specials(rng, shape, dtype)
            with np.errstate(all="ignore"):
                assert_bits_equal(ops.elu_backward(dy, yv), ref_elu_backward(dy, yv), "dx")

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape", CHANNEL_SHAPES)
    def test_elu_into_buffer_slice(self, dtype, shape):
        # as ConvDcBlock uses it: written into, and cached as, a channel
        # slice of a wider buffer; the backward reads that slice and an
        # upstream gradient that is a slice too
        rng = np.random.default_rng(shape[-1])
        x = with_specials(rng, shape, dtype)
        buf = np.zeros((*shape[:-1], shape[-1] + 5), dtype=dtype)
        out = buf[..., 2 : 2 + shape[-1]]
        y, cache = ops.elu_forward(x, out)
        assert y is out and cache is out
        assert_bits_equal(out, ref_elu_forward(x)[0], "y")
        assert np.all(buf[..., :2] == 0) and np.all(buf[..., 2 + shape[-1] :] == 0)
        dy = channel_slice(rng, with_specials(rng, shape, dtype))
        with np.errstate(all="ignore"):
            assert_bits_equal(ops.elu_backward(dy, out), ref_elu_backward(dy, out.copy()), "dx")

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape", [(67,), (1,), (16,), *CHANNEL_SHAPES])
    def test_sigmoid(self, dtype, shape):
        rng = np.random.default_rng([len(shape), *shape])
        x = with_specials(rng, shape, dtype) * dtype(4)
        assert_bits_equal(ops.sigmoid(x), ref_sigmoid(x), "sigmoid")
        # a gate slice of a wider pre-activation, as the BLSTM passes it
        assert_bits_equal(ops.sigmoid(channel_slice(rng, x)), ref_sigmoid(x), "sigmoid of a slice")

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_every_special_value_at_every_position(self, dtype):
        # SIMD body and scalar tail alike
        for n in (1, 7, 16, 17, 33):
            base = np.random.default_rng(n).standard_normal(n).astype(dtype)
            for v in special_values(dtype):
                for i in range(n):
                    x = base.copy()
                    x[i] = v
                    assert_bits_equal(ops.elu_forward(x)[0], ref_elu_forward(x)[0], f"elu {v} at {i}/{n}")
                    assert_bits_equal(ops.sigmoid(x), ref_sigmoid(x), f"sigmoid {v} at {i}/{n}")
                    with np.errstate(all="ignore"):
                        assert_bits_equal(ops.elu_backward(base, x), ref_elu_backward(base, x),
                                          f"elu backward {v} at {i}/{n}")

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape", CHANNEL_SHAPES)
    def test_conv_bias(self, dtype, shape):
        # the bias added on the row view against the reference's `y += b`
        rng = np.random.default_rng(shape[-1])
        assert_conv_matches_reference(rng, shape, 3, shape[-1], 1, 1, dtype)
        assert_conv_matches_reference(rng, shape, 1, 4, 1, 0, dtype)


class TestLayerNormAndLinear:
    def test_layer_norm_normalizes(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((2, 4, 8)) * 3 + 1
        y, _ = ops.layer_norm_forward(x, np.ones(8), np.zeros(8), 1e-5)
        assert np.allclose(y.mean(axis=-1), 0.0, atol=1e-10)

    def test_layer_norm_zero_input_zero_output(self):
        y, _ = ops.layer_norm_forward(np.zeros((1, 3, 8)), np.ones(8), np.zeros(8), 1e-5)
        assert np.all(y == 0)

    def test_layer_norm_backward_fd(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((2, 3, 5))
        gain = rng.standard_normal(5)
        offset = rng.standard_normal(5)
        up = rng.standard_normal(x.shape)

        def loss():
            y, _ = ops.layer_norm_forward(x, gain, offset, 1e-5)
            return float((y * up).sum())

        _, cache = ops.layer_norm_forward(x, gain, offset, 1e-5)
        dx, dgain, doffset = ops.layer_norm_backward(up, cache)
        eps = 1e-6
        for arr, grad in ((x, dx), (gain, dgain), (offset, doffset)):
            flat = arr.ravel()
            for idx in range(flat.size):
                old = flat[idx]
                flat[idx] = old + eps
                lp = loss()
                flat[idx] = old - eps
                lm = loss()
                flat[idx] = old
                assert grad.ravel()[idx] == pytest.approx((lp - lm) / (2 * eps), rel=1e-4, abs=1e-9)

    def test_linear_backward_fd(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((2, 3, 4))
        w = rng.standard_normal((4, 2))
        b = rng.standard_normal(2)
        up = rng.standard_normal((2, 3, 2))
        y, cache = ops.linear_forward(x, w, b)
        dx, dw, db = ops.linear_backward(up, cache)
        eps = 1e-6
        for arr, grad in ((x, dx), (w, dw), (b, db)):
            flat = arr.ravel()
            for idx in range(flat.size):
                old = flat[idx]
                flat[idx] = old + eps
                lp = float((ops.linear_forward(x, w, b)[0] * up).sum())
                flat[idx] = old - eps
                lm = float((ops.linear_forward(x, w, b)[0] * up).sum())
                flat[idx] = old
                assert grad.ravel()[idx] == pytest.approx((lp - lm) / (2 * eps), rel=1e-5, abs=1e-9)


# Row counts around numpy's 8192-element iterator buffer and the reduced
# model's batch-norm rows (4 x 301 frames x 513 bins); cases above 4 M
# elements are left out to keep the test's memory small.
ROW_SUM_CASES = [
    (dtype, c, n)
    for dtype in DTYPES
    for c in (1, 2, 4, 18, 256)
    for n in (1, 8191, 8192, 8193, 4 * 301 * 513)
    if n * c <= 4_000_000
]


def wide_rows(rng, n, c, dtype, spare=3):
    """An [n, c] channel slice of an [n, c + spare] buffer, with a channel
    of -0.0 and one holding inf and NaN when c allows."""
    wide = (rng.standard_normal((n, c + spare)) * 3 + 1).astype(dtype)
    if c >= 4:
        wide[:, 1] = -0.0
        wide[::5, 2] = np.inf
        wide[n // 2, 3] = np.nan
    return wide[:, :c]


class TestRowSumsBitEqual:
    """_row_sums gives the bits of the sums it replaces, on every layout."""

    @pytest.mark.parametrize("dtype,c,n", ROW_SUM_CASES)
    def test_matches_sum(self, dtype, c, n):
        rng = np.random.default_rng([c, n])
        for a, b in ((wide_rows(rng, n, c, dtype), wide_rows(rng, n, c, dtype)),
                     (rng.standard_normal((n, c)).astype(dtype), rng.standard_normal((n, c)).astype(dtype))):
            with np.errstate(invalid="ignore"):
                assert_bits_equal(ops._row_sums(a), a.sum(axis=0), f"sum, {a.strides}")
                assert_bits_equal(ops._row_sums(a, b), (a * b).sum(axis=0), f"product sum, {a.strides}")

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape", [(4, 301, 513, 4), (4, 301, 257, 18), (2, 3, 5, 1), (3, 1, 7, 2)])
    @pytest.mark.parametrize("sliced", [False, True])
    def test_matches_channel_sum_of_activations(self, dtype, shape, sliced):
        # the [B, T, F, C] batch-norm statistic x.sum(axis=(0, 1, 2)), also
        # on channel slices of a wider buffer as ConvDcBlock passes them
        rng = np.random.default_rng(shape)
        x, y = (rng.standard_normal(shape).astype(dtype) for _ in range(2))
        if sliced:
            x, y = channel_slice(rng, x), channel_slice(rng, y)
        assert_bits_equal(ops._row_sums(x), x.sum(axis=(0, 1, 2)), "sum")
        assert_bits_equal(ops._row_sums(x, y), (x * y).sum(axis=(0, 1, 2)), "product sum")

    @pytest.mark.parametrize("layout", ["channels_outer", "reversed_rows", "swapped_leading_axes",
                                        "overlapping_rows", "broadcast", "unaligned", "mixed_dtype",
                                        "float16", "permuted_features"])
    def test_other_layouts_keep_sum(self, layout):
        # layouts whose sum does not add rows in order, and operands einsum
        # would cast, still give the bits of the plain sum
        rng = np.random.default_rng(7)
        a = rng.standard_normal((20000, 6)).astype(np.float32)
        b = rng.standard_normal((20000, 6)).astype(np.float32)
        if layout == "channels_outer":
            a, b = np.asfortranarray(a), np.asfortranarray(b)
        elif layout == "reversed_rows":
            a, b = a[::-1], b[::-1]
        elif layout == "swapped_leading_axes":  # sum runs in memory order, not in row order
            a, b = a.reshape(40, 500, 6).transpose(1, 0, 2), b.reshape(40, 500, 6).transpose(1, 0, 2)
        elif layout == "overlapping_rows":
            a, b = sliding_window_view(a.ravel()[:20005], 6), sliding_window_view(b.ravel()[:20005], 6)
        elif layout == "broadcast":
            a = np.broadcast_to(a[:1], a.shape)
        elif layout == "unaligned":
            a, b = (np.frombuffer(b"\0" + v.tobytes(), np.float32, offset=1).reshape(v.shape) for v in (a, b))
            assert not a.flags.aligned
        elif layout == "mixed_dtype":
            b = b.astype(np.float64)
        elif layout == "float16":
            a, b = a.astype(np.float16), b.astype(np.float16)
        else:  # the interleave RecurrentStack applies between BLSTM layers
            perm = rng.permutation(6)
            a, b = a.reshape(4, 5000, 6)[..., perm], b.reshape(4, 5000, 6)[..., perm]
        axes = tuple(range(a.ndim - 1))
        assert_bits_equal(ops._row_sums(a), a.sum(axis=axes), "sum")
        assert_bits_equal(ops._row_sums(a, b), (a * b).sum(axis=axes), "product sum")

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("permuted", [False, True])
    def test_layer_norm_backward(self, dtype, permuted):
        # against the gain/offset sums it replaced; the permuted upstream
        # gradient is the one the first BLSTM layer receives
        rng = np.random.default_rng(21)
        x = rng.standard_normal((4, 301, 64)).astype(dtype)
        dy = rng.standard_normal(x.shape).astype(dtype)
        if permuted:
            dy = dy[..., rng.permutation(64)]
        gain, offset = rng.standard_normal(64).astype(dtype), rng.standard_normal(64).astype(dtype)
        _, cache = ops.layer_norm_forward(x, gain, offset, 1e-5)
        _, dgain, doffset = ops.layer_norm_backward(dy, cache)
        xhat = cache[0]
        assert_bits_equal(dgain, (dy * xhat).sum(axis=(0, 1)), "dgain")
        assert_bits_equal(doffset, dy.sum(axis=(0, 1)), "doffset")
