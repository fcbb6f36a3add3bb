"""Grouped bidirectional LSTM stack with full backpropagation through time.

Features are split into non-overlapping groups; each group runs independent
forward/backward LSTMs. Both directions of all groups are batched into one
einsum per time step (index q = direction * groups + group). The Q streams
never mix inside a layer, so the worker pool runs each time loop, and each
batched product, over disjoint Q slices, every stream's arithmetic as it
would be in one pass. After each
recurrent layer, a per-group linear projection maps the concatenated
direction states (2H) back to the group width so layer widths stay constant,
followed by layer normalization. Between layers, a strided interleave
(transpose of the group x subfeature matrix) mixes features across groups.
"""
from __future__ import annotations

import numpy as np

from ._pool import PRODUCT_FLOOR, _for_slices
from .ops import _row_sums, _sigmoid, layer_norm_backward, layer_norm_forward


def _matmul_q(a, b):
    """np.matmul of [Q, M, K] and [Q, K, N] stacks: each of the Q products
    whole, the Q products spread over the worker pool."""
    q, m, k = a.shape
    out = np.empty((q, m, b.shape[2]), dtype=np.result_type(a, b))
    _for_slices(lambda s: np.matmul(a[s], b[s], out=out[s]), q, q * m * k * b.shape[2], PRODUCT_FLOOR)
    return out


def _qmm(a, w):
    """[B,Q,D] x [Q,D,H] -> [B,Q,H], one matmul per (direction, group)."""
    return np.matmul(a.transpose(1, 0, 2), w).transpose(1, 0, 2)


def _qmm_t(a, w):
    """[B,Q,A] x [Q,D,A]^T -> [B,Q,D] (contract over the last axis)."""
    return np.matmul(a.transpose(1, 0, 2), w.transpose(0, 2, 1)).transpose(1, 0, 2)


def shuffle_permutation(width: int, groups: int) -> np.ndarray:
    """Channel-shuffle: view features as [groups, width//groups], transpose."""
    return np.arange(width).reshape(groups, width // groups).T.ravel()


def uniform(rng: np.random.Generator | None, bound: float, size: tuple, dtype) -> np.ndarray:
    """U(-bound, bound) draws rounded to dtype, or zeros without a generator
    (when a checkpoint's arrays are copied in next)."""
    if rng is None:
        return np.zeros(size, dtype=dtype)
    return rng.uniform(-bound, bound, size=size).astype(dtype)


def orthogonal(rng: np.random.Generator, n: int, dtype) -> np.ndarray:
    a = rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    return (q * np.sign(np.diag(r))).astype(dtype)


class GroupedBlstmLayer:
    """One grouped BLSTM layer: split -> per-group BLSTM -> per-group
    projection -> layer norm."""

    def __init__(self, prefix: str, in_width: int, groups: int, hidden: int,
                 rng: np.random.Generator | None, dtype):
        if in_width % groups != 0:
            raise ValueError(f"feature width {in_width} not divisible by {groups} groups")
        self.prefix = prefix
        self.groups = groups
        self.hidden = hidden
        self.in_width = in_width
        self.dg = in_width // groups
        q = 2 * groups
        h = hidden
        bound_x = np.sqrt(6.0 / self.dg)
        self.wx = uniform(rng, bound_x, (q, self.dg, 4 * h), dtype)
        self.wh = np.zeros((q, h, 4 * h), dtype=dtype)
        if rng is not None:
            for qi in range(q):
                for gate in range(4):
                    self.wh[qi, :, gate * h : (gate + 1) * h] = orthogonal(rng, h, dtype)
        self.bias = np.zeros((q, 4 * h), dtype=dtype)
        self.bias[:, h : 2 * h] = 1.0  # forget gate
        bound_p = np.sqrt(6.0 / (2 * h))
        self.proj_w = uniform(rng, bound_p, (groups, 2 * h, self.dg), dtype)
        self.proj_b = np.zeros((groups, self.dg), dtype=dtype)
        self.ln_gain = np.ones(in_width, dtype=dtype)
        self.ln_offset = np.zeros(in_width, dtype=dtype)
        self.ln_eps = 1e-5

    def params(self):
        yield f"{self.prefix}.wx", self.wx
        yield f"{self.prefix}.wh", self.wh
        yield f"{self.prefix}.bias", self.bias
        yield f"{self.prefix}.proj_w", self.proj_w
        yield f"{self.prefix}.proj_b", self.proj_b
        yield f"{self.prefix}.ln_gain", self.ln_gain
        yield f"{self.prefix}.ln_offset", self.ln_offset

    def forward(self, x):
        """x: [B, T, F] -> y: [B, T, F]"""
        b, t, f = x.shape
        g, h = self.groups, self.hidden
        q = 2 * g
        xg = x.reshape(b, t, g, self.dg)
        # backward-direction streams consume time-reversed input
        z = np.concatenate([xg, xg[:, ::-1]], axis=2)  # [B, T, Q, Dg]

        # input contribution for every step in one batched product
        zq = z.transpose(2, 0, 1, 3).reshape(q, b * t, self.dg)
        zx = np.ascontiguousarray(
            _matmul_q(zq, self.wx).reshape(q, b, t, 4 * h).transpose(2, 1, 0, 3)
        )
        zx += self.bias

        # i, f, g, o gate activations side by side, as zx holds their inputs
        gates = np.empty((t, b, q, 4 * h), dtype=x.dtype)
        tanh_c = np.empty((t, b, q, h), dtype=x.dtype)
        h_all = np.empty_like(tanh_c)
        c_all = np.empty_like(tanh_c)

        def steps(s):
            wh = self.wh[s]
            zx_s, gates_s, tc_s, h_s, c_s = (a[:, :, s] for a in (zx, gates, tanh_c, h_all, c_all))
            h_t = np.zeros((b, s.stop - s.start, h), dtype=x.dtype)
            c_t = np.zeros_like(h_t)
            for step in range(t):
                a = zx_s[step] + _qmm(h_t, wh)
                gate = gates_s[step]
                _sigmoid(a, gate)
                np.tanh(a[..., 2 * h : 3 * h], out=gate[..., 2 * h : 3 * h])
                gi, gf, gg, go = (gate[..., j * h : (j + 1) * h] for j in range(4))
                c_t = np.multiply(gf, c_t, out=c_s[step])
                c_t += gi * gg
                h_t = np.multiply(go, np.tanh(c_t, out=tc_s[step]), out=h_s[step])

        _for_slices(steps, q, b * q * h * 4 * h, PRODUCT_FLOOR)

        # [T,B,Q,H] -> [B,T,2,G,H]; un-reverse the backward direction
        out = h_all.transpose(1, 0, 2, 3).reshape(b, t, 2, g, h).copy()
        out[:, :, 1] = out[:, ::-1, 1].copy()
        hcat = out.transpose(0, 1, 3, 2, 4).reshape(b, t, g, 2 * h)

        hcat_g = hcat.transpose(2, 0, 1, 3).reshape(g, b * t, 2 * h)
        proj = _matmul_q(hcat_g, self.proj_w).reshape(g, b, t, self.dg)
        proj = proj.transpose(1, 2, 0, 3) + self.proj_b
        y_pre = proj.reshape(b, t, f)
        y, ln_cache = layer_norm_forward(y_pre, self.ln_gain, self.ln_offset, self.ln_eps)
        cache = (z, gates, tanh_c, h_all, c_all, hcat, ln_cache)
        return y, cache

    def backward(self, dy, cache, grads):
        z, gates, tc, h_all, c_all, hcat, ln_cache = cache
        gi, gf, gg, go = (gates[..., j * self.hidden : (j + 1) * self.hidden] for j in range(4))
        b, t, f = dy.shape
        g, h = self.groups, self.hidden
        q = 2 * g

        dpre, dgain, doffset = layer_norm_backward(dy, ln_cache)
        grads[f"{self.prefix}.ln_gain"] = dgain
        grads[f"{self.prefix}.ln_offset"] = doffset

        dproj = dpre.reshape(b, t, g, self.dg)
        dproj_g = dproj.transpose(2, 0, 1, 3).reshape(g, b * t, self.dg)
        hcat_g = hcat.transpose(2, 0, 1, 3).reshape(g, b * t, 2 * h)
        grads[f"{self.prefix}.proj_w"] = _matmul_q(hcat_g.transpose(0, 2, 1), dproj_g)
        grads[f"{self.prefix}.proj_b"] = _row_sums(dpre).reshape(g, self.dg)
        dhcat = _matmul_q(dproj_g, self.proj_w.transpose(0, 2, 1))
        dhcat = dhcat.reshape(g, b, t, 2 * h).transpose(1, 2, 0, 3)

        # undo the concat/reverse bookkeeping back to loop-time order [T,B,Q,H]
        dout = dhcat.reshape(b, t, g, 2, h).transpose(0, 1, 3, 2, 4).copy()
        dout[:, :, 1] = dout[:, ::-1, 1].copy()
        dh_all = dout.reshape(b, t, q, h).transpose(1, 0, 2, 3)

        # sequential pass collecting gate pre-activation gradients; the
        # weight/input gradients batch into large products afterwards
        da_all = np.empty((t, b, q, 4 * h), dtype=dy.dtype)

        def steps(s):
            wh = self.wh[s]
            dh_s, da_s, gi_s, gf_s, gg_s, go_s, tc_s, c_s = (
                a[:, :, s] for a in (dh_all, da_all, gi, gf, gg, go, tc, c_all)
            )
            dh_next = np.zeros((b, s.stop - s.start, h), dtype=dy.dtype)
            dc_next = np.zeros_like(dh_next)
            for step in range(t - 1, -1, -1):
                dh = dh_s[step] + dh_next
                dc = dc_next + dh * go_s[step] * (1.0 - tc_s[step] ** 2)
                c_prev = c_s[step - 1] if step > 0 else np.zeros_like(dc)
                da = da_s[step]
                da[..., :h] = dc * gg_s[step] * gi_s[step] * (1.0 - gi_s[step])
                da[..., h : 2 * h] = dc * c_prev * gf_s[step] * (1.0 - gf_s[step])
                da[..., 2 * h : 3 * h] = dc * gi_s[step] * (1.0 - gg_s[step] ** 2)
                da[..., 3 * h :] = dh * tc_s[step] * go_s[step] * (1.0 - go_s[step])
                dc_next = dc * gf_s[step]
                dh_next = _qmm_t(da, wh)

        _for_slices(steps, q, b * q * h * 4 * h, PRODUCT_FLOOR)

        da_q = da_all.transpose(2, 1, 0, 3).reshape(q, b * t, 4 * h)
        zq = z.transpose(2, 0, 1, 3).reshape(q, b * t, self.dg)
        h_prev_all = np.concatenate([np.zeros((1, b, q, h), dtype=dy.dtype), h_all[:-1]])
        hp_q = h_prev_all.transpose(2, 1, 0, 3).reshape(q, b * t, h)
        grads[f"{self.prefix}.wx"] = _matmul_q(zq.transpose(0, 2, 1), da_q)
        grads[f"{self.prefix}.wh"] = _matmul_q(hp_q.transpose(0, 2, 1), da_q)
        grads[f"{self.prefix}.bias"] = _row_sums(da_all.reshape(t, b, -1)).reshape(q, 4 * h)
        dz = _matmul_q(da_q, self.wx.transpose(0, 2, 1))
        dz = dz.reshape(q, b, t, self.dg).transpose(1, 2, 0, 3)

        dxg = dz[:, :, :g] + dz[:, ::-1, g:]
        return dxg.reshape(b, t, f)


class RecurrentStack:
    """Stacked grouped BLSTM layers with interleaving between layers."""

    def __init__(self, prefix: str, width: int, groups: int, hidden: int,
                 n_layers: int, rng: np.random.Generator | None, dtype):
        self.layers = [
            GroupedBlstmLayer(f"{prefix}.layer{i}", width, groups, hidden, rng, dtype)
            for i in range(n_layers)
        ]
        self.perm = shuffle_permutation(width, groups)
        self.inv_perm = np.argsort(self.perm)

    def params(self):
        for layer in self.layers:
            yield from layer.params()

    def forward(self, x, training):
        """(y, per-layer caches) in training; in inference (y, None), each
        layer's cache freed before the next layer runs."""
        caches = []
        for i, layer in enumerate(self.layers):
            if i > 0:
                x = x[..., self.perm]
            x, cache = layer.forward(x)
            if training:
                caches.append(cache)
            del cache
        return x, (caches if training else None)

    def backward(self, dy, caches, grads):
        """Sets each layer's cache slot to None once consumed."""
        for i in range(len(self.layers) - 1, -1, -1):
            dy = self.layers[i].backward(dy, caches[i], grads)
            caches[i] = None
            if i > 0:
                dy = dy[..., self.inv_perm]
        return dy
