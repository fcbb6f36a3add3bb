"""Tests for the assembled DC-CRN model, loss, decisions, and checkpoints."""

import re
import tracemalloc

import numpy as np
import pytest
from conftest import assert_bits_equal
from hypothesis import given, settings, strategies as st
from test_nn_ops import pad_freq

from voicedet.dsp import InvalidArgument, Waveform
from voicedet.nn.checkpoint import load_checkpoint, save_checkpoint
from voicedet.nn.model import (
    DccrnModel,
    ModelConfig,
    VoicingPosterior,
    bce_loss,
    count_params,
    decide_voicing,
)
from voicedet.nn.recurrent import GroupedBlstmLayer
from voicedet.training import features_for_wave


def tiny_config(**kw):
    base = dict(
        block_out_channels=(2, 4),
        blstm_hidden=8,
        groups=2,
        input_freq_bins=8,
        dtype="float64",
    )
    base.update(kw)
    return ModelConfig(**base)


class TestConfig:
    def test_default_freq_chain(self):
        cfg = ModelConfig()
        assert cfg.freq_chain() == [513, 256, 128, 64, 32, 16, 8, 4]
        assert cfg.flatten_width() == 1024

    def test_threshold_bounds(self):
        with pytest.raises(InvalidArgument):
            ModelConfig(threshold=0.0)
        with pytest.raises(InvalidArgument):
            ModelConfig(threshold=1.0)

    def test_groups_must_divide(self):
        # flatten width 3 * 4 = 12 is not divisible by 5 groups
        with pytest.raises(InvalidArgument):
            ModelConfig(block_out_channels=(3,), input_freq_bins=8, groups=5)

    @pytest.mark.parametrize(
        "bad",
        [
            {"gated_stride": 0},
            {"groups": 0},
            {"gated_kernel": 600},  # frequency chain 513, -42, ...
            {"gated_kernel": 0},
            {"composite_kernel": -1},
            {"composite_layers": 0},
            {"composite_growth": 0},
            {"blstm_layers": 0},
            {"blstm_hidden": 0},
            {"input_freq_bins": 0},
            {"input_channels": 0},
            {"block_out_channels": (2, 0)},
            {"gated_pad": -1},
            {"gated_stride": 1.5},
            {"block_out_channels": (2,) * 5, "input_freq_bins": 8},  # 8, 4, 2, 1, 0
            {"composite_pad": 0},  # a 1x3 kernel would drop two bins per layer
            {"composite_kernel": 4},  # no symmetric pad keeps an even kernel's size
        ],
    )
    def test_bad_sizes_rejected(self, bad):
        with pytest.raises(InvalidArgument):
            ModelConfig(**bad)

    def test_dict_round_trip(self):
        cfg = tiny_config()
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg


class TestShapes:
    def test_composite_channel_arithmetic(self):
        cfg = ModelConfig()
        model = DccrnModel(cfg, seed=0)
        block = model.blocks[0]
        # composite l consumes C_in + growth*(l-1) channels, 1-indexed
        in_channels = [comp.w.shape[1] for comp in block.composites]
        assert in_channels == [2, 10, 18, 26]
        assert block.gated.w1.shape[1] == 34
        block1 = model.blocks[1]
        assert [c.w.shape[1] for c in block1.composites] == [4, 12, 20, 28]

    def test_block_forward_shapes(self):
        cfg = tiny_config()
        model = DccrnModel(cfg, seed=0)
        x = np.random.default_rng(0).standard_normal((1, 4, 8, 2))
        v, _ = model.blocks[0].forward(x, False)
        assert v.shape == (1, 4, 4, 2)  # freq halved, block channels out
        v2, _ = model.blocks[1].forward(v, False)
        assert v2.shape == (1, 4, 2, 4)

    def test_output_length_matches_frames(self):
        cfg = tiny_config()
        model = DccrnModel(cfg, seed=0)
        rng = np.random.default_rng(1)
        for t in (1, 7, 33):
            probs, _ = model.forward_batch(rng.standard_normal((1, t, 8, 2)))
            assert probs.shape == (1, t)
            assert np.all((probs > 0) & (probs < 1))

    def test_input_shape_validated(self):
        model = DccrnModel(tiny_config(), seed=0)
        with pytest.raises(InvalidArgument):
            model.forward_batch(np.zeros((1, 4, 9, 2)))
        with pytest.raises(InvalidArgument):
            model.forward_batch(np.zeros((1, 4, 8, 3)))


def concat_reference(block, x, dv, training):
    """The block's forward and backward written with explicit per-layer
    concatenations, each zero-padded for the layer that reads it, and a
    per-piece gradient split: (v, dx, grads), with no backward in inference."""
    cp, gp, f = block.composite_pad, block.gated_pad, x.shape[2]
    pieces, caches = [x], []
    for comp in block.composites:
        y, cache = comp.forward(pad_freq(np.concatenate(pieces, axis=3), cp), training)
        caches.append(cache)
        pieces.append(y)
    v, gated_cache = block.gated.forward(pad_freq(np.concatenate(pieces, axis=3), gp))
    if not training:
        return v, None, None
    grads = {}
    dcat = block.gated.backward(dv, gated_cache, grads)[:, :, gp : gp + f]
    bounds = np.cumsum([0] + [p.shape[3] for p in pieces])
    dpieces = [dcat[..., lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    for l in range(len(block.composites) - 1, -1, -1):
        dcat_l = np.zeros((*x.shape[:3], bounds[l + 1]), dtype=dcat.dtype)
        block.composites[l].backward(dpieces[l + 1], caches[l], grads, dcat_l)
        for i in range(l + 1):
            dpieces[i] = dpieces[i] + dcat_l[..., bounds[i] : bounds[i + 1]]
    return v, dpieces[0], grads


def check_blocks_against_reference(cfg, training, frames=(2, 3)):
    model = DccrnModel(cfg, seed=11)
    # fold one training batch into the running statistics so inference
    # mode does not run on the identity initialisation
    rng = np.random.default_rng(12)
    model.forward_batch(rng.standard_normal((2, 3, cfg.input_freq_bins, 2)), training=True)
    freqs = cfg.freq_chain()
    dtype = cfg.dtype
    for i, block in enumerate(model.blocks):
        x = rng.standard_normal((*frames, freqs[i], block.c_in)).astype(dtype)
        v, cache = block.forward(x, training)
        dv = rng.standard_normal(v.shape).astype(dtype)
        ref_v, ref_dx, ref_grads = concat_reference(block, x, dv, training)
        assert v.dtype == np.dtype(dtype)
        assert_bits_equal(v, ref_v, "v")
        if not training:
            assert cache is None
            continue
        grads = {}
        dx = block.backward(dv, cache, grads)
        assert_bits_equal(dx, ref_dx, "dx")
        assert grads.keys() == ref_grads.keys() == dict(block.params()).keys()
        for name in grads:
            assert_bits_equal(grads[name], ref_grads[name], name)


class TestDenseWiring:
    def layer_io(self, model, x):
        """(inputs, outputs) of each composite layer plus the gate input, as
        seen by the layers during ConvDcBlock.forward."""
        block = model.blocks[0]
        inputs, outputs = [], []

        def spy(layer):
            forward = layer.forward

            def recording(inp, *args):
                # the layers read views that include their zero pad bins
                pad = (inp.shape[2] - x.shape[2]) // 2
                inputs.append(inp[:, :, pad : pad + x.shape[2]].copy())
                out = forward(inp, *args)
                outputs.append(out[0])
                return out

            layer.forward = recording

        for comp in block.composites:
            spy(comp)
        spy(block.gated)
        block.forward(x, False)
        return inputs, outputs[:-1]

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("training", [True, False])
    def test_block_matches_concatenation_reference(self, dtype, training):
        check_blocks_against_reference(tiny_config(dtype=dtype), training)

    def test_each_slice_carries_its_layer_output(self):
        cfg = tiny_config()
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1, 3, 8, 2))
        model = DccrnModel(cfg, seed=7)
        inputs, outputs = self.layer_io(model, x)
        c_in = cfg.input_channels
        g = cfg.composite_growth
        for later in range(1, len(inputs)):
            assert np.array_equal(inputs[later][..., :c_in], x)
            for j in range(later):
                lo = c_in + j * g
                assert np.array_equal(inputs[later][..., lo : lo + g], outputs[j])

    def test_zeroed_layer_silences_exactly_its_slice(self):
        cfg = tiny_config()
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1, 3, 8, 2))
        zap = 1  # composite layer index to silence (0-based)
        base = DccrnModel(cfg, seed=7)
        ref_inputs, _ = self.layer_io(base, x)
        zapped = DccrnModel(cfg, seed=7)
        comp = zapped.blocks[0].composites[zap]
        comp.w[...] = 0.0
        comp.b[...] = 0.0
        comp.beta[...] = 0.0
        new_inputs, _ = self.layer_io(zapped, x)
        c_in = cfg.input_channels
        g = cfg.composite_growth
        lo = c_in + zap * g
        for later in range(zap + 1, len(new_inputs)):
            # the attributed slice goes silent; everything computed before
            # layer zap is untouched
            assert np.all(new_inputs[later][..., lo : lo + g] == 0)
            assert np.array_equal(new_inputs[later][..., :lo], ref_inputs[later][..., :lo])
            assert not np.array_equal(ref_inputs[later][..., lo : lo + g], 
                                      new_inputs[later][..., lo : lo + g])

    def test_zero_conv_params_zero_composite_output(self):
        # conv -> 0, inference BN keeps 0 (fresh running stats), ELU(0) = 0
        cfg = tiny_config()
        model = DccrnModel(cfg, seed=0)
        comp = model.blocks[0].composites[0]
        comp.w[...] = 0.0
        comp.b[...] = 0.0
        x = np.random.default_rng(8).standard_normal((1, 4, 8, 2))
        y, _ = comp.forward(x, False)
        assert np.all(y == 0)

    def test_zero_input_zero_params_zero_block_output(self):
        cfg = tiny_config()
        model = DccrnModel(cfg, seed=0)
        block = model.blocks[0]
        for _, arr in block.params():
            arr[...] = 0.0
        x = np.zeros((1, 3, 8, 2))
        v, _ = block.forward(x, False)
        assert np.all(v == 0)  # gate = sigmoid(0) = 0.5 scales a zero path


class TestPaddedBuffer:
    """The block pads once: every convolution caches a view of one buffer."""

    @pytest.mark.parametrize("pads", [(1, 1), (1, 0), (1, 2)])
    def test_caches_are_views_of_one_zero_padded_buffer(self, pads):
        cp, gp = pads
        cfg = tiny_config(composite_pad=cp, gated_pad=gp, dtype="float32", input_freq_bins=16)
        block = DccrnModel(cfg, seed=5).blocks[0]
        x = np.random.default_rng(6).standard_normal((2, 3, 16, 2)).astype(np.float32)
        _, (comp_caches, gated_cache) = block.forward(x, True)
        inputs = [c_conv[0] for c_conv, _, _ in comp_caches]
        inputs += [gated_cache[2][0], gated_cache[3][0]]
        buf = inputs[-1].base
        p = max(cp, gp)
        assert buf.shape == (2, 3, 16 + 2 * p, block.gated.w1.shape[1])
        for inp in inputs:
            assert np.shares_memory(inp, buf)
        assert np.all(buf[:, :, :p] == 0) and np.all(buf[:, :, p + 16 :] == 0)
        assert np.array_equal(buf[:, :, p : p + 16, :2], x)
        # each composite's ELU output is its channel slice of the buffer,
        # cached as that view, not as a copy
        g = cfg.composite_growth
        for l, (_, _, c_elu) in enumerate(comp_caches):
            lo = 2 + l * g
            assert np.shares_memory(c_elu, buf)
            assert c_elu.__array_interface__ == buf[:, :, p : p + 16, lo : lo + g].__array_interface__

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("pads", [(1, 0), (1, 2), (2, 1)])
    def test_unequal_pads_match_concatenation_reference(self, pads, training):
        cp, gp = pads
        cfg = tiny_config(composite_pad=cp, composite_kernel=2 * cp + 1, gated_pad=gp,
                          dtype="float32", input_freq_bins=32, block_out_channels=(2, 4, 4))
        check_blocks_against_reference(cfg, training)


class TestPosteriorAndDecisions:
    def test_features_and_forward_batch_contract(self):
        cfg = tiny_config(input_freq_bins=513)
        model = DccrnModel(cfg, seed=0)
        wave = Waveform(np.random.default_rng(4).standard_normal(1600) * 0.1, 8000)
        x = features_for_wave(wave, cfg.input_freq_bins)
        assert x.shape == (20, 513, 2)  # 0.2 s at a 10 ms hop, real/imag channels
        probs, _ = model.forward_batch(x[None], training=False)
        post = VoicingPosterior(probs[0])
        assert len(post) == 20
        again, _ = model.forward_batch(x[None], training=False)
        assert np.array_equal(post.probs, again[0])
        with pytest.raises(InvalidArgument):
            features_for_wave(wave, 8)

    def test_posterior_open_interval(self):
        with pytest.raises(InvalidArgument):
            VoicingPosterior(np.array([0.0, 0.5]))
        with pytest.raises(InvalidArgument):
            VoicingPosterior(np.array([0.5, 1.0]))

    def test_decide_examples(self):
        labels = decide_voicing(np.array([0.4, 0.6]))
        assert list(labels.labels) == [0, 1]
        assert list(decide_voicing(np.array([0.5])).labels) == [0]  # strict

    def test_decide_threshold_monotone(self):
        rng = np.random.default_rng(5)
        p = rng.uniform(0.01, 0.99, size=200)
        counts = [decide_voicing(p, th).labels.sum() for th in (0.2, 0.4, 0.6, 0.8)]
        assert counts == sorted(counts, reverse=True)

    def test_decide_threshold_validated(self):
        with pytest.raises(InvalidArgument):
            decide_voicing(np.array([0.5]), threshold=1.0)


class TestBceLoss:
    def test_confident_correct_near_zero(self):
        p = np.array([1.0 - 1e-7])
        loss, _ = bce_loss(np.array([1.0]), p)
        assert loss < 1e-6

    def test_half_probability_is_ln2(self):
        p = np.full(10, 0.5)
        loss, _ = bce_loss(np.random.default_rng(0).integers(0, 2, 10), p)
        assert loss == pytest.approx(np.log(2.0), rel=1e-12)

    def test_gradient_finite_differences(self):
        rng = np.random.default_rng(6)
        p = rng.uniform(0.05, 0.95, size=20)
        y = rng.integers(0, 2, size=20).astype(float)
        loss, grad = bce_loss(y, p)
        eps = 1e-7
        for i in range(20):
            pp = p.copy()
            pp[i] += eps
            lp, _ = bce_loss(y, pp)
            pp[i] -= 2 * eps
            lm, _ = bce_loss(y, pp)
            fd = (lp - lm) / (2 * eps)
            assert grad[i] == pytest.approx(fd, rel=1e-6)

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidArgument):
            bce_loss(np.zeros(3), np.full(4, 0.5))


class TestCountParams:
    def test_empty(self):
        assert count_params({}) == 0

    def test_single_conv_arithmetic(self):
        cfg = tiny_config()
        model = DccrnModel(cfg, seed=0)
        comp = model.blocks[0].composites[0]
        conv_names = {f"{comp.prefix}.w", f"{comp.prefix}.b"}
        conv_params = {n: a for n, a in comp.params() if n in conv_names}
        assert count_params(conv_params) == 2 * 8 * 3 + 8

    def test_grouped_recurrent_weights_quarter_of_ungrouped(self):
        rng = np.random.default_rng(0)
        # equal total widths: 4 groups of 128 hidden vs 1 group of 512
        grouped = GroupedBlstmLayer("g", 1024, 4, 128, rng, np.float64)
        ungrouped = GroupedBlstmLayer("u", 1024, 1, 512, rng, np.float64)
        g_rec = count_params({n: a for n, a in grouped.params() if n.endswith(".wh")})
        u_rec = count_params({n: a for n, a in ungrouped.params() if n.endswith(".wh")})
        assert g_rec * 4 == u_rec

    def test_full_model_count_is_stable(self):
        model = DccrnModel(tiny_config(), seed=0)
        n = count_params(model.params())
        assert n == sum(a.size for a in model.params().values())
        assert n > 0


@pytest.fixture(scope="module")
def tiny_ckpt(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "tiny.ckpt"
    cfg = tiny_config()
    model = DccrnModel(cfg, seed=1)
    save_checkpoint(path, cfg, model.params(), model.buffers())
    return path


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        cfg = tiny_config()
        model = DccrnModel(cfg, seed=1)
        # dirty the buffers so they are not all default
        x = np.random.default_rng(2).standard_normal((1, 5, 8, 2))
        model.forward_batch(x, training=True)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, cfg, model.params(), model.buffers())
        cfg2, params2, buffers2 = load_checkpoint(path)
        assert cfg2 == cfg
        for name, arr in model.params().items():
            assert np.array_equal(params2[name], arr)
        for name, arr in model.buffers().items():
            assert np.array_equal(buffers2[name], arr)
        # file itself is byte-stable
        save_checkpoint(tmp_path / "m2.ckpt", cfg2, params2, buffers2)
        assert (tmp_path / "m.ckpt").read_bytes() == (tmp_path / "m2.ckpt").read_bytes()

    def test_restored_model_reproduces_outputs(self, tmp_path):
        cfg = tiny_config()
        model = DccrnModel(cfg, seed=3)
        rng = np.random.default_rng(4)
        x = rng.standard_normal((1, 6, 8, 2))
        model.forward_batch(x, training=True)
        ref, _ = model.forward_batch(x, training=False)
        save_checkpoint(tmp_path / "m.ckpt", cfg, model.params(), model.buffers())
        cfg2, params2, buffers2 = load_checkpoint(tmp_path / "m.ckpt")
        fresh = DccrnModel(cfg2, seed=99)
        fresh.load_state(params2, buffers2)
        out, _ = fresh.forward_batch(x, training=False)
        assert np.array_equal(out, ref)

    def test_architecture_mismatch_rejected(self, tmp_path):
        cfg = tiny_config()
        model = DccrnModel(cfg, seed=1)
        save_checkpoint(tmp_path / "m.ckpt", cfg, model.params(), model.buffers())
        _, params, buffers = load_checkpoint(tmp_path / "m.ckpt")
        other = DccrnModel(tiny_config(blstm_hidden=4), seed=0)
        with pytest.raises(InvalidArgument, match="architecture mismatch"):
            other.load_state(params, buffers)

    def test_truncated_rejected_with_path(self, tmp_path):
        cfg = tiny_config()
        model = DccrnModel(cfg, seed=1)
        full = tmp_path / "m.ckpt"
        save_checkpoint(full, cfg, model.params(), model.buffers())
        data = full.read_bytes()
        header_len = int.from_bytes(data[8:16], "little")
        # inside the magic, inside the length field, inside the header, and
        # one byte short of the payload
        for cut in (4, 12, 16 + header_len // 2, len(data) - 1):
            p = tmp_path / f"cut{cut}.ckpt"
            p.write_bytes(data[:cut])
            with pytest.raises(InvalidArgument, match=re.escape(str(p))):
                load_checkpoint(p)

    def test_header_edits_rejected_with_path(self, tiny_ckpt, tmp_path):
        data = tiny_ckpt.read_bytes()
        shape_at = data.index(b'"shape": [') + len(b'"shape": [')
        edits = {
            # one digit of a shape: same header length, nbytes no longer fits
            "shape": (shape_at, bytes([data[shape_at] ^ 1])),
            "not_utf8": (20, b"\xff"),
            "not_json": (16, b"["),
            "unknown_config_key": (data.index(b'"bn_eps"'), b'"xn_eps"'),
            "bad_kind": (data.index(b'"param"'), b'"Param"'),
        }
        for label, (at, new) in edits.items():
            p = tmp_path / f"{label}.ckpt"
            p.write_bytes(data[:at] + new + data[at + len(new):])
            with pytest.raises(InvalidArgument, match=re.escape(str(p))):
                load_checkpoint(p)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "x.ckpt"
        p.write_bytes(b"NOTACKPT" + b"\x00" * 16)
        with pytest.raises(InvalidArgument):
            load_checkpoint(p)


class TestBatchNormModes:
    def test_inference_forward_keeps_no_backward_cache(self):
        # tracemalloc sees numpy's buffers; the reduced model at 3 s
        cfg = ModelConfig(block_out_channels=(2, 4), composite_growth=4, blstm_hidden=32, groups=4)
        model = DccrnModel(cfg, seed=0)
        x = np.random.default_rng(0).standard_normal((1, 301, 513, 2)).astype(np.float32)

        def peak(training):
            tracemalloc.start()
            try:
                probs, cache = model.forward_batch(x, training=training)
                assert (cache is None) == (not training)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        inference, training = peak(False), peak(True)
        assert inference <= 0.75 * training, (inference, training)

    def test_backward_frees_each_consumed_cache(self):
        model = DccrnModel(tiny_config(), seed=0)
        x = np.random.default_rng(1).standard_normal((2, 3, 8, 2))
        probs, cache = model.forward_batch(x, training=True)
        block_cache = cache[0][0]
        block_caches, blstm_caches = cache[0], cache[2]
        model.backward_batch(np.ones_like(probs), cache)
        assert all(c is None for c in block_caches + blstm_caches)
        assert block_cache[1] is None and all(c is None for c in block_cache[0])

    def test_inference_batch_independent_end_to_end(self):
        cfg = tiny_config()
        model = DccrnModel(cfg, seed=5)
        rng = np.random.default_rng(6)
        model.forward_batch(rng.standard_normal((2, 5, 8, 2)), training=True)
        a = rng.standard_normal((1, 5, 8, 2))
        b = rng.standard_normal((3, 5, 8, 2))
        pa, _ = model.forward_batch(a, training=False)
        pab, _ = model.forward_batch(np.concatenate([a, b]), training=False)
        assert np.allclose(pa[0], pab[0], atol=1e-12)

    def test_fd_gradient_random_subset(self):
        # quick end-to-end backprop-vs-FD sanity; the full per-parameter sweep
        # lives in the acceptance suite
        cfg = tiny_config(blstm_hidden=4)
        model = DccrnModel(cfg, seed=7)
        rng = np.random.default_rng(8)
        x = rng.standard_normal((1, 3, 8, 2))
        y = rng.integers(0, 2, size=(1, 3)).astype(float)
        probs, cache = model.forward_batch(x, training=True)
        loss, dp = bce_loss(y, probs)
        grads = model.backward_batch(dp, cache)

        def loss_at():
            p, _ = model.forward_batch(x, training=True)
            return bce_loss(y, p)[0]

        eps = 1e-5
        params = model.params()
        for name, arr in params.items():
            flat = arr.ravel()
            idx = int(rng.integers(0, flat.size))
            old = flat[idx]
            flat[idx] = old + eps
            lp = loss_at()
            flat[idx] = old - eps
            lm = loss_at()
            flat[idx] = old
            fd = (lp - lm) / (2 * eps)
            an = grads[name].ravel()[idx]
            # 1e-6 floor absorbs FD noise on dead parameters (conv bias is
            # cancelled by the following batch norm)
            denom = max(abs(fd), abs(an), 1e-6)
            assert abs(fd - an) / denom < 1e-4, name


@settings(max_examples=300)
@given(bit=st.integers(min_value=0))
def test_header_bit_flip_loads_or_raises_invalid_argument(tiny_ckpt, bit):
    data = tiny_ckpt.read_bytes()
    header_len = int.from_bytes(data[8:16], "little")
    bit %= 8 * header_len
    pos = 16 + bit // 8
    p = tiny_ckpt.with_name("flipped.ckpt")
    p.write_bytes(data[:pos] + bytes([data[pos] ^ (1 << bit % 8)]) + data[pos + 1:])
    try:
        load_checkpoint(p)  # the config is never used to build a model
    except InvalidArgument as err:
        assert str(p) in str(err)


@settings(max_examples=200)
@given(cut=st.integers(min_value=0))
def test_truncation_raises_invalid_argument(tiny_ckpt, cut):
    data = tiny_ckpt.read_bytes()
    p = tiny_ckpt.with_name("truncated.ckpt")
    p.write_bytes(data[: cut % len(data)])
    with pytest.raises(InvalidArgument, match=re.escape(str(p))):
        load_checkpoint(p)


def plain_sums(a, b=None):
    """The sums _row_sums stands for."""
    return (a if b is None else a * b).sum(axis=tuple(range(a.ndim - 1)))


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_training_step_matches_plain_sums(dtype, monkeypatch):
    # one training step's posteriors, gradients and running statistics, with
    # every per-channel row sum taken by _row_sums and by the plain sum
    import voicedet.nn.ops as ops_module
    import voicedet.nn.recurrent as recurrent_module

    cfg = tiny_config(dtype=dtype, input_freq_bins=65, blstm_hidden=8, groups=2)
    rng = np.random.default_rng(31)
    x = rng.standard_normal((3, 40, 65, 2))
    dp = rng.standard_normal((3, 40))

    def step():
        model = DccrnModel(cfg, seed=9)
        probs, cache = model.forward_batch(x, training=True)
        return probs, model.backward_batch(dp.astype(probs.dtype), cache), model.buffers()

    probs, grads, buffers = step()
    monkeypatch.setattr(ops_module, "_row_sums", plain_sums)
    monkeypatch.setattr(recurrent_module, "_row_sums", plain_sums)
    ref_probs, ref_grads, ref_buffers = step()
    assert_bits_equal(probs, ref_probs, "probs")
    assert grads.keys() == ref_grads.keys() and buffers.keys() == ref_buffers.keys()
    for name in grads:
        assert_bits_equal(grads[name], ref_grads[name], name)
    for name in buffers:
        assert_bits_equal(buffers[name], ref_buffers[name], name)
