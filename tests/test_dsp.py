"""Tests for the signal-processing primitives."""

import importlib
import tracemalloc

import numpy as np
import pytest
from scipy.fft import next_fast_len
from scipy.signal import fftconvolve, resample_poly

from voicedet import dsp
from voicedet.dsp import (
    FrameConfig,
    InvalidArgument,
    Waveform,
    apply_fir,
    design_kaiser_highpass,
    peak_normalize,
    read_wav,
    resample,
    stft,
    write_wav,
)
from voicedet.training import features_for_wave


def tone(freq, sr, seconds=1.0, amp=1.0):
    t = np.arange(int(sr * seconds)) / sr
    return Waveform(amp * np.sin(2 * np.pi * freq * t), sr)


class TestWaveform:
    def test_rejects_nan(self):
        with pytest.raises(InvalidArgument):
            Waveform(np.array([0.0, np.nan]), 8000)

    def test_rejects_bad_rate(self):
        with pytest.raises(InvalidArgument):
            Waveform(np.zeros(10), 0)

    def test_rejects_stereo(self):
        with pytest.raises(InvalidArgument):
            Waveform(np.zeros((10, 2)), 8000)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_rejects_non_finite_anywhere(self, bad, where):
        # several check blocks plus a remainder
        x = np.random.default_rng(0).uniform(-1.0, 1.0, 3 * dsp._FINITE_BLOCK + 5)
        x[{"first": 0, "middle": x.size // 2, "last": -1}[where]] = bad
        with pytest.raises(InvalidArgument):
            Waveform(x, 8000)

    def test_accepts_finite_samples_whose_sum_overflows(self):
        x = np.full(2 * dsp._FINITE_BLOCK + 3, np.finfo(np.float64).max)
        x[::2] *= -1.0  # an overflowing sum of mixed sign is NaN, not Inf
        x[:4] = np.finfo(np.float64).max
        assert len(Waveform(x, 8000)) == x.size
        assert len(Waveform(np.full(10, 1e308), 8000)) == 10

    def test_finite_check_memory_does_not_grow_with_input(self):
        def peak(seconds):
            x = np.random.default_rng(0).uniform(-1.0, 1.0, 16000 * seconds)
            tracemalloc.start()
            try:
                Waveform(x, 16000)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(600) <= peak(60) + 64 * 1024


class TestResample:
    def test_duration_arithmetic(self):
        out = resample(Waveform(np.random.default_rng(0).standard_normal(16000), 16000), 8000)
        assert out.sample_rate == 8000
        assert abs(len(out) - 8000) <= 1

    def test_tone_survives_downsampling(self):
        # oracle: locate the dominant STFT bin of the resampled tone
        out = resample(tone(440.0, 16000), 8000)
        spec = stft(out, FrameConfig.for_rate(8000))
        mags = np.abs(spec[5:-5])
        peak_bins = mags.argmax(axis=1)
        expect = 440.0 * 1024 / 8000
        assert np.all(np.abs(peak_bins - expect) <= 1.0)

    def test_identity_rate(self):
        w = tone(100.0, 8000)
        assert resample(w, 8000) is w

    def test_upsampling_preserves_tone(self):
        out = resample(tone(440.0, 8000), 16000)
        assert out.sample_rate == 16000
        assert abs(len(out) - 16000) <= 1

    def test_non_integer_ratio(self):
        # 44.1 kHz -> 8 kHz is an 80/441 polyphase stage
        out = resample(tone(440.0, 44100), 8000)
        assert abs(len(out) - 8000) <= 1
        spec = stft(out, FrameConfig.for_rate(8000))
        peaks = np.abs(spec[5:-5]).argmax(axis=1)
        assert np.all(np.abs(peaks - 440.0 * 1024 / 8000) <= 1.0)

    def test_rejects_bad_rate(self):
        with pytest.raises(InvalidArgument):
            resample(tone(100.0, 8000), 0)

    @pytest.mark.parametrize("up, down", [(1, 2), (2, 1), (80, 441)])
    def test_filter_is_designed_once_and_read_only(self, up, down):
        taps = dsp._resample_filter(up, down)
        assert dsp._resample_filter(up, down) is taps
        assert taps.tobytes() == dsp._resample_filter.__wrapped__(up, down).tobytes()
        with pytest.raises(ValueError):
            taps[0] = 1.0


class TestStft:
    def test_8k_config(self):
        cfg = FrameConfig.for_rate(8000)
        assert cfg.window_len == 1024
        assert cfg.hop == 80
        assert cfg.fft_size == 1024
        assert stft(tone(100.0, 8000), cfg).shape[1] == 513

    def test_sine_peak_bin(self):
        spec = stft(tone(1000.0, 8000), FrameConfig.for_rate(8000))
        mags = np.abs(spec[5:-5])
        assert np.all(mags.argmax(axis=1) == round(1000 * 1024 / 8000))

    def test_zero_signal(self):
        spec = stft(Waveform(np.zeros(8000), 8000), FrameConfig.for_rate(8000))
        assert np.all(spec == 0)

    @pytest.mark.parametrize("n", [1, 79, 80, 81, 1024, 1025, 24000, 48037])
    def test_frame_count(self, n):
        """ceil(n / hop) rows, each the FFT of the windowed frame at t * hop
        of the zero-padded signal (bit-equal to an index gather), in one
        C-ordered complex array."""
        cfg = FrameConfig.for_rate(8000)
        x = np.random.default_rng(n).standard_normal(n)
        spec = stft(Waveform(x, 8000), cfg)
        t = -(-n // 80)
        assert spec.shape == (t, 513)
        padded = np.zeros((t - 1) * cfg.hop + cfg.window_len)
        padded[:n] = x
        idx = np.arange(cfg.window_len)[None, :] + cfg.hop * np.arange(t)[:, None]
        expect = np.fft.rfft(padded[idx] * cfg.window()[None, :], n=cfg.fft_size, axis=1)
        assert spec.flags.c_contiguous and spec.dtype == np.complex128
        assert spec.tobytes() == expect.tobytes()

    def test_empty_signal_rejected(self):
        with pytest.raises(InvalidArgument):
            stft(Waveform(np.array([]), 8000), FrameConfig.for_rate(8000))

    def test_linearity(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(4000)
        cfg = FrameConfig.for_rate(8000)
        a = stft(Waveform(3.7 * x, 8000), cfg)
        b = 3.7 * stft(Waveform(x, 8000), cfg)
        assert np.allclose(a, b, rtol=1e-9, atol=1e-12)

    def test_parseval_per_frame(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(4096)
        cfg = FrameConfig.for_rate(8000)
        spec = stft(Waveform(x, 8000), cfg)
        win = cfg.window()
        t = 10
        seg = x[t * cfg.hop : t * cfg.hop + cfg.window_len] * win
        # extend the one-sided spectrum back to two-sided for the energy sum
        full = np.concatenate([spec[t], np.conj(spec[t][-2:0:-1])])
        lhs = np.sum(seg**2)
        rhs = np.sum(np.abs(full) ** 2) / cfg.fft_size
        assert abs(lhs - rhs) / lhs < 1e-6


class TestKaiserHighpass:
    def test_male_setting_response(self):
        filt = design_kaiser_highpass(5.0, 2400, 15.0, 8000)
        assert filt.taps.size == 2401
        assert filt.group_delay == 1200
        assert filt.design_meta == {"beta": 5.0, "n": 2400, "cutoff_hz": 15.0}

    def test_dc_rejection(self):
        filt = design_kaiser_highpass(5.0, 2400, 15.0, 8000)
        dc_gain = abs(filt.taps.sum())
        assert 20 * np.log10(max(dc_gain, 1e-300)) <= -60

    def test_passband_flat_at_100hz(self):
        filt = design_kaiser_highpass(5.0, 2400, 25.0, 8000)
        mag = np.abs(filt.frequency_response(np.array([100.0]), 8000))[0]
        assert abs(20 * np.log10(mag)) < 1.0

    def test_exact_symmetry(self):
        filt = design_kaiser_highpass(5.0, 2400, 15.0, 8000)
        assert np.array_equal(filt.taps, filt.taps[::-1])

    def test_rejects_bad_cutoff(self):
        with pytest.raises(InvalidArgument):
            design_kaiser_highpass(5.0, 2400, 4000.0, 8000)
        with pytest.raises(InvalidArgument):
            design_kaiser_highpass(5.0, 2400, 0.0, 8000)

    def test_rejects_odd_order(self):
        with pytest.raises(InvalidArgument):
            design_kaiser_highpass(5.0, 2401, 15.0, 8000)


class TestApplyFir:
    def test_removes_dc_offset(self):
        # 4 s so the filter's edge transients do not dominate the mean
        filt = design_kaiser_highpass(5.0, 2400, 25.0, 8000)
        w = tone(200.0, 8000, seconds=4.0)
        shifted = Waveform(w.samples + 0.5, 8000)
        out = apply_fir(shifted, filt)
        assert abs(np.mean(out.samples)) < 1e-3

    def test_impulse_response(self):
        filt = design_kaiser_highpass(5.0, 2400, 25.0, 8000)
        x = np.zeros(4000)
        x[2000] = 1.0
        out = apply_fir(Waveform(x, 8000), filt)
        expect = np.zeros(4000)
        lo = 2000 - filt.group_delay
        expect[lo : lo + filt.taps.size] = filt.taps
        assert np.allclose(out.samples, expect[:4000], atol=1e-12)

    def test_zero_signal(self):
        filt = design_kaiser_highpass(5.0, 2400, 25.0, 8000)
        out = apply_fir(Waveform(np.zeros(1000), 8000), filt)
        assert np.allclose(out.samples, 0.0, atol=1e-15)

    def test_linearity(self):
        filt = design_kaiser_highpass(5.0, 2400, 25.0, 8000)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(5000)
        y = rng.standard_normal(5000)
        fx = apply_fir(Waveform(x, 8000), filt).samples
        fy = apply_fir(Waveform(y, 8000), filt).samples
        fxy = apply_fir(Waveform(2.0 * x + 0.5 * y, 8000), filt).samples
        assert np.allclose(fxy, 2.0 * fx + 0.5 * fy, atol=1e-9)

    def test_output_time_aligned(self):
        # a tone should come out in phase with itself after delay trimming
        filt = design_kaiser_highpass(5.0, 2400, 25.0, 8000)
        w = tone(500.0, 8000, seconds=2.0)
        out = apply_fir(w, filt)
        mid = slice(6000, 10000)
        corr = np.dot(out.samples[mid], w.samples[mid])
        norm = np.linalg.norm(out.samples[mid]) * np.linalg.norm(w.samples[mid])
        assert corr / norm > 0.999


def kernel_lengths(n_taps, step):
    """Input lengths for the overlap-save kernel: empty, one sample, shorter
    than the filter, not a multiple of step, exactly one full block, one
    block plus one kept sample, and several blocks plus a remainder."""
    per_block = (next_fast_len(dsp._BLOCK_TAPS * n_taps, real=True) - n_taps + 1) // step
    return [0, 1, n_taps // 2, 10 * step + 1, per_block * step, per_block * step + 1,
            3 * per_block * step + step + 1]


class TestFirKernel:
    """The overlap-save kernel against scipy's direct and FFT convolutions."""

    @pytest.mark.parametrize("down", [2, 3, 4, 6])
    def test_decimation_matches_resample_poly(self, down):
        taps = dsp._resample_filter(1, down)
        rng = np.random.default_rng(down)
        for n in kernel_lengths(taps.size, down):
            x = rng.uniform(-1.0, 1.0, n)
            out = resample(Waveform(x, 8000 * down), 8000)
            expect = resample_poly(x, 1, down, window=taps)
            assert out.samples.shape == expect.shape == (-(-n // down),)
            np.testing.assert_allclose(out.samples, expect, rtol=0, atol=1e-12, err_msg=f"n={n}")

    @pytest.mark.parametrize("cutoff_hz", [15.0, 50.0])
    def test_apply_fir_matches_fftconvolve(self, cutoff_hz):
        filt = design_kaiser_highpass(5.0, 2400, cutoff_hz, 8000)
        rng = np.random.default_rng(int(cutoff_hz))
        for n in kernel_lengths(filt.taps.size, 1):
            x = rng.uniform(-1.0, 1.0, n)
            out = apply_fir(Waveform(x, 8000), filt)
            expect = np.zeros(n)
            if n:
                kept = fftconvolve(x, filt.taps)[filt.group_delay : filt.group_delay + n]
                expect[: kept.size] = kept
            np.testing.assert_allclose(out.samples, expect, rtol=0, atol=1e-12, err_msg=f"n={n}")

    @pytest.mark.parametrize("taps, start, step", [
        (dsp._resample_filter(1, 2), 100, 2),
        (design_kaiser_highpass(5.0, 2400, 50.0, 8000).taps, 1200, 1),
    ])
    def test_temporaries_do_not_grow_with_input(self, taps, start, step):
        def peak_beyond_output(seconds):
            x = np.random.default_rng(0).uniform(-1.0, 1.0, 16000 * seconds)
            tracemalloc.start()
            try:
                out = dsp._fir_samples(x, taps, start, step, -(-x.size // step))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - out.nbytes

        assert peak_beyond_output(600) <= peak_beyond_output(60) + 64 * 1024


class TestModelInput:
    """The model input is the STFT's real and imaginary parts, read through a
    float64 view of the complex array rather than copied out of it."""

    @pytest.mark.parametrize("rate", [8000, 16000, 48000])
    def test_features_are_the_stft_parts(self, rate):
        wave = Waveform(np.random.default_rng(rate).standard_normal(rate // 2), rate)
        x = features_for_wave(wave)
        at_8k = resample(wave, 8000) if rate != 8000 else wave
        spec = stft(peak_normalize(at_8k), FrameConfig.for_rate(8000))
        assert x.shape == (spec.shape[0], 513, 2) and x.dtype == np.float64
        assert x[..., 0].tobytes() == spec.real.copy().tobytes()
        assert x[..., 1].tobytes() == spec.imag.copy().tobytes()
        # a view of the STFT, not a copy
        assert x.base.dtype == np.complex128 and x.base.shape == spec.shape
        assert x.base.tobytes() == spec.tobytes()


@pytest.mark.parametrize("package", ["voicedet", "voicedet.nn"])
def test_public_names_import(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        assert getattr(module, name) is not None, name


class TestWavIo:
    def test_float32_round_trip(self, tmp_path):
        w = tone(250.0, 8000, seconds=0.5, amp=0.7)
        path = tmp_path / "t.wav"
        write_wav(path, w)
        back = read_wav(path)
        assert back.sample_rate == 8000
        assert np.allclose(back.samples, w.samples, atol=1e-6)

    def test_int16_read(self, tmp_path):
        from scipy.io import wavfile

        data = (np.sin(2 * np.pi * 100 * np.arange(800) / 8000) * 20000).astype(np.int16)
        path = tmp_path / "i.wav"
        wavfile.write(path, 8000, data)
        back = read_wav(path)
        assert np.max(np.abs(back.samples)) <= 1.0
        assert np.allclose(back.samples, data / 32768.0)

    def test_rejects_stereo(self, tmp_path):
        from scipy.io import wavfile

        path = tmp_path / "s.wav"
        wavfile.write(path, 8000, np.zeros((100, 2), dtype=np.int16))
        with pytest.raises(InvalidArgument):
            read_wav(path)


def test_peak_normalize():
    w = Waveform(np.array([0.1, -0.5, 0.25]), 8000)
    out = peak_normalize(w)
    assert np.max(np.abs(out.samples)) == 1.0
    zero = peak_normalize(Waveform(np.zeros(5), 8000))
    assert np.all(zero.samples == 0)
