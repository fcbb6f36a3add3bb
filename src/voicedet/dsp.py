"""Deterministic signal-processing primitives.

Resampling, framing/STFT and linear-phase FIR high-pass design. All
functions but the WAV readers and writers are pure, and all but `read_wav`
(which sets the process-wide warning filters while it reads) are safe to
call from multiple threads.

FIR filtering and integer-ratio decimation share one overlap-save kernel
(`_fir_samples`): FFT blocks sized from the filter length, so temporaries
stay bounded however long the recording is. Only ratios with up > 1 go
through scipy's `resample_poly`, and only they import `scipy.signal`, whose
import costs more than numpy, `scipy.fft` and `scipy.io.wavfile` together.

Conventions (fixed, not tunable):
  * framing is left-aligned with right zero-padding, T = ceil(len / hop)
  * Hamming coefficients 0.54 - 0.46*cos(2*pi*k/(N-1))
  * per-utterance peak normalization is available via `peak_normalize`
    and applied by feature-extraction callers, not inside `stft`
"""
from __future__ import annotations

import math
import numbers
import struct
import warnings
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import fft
from scipy.io import wavfile


class InvalidArgument(ValueError):
    """Raised when an operation precondition is violated."""


class EmptyWav(InvalidArgument):
    """Raised by `read_wav` for a well-formed WAV file with no samples."""


def is_integer(value) -> bool:
    """An integer that is not a bool (JSON's `true` reads as 1)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_field_types(cfg) -> None:
    """Reject a dataclass field annotated `float` that is not a finite real
    number, or one annotated `int` that is not an integer (a bool is neither)."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if f.type in ("float", float) and (isinstance(value, bool) or not (
                isinstance(value, numbers.Real) and math.isfinite(value))):
            raise InvalidArgument(f"{f.name} must be a finite number, got {value!r}")
        if f.type in ("int", int) and not is_integer(value):
            raise InvalidArgument(f"{f.name} must be an integer, got {value!r}")


def read_bytes(path: str | Path) -> bytes:
    """The whole file; one that is missing or cannot be read is an
    InvalidArgument naming the path."""
    try:
        return Path(path).read_bytes()
    except OSError as err:
        raise InvalidArgument(f"{path}: cannot read file: {err.strerror or err}") from None


def read_text(path: str | Path) -> str:
    """The whole file as UTF-8 text; bytes that are not UTF-8 are an
    InvalidArgument naming the path, as read_bytes' errors are."""
    try:
        return read_bytes(path).decode("utf-8")
    except UnicodeDecodeError as err:
        raise InvalidArgument(f"{path}: not a UTF-8 text file ({err.reason})") from None


_FINITE_BLOCK = 4096


def _all_finite(x: np.ndarray) -> bool:
    """np.isfinite(x).all() in bounded memory: the sum of x is finite when
    every sample is, so only a NaN, an Inf or an overflowing sum leads to
    the block-by-block check."""
    with np.errstate(over="ignore", invalid="ignore"):
        if np.isfinite(x.sum()):
            return True
    return all(np.isfinite(x[i : i + _FINITE_BLOCK]).all() for i in range(0, x.size, _FINITE_BLOCK))


@dataclass(frozen=True)
class Waveform:
    """Mono sample sequence with its sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", samples)
        if self.sample_rate <= 0:
            raise InvalidArgument(f"sample_rate must be positive, got {self.sample_rate}")
        if samples.ndim != 1:
            raise InvalidArgument(f"waveform must be mono 1-D, got shape {samples.shape}")
        if not _all_finite(samples):
            raise InvalidArgument("waveform contains NaN or Inf")

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate


@dataclass(frozen=True)
class FrameConfig:
    """STFT framing parameters (Hamming window length, hop, FFT size in samples)."""

    window_len: int
    hop: int
    fft_size: int

    def __post_init__(self):
        if not (0 < self.hop <= self.window_len <= self.fft_size):
            raise InvalidArgument(
                f"need 0 < hop <= window_len <= fft_size, got "
                f"hop={self.hop} window_len={self.window_len} fft_size={self.fft_size}"
            )

    @classmethod
    def for_rate(cls, sample_rate: int) -> "FrameConfig":
        """The framing config at a sample rate: 128 ms window, FFT of the
        window's length, 10 ms hop."""
        window_len = int(round(sample_rate * 128.0 / 1000.0))
        hop = int(round(sample_rate * 10.0 / 1000.0))
        return cls(window_len=window_len, hop=hop, fft_size=window_len)

    def n_frames(self, n_samples: int) -> int:
        """Frame count for a signal of n_samples: ceil(n / hop)."""
        if n_samples <= 0:
            raise InvalidArgument("empty signal")
        return -(-n_samples // self.hop)

    def window(self) -> np.ndarray:
        n = self.window_len
        k = np.arange(n)
        return 0.54 - 0.46 * np.cos(2.0 * np.pi * k / (n - 1))


@dataclass(frozen=True)
class FirFilter:
    """Linear-phase FIR filter taps with integer group delay."""

    taps: np.ndarray
    group_delay: int
    design_meta: dict = field(default_factory=dict)

    def frequency_response(self, freqs_hz: np.ndarray, sample_rate: int) -> np.ndarray:
        """Complex DTFT of the taps at the given frequencies."""
        freqs_hz = np.atleast_1d(np.asarray(freqs_hz, dtype=np.float64))
        k = np.arange(self.taps.size)
        phase = -2j * np.pi * np.outer(freqs_hz / sample_rate, k)
        return np.exp(phase) @ self.taps


def peak_normalize(wave: Waveform) -> Waveform:
    """Scale so max|s| = 1; all-zero input is returned unchanged."""
    peak = np.max(np.abs(wave.samples)) if len(wave) else 0.0
    if peak == 0.0:
        return wave
    return Waveform(wave.samples / peak, wave.sample_rate)


@lru_cache(maxsize=16)
def _resample_filter(up: int, down: int) -> np.ndarray:
    """Kaiser windowed-sinc anti-alias filter for a polyphase up/down stage,
    designed once per ratio and shared read-only.

    Passband to 0.45 and stopband from 0.5 of the narrower Nyquist,
    ~80 dB stopband attenuation.
    """
    max_rate = max(up, down)
    atten = 80.0
    beta = 0.1102 * (atten - 8.7)
    # transition 0.05/max_rate cycles/sample at the upsampled rate
    delta_w = 2.0 * np.pi * 0.05 / max_rate
    n_taps = int(np.ceil((atten - 7.95) / (2.285 * delta_w)))
    if n_taps % 2 == 0:
        n_taps += 1
    half = n_taps // 2
    fc = 0.475 / max_rate  # cycles/sample, center of the transition band
    m = np.arange(n_taps) - half
    taps = 2.0 * fc * np.sinc(2.0 * fc * m) * np.kaiser(n_taps, beta)
    taps /= taps.sum()
    taps.flags.writeable = False
    return taps


# FFT size of a full overlap-save block, in filter lengths: about
# 1/_BLOCK_TAPS of each transform is overlap with the previous block.
_BLOCK_TAPS = 32


def _fir_samples(x: np.ndarray, taps: np.ndarray, start: int, step: int, n_out: int) -> np.ndarray:
    """Samples start + step*i (0 <= i < n_out) of the full convolution x * taps.

    Overlap-save: each FFT block of the input gives a run of consecutive
    convolution samples, of which every step-th is kept; samples past the
    end of the convolution are zero. The FFT size is about _BLOCK_TAPS
    filter lengths, less when one block covers the whole span, so the
    temporaries are O(block) however long x is.
    """
    m = taps.size
    out = np.zeros(n_out)
    if n_out == 0:
        return out
    nfft = fft.next_fast_len(_BLOCK_TAPS * m, real=True)
    per_block = (nfft - m + 1) // step  # kept samples per block
    if n_out <= per_block:  # one block, just long enough
        nfft = fft.next_fast_len(step * (n_out - 1) + m, real=True)
        per_block = n_out
    spec = fft.rfft(taps, nfft)
    seg = np.empty(nfft)
    for i in range(0, n_out, per_block):
        # seg = x[lo : lo + nfft], zero outside x; positions m-1 .. nfft-1 of
        # the circular convolution seg (*) taps are the linear convolution's
        # samples lo+m-1 .. lo+nfft-1, i.e. start + i*step onwards
        lo = start + i * step - m + 1
        a, b = max(lo, 0), min(lo + nfft, x.size)
        seg.fill(0.0)
        if a < b:
            seg[a - lo : b - lo] = x[a:b]
        y = fft.irfft(fft.rfft(seg) * spec, nfft)[m - 1 :: step]
        k = min(per_block, n_out - i)
        out[i : i + k] = y[:k]
    return out


def resample(wave: Waveform, target_rate: int) -> Waveform:
    """Rational-ratio resampling with a Kaiser windowed-sinc anti-alias filter;
    a wave already at target_rate is returned as it is.

    Integer decimation (up == 1) runs the overlap-save kernel over the
    filter and keeps every down-th sample, with `resample_poly`'s alignment
    and length ceil(n / down); its temporaries are bounded. Other ratios
    (up > 1) use scipy's `resample_poly` with the same filter design.
    """
    if target_rate <= 0:
        raise InvalidArgument(f"target_rate must be positive, got {target_rate}")
    if target_rate == wave.sample_rate:
        return wave
    ratio = Fraction(target_rate, wave.sample_rate)
    up, down = ratio.numerator, ratio.denominator
    taps = _resample_filter(up, down)
    if up == 1:
        out = _fir_samples(wave.samples, taps, (taps.size - 1) // 2, down, -(-len(wave) // down))
    else:
        from scipy.signal import resample_poly

        out = resample_poly(wave.samples, up, down, window=taps)
    return Waveform(out, target_rate)


def stft(wave: Waveform, cfg: FrameConfig) -> np.ndarray:
    """Hamming-windowed one-sided STFT, left-aligned frames, right zero-padding:
    a C-ordered complex [T, fft_size // 2 + 1] array."""
    x = wave.samples
    if x.size == 0:
        raise InvalidArgument("empty signal")
    n_frames = cfg.n_frames(x.size)
    padded = np.zeros((n_frames - 1) * cfg.hop + cfg.window_len)
    padded[: x.size] = x
    frames = sliding_window_view(padded, cfg.window_len)[:: cfg.hop] * cfg.window()
    return np.fft.rfft(frames, n=cfg.fft_size, axis=1)


def design_kaiser_highpass(beta: float, n: int, cutoff_hz: float, sample_rate: int) -> FirFilter:
    """Linear-phase Kaiser high-pass of order n (n + 1 taps).

    Built by spectral inversion of a Kaiser windowed-sinc low-pass whose DC
    gain is normalized to one, so the high-pass response is exactly zero at DC.
    """
    if n <= 0 or n % 2 != 0:
        raise InvalidArgument(f"filter order must be positive and even, got {n}")
    if not (0.0 < cutoff_hz < sample_rate / 2.0):
        raise InvalidArgument(
            f"cutoff {cutoff_hz} Hz outside (0, Nyquist={sample_rate / 2.0}) of rate {sample_rate}"
        )
    half = n // 2
    m = np.arange(n + 1) - half
    fc = cutoff_hz / sample_rate  # cycles/sample
    lowpass = 2.0 * fc * np.sinc(2.0 * fc * m) * np.kaiser(n + 1, beta)
    lowpass /= lowpass.sum()
    taps = -lowpass
    taps[half] += 1.0
    return FirFilter(
        taps=taps,
        group_delay=half,
        design_meta={"beta": float(beta), "n": int(n), "cutoff_hz": float(cutoff_hz)},
    )


def apply_fir(wave: Waveform, filt: FirFilter) -> Waveform:
    """Filter and re-align: convolution samples group_delay .. group_delay + n - 1.

    The output keeps the input length (zeros where the convolution ends
    early). Runs the overlap-save kernel, so temporaries are bounded.
    """
    out = _fir_samples(wave.samples, filt.taps, filt.group_delay, 1, len(wave))
    return Waveform(out, wave.sample_rate)


def read_wav(path: str | Path) -> Waveform:
    """Read a mono WAV file (16-bit PCM or 32-bit float), normalized to [-1, 1].

    A malformed, truncated or empty file is an InvalidArgument naming the path
    (an empty one is its subclass EmptyWav); scipy only warns about a file
    that ends before its header says, so that warning is raised as an error
    here.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", wavfile.WavFileWarning)
            rate, data = wavfile.read(str(path))
    except (ValueError, struct.error, wavfile.WavFileWarning) as err:
        raise InvalidArgument(f"{path}: malformed WAV file: {err}") from err
    if data.ndim != 1:
        raise InvalidArgument(f"{path}: only mono WAV is supported, got {data.ndim} channels")
    if not data.size:
        raise EmptyWav(f"{path}: no samples")
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    elif data.dtype in (np.float32, np.float64):
        samples = data.astype(np.float64)
    else:
        raise InvalidArgument(f"{path}: unsupported sample format {data.dtype}")
    return Waveform(samples, int(rate))


def write_wav(path: str | Path, wave: Waveform) -> None:
    """Write a mono 32-bit float WAV file."""
    wavfile.write(str(path), wave.sample_rate, wave.samples.astype(np.float32))
