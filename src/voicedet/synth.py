"""Deterministic synthetic voiced/unvoiced corpus for tests and demos.

Each utterance is a seeded sequence of sawtooth (100-300 Hz), white-noise,
and silence segments with ground-truth frame labels constructed from the
segment plan. The "laryngograph" channel is the same signal plus a
low-frequency drift component, exercising the high-pass step of reference
label extraction. Written in the layout `corpus.scan_corpus` reads, with the
constructed truth as provided labels.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Manifest, scan_corpus
from .dsp import FrameConfig, InvalidArgument, Waveform, write_wav
from .labels import write_labels
from .tracker import VoicingLabels

SAMPLE_RATE = 8000


@dataclass(frozen=True)
class Segment:
    kind: str  # sawtooth | noise | silence
    start: int  # samples
    length: int
    f0: float = 0.0


def plan_segments(rng: np.random.Generator, n_samples: int, sample_rate: int) -> list[Segment]:
    """Silence-bracketed alternation of sawtooth and noise/silence fillers."""
    segs: list[Segment] = []
    pos = 0

    def add(kind: str, length: int, f0: float = 0.0):
        nonlocal pos
        length = min(length, n_samples - pos)
        if length > 0:
            segs.append(Segment(kind, pos, length, f0))
            pos += length

    tail = int(0.25 * sample_rate)
    add("silence", int(rng.uniform(0.15, 0.3) * sample_rate))
    while pos < n_samples - tail:
        # voiced segments never reach into the unvoiced tail
        length = min(int(rng.uniform(0.3, 0.6) * sample_rate), n_samples - tail - pos)
        add("sawtooth", length, f0=float(rng.uniform(100.0, 300.0)))
        filler = "noise" if rng.uniform() < 0.6 else "silence"
        add(filler, int(rng.uniform(0.2, 0.45) * sample_rate))
    add("silence", n_samples - pos)
    return segs


def render_segments(
    rng: np.random.Generator, segs: list[Segment], n_samples: int, sample_rate: int
) -> np.ndarray:
    x = np.zeros(n_samples)
    for s in segs:
        t = np.arange(s.length) / sample_rate
        if s.kind == "sawtooth":
            # scipy.signal.sawtooth at width 1, bit for bit
            x[s.start : s.start + s.length] = 0.4 * (np.mod(2.0 * np.pi * s.f0 * t, 2 * np.pi) / np.pi - 1)
        elif s.kind == "noise":
            x[s.start : s.start + s.length] = 0.08 * rng.standard_normal(s.length)
    return x


def truth_labels(
    segs: list[Segment], n_samples: int, frame_cfg: FrameConfig, sample_rate: int
) -> VoicingLabels:
    """Per-frame truth: voiced iff more than half of the 10 ms slot is sawtooth,
    with the mean f0 of the frame's sawtooth samples.

    A frame's sawtooth samples must all come from one segment (plan_segments
    puts a filler longer than a hop between two sawtooths), so its f0 is the
    mean of m copies of that segment's f0, taken once per (f0, m) pair; the
    mean of m copies of f0 is not always f0 itself."""
    hop = frame_cfg.hop
    n_frames = frame_cfg.n_frames(n_samples)
    f0_by_sample = np.zeros(n_frames * hop)
    for s in segs:
        if s.kind == "sawtooth":
            f0_by_sample[s.start : s.start + s.length] = s.f0
    frames = f0_by_sample.reshape(n_frames, hop)
    counts = np.count_nonzero(frames, axis=1)
    voiced = counts / hop > 0.5
    seg_f0 = frames.max(axis=1)[voiced]
    if np.any(seg_f0 != np.where(frames > 0, frames, np.inf).min(axis=1)[voiced]):
        raise InvalidArgument("a voiced frame holds samples of two sawtooth segments")
    pairs, which = np.unique(np.stack([seg_f0, counts[voiced]], axis=1), axis=0, return_inverse=True)
    means = np.array([np.full(int(m), f).mean() for f, m in pairs])
    f0 = np.zeros(n_frames)
    f0[voiced] = means[which]
    return VoicingLabels(voiced.astype(np.int8), hop_ms=1000.0 * hop / sample_rate, f0=f0)


def synth_utterance(
    seed: int, index: int, duration_sec: float = 3.0, sample_rate: int = SAMPLE_RATE
) -> tuple[Waveform, Waveform, VoicingLabels]:
    """Deterministic (mic, laryngograph, truth) triple for one utterance."""
    rng = np.random.default_rng([seed, index])
    n = int(round(duration_sec * sample_rate))
    segs = plan_segments(rng, n, sample_rate)
    x = render_segments(rng, segs, n, sample_rate)
    mic = Waveform(x, sample_rate)
    t = np.arange(n) / sample_rate
    drift = 0.2 * np.sin(2.0 * np.pi * rng.uniform(1.5, 3.0) * t + rng.uniform(0, 2 * np.pi))
    device_noise = 1e-3 * rng.standard_normal(n)  # sensor floor, as in real recordings
    laryn = Waveform(x + drift + device_noise, sample_rate)
    frame_cfg = FrameConfig.for_rate(sample_rate)
    truth = truth_labels(segs, n, frame_cfg, sample_rate)
    return mic, laryn, truth


def boundary_exclusion_mask(labels: VoicingLabels, margin: int = 2) -> np.ndarray:
    """True for frames farther than `margin` frames from any V/U transition."""
    lab = labels.labels
    keep = np.ones(lab.size, dtype=bool)
    edges = np.nonzero(np.diff(lab) != 0)[0]
    for e in edges:
        lo = max(0, e - margin + 1)
        hi = min(lab.size, e + margin + 1)
        keep[lo:hi] = False
    return keep


def generate_synthetic_corpus(
    root: str | Path,
    n_utterances: int = 200,
    seed: int = 1234,
    duration_sec: float = 3.0,
    sample_rate: int = SAMPLE_RATE,
) -> Manifest:
    """Write the corpus (mic/, laryn/, labels/, meta.tsv) and scan a manifest."""
    root = Path(root)
    for sub in ("mic", "laryn", "labels"):
        (root / sub).mkdir(parents=True, exist_ok=True)
    meta_lines = []
    n_speakers = min(10, max(1, n_utterances))
    for i in range(n_utterances):
        utt = f"utt{i:04d}"
        mic, laryn, truth = synth_utterance(seed, i, duration_sec, sample_rate)
        write_wav(root / "mic" / f"{utt}.wav", mic)
        write_wav(root / "laryn" / f"{utt}.wav", laryn)
        write_labels(root / "labels" / f"{utt}.lab", truth)
        spk = i % n_speakers
        sex = "male" if spk % 2 == 0 else "female"
        meta_lines.append(f"{utt}\tspk{spk:02d}\t{sex}")
    (root / "meta.tsv").write_text("\n".join(meta_lines) + "\n")
    return scan_corpus(root, "synthetic")
