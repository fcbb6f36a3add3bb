"""Reference-label generation, label file I/O, comparison, and alignment.

Reference voicing labels come from high-pass-filtered laryngograph signals
run through the NCCF/DP tracker.

Label file format (bit-exact round trip):
    #hop_ms=10
    <frame_index>\t<label 0|1>\t<f0_hz as %.3f>
Shift sign convention: a positive shift moves the estimate later in time
relative to the reference.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .dsp import FirFilter, InvalidArgument, Waveform, apply_fir, design_kaiser_highpass, read_text
from .tracker import TrackerConfig, VoicingLabels, track_voicing

KAISER_BETA = 5.0
KAISER_ORDER = 2400
CUTOFF_HZ = {"female": 25.0, "male": 15.0}

MAX_LENGTH_SLACK = 2  # frames of length mismatch tolerated before demanding alignment


@dataclass(frozen=True)
class SpeakerMeta:
    speaker_id: str
    sex: str = "unknown"

    def __post_init__(self):
        if self.sex not in ("male", "female", "unknown"):
            raise InvalidArgument(f"sex must be male/female/unknown, got {self.sex!r}")


@dataclass(frozen=True)
class LabelComparison:
    """`wrong` of `n_frames` compared frames disagree, with the estimate moved
    `shift_applied` frames; the percentage is derived from the integer counts."""

    wrong: int
    n_frames: int
    shift_applied: int = 0

    def __post_init__(self):
        if self.n_frames <= 0:
            raise InvalidArgument("n_frames must be positive")
        if not (0 <= self.wrong <= self.n_frames):
            raise InvalidArgument("wrong out of [0, n_frames]")

    @property
    def mismatch_rate(self) -> float:  # percent
        return 100.0 * self.wrong / self.n_frames


def pool_comparisons(cmps: list[LabelComparison]) -> LabelComparison:
    """Pooled counts: Σwrong of Σn_frames."""
    return LabelComparison(sum(c.wrong for c in cmps), sum(c.n_frames for c in cmps))


@lru_cache(maxsize=16)
def _reference_highpass(cutoff_hz: float, sample_rate: int) -> FirFilter:
    """The Kaiser high-pass for one cutoff and rate, designed once and shared
    read-only by every record that needs it."""
    filt = design_kaiser_highpass(KAISER_BETA, KAISER_ORDER, cutoff_hz, sample_rate)
    filt.taps.flags.writeable = False
    return filt


def extract_reference_labels(
    laryn: Waveform,
    meta: SpeakerMeta,
    tracker_cfg: TrackerConfig | None = None,
    cutoff_hz: float | None = None,
) -> VoicingLabels:
    """High-pass the laryngograph signal (Kaiser beta=5, n=2400, fc by speaker
    sex: 25 Hz female / 15 Hz male) and track voicing on the filtered signal."""
    if cutoff_hz is None:
        if meta.sex == "unknown":
            raise InvalidArgument(
                f"speaker {meta.speaker_id}: sex unknown; pass an explicit cutoff_hz"
            )
        cutoff_hz = CUTOFF_HZ[meta.sex]
    if tracker_cfg is None:
        tracker_cfg = TrackerConfig()
    filtered = apply_fir(laryn, _reference_highpass(cutoff_hz, laryn.sample_rate))
    return track_voicing(filtered, tracker_cfg)


def _count_mismatch(est: VoicingLabels, ref: VoicingLabels, shift: int = 0,
                    min_overlap: int = 0) -> tuple[int, int]:
    """(wrong, n_valid) of est moved `shift` frames later against ref, over the
    min(len) - |shift| >= min_overlap overlapping frames valid in both."""
    n = min(len(est), len(ref)) - abs(shift)
    if n < min_overlap:
        raise InvalidArgument(f"overlap at shift {shift} is {n} frames, need >= {min_overlap}")
    e = slice(max(-shift, 0), max(-shift, 0) + n)
    r = slice(max(shift, 0), max(shift, 0) + n)
    valid = est.valid_mask[e] & ref.valid_mask[r]
    wrong = int(np.count_nonzero((est.labels[e] != ref.labels[r]) & valid))
    return wrong, int(valid.sum())


def mismatch_rate(a: VoicingLabels, b: VoicingLabels) -> LabelComparison:
    """Frames where the two label sequences disagree, as integer counts.

    Lengths may differ by up to 2 frames (truncated to the overlap); anything
    larger needs explicit alignment first. Frames masked invalid in either
    sequence are excluded from the count.
    """
    if abs(len(a) - len(b)) > MAX_LENGTH_SLACK:
        raise InvalidArgument(
            f"length difference {abs(len(a) - len(b))} > {MAX_LENGTH_SLACK} frames; align first"
        )
    wrong, n_valid = _count_mismatch(a, b)
    if n_valid == 0:
        raise InvalidArgument("no valid frames to compare")
    return LabelComparison(wrong, n_valid)


def align_for_lowest_vde(
    est: VoicingLabels, ref: VoicingLabels, max_shift: int = 5
) -> tuple[int, LabelComparison]:
    """Integer shift of est in [-max_shift, +max_shift] minimizing the mismatch.

    Positive shift moves est later relative to ref. Each shift compares the
    min(len) - |shift| overlapping frames, which must number at least 10.
    The winner has the lowest mismatch percent; ties break to the smaller
    |shift|, then negative before positive. Returns (shift, its counts).
    """
    if max_shift < 0:
        raise InvalidArgument("max_shift must be >= 0")
    best: LabelComparison | None = None
    # tie-break order: 0, -1, +1, -2, +2, ...
    for s in sorted(range(-max_shift, max_shift + 1), key=lambda s: (abs(s), s > 0)):
        wrong, n_valid = _count_mismatch(est, ref, s, min_overlap=10)
        if n_valid == 0:
            continue
        cmp = LabelComparison(wrong, n_valid, shift_applied=s)
        if best is None or cmp.mismatch_rate < best.mismatch_rate:
            best = cmp
    if best is None:
        raise InvalidArgument("no valid frames in any shift window")
    return best.shift_applied, best


def hop_header(hop_ms: float) -> str:
    """The `#hop_ms=` line of a label file and of a labels-compare CSV."""
    hop = float(hop_ms)
    return f"#hop_ms={int(hop) if hop.is_integer() else repr(hop)}"


def write_labels(path: str | Path, labels: VoicingLabels) -> None:
    """Write the canonical label file format (deterministic bytes).

    F0 is written as zeros when it is absent or when a voiced frame's F0
    would print as 0.000: `read_labels` drops such an F0, so writing the
    zeros keeps a write -> read -> write round trip byte-stable.
    """
    lines = [hop_header(labels.hop_ms)]
    f0 = labels.f0
    if f0 is None or np.any(f0[labels.labels == 1] < 0.0005):
        f0 = np.zeros(len(labels))
    for i, (lab, f) in enumerate(zip(labels.labels.tolist(), f0.tolist())):
        lines.append(f"{i}\t{lab}\t{f:.3f}")
    Path(path).write_text("\n".join(lines) + "\n")


def _numbered_lines(path: str | Path) -> list[tuple[int, str]]:
    """(1-based line number, text) of every line of a label file that holds
    more than whitespace."""
    return [(i, ln) for i, ln in enumerate(read_text(path).splitlines(), 1) if ln.strip()]


def read_labels(path: str | Path) -> VoicingLabels:
    """Read the canonical label file format.

    The f0 column is kept only when it is consistent with the labels
    (f0 > 0 exactly on voiced frames); files written from decisions without
    pitch carry zeros there and read back with f0 absent. Frame indices run
    0, 1, 2, ... in file order. A malformed line or an out-of-sequence index
    raises InvalidArgument naming the file and line number.
    """
    lines = _numbered_lines(path)
    if not lines or not lines[0][1].startswith("#hop_ms="):
        raise InvalidArgument(f"{path}: missing #hop_ms header")
    labels = []
    f0 = []
    lineno, ln = lines[0]
    try:
        hop_ms = float(ln.split("=", 1)[1])
        if not 0.0 < hop_ms < float("inf"):
            raise ValueError(f"hop_ms must be positive and finite, got {hop_ms}")
        for lineno, ln in lines[1:]:
            parts = ln.split("\t")
            if len(parts) != 3:
                raise ValueError(f"malformed line {ln!r}")
            if parts[0] != str(len(labels)):
                raise ValueError(f"frame index {parts[0]}, expected {len(labels)}")
            lab = int(parts[1])
            if lab != 0 and lab != 1:
                raise ValueError(f"labels must be binary, got {lab}")
            labels.append(lab)
            f0.append(float(parts[2]))
    except ValueError as err:
        raise InvalidArgument(f"{path}:{lineno}: {err}") from None
    labels = np.array(labels, dtype=np.int8)
    f0 = np.array(f0)
    if not np.array_equal(f0 > 0, labels == 1):
        f0 = None
    return VoicingLabels(labels, hop_ms=hop_ms, f0=f0)


def read_three_class_labels(path: str | Path, hop_ms: float = 10.0) -> VoicingLabels:
    """Adapter for provided references with an uncertain class.

    One value per line: 1 voiced, 0 unvoiced, -1 uncertain. Uncertain frames
    are kept in the sequence but masked out of comparisons. Any other value
    raises InvalidArgument naming the file and line number.
    """
    lines = _numbered_lines(path)
    raw = []
    try:
        for lineno, ln in lines:
            for tok in ln.split():
                raw.append(int(tok))
                if raw[-1] not in (-1, 0, 1):
                    raise ValueError(f"labels must be -1, 0 or 1, got {raw[-1]}")
    except ValueError as err:
        raise InvalidArgument(f"{path}:{lineno}: {err}") from None
    arr = np.array(raw, dtype=np.int8)
    valid = arr >= 0
    labels = np.where(valid, arr, 0).astype(np.int8)
    return VoicingLabels(labels, hop_ms=hop_ms, valid=valid)


LABEL_READERS = {
    "voicedet": read_labels,
    "three_class": read_three_class_labels,
}


def read_labels_as(path: str | Path, label_format: str = "voicedet") -> VoicingLabels:
    """Dispatch to a registered per-corpus label reader."""
    try:
        reader = LABEL_READERS[label_format]
    except KeyError:
        raise InvalidArgument(
            f"unknown label format {label_format!r}; known: {sorted(LABEL_READERS)}"
        ) from None
    return reader(path)
