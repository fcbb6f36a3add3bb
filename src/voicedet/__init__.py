"""Voicing detection toolkit.

Signal-processing front end (resampling, STFT, FIR filtering), an
NCCF/dynamic-programming voicing tracker, reference-label generation from
laryngograph recordings, a from-scratch DC-CRN voicing detector, and
cross-corpus training/evaluation utilities.
"""

__version__ = "0.1.0"

from .dsp import (
    FirFilter,
    FrameConfig,
    Waveform,
    apply_fir,
    design_kaiser_highpass,
    resample,
    stft,
)
from .tracker import TrackerConfig, VoicingLabels, track_voicing
from .labels import extract_reference_labels, mismatch_rate, align_for_lowest_vde

__all__ = [
    "FirFilter",
    "FrameConfig",
    "TrackerConfig",
    "VoicingLabels",
    "Waveform",
    "align_for_lowest_vde",
    "apply_fir",
    "design_kaiser_highpass",
    "extract_reference_labels",
    "mismatch_rate",
    "resample",
    "stft",
    "track_voicing",
]
