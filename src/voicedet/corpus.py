"""Corpus scanning, manifests, exclusion lists, segmentation, and fold plans.

Manifests serialize as a versioned TSV (one record per line) with a JSON
sidecar for per-corpus/per-speaker counts; exclusion lists are TSV; fold
plans are JSON. All formats carry an explicit version marker and round-trip
bit-exactly.
"""
from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dsp import InvalidArgument, Waveform, read_text
from .labels import SpeakerMeta

log = logging.getLogger(__name__)

CORPORA = ("PTDB-TUG", "Mocha-TIMIT", "FDA", "KEELE", "CMU-Arctic", "LibriSpeech", "synthetic")
LARYNGOGRAPH_CORPORA = frozenset(("PTDB-TUG", "Mocha-TIMIT", "FDA", "KEELE", "CMU-Arctic"))

EXCLUSION_REASONS = ("flawed_laryngograph", "harmonic_noise_uncorrectable", "other")

MANIFEST_MAGIC = "#v1 voicedet-manifest"
EXCLUSION_MAGIC = "#v1 voicedet-exclusions"


@dataclass(frozen=True)
class UtteranceRecord:
    utt_id: str
    corpus: str
    mic_path: str
    laryn_path: str | None = None
    speaker: SpeakerMeta = field(default_factory=lambda: SpeakerMeta("unknown"))
    provided_label_path: str | None = None
    label_format: str = "voicedet"
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        if self.corpus not in CORPORA:
            raise InvalidArgument(f"unknown corpus tag {self.corpus!r}; known: {CORPORA}")

    @property
    def full_id(self) -> str:
        return f"{self.corpus}/{self.utt_id}"


@dataclass(frozen=True)
class Manifest:
    records: tuple[UtteranceRecord, ...]

    def __post_init__(self):
        ids = [r.full_id for r in self.records]
        if len(set(ids)) != len(ids):
            raise InvalidArgument("duplicate utterance ids in manifest")

    def __len__(self) -> int:
        return len(self.records)

    def stats(self) -> dict:
        per_corpus: dict[str, int] = {}
        per_speaker: dict[str, int] = {}
        for r in self.records:
            per_corpus[r.corpus] = per_corpus.get(r.corpus, 0) + 1
            key = f"{r.corpus}/{r.speaker.speaker_id}"
            per_speaker[key] = per_speaker.get(key, 0) + 1
        return {
            "version": 1,
            "n_records": len(self.records),
            "per_corpus": dict(sorted(per_corpus.items())),
            "per_speaker": dict(sorted(per_speaker.items())),
        }


@dataclass(frozen=True)
class ExclusionList:
    entries: tuple[tuple[str, str, str], ...] = ()  # (corpus, utt_id, reason)
    corrections: tuple[tuple[str, str, str], ...] = ()  # (corpus, utt_id, corrected_label_path)


@dataclass(frozen=True)
class FoldPlan:
    held_out_corpus: str
    train_ids: tuple[str, ...]
    val_ids: tuple[str, ...]
    test_ids: tuple[str, ...]

    def __post_init__(self):
        if set(self.train_ids) & set(self.val_ids):
            raise InvalidArgument("train and val overlap")


# ---------------------------------------------------------------------------
# Corpus layout
# ---------------------------------------------------------------------------

def scan_corpus(root: str | Path, corpus: str) -> Manifest:
    """Scan a corpus directory laid out as root/mic/<utt>.wav, optional
    root/laryn/<utt>.wav, optional root/labels/<utt>.lab, optional
    root/meta.tsv (lines: utt_id<TAB>speaker_id<TAB>sex)."""
    root = Path(root)
    if not root.is_dir():
        raise InvalidArgument(f"corpus root {root} does not exist")
    mic_dir = root / "mic"
    if not mic_dir.is_dir():
        raise InvalidArgument(f"corpus {root}: missing {mic_dir}")
    meta: dict[str, SpeakerMeta] = {}
    meta_path = root / "meta.tsv"
    if meta_path.exists():
        for lineno, ln in enumerate(read_text(meta_path).splitlines(), 1):
            if not ln.strip() or ln.startswith("#"):
                continue
            fields = ln.split("\t")
            try:
                if len(fields) != 3:
                    raise InvalidArgument(f"expected utt_id<TAB>speaker_id<TAB>sex, got {ln!r}")
                utt, spk, sex = fields
                meta[utt] = SpeakerMeta(spk, sex)
            except InvalidArgument as err:
                raise InvalidArgument(f"{meta_path}:{lineno}: {err}") from None
    records = []
    for wav in sorted(mic_dir.glob("*.wav")):
        utt = wav.stem
        laryn = root / "laryn" / f"{utt}.wav"
        label = root / "labels" / f"{utt}.lab"
        flags: tuple[str, ...] = ()
        if corpus in LARYNGOGRAPH_CORPORA or (root / "laryn").is_dir():
            if not laryn.exists():
                flags = ("incomplete",)
        records.append(
            UtteranceRecord(
                utt_id=utt,
                corpus=corpus,
                mic_path=str(wav),
                laryn_path=str(laryn) if laryn.exists() else None,
                speaker=meta.get(utt, SpeakerMeta("unknown")),
                provided_label_path=str(label) if label.exists() else None,
                flags=flags,
            )
        )
    if not records:
        log.warning("scan of %s (%s) found no utterances", root, corpus)
    return Manifest(tuple(records))


# ---------------------------------------------------------------------------
# Exclusions and corrections
# ---------------------------------------------------------------------------

def apply_exclusions(manifest: Manifest, exclusions: ExclusionList) -> Manifest:
    """Drop excluded records. Idempotent. Correction rows keep their record;
    `labels-extract` writes its labels from the correction file."""
    excluded = {(c, u) for c, u, _ in exclusions.entries}
    corrected = {(c, u) for c, u, _ in exclusions.corrections}
    present = {(r.corpus, r.utt_id) for r in manifest.records}
    for key in excluded | corrected:
        if key not in present:
            log.warning("exclusion/correction entry %s matches no record", key)
    out = tuple(r for r in manifest.records if (r.corpus, r.utt_id) not in excluded)
    log.info("exclusions removed %d of %d records", len(manifest) - len(out), len(manifest))
    return Manifest(out)


def write_exclusions(path: str | Path, exclusions: ExclusionList) -> None:
    lines = [EXCLUSION_MAGIC]
    for corpus, utt, reason in exclusions.entries:
        lines.append(_tsv_line(corpus, utt, reason))
    for corpus, utt, label_path in exclusions.corrections:
        lines.append(_tsv_line(corpus, utt, "correction", label_path))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_exclusions(path: str | Path) -> ExclusionList:
    """A malformed line raises InvalidArgument naming the file and line."""
    entries = []
    corrections = []
    for lineno, ln in _tsv_records(read_text(path), path, EXCLUSION_MAGIC):
        parts = ln.split("\t")
        if len(parts) == 4 and parts[2] == "correction":
            corrections.append((parts[0], parts[1], parts[3]))
        elif len(parts) == 3 and parts[2] in EXCLUSION_REASONS:
            entries.append((parts[0], parts[1], parts[2]))
        elif len(parts) == 3:
            raise InvalidArgument(f"{path}:{lineno}: unknown exclusion reason {parts[2]!r}")
        else:
            raise InvalidArgument(f"{path}:{lineno}: malformed line {ln!r}")
    return ExclusionList(tuple(entries), tuple(corrections))


# ---------------------------------------------------------------------------
# Manifest serialization
# ---------------------------------------------------------------------------

def _tsv_line(*fields: str) -> str:
    """One TSV line of fields that read back as written: each a non-blank
    string without a tab or a line break."""
    for f in fields:
        if not isinstance(f, str) or not f.strip() or "\t" in f or f.splitlines() != [f]:
            raise InvalidArgument(f"TSV field must be non-blank, without tabs or line breaks: {f!r}")
    return "\t".join(fields)


def _tsv_records(text: str, source, magic: str) -> list[tuple[int, str]]:
    """(1-based line number, text) of every non-blank line after the
    version line `magic`."""
    lines = [(i, ln) for i, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines or lines[0][1] != magic:
        raise InvalidArgument(f"{source}: not a {magic} file")
    return lines[1:]


def _opt(s: str | None) -> str:
    if s == "-":
        raise InvalidArgument("'-' stands for a missing optional field and cannot be a value")
    return s if s is not None else "-"


def _unopt(s: str) -> str | None:
    return None if s == "-" else s


def manifest_to_text(manifest: Manifest) -> str:
    """Rejects (InvalidArgument) a record that would not read back equal:
    a blank field, a tab or line break in one, '-' as an optional path, or
    a flag that is blank, '-' or holds a comma."""
    lines = [MANIFEST_MAGIC]
    for r in manifest.records:
        try:
            if any(not f.strip() or f == "-" or "," in f for f in r.flags):
                raise InvalidArgument(f"flags must be non-blank, not '-' and without commas: {r.flags!r}")
            lines.append(
                _tsv_line(
                    r.corpus,
                    r.utt_id,
                    r.mic_path,
                    _opt(r.laryn_path),
                    r.speaker.speaker_id,
                    r.speaker.sex,
                    _opt(r.provided_label_path),
                    r.label_format,
                    ",".join(r.flags) if r.flags else "-",
                )
            )
        except InvalidArgument as err:
            raise InvalidArgument(f"record {r.full_id!r}: {err}") from None
    return "\n".join(lines) + "\n"


def manifest_from_text(text: str, source: str | Path = "<manifest>") -> Manifest:
    """A malformed line raises InvalidArgument as `source:line: ...`."""
    records = []
    for lineno, ln in _tsv_records(text, source, MANIFEST_MAGIC):
        parts = ln.split("\t")
        try:
            if len(parts) != 9:
                raise InvalidArgument(f"malformed manifest line {ln!r}: {len(parts)} fields, not 9")
            corpus, utt, mic, laryn, spk, sex, label, fmt, flags = parts
            records.append(
                UtteranceRecord(
                    utt_id=utt,
                    corpus=corpus,
                    mic_path=mic,
                    laryn_path=_unopt(laryn),
                    speaker=SpeakerMeta(spk, sex),
                    provided_label_path=_unopt(label),
                    label_format=fmt,
                    flags=tuple(flags.split(",")) if flags != "-" else (),
                )
            )
        except InvalidArgument as err:
            raise InvalidArgument(f"{source}:{lineno}: {err}") from None
    try:
        return Manifest(tuple(records))
    except InvalidArgument as err:
        raise InvalidArgument(f"{source}: {err}") from None


def write_manifest(path: str | Path, manifest: Manifest) -> None:
    """Write <path> (TSV) and <path>.stats.json (counts sidecar)."""
    path = Path(path)
    path.write_text(manifest_to_text(manifest), encoding="utf-8")
    sidecar = path.with_suffix(path.suffix + ".stats.json")
    sidecar.write_text(json.dumps(manifest.stats(), indent=2, sort_keys=True) + "\n")


def read_manifest(path: str | Path) -> Manifest:
    return manifest_from_text(read_text(path), path)


# ---------------------------------------------------------------------------
# Segmentation and folds
# ---------------------------------------------------------------------------

def segment_recording(wave: Waveform, target_sec: float = 3.0) -> list[Waveform]:
    """Cut a long recording into contiguous ~target_sec segments.

    A final remainder shorter than 1 s is merged into the previous segment;
    an input shorter than 1 s comes back as a single (warned) segment.
    """
    if target_sec <= 0:
        raise InvalidArgument("target_sec must be positive")
    sr = wave.sample_rate
    seg_len = int(round(target_sec * sr))
    min_len = sr  # 1 second
    n = len(wave)
    if n <= seg_len:
        if n < min_len:
            log.warning("recording of %.2f s is shorter than 1 s", n / sr)
        return [wave]
    bounds = list(range(0, n, seg_len))
    if n - bounds[-1] < min_len:
        bounds.pop()
    bounds.append(n)
    return [Waveform(wave.samples[a:b], sr) for a, b in zip(bounds[:-1], bounds[1:])]


VAL_FRACTION = 0.1  # validation share of the seeded 90/10 splits


def split_train_val(ids: list[str], rng: np.random.Generator) -> tuple[list[str], list[str]]:
    """(train, val) of ids permuted by rng: the first max(1, round(VAL_FRACTION
    * n)) go to val, and a single id is all train."""
    order = rng.permutation(len(ids))
    n_val = max(1, round(VAL_FRACTION * len(ids))) if len(ids) > 1 else 0
    return [ids[i] for i in order[n_val:]], [ids[i] for i in order[:n_val]]


def make_locro_folds(
    manifests: dict[str, Manifest],
    seed: int,
    speaker_disjoint: bool = False,
) -> list[FoldPlan]:
    """One leave-one-corpus-out fold per corpus, with a seeded 90/10
    train/val split (by utterance, or by speaker with speaker_disjoint)."""
    if len(manifests) < 2:
        raise InvalidArgument("need at least 2 corpora for leave-one-corpus-out")
    for name, m in manifests.items():
        if len(m) == 0:
            raise InvalidArgument(f"corpus {name} has no records")
    folds = []
    for fold_idx, held_out in enumerate(sorted(manifests)):
        rng = np.random.default_rng([seed, fold_idx])
        test_ids = tuple(r.full_id for r in manifests[held_out].records)
        pool = [r for name in sorted(manifests) if name != held_out for r in manifests[name].records]
        if speaker_disjoint:
            speakers = sorted({f"{r.corpus}/{r.speaker.speaker_id}" for r in pool})
            order = list(rng.permutation(len(speakers)))
            val_speakers: set[str] = set()
            # at least one speaker, and never the last one, as split_train_val keeps
            n_val_target = max(1, round(VAL_FRACTION * len(pool)))
            count = 0
            for i in order[:-1]:
                if count >= n_val_target:
                    break
                val_speakers.add(speakers[i])
                count += sum(
                    1 for r in pool if f"{r.corpus}/{r.speaker.speaker_id}" == speakers[i]
                )
            val = [r.full_id for r in pool if f"{r.corpus}/{r.speaker.speaker_id}" in val_speakers]
            train = [r.full_id for r in pool if f"{r.corpus}/{r.speaker.speaker_id}" not in val_speakers]
        else:
            train, val = split_train_val([r.full_id for r in pool], rng)
        folds.append(
            FoldPlan(
                held_out_corpus=held_out,
                train_ids=tuple(train),
                val_ids=tuple(val),
                test_ids=test_ids,
            )
        )
    return folds


def folds_to_json(folds: list[FoldPlan]) -> str:
    payload = {
        "version": 1,
        "folds": [
            {
                "held_out_corpus": f.held_out_corpus,
                "train_ids": list(f.train_ids),
                "val_ids": list(f.val_ids),
                "test_ids": list(f.test_ids),
            }
            for f in folds
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def _is_fold(f) -> bool:
    return isinstance(f, dict) and isinstance(f.get("held_out_corpus"), str) and all(
        isinstance(f.get(k), list) and all(isinstance(i, str) for i in f[k])
        for k in ("train_ids", "val_ids", "test_ids")
    )


def folds_from_json(text: str) -> list[FoldPlan]:
    """Fold plans from folds_to_json's text; text that is not such a plan
    raises InvalidArgument."""
    try:
        payload = json.loads(text)
    except ValueError as err:
        raise InvalidArgument(f"fold plan is not JSON: {err}") from None
    if not isinstance(payload, dict) or payload.get("version") != 1:
        raise InvalidArgument("unsupported fold plan version")
    folds = payload.get("folds")
    if not isinstance(folds, list) or not all(_is_fold(f) for f in folds):
        raise InvalidArgument(
            "fold plan needs 'folds': a list of objects with a held_out_corpus string "
            "and train_ids, val_ids and test_ids lists of strings"
        )
    return [
        FoldPlan(
            held_out_corpus=f["held_out_corpus"],
            train_ids=tuple(f["train_ids"]),
            val_ids=tuple(f["val_ids"]),
            test_ids=tuple(f["test_ids"]),
        )
        for f in folds
    ]


def read_folds(path: str | Path) -> list[FoldPlan]:
    """folds_from_json of a file; every error names the file."""
    text = read_text(path)
    try:
        return folds_from_json(text)
    except InvalidArgument as err:
        raise InvalidArgument(f"{path}: {err}") from None
