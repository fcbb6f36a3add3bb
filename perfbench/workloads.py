"""Benchmark workloads: input generation (set-up), the CLI commands one pass
runs, and the output checks.

Run as a script this file is the set-up step, timed from interpreter start:

    PYTHONPATH=src python3 perfbench/workloads.py setup --workload labels --seed 1 --inputs DIR

and `... workloads.py reference` regenerates the stored canary posteriors of
`detect` and `train` (only needed when the model, feature or training code
changes its arithmetic on purpose).
"""
from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from voicedet import corpus as corpus_io
from voicedet.cli import main as cli_main
from voicedet.dsp import read_wav
from voicedet.labels import read_labels
from voicedet.nn.checkpoint import save_checkpoint
from voicedet.nn.model import DccrnModel, ModelConfig
from voicedet.synth import generate_synthetic_corpus
from voicedet.tracker import VoicingLabels
from voicedet.training import features_for_wave, vde_counts

HERE = Path(__file__).resolve().parent
DETECT_REFERENCE = HERE / "reference" / "detect_canary_posteriors.csv"
TRAIN_REFERENCE = HERE / "reference" / "train_canary_posteriors.csv"

LABELS_VDE_LIMIT = 5.0  # acceptance criterion 6: pooled tracker VDE on the synthetic corpus
MODEL_SEED = 0  # seeded full-size DC-CRN weights of the detect workload
CANARY_SEED = 20231203  # fixed canary inputs whose posteriors are stored under reference/
EVAL_SEED = 20231204  # fixed test file the trained checkpoint detects on
POSTERIOR_ATOL = 1e-4  # float32 forwards (and the train canary's one step), printed at 1e-6
SHORTS_PER_CHUNK = 2  # short recordings per labels-extract command: 6 s of audio, about 0.04 s
LONG_SEED_OFFSET = 1_000_003  # long recordings use their own stream, not a prefix of the short ones

TRAIN_MODEL = dict(block_out_channels=[2, 4], composite_growth=4, blstm_hidden=32, groups=4,
                   dtype="float32")
TRAIN_CFG = dict(lr_init=1e-3, batch_size=4, max_epochs=1)
TRAIN_CANARY = dict(n_train=4, n_val=1, dur_s=1.0)  # one optimizer step, same at every size

SIZES = {
    "labels": {"full": dict(n_short=48, short_s=3.0, n_long=2, long_s=60.0),
               "tiny": dict(n_short=2, short_s=1.0, n_long=2, long_s=2.0)},
    # 8 train : 2 validation forwards (before and after the epoch) : 1 test
    # detection, the ratio of acceptance criterion 7 (160 : 2 x 20 : 20)
    "train": {"full": dict(n_train=8, n_val=1, dur_s=3.0),
              "tiny": dict(n_train=2, n_val=1, dur_s=1.0)},
    "detect": {"full": dict(n_short=2, short_s=3.0, long_s=6.0),
               "tiny": dict(n_short=1, short_s=1.0, long_s=2.0)},
}
WORKLOADS = tuple(SIZES)


@dataclass
class Check:
    """Outcome of checking one pass's outputs."""

    items: int
    failed: int
    vde_pct: float
    notes: list[str]


def _write_meta(inputs: Path, **meta) -> None:
    (inputs / "workload.json").write_text(json.dumps(meta, indent=1, sort_keys=True) + "\n")


def read_meta(inputs: Path) -> dict:
    return json.loads((inputs / "workload.json").read_text())


def _frames(wav_path) -> int:
    """Frames the detector emits for a file: one per 10 ms hop at 8 kHz."""
    return features_for_wave(read_wav(wav_path)).shape[0]


# ---------------------------------------------------------------------------
# labels: labels-extract (Kaiser high-pass + NCCF/DP tracker) then labels-compare
# ---------------------------------------------------------------------------

def setup_labels(inputs: Path, seed: int, size: str) -> None:
    p = SIZES["labels"][size]
    short = generate_synthetic_corpus(inputs / "short", p["n_short"], seed, p["short_s"], 16000)
    long = generate_synthetic_corpus(inputs / "long", p["n_long"], seed + LONG_SEED_OFFSET,
                                     p["long_s"], 16000)
    truth = inputs / "truth"
    truth.mkdir()
    records = list(short.records)
    for i, rec in enumerate(long.records):
        records.append(replace(rec, utt_id=f"long{i:04d}"))
    for src, rec in zip(short.records + long.records, records):
        shutil.copyfile(src.provided_label_path, truth / f"{rec.utt_id}.lab")
    # labels-extract runs once per chunk, groups of short recordings and each
    # long recording alone, so that run.py relates each short command to the
    # reference loop timed right around it
    n_short = p["n_short"]
    chunks = [records[i:i + SHORTS_PER_CHUNK] for i in range(0, n_short, SHORTS_PER_CHUNK)]
    chunks += [[rec] for rec in records[n_short:]]
    (inputs / "chunks").mkdir()
    for i, chunk in enumerate(chunks):
        corpus_io.write_manifest(inputs / "chunks" / f"{i:02d}.tsv", corpus_io.Manifest(tuple(chunk)))
    audio = p["n_short"] * p["short_s"] + p["n_long"] * p["long_s"]
    _write_meta(inputs, workload="labels", seed=seed, size=size, audio_s=audio,
                items=len(records), sexes=sorted({r.speaker.sex for r in records}))


def commands_labels(inputs: Path, out: Path) -> list[list[str]]:
    """labels-extract over each chunk into one label directory (its
    summary.tsv is the last chunk's), then one labels-compare over it all."""
    extract = [["labels-extract", "--manifest", str(m), "--out", str(out / "labels"), "--jobs", "1"]
               for m in sorted((inputs / "chunks").glob("*.tsv"))]
    return extract + [["labels-compare", "--a", str(out / "labels"), "--b", str(inputs / "truth"),
                       "--out", str(out / "compare.csv")]]


def check_labels(inputs: Path, out: Path) -> Check:
    truth = sorted((inputs / "truth").glob("*.lab"))
    notes, bad = [], 0
    for ref_path in truth:
        est_path = out / "labels" / ref_path.name
        if not est_path.is_file():
            bad += 1
            notes.append(f"missing {ref_path.name}")
        elif abs(len(read_labels(est_path)) - len(read_labels(ref_path))) > 2:
            bad += 1
            notes.append(f"frame count of {ref_path.name}")
    vde = math.nan
    compare = out / "compare.csv"
    if compare.is_file():
        pooled = [ln for ln in compare.read_text().splitlines() if ln.startswith("POOLED,")]
        if pooled:
            vde = float(pooled[0].split(",")[3])  # aligned mismatch percent
    if not vde < LABELS_VDE_LIMIT:
        notes.append(f"pooled VDE {vde} not under {LABELS_VDE_LIMIT}%")
        bad = len(truth)
    return Check(len(truth), bad, vde, notes)


# ---------------------------------------------------------------------------
# train: one epoch of the reduced DC-CRN at batch 4 x 3 s, then detect with it
# ---------------------------------------------------------------------------

def _train_inputs(inputs: Path, seed: int, n_train: int, n_val: int, dur_s: float) -> dict:
    """Seeded train/validation corpus, folds, config and one fixed-seed test
    file; returns the test file's frame count by name."""
    manifest = generate_synthetic_corpus(inputs / "corpus", n_train + n_val, seed, dur_s)
    ids = [r.full_id for r in manifest.records]
    fold = corpus_io.FoldPlan("synthetic", tuple(ids[:n_train]), tuple(ids[n_train:]), ())
    (inputs / "folds.json").write_text(corpus_io.folds_to_json([fold]))
    (inputs / "config.json").write_text(json.dumps({"model": TRAIN_MODEL, "train": TRAIN_CFG}) + "\n")
    generate_synthetic_corpus(inputs / "test", 1, EVAL_SEED, dur_s)
    return {w.name: _frames(w) for w in sorted((inputs / "test" / "mic").glob("*.wav"))}


def setup_train(inputs: Path, seed: int, size: str) -> None:
    p = SIZES["train"][size]
    frames = _train_inputs(inputs, seed, p["n_train"], p["n_val"], p["dur_s"])
    canary_frames = _train_inputs(inputs / "canary", CANARY_SEED, **TRAIN_CANARY)
    steps = math.ceil(p["n_train"] / TRAIN_CFG["batch_size"]) * TRAIN_CFG["max_epochs"]
    _write_meta(inputs, workload="train", seed=seed, size=size,
                audio_s=p["n_train"] * p["dur_s"] * TRAIN_CFG["max_epochs"], items=steps,
                frames=frames, canary_frames=canary_frames)


def commands_train(inputs: Path, out: Path) -> list[list[str]]:
    run = out / "run"
    wavs = sorted(str(p) for p in (inputs / "test" / "mic").glob("*.wav"))
    return [["train", "--corpus", f"{inputs / 'corpus'}:synthetic", "--folds", str(inputs / "folds.json"),
             "--config", str(inputs / "config.json"), "--out", str(run)],
            ["detect", "--method", "dccrn", "--checkpoint", str(run / "synthetic.ckpt"),
             "--posteriors", "--out", str(out / "detect"), *wavs]]


def check_train(inputs: Path, out: Path) -> Check:
    meta = read_meta(inputs)
    steps = meta["items"]
    history = out / "run" / "synthetic.history.csv"
    if not history.is_file():
        return Check(steps, steps, math.nan, ["no history.csv"])
    rows = [ln.split(",") for ln in history.read_text().splitlines()[1:]]
    losses = [float(v) for r in rows for v in r[1:3]]
    if len(rows) != TRAIN_CFG["max_epochs"] or not all(math.isfinite(v) for v in losses):
        return Check(steps, steps, math.nan, [f"history rows/losses: {rows}"])
    bad, _, _, notes = _check_detections(out / "detect", meta["frames"], inputs / "test" / "labels", {})
    # fixed-input reference: the canary corpus trained and detected through the
    # same commands must reproduce the stored posteriors. Its VDE is the
    # workload's vde_pct: fixed inputs make it the same for every seed, while
    # the one-epoch model of the seeded corpus is near chance and its VDE
    # swings with the training data.
    canary_out = out.with_name(out.name + "-canary")
    codes = [cli_main(argv) for argv in commands_train(inputs / "canary", canary_out)]
    wrong = total = 0
    if any(codes):
        notes.append(f"canary commands exited {codes}")
    else:
        references = {Path(w).stem: TRAIN_REFERENCE for w in meta["canary_frames"]}
        _, wrong, total, canary_notes = _check_detections(
            canary_out / "detect", meta["canary_frames"], inputs / "canary" / "test" / "labels", references)
        notes += canary_notes
    shutil.rmtree(canary_out, ignore_errors=True)
    failed = steps if bad or notes else 0
    return Check(steps, failed, 100.0 * wrong / total if total else math.nan, notes)


# ---------------------------------------------------------------------------
# detect: full-size DC-CRN inference with posteriors
# ---------------------------------------------------------------------------

def _detect_inputs(inputs: Path, seed: int, size: str) -> None:
    """Canary, seeded short files and one long file under wavs/ and truth/."""
    p = SIZES["detect"][size]
    (inputs / "wavs").mkdir(parents=True)
    (inputs / "truth").mkdir()
    parts = [("canary", 1, CANARY_SEED, 3.0), ("short", p["n_short"], seed, p["short_s"]),
             ("long", 1, seed + LONG_SEED_OFFSET, p["long_s"])]
    for tag, n, part_seed, dur in parts:
        manifest = generate_synthetic_corpus(inputs / f"gen-{tag}", n, part_seed, dur)
        for i, rec in enumerate(manifest.records):
            name = tag if tag == "canary" else f"{tag}{i}"
            shutil.move(rec.mic_path, inputs / "wavs" / f"{name}.wav")
            shutil.move(rec.provided_label_path, inputs / "truth" / f"{name}.lab")
        shutil.rmtree(inputs / f"gen-{tag}")


def setup_detect(inputs: Path, seed: int, size: str) -> None:
    p = SIZES["detect"][size]
    _detect_inputs(inputs, seed, size)
    cfg = ModelConfig()
    model = DccrnModel(cfg, seed=MODEL_SEED)
    save_checkpoint(inputs / "model.ckpt", cfg, model.params(), model.buffers())
    wavs = sorted(p.name for p in (inputs / "wavs").glob("*.wav"))
    _write_meta(inputs, workload="detect", seed=seed, size=size,
                audio_s=3.0 + p["n_short"] * p["short_s"] + p["long_s"], items=len(wavs),
                frames={w: _frames(inputs / "wavs" / w) for w in wavs})


def commands_detect(inputs: Path, out: Path) -> list[list[str]]:
    wavs = sorted(str(p) for p in (inputs / "wavs").glob("*.wav"))
    return [["detect", "--method", "dccrn", "--checkpoint", str(inputs / "model.ckpt"),
             "--posteriors", "--out", str(out / "detect"), *wavs]]


def _read_posteriors(path: Path) -> np.ndarray:
    lines = path.read_text().splitlines()
    if not lines or lines[0] != "frame,probability":
        raise ValueError(f"{path.name}: bad header")
    rows = [ln.split(",") for ln in lines[1:]]
    if [int(r[0]) for r in rows] != list(range(len(rows))):
        raise ValueError(f"{path.name}: frame column is not 0..n-1")
    return np.array([float(r[1]) for r in rows])


def _check_detections(det: Path, frames: dict, truth: Path, references: dict[str, Path]):
    """Check `detect --posteriors` outputs: one posterior per frame, each in
    (0, 1), and equal within POSTERIOR_ATOL to a stored reference for the
    stems in `references`. Returns (bad files, wrong frames, total frames,
    notes); the frame counts give the VDE of the decisions against `truth`."""
    notes, bad = [], 0
    wrong = total = 0
    for wav, n_frames in sorted(frames.items()):
        stem = Path(wav).stem
        try:
            probs = _read_posteriors(det / f"{stem}.posteriors.csv")
            est = read_labels(det / f"{stem}.lab")
        except (OSError, ValueError) as err:
            bad += 1
            notes.append(f"{stem}: {err}")
            continue
        problems = []
        if probs.size != n_frames or len(est) != n_frames:
            problems.append(f"{probs.size} posteriors / {len(est)} labels for {n_frames} frames")
        elif not np.all((probs > 0.0) & (probs < 1.0)):
            problems.append("posterior outside (0, 1)")
        elif stem in references:
            ref = _read_posteriors(references[stem])
            if ref.shape != probs.shape or np.max(np.abs(ref - probs)) > POSTERIOR_ATOL:
                problems.append(f"posteriors differ from {references[stem].name}")
        if problems:
            bad += 1
            notes.extend(f"{stem}: {p}" for p in problems)
            continue
        ref = read_labels(truth / f"{stem}.lab")
        n = min(len(ref), len(est))
        w, c = vde_counts(VoicingLabels(est.labels[:n]), VoicingLabels(ref.labels[:n]))
        wrong, total = wrong + w, total + c
    return bad, wrong, total, notes


def check_detect(inputs: Path, out: Path) -> Check:
    meta = read_meta(inputs)
    bad, wrong, total, notes = _check_detections(out / "detect", meta["frames"], inputs / "truth",
                                                 {"canary": DETECT_REFERENCE})
    return Check(len(meta["frames"]), bad, 100.0 * wrong / total if total else math.nan, notes)


SETUP = {"labels": setup_labels, "train": setup_train, "detect": setup_detect}
COMMANDS = {"labels": commands_labels, "train": commands_train, "detect": commands_detect}
CHECKS = {"labels": check_labels, "train": check_train, "detect": check_detect}


def write_references() -> None:
    """Run the detect canary and the train canary and store their posteriors."""
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        detect_inputs, train_inputs = Path(tmp) / "detect", Path(tmp) / "train"
        setup_detect(detect_inputs, seed=0, size="tiny")
        setup_train(train_inputs, seed=0, size="tiny")
        detect_out, train_out = Path(tmp) / "detect-out", Path(tmp) / "train-out"
        argvs = [["detect", "--method", "dccrn", "--checkpoint", str(detect_inputs / "model.ckpt"),
                  "--posteriors", "--out", str(detect_out), str(detect_inputs / "wavs" / "canary.wav")],
                 *commands_train(train_inputs / "canary", train_out)]
        for argv in argvs:
            if cli_main(argv) != 0:
                raise SystemExit(f"{argv[0]} failed")
        DETECT_REFERENCE.parent.mkdir(exist_ok=True)
        shutil.copyfile(detect_out / "canary.posteriors.csv", DETECT_REFERENCE)
        (canary,) = (train_out / "detect").glob("*.posteriors.csv")
        shutil.copyfile(canary, TRAIN_REFERENCE)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("setup", help="generate one workload's inputs")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--inputs", required=True)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    sub.add_parser("reference", help="regenerate the stored canary posteriors")
    args = parser.parse_args(argv)
    if args.cmd == "reference":
        write_references()
        return 0
    inputs = Path(args.inputs)
    inputs.mkdir(parents=True)
    SETUP[args.workload](inputs, args.seed, args.size)
    return 0


if __name__ == "__main__":
    sys.exit(main())
