"""Command-line entry point: synthetic corpus generation, label extraction,
label comparison, detection, training, and cross-corpus evaluation.

Exit codes: 0 success, 1 usage error, 2 partial failure (some records
skipped under --strict), 3 internal error. Every command is deterministic
given identical inputs and seeds; resolved configs are echoed into the
output directory for provenance. Shift sign convention for alignment:
positive moves the estimate later in time relative to the reference.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import corpus as corpus_io
from . import labels as label_io
from .dsp import EmptyWav, InvalidArgument, read_text, read_wav, resample
from .labels import SpeakerMeta, align_for_lowest_vde, extract_reference_labels, mismatch_rate
from .nn.checkpoint import load_checkpoint, save_checkpoint
from .nn.model import DccrnModel, ModelConfig
from .synth import SAMPLE_RATE, generate_synthetic_corpus
from .tracker import TrackerConfig
from .training import (
    TARGET_RATE,
    Example,
    TrainConfig,
    detect_wave,
    evaluate_cross_corpus,
    make_example,
    recording,
    train,
)

log = logging.getLogger("voicedet")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARTIAL = 2
EXIT_INTERNAL = 3


class CliParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


class PartialFailure(RuntimeError):
    """Some records were skipped while --strict was requested."""


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------

def _merge_dataclass(defaults, overrides: dict, section: str):
    if not isinstance(overrides, dict):
        raise InvalidArgument(f"{section} config must be a JSON object")
    known = {f.name for f in dataclasses.fields(defaults)}
    unknown = set(overrides) - known
    if unknown:
        raise InvalidArgument(f"unknown {section} config keys: {sorted(unknown)}")
    return dataclasses.replace(defaults, **overrides)


def load_run_config(path: str | None, seed: int | None = None):
    """JSON file with optional sections tracker/model/train; unknown keys
    anywhere are rejected, and every error in the file names it. `train`'s
    --seed flag overrides the train seed."""
    text = read_text(path) if path else "{}"
    try:
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise InvalidArgument("config must be a JSON object")
        unknown = set(payload) - {"tracker", "model", "train"}
        if unknown:
            raise InvalidArgument(f"unknown config sections: {sorted(unknown)}")
        tracker = _merge_dataclass(TrackerConfig(), payload.get("tracker", {}), "tracker")
        model = _merge_dataclass(ModelConfig(), payload.get("model", {}), "model")
        train_cfg = _merge_dataclass(TrainConfig(), payload.get("train", {}), "train")
    except json.JSONDecodeError as err:
        raise InvalidArgument(f"{path}: not JSON: {err}") from None
    except (ValueError, TypeError) as err:  # InvalidArgument is a ValueError
        raise InvalidArgument(f"{path}: {err}") from None
    if seed is not None:
        train_cfg = dataclasses.replace(train_cfg, seed=seed)
    return tracker, model, train_cfg


def echo_config(out_dir: Path, tracker: TrackerConfig, model: ModelConfig, train_cfg: TrainConfig):
    resolved = {
        "tracker": dataclasses.asdict(tracker),
        "model": dataclasses.asdict(model),
        "train": dataclasses.asdict(train_cfg),
    }
    _atomic_write(out_dir / "config.json", json.dumps(resolved, indent=2, sort_keys=True) + "\n")


def _atomic_write(path: Path, text: str):
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# Shared data loading
# ---------------------------------------------------------------------------

def parse_corpus_args(specs: list[str]) -> dict[str, corpus_io.Manifest]:
    manifests = {}
    for spec in specs:
        root, _, tag = spec.rpartition(":")
        if not root or not tag:
            raise InvalidArgument(f"--corpus expects ROOT:TAG, got {spec!r}")
        manifests[tag] = corpus_io.scan_corpus(root, tag)
    return manifests


def load_recordings(manifests: dict[str, corpus_io.Manifest]) -> tuple[dict, list[str]]:
    """Each record's `recording` (8 kHz mic audio, provided labels cut to
    its frame count) keyed by full id, and the records skipped (logged)."""
    data = {}
    skipped = []
    for manifest in manifests.values():
        for rec in manifest.records:
            if rec.provided_label_path is None:
                skipped.append(f"{rec.full_id}: no labels")
                continue
            try:
                wave = read_wav(rec.mic_path)
            except EmptyWav as err:  # an empty signal, skipped; a malformed file stops the run
                skipped.append(f"{rec.full_id}: {err}")
                continue
            labels = label_io.read_labels_as(rec.provided_label_path, rec.label_format)
            try:
                data[rec.full_id] = recording(rec.full_id, wave, labels)
            except InvalidArgument as err:
                skipped.append(f"{rec.full_id}: {err}")
    for line in skipped:
        log.warning("skipped %s", line)
    return data, skipped


def load_examples(manifests: dict[str, corpus_io.Manifest],
                  model_cfg: ModelConfig) -> tuple[dict[str, Example], list[str]]:
    """Training examples keyed by full id, and the records skipped."""
    recordings, skipped = load_recordings(manifests)
    return {u: make_example(u, *rec, model_cfg) for u, rec in recordings.items()}, skipped


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_synth_corpus(args) -> int:
    if not (math.isfinite(args.duration) and args.duration * SAMPLE_RATE > 0.5):  # rounds to >= 1 sample
        raise InvalidArgument(f"--duration must be finite and at least one sample at {SAMPLE_RATE} Hz, "
                              f"got {args.duration}")
    manifest = generate_synthetic_corpus(
        args.out, n_utterances=args.n, seed=args.seed, duration_sec=args.duration
    )
    corpus_io.write_manifest(Path(args.out) / "manifest.tsv", manifest)
    print(f"wrote {len(manifest)} utterances under {args.out}")
    return EXIT_OK


def _extract_one(task):
    """Worker for labels-extract: returns (utt_id, voiced_fraction) or an
    error string."""
    utt_id, laryn_path, sex, cutoff, tracker_cfg, out_path = task
    wave = resample(read_wav(laryn_path), TARGET_RATE)
    labels = extract_reference_labels(
        wave, SpeakerMeta(utt_id, sex), tracker_cfg, cutoff_hz=cutoff
    )
    label_io.write_labels(out_path, labels)
    return utt_id, float(labels.labels.mean())


def cmd_labels_extract(args) -> int:
    tracker_cfg, model_cfg, train_cfg = load_run_config(args.config)
    manifest = corpus_io.read_manifest(args.manifest)
    corrections = {}  # full id -> the labels of its correction file
    if args.exclusions:
        exclusions = corpus_io.read_exclusions(args.exclusions)
        manifest = corpus_io.apply_exclusions(manifest, exclusions)
        kept = {r.full_id for r in manifest.records}
        corrections = {f"{c}/{u}": label_io.read_labels(path)
                       for c, u, path in exclusions.corrections if f"{c}/{u}" in kept}
    missing = [r.laryn_path for r in manifest.records
               if r.full_id not in corrections and r.laryn_path is not None
               and not Path(r.laryn_path).exists()]
    if missing:
        raise InvalidArgument(f"laryngograph file not found: {missing[0]}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    echo_config(out_dir, tracker_cfg, model_cfg, train_cfg)

    tasks = []
    skipped = []
    results = []
    for rec in manifest.records:
        if rec.full_id in corrections:  # written as corrected, not tracked
            labels = corrections[rec.full_id]
            label_io.write_labels(out_dir / f"{rec.utt_id}.lab", labels)
            results.append((rec.full_id, float(labels.labels.mean())))
            continue
        if rec.laryn_path is None:
            skipped.append((rec.full_id, "no laryngograph recording"))
            continue
        if rec.speaker.sex == "unknown" and args.cutoff_hz is None:
            skipped.append((rec.full_id, "unknown speaker sex and no --cutoff-hz"))
            continue
        tasks.append(
            (
                rec.full_id,
                rec.laryn_path,
                rec.speaker.sex if args.cutoff_hz is None else "unknown",
                args.cutoff_hz,
                tracker_cfg,
                out_dir / f"{rec.utt_id}.lab",
            )
        )

    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results += pool.map(_extract_one, tasks)
    else:
        results += map(_extract_one, tasks)

    per_corpus: dict[str, list[float]] = {}
    for utt_id, frac in results:
        per_corpus.setdefault(utt_id.split("/")[0], []).append(frac)
    lines = ["#v1 voicedet-extract-summary", f"#records={len(manifest)} written={len(results)} skipped={len(skipped)}"]
    for corpus, fracs in sorted(per_corpus.items()):
        lines.append(f"voiced_fraction\t{corpus}\t{np.mean(fracs):.4f}")
    for utt_id, reason in skipped:
        lines.append(f"skipped\t{utt_id}\t{reason}")
    _atomic_write(out_dir / "summary.tsv", "\n".join(lines) + "\n")
    print(f"wrote {len(results)} label files to {out_dir} ({len(skipped)} skipped)")
    if skipped and args.strict:
        raise PartialFailure(f"{len(skipped)} records skipped")
    return EXIT_OK


def cmd_labels_compare(args) -> int:
    dir_a, dir_b = Path(args.a), Path(args.b)
    ids_a = {p.stem for p in dir_a.glob("*.lab")}
    ids_b = {p.stem for p in dir_b.glob("*.lab")}
    common = sorted(ids_a & ids_b)
    if not common:
        raise InvalidArgument(f"no overlapping utterance ids between {dir_a} and {dir_b}")
    plain, aligned = [], []
    hops = set()
    for utt in common:
        path_a, path_b = dir_a / f"{utt}.lab", dir_b / f"{utt}.lab"
        a, b = label_io.read_labels(path_a), label_io.read_labels(path_b)
        hops.update({a.hop_ms, b.hop_ms})
        try:
            plain.append(mismatch_rate(a, b))
            aligned.append(align_for_lowest_vde(a, b, args.max_shift)[1])
        except InvalidArgument as err:
            raise InvalidArgument(f"{path_a} vs {path_b}: {err}") from None
    if len(hops) != 1:
        raise InvalidArgument(f"inconsistent hop_ms across label files: {sorted(hops)}")
    lines = [
        label_io.hop_header(hops.pop()),
        "utt_id,n_frames,mismatch_percent,mismatch_aligned_percent,shift",
    ]
    for utt, p, al in zip(common, plain, aligned):
        lines.append(f"{utt},{p.n_frames},{p.mismatch_rate:.4f},{al.mismatch_rate:.4f},{al.shift_applied}")
    p, al = label_io.pool_comparisons(plain), label_io.pool_comparisons(aligned)
    lines.append(f"POOLED,{p.n_frames},{p.mismatch_rate:.4f},{al.mismatch_rate:.4f},0")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        _atomic_write(Path(args.out), text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _load_model(path) -> DccrnModel:
    """The DC-CRN stored in a checkpoint file."""
    cfg, params, buffers = load_checkpoint(path)
    try:
        return DccrnModel.from_state(cfg, params, buffers)
    except InvalidArgument as err:
        raise InvalidArgument(f"{path}: {err}") from None


def cmd_detect(args) -> int:
    stems = {}  # label file stem -> input path
    for path in args.wavs:
        stem = Path(path).stem
        if not Path(path).exists():
            raise InvalidArgument(f"input file not found: {path}")
        if stem in stems:
            raise InvalidArgument(f"inputs {stems[stem]} and {path} would both write {stem}.lab")
        stems[stem] = path
    tracker_cfg, _, _ = load_run_config(args.config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    model = None
    if args.method == "dccrn":
        if not args.checkpoint:
            raise InvalidArgument("--method dccrn requires --checkpoint")
        model = _load_model(args.checkpoint)
    for path in args.wavs:
        utt = Path(path).stem
        labels, post = detect_wave(read_wav(path), args.method, model, tracker_cfg)
        if post is not None and args.posteriors:
            post_lines = ["frame,probability"] + [f"{i},{p:.6f}" for i, p in enumerate(post.probs)]
            _atomic_write(out_dir / f"{utt}.posteriors.csv", "\n".join(post_lines) + "\n")
        label_io.write_labels(out_dir / f"{utt}.lab", labels)
    print(f"wrote {len(args.wavs)} label files to {out_dir}")
    return EXIT_OK


DEMO_MODEL = dict(
    block_out_channels=(2, 4),
    composite_growth=4,
    blstm_hidden=32,
    groups=4,
    dtype="float32",
)
DEMO_TRAIN = dict(lr_init=1e-3, batch_size=4, max_epochs=2)


def _demo_fold(data: dict, n_val: int, n_test: int) -> corpus_io.FoldPlan:
    ids = sorted(data)
    n_train = len(ids) - n_val - n_test
    if n_train < 1:
        raise InvalidArgument("synthetic demo needs more utterances than val+test")
    return corpus_io.FoldPlan(
        held_out_corpus="synthetic",
        train_ids=tuple(ids[:n_train]),
        val_ids=tuple(ids[n_train : n_train + n_val]),
        test_ids=tuple(ids[n_train + n_val :]),
    )


def cmd_train(args) -> int:
    tracker_cfg, model_cfg, train_cfg = load_run_config(args.config, args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.synthetic_demo:
        if not args.config:
            model_cfg = _merge_dataclass(model_cfg, DEMO_MODEL, "model")
            train_cfg = _merge_dataclass(train_cfg, DEMO_TRAIN, "train")
        if args.demo_epochs is not None:
            train_cfg = dataclasses.replace(train_cfg, max_epochs=args.demo_epochs)
        corpus_dir = out_dir / "synth-corpus"
        manifest = generate_synthetic_corpus(
            corpus_dir, n_utterances=args.demo_utterances, seed=train_cfg.seed
        )
        recordings, skipped = load_recordings({"synthetic": manifest})
        n_side = max(1, args.demo_utterances // 10)
        folds = [_demo_fold(recordings, n_side, n_side)]
        # examples for training and validation; the test recordings stay for evaluation
        data = {u: make_example(u, *recordings.pop(u), model_cfg)
                for u in folds[0].train_ids + folds[0].val_ids}
    else:
        if not args.corpus or not args.folds:
            raise InvalidArgument("train needs --corpus and --folds (or --synthetic-demo)")
        manifests = parse_corpus_args(args.corpus)
        folds = corpus_io.read_folds(args.folds)
        data, skipped = load_examples(manifests, model_cfg)

    echo_config(out_dir, tracker_cfg, model_cfg, train_cfg)
    failures = [f"{len(skipped)} records skipped"] if skipped and args.strict else []
    for fold in folds:
        result = train(model_cfg, None, fold, data, train_cfg)
        tag = fold.held_out_corpus
        save_checkpoint(out_dir / f"{tag}.ckpt", model_cfg, result.params, result.buffers)
        _atomic_write(out_dir / f"{tag}.history.csv", result.history.to_csv())
        _atomic_write(
            out_dir / f"{tag}.timing.log",
            "".join(f"epoch {r.epoch}: {r.wall_time:.3f}s\n" for r in result.history.records),
        )
        print(
            f"fold {tag}: best epoch {result.best_epoch}, "
            f"val loss {min((r.val_loss for r in result.history.records), default=float('nan')):.4f}"
        )
        if result.history.aborted:  # the epoch after the last recorded one
            failures.append(f"fold {tag}: training diverged in epoch {len(result.history) + 1}")
        if args.synthetic_demo and fold.test_ids:
            model = DccrnModel.from_state(model_cfg, result.params, result.buffers)
            report, _ = evaluate_cross_corpus(
                folds, ["dccrn"], recordings, models={tag: model}, tracker_cfg=tracker_cfg
            )
            _atomic_write(out_dir / "demo-eval.csv", report.to_csv())
            sys.stdout.write(report.to_text())
    if failures:
        raise PartialFailure("; ".join(failures))
    return EXIT_OK


def cmd_eval(args) -> int:
    methods = args.methods.split(",")
    if not set(methods) <= {"rapt", "dccrn", "reference"} or len(set(methods)) < len(methods):
        raise InvalidArgument(f"--methods must list distinct methods of rapt,dccrn,reference, "
                              f"got {args.methods!r}")
    tracker_cfg, _, _ = load_run_config(args.config)
    folds = corpus_io.read_folds(args.folds)
    manifests = parse_corpus_args(args.corpus)
    models = {}
    if "dccrn" in methods:
        ckpt_dir = Path(args.checkpoints) if args.checkpoints else None
        for fold in folds:
            path = ckpt_dir / f"{fold.held_out_corpus}.ckpt" if ckpt_dir else None
            if path and path.exists():
                models[fold.held_out_corpus] = _load_model(path)
    data, skipped = load_recordings(manifests)
    report, decisions = evaluate_cross_corpus(
        folds, methods, data, models=models, tracker_cfg=tracker_cfg, max_shift=args.max_shift
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    _atomic_write(out, report.to_csv(aligned=not args.unaligned))
    sys.stdout.write(report.to_text())
    if args.strips:
        lines = ["fold,method,utt_id,frame,reference,estimate"]
        for (fold_tag, method, utt_id), (ref, est, _) in sorted(decisions.items()):
            for i, (r, e) in enumerate(zip(ref.labels, est.labels)):
                lines.append(f"{fold_tag},{method},{utt_id},{i},{int(r)},{int(e)}")
        _atomic_write(Path(args.strips), "\n".join(lines) + "\n")
    failures = [f"{len(skipped)} records skipped"] if skipped else []
    failures += [f"fold {f.held_out_corpus}: no checkpoint for dccrn" for f in folds
                 if "dccrn" in methods and f.held_out_corpus not in models]
    if failures and args.strict:
        raise PartialFailure("; ".join(failures))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> CliParser:
    parser = CliParser(prog="voicedet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def config(p):
        p.add_argument("--config", help="JSON run config (sections: tracker/model/train)")

    def common(p):
        config(p)
        p.add_argument("--strict", action="store_true", help="exit 2 if any record is skipped")

    p = sub.add_parser("synth-corpus", help="generate the deterministic synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--duration", type=float, default=3.0)
    p.set_defaults(func=cmd_synth_corpus)

    p = sub.add_parser("labels-extract", help="reference labels from laryngograph recordings")
    common(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--exclusions")
    p.add_argument("--out", required=True)
    p.add_argument("--cutoff-hz", type=float, default=None,
                   help="explicit high-pass cutoff (required for unknown speaker sex)")
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.set_defaults(func=cmd_labels_extract)

    p = sub.add_parser("labels-compare", help="mismatch rates between two label directories")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--out", help="CSV path (default: stdout)")
    p.add_argument("--max-shift", type=int, default=5)
    p.set_defaults(func=cmd_labels_compare)

    p = sub.add_parser("detect", help="voicing decisions for wav files")
    config(p)
    p.add_argument("--method", choices=("rapt", "dccrn"), required=True)
    p.add_argument("--checkpoint")
    p.add_argument("--out", required=True)
    p.add_argument("--posteriors", action="store_true", help="also write per-frame posteriors")
    p.add_argument("wavs", nargs="+")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("train", help="train the detector on fold plans")
    common(p)
    p.add_argument("--seed", type=int, default=None, help="override the training seed")
    p.add_argument("--corpus", action="append", metavar="ROOT:TAG",
                   help="corpus root and tag; repeatable")
    p.add_argument("--folds", help="fold plan JSON")
    p.add_argument("--out", required=True)
    p.add_argument("--synthetic-demo", action="store_true",
                   help="self-contained run on the bundled synthetic corpus")
    p.add_argument("--demo-utterances", type=int, default=200)
    p.add_argument("--demo-epochs", type=int, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="cross-corpus VDE report")
    common(p)
    p.add_argument("--corpus", action="append", required=True, metavar="ROOT:TAG")
    p.add_argument("--folds", required=True)
    p.add_argument("--methods", default="rapt", help="comma list: rapt,dccrn,reference")
    p.add_argument("--checkpoints", help="directory of <held_out_corpus>.ckpt files")
    p.add_argument("--out", required=True)
    p.add_argument("--max-shift", type=int, default=5)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--aligned", dest="unaligned", action="store_false",
                       help="report best-shift VDE (default)")
    group.add_argument("--unaligned", dest="unaligned", action="store_true",
                       help="report VDE without alignment")
    p.add_argument("--strips", help="long-format per-frame decisions CSV for plotting")
    p.set_defaults(func=cmd_eval, unaligned=False)

    return parser


def main(argv=None) -> int:
    from ._alloc import tune_allocator

    tune_allocator()
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        for name, least in (("n", 1), ("jobs", 1), ("demo_utterances", 1), ("demo_epochs", 1),
                            ("max_shift", 0), ("seed", 0)):
            value = getattr(args, name, None)
            if value is not None and value < least:
                raise InvalidArgument(f"--{name.replace('_', '-')} must be at least {least}, got {value}")
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except PartialFailure as err:
        print(f"partial failure: {err}", file=sys.stderr)
        return EXIT_PARTIAL
    except InvalidArgument as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as err:  # internal error
        log.exception("internal error: %s", err)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
