"""Tests for corpus scanning, manifests, exclusions, segmentation, folds."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from voicedet.corpus import (
    CORPORA,
    ExclusionList,
    FoldPlan,
    Manifest,
    UtteranceRecord,
    apply_exclusions,
    folds_from_json,
    folds_to_json,
    make_locro_folds,
    manifest_from_text,
    manifest_to_text,
    read_exclusions,
    read_folds,
    read_manifest,
    scan_corpus,
    segment_recording,
    split_train_val,
    write_exclusions,
    write_manifest,
)
from voicedet.dsp import InvalidArgument, Waveform, write_wav
from voicedet.labels import SpeakerMeta

SR = 8000


def build_toy_corpus(root, n=3, with_laryn=True, corpus_dirname="toy"):
    root = root / corpus_dirname
    (root / "mic").mkdir(parents=True)
    if with_laryn:
        (root / "laryn").mkdir()
    (root / "labels").mkdir()
    meta = []
    for i in range(n):
        utt = f"u{i:02d}"
        w = Waveform(np.zeros(800), SR)
        write_wav(root / "mic" / f"{utt}.wav", w)
        if with_laryn:
            write_wav(root / "laryn" / f"{utt}.wav", w)
        (root / "labels" / f"{utt}.lab").write_text("#hop_ms=10\n0\t0\t0.000\n")
        meta.append(f"{utt}\tspk{i}\t{'male' if i % 2 else 'female'}")
    (root / "meta.tsv").write_text("\n".join(meta) + "\n")
    return root


def record(corpus, utt, speaker="s0"):
    return UtteranceRecord(
        utt_id=utt, corpus=corpus, mic_path=f"/x/{utt}.wav", speaker=SpeakerMeta(speaker, "male")
    )


class TestScan:
    def test_three_pairs(self, tmp_path):
        root = build_toy_corpus(tmp_path)
        m = scan_corpus(root, "FDA")
        assert len(m) == 3
        for r in m.records:
            assert r.laryn_path is not None
            assert r.provided_label_path is not None
            assert r.speaker.speaker_id.startswith("spk")
            assert r.flags == ()

    def test_empty_dir_warns(self, tmp_path, caplog):
        (tmp_path / "mic").mkdir()
        with caplog.at_level("WARNING"):
            m = scan_corpus(tmp_path, "FDA")
        assert len(m) == 0
        assert "no utterances" in caplog.text

    def test_missing_laryn_flagged(self, tmp_path):
        root = build_toy_corpus(tmp_path, with_laryn=False)
        m = scan_corpus(root, "FDA")  # laryngograph corpus
        assert all(r.flags == ("incomplete",) for r in m.records)

    @pytest.mark.parametrize("line", ["u01\tspk1", "u01\tspk1\tmale\textra", "u01\tspk1\tboth"])
    def test_malformed_meta_line_names_file_and_line(self, tmp_path, line):
        root = build_toy_corpus(tmp_path)
        meta = root / "meta.tsv"
        lines = meta.read_text().splitlines()
        lines[1] = line
        meta.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidArgument, match=rf"^{re.escape(str(meta))}:2: "):
            scan_corpus(root, "FDA")

    def test_missing_root(self, tmp_path):
        with pytest.raises(InvalidArgument):
            scan_corpus(tmp_path / "nope", "FDA")


class TestExclusions:
    def test_removal(self):
        m = Manifest(tuple(record("FDA", f"u{i}") for i in range(10)))
        x = ExclusionList(entries=(("FDA", "u1", "flawed_laryngograph"), ("FDA", "u5", "other")))
        out = apply_exclusions(m, x)
        assert len(out) == 8
        assert all(r.utt_id not in ("u1", "u5") for r in out.records)

    def test_empty_identity(self):
        m = Manifest(tuple(record("FDA", f"u{i}") for i in range(4)))
        assert apply_exclusions(m, ExclusionList()) == m

    def test_idempotent(self):
        m = Manifest(tuple(record("FDA", f"u{i}") for i in range(6)))
        x = ExclusionList(
            entries=(("FDA", "u2", "other"),), corrections=(("FDA", "u3", "/c.lab"),)
        )
        once = apply_exclusions(m, x)
        twice = apply_exclusions(once, x)
        assert once == twice

    def test_unmatched_entry_warns(self, caplog):
        m = Manifest((record("FDA", "u0"),))
        with caplog.at_level("WARNING"):
            out = apply_exclusions(m, ExclusionList(entries=(("FDA", "zz", "other"),)))
        assert len(out) == 1
        assert "matches no record" in caplog.text

    def test_file_round_trip(self, tmp_path):
        x = ExclusionList(
            entries=(("PTDB-TUG", "u1", "flawed_laryngograph"),),
            corrections=(("Mocha-TIMIT", "u7", "/fix/u7.lab"),),
        )
        p = tmp_path / "x.tsv"
        write_exclusions(p, x)
        assert p.read_text().startswith("#v1 voicedet-exclusions\n")
        assert read_exclusions(p) == x

    def test_bad_reason_rejected(self, tmp_path):
        p = tmp_path / "x.tsv"
        p.write_text("#v1 voicedet-exclusions\nFDA\tu0\tflawed_laryngograph\n\nFDA\tu0\tbecause\n")
        with pytest.raises(InvalidArgument, match=re.escape(f"{p}:4: unknown exclusion reason")):
            read_exclusions(p)

    def test_malformed_line_names_file_and_line(self, tmp_path):
        p = tmp_path / "x.tsv"
        p.write_text("#v1 voicedet-exclusions\nFDA\tu0\n")
        with pytest.raises(InvalidArgument, match=re.escape(f"{p}:2: malformed line")):
            read_exclusions(p)


class TestManifestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        root = build_toy_corpus(tmp_path)
        m = scan_corpus(root, "KEELE")
        text = manifest_to_text(m)
        again = manifest_to_text(manifest_from_text(text))
        assert text == again
        assert manifest_from_text(text) == m

    def test_write_read_with_stats(self, tmp_path):
        root = build_toy_corpus(tmp_path)
        m = scan_corpus(root, "KEELE")
        path = tmp_path / "manifest.tsv"
        write_manifest(path, m)
        assert read_manifest(path) == m
        stats = (tmp_path / "manifest.tsv.stats.json").read_text()
        assert '"version": 1' in stats
        assert '"n_records": 3' in stats

    def test_version_line_required(self):
        with pytest.raises(InvalidArgument):
            manifest_from_text("FDA\tu0\t/a.wav\t-\ts\tmale\t-\tvoicedet\t-\n")

    def test_duplicate_ids_rejected(self):
        with pytest.raises(InvalidArgument):
            Manifest((record("FDA", "u0"), record("FDA", "u0")))

    @pytest.mark.parametrize("field", ["utt_id", "mic_path", "laryn_path", "label_format"])
    @pytest.mark.parametrize("bad", ["a\tb", "a\nb", "a\r", "\u2028", "", "  "])
    def test_writer_rejects_fields_that_would_not_read_back(self, tmp_path, field, bad):
        from dataclasses import replace

        m = Manifest((replace(record("FDA", "u0"), **{field: bad}),))
        with pytest.raises(InvalidArgument, match="u0|FDA"):
            write_manifest(tmp_path / "m.tsv", m)
        assert not (tmp_path / "m.tsv").exists()

    @pytest.mark.parametrize("text, lineno", [
        ("#v1 voicedet-manifest\nFDA\tu0\t/a.wav\n", 2),                                  # 3 fields
        ("#v1 voicedet-manifest\n\nFDA\tu0\t/a.wav\t-\ts\tmale\t-\tvoicedet\t-\t\n", 3),   # 10 fields
        ("#v1 voicedet-manifest\nFDA\tu0\t/a.wav\t-\ts\tmale\t-\tvoicedet\t-\n"
         "FDA\tu1\t/b.wav\t-\ts\tboth\t-\tvoicedet\t-\n", 3),                             # bad sex
        ("#v1 voicedet-manifest\nXYZ\tu0\t/a.wav\t-\ts\tmale\t-\tvoicedet\t-\n", 2),       # bad corpus
    ])
    def test_malformed_line_names_file_and_line(self, tmp_path, text, lineno):
        path = tmp_path / "m.tsv"
        path.write_text(text)
        with pytest.raises(InvalidArgument, match=re.escape(f"{path}:{lineno}: ")):
            read_manifest(path)

    @pytest.mark.parametrize("data", [b"", b"FDA\tu0\n", b"\xff\xfe#v1 voicedet-manifest\n"])
    def test_not_a_manifest_names_file(self, tmp_path, data):
        path = tmp_path / "m.tsv"
        path.write_bytes(data)
        with pytest.raises(InvalidArgument, match=re.escape(str(path))):
            read_manifest(path)


# what str.splitlines breaks a line at
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
PLAIN_TEXT = st.text(alphabet=st.sampled_from("ab/ .,-#\u00e9"), min_size=1, max_size=5)
ANY_TEXT = st.text(alphabet=st.sampled_from("ab/ .,-#\t\u00e9" + LINE_BREAKS), max_size=5)


@st.composite
def manifest_records(draw):
    # about half the records draw from plain text, so both outcomes occur
    text = draw(st.sampled_from([PLAIN_TEXT, ANY_TEXT]))
    return UtteranceRecord(
        utt_id=draw(text),
        corpus=draw(st.sampled_from(CORPORA)),
        mic_path=draw(text),
        laryn_path=draw(st.none() | text),
        speaker=SpeakerMeta(draw(text), draw(st.sampled_from(["male", "female", "unknown"]))),
        provided_label_path=draw(st.none() | text),
        label_format=draw(text),
        flags=tuple(draw(st.lists(text, max_size=3))),
    )


def readable_back(r: UtteranceRecord) -> bool:
    """A record a manifest line can hold: every field and flag non-blank
    with no tab or line break, no optional field '-', no flag '-' or with a
    comma."""
    optional = [v for v in (r.laryn_path, r.provided_label_path) if v is not None]
    fields = [r.utt_id, r.mic_path, r.speaker.speaker_id, r.label_format, *optional, *r.flags]
    return (all(f.strip() and not set(f) & set("\t" + LINE_BREAKS) for f in fields)
            and "-" not in optional and all(f != "-" and "," not in f for f in r.flags))


@settings(max_examples=400)
@given(records=st.lists(manifest_records(), max_size=3, unique_by=lambda r: r.full_id))
def test_manifest_write_read_round_trip(tmp_path_factory, records):
    path = tmp_path_factory.getbasetemp() / "round-trip.tsv"
    manifest = Manifest(tuple(records))
    if all(readable_back(r) for r in records):
        write_manifest(path, manifest)
        assert read_manifest(path) == manifest
    else:
        with pytest.raises(InvalidArgument):
            write_manifest(path, manifest)


class TestSegmentation:
    def test_thirty_seconds(self):
        w = Waveform(np.zeros(30 * SR), SR)
        segs = segment_recording(w, 3.0)
        assert len(segs) == 10
        assert all(len(s) == 3 * SR for s in segs)

    def test_short_remainder_merged(self):
        w = Waveform(np.zeros(int(3.5 * SR)), SR)
        segs = segment_recording(w, 3.0)
        assert len(segs) == 1
        assert len(segs[0]) == int(3.5 * SR)

    def test_long_remainder_kept(self):
        w = Waveform(np.zeros(int(7.5 * SR)), SR)
        segs = segment_recording(w, 3.0)
        assert [len(s) for s in segs] == [3 * SR, 3 * SR, int(1.5 * SR)]

    def test_half_second_single_with_warning(self, caplog):
        w = Waveform(np.zeros(SR // 2), SR)
        with caplog.at_level("WARNING"):
            segs = segment_recording(w, 3.0)
        assert len(segs) == 1
        assert "shorter than 1 s" in caplog.text

    def test_segments_cover_input(self):
        rng = np.random.default_rng(1)
        w = Waveform(rng.standard_normal(10 * SR + 123), SR)
        segs = segment_recording(w, 3.0)
        assert np.array_equal(np.concatenate([s.samples for s in segs]), w.samples)


def manifest_of(corpus, n, n_speakers=3):
    return Manifest(
        tuple(record(corpus, f"u{i:03d}", speaker=f"spk{i % n_speakers}") for i in range(n))
    )


class TestFolds:
    def test_five_corpora(self):
        manifests = {
            c: manifest_of(c, 20) for c in ("PTDB-TUG", "Mocha-TIMIT", "FDA", "KEELE", "CMU-Arctic")
        }
        folds = make_locro_folds(manifests, seed=42)
        assert len(folds) == 5
        for f in folds:
            test_corpora = {i.split("/")[0] for i in f.test_ids}
            assert test_corpora == {f.held_out_corpus}
            assert len(f.test_ids) == 20
            train_val = set(f.train_ids) | set(f.val_ids)
            assert not train_val & set(f.test_ids)
            assert not set(f.train_ids) & set(f.val_ids)
            # 90/10 within one utterance
            total = len(f.train_ids) + len(f.val_ids)
            assert abs(len(f.train_ids) - 0.9 * total) <= 1.0

    def test_deterministic(self):
        manifests = {c: manifest_of(c, 15) for c in ("FDA", "KEELE", "CMU-Arctic")}
        a = make_locro_folds(manifests, seed=7)
        b = make_locro_folds(manifests, seed=7)
        assert a == b
        c = make_locro_folds(manifests, seed=8)
        assert a != c

    def test_two_corpora_ten_each(self):
        manifests = {"FDA": manifest_of("FDA", 10), "KEELE": manifest_of("KEELE", 10)}
        folds = make_locro_folds(manifests, seed=0)
        fold0 = folds[0]
        assert fold0.held_out_corpus == "FDA"
        assert len(fold0.train_ids) == 9
        assert len(fold0.val_ids) == 1

    def test_speaker_disjoint_mode(self):
        manifests = {"FDA": manifest_of("FDA", 30, 6), "KEELE": manifest_of("KEELE", 30, 6)}
        folds = make_locro_folds(manifests, seed=3, speaker_disjoint=True)
        for f in folds:
            train_spk = {i.split("/u")[0] + i.split("/u")[1][:0] for i in f.train_ids}
            # derive speaker from the id's index modulo construction
            def spk(full_id):
                idx = int(full_id.split("/u")[1])
                return full_id.split("/")[0] + "/spk" + str(idx % 6)

            assert not {spk(i) for i in f.train_ids} & {spk(i) for i in f.val_ids}

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_speaker_disjoint_keeps_one_validation_speaker(self, seed):
        # a tenth of 4 utterances rounds to 0; the utterance split keeps 1 too
        manifests = {"FDA": manifest_of("FDA", 4, 4), "KEELE": manifest_of("KEELE", 4, 4)}
        for f in make_locro_folds(manifests, seed=seed, speaker_disjoint=True):
            assert (len(f.train_ids), len(f.val_ids)) == (3, 1)

    @pytest.mark.parametrize("seed", [0, 4])  # the small speaker drawn second, then first
    def test_speaker_disjoint_never_takes_every_speaker(self, seed):
        # one speaker with 1 utterance, one with 29: a target of 3 validation
        # utterances must not move the large speaker's 29 there as well
        solo = record("FDA", "u000", speaker="solo")
        big = tuple(record("FDA", f"u{i:03d}", speaker="big") for i in range(1, 30))
        manifests = {"FDA": Manifest((solo, *big)), "KEELE": manifest_of("KEELE", 4)}
        fold = make_locro_folds(manifests, seed=seed, speaker_disjoint=True)[1]
        assert fold.train_ids and fold.val_ids
        assert len(fold.train_ids) + len(fold.val_ids) == 30

    def test_speaker_disjoint_single_speaker_is_all_train(self):
        manifests = {"FDA": manifest_of("FDA", 5, 1), "KEELE": manifest_of("KEELE", 5, 1)}
        for f in make_locro_folds(manifests, seed=0, speaker_disjoint=True):
            assert (len(f.train_ids), len(f.val_ids)) == (5, 0)

    @pytest.mark.parametrize("n, n_val", [(1, 0), (2, 1), (4, 1), (10, 1), (15, 2), (25, 2), (26, 3)])
    def test_split_train_val_holds_out_a_tenth(self, n, n_val):
        ids = [f"u{i:02d}" for i in range(n)]
        train, val = split_train_val(ids, np.random.default_rng(0))
        assert len(val) == n_val
        assert sorted(train + val) == ids

    def test_needs_two_corpora(self):
        with pytest.raises(InvalidArgument):
            make_locro_folds({"FDA": manifest_of("FDA", 5)}, seed=0)

    def test_empty_corpus_rejected(self):
        with pytest.raises(InvalidArgument):
            make_locro_folds({"FDA": manifest_of("FDA", 5), "KEELE": Manifest(())}, seed=0)

    def test_json_round_trip(self):
        manifests = {"FDA": manifest_of("FDA", 12), "KEELE": manifest_of("KEELE", 12)}
        folds = make_locro_folds(manifests, seed=1)
        text = folds_to_json(folds)
        assert '"version": 1' in text
        assert folds_from_json(text) == folds

    @pytest.mark.parametrize("text", [
        "",                                                   # not JSON
        "[1]",                                                # not an object
        '{"version": 2, "folds": []}',                        # unknown version
        '{"version": 1}',                                     # no folds
        '{"version": 1, "folds": [{"held_out_corpus": "FDA"}]}',  # no *_ids
        '{"version": 1, "folds": [{"held_out_corpus": "FDA", "train_ids": "u1", '
        '"val_ids": [], "test_ids": []}]}',                   # ids not a list
        '{"version": 1, "folds": [{"held_out_corpus": "x/y", "train_ids": [], '
        '"val_ids": [], "test_ids": []}]}',                   # tag not a corpus
    ])
    def test_bad_fold_file_names_file(self, tmp_path, text):
        path = tmp_path / "folds.json"
        path.write_text(text)
        with pytest.raises(InvalidArgument, match=re.escape(f"{path}: ")):
            read_folds(path)

    def test_train_val_overlap_rejected(self):
        with pytest.raises(InvalidArgument):
            FoldPlan("FDA", ("KEELE/u1",), ("KEELE/u1",), ("FDA/u0",))
