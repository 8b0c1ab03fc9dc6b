"""Tests for corpus ingest, manifests, and prediction dump round trips."""

import base64
import dataclasses
import json
import shutil
import zlib

import numpy as np
import pytest

from notesetter.autodiff import Value
from notesetter.decoders import (HEAD_WIDTHS, NODE_HEADS, PredictionBundle,
                                 Predictions, staff_probabilities)
from notesetter.graph import build_graph
from notesetter.model import ModelConfig, init_params, predict_bundle
from notesetter.musicxml import export_musicxml, parse_musicxml
from notesetter.notes import make_score
from notesetter.pipeline import (
    MissingInput,
    engrave_dump,
    find_score_files,
    predict_file,
    ingest_corpus,
    load_corpus,
    load_manifest,
    prediction_lines,
    read_predictions,
    split_of,
    write_manifest,
    write_predictions,
)
from notesetter.postprocess import engrave, perfect_bundle
from notesetter.rng import Rng
from notesetter.synth import random_bundle, random_score

from conftest import FIXTURE_DIR, FIXTURE_NAMES, fixture_path, parse_fixture


# --- split rule ---


def test_split_of_crc_rule():
    # [DERIVED] bucket = crc32(f"{seed}:{name}") % 100; train iff < 80.
    for seed in (0, 7):
        for name in ("fixture_a", "fixture_b", "x"):
            bucket = zlib.crc32(f"{seed}:{name}".encode()) % 100
            assert split_of(seed, name) == (
                "train" if bucket < 80 else "test")


def test_split_of_depends_on_seed_not_order():
    names = [f"piece-{i}" for i in range(60)]
    splits_a = [split_of(3, n) for n in names]
    splits_b = [split_of(3, n) for n in reversed(names)]
    assert splits_a == list(reversed(splits_b))
    assert {"train", "test"} == set(splits_a)  # both splits occur
    assert splits_a != [split_of(4, n) for n in names]


# --- file discovery and ingest ---


def test_find_score_files_sorted_and_recursive(tmp_path):
    (tmp_path / "sub").mkdir()
    for rel in ("b.musicxml", "a.xml", "sub/c.mxl", "notes.txt"):
        (tmp_path / rel).write_bytes(b"x")
    files = find_score_files(tmp_path)
    assert [p.name for p in files] == ["a.xml", "b.musicxml", "c.mxl"]


def test_find_score_files_missing_dir(tmp_path):
    with pytest.raises(MissingInput, match="does not exist"):
        find_score_files(tmp_path / "nope")


def test_find_score_files_empty_dir(tmp_path):
    (tmp_path / "readme.md").write_text("hi")
    with pytest.raises(MissingInput, match="no .*files"):
        find_score_files(tmp_path)


def test_ingest_corpus_manifest_shape(tmp_path):
    for name in ("fixture_a", "grace_clip"):
        shutil.copy(fixture_path(name), tmp_path / f"{name}.musicxml")
    manifest = ingest_corpus(tmp_path, seed=0)
    assert manifest["version"] == 1
    assert manifest["seed"] == 0
    names = [p["name"] for p in manifest["pieces"]]
    assert names == ["fixture_a", "grace_clip"]
    by_name = {p["name"]: p for p in manifest["pieces"]}
    assert by_name["fixture_a"]["notes"] == 24
    assert by_name["fixture_a"]["bars"] == 8
    assert by_name["fixture_a"]["grace_dropped"] == 0
    assert by_name["grace_clip"]["grace_dropped"] == 1
    assert by_name["grace_clip"]["clipped_notes"] == 1
    for piece in manifest["pieces"]:
        assert piece["split"] == split_of(0, piece["name"])
        assert piece["path"].endswith(f"{piece['name']}.musicxml")


def test_ingest_corpus_rejects_duplicate_stems(tmp_path):
    (tmp_path / "nested").mkdir()
    shutil.copy(fixture_path("single_whole"), tmp_path / "piece.musicxml")
    shutil.copy(fixture_path("single_whole"),
                tmp_path / "nested" / "piece.musicxml")
    with pytest.raises(MissingInput, match="duplicate"):
        ingest_corpus(tmp_path, seed=0)


def test_manifest_write_load_round_trip(tmp_path):
    manifest = ingest_corpus(FIXTURE_DIR, seed=5)
    path = tmp_path / "manifest.json"
    write_manifest(manifest, path)
    text = path.read_text()
    assert text.endswith("\n")
    assert json.loads(text) == manifest
    assert load_manifest(path) == manifest


def test_load_manifest_errors(tmp_path):
    with pytest.raises(MissingInput, match="does not exist"):
        load_manifest(tmp_path / "none.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(MissingInput, match="JSON"):
        load_manifest(bad)
    hollow = tmp_path / "hollow.json"
    hollow.write_text('{"version": 1}')
    with pytest.raises(MissingInput, match="pieces"):
        load_manifest(hollow)


def test_load_corpus_full_and_split(tmp_path):
    manifest = ingest_corpus(FIXTURE_DIR, seed=0)
    everything = load_corpus(manifest)
    assert [s.name for s in everything] == sorted(
        p["name"] for p in manifest["pieces"])
    train = load_corpus(manifest, split="train")
    test = load_corpus(manifest, split="test")
    assert len(train) + len(test) == len(everything)
    expected_train = [p["name"] for p in manifest["pieces"]
                      if p["split"] == "train"]
    assert [s.name for s in train] == expected_train
    assert all(s.labels is not None for s in everything)


def test_load_corpus_missing_file(tmp_path):
    manifest = ingest_corpus(FIXTURE_DIR, seed=0)
    manifest["pieces"][0]["path"] = str(tmp_path / "vanished.musicxml")
    with pytest.raises(MissingInput, match="missing file"):
        load_corpus(manifest)


# --- prediction dumps ---


def dump_records(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def decode(text, dtype):
    """A dump array independently of the reader: base64 of raw bytes."""
    return np.frombuffer(base64.b64decode(text), dtype)


def write_records(path, records, extra_lines=()):
    path.write_text("".join(json.dumps(r) + "\n" for r in records)
                    + "".join(line + "\n" for line in extra_lines))


def assert_same_bundle(got, want):
    """Every field equal bit for bit (floats compared as int64 views), with
    float64 arrays and (m, 2) int64 pair arrays."""
    for field in dataclasses.fields(PredictionBundle):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if field.name == "note_logits":
            assert sorted(a) == sorted(b)
            pairs = [(a[h], b[h]) for h in b]
        elif field.name.endswith("_pairs"):
            assert a.dtype == np.int64 and a.shape == (len(b), 2)
            assert a.tolist() == np.asarray(b).reshape(-1, 2).tolist()
            continue
        else:
            pairs = [(a, b)]
        for x, y in pairs:
            assert x.dtype == np.float64 and x.shape == y.shape
            assert np.array_equal(x.view(np.int64), np.asarray(
                y, dtype=np.float64).view(np.int64))


def three_note_score():
    return make_score(4, [(0, 4, 4)], [(0, 4, 60), (4, 4, 62), (8, 4, 64)])


# values whose shortest repr needs 17 significant digits
DIGITS_17 = (0.1 + 0.2, 1.2345678901234567, 2.0000000000000004,
             -123456.78901234567)


def extreme_bundle(score):
    """Logits near +-1e300, subnormal and 17-digit values; probabilities near
    1e-300 and 1 - 1e-16; no chord pairs at all."""
    n = len(score.notes)
    specials = (1e300, -1e300, -0.0, 5e-324) + DIGITS_17
    rng = np.random.default_rng(4)
    note_logits = {}
    for k, head in enumerate(NODE_HEADS):
        block = rng.normal(size=(n, HEAD_WIDTHS[head])) * 7
        flat = block.reshape(-1)
        for j in range(0, flat.size, 3):
            flat[j] = specials[(j + k) % len(specials)]
        note_logits[head] = block
    voice_pairs = build_graph(score).candidate_pairs
    probs = (1e-300, 1 - 1e-16, 0.30000000000000004, 0.5,
             2.2250738585072014e-308)
    voice_probs = np.array([probs[i % len(probs)]
                            for i in range(len(voice_pairs))])
    return PredictionBundle(
        note_logits=note_logits,
        staff_probs=staff_probabilities(note_logits["staff"]),
        voice_pairs=voice_pairs, voice_probs=voice_probs,
        chord_pairs=(), chord_probs=np.zeros(0))


def test_prediction_lines_meta_first():
    score = random_score(0, n_notes=6)
    bundle = random_bundle(build_graph(score), 1)
    records = [json.loads(line) for line in prediction_lines(score, bundle)]
    meta = records[0]
    assert meta["kind"] == "meta"
    assert meta["format"] == 3
    assert meta["name"] == score.name
    assert meta["divisions"] == score.divisions_per_quarter
    assert meta["notes"] == [[n.onset_div, n.duration_div, n.midi_pitch]
                             for n in score.notes]
    # one record per head: node heads in NODE_HEADS order, then the pairs
    assert [(r["kind"], r["head"]) for r in records[1:]] == (
        [("logits", h) for h in NODE_HEADS]
        + [("pairs", "voice"), ("pairs", "chord")])
    # every array is the base64 of its row-major little-endian bytes
    for rec in records[1:1 + len(NODE_HEADS)]:
        logits = bundle.note_logits[rec["head"]]
        assert rec["rows"] == base64.b64encode(
            logits.astype("<f8").tobytes()).decode("ascii")
        assert decode(rec["rows"], "<f8").size == 6 * HEAD_WIDTHS[rec["head"]]
    for rec, pairs, probs in ((records[-2], bundle.voice_pairs,
                               bundle.voice_probs),
                              (records[-1], bundle.chord_pairs,
                               bundle.chord_probs)):
        assert decode(rec["u"], "<i8").tolist() == pairs[:, 0].tolist()
        assert decode(rec["w"], "<i8").tolist() == pairs[:, 1].tolist()
        assert decode(rec["p"], "<f8").tolist() == probs.tolist()


def test_predictions_round_trip(tmp_path):
    score = random_score(2, n_notes=9)
    path = tmp_path / "preds.jsonl"
    for bundle in (random_bundle(build_graph(score), 3),
                   extreme_bundle(score)):
        write_predictions(path, score, bundle)
        score_back, bundle_back = read_predictions(path)
        assert score_back.name == score.name
        assert score_back.notes == score.notes
        assert score_back.time_signatures == score.time_signatures
        assert_same_bundle(bundle_back, bundle)
    assert bundle_back.chord_pairs.shape == (0, 2)
    assert len(bundle_back.chord_probs) == 0
    assert len(bundle_back.voice_pairs) > 0
    # a single note has no pairs of either kind
    one = make_score(4, [(0, 4, 4)], [(0, 4, 60)], name="one")
    bundle = random_bundle(build_graph(one), 6)
    write_predictions(path, one, bundle)
    bundle_back = read_predictions(path)[1]
    assert_same_bundle(bundle_back, bundle)
    assert bundle_back.voice_pairs.shape == (0, 2)
    assert all(len(repr(x).lstrip("-0.").replace(".", "")) == 17
               for x in DIGITS_17)


def test_bundle_json_round_trip(tmp_path):
    rng = Rng(8)
    n = 3
    note_logits = {h: Value(rng.normal(n, HEAD_WIDTHS[h])
                            .reshape(n, HEAD_WIDTHS[h]) * 3)
                   for h in NODE_HEADS}
    preds = Predictions(note_logits=note_logits,
                        voice_pairs=((0, 1), (1, 2)),
                        voice_logits=Value(np.array([[0.3], [-4.0]])),
                        chord_pairs=((0, 2),),
                        chord_logits=Value(np.array([[1.25]])))
    bundle = preds.bundle()
    path = tmp_path / "hand.pred.jsonl"
    write_predictions(path, three_note_score(), bundle)
    assert_same_bundle(read_predictions(path)[1], bundle)


def test_dump_head_records_errors_and_unknown_kinds(tmp_path):
    score = three_note_score()
    path = tmp_path / "hand.pred.jsonl"
    write_predictions(path, score, extreme_bundle(score))
    records = dump_records(path)
    bundle = read_predictions(path)[1]
    bad = tmp_path / "bad.pred.jsonl"
    for i, rec in enumerate(records[1:], 1):
        write_records(bad, records[:i] + records[i + 1:])
        with pytest.raises(MissingInput, match=f"no {rec['kind']} record "
                                               f"for head '{rec['head']}'"):
            read_predictions(bad)
        write_records(bad, records + [rec])
        with pytest.raises(MissingInput, match="duplicate"):
            read_predictions(bad)
    # blank lines and records of unknown kinds are skipped
    extra = tmp_path / "extra.pred.jsonl"
    write_records(extra, records[:1] + [{"kind": "note", "id": 0}]
                  + records[1:] + [{"kind": "meta", "name": "x"}],
                  extra_lines=("", "   "))
    assert_same_bundle(read_predictions(extra)[1], bundle)


def test_read_predictions_refuses_invalid_utf8(tmp_path):
    score = random_score(4, n_notes=5)
    path = tmp_path / "dump.jsonl"
    write_predictions(path, score, random_bundle(build_graph(score), 5))
    meta, rest = path.read_bytes().split(b"\n", 1)
    path.write_bytes(meta + b'\n{"kind": "\xff"}\n' + rest)
    with pytest.raises(MissingInput, match="line 2 is not valid JSON"):
        read_predictions(path)


def test_read_predictions_errors(tmp_path):
    with pytest.raises(MissingInput, match="does not exist"):
        read_predictions(tmp_path / "none.jsonl")

    score = random_score(4, n_notes=5)
    bundle = random_bundle(build_graph(score), 5)
    path = tmp_path / "good.jsonl"
    write_predictions(path, score, bundle)
    records = dump_records(path)

    no_meta = tmp_path / "no_meta.jsonl"
    write_records(no_meta, records[1:])
    with pytest.raises(MissingInput, match="meta"):
        read_predictions(no_meta)

    short = tmp_path / "short.jsonl"
    meta = dict(records[0], notes=records[0]["notes"][:-1])
    write_records(short, [meta] + records[1:])  # meta disagrees with rows
    with pytest.raises(MissingInput,
                       match="staff logits hold 10 values, want 8 for 4 notes"):
        read_predictions(short)

    # arrays that are not base64 of whole 8-byte values
    bad_array = tmp_path / "bad_array.jsonl"
    for rows, message in (
            (records[1]["rows"][:-4] + "A===", "is not a base64 string"),
            (records[1]["rows"].replace("A", "-"), "is not a base64 string"),
            (base64.b64encode(base64.b64decode(records[1]["rows"])[:-3])
             .decode("ascii"), "holds 77 bytes, not a multiple of 8"),
            ([[0.0, 1.0]] * 5, "is not a base64 string")):
        write_records(bad_array, [records[0], dict(records[1], rows=rows)]
                      + records[2:])
        with pytest.raises(MissingInput, match=f"staff rows {message}"):
            read_predictions(bad_array)

    # a meta record that describes no score is refused, not looped over
    # and so is one whose values are not JSON integers
    bad_meta = tmp_path / "bad_meta.jsonl"
    (onset, duration, midi), *rest = records[0]["notes"]
    for fields in ({"time_signatures": [[0, 0, 4]]},
                   {"time_signatures": [[0, 4, 0]]},
                   {"time_signatures": []},
                   {"notes": [[-4, 4, 60]] + rest},
                   {"divisions": "4"},
                   {"divisions": 4.5},
                   {"notes": [[onset, duration + 0.5, midi]] + rest},
                   {"notes": [[onset, duration, True]] + rest}):
        write_records(bad_meta, [dict(records[0], **fields)] + records[1:])
        with pytest.raises(MissingInput, match="malformed dump"):
            read_predictions(bad_meta)

    # the one-record-per-note layout of format 1 is refused
    old = tmp_path / "old.jsonl"
    old_meta = {k: v for k, v in records[0].items() if k != "format"}
    write_records(old, [old_meta] + [
        {"kind": "note", "id": i,
         "logits": {h: bundle.note_logits[h][i].tolist() for h in NODE_HEADS}}
        for i in range(5)])
    with pytest.raises(MissingInput, match="older notesetter; re-run predict"):
        read_predictions(old)

    # so are format 2's arrays of JSON numbers, even when otherwise whole
    format_2 = [dict(records[0], format=2)] + [
        {"kind": "logits", "head": h, "rows": bundle.note_logits[h].tolist()}
        for h in NODE_HEADS] + [
        {"kind": "pairs", "head": head, "u": pairs[:, 0].tolist(),
         "w": pairs[:, 1].tolist(), "p": probs.tolist()}
        for head, pairs, probs in (
            ("voice", bundle.voice_pairs, bundle.voice_probs),
            ("chord", bundle.chord_pairs, bundle.chord_probs))]
    write_records(old, format_2)
    with pytest.raises(MissingInput, match="dump format 2 is not 3: written "
                                           "by an older notesetter"):
        read_predictions(old)

    # non-finite logits are refused, not engraved
    for value in (np.nan, np.inf, -np.inf):
        logits = bundle.note_logits["staff"].copy()
        logits[2, 1] = value
        rec = dict(records[1], rows=base64.b64encode(
            logits.astype("<f8").tobytes()).decode("ascii"))
        write_records(bad_array, records[:1] + [rec] + records[2:])
        with pytest.raises(MissingInput, match="staff logits are not all "
                                               "finite"):
            read_predictions(bad_array)


def test_round_trip_is_bit_exact(tmp_path):
    path = tmp_path / "dump.pred.jsonl"
    cases = []
    for name in FIXTURE_NAMES:
        score = parse_fixture(name).score
        cases.append((score, perfect_bundle(score)))
        cases += [(score, random_bundle(build_graph(score), seed))
                  for seed in (1, 2, 3)]
    score = random_score(7, n_notes=12)
    cases.append((score, extreme_bundle(score)))
    # 1e308 and the rest of the specials, in every column of one head
    bundle = extreme_bundle(score)
    specials = np.array((-0.0, 5e-324, 1e308, -1e308) + DIGITS_17)
    bundle.note_logits["note_type"] = np.resize(specials, (12, 8))
    cases.append((score, bundle))
    for score, bundle in cases:
        write_predictions(path, score, bundle)
        assert_same_bundle(read_predictions(path)[1], bundle)


def test_engrave_dump_matches_direct_engraving(tmp_path):
    result_score = random_score(6, n_notes=8)
    bundle = perfect_bundle(result_score)
    path = tmp_path / "dump.jsonl"
    write_predictions(path, result_score, bundle)
    data = engrave_dump(path)
    direct = engrave(bundle, result_score)
    assert data == export_musicxml(direct)
    parse_musicxml(data)  # well-formed subset document


def test_predict_file_smoke():
    config = ModelConfig(hidden_size=8, num_layers=1, dropout=0.0)
    params = init_params(config, Rng(0))
    score, bundle = predict_file(fixture_path("fixture_a"), params, config)
    assert score.name == "fixture_a"
    assert bundle.note_count == 24
    expected = predict_bundle(score, params, config)
    for head, block in expected.note_logits.items():
        assert np.array_equal(bundle.note_logits[head], block)
