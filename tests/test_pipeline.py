"""Tests for corpus ingest, manifests, and prediction dump round trips."""

import json
import shutil
import zlib

import numpy as np
import pytest

from notesetter.graph import build_graph
from notesetter.model import ModelConfig, init_params, predict_bundle
from notesetter.musicxml import export_musicxml, parse_musicxml
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

from conftest import FIXTURE_DIR, fixture_path


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


def test_prediction_lines_meta_first():
    score = random_score(0, n_notes=6)
    bundle = random_bundle(build_graph(score), 1)
    lines = prediction_lines(score, bundle)
    meta = json.loads(lines[0])
    assert meta["kind"] == "meta"
    assert meta["name"] == score.name
    assert meta["divisions"] == score.divisions_per_quarter
    assert meta["notes"] == [[n.onset_div, n.duration_div, n.midi_pitch]
                             for n in score.notes]
    kinds = [json.loads(line)["kind"] for line in lines[1:]]
    assert set(kinds) <= {"note", "pair"}
    assert kinds.count("note") == 6


def test_predictions_round_trip(tmp_path):
    score = random_score(2, n_notes=9)
    bundle = random_bundle(build_graph(score), 3)
    path = tmp_path / "preds.jsonl"
    write_predictions(path, score, bundle)
    score_back, bundle_back = read_predictions(path)
    assert score_back.name == score.name
    assert score_back.notes == score.notes
    assert score_back.time_signatures == score.time_signatures
    for head, block in bundle.note_logits.items():
        assert np.array_equal(bundle_back.note_logits[head], block)
    assert bundle_back.voice_pairs == bundle.voice_pairs
    assert np.array_equal(bundle_back.voice_probs, bundle.voice_probs)
    assert bundle_back.chord_pairs == bundle.chord_pairs


def test_read_predictions_errors(tmp_path):
    with pytest.raises(MissingInput, match="does not exist"):
        read_predictions(tmp_path / "none.jsonl")

    no_meta = tmp_path / "no_meta.jsonl"
    score = random_score(4, n_notes=5)
    bundle = random_bundle(build_graph(score), 5)
    no_meta.write_text("\n".join(bundle.to_json_lines()) + "\n")
    with pytest.raises(MissingInput, match="meta"):
        read_predictions(no_meta)

    short = tmp_path / "short.jsonl"
    lines = prediction_lines(score, bundle)
    meta = json.loads(lines[0])
    meta["notes"] = meta["notes"][:-1]  # meta disagrees with note records
    short.write_text("\n".join([json.dumps(meta)] + lines[1:]) + "\n")
    with pytest.raises((MissingInput, ValueError)):
        read_predictions(short)


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
