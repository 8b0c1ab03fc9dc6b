"""Tests for corpus ingest, manifests, and prediction dump round trips."""

import base64
import dataclasses
import json
import shutil
import zlib

import numpy as np
import pytest

from notesetter.autodiff import Value
from notesetter.cli import EXIT_CODES
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
    prediction_dump,
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


def dump_parts(data):
    """A dump's meta record and its arrays by name, split independently of
    the reader: every size from the meta line and HEAD_WIDTHS."""
    header, payload = data.split(b"\n", 1)
    meta = json.loads(header)
    n = len(meta["notes"])
    layout = [(head, "<f8", (n, HEAD_WIDTHS[head])) for head in NODE_HEADS]
    for head in ("voice", "chord"):
        m = meta["pairs"][head]
        layout += [(f"{head}_pairs", "<i8", (m, 2)),
                   (f"{head}_probs", "<f8", (m,))]
    arrays, offset = {}, 0
    for name, dtype, shape in layout:
        size = 8 * int(np.prod(shape))
        arrays[name] = np.frombuffer(payload[offset:offset + size],
                                     dtype).reshape(shape).copy()
        offset += size
    assert offset == len(payload)
    return meta, arrays


def join_parts(meta, arrays):
    """The bytes of ``meta`` and the arrays, in their order, as they are."""
    return (json.dumps(meta).encode() + b"\n"
            + b"".join(a.tobytes() for a in arrays.values()))


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


def test_prediction_dump_layout(tmp_path):
    score = random_score(0, n_notes=6)
    bundle = random_bundle(build_graph(score), 1)
    data = prediction_dump(score, bundle)
    header, payload = data.split(b"\n", 1)
    meta = json.loads(header)
    # one line of compact JSON: the meta record with the pair counts
    assert header == json.dumps(meta, separators=(",", ":")).encode()
    assert meta == {
        "kind": "meta", "format": 4, "name": score.name,
        "divisions": score.divisions_per_quarter,
        "time_signatures": [[t.bar_index, t.numerator, t.denominator]
                            for t in score.time_signatures],
        "notes": [[n.onset_div, n.duration_div, n.midi_pitch]
                  for n in score.notes],
        "pairs": {"voice": len(bundle.voice_pairs),
                  "chord": len(bundle.chord_pairs)}}
    # then each array's row-major little-endian bytes, back to back
    assert payload == b"".join(
        [bundle.note_logits[h].astype("<f8").tobytes() for h in NODE_HEADS]
        + [bundle.voice_pairs.astype("<i8").tobytes(),
           bundle.voice_probs.astype("<f8").tobytes(),
           bundle.chord_pairs.astype("<i8").tobytes(),
           bundle.chord_probs.astype("<f8").tobytes()])
    path = tmp_path / "x.pred"
    write_predictions(path, score, bundle)
    assert path.read_bytes() == data


def test_predictions_round_trip(tmp_path):
    score = random_score(2, n_notes=9)
    path = tmp_path / "preds.pred"
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
    path = tmp_path / "hand.pred"
    write_predictions(path, three_note_score(), bundle)
    assert_same_bundle(read_predictions(path)[1], bundle)


def test_dump_head_records_errors_and_unknown_kinds(tmp_path):
    score = three_note_score()
    bundle = extreme_bundle(score)
    meta, arrays = dump_parts(prediction_dump(score, bundle))
    path = tmp_path / "hand.pred"
    # an array dropped or written twice leaves a payload of the wrong length
    for name in (name for name, a in arrays.items() if a.size):
        for edit in ({k: v for k, v in arrays.items() if k != name},
                     dict(arrays, twice=arrays[name])):
            path.write_bytes(join_parts(meta, edit))
            with pytest.raises(MissingInput, match="payload holds"):
                read_predictions(path)
    # meta keys of unknown kinds are ignored, and so is the record kind
    extra = dict(meta, kind="note", comment="x", heads=["staff"])
    path.write_bytes(join_parts(extra, arrays))
    assert_same_bundle(read_predictions(path)[1], bundle)


def test_read_predictions_refuses_invalid_utf8(tmp_path):
    score = random_score(4, n_notes=5)
    path = tmp_path / "dump.pred"
    write_predictions(path, score, random_bundle(build_graph(score), 5))
    data = path.read_bytes()
    path.write_bytes(data.replace(b'"name":"', b'"name":"\xff', 1))
    with pytest.raises(MissingInput, match="meta line is not valid JSON"):
        read_predictions(path)


def old_format_dump(meta, arrays, version):
    """The dump of ``dump_parts``'s meta and arrays as notesetter wrote it
    before format 4: JSON lines, each array a base64 string of its
    little-endian bytes (format 3), a list of JSON numbers (format 2), or
    one record per note and no format at all (format 1)."""
    def array(values):
        if version == 3:
            return base64.b64encode(values.tobytes()).decode("ascii")
        return values.tolist()
    meta = {k: v for k, v in meta.items() if k != "pairs"}
    meta["format"] = version
    if version == 1:
        del meta["format"]
        records = [{"kind": "note", "id": i, "logits": {
            h: arrays[h][i].tolist() for h in NODE_HEADS}}
            for i in range(len(meta["notes"]))]
    else:
        records = [{"kind": "logits", "head": h, "rows": array(arrays[h])}
                   for h in NODE_HEADS]
        records += [{"kind": "pairs", "head": head,
                     "u": array(arrays[f"{head}_pairs"][:, 0].copy()),
                     "w": array(arrays[f"{head}_pairs"][:, 1].copy()),
                     "p": array(arrays[f"{head}_probs"])}
                    for head in ("voice", "chord")]
    return "".join(json.dumps(r) + "\n" for r in [meta] + records).encode()


def test_read_predictions_errors(tmp_path):
    with pytest.raises(MissingInput, match="does not exist"):
        read_predictions(tmp_path / "none.pred")

    score = random_score(6, n_notes=5)  # 5 voice and 2 chord pairs
    bundle = random_bundle(build_graph(score), 5)
    good = prediction_dump(score, bundle)
    header, payload = good.split(b"\n", 1)
    meta, arrays = dump_parts(good)
    path = tmp_path / "bad.pred"

    def refused(data, message):
        path.write_bytes(data)
        with pytest.raises(MissingInput, match=message):
            read_predictions(path)

    # the meta line: present, ended by a newline, a JSON object
    refused(b"", "no newline after the meta line")
    refused(header, "no newline after the meta line")
    refused(header[:len(header) // 2] + b"\n" + payload,
            "meta line is not valid JSON")
    refused(b"[4]\n" + payload, "meta line is not a JSON object")
    refused(b"\n" + good, "meta line is not valid JSON")

    # a payload whose length disagrees with the meta line
    size = len(payload)
    for data in (good[:-8], good[:-1], good + b"\0", good + bytes(8),
                 header + b"\n" + base64.b64encode(payload)):
        refused(data, f"payload holds {len(data) - len(header) - 1} bytes, "
                      f"want {size} for 5 notes")
    short = dict(meta, notes=meta["notes"][:-1])  # meta disagrees with rows
    row = 8 * sum(HEAD_WIDTHS[h] for h in NODE_HEADS)
    refused(join_parts(short, arrays), f"payload holds {size} bytes, want "
                                       f"{size - row} for 4 notes")
    more = dict(meta, pairs=dict(meta["pairs"], voice=meta["pairs"]["voice"]
                                 + 1))
    refused(join_parts(more, arrays), f"want {size + 24} for 5 notes and "
                                      f"{more['pairs']['voice']} voice")

    # a meta record that describes no score is refused, not looped over
    # and so is one whose values are not JSON integers
    (onset, duration, midi), *rest = meta["notes"]
    for fields in ({"time_signatures": [[0, 0, 4]]},
                   {"time_signatures": [[0, 4, 0]]},
                   {"time_signatures": []},
                   {"notes": [[-4, 4, 60]] + rest},
                   {"divisions": "4"},
                   {"divisions": 4.5},
                   {"notes": [[onset, duration + 0.5, midi]] + rest},
                   {"notes": [[onset, duration, True]] + rest},
                   {"pairs": {"voice": 12.0, "chord": 0}},
                   {"pairs": {"voice": 12, "chord": False}},
                   {"pairs": {"voice": 12}},
                   {"pairs": [12, 0]}):
        refused(join_parts(dict(meta, **fields), arrays), "malformed dump")
    for counts in ({"voice": -1, "chord": 0}, {"voice": 12, "chord": -3}):
        refused(join_parts(dict(meta, pairs=counts), arrays),
                "must not be negative")

    # every older format is refused, even when otherwise whole
    for version, shown in ((1, "None"), (2, "2"), (3, "3")):
        refused(old_format_dump(meta, arrays, version),
                f"dump format {shown} is not 4: written by an older "
                f"notesetter; re-run predict")

    # values the reader refuses after decoding them
    pairs = arrays["voice_pairs"]
    for name, index, value, message in (
            ("staff", (2, 1), np.nan, "staff logits are not all finite"),
            ("staff", (0, 0), np.inf, "staff logits are not all finite"),
            ("tuplet", (4, 2), -np.inf, "tuplet logits are not all finite"),
            ("voice_probs", 0, 1.5, "voice probabilities outside"),
            ("voice_probs", 1, 0.0, "voice probabilities outside"),
            ("voice_pairs", (0, 0), 5, "voice pairs: an index is not a note"),
            ("voice_pairs", (1, 1), -1, "voice pairs: an index is not a note"),
            ("voice_pairs", (0, 0), pairs[0, 1], "joins a note to itself")):
        edited = arrays[name].copy()
        edited[index] = value
        refused(join_parts(meta, dict(arrays, **{name: edited})), message)
    # voice pairs out of (u, w) order, or one pair twice
    for edited in (pairs[::-1], pairs[[0, 0, 1, 2, 3]]):
        refused(join_parts(meta, dict(arrays, voice_pairs=edited)),
                "voice pairs are not strictly ascending by")


def test_round_trip_is_bit_exact(tmp_path):
    path = tmp_path / "dump.pred"
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


REFUSALS = tuple(c for c in EXIT_CODES if EXIT_CODES[c] == 6)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_dump_round_trip_and_engraving_on_fixtures(tmp_path, name):
    score = parse_fixture(name).score
    graph = build_graph(score)
    path = tmp_path / f"{name}.pred"
    bundles = [perfect_bundle(score)] + [random_bundle(graph, seed)
                                         for seed in range(40)]
    for k, bundle in enumerate(bundles):
        # signed zeros and subnormals of both signs in every head
        for j, head in enumerate(NODE_HEADS):
            flat = bundle.note_logits[head].reshape(-1)
            flat[(k + j) % flat.size] = (-0.0, 5e-324, -5e-324)[(k + j) % 3]
        bundle.staff_probs = staff_probabilities(bundle.note_logits["staff"])
        write_predictions(path, score, bundle)
        score_back, back = read_predictions(path)
        assert_same_bundle(back, bundle)
        assert score_back.notes == score.notes
        # every array read from the payload (staff_probs is derived)
        for array in (*back.note_logits.values(),
                      back.voice_pairs, back.voice_probs,
                      back.chord_pairs, back.chord_probs):
            assert array.flags.writeable and array.flags.owndata
            assert array.flags.aligned and array.flags.c_contiguous
        try:
            want = export_musicxml(engrave(bundle, score))
        except REFUSALS as exc:
            with pytest.raises(type(exc)):
                engrave_dump(path)
        else:
            assert engrave_dump(path) == want


def test_engrave_dump_matches_direct_engraving(tmp_path):
    result_score = random_score(6, n_notes=8)
    bundle = perfect_bundle(result_score)
    path = tmp_path / "dump.pred"
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
