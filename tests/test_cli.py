"""Tests for the command line tool: workflows, exit codes, output contracts."""

import base64
import json
import os
import shutil
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

import notesetter
from notesetter import cli
from notesetter.checkpoint import (load_checkpoint, restore_params,
                                  save_checkpoint)
from notesetter.cli import EXIT_CODES, main
from notesetter.config import RunConfig, parse_config_text
from notesetter.model import init_params, predict_bundle
from notesetter.musicxml import parse_musicxml, read_score_file, validate_subset
from notesetter.notes import DEFAULT_SPELLING_BY_PC, spelling_of
from notesetter.pipeline import (PREDICTION_FORMAT, engrave_dump,
                                 load_corpus, load_manifest, prediction_dump,
                                 write_predictions)
from notesetter.postprocess import perfect_bundle
from notesetter.rng import Rng
from notesetter.trainer import evaluate_corpus

from conftest import FIXTURE_DIR, fixture_path
from test_pipeline import dump_parts, join_parts, old_format_dump

TINY = ["--hidden-size", "8", "--layers", "1"]
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
SUBCOMMANDS = ("ingest", "train", "predict", "engrave", "eval", "gradcheck",
               "graph-dump")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def refused_inputs(tmp_path) -> tuple:
    """A malformed document and a well-formed one with only a rest."""
    malformed = tmp_path / "bad.musicxml"
    malformed.write_bytes(b"<score-partwise><oops")
    rests = tmp_path / "rests.musicxml"
    rests.write_bytes(fixture_path("single_whole").read_bytes().replace(
        b"<pitch>\n          <step>C</step>\n          <octave>4</octave>"
        b"\n        </pitch>", b"<rest/>"))
    return malformed, rests


# --- full workflow: ingest -> train -> predict -> engrave -> eval ---


def test_full_workflow(tmp_path, capsys):
    work = tmp_path / "run"

    code, out, err = run(capsys, "ingest", "--in-dir", str(FIXTURE_DIR),
                         "--out-dir", str(work))
    assert code == 0 and err == ""
    assert "ingested 5 pieces (4 train / 1 test)" in out
    manifest = load_manifest(work / "manifest.json")
    assert len(manifest["pieces"]) == 5

    # config.effective re-parses to the effective configuration
    effective = (work / "config.effective").read_text()
    values = parse_config_text(effective)
    assert RunConfig(**values) == RunConfig()
    hash_line = effective.splitlines()[-1]
    assert hash_line.startswith("# config_hash = ")
    assert len(hash_line.split()[-1]) == 12

    code, out, err = run(capsys, "train", "--manifest",
                         str(work / "manifest.json"), "--out-dir", str(work),
                         *TINY, "--epochs", "2")
    assert code == 0 and err == ""
    assert "trained on 4 pieces for 2 epochs" in out
    assert (work / "best.ckpt").is_file()
    assert (work / "metrics.csv").is_file()
    _, meta = load_checkpoint(work / "best.ckpt")
    assert meta["model"]["hidden_size"] == 8

    code, out, err = run(capsys, "predict", "--checkpoint",
                         str(work / "best.ckpt"),
                         str(fixture_path("grace_clip")),
                         "--out-dir", str(work), *TINY)
    assert code == 0 and err == ""
    dump = work / "grace_clip.pred"
    assert dump.is_file()
    first = json.loads(dump.read_bytes().split(b"\n", 1)[0])
    assert first["kind"] == "meta" and first["format"] == 4

    code, out, err = run(capsys, "engrave", str(dump),
                         "--out-dir", str(work))
    assert code == 0 and err == ""
    sheet = work / "grace_clip.musicxml"
    assert sheet.is_file()
    data = sheet.read_bytes()
    validate_subset(data)
    assert len(parse_musicxml(data).score.notes) == 4

    code, out, err = run(capsys, "eval", "--checkpoint",
                         str(work / "best.ckpt"), "--manifest",
                         str(work / "manifest.json"), "--split", "all",
                         "--out-dir", str(work / "eval"), *TINY)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0].startswith("piece")
    assert any(line.startswith("micro") for line in lines)
    assert any(line.startswith("fixture_a") for line in lines)
    payload = json.loads((work / "eval" / "eval.json").read_text())
    assert len(payload["pieces"]) == 5


def test_eval_test_split_only(tmp_path, capsys):
    work = tmp_path / "run"
    assert run(capsys, "ingest", "--in-dir", str(FIXTURE_DIR),
               "--out-dir", str(work))[0] == 0
    assert run(capsys, "train", "--manifest", str(work / "manifest.json"),
               "--out-dir", str(work), *TINY, "--epochs", "1")[0] == 0
    # At seed 0 only grace_clip lands in the test split.
    code, out, err = run(capsys, "eval", "--checkpoint",
                         str(work / "best.ckpt"), "--manifest",
                         str(work / "manifest.json"), *TINY)
    assert code == 0
    assert "grace_clip" in out
    assert "fixture_a" not in out


# --- exit codes and the single-line error contract ---


def test_missing_out_dir_is_bad_config(capsys):
    code, out, err = run(capsys, "ingest", "--in-dir", str(FIXTURE_DIR))
    assert code == 2
    assert err.startswith("ERROR BadConfig: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("size", ["0", "-3"])
def test_nonpositive_hidden_size_is_bad_config(tmp_path, capsys, size):
    code, _, err = run(capsys, "train", "--manifest",
                       str(tmp_path / "manifest.json"), "--out-dir",
                       str(tmp_path), "--hidden-size", size)
    assert code == 2
    assert err == "ERROR BadConfig: hidden_size must be >= 1\n"


def test_missing_input_dir_exit_code(tmp_path, capsys):
    code, _, err = run(capsys, "ingest", "--in-dir",
                       str(tmp_path / "nothing"), "--out-dir",
                       str(tmp_path / "out"))
    assert code == 3
    assert err.startswith("ERROR MissingInput: ")


def test_missing_config_file_exit_code(tmp_path, capsys):
    code, _, err = run(capsys, "ingest", "--in-dir", str(FIXTURE_DIR),
                       "--out-dir", str(tmp_path), "--config",
                       str(tmp_path / "none.cfg"))
    assert code == 2
    assert "ERROR BadConfig" in err


def test_config_file_negative_clip_norm_is_bad_config(tmp_path, capsys):
    # A negative clip norm would flip every gradient; the run is refused
    # before anything is read or written.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("clip_norm = -1\n")
    code, out, err = run(capsys, "train", "--manifest",
                         str(tmp_path / "manifest.json"), "--out-dir",
                         str(tmp_path / "out"), "--config", str(cfg))
    assert code == 2 and out == ""
    assert err == ("ERROR BadConfig: clip_norm -1.0 must be none or finite "
                   "and positive\n")
    assert not (tmp_path / "out").exists()


def test_corrupt_checkpoint_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"XXXX not a checkpoint")
    code, _, err = run(capsys, "eval", "--checkpoint", str(bad),
                       "--manifest", str(tmp_path / "m.json"), *TINY)
    assert code == 4
    assert err.startswith("ERROR BadCheckpoint: ")


def test_malformed_checkpoint_header_exit_code(tmp_path, capsys):
    # valid magic, version and CRC, but a negative shape in the header
    payload = np.zeros(3).tobytes()
    header = json.dumps({"crc32": zlib.crc32(payload), "meta": {},
                         "tensors": [{"name": "w", "shape": [-1, 2]}]})
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"NSET" + struct.pack("<II", 1, len(header))
                    + header.encode() + payload)
    code, out, err = run(capsys, "eval", "--checkpoint", str(bad),
                         "--manifest", str(tmp_path / "m.json"), *TINY)
    assert code == 4 and out == ""
    assert err.startswith("ERROR BadCheckpoint: ") and "[-1, 2]" in err
    assert err.count("\n") == 1


def test_malformed_xml_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.musicxml"
    bad.write_text("<score-partwise><oops>")
    code, _, err = run(capsys, "graph-dump", str(bad))
    assert code == 5
    assert err.startswith("ERROR MalformedXml: ")


def test_int64_overflow_xml_exit_code(tmp_path, capsys):
    # one quarter note at 2**62 divisions per quarter: a 4/4 bar is 2**64
    big = tmp_path / "big.musicxml"
    big.write_text(
        '<score-partwise version="3.1"><part-list><score-part id="P1">'
        "<part-name>Piano</part-name></score-part></part-list>"
        '<part id="P1"><measure number="1"><attributes>'
        f"<divisions>{2**62}</divisions><key><fifths>0</fifths></key>"
        "<time><beats>4</beats><beat-type>4</beat-type></time></attributes>"
        "<note><pitch><step>C</step><octave>4</octave></pitch>"
        f"<duration>{2**62}</duration><voice>1</voice><type>quarter</type>"
        "</note></measure></part></score-partwise>")
    code, _, err = run(capsys, "graph-dump", str(big))
    assert code == 5
    assert err.startswith("ERROR MalformedXml: ")
    assert "64-bit" in err


@pytest.mark.parametrize("divisions,time,clef,category", [
    (2, "4/0", "1", "InconsistentTiming"),
    (1, "4/3", "1", "InconsistentTiming"),
    (2, "4/4", "up", "UnsupportedElement"),
])
def test_reader_refusal_exit_code(tmp_path, capsys, divisions, time, clef,
                                  category):
    beats, beat_type = time.split("/")
    bad = tmp_path / "bad.musicxml"
    bad.write_text(
        '<score-partwise version="3.1"><part-list><score-part id="P1">'
        "<part-name>Piano</part-name></score-part></part-list>"
        '<part id="P1"><measure number="1"><attributes>'
        f"<divisions>{divisions}</divisions><key><fifths>0</fifths></key>"
        f"<time><beats>{beats}</beats><beat-type>{beat_type}</beat-type>"
        f'</time><clef number="{clef}"><sign>G</sign><line>2</line></clef>'
        "</attributes><note><pitch><step>C</step><octave>4</octave></pitch>"
        "<duration>1</duration><voice>1</voice><type>quarter</type>"
        "</note></measure></part></score-partwise>")
    code, out, err = run(capsys, "graph-dump", str(bad))
    assert code == 5 and out == ""
    assert err.startswith(f"ERROR {category}: ")
    assert err.count("\n") == 1


def test_predict_refuses_inputs_sharing_an_output(tmp_path, capsys):
    # both would write x.pred; refused before the checkpoint is read
    inputs = [tmp_path / "a" / "x.musicxml", tmp_path / "b" / "x.xml"]
    for path in inputs:
        path.parent.mkdir()
        shutil.copy(fixture_path("single_whole"), path)
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "predict", "--checkpoint",
                         str(tmp_path / "none.ckpt"), *map(str, inputs),
                         "--out-dir", str(out_dir), *TINY)
    assert code == 3 and out == ""
    assert err == (f"ERROR MissingInput: inputs {inputs[0]} and {inputs[1]} "
                   "would both write x.pred; input stems must be "
                   "unique\n")
    assert not out_dir.exists()


def test_engrave_refuses_inputs_sharing_an_output(tmp_path, capsys):
    score = read_score_file(fixture_path("single_whole")).score
    inputs = [tmp_path / "a" / "x.pred", tmp_path / "b" / "x.pred.jsonl"]
    for path in inputs:
        path.parent.mkdir()
        write_predictions(path, score, perfect_bundle(score))
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "engrave", *map(str, inputs),
                         "--out-dir", str(out_dir))
    assert code == 3 and out == ""
    assert err.startswith("ERROR MissingInput: ")
    assert "would both write x.musicxml" in err
    assert not out_dir.exists()


def test_predict_writes_nothing_when_an_input_is_missing(tmp_path, capsys):
    model = RunConfig(hidden_size=8, num_layers=1).model_config()
    params = init_params(model, Rng(0))
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, {name: p.data for name, p in params.items()},
                    meta={"model": model.shape_dict()})
    missing = tmp_path / "missing.musicxml"
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "predict", "--checkpoint", str(ckpt),
                         str(fixture_path("single_whole")), str(missing),
                         "--out-dir", str(out_dir), *TINY)
    assert code == 3 and out == ""
    assert err == f"ERROR MissingInput: input {missing} does not exist\n"
    assert not out_dir.exists()
    # a later input that cannot be read, a score with no notes and a
    # missing checkpoint are refused before anything is written, too
    malformed, rests = refused_inputs(tmp_path)
    for checkpoint, later, want in (
            (ckpt, malformed, (5, "ERROR MalformedXml: not well-formed")),
            (ckpt, rests, (5, f"ERROR EmptyScore: {rests} has no notes")),
            (missing, rests, (3, f"ERROR MissingInput: input {missing} "
                                 "does not exist"))):
        code, out, err = run(capsys, "predict", "--checkpoint",
                             str(checkpoint),
                             str(fixture_path("single_whole")), str(later),
                             "--out-dir", str(out_dir), *TINY)
        assert (code, out) == (want[0], "")
        assert err.startswith(want[1]) and err.count("\n") == 1
        assert not out_dir.exists()


def test_eval_refuses_a_missing_checkpoint(tmp_path, capsys):
    # a directory is not a checkpoint either
    manifest = tmp_path / "manifest.json"
    assert run(capsys, "ingest", "--in-dir", str(FIXTURE_DIR),
               "--out-dir", str(tmp_path))[0] == 0
    for checkpoint in (tmp_path / "nope.ckpt", tmp_path):
        code, out, err = run(capsys, "eval", "--checkpoint", str(checkpoint),
                             "--manifest", str(manifest), *TINY)
        assert (code, out) == (3, "")
        assert err == (f"ERROR MissingInput: input {checkpoint} does not "
                       "exist\n")


def test_engrave_writes_nothing_when_an_input_is_missing(tmp_path, capsys):
    score = read_score_file(fixture_path("single_whole")).score
    good = tmp_path / "good.pred"
    write_predictions(good, score, perfect_bundle(score))
    missing = tmp_path / "missing.pred"
    # a later dump that exists but is malformed is refused the same way
    malformed = tmp_path / "malformed.pred"
    malformed.write_text('{"kind": "meta"}\n', encoding="utf-8")
    out_dir = tmp_path / "out"
    for later, error in ((missing, f"input {missing} does not exist"),
                         (malformed, f"{malformed}: dump format None is not "
                                     f"{PREDICTION_FORMAT}: written by an "
                                     "older notesetter; re-run predict")):
        code, out, err = run(capsys, "engrave", str(good), str(later),
                             "--out-dir", str(out_dir))
        assert code == 3 and out == ""
        assert err == f"ERROR MissingInput: {error}\n"
        assert not out_dir.exists()


def test_checkpoint_shape_mismatch_exit_code(tmp_path, capsys):
    work = tmp_path / "run"
    assert run(capsys, "ingest", "--in-dir", str(FIXTURE_DIR),
               "--out-dir", str(work))[0] == 0
    assert run(capsys, "train", "--manifest", str(work / "manifest.json"),
               "--out-dir", str(work), *TINY, "--epochs", "1")[0] == 0
    code, _, err = run(capsys, "predict", "--checkpoint",
                       str(work / "best.ckpt"),
                       str(fixture_path("single_whole")),
                       "--out-dir", str(work), "--hidden-size", "16",
                       "--layers", "1")
    assert code == 2
    assert "does not match" in err


def test_predict_and_eval_load_without_drawing_a_model(tmp_path, capsys,
                                                      monkeypatch):
    work = tmp_path / "run"
    assert run(capsys, "ingest", "--in-dir", str(FIXTURE_DIR),
               "--out-dir", str(work))[0] == 0
    assert run(capsys, "train", "--manifest", str(work / "manifest.json"),
               "--out-dir", str(work), *TINY, "--epochs", "1")[0] == 0
    model = RunConfig(hidden_size=8, num_layers=1).model_config()
    p64 = init_params(model, Rng(0))
    restore_params(p64, load_checkpoint(work / "best.ckpt")[0])

    def no_draw(*_):
        raise AssertionError("loading a checkpoint drew a model")

    monkeypatch.setattr(cli, "init_params", no_draw)
    inputs = sorted(FIXTURE_DIR.glob("*.musicxml"))
    code, _, err = run(capsys, "predict", "--checkpoint",
                       str(work / "best.ckpt"), *map(str, inputs),
                       "--out-dir", str(work / "pred"), *TINY)
    assert (code, err) == (0, "") and len(inputs) == 5
    for path in inputs:
        score = read_score_file(path).score
        assert (work / "pred" / f"{path.stem}.pred").read_bytes() == \
            prediction_dump(score, predict_bundle(score, p64, model))

    code, _, err = run(capsys, "eval", "--checkpoint", str(work / "best.ckpt"),
                       "--manifest", str(work / "manifest.json"), "--split",
                       "all", "--out-dir", str(work / "eval"), *TINY)
    assert (code, err) == (0, "")
    corpus = load_corpus(load_manifest(work / "manifest.json"))
    assert (work / "eval" / "eval.json").read_text() == \
        evaluate_corpus(corpus, p64, model).to_json() + "\n"


@pytest.mark.parametrize("defect", ["dropped", "extra", "misshaped"])
def test_checkpoint_tensor_mismatch_exit_code(tmp_path, capsys, defect):
    # the meta matches the configured model; the tensors do not
    model = RunConfig(hidden_size=8, num_layers=1).model_config()
    tensors = {name: p.data for name, p in init_params(model, Rng(0)).items()}
    if defect == "dropped":
        del tensors["enc.l1.gru.ln.b"]
    elif defect == "extra":
        tensors["enc.l2.conv.W0"] = np.zeros((8, 8))
    else:
        tensors["dec.key.W2"] = np.zeros((8, 14))
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, tensors, meta={"model": model.shape_dict()})
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "predict", "--checkpoint", str(ckpt),
                         str(fixture_path("single_whole")),
                         "--out-dir", str(out_dir), *TINY)
    assert (code, out) == (4, "")
    assert err.startswith("ERROR BadCheckpoint: ") and err.count("\n") == 1
    assert not out_dir.exists()


def test_empty_split_exit_code(tmp_path, capsys):
    work = tmp_path / "run"
    # At seed 1 every fixture lands in the train split.
    assert run(capsys, "ingest", "--in-dir", str(FIXTURE_DIR),
               "--out-dir", str(work), "--seed", "1")[0] == 0
    assert run(capsys, "train", "--manifest", str(work / "manifest.json"),
               "--out-dir", str(work), *TINY, "--epochs", "1",
               "--seed", "1")[0] == 0
    code, _, err = run(capsys, "eval", "--checkpoint",
                       str(work / "best.ckpt"), "--manifest",
                       str(work / "manifest.json"), "--split", "test",
                       *TINY, "--seed", "1")
    assert code == 7
    assert err.startswith("ERROR EmptyCorpus: ")


def test_exit_code_table_is_category_complete():
    codes = set(EXIT_CODES.values())
    assert codes == {2, 3, 4, 5, 6, 7}


# --- developer utilities ---


def test_gradcheck_pass(capsys):
    code, out, err = run(capsys, "gradcheck", "--notes", "6", "--entries",
                         "2", *TINY, "--tolerance", "1e-4")
    assert code == 0 and err == ""
    assert "max_error=" in out
    assert "PASS: max relative error" in out
    assert "vs tolerance 1.0e-04" in out


def test_gradcheck_fail_exit_code(capsys):
    # An absurd tolerance cannot be met, so the command reports FAIL.
    code, out, _ = run(capsys, "gradcheck", "--notes", "6", "--entries", "2",
                       *TINY, "--tolerance", "1e-30")
    assert code == 1
    assert "FAIL: max relative error" in out


@pytest.mark.parametrize("flags", [
    ("--notes", "0"),
    ("--entries", "0"),
    ("--entries", "-1"),
    ("--tolerance", "nan"),
    ("--tolerance", "0"),
    ("--tolerance=-1e-4",),
    ("--tolerance", "inf"),
])
def test_gradcheck_bad_flags_are_bad_config(capsys, flags):
    code, out, err = run(capsys, "gradcheck", *TINY, *flags)
    assert code == 2 and out == ""
    assert err.startswith("ERROR BadConfig: ")
    assert err.count("\n") == 1


def test_graph_dump_stdout_is_pure_jsonl(capsys):
    code, out, err = run(capsys, "graph-dump", str(fixture_path("fixture_a")))
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines
    records = [json.loads(line) for line in lines]
    assert all(set(r) == {"relation", "src", "dst"} for r in records)
    relations = {r["relation"] for r in records}
    assert "onset" in relations and "follow_inv" in relations


def test_graph_dump_to_files(tmp_path, capsys):
    code, out, err = run(capsys, "graph-dump", str(fixture_path("fixture_a")),
                         "--out-dir", str(tmp_path))
    assert code == 0
    dump = tmp_path / "fixture_a.graph.jsonl"
    assert dump.is_file()
    assert "coverage" in out.lower() or "Coverage" in out or "missing" in out


def test_graph_dump_writes_nothing_when_an_input_is_missing(tmp_path, capsys):
    # refused before the first input's graph is written, to files or stdout
    missing = tmp_path / "missing.musicxml"
    out_dir = tmp_path / "out"
    inputs = [str(fixture_path("single_whole")), str(missing)]
    code, out, err = run(capsys, "graph-dump", *inputs, "--out-dir", str(out_dir))
    assert code == 3 and out == ""
    assert err == f"ERROR MissingInput: input {missing} does not exist\n"
    assert not out_dir.exists()
    code, out, err = run(capsys, "graph-dump", *inputs)
    assert code == 3 and out == ""
    assert err == f"ERROR MissingInput: input {missing} does not exist\n"
    # so are a later input that cannot be read and a score with no notes
    malformed, rests = refused_inputs(tmp_path)
    for later, want in ((malformed, "ERROR MalformedXml: not well-formed"),
                        (rests, f"ERROR EmptyScore: {rests} has no notes")):
        inputs = [str(fixture_path("single_whole")), str(later)]
        for out_args in (["--out-dir", str(out_dir)], []):
            code, out, err = run(capsys, "graph-dump", *inputs, *out_args)
            assert (code, out) == (5, "")
            assert err.startswith(want) and err.count("\n") == 1
            assert not out_dir.exists()


def test_graph_dump_refuses_inputs_sharing_an_output(tmp_path, capsys):
    # both would write x.graph.jsonl; on stdout the two dumps do not collide
    inputs = [tmp_path / "a" / "x.musicxml", tmp_path / "b" / "x.xml"]
    for path in inputs:
        path.parent.mkdir()
        shutil.copy(fixture_path("single_whole"), path)
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "graph-dump", *map(str, inputs),
                         "--out-dir", str(out_dir))
    assert code == 3 and out == ""
    assert err == (f"ERROR MissingInput: inputs {inputs[0]} and {inputs[1]} "
                   "would both write x.graph.jsonl; input stems must be "
                   "unique\n")
    assert not out_dir.exists()
    code, out, err = run(capsys, "graph-dump", *map(str, inputs))
    assert code == 0 and err == ""
    one = run(capsys, "graph-dump", str(inputs[0]))[1]
    assert out == one + one


def test_strict_flag_reaches_config(tmp_path, capsys):
    code, _, _ = run(capsys, "ingest", "--in-dir", str(FIXTURE_DIR),
                     "--out-dir", str(tmp_path),
                     "--strict-same-bar-candidates")
    assert code == 0
    text = (tmp_path / "config.effective").read_text()
    assert "strict_same_bar_candidates = true" in text


def test_pair_agg_flag_reaches_config_and_engraving(tmp_path, capsys):
    score = read_score_file(fixture_path("fixture_a")).score
    dump = tmp_path / "fixture_a.pred"
    write_predictions(dump, score, perfect_bundle(score))
    out_dir = tmp_path / "out"
    code, _, err = run(capsys, "engrave", str(dump), "--pair-agg", "mean",
                       "--out-dir", str(out_dir))
    assert code == 0 and err == ""
    text = (out_dir / "config.effective").read_text()
    assert "pair_agg = mean" in text.splitlines()
    assert (out_dir / "fixture_a.musicxml").read_bytes() == \
        engrave_dump(dump, pair_agg="mean")


def test_engrave_writes_default_spelling_silently(tmp_path):
    # every spelling logit picks a class of the next pitch class up, so
    # each note is written in its own pitch class's default spelling; run
    # as a process, so that any log record would reach its stderr
    score = read_score_file(fixture_path("fixture_a")).score
    pitch_class = (score.pitch % 12).tolist()
    bundle = perfect_bundle(score)
    logits = np.zeros_like(bundle.note_logits["spelling"])
    for i, pc in enumerate(pitch_class):
        logits[i, spelling_of(*DEFAULT_SPELLING_BY_PC[(pc + 1) % 12])] = 20.0
    bundle.note_logits["spelling"] = logits
    dump = tmp_path / "fixture_a.pred"
    write_predictions(dump, score, bundle)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(notesetter.__file__).resolve().parents[1]),
        env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "notesetter.cli", "engrave", str(dump),
         "--out-dir", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, cwd=tmp_path)
    assert result.returncode == 0 and result.stderr == ""
    written = read_score_file(tmp_path / "out" / "fixture_a.musicxml")
    assert written.score.labels.spelling == tuple(
        spelling_of(*DEFAULT_SPELLING_BY_PC[pc]) for pc in pitch_class)


def _edit_meta(edit):
    """Edit the dump's meta record; the payload stays as written."""
    def apply(data):
        header, payload = data.split(b"\n", 1)
        meta = json.loads(header)
        edit(meta)
        return json.dumps(meta).encode() + b"\n" + payload
    return apply


def _edit_arrays(edit):
    """Edit the dump's arrays, split by name as its meta line sizes them."""
    def apply(data):
        meta, arrays = dump_parts(data)
        edit(arrays)
        return join_parts(meta, arrays)
    return apply


def _payload_as_base64(data):
    header, payload = data.split(b"\n", 1)
    return header + b"\n" + base64.b64encode(payload)


def _as_old_format(version):
    return lambda data: old_format_dump(*dump_parts(data), version)


def _set(name, index, value):
    return _edit_arrays(lambda arrays: arrays[name].__setitem__(index, value))


# A dump is a meta line, then the arrays as raw bytes: nine logits matrices
# (staff, spelling, key, ...), then voice pairs and probabilities, then chord
# pairs and probabilities. Every defect keeps the rest of the dump whole.
DUMP_DEFECTS = {
    "truncated": lambda data: data[:len(data) // 2],
    "payload_one_value_short": lambda data: data[:-8],
    "trailing_bytes": lambda data: data + bytes(8),
    "no_newline_after_meta": lambda data: data.split(b"\n", 1)[0],
    "meta_not_json": lambda data: data[data.index(b"\n") // 2:],
    "meta_not_object": lambda data: b"[4]" + data[data.index(b"\n"):],
    "old_format": _edit_meta(lambda meta: meta.pop("format")),
    "format_2": _as_old_format(2),
    "format_3": _as_old_format(3),
    "missing_head": _edit_arrays(lambda arrays: arrays.pop("key")),
    "duplicate_head": _edit_arrays(
        lambda arrays: arrays.__setitem__("again", arrays["key"])),
    "not_base64": _payload_as_base64,
    "bytes_not_multiple_of_8": _edit_arrays(
        lambda arrays: arrays.__setitem__(
            "voice_probs", arrays["voice_probs"].view(np.uint8)[:-1])),
    "rows_ragged": _edit_arrays(
        lambda arrays: arrays.__setitem__(
            "staff", np.append(arrays["staff"], 0.0))),
    "rows_shape": _edit_arrays(
        lambda arrays: arrays.__setitem__(
            "staff", np.pad(arrays["staff"], ((0, 0), (0, 1))))),
    "logit_nan": _set("spelling", (0, 0), float("nan")),
    "logit_inf": _set("staff", (0, 1), float("inf")),
    "unequal_pair_arrays": _edit_arrays(
        lambda arrays: arrays.__setitem__(
            "voice_probs", arrays["voice_probs"][:-1])),
    "pair_index_outside": _set("voice_pairs", (0, 0), 999),
    "pair_joins_note_to_itself": _edit_arrays(
        lambda arrays: arrays["voice_pairs"].__setitem__(
            (0, 0), arrays["voice_pairs"][0, 1])),
    "probability_outside": _set("voice_probs", 0, 1.5),
    "voice_pairs_unsorted": _edit_arrays(
        lambda arrays: arrays.__setitem__(
            "voice_pairs", arrays["voice_pairs"][::-1])),
    # meta values that are not JSON integers, or not counts
    "divisions_float": _edit_meta(
        lambda meta: meta.__setitem__("divisions", 4.5)),
    "duration_float": _edit_meta(
        lambda meta: meta["notes"][0].__setitem__(1, 4.5)),
    "pitch_bool": _edit_meta(
        lambda meta: meta["notes"][0].__setitem__(2, True)),
    "pair_count_float": _edit_meta(
        lambda meta: meta["pairs"].__setitem__(
            "voice", float(meta["pairs"]["voice"]))),
    "pair_count_negative": _edit_meta(
        lambda meta: meta["pairs"].__setitem__("chord", -1)),
    # a note at onset 10**7 would need 625,000 bars of 4/4 at 4 divisions
    "too_many_bars": _edit_meta(
        lambda meta: meta["notes"][-1].__setitem__(0, 10 ** 7)),
}


@pytest.mark.parametrize("defect", sorted(DUMP_DEFECTS))
def test_malformed_dump_exit_code(tmp_path, capsys, defect):
    score = read_score_file(fixture_path("fixture_a")).score
    dump = tmp_path / "fixture_a.pred"
    write_predictions(dump, score, perfect_bundle(score))
    dump.write_bytes(DUMP_DEFECTS[defect](dump.read_bytes()))
    code, out, err = run(capsys, "engrave", str(dump),
                         "--out-dir", str(tmp_path / "out"))
    assert code == 3
    assert out == ""
    assert err.startswith("ERROR MissingInput: ")
    assert err.count("\n") == 1


def _declared_console_script(name):
    """The `module:attr` entry point that pyproject declares for `name`."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python < 3.11
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"][name]


def test_console_script_help(tmp_path):
    # Runs the declared entry point the way the installed wrapper does, so
    # no install is needed: import the callable, call it, exit with its value.
    module, _, attr = _declared_console_script("notesetter").partition(":")
    wrapper = (f"import sys\n"
               f"from {module} import {attr}\n"
               f"sys.argv[0] = 'notesetter'\n"
               f"sys.exit({attr}())\n")
    package_root = str(Path(notesetter.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", wrapper, "--help"],
                            capture_output=True, text=True, env=env,
                            cwd=tmp_path)
    assert result.returncode == 0
    for sub in SUBCOMMANDS:
        assert sub in result.stdout


@pytest.mark.skipif(shutil.which("notesetter") is None,
                    reason="notesetter console script not installed")
def test_installed_console_script_help():
    result = subprocess.run(["notesetter", "--help"], capture_output=True,
                            text=True)
    assert result.returncode == 0
    for sub in SUBCOMMANDS:
        assert sub in result.stdout
