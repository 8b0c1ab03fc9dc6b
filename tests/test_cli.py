"""Tests for the command line tool: workflows, exit codes, output contracts."""

import base64
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import notesetter
from notesetter.checkpoint import load_checkpoint
from notesetter.cli import EXIT_CODES, main
from notesetter.config import RunConfig, parse_config_text
from notesetter.decoders import HEAD_WIDTHS
from notesetter.musicxml import parse_musicxml, read_score_file, validate_subset
from notesetter.pipeline import engrave_dump, load_manifest, write_predictions
from notesetter.postprocess import perfect_bundle

from conftest import FIXTURE_DIR, fixture_path

TINY = ["--hidden-size", "8", "--layers", "1"]
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
SUBCOMMANDS = ("ingest", "train", "predict", "engrave", "eval", "gradcheck",
               "graph-dump")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    dump = work / "grace_clip.pred.jsonl"
    assert dump.is_file()
    first = json.loads(dump.read_text().splitlines()[0])
    assert first["kind"] == "meta"

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


def test_corrupt_checkpoint_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"XXXX not a checkpoint")
    code, _, err = run(capsys, "eval", "--checkpoint", str(bad),
                       "--manifest", str(tmp_path / "m.json"), *TINY)
    assert code == 4
    assert err.startswith("ERROR BadCheckpoint: ")


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


def test_strict_flag_reaches_config(tmp_path, capsys):
    code, _, _ = run(capsys, "ingest", "--in-dir", str(FIXTURE_DIR),
                     "--out-dir", str(tmp_path),
                     "--strict-same-bar-candidates")
    assert code == 0
    text = (tmp_path / "config.effective").read_text()
    assert "strict_same_bar_candidates = true" in text


def test_pair_agg_flag_reaches_config_and_engraving(tmp_path, capsys):
    score = read_score_file(fixture_path("fixture_a")).score
    dump = tmp_path / "fixture_a.pred.jsonl"
    write_predictions(dump, score, perfect_bundle(score))
    out_dir = tmp_path / "out"
    code, _, err = run(capsys, "engrave", str(dump), "--pair-agg", "mean",
                       "--out-dir", str(out_dir))
    assert code == 0 and err == ""
    text = (out_dir / "config.effective").read_text()
    assert "pair_agg = mean" in text.splitlines()
    assert (out_dir / "fixture_a.musicxml").read_bytes() == \
        engrave_dump(dump, pair_agg="mean")


def _edit_records(edit):
    """Edit the dump's records as written: arrays are base64 strings."""
    def apply(lines):
        records = [json.loads(line) for line in lines]
        edit(records)
        return [json.dumps(r) for r in records]
    return apply


DTYPES = {"rows": "<f8", "u": "<i8", "w": "<i8", "p": "<f8"}


def _decode_arrays(records):
    """Every base64 array as a JSON list, logits as one list per note."""
    for rec in records[1:]:
        for key, dtype in DTYPES.items():
            if key in rec:
                values = np.frombuffer(base64.b64decode(rec[key]), dtype)
                if key == "rows":
                    values = values.reshape(-1, HEAD_WIDTHS[rec["head"]])
                rec[key] = values.tolist()


def _edit_values(edit):
    """Edit the dump's arrays as lists of numbers, then encode them again,
    flattening the logit rows whatever their lengths."""
    def apply(records):
        _decode_arrays(records)
        edit(records)
        for rec in records[1:]:
            for key, dtype in DTYPES.items():
                if key in rec:
                    values = rec[key]
                    if key == "rows":
                        values = [x for row in values for x in row]
                    rec[key] = base64.b64encode(
                        np.array(values, dtype=dtype).tobytes()).decode()
    return _edit_records(apply)


def _as_format_2(records):
    """What format 2 wrote: the same records with JSON number lists."""
    records[0]["format"] = 2
    _decode_arrays(records)


def _drop_last_byte(rec, key):
    rec[key] = base64.b64encode(base64.b64decode(rec[key])[:-1]).decode()


# A fixture_a dump is meta, nine logits records (staff, spelling, ...),
# voice pairs, chord pairs.
STAFF, SPELLING, VOICE = 1, 2, 10
DUMP_DEFECTS = {
    "truncated": lambda lines: lines[:-1] + [lines[-1][:len(lines[-1]) // 2]],
    "old_format": _edit_records(lambda records: records[0].pop("format")),
    "format_2": _edit_records(_as_format_2),
    "missing_head": _edit_records(lambda records: records.pop(3)),
    "duplicate_head": _edit_records(
        lambda records: records.append(records[3])),
    "not_base64": _edit_records(
        lambda records: records[STAFF].__setitem__("rows", "AAAA!AAA")),
    "bytes_not_multiple_of_8": _edit_records(
        lambda records: _drop_last_byte(records[VOICE], "p")),
    "rows_ragged": _edit_values(
        lambda records: records[STAFF]["rows"][0].append(0.0)),
    "rows_shape": _edit_values(
        lambda records: [row.append(0.0) for row in records[STAFF]["rows"]]),
    "logit_nan": _edit_values(
        lambda records: records[SPELLING]["rows"][0].__setitem__(
            0, float("nan"))),
    "logit_inf": _edit_values(
        lambda records: records[STAFF]["rows"][0].__setitem__(
            1, float("inf"))),
    "unequal_pair_arrays": _edit_values(
        lambda records: records[VOICE]["w"].pop()),
    "pair_index_outside": _edit_values(
        lambda records: records[VOICE]["u"].__setitem__(0, 999)),
    "pair_joins_note_to_itself": _edit_values(
        lambda records: records[VOICE]["u"].__setitem__(
            0, records[VOICE]["w"][0])),
    "probability_outside": _edit_values(
        lambda records: records[VOICE]["p"].__setitem__(0, 1.5)),
    # meta values that are not JSON integers
    "divisions_float": _edit_records(
        lambda records: records[0].__setitem__("divisions", 4.5)),
    "duration_float": _edit_records(
        lambda records: records[0]["notes"][0].__setitem__(1, 4.5)),
    "pitch_bool": _edit_records(
        lambda records: records[0]["notes"][0].__setitem__(2, True)),
    # a note at onset 10**7 would need 625,000 bars of 4/4 at 4 divisions
    "too_many_bars": _edit_records(
        lambda records: records[0]["notes"][-1].__setitem__(0, 10 ** 7)),
}


@pytest.mark.parametrize("defect", sorted(DUMP_DEFECTS))
def test_malformed_dump_exit_code(tmp_path, capsys, defect):
    score = read_score_file(fixture_path("fixture_a")).score
    dump = tmp_path / "fixture_a.pred.jsonl"
    write_predictions(dump, score, perfect_bundle(score))
    lines = dump.read_text().splitlines()
    heads = [json.loads(line).get("head") for line in lines]
    assert [heads[i] for i in (STAFF, SPELLING, VOICE)] == [
        "staff", "spelling", "voice"]
    dump.write_text("\n".join(DUMP_DEFECTS[defect](lines)) + "\n")
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
