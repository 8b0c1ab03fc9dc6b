"""Batch plumbing: corpus ingest with manifests, prediction dumps, engraving.

A prediction dump (``<name>.pred.jsonl``) is UTF-8 JSON lines, written by
``write_predictions`` and read by ``read_predictions`` and nothing else:

* a ``meta`` record first: ``"format": 3``, the piece name, divisions, time
  signatures and the (onset, duration, midi) notes, so downstream steps need
  no other input;
* one ``{"kind": "logits", "head": h, "rows": ...}`` per node head, in
  ``NODE_HEADS`` order, an (n_notes x width) matrix;
* one ``{"kind": "pairs", "head": "voice"|"chord", "u": ..., "w": ...,
  "p": ...}`` per pair head: parallel arrays of note ids and probabilities,
  read back as an (m, 2) int64 pair array and an (m,) probability vector.

Each array value is one base64 string of the array's row-major bytes:
little-endian float64 (``<f8``) for ``rows`` and ``p``, little-endian int64
(``<i8``) for ``u`` and ``w``. The bytes are the values themselves, so every
float reads back bit-exactly, signed zeros and subnormals included. To look
at a logits record by hand::

    rec = json.loads(line)
    rows = np.frombuffer(base64.b64decode(rec["rows"]), dtype="<f8")
    rows = rows.reshape(n_notes, -1)  # one row of logits per note

Blank lines and records of other kinds are skipped. A dump of another format
(format 2 wrote the arrays as JSON number lists, format 1 one record per
note) and every malformed dump are refused with ``MissingInput``.

The manifest records a seeded 80/20 train/test split that depends only on
(seed, piece name), so re-ingesting a grown corpus never moves existing
pieces between splits.
"""

from __future__ import annotations

import base64
import itertools
import json
import zlib
from pathlib import Path
from typing import Optional

import numpy as np

from .decoders import (HEAD_WIDTHS, NODE_HEADS, PAIR_HEADS, PredictionBundle,
                       staff_probabilities)
from .musicxml import export_musicxml, read_score_file
from .notes import Score, make_score
from .postprocess import DEFAULT_PAIR_AGG, DEFAULT_THRESHOLD, engrave
from .model import ModelConfig, predict_bundle

MANIFEST_VERSION = 1
PREDICTION_FORMAT = 3
SCORE_SUFFIXES = (".musicxml", ".xml", ".mxl")


class MissingInput(ValueError):
    pass


def split_of(seed: int, name: str) -> str:
    """Seeded, order-independent 80/20 assignment."""
    bucket = zlib.crc32(f"{seed}:{name}".encode("utf-8")) % 100
    return "train" if bucket < 80 else "test"


def find_score_files(in_dir: Path) -> list[Path]:
    in_dir = Path(in_dir)
    if not in_dir.is_dir():
        raise MissingInput(f"corpus directory {in_dir} does not exist")
    files = sorted(p for p in in_dir.rglob("*")
                   if p.is_file() and p.suffix.lower() in SCORE_SUFFIXES)
    if not files:
        raise MissingInput(f"no {'/'.join(SCORE_SUFFIXES)} files under {in_dir}")
    return files


def ingest_corpus(in_dir: Path, seed: int) -> dict:
    """Parse every score under ``in_dir`` into a manifest dictionary."""
    pieces = []
    seen_names = set()
    for path in find_score_files(in_dir):
        result = read_score_file(path)
        name = result.score.name
        if name in seen_names:
            raise MissingInput(
                f"duplicate piece name {name!r} (from {path}); "
                f"file stems must be unique")
        seen_names.add(name)
        pieces.append({
            "name": name,
            "path": str(Path(path).resolve()),
            "split": split_of(seed, name),
            "notes": len(result.score.onset),
            "bars": result.score.num_bars,
            "grace_dropped": result.grace_dropped,
            "clipped_notes": result.clipped_notes,
            "fifteen_mb_mapped": result.fifteen_mb_mapped,
        })
    return {"version": MANIFEST_VERSION, "seed": seed, "pieces": pieces}


def write_manifest(manifest: dict, path: Path) -> None:
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def load_manifest(path: Path) -> dict:
    path = Path(path)
    if not path.is_file():
        raise MissingInput(f"manifest {path} does not exist")
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise MissingInput(f"manifest {path} is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict) or "pieces" not in manifest:
        raise MissingInput(f"manifest {path} lacks a pieces list")
    return manifest


def load_corpus(manifest: dict, split: Optional[str] = None) -> list[Score]:
    """Parse the manifest's pieces (optionally one split) into Scores."""
    scores = []
    for piece in manifest["pieces"]:
        if split is not None and piece["split"] != split:
            continue
        path = Path(piece["path"])
        if not path.is_file():
            raise MissingInput(f"manifest points at missing file {path}")
        result = read_score_file(path)
        scores.append(result.score)
    return scores


# --- prediction dumps ---

def prediction_lines(score: Score, bundle: PredictionBundle) -> list[str]:
    """The dump's records, one JSON text each: meta, logits, then pairs."""
    meta = {
        "kind": "meta",
        "format": PREDICTION_FORMAT,
        "name": score.name,
        "divisions": score.divisions_per_quarter,
        "time_signatures": [[t.bar_index, t.numerator, t.denominator]
                            for t in score.time_signatures],
        "notes": np.stack([score.onset, score.duration, score.pitch],
                          axis=1).tolist(),
    }
    lines = [json.dumps(meta)]
    for head in NODE_HEADS:
        lines.append(json.dumps({"kind": "logits", "head": head,
                                 "rows": _pack(bundle.note_logits[head],
                                               "<f8")}))
    for head, pairs, probs in (
            ("voice", bundle.voice_pairs, bundle.voice_probs),
            ("chord", bundle.chord_pairs, bundle.chord_probs)):
        lines.append(json.dumps({"kind": "pairs", "head": head,
                                 "u": _pack(pairs[:, 0], "<i8"),
                                 "w": _pack(pairs[:, 1], "<i8"),
                                 "p": _pack(probs, "<f8")}))
    return lines


def _pack(array, dtype: str) -> str:
    """An array's row-major bytes as ``dtype``, in base64."""
    data = np.ascontiguousarray(array, dtype=dtype).tobytes()
    return base64.b64encode(data).decode("ascii")


def _unpack(rec: dict, key: str, dtype: str) -> np.ndarray:
    """The flat ``dtype`` array that ``_pack`` wrote as ``rec[key]``."""
    try:
        data = base64.b64decode(rec[key], validate=True)
    except (TypeError, ValueError) as exc:
        raise MissingInput(f"{rec['head']} {key} is not a base64 string "
                           f"({exc})") from None
    if len(data) % 8:
        raise MissingInput(f"{rec['head']} {key} holds {len(data)} bytes, "
                           f"not a multiple of 8")
    return np.frombuffer(data, dtype=dtype).copy()


def write_predictions(path: Path, score: Score,
                      bundle: PredictionBundle) -> None:
    Path(path).write_text("\n".join(prediction_lines(score, bundle)) + "\n",
                          encoding="utf-8")


def read_predictions(path: Path) -> tuple[Score, PredictionBundle]:
    """Parse and check a dump; anything malformed is a MissingInput."""
    path = Path(path)
    if not path.is_file():
        raise MissingInput(f"prediction dump {path} does not exist")
    try:
        return _parse_dump(path.read_bytes(), path.stem)
    except MissingInput as exc:
        raise MissingInput(f"{path}: {exc}") from None
    except (LookupError, TypeError, ValueError, ArithmeticError) as exc:
        raise MissingInput(f"{path}: malformed dump: "
                           f"{type(exc).__name__}: {exc}") from exc


def _parse_dump(data: bytes,
                default_name: str) -> tuple[Score, PredictionBundle]:
    records = []
    for number, line in enumerate(data.splitlines(), 1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise MissingInput(
                f"line {number} is not valid JSON ({exc})") from None
        if not isinstance(rec, dict):
            raise MissingInput(f"line {number} is not a JSON object")
        records.append(rec)
    if not records or records[0].get("kind") != "meta":
        raise MissingInput("first record must be the meta line")
    meta = records[0]
    if meta.get("format") != PREDICTION_FORMAT:
        raise MissingInput(f"dump format {meta.get('format')!r} is not "
                           f"{PREDICTION_FORMAT}: written by an older "
                           f"notesetter; re-run predict")
    divisions, sigs, notes = (meta["divisions"], meta["time_signatures"],
                              meta["notes"])
    # JSON integers only: a float or a bool would be cast to int silently
    values = itertools.chain((divisions,), *sigs, *notes)
    if not set(map(type, values)) <= {int}:
        raise TypeError("meta divisions, time signatures and notes must be "
                        "integers")
    score = make_score(divisions, [tuple(t) for t in sigs], notes,
                       name=meta.get("name", default_name))
    n = len(score.onset)

    by_head: dict[tuple, dict] = {}
    for rec in records[1:]:
        key = (rec.get("kind"), rec.get("head"))
        if key[0] not in ("logits", "pairs"):
            continue
        if key in by_head:
            raise MissingInput(
                f"duplicate {key[0]} record for head {key[1]!r}")
        by_head[key] = rec

    def record(kind: str, head: str) -> dict:
        if (kind, head) not in by_head:
            raise MissingInput(f"no {kind} record for head {head!r}")
        return by_head[kind, head]

    note_logits = {}
    for head in NODE_HEADS:
        width = HEAD_WIDTHS[head]
        logits = _unpack(record("logits", head), "rows", "<f8")
        if logits.size != n * width:
            raise MissingInput(f"{head} logits hold {logits.size} values, "
                               f"want {n * width} for {n} notes of "
                               f"{width} classes")
        note_logits[head] = logits.reshape(n, width)

    pairs, probs = {}, {}
    for head in PAIR_HEADS:
        rec = record("pairs", head)
        u, w = _unpack(rec, "u", "<i8"), _unpack(rec, "w", "<i8")
        p = _unpack(rec, "p", "<f8")
        if not len(u) == len(w) == len(p):
            raise MissingInput(f"{head} pairs: u, w and p have lengths "
                               f"{len(u)}, {len(w)} and {len(p)}")
        ends = np.stack([u, w], axis=1)
        if len(u) and (ends.min() < 0 or ends.max() >= n):
            raise MissingInput(f"{head} pairs: an index is not a note id "
                               f"in [0, {n})")
        if (u == w).any():
            raise MissingInput(f"{head} pairs: a pair joins a note to itself")
        pairs[head] = ends
        probs[head] = p

    # non-finite logits are refused by validate(), without a warning here
    with np.errstate(invalid="ignore"):
        staff_probs = staff_probabilities(note_logits["staff"])
    bundle = PredictionBundle(
        note_logits=note_logits,
        staff_probs=staff_probs,
        voice_pairs=pairs["voice"], voice_probs=probs["voice"],
        chord_pairs=pairs["chord"], chord_probs=probs["chord"])
    bundle.validate()
    return score, bundle


def predict_file(path: Path, params, config: ModelConfig) -> tuple[Score, PredictionBundle]:
    result = read_score_file(path)
    return result.score, predict_bundle(result.score, params, config)


def engrave_dump(path: Path, threshold: float = DEFAULT_THRESHOLD,
                 pair_agg: str = DEFAULT_PAIR_AGG) -> bytes:
    """Prediction dump file -> engraved MusicXML bytes."""
    score, bundle = read_predictions(path)
    engraved = engrave(bundle, score, threshold=threshold, pair_agg=pair_agg)
    return export_musicxml(engraved)
