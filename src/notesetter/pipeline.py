"""Batch plumbing: corpus ingest with manifests, prediction dumps, engraving.

A prediction dump (``<name>.pred``) is written by ``write_predictions`` and
read by ``read_predictions`` and nothing else. Its first line is the meta
record, compact JSON: ``"format": 4``, the piece name, divisions, time
signatures, the (onset, duration, midi) notes and the pair counts
``"pairs": {"voice": m_v, "chord": m_c}``, so downstream steps need no other
input. After the line's ``\n`` come the row-major little-endian bytes of
these arrays, back to back:

* per node head, in ``NODE_HEADS`` order, the (n_notes x width) logits as
  ``<f8``;
* for ``voice``, then ``chord``: the (m, 2) note-id pairs as ``<i8``, then
  the (m,) probabilities as ``<f8``.

The bytes are the values themselves, so every float reads back bit-exactly,
signed zeros and subnormals included. Every size follows from the meta line,
and a payload of any other length is refused. To look at an array by hand,
here the spelling logits, which follow the (n_notes x 2) staff logits::

    with open(path, "rb") as fh:
        meta = json.loads(fh.readline())
        payload = fh.read()
    n = len(meta["notes"])
    spelling = np.frombuffer(payload, "<f8", count=n * 35, offset=8 * n * 2)
    spelling = spelling.reshape(n, 35)  # one row of logits per note

A dump of another format (format 3 held base64 arrays in JSON lines, format
2 JSON number lists, format 1 one record per note) and every malformed dump
are refused with ``MissingInput``.

The manifest records a seeded 80/20 train/test split that depends only on
(seed, piece name), so re-ingesting a grown corpus never moves existing
pieces between splits.
"""

from __future__ import annotations

import itertools
import json
import math
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
PREDICTION_FORMAT = 4
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

def prediction_dump(score: Score, bundle: PredictionBundle) -> bytes:
    """The dump's bytes: the meta line, then every array's raw bytes."""
    pairs = (("voice", bundle.voice_pairs, bundle.voice_probs),
             ("chord", bundle.chord_pairs, bundle.chord_probs))
    meta = {
        "kind": "meta",
        "format": PREDICTION_FORMAT,
        "name": score.name,
        "divisions": score.divisions_per_quarter,
        "time_signatures": [[t.bar_index, t.numerator, t.denominator]
                            for t in score.time_signatures],
        "notes": np.stack([score.onset, score.duration, score.pitch],
                          axis=1).tolist(),
        "pairs": {head: len(ends) for head, ends, _ in pairs},
    }
    arrays = [np.ascontiguousarray(bundle.note_logits[head], "<f8")
              for head in NODE_HEADS]
    for _, ends, probs in pairs:
        arrays += [np.ascontiguousarray(ends, "<i8"),
                   np.ascontiguousarray(probs, "<f8")]
    header = json.dumps(meta, separators=(",", ":")).encode("ascii")
    return b"\n".join([header, b"".join(a.tobytes() for a in arrays)])


def write_predictions(path: Path, score: Score,
                      bundle: PredictionBundle) -> None:
    Path(path).write_bytes(prediction_dump(score, bundle))


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
    end = data.find(b"\n")
    if end < 0:
        raise MissingInput("no newline after the meta line")
    try:
        meta = json.loads(data[:end])
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise MissingInput(f"meta line is not valid JSON ({exc})") from None
    if not isinstance(meta, dict):
        raise MissingInput("meta line is not a JSON object")
    if meta.get("format") != PREDICTION_FORMAT:
        raise MissingInput(f"dump format {meta.get('format')!r} is not "
                           f"{PREDICTION_FORMAT}: written by an older "
                           f"notesetter; re-run predict")
    divisions, sigs, notes = (meta["divisions"], meta["time_signatures"],
                              meta["notes"])
    counts = [meta["pairs"][head] for head in PAIR_HEADS]
    # JSON integers only: a float or a bool would be cast to int silently
    values = itertools.chain((divisions,), counts, *sigs, *notes)
    if not set(map(type, values)) <= {int}:
        raise TypeError("meta divisions, pair counts, time signatures and "
                        "notes must be integers")
    if min(counts) < 0:
        raise MissingInput(f"pair counts {counts} must not be negative")
    score = make_score(divisions, [tuple(t) for t in sigs], notes,
                       name=meta.get("name", default_name))
    n = len(score.onset)

    # (dtype, shape) of every array, in payload order
    layout = [("<f8", (n, HEAD_WIDTHS[head])) for head in NODE_HEADS]
    for m in counts:
        layout += [("<i8", (m, 2)), ("<f8", (m,))]
    want = 8 * sum(math.prod(shape) for _, shape in layout)
    if len(data) - end - 1 != want:
        raise MissingInput(f"payload holds {len(data) - end - 1} bytes, want "
                           f"{want} for {n} notes and {counts[0]} voice / "
                           f"{counts[1]} chord pairs")
    arrays, offset = [], end + 1
    for dtype, shape in layout:
        size = math.prod(shape)
        arrays.append(np.frombuffer(data, dtype, size, offset)
                      .reshape(shape).copy())
        offset += 8 * size
    arrays = iter(arrays)
    note_logits = {head: next(arrays) for head in NODE_HEADS}

    pairs, probs = {}, {}
    for head in PAIR_HEADS:
        pairs[head], probs[head] = next(arrays), next(arrays)

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


def engrave_bytes(score: Score, bundle: PredictionBundle, threshold: float,
                  pair_agg: str) -> bytes:
    """A score and its predictions -> engraved MusicXML bytes."""
    return export_musicxml(engrave(bundle, score, threshold=threshold,
                                   pair_agg=pair_agg))


def engrave_dump(path: Path, threshold: float = DEFAULT_THRESHOLD,
                 pair_agg: str = DEFAULT_PAIR_AGG) -> bytes:
    """Prediction dump file -> engraved MusicXML bytes."""
    return engrave_bytes(*read_predictions(path), threshold, pair_agg)
