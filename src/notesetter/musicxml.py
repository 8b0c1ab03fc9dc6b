"""MusicXML 3.1 subset: parse into Score (+labels), serialize EngravedScore.

The subset is a single piano part on a grand staff: partwise documents with
attributes (divisions, key, time, staves, clef), notes (pitch or rest,
duration, voice, type, dots, stem, staff, chord flag, time-modification),
backup/forward, and octave-shift directions. Anything else is rejected with
a diagnostic naming the offending element.

Canonical serialization (what :func:`export_musicxml` emits and the
round-trip and golden-bytes tests freeze): UTF-8 with an XML declaration and
the partwise DOCTYPE, two-space indentation, ``<tag />`` for empty elements,
attributes in the order written, a trailing newline, elements in schema
order, voices emitted in ascending number separated by <backup>, and a
trailing timed pass per measure that walks backup/forward to emit mid-measure
clef changes and octave-shift brackets at their exact tick. Pitches are
sounding pitches; octave-shift brackets are notation only.

The exporter writes this text directly as indented lines (one block per
<note>) and joins them once; ElementTree is used only to parse and validate.
Every text and attribute value it writes is an integer or a word from a fixed
vocabulary (step names, note types, stem and clef signs), so nothing needs
escaping. The text is byte for byte what ElementTree's ``indent`` and
``tostring`` produce for the same elements.
"""

from __future__ import annotations

import dataclasses
import gzip
import logging
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import Optional

from .notes import (ALTER_VALUES, CLEF_F, CLEF_G, DEFAULT_SPELLING_BY_PC,
                    KEY_MAX_FIFTHS, KEY_MIN_FIFTHS, LabelSet, MAX_DOTS,
                    NOTE_TYPE_NAMES, NOTE_TYPE_QUARTERS, STEP_NAMES,
                    STEP_TO_PC, Score, TimeSignature, TUPLET_RATIOS, bar_at,
                    bar_length_div, make_score, spelling_parts, spelling_of,
                    spelling_pitch_class)
from .postprocess import EngravedScore

log = logging.getLogger(__name__)


class MalformedXml(ValueError):
    pass


class UnsupportedElement(ValueError):
    pass


class InconsistentTiming(ValueError):
    pass


class UnrepresentableDuration(ValueError):
    pass


class TooManyVoices(ValueError):
    pass


_CLEF_SIGNS = {"G": 0, "F": 1, "C": 2}
_CLEF_LINES = {0: "2", 1: "4", 2: "3"}
_STEM_TEXT = {0: "up", 1: "down", 2: "none"}
_TEXT_STEM = {v: k for k, v in _STEM_TEXT.items()}
_TYPE_INDEX = {name: i for i, name in enumerate(NOTE_TYPE_NAMES)}

_DOCTYPE = ('<!DOCTYPE score-partwise PUBLIC '
            '"-//Recordare//DTD MusicXML 3.1 Partwise//EN" '
            '"http://www.musicxml.org/dtds/partwise.dtd">')


@dataclasses.dataclass
class ParseResult:
    score: Score
    grace_dropped: int = 0
    clipped_notes: int = 0
    fifteen_mb_mapped: int = 0
    warnings: tuple[str, ...] = ()


# --- small parse helpers ---

def _int_text(elem: ET.Element, context: str) -> int:
    try:
        return int((elem.text or "").strip())
    except ValueError as exc:
        raise MalformedXml(f"{context}: non-integer text {elem.text!r}") from exc


def _child(elem: ET.Element, tag: str) -> Optional[ET.Element]:
    found = elem.findall(tag)
    if len(found) > 1:
        raise UnsupportedElement(f"repeated <{tag}> inside <{elem.tag}>")
    return found[0] if found else None


@dataclasses.dataclass
class _RawNote:
    onset: int
    duration: int
    midi: int
    spelling: int
    staff: int
    voice: int
    stem: int
    note_type: int
    dots: int
    tuplet: int
    measure: int


def parse_musicxml(data: bytes) -> ParseResult:
    """Parse a subset document into a canonical Score with labels."""
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        raise MalformedXml(f"not well-formed XML: {exc}") from exc
    if root.tag != "score-partwise":
        raise UnsupportedElement(f"root element <{root.tag}>")

    parts = []
    for child in root:
        if child.tag == "part-list":
            _check_part_list(child)
        elif child.tag == "part":
            parts.append(child)
        else:
            raise UnsupportedElement(f"<{child.tag}> under <score-partwise>")
    if len(parts) != 1:
        raise UnsupportedElement(f"expected exactly one <part>, found {len(parts)}")

    divisions: Optional[int] = None
    time_sigs: list[TimeSignature] = []
    cur_sig: Optional[TimeSignature] = None
    key_by_bar: dict[int, int] = {}
    cur_key = 0
    bars: list[tuple[int, int]] = []
    clef_events: dict[int, list[tuple[int, int]]] = {0: [], 1: []}
    shift_events: dict[int, list[tuple[int, int, int]]] = {0: [], 1: []}
    raw_notes: list[_RawNote] = []
    units: dict[int, list[tuple[int, list[_RawNote]]]] = {}
    grace_dropped = clipped = fifteen_mb = 0
    warnings: list[str] = []

    measure_onset = 0
    for m_index, measure in enumerate(parts[0]):
        if measure.tag != "measure":
            raise UnsupportedElement(f"<{measure.tag}> under <part>")
        cursor = measure_onset
        bar_len: Optional[int] = None
        last_unit: Optional[list[_RawNote]] = None
        last_unit_dur = 0

        def measure_len() -> int:
            if bar_len is None:
                raise InconsistentTiming(
                    f"measure {m_index + 1}: note before any time signature")
            return bar_len

        if cur_sig is not None and divisions is not None:
            bar_len = bar_length_div(cur_sig.numerator, cur_sig.denominator,
                                     divisions)
        for elem in measure:
            if elem.tag == "attributes":
                for attr in elem:
                    if attr.tag == "divisions":
                        value = _int_text(attr, "divisions")
                        if value <= 0:
                            raise MalformedXml("divisions must be positive")
                        if divisions is not None and value != divisions:
                            raise InconsistentTiming(
                                f"measure {m_index + 1}: divisions changed "
                                f"from {divisions} to {value}")
                        divisions = value
                    elif attr.tag == "key":
                        fifths_elem = _child(attr, "fifths")
                        if fifths_elem is None:
                            raise UnsupportedElement("<key> without <fifths>")
                        cur_key = _int_text(fifths_elem, "fifths")
                        if not KEY_MIN_FIFTHS <= cur_key <= KEY_MAX_FIFTHS:
                            raise UnsupportedElement(
                                f"key fifths {cur_key} outside [-7, 7]")
                    elif attr.tag == "time":
                        beats = _child(attr, "beats")
                        beat_type = _child(attr, "beat-type")
                        if beats is None or beat_type is None:
                            raise UnsupportedElement("<time> missing children")
                        cur_sig = TimeSignature(m_index,
                                                _int_text(beats, "beats"),
                                                _int_text(beat_type, "beat-type"))
                        time_sigs.append(cur_sig)
                        bar_len = None
                    elif attr.tag == "staves":
                        if _int_text(attr, "staves") not in (1, 2):
                            raise UnsupportedElement("staves must be 1 or 2")
                    elif attr.tag == "clef":
                        staff = int(attr.get("number", "1")) - 1
                        if staff not in (0, 1):
                            raise UnsupportedElement("clef number must be 1 or 2")
                        sign = _child(attr, "sign")
                        if sign is None or (sign.text or "").strip() not in _CLEF_SIGNS:
                            raise UnsupportedElement(
                                f"clef sign {getattr(sign, 'text', None)!r}")
                        clef_events[staff].append(
                            (cursor, _CLEF_SIGNS[(sign.text or "").strip()]))
                    else:
                        raise UnsupportedElement(f"<{attr.tag}> under <attributes>")
                if divisions is not None and cur_sig is not None and bar_len is None:
                    bar_len = bar_length_div(cur_sig.numerator,
                                             cur_sig.denominator, divisions)
            elif elem.tag == "note":
                is_grace = _child(elem, "grace") is not None
                if is_grace:
                    grace_dropped += 1
                    continue
                duration_elem = _child(elem, "duration")
                if duration_elem is None:
                    raise InconsistentTiming(
                        f"measure {m_index + 1}: non-grace note without duration")
                duration = _int_text(duration_elem, "duration")
                if duration <= 0:
                    raise InconsistentTiming("note duration must be positive")
                is_chord = _child(elem, "chord") is not None
                rest = _child(elem, "rest") is not None
                end = measure_onset + measure_len()
                if rest:
                    if is_chord:
                        raise UnsupportedElement("<chord> on a rest")
                    cursor += duration
                    if cursor > end:
                        raise InconsistentTiming(
                            f"measure {m_index + 1}: rest overruns the bar")
                    last_unit = None
                    continue
                pitch = _child(elem, "pitch")
                if pitch is None:
                    raise UnsupportedElement("note with neither <pitch> nor <rest>")
                step_elem = _child(pitch, "step")
                octave_elem = _child(pitch, "octave")
                if step_elem is None or octave_elem is None:
                    raise UnsupportedElement("<pitch> missing step or octave")
                step = (step_elem.text or "").strip()
                if step not in STEP_NAMES:
                    raise UnsupportedElement(f"pitch step {step!r}")
                alter_elem = _child(pitch, "alter")
                alter = _int_text(alter_elem, "alter") if alter_elem is not None else 0
                if alter not in ALTER_VALUES:
                    raise UnsupportedElement(f"alter {alter} outside -2..2")
                octave = _int_text(octave_elem, "octave")
                midi = 12 * (octave + 1) + STEP_TO_PC[step] + alter
                if not 0 <= midi <= 127:
                    raise UnsupportedElement(f"pitch outside MIDI range: {midi}")

                type_elem = _child(elem, "type")
                if type_elem is None:
                    raise UnsupportedElement("note without <type>")
                type_text = (type_elem.text or "").strip()
                if type_text not in _TYPE_INDEX:
                    raise UnsupportedElement(f"note type {type_text!r}")
                dots = len(elem.findall("dot"))
                if dots > MAX_DOTS:
                    raise UnsupportedElement(f"{dots} dots exceed the vocabulary")
                voice_elem = _child(elem, "voice")
                voice = _int_text(voice_elem, "voice") if voice_elem is not None else 1
                staff_elem = _child(elem, "staff")
                staff = (_int_text(staff_elem, "staff") if staff_elem is not None
                         else 1) - 1
                if staff not in (0, 1):
                    raise UnsupportedElement("staff must be 1 or 2")
                stem_elem = _child(elem, "stem")
                stem_text = ((stem_elem.text or "").strip()
                             if stem_elem is not None else "none")
                if stem_text not in _TEXT_STEM:
                    raise UnsupportedElement(f"stem {stem_text!r}")
                tuplet = 1
                tmod = _child(elem, "time-modification")
                if tmod is not None:
                    actual = _child(tmod, "actual-notes")
                    normal = _child(tmod, "normal-notes")
                    if actual is None or normal is None:
                        raise UnsupportedElement("<time-modification> missing children")
                    ratio = (_int_text(actual, "actual-notes"),
                             _int_text(normal, "normal-notes"))
                    matches = [k for k, v in TUPLET_RATIOS.items() if v == ratio]
                    if not matches:
                        raise UnsupportedElement(f"tuplet ratio {ratio}")
                    tuplet = matches[0]
                for extra in elem:
                    if extra.tag not in ("grace", "chord", "pitch", "rest",
                                         "duration", "voice", "type", "dot",
                                         "time-modification", "stem", "staff",
                                         "notations"):
                        raise UnsupportedElement(f"<{extra.tag}> under <note>")

                if is_chord:
                    if last_unit is None:
                        raise InconsistentTiming("<chord> with no preceding note")
                    onset = last_unit[0].onset
                    if duration != last_unit_dur:
                        raise InconsistentTiming(
                            "chord members with different durations")
                else:
                    onset = cursor
                    if onset >= end:
                        raise InconsistentTiming(
                            f"measure {m_index + 1}: note at or past measure end")
                    cursor += duration
                    if cursor > end:
                        cursor = end
                clipped_duration = duration
                if onset + duration > end:
                    clipped_duration = end - onset
                    clipped += 1
                raw = _RawNote(onset=onset, duration=clipped_duration,
                               midi=midi, spelling=spelling_of(step, alter),
                               staff=staff, voice=voice,
                               stem=_TEXT_STEM[stem_text],
                               note_type=_TYPE_INDEX[type_text], dots=dots,
                               tuplet=tuplet, measure=m_index)
                if is_chord:
                    last_unit.append(raw)
                else:
                    last_unit = [raw]
                    last_unit_dur = duration
                    units.setdefault(voice, []).append((onset, last_unit))
                raw_notes.append(raw)
            elif elem.tag == "backup":
                dur = _child(elem, "duration")
                if dur is None:
                    raise MalformedXml("<backup> without duration")
                cursor -= _int_text(dur, "backup duration")
                if cursor < measure_onset:
                    raise InconsistentTiming(
                        f"measure {m_index + 1}: backup before measure start")
                last_unit = None
            elif elem.tag == "forward":
                dur = _child(elem, "duration")
                if dur is None:
                    raise MalformedXml("<forward> without duration")
                cursor += _int_text(dur, "forward duration")
                if cursor > measure_onset + measure_len():
                    raise InconsistentTiming(
                        f"measure {m_index + 1}: forward past measure end")
                last_unit = None
            elif elem.tag == "direction":
                dtype = _child(elem, "direction-type")
                if dtype is None:
                    raise UnsupportedElement("<direction> without <direction-type>")
                shift_elem = _child(dtype, "octave-shift")
                if shift_elem is None or len(dtype) != 1:
                    raise UnsupportedElement(
                        "only octave-shift directions are supported")
                staff_elem = _child(elem, "staff")
                staff = (_int_text(staff_elem, "staff") if staff_elem is not None
                         else 1) - 1
                if staff not in (0, 1):
                    raise UnsupportedElement("direction staff must be 1 or 2")
                kind = shift_elem.get("type")
                size = shift_elem.get("size", "8")
                if kind == "stop":
                    shift_events[staff].append((cursor, 0, 0))
                elif kind in ("down", "up") and size in ("8", "15"):
                    if kind == "down":
                        shift = 1 if size == "8" else 3
                    else:
                        shift = 2
                        if size == "15":
                            fifteen_mb += 1
                            warnings.append("15mb bracket mapped to 8vb")
                    shift_events[staff].append((cursor, 1, shift))
                else:
                    raise UnsupportedElement(
                        f"octave-shift type={kind!r} size={size!r}")
            else:
                raise UnsupportedElement(f"<{elem.tag}> under <measure>")

        if divisions is None or cur_sig is None:
            raise InconsistentTiming(
                "first measure must define divisions and time signature")
        if bar_len is None:
            bar_len = bar_length_div(cur_sig.numerator, cur_sig.denominator,
                                     divisions)
        key_by_bar[m_index] = cur_key
        bars.append((measure_onset, bar_len))
        measure_onset += bar_len

    return _assemble(divisions, time_sigs, bars, key_by_bar, clef_events,
                     shift_events, raw_notes, units, grace_dropped, clipped,
                     fifteen_mb, warnings)


def _check_part_list(part_list: ET.Element) -> None:
    for child in part_list:
        if child.tag != "score-part":
            raise UnsupportedElement(f"<{child.tag}> under <part-list>")
        for sub in child:
            if sub.tag != "part-name":
                raise UnsupportedElement(f"<{sub.tag}> under <score-part>")


def _assemble(divisions, time_sigs, bars, key_by_bar, clef_events,
              shift_events, raw_notes, units, grace_dropped, clipped,
              fifteen_mb, warnings) -> ParseResult:
    order = sorted(range(len(raw_notes)),
                   key=lambda i: (raw_notes[i].onset, raw_notes[i].midi,
                                  raw_notes[i].staff, raw_notes[i].voice))
    id_of = {id(raw_notes[k]): new for new, k in enumerate(order)}

    def active_labels(events, default_by_staff):
        """Per-note label from (time, kind, value) events; stops sort first."""
        labels = [0] * len(raw_notes)
        for staff in (0, 1):
            timeline = sorted(events[staff], key=lambda e: (e[0], e[1]))
            staff_notes = sorted(
                (k for k in range(len(raw_notes)) if raw_notes[k].staff == staff),
                key=lambda k: raw_notes[k].onset)
            active = default_by_staff[staff]
            at = 0
            for k in staff_notes:
                while at < len(timeline) and timeline[at][0] <= raw_notes[k].onset:
                    active = timeline[at][2]
                    at += 1
                labels[id_of[id(raw_notes[k])]] = active
        return labels

    clef_labels = active_labels(
        {s: [(t, 1, c) for t, c in clef_events[s]] for s in (0, 1)},
        {0: CLEF_G, 1: CLEF_F})
    shift_labels = active_labels(shift_events, {0: 0, 1: 0})

    voice_edges = set()
    chord_edges = set()
    for voice, unit_list in units.items():
        unit_list = sorted(unit_list, key=lambda u: u[0])
        for (onset_a, _), (onset_b, _) in zip(unit_list, unit_list[1:]):
            if onset_a == onset_b:
                raise InconsistentTiming(
                    f"voice {voice}: two simultaneous chord units")
        for _, unit in unit_list:
            ids = sorted(id_of[id(r)] for r in unit)
            for a in range(len(ids)):
                for b in range(a + 1, len(ids)):
                    chord_edges.add((ids[a], ids[b]))
        for (_, unit_a), (_, unit_b) in zip(unit_list, unit_list[1:]):
            for ra in unit_a:
                for rb in unit_b:
                    voice_edges.add((id_of[id(ra)], id_of[id(rb)]))

    by_new = [raw_notes[k] for k in order]
    labels = LabelSet(
        staff=tuple(r.staff for r in by_new),
        spelling=tuple(r.spelling for r in by_new),
        key_fifths=tuple(key_by_bar[r.measure] for r in by_new),
        stem=tuple(r.stem for r in by_new),
        octave_shift=tuple(shift_labels),
        clef=tuple(clef_labels),
        note_type=tuple(r.note_type for r in by_new),
        dots=tuple(r.dots for r in by_new),
        tuplet=tuple(r.tuplet for r in by_new),
        voice_edges=frozenset(voice_edges),
        chord_edges=frozenset(chord_edges))

    if not time_sigs:
        raise InconsistentTiming("document defines no time signature")
    # already in canonical order, which make_score's stable sort keeps
    try:
        score = make_score(divisions, time_sigs,
                           [(r.onset, r.duration, r.midi) for r in by_new],
                           labels=labels)
    except ValueError as exc:
        raise MalformedXml(str(exc)) from exc
    if score.bars.tolist() != [list(b) for b in bars[:score.num_bars]]:
        raise InconsistentTiming(
            "measure lengths disagree with the time signatures")
    return ParseResult(score=score, grace_dropped=grace_dropped,
                       clipped_notes=clipped, fifteen_mb_mapped=fifteen_mb,
                       warnings=tuple(warnings))


def read_score_file(path) -> ParseResult:
    """Read .musicxml/.xml, or a gzip-compressed .mxl."""
    data = Path(path).read_bytes()
    if data[:2] == b"\x1f\x8b":
        data = gzip.decompress(data)
    elif data[:2] == b"PK":
        raise MalformedXml(
            f"{path}: zip-container .mxl is not supported (gzip only)")
    result = parse_musicxml(data)
    result.score = dataclasses.replace(result.score, name=Path(path).stem)
    return result


# --- export ---

def _written_pitch(midi: int, spelling_cls: int) -> tuple[str, int, int, bool]:
    step_i, alter_i = spelling_parts(spelling_cls)
    coerced = spelling_pitch_class(spelling_cls) != midi % 12
    if coerced:
        step, alter = DEFAULT_SPELLING_BY_PC[midi % 12]
    else:
        step, alter = STEP_NAMES[step_i], ALTER_VALUES[alter_i]
    octave = (midi - STEP_TO_PC[step] - alter) // 12 - 1
    return step, alter, octave, coerced


def _tuplet_marks(engraved: EngravedScore) -> dict[tuple[int, int], list[str]]:
    """(voice, onset) -> tuplet notations ("start"/"stop") for that event."""
    marks: dict[tuple[int, int], list[str]] = {}
    divisions = engraved.score.divisions_per_quarter
    for voice, evs in engraved.voice_events().items():
        run = []
        k = 0
        while k <= len(evs):
            ev = evs[k] if k < len(evs) else None
            if ev is not None and not ev.is_rest and ev.tuplet != 1 and (
                    not run or run[-1].tuplet == ev.tuplet):
                run.append(ev)
                k += 1
                continue
            if run:
                _mark_run(run, divisions, marks)
                run = []
            if ev is None:
                break
            k += 1
    return marks


def _mark_run(run, divisions, marks) -> None:
    """Split one same-ratio run into brackets closing at full group spans."""
    start = 0
    while start < len(run):
        _, normal = TUPLET_RATIOS[run[start].tuplet]
        span = NOTE_TYPE_QUARTERS[run[start].note_type] * divisions * normal
        total = 0
        end = start
        while end < len(run):
            total += run[end].duration_div
            if total >= span:
                break
            end += 1
        end = min(end, len(run) - 1)
        marks.setdefault((run[start].voice, run[start].onset_div), []).append("start")
        marks.setdefault((run[end].voice, run[end].onset_div), []).append("stop")
        start = end + 1


def export_musicxml(engraved: EngravedScore) -> bytes:
    engraved.validate()
    for voice, staff in engraved.voice_staff.items():
        low, high = (1, 4) if staff == 0 else (5, 8)
        if not low <= voice <= high:
            raise TooManyVoices(
                f"voice {voice} does not fit staff {staff + 1} "
                f"(numbers {low}..{high})")
    for ev in engraved.events:
        if not (0 <= ev.note_type < len(NOTE_TYPE_NAMES)
                and 0 <= ev.dots <= MAX_DOTS and ev.tuplet in TUPLET_RATIOS):
            raise UnrepresentableDuration(
                f"event at {ev.onset_div}: type={ev.note_type} "
                f"dots={ev.dots} tuplet={ev.tuplet}")

    score = engraved.score
    bars = score.bars.tolist()
    divisions = score.divisions_per_quarter
    sig_by_bar = {ts.bar_index: ts for ts in score.time_signatures}
    pitch = score.pitch.tolist()
    marks = _tuplet_marks(engraved)
    coerced = 0

    events_by_bar: dict[int, dict[int, list]] = {}
    for ev in engraved.events:
        b = bar_at(bars, ev.onset_div)
        events_by_bar.setdefault(b, {}).setdefault(ev.voice, []).append(ev)

    # timed items: (time, order, bar, builder); stops before clefs before starts
    timed: dict[int, list] = {}
    clef_at_bar_start: dict[tuple[int, int], int] = {}
    for staff, regions in sorted(engraved.clef_regions.items()):
        for start, clef in regions:
            if start == 0:
                continue
            b = bar_at(bars, start)
            if start == bars[b][0]:  # measure-start changes ride in <attributes>
                clef_at_bar_start[(b, staff)] = clef
            else:
                timed.setdefault(b, []).append((start, 1, ("clef", staff, clef)))
    for staff, regions in sorted(engraved.octave_regions.items()):
        for start, end, shift in regions:
            sb = bar_at(bars, start)
            timed.setdefault(sb, []).append((start, 2, ("shift", staff, shift)))
            eb = bar_at(bars, end - 1)  # the bar the region's last tick is in
            timed.setdefault(eb, []).append((end, 0, ("stop", staff, shift)))

    out = ['<?xml version="1.0" encoding="UTF-8"?>', _DOCTYPE,
           '<score-partwise version="3.1">', "  <part-list>",
           '    <score-part id="P1">', "      <part-name>Piano</part-name>",
           "    </score-part>", "  </part-list>", '  <part id="P1">']

    prev_key: Optional[int] = None
    for b in range(len(bars)):
        bar_onset, bar_len = bars[b]
        bar_end = bar_onset + bar_len
        out.append(f'    <measure number="{b + 1}">')

        key_here = engraved.measure_keys[b]
        need_attrs = (b == 0 or key_here != prev_key or b in sig_by_bar
                      or any((b, s) in clef_at_bar_start for s in (0, 1)))
        if need_attrs:
            out.append("      <attributes>")
            if b == 0:
                out.append(f"        <divisions>{divisions}</divisions>")
            if b == 0 or key_here != prev_key:
                out += ["        <key>", f"          <fifths>{key_here}</fifths>",
                        "        </key>"]
            if b in sig_by_bar:
                out += ["        <time>",
                        f"          <beats>{sig_by_bar[b].numerator}</beats>",
                        f"          <beat-type>{sig_by_bar[b].denominator}"
                        "</beat-type>", "        </time>"]
            if b == 0:
                out.append("        <staves>2</staves>")
                for staff in (0, 1):
                    regions = engraved.clef_regions.get(staff)
                    clef_idx = regions[0][1] if regions else (CLEF_G, CLEF_F)[staff]
                    out.append(_clef(staff, clef_idx))
            else:
                for staff in (0, 1):
                    if (b, staff) in clef_at_bar_start:
                        out.append(_clef(staff, clef_at_bar_start[(b, staff)]))
            out.append("      </attributes>")
        prev_key = key_here

        cursor = bar_onset
        voices_here = sorted(events_by_bar.get(b, {}))
        for idx, voice in enumerate(voices_here):
            if idx > 0:
                out.append(_move("backup", cursor - bar_onset))
                cursor = bar_onset
            for ev in sorted(events_by_bar[b][voice], key=lambda e: e.onset_div):
                coerced += _emit_event(out, ev, pitch, engraved.spelling,
                                       marks)
                cursor = ev.offset_div
        if not voices_here:
            out.append(_move("forward", bar_len))
            cursor = bar_end

        for t, _, item in sorted(timed.get(b, [])):
            if t < cursor:
                out.append(_move("backup", cursor - t))
            elif t > cursor:
                out.append(_move("forward", t - cursor))
            cursor = t
            kind, staff, value = item
            if kind == "clef":
                out += ["      <attributes>", _clef(staff, value),
                        "      </attributes>"]
                continue
            xml_type = "stop" if kind == "stop" else "up" if value == 2 else "down"
            size = "15" if value == 3 else "8"
            out += ["      <direction>", "        <direction-type>",
                    f'          <octave-shift type="{xml_type}" size="{size}" />',
                    "        </direction-type>",
                    f"        <staff>{staff + 1}</staff>", "      </direction>"]
        if timed.get(b) and cursor < bar_end:
            out.append(_move("forward", bar_end - cursor))
        out.append("    </measure>")

    if coerced:
        log.warning("export: coerced %d predicted spellings that contradicted "
                    "the sounding pitch class", coerced)

    out += ["  </part>", "</score-partwise>", ""]
    return "\n".join(out).encode("utf-8")


def _clef(staff: int, clef_idx: int) -> str:
    """A <clef> block at <attributes> child depth."""
    return (f'        <clef number="{staff + 1}">\n'
            f"          <sign>{'GFC'[clef_idx]}</sign>\n"
            f"          <line>{_CLEF_LINES[clef_idx]}</line>\n"
            "        </clef>")


def _move(tag: str, duration: int) -> str:
    """A <backup> or <forward> block."""
    return (f"      <{tag}>\n        <duration>{duration}</duration>\n"
            f"      </{tag}>")


def _emit_event(out: list[str], ev, pitch: list[int],
                spelling: tuple[int, ...], marks: dict) -> int:
    """Append one <note> block per chord member (one for a rest)."""
    timing = (f"        <duration>{ev.duration_div}</duration>\n"
              f"        <voice>{ev.voice}</voice>\n"
              f"        <type>{NOTE_TYPE_NAMES[ev.note_type]}</type>\n"
              + "        <dot />\n" * ev.dots)
    staff = f"        <staff>{ev.staff + 1}</staff>\n"
    if ev.is_rest:
        out.append(f"      <note>\n        <rest />\n{timing}{staff}      </note>")
        return 0
    if ev.tuplet != 1:
        actual, normal = TUPLET_RATIOS[ev.tuplet]
        timing += ("        <time-modification>\n"
                   f"          <actual-notes>{actual}</actual-notes>\n"
                   f"          <normal-notes>{normal}</normal-notes>\n"
                   "        </time-modification>\n")
    tail = f"{timing}        <stem>{_STEM_TEXT[ev.stem]}</stem>\n{staff}"
    notations = ""
    if (ev.voice, ev.onset_div) in marks:
        notations = ("        <notations>\n"
                     + "".join(f'          <tuplet type="{kind}" />\n'
                               for kind in marks[(ev.voice, ev.onset_div)])
                     + "        </notations>\n")
    coerced = 0
    # the first member carries the tuplet notations, later ones the chord flag
    opener, closer = "      <note>\n", notations + "      </note>"
    for i in sorted(ev.note_ids, key=pitch.__getitem__):
        step, alter, octave, was_coerced = _written_pitch(pitch[i], spelling[i])
        coerced += was_coerced
        alter_line = f"          <alter>{alter}</alter>\n" if alter else ""
        out.append(f"{opener}        <pitch>\n          <step>{step}</step>\n"
                   f"{alter_line}          <octave>{octave}</octave>\n"
                   f"        </pitch>\n{tail}{closer}")
        opener, closer = "      <note>\n        <chord />\n", "      </note>"
    return coerced


# --- subset validation ---

_NOTE_ORDER = ("grace", "chord", "pitch", "rest", "duration", "voice", "type",
               "dot", "time-modification", "stem", "staff", "notations")


def validate_subset(data: bytes) -> None:
    """Structural check of the emitted subset; raises on any deviation."""
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        raise MalformedXml(str(exc)) from exc
    if root.tag != "score-partwise":
        raise UnsupportedElement(f"root <{root.tag}>")
    seen_parts = 0
    for child in root:
        if child.tag == "part-list":
            _check_part_list(child)
        elif child.tag == "part":
            seen_parts += 1
            for measure in child:
                if measure.tag != "measure":
                    raise UnsupportedElement(f"<{measure.tag}> under <part>")
                _validate_measure(measure)
        else:
            raise UnsupportedElement(f"<{child.tag}> under <score-partwise>")
    if seen_parts != 1:
        raise UnsupportedElement(f"{seen_parts} parts (need exactly 1)")


def _validate_measure(measure: ET.Element) -> None:
    for elem in measure:
        if elem.tag == "attributes":
            last = -1
            order = ("divisions", "key", "time", "staves", "clef")
            for attr in elem:
                if attr.tag not in order:
                    raise UnsupportedElement(f"<{attr.tag}> under <attributes>")
                pos = order.index(attr.tag)
                if pos < last:
                    raise UnsupportedElement("attributes children out of order")
                last = max(last, pos)
                if attr.tag == "clef":
                    sign = _child(attr, "sign")
                    if sign is None or (sign.text or "").strip() not in _CLEF_SIGNS:
                        raise UnsupportedElement("bad clef sign")
        elif elem.tag == "note":
            last = -1
            has_pitch = has_rest = False
            for sub in elem:
                if sub.tag not in _NOTE_ORDER:
                    raise UnsupportedElement(f"<{sub.tag}> under <note>")
                pos = _NOTE_ORDER.index(sub.tag)
                if pos < last and sub.tag != "dot":
                    raise UnsupportedElement("note children out of order")
                last = max(last, pos)
                has_pitch |= sub.tag == "pitch"
                has_rest |= sub.tag == "rest"
            if has_pitch == has_rest:
                raise UnsupportedElement("note needs exactly one of pitch/rest")
            type_elem = _child(elem, "type")
            if type_elem is not None and (
                    type_elem.text or "").strip() not in _TYPE_INDEX:
                raise UnsupportedElement(f"note type {type_elem.text!r}")
            stem = _child(elem, "stem")
            if stem is not None and (stem.text or "").strip() not in _TEXT_STEM:
                raise UnsupportedElement(f"stem {stem.text!r}")
        elif elem.tag in ("backup", "forward"):
            if _child(elem, "duration") is None:
                raise UnsupportedElement(f"<{elem.tag}> without duration")
        elif elem.tag == "direction":
            dtype = _child(elem, "direction-type")
            if dtype is None or len(dtype) != 1 or dtype[0].tag != "octave-shift":
                raise UnsupportedElement("unsupported direction")
            if dtype[0].get("type") not in ("up", "down", "stop"):
                raise UnsupportedElement("bad octave-shift type")
        else:
            raise UnsupportedElement(f"<{elem.tag}> under <measure>")
