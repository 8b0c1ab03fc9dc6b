"""MusicXML 3.1 subset: parse into Score (+labels), serialize EngravedScore.

The subset is a single piano part on a grand staff: partwise documents with
attributes (divisions, key, time, staves, clef), notes (pitch or rest,
duration, voice, type, dots, stem, staff, chord flag, time-modification),
backup/forward, and octave-shift directions. Anything else is rejected with
a diagnostic naming the offending element.

The table ``_SUBSET`` is the one definition of the subset's structure: for
each element that holds children, its allowed children in schema order and
how often each may occur. The reader (which :func:`validate_subset` is,
with its result dropped) checks every element against its row as it enters
it, refuses text inside the elements ``_EMPTY`` declares empty, and checks
the words and numbers it reads. It walks the measures once,
checks rests and grace notes before it skips them, and appends one int row
per note (onset, duration, midi, staff, voice, spelling, stem, type, dots,
tuplet, measure); a chord unit is a list of row indices. ``_assemble``
numbers the notes with one sort by (onset, midi, staff, voice), reads each
note's clef and octave-shift label off its staff's sorted events with one
binary search, and hands the columns to ``make_score``.

Canonical serialization (what :func:`export_musicxml` emits and the
round-trip and golden-bytes tests freeze): UTF-8 with an XML declaration and
the partwise DOCTYPE, two-space indentation, ``<tag />`` for empty elements,
attributes in the order written, a trailing newline, elements in schema
order, voices emitted in ascending number separated by <backup>, and a
trailing timed pass per measure that walks backup/forward to emit mid-measure
clef changes and octave-shift brackets at their exact tick. Pitches are
sounding pitches; octave-shift brackets are notation only. Each note is
written with the spelling the engraved score gives it, which
``EngravedScore`` guarantees sounds the note's pitch class.

The exporter writes this text directly as indented lines (one block per
<note>) and joins them once; ElementTree is used only to parse and validate.
Every text and attribute value it writes is an integer or a word from a fixed
vocabulary (step names, note types, stem and clef signs), so nothing needs
escaping. The text is byte for byte what ElementTree's ``indent`` and
``tostring`` produce for the same elements.

Within one call the exporter writes each distinct fragment once and then
looks it up: the <pitch> block of each (spelling class, MIDI pitch), and
the rest of each note's block (or a rest's whole block) for each (duration,
voice, type, dots, tuplet, stem, staff, rest or not). A fragment's text is a
function of its key alone, and the engraved rows hold ints, which print by
value, so a lookup gives the bytes a fresh build would. The memos belong to
the call, so nothing carries over from one export to the next.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import itertools
import math
import operator
import xml.etree.ElementTree as ET
from operator import itemgetter
from pathlib import Path
from typing import Optional

import numpy as np

from .notes import (ALTER_VALUES, CLEF_C, CLEF_F, CLEF_G, KEY_FIFTHS,
                    LabelSet, MAX_DOTS, NOTE_TYPE_NAMES, NOTE_TYPE_QUARTERS,
                    STEP_NAMES, STEP_TO_PC, Score, TimeSignature,
                    TUPLET_RATIOS, _int64, bar_at, bar_length_div, make_score,
                    spelling_of, spelling_parts)
from .postprocess import EngravedScore


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


# each clef class's (sign, line) and each octave-shift class's (type, size);
# the writer looks a class up, the reader inverts the table
_CLEFS = {CLEF_G: ("G", "2"), CLEF_F: ("F", "4"), CLEF_C: ("C", "3")}
_CLEF_SIGNS = {sign: (clef, line) for clef, (sign, line) in _CLEFS.items()}
_SHIFTS = {1: ("down", "8"), 2: ("up", "8"), 3: ("down", "15")}
_SHIFT_CLASS = {words: shift for shift, words in _SHIFTS.items()}
_STEM_TEXT = {0: "up", 1: "down", 2: "none"}
_TEXT_STEM = {v: k for k, v in _STEM_TEXT.items()}
_TYPE_INDEX = {name: i for i, name in enumerate(NOTE_TYPE_NAMES)}
_RATIO_TUPLET = {ratio: tuplet for tuplet, ratio in TUPLET_RATIOS.items()}

# The subset: each element that holds child elements, with its allowed
# children in MusicXML 3.1 schema order. A bare tag occurs exactly once,
# "tag?" at most once, "tag*" any number of times in its place, and "tag~"
# any number of times anywhere (it is not held to the order itself, but the
# tags after it are). An element without a row holds no child elements.
_SUBSET = {
    "score-partwise": "part-list? part*",
    "part-list": "score-part*",
    "score-part": "part-name?",
    "part": "measure*",
    "measure": "attributes~ note~ backup~ forward~ direction~",
    "attributes": "divisions* key* time* staves* clef*",
    "key": "fifths mode?",
    "time": "beats beat-type",
    "clef": "sign line?",
    "note": "grace? chord? pitch? rest? duration? voice? type? dot~ "
            "time-modification? stem? staff? notations*",
    "pitch": "step alter? octave",
    "time-modification": "actual-notes normal-notes",
    "notations": "tied~ tuplet~",
    "direction": "direction-type staff?",
    "direction-type": "octave-shift",
    "backup": "duration?",
    "forward": "duration?",
}
# the elements of the subset that hold neither children nor text
_EMPTY = frozenset({"grace", "chord", "rest", "dot", "tied", "tuplet",
                    "octave-shift"})


def _row(row: str) -> tuple[dict[str, tuple[int, str, bool]], list[str]]:
    """A ``_SUBSET`` row as {child tag: (schema position, mark, whether the
    child has no row)}, where a bare tag's mark is "1", and its bare tags."""
    rules = {}
    for pos, spec in enumerate(row.split()):
        tag = spec.rstrip("?*~")
        rules[tag] = (pos, spec[len(tag):] or "1", tag not in _SUBSET)
    return rules, [tag for tag, (_, mark, _) in rules.items() if mark == "1"]


_ROWS = {parent: _row(row) for parent, row in _SUBSET.items()}

_DOCTYPE = ('<!DOCTYPE score-partwise PUBLIC '
            '"-//Recordare//DTD MusicXML 3.1 Partwise//EN" '
            '"http://www.musicxml.org/dtds/partwise.dtd">')


@dataclasses.dataclass
class ParseResult:
    score: Score
    grace_dropped: int = 0
    clipped_notes: int = 0
    fifteen_mb_mapped: int = 0


# --- small parse helpers ---

def _int_text(elem: ET.Element, context: str) -> int:
    try:
        return int((elem.text or "").strip())
    except ValueError as exc:
        raise MalformedXml(f"{context}: non-integer text {elem.text!r}") from exc


def _children(elem: ET.Element) -> dict[str, ET.Element]:
    """``elem``'s children by tag (the last of a repeated one), checked
    against its ``_SUBSET`` row: an unknown tag, a tag out of order, a
    repeat its mark does not allow, a missing required child, a child
    element under a child without a row and text that is not blank inside
    an ``_EMPTY`` child are refused."""
    rules, required = _ROWS[elem.tag]
    found: dict[str, ET.Element] = {}
    last = -1
    for sub in elem:
        if sub.tag not in rules:
            raise UnsupportedElement(f"<{sub.tag}> under <{elem.tag}>")
        pos, mark, leaf = rules[sub.tag]
        if mark in "1?" and sub.tag in found:
            raise UnsupportedElement(f"repeated <{sub.tag}> inside <{elem.tag}>")
        if pos < last and mark != "~":
            raise UnsupportedElement(f"{elem.tag} children out of order")
        if leaf and len(sub):
            raise UnsupportedElement(f"<{sub[0].tag}> under <{sub.tag}>")
        if sub.tag in _EMPTY and sub.text and sub.text.strip():
            raise UnsupportedElement(f"text {sub.text.strip()!r} inside "
                                     f"<{sub.tag}>")
        last = max(last, pos)
        found[sub.tag] = sub
    for tag in required:
        if tag not in found:
            raise UnsupportedElement(f"<{elem.tag}> without <{tag}>")
    return found


def _word(elem: Optional[ET.Element], default=None) -> Optional[str]:
    """The stripped text of ``elem``, or ``default`` when it is absent."""
    return default if elem is None else (elem.text or "").strip()


def _staff(staff_elem: Optional[ET.Element], what: str) -> int:
    """0-based staff of a <note>'s or <direction>'s <staff>; 1 if absent."""
    staff = (_int_text(staff_elem, "staff") if staff_elem is not None
             else 1) - 1
    if staff not in (0, 1):
        raise UnsupportedElement(f"{what} must be 1 or 2")
    return staff


def parse_musicxml(data: bytes) -> ParseResult:
    """Parse a subset document into a canonical Score with labels."""
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        raise MalformedXml(f"not well-formed XML: {exc}") from exc
    if root.tag != "score-partwise":
        raise UnsupportedElement(f"root element <{root.tag}>")
    _children(root)
    for elem in root.findall("part-list") + root.findall("part-list/score-part"):
        _children(elem)
    parts = root.findall("part")
    if len(parts) != 1:
        raise UnsupportedElement(f"expected exactly one <part>, found {len(parts)}")

    divisions: Optional[int] = None
    time_sigs: list[TimeSignature] = []
    cur_sig: Optional[TimeSignature] = None
    bar_len: Optional[int] = None
    keys: list[int] = []  # key fifths of each measure
    cur_key = 0
    bars: list[tuple[int, int]] = []
    # (time, kind, value) per staff; kind 0 is an octave-shift stop
    clef_events: tuple[list, list] = ([], [])
    shift_events: tuple[list, list] = ([], [])
    rows: list[tuple[int, ...]] = []  # one (onset, ..., measure) row per note
    units: dict[int, list[tuple[int, list[int]]]] = {}  # voice -> (onset, rows)
    grace_dropped = clipped = fifteen_mb = 0

    def measure_end() -> int:
        if bar_len is None:
            raise InconsistentTiming(
                f"measure {m_index + 1}: note before any time signature")
        return measure_onset + bar_len

    measure_onset = 0
    _children(parts[0])
    for m_index, measure in enumerate(parts[0]):
        _children(measure)
        cursor = measure_onset
        last_unit: Optional[list[int]] = None
        last_unit_dur = 0

        for elem in measure:
            if elem.tag == "attributes":
                _children(elem)
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
                        cur_key = _int_text(_children(attr)["fifths"], "fifths")
                        if cur_key not in KEY_FIFTHS:
                            raise UnsupportedElement(
                                f"key fifths {cur_key} not in {KEY_FIFTHS}")
                    elif attr.tag == "time":
                        sig = _children(attr)
                        cur_sig = TimeSignature(
                            m_index, _int_text(sig["beats"], "beats"),
                            _int_text(sig["beat-type"], "beat-type"))
                        if cur_sig.numerator <= 0 or cur_sig.denominator <= 0:
                            raise InconsistentTiming(
                                f"measure {m_index + 1}: time signature "
                                f"{cur_sig.numerator}/{cur_sig.denominator} "
                                "is not positive")
                        time_sigs.append(cur_sig)
                    elif attr.tag == "staves":
                        if _int_text(attr, "staves") not in (1, 2):
                            raise UnsupportedElement("staves must be 1 or 2")
                    else:  # clef
                        try:
                            staff = int(attr.get("number", "1")) - 1
                        except ValueError:
                            staff = None
                        if staff not in (0, 1):
                            raise UnsupportedElement("clef number must be 1 or 2")
                        clef = _children(attr)
                        sign = _word(clef["sign"])
                        if sign not in _CLEF_SIGNS:
                            raise UnsupportedElement(f"clef sign {sign!r}")
                        clef_idx, line = _CLEF_SIGNS[sign]
                        if _word(clef.get("line"), line) != line:
                            raise UnsupportedElement(f"clef {sign} off line {line}")
                        clef_events[staff].append((cursor, 1, clef_idx))
                # divisions and the time signature change only in here
                if divisions is not None and cur_sig is not None:
                    try:
                        bar_len = bar_length_div(cur_sig.numerator,
                                                 cur_sig.denominator, divisions)
                    except ValueError as exc:
                        raise InconsistentTiming(
                            f"measure {m_index + 1}: {exc}") from exc
            elif elem.tag == "note":
                # grace notes and rests are checked before they are skipped
                children = _children(elem)
                if ("pitch" in children) == ("rest" in children):
                    raise UnsupportedElement(
                        "note needs exactly one of pitch/rest")
                type_text = _word(children.get("type"))
                if type_text is not None and type_text not in _TYPE_INDEX:
                    raise UnsupportedElement(f"note type {type_text!r}")
                stem_text = _word(children.get("stem"), "none")
                if stem_text not in _TEXT_STEM:
                    raise UnsupportedElement(f"stem {stem_text!r}")
                voice = _int_text(children["voice"], "voice") if "voice" in children else 1
                if not 0 < voice < 2 ** 63:
                    raise MalformedXml(f"voice {voice} is not a positive 64-bit integer")
                staff = _staff(children.get("staff"), "staff")
                dots = len(elem.findall("dot")) if "dot" in children else 0
                if dots > MAX_DOTS:
                    raise UnsupportedElement(f"{dots} dots exceed the vocabulary")
                tuplet = 1
                if "time-modification" in children:
                    tmod = _children(children["time-modification"])
                    ratio = (_int_text(tmod["actual-notes"], "actual-notes"),
                             _int_text(tmod["normal-notes"], "normal-notes"))
                    if ratio not in _RATIO_TUPLET:
                        raise UnsupportedElement(f"tuplet ratio {ratio}")
                    tuplet = _RATIO_TUPLET[ratio]
                if "notations" in children:
                    for notations in elem.iterfind("notations"):
                        _children(notations)
                pitch = children.get("pitch")
                if pitch is not None:
                    pitch = _children(pitch)
                    step = _word(pitch["step"])
                    if step not in STEP_NAMES:
                        raise UnsupportedElement(f"pitch step {step!r}")
                    alter = (_int_text(pitch["alter"], "alter")
                             if "alter" in pitch else 0)
                    if alter not in ALTER_VALUES:
                        raise UnsupportedElement(f"alter {alter} outside -2..2")
                    midi = (12 * (_int_text(pitch["octave"], "octave") + 1)
                            + STEP_TO_PC[step] + alter)
                    if not 0 <= midi <= 127:
                        raise UnsupportedElement(
                            f"pitch outside MIDI range: {midi}")
                if "grace" in children:
                    grace_dropped += 1
                    continue
                duration_elem = children.get("duration")
                if duration_elem is None:
                    raise InconsistentTiming(
                        f"measure {m_index + 1}: non-grace note without duration")
                duration = _int_text(duration_elem, "duration")
                if duration <= 0:
                    raise InconsistentTiming("note duration must be positive")
                is_chord = "chord" in children
                end = measure_end()
                if pitch is None:
                    if is_chord:
                        raise UnsupportedElement("<chord> on a rest")
                    cursor += duration
                    if cursor > end:
                        raise InconsistentTiming(
                            f"measure {m_index + 1}: rest overruns the bar")
                    last_unit = None
                    continue
                if type_text is None:
                    raise UnsupportedElement("note without <type>")

                if is_chord:
                    if last_unit is None:
                        raise InconsistentTiming("<chord> with no preceding note")
                    onset = rows[last_unit[0]][0]
                    if duration != last_unit_dur:
                        raise InconsistentTiming(
                            "chord members with different durations")
                    last_unit.append(len(rows))
                else:
                    onset = cursor
                    if onset >= end:
                        raise InconsistentTiming(
                            f"measure {m_index + 1}: note at or past measure end")
                    cursor = min(cursor + duration, end)
                    last_unit = [len(rows)]
                    last_unit_dur = duration
                    units.setdefault(voice, []).append((onset, last_unit))
                clipped_duration = min(duration, end - onset)
                if clipped_duration < duration:
                    clipped += 1
                rows.append((onset, clipped_duration, midi, staff, voice,
                             spelling_of(step, alter), _TEXT_STEM[stem_text],
                             _TYPE_INDEX[type_text], dots, tuplet, m_index))
            elif elem.tag in ("backup", "forward"):
                dur = _children(elem).get("duration")
                if dur is None:
                    raise MalformedXml(f"<{elem.tag}> without duration")
                move = _int_text(dur, f"{elem.tag} duration")
                cursor += -move if elem.tag == "backup" else move
                if not measure_onset <= cursor <= measure_end():
                    raise InconsistentTiming(
                        f"measure {m_index + 1}: {elem.tag} leaves the measure")
                last_unit = None
            else:  # direction
                direction = _children(elem)
                shift_elem = _children(direction["direction-type"])["octave-shift"]
                staff = _staff(direction.get("staff"), "direction staff")
                kind = shift_elem.get("type")
                size = shift_elem.get("size", "8")
                if (kind, size) == ("up", "15"):  # a 15mb is read as an 8vb
                    fifteen_mb += 1
                    size = "8"
                if kind == "stop":
                    shift_events[staff].append((cursor, 0, 0))
                elif (kind, size) in _SHIFT_CLASS:
                    shift_events[staff].append(
                        (cursor, 1, _SHIFT_CLASS[kind, size]))
                else:
                    raise UnsupportedElement(
                        f"octave-shift type={kind!r} size={size!r}")

        if bar_len is None:
            raise InconsistentTiming(
                "first measure must define divisions and time signature")
        keys.append(cur_key)
        bars.append((measure_onset, bar_len))
        measure_onset += bar_len

    score = _assemble(divisions, time_sigs, bars, keys, clef_events,
                      shift_events, rows, units)
    return ParseResult(score=score, grace_dropped=grace_dropped,
                       clipped_notes=clipped, fifteen_mb_mapped=fifteen_mb)


def _assemble(divisions, time_sigs, bars, keys, clef_events, shift_events,
              rows, units) -> Score:
    """The Score of the parsed rows, numbered in (onset, midi, staff, voice)
    order, with its labels."""
    for voice, unit_list in units.items():
        unit_list.sort(key=itemgetter(0))
        for (onset_a, _), (onset_b, _) in zip(unit_list, unit_list[1:]):
            if onset_a == onset_b:
                raise InconsistentTiming(
                    f"voice {voice}: two simultaneous chord units")
    if not time_sigs:
        raise InconsistentTiming("document defines no time signature")

    try:
        cols = _int64(rows, "note values").reshape(-1, 11)
    except ValueError as exc:
        raise MalformedXml(str(exc)) from exc
    order = np.lexsort(cols[:, [4, 3, 2, 0]].T)  # onset, midi, staff, voice
    cols = cols[order]
    rank = np.argsort(order).tolist()  # each row's note id
    voice_edges = set()
    chord_edges = set()
    for unit_list in units.values():
        for _, unit in unit_list:
            chord_edges.update(itertools.combinations(
                sorted(rank[r] for r in unit), 2))
        for (_, unit_a), (_, unit_b) in zip(unit_list, unit_list[1:]):
            voice_edges.update((rank[a], rank[b])
                               for a in unit_a for b in unit_b)

    (_, _, _, staff, _, spelling, stem, note_type, dots, tuplet,
     measure) = cols.T.tolist()
    labels = LabelSet(
        staff=tuple(staff), spelling=tuple(spelling),
        key_fifths=tuple(keys[m] for m in measure), stem=tuple(stem),
        octave_shift=_active(shift_events, cols, (0, 0)),
        clef=_active(clef_events, cols, (CLEF_G, CLEF_F)),
        note_type=tuple(note_type), dots=tuple(dots), tuplet=tuple(tuplet),
        voice_edges=frozenset(voice_edges),
        chord_edges=frozenset(chord_edges))
    # already in canonical order, which make_score's stable sort keeps
    try:
        score = make_score(divisions, time_sigs, cols[:, :3], labels=labels)
    except ValueError as exc:
        raise MalformedXml(str(exc)) from exc
    if score.bars.tolist() != [list(b) for b in bars[:score.num_bars]]:
        raise InconsistentTiming(
            "measure lengths disagree with the time signatures")
    return score


def _active(events, cols, defaults) -> tuple[int, ...]:
    """Each note's value of the last of its staff's (time, kind, value)
    events at or before its onset, or the staff's default. Events sort by
    (time, kind), so at one time an octave-shift stop yields to a start."""
    onset, staff = cols[:, 0], cols[:, 3]
    labels = np.empty_like(onset)
    for s, default in enumerate(defaults):
        timeline = sorted(events[s], key=itemgetter(0, 1))
        values = np.array([default] + [v for _, _, v in timeline])
        on_staff = staff == s
        labels[on_staff] = values[np.searchsorted(
            [t for t, _, _ in timeline], onset[on_staff], side="right")]
    return tuple(labels.tolist())


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

def _tuplet_marks(events, divisions: int) -> dict[tuple[int, int], list[str]]:
    """(voice, onset) -> tuplet notations ("start"/"stop") for that event.
    ``events`` come in (voice, onset) order. A run of tuplet chords of one
    ratio ends at its voice's end or at any other event; a tuplet chord of
    another ratio starts the next run."""
    marks: dict[tuple[int, int], list[str]] = {}
    run = []
    for ev in events:
        if run and (ev.voice != run[-1].voice or ev.is_rest
                    or ev.tuplet != run[-1].tuplet):
            _mark_run(run, divisions, marks)
            run = []
        if not ev.is_rest and ev.tuplet != 1:
            run.append(ev)
    if run:
        _mark_run(run, divisions, marks)
    return marks


@functools.lru_cache(maxsize=64)
def _bracket_span(note_type: int, tuplet: int, divisions: int) -> int:
    """The divisions a bracket opened by a (note_type, tuplet) chord must
    fill before it closes: ``normal`` notes of that type, rounded up, so an
    int total reaches it exactly when it reaches the unrounded span."""
    _, normal = TUPLET_RATIOS[tuplet]
    return math.ceil(NOTE_TYPE_QUARTERS[note_type] * divisions * normal)


def _mark_run(run, divisions, marks) -> None:
    """Split one same-ratio run into brackets closing at full group spans."""
    start = 0
    while start < len(run):
        span = _bracket_span(run[start].note_type, run[start].tuplet,
                             divisions)
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
    events, columns = engraved.timeline()
    marks = _tuplet_marks(events, divisions)

    # the events in (bar, voice, onset) order (the sort is stable), cut into
    # runs of one (bar, voice); bar b's runs are ``bar_runs[b]:bar_runs[b+1]``
    voice, onset, duration, bar = columns
    order = np.lexsort((voice, bar))
    voice, bar = voice[order], bar[order]
    new_run = np.ones(len(order), dtype=bool)
    new_run[1:] = (voice[1:] != voice[:-1]) | (bar[1:] != bar[:-1])
    cuts = np.flatnonzero(new_run)
    bar_runs = np.searchsorted(bar[cuts], np.arange(len(bars) + 1)).tolist()
    cuts = cuts.tolist() + [len(order)]
    offsets = (onset + duration)[order].tolist()
    texts = _event_texts(list(map(events.__getitem__, order.tolist())),
                         score.pitch.tolist(), engraved.spelling, marks)

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
        first_run, end_run = bar_runs[b], bar_runs[b + 1]
        for r in range(first_run, end_run):
            if r > first_run:
                out.append(_move("backup", cursor - bar_onset))
            out += texts[cuts[r]:cuts[r + 1]]
            cursor = offsets[cuts[r + 1] - 1]
        if first_run == end_run:
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
            xml_type, size = _SHIFTS[value]
            if kind == "stop":
                xml_type = "stop"
            out += ["      <direction>", "        <direction-type>",
                    f'          <octave-shift type="{xml_type}" size="{size}" />',
                    "        </direction-type>",
                    f"        <staff>{staff + 1}</staff>", "      </direction>"]
        if timed.get(b) and cursor < bar_end:
            out.append(_move("forward", bar_end - cursor))
        out.append("    </measure>")

    out += ["  </part>", "</score-partwise>", ""]
    return "\n".join(out).encode("utf-8")


def _clef(staff: int, clef_idx: int) -> str:
    """A <clef> block at <attributes> child depth."""
    sign, line = _CLEFS[clef_idx]
    return (f'        <clef number="{staff + 1}">\n'
            f"          <sign>{sign}</sign>\n"
            f"          <line>{line}</line>\n"
            "        </clef>")


def _move(tag: str, duration: int) -> str:
    """A <backup> or <forward> block."""
    return (f"      <{tag}>\n        <duration>{duration}</duration>\n"
            f"      </{tag}>")


_NOTE_OPEN = "      <note>\n"
_CHORD_OPEN = "      <note>\n        <chord />\n"
_NOTE_CLOSE = "      </note>"
# an event's fields that its text after the <pitch> block depends on
_TAIL_FIELDS = itemgetter(3, 0, 5, 6, 7, 8, 1)


def _event_texts(events, pitch: list[int], spelling: tuple[int, ...],
                 marks: dict) -> list[str]:
    """Each event's text: one <note> block per chord member in ascending
    pitch, ties in stored order (the first member carries the tuplet
    notations, later ones the chord flag), or a rest's one block. The
    <pitch> block of each (spelling, pitch) and the rest of each distinct
    event (``_TAIL_FIELDS`` and whether it is a rest) are written once per
    call and then looked up."""
    pitch_text = list(map(functools.cache(_pitch_block), spelling, pitch))
    tails = map(functools.cache(_tail_block), map(_TAIL_FIELDS, events),
                map(operator.not_, map(itemgetter(4), events)))
    notations = {key: "        <notations>\n"
                 + "".join(f'          <tuplet type="{kind}" />\n'
                           for kind in kinds) + "        </notations>\n"
                 for key, kinds in marks.items()}
    event_marks = (map(notations.get, zip(map(itemgetter(0), events),
                                          map(itemgetter(2), events)),
                       itertools.repeat(""))
                   if notations else itertools.repeat(""))
    texts = []
    for ids, tail, mark in zip(map(itemgetter(4), events), tails,
                               event_marks):
        if len(ids) == 1:
            texts.append(f"{_NOTE_OPEN}{pitch_text[ids[0]]}{tail}{mark}"
                         f"{_NOTE_CLOSE}")
        elif not ids:
            texts.append(tail)
        else:
            first, *others = sorted(ids, key=pitch.__getitem__)
            texts.append("\n".join([
                f"{_NOTE_OPEN}{pitch_text[first]}{tail}{mark}{_NOTE_CLOSE}",
                *(f"{_CHORD_OPEN}{pitch_text[i]}{tail}{_NOTE_CLOSE}"
                  for i in others)]))
    return texts


def _pitch_block(spelling: int, midi: int) -> str:
    """The <pitch> block of a note of this spelling class and MIDI pitch."""
    step_i, alter_i = spelling_parts(spelling)
    step, alter = STEP_NAMES[step_i], ALTER_VALUES[alter_i]
    octave = (midi - STEP_TO_PC[step] - alter) // 12 - 1
    alter_line = f"          <alter>{alter}</alter>\n" if alter else ""
    return (f"        <pitch>\n          <step>{step}</step>\n"
            f"{alter_line}          <octave>{octave}</octave>\n"
            "        </pitch>\n")


def _tail_block(fields: tuple[int, ...], is_rest: bool) -> str:
    """A note's lines after its <pitch> block, from <duration> to <staff>,
    or a rest's whole <note> block; ``fields`` are ``_TAIL_FIELDS``."""
    duration, voice, note_type, dots, tuplet, stem, staff = fields
    timing = (f"        <duration>{duration}</duration>\n"
              f"        <voice>{voice}</voice>\n"
              f"        <type>{NOTE_TYPE_NAMES[note_type]}</type>\n"
              + "        <dot />\n" * dots)
    staff_line = f"        <staff>{staff + 1}</staff>\n"
    if is_rest:
        return (f"{_NOTE_OPEN}        <rest />\n{timing}{staff_line}"
                f"{_NOTE_CLOSE}")
    if tuplet != 1:
        actual, normal = TUPLET_RATIOS[tuplet]
        timing += ("        <time-modification>\n"
                   f"          <actual-notes>{actual}</actual-notes>\n"
                   f"          <normal-notes>{normal}</normal-notes>\n"
                   "        </time-modification>\n")
    return f"{timing}        <stem>{_STEM_TEXT[stem]}</stem>\n{staff_line}"


# --- subset validation ---

def validate_subset(data: bytes) -> None:
    """Raise on any deviation from the subset: the reader is the check."""
    parse_musicxml(data)
