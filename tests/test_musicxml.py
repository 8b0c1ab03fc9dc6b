"""Tests for the MusicXML subset parser, exporter, and validator.

The fixture expectations below are [DERIVED]: each table was produced by
reading the fixture XML by hand (onsets accumulated element by element,
pitches converted with midi = pitch_class + 12 * (octave + 1)) without
running the parser.
"""

import dataclasses
import gzip
import hashlib

import pytest

from notesetter.musicxml import (
    InconsistentTiming,
    MalformedXml,
    TooManyVoices,
    UnrepresentableDuration,
    UnsupportedElement,
    export_musicxml,
    parse_musicxml,
    read_score_file,
    validate_subset,
)
from notesetter.notes import (
    CLEF_C,
    CLEF_F,
    CLEF_G,
    LabelSet,
    STEM_DOWN,
    STEM_NONE,
    STEM_UP,
    make_score,
)
from notesetter.config import ModelConfig
from notesetter.model import graph_for
from notesetter.postprocess import UnfillableGap, engrave, engrave_from_labels
from notesetter.synth import random_bundle

from conftest import FIXTURE_NAMES, fixture_path


# --- document template for error-path tests ---

ATTRS = (
    "<attributes><divisions>2</divisions><key><fifths>0</fifths></key>"
    "<time><beats>4</beats><beat-type>4</beat-type></time></attributes>"
)


def doc(*measures: str) -> bytes:
    """Wrap measure bodies in a minimal single-part document."""
    parts = "".join(
        f'<measure number="{i + 1}">{body}</measure>'
        for i, body in enumerate(measures)
    )
    return (
        '<?xml version="1.0" encoding="UTF-8"?>'
        '<score-partwise version="3.1">'
        '<part-list><score-part id="P1"><part-name>Piano</part-name>'
        "</score-part></part-list>"
        f'<part id="P1">{parts}</part>'
        "</score-partwise>"
    ).encode()


def note(step="C", octave=4, dur=2, ntype="quarter", voice=1, pre="", extra=""):
    return (
        f"<note>{pre}<pitch><step>{step}</step><octave>{octave}</octave>"
        f"</pitch><duration>{dur}</duration><voice>{voice}</voice>"
        f"<type>{ntype}</type>{extra}</note>"
    )


def rest(dur=2, ntype="quarter", voice=1):
    return (
        f"<note><rest/><duration>{dur}</duration><voice>{voice}</voice>"
        f"<type>{ntype}</type></note>"
    )


# --- fixture hand tables ---


def test_fixture_a_notes_and_labels(parsed_fixtures):
    result = parsed_fixtures["fixture_a"]
    score = result.score
    assert result.grace_dropped == 0
    assert result.clipped_notes == 0
    assert result.fifteen_mb_mapped == 0
    assert result.warnings == ()
    assert score.divisions_per_quarter == 2
    assert len(score.notes) == 24
    assert len(score.time_signatures) == 1
    assert score.time_signatures[0].numerator == 4
    assert score.time_signatures[0].denominator == 4
    assert score.num_bars == 8

    # [DERIVED] (onset, duration, midi) per canonical id, read off the XML.
    expected = [
        (0, 8, 43), (0, 2, 67), (2, 2, 69), (4, 4, 71),
        (8, 4, 50), (8, 4, 74), (12, 4, 55),
        (16, 8, 43), (16, 8, 67), (16, 8, 71),
        (24, 4, 48), (24, 2, 72), (26, 2, 71), (28, 4, 50), (28, 4, 69),
        (32, 4, 43), (32, 8, 67), (40, 8, 55), (40, 4, 74),
        (48, 8, 50), (48, 4, 74), (52, 4, 71),
        (56, 8, 43), (56, 8, 67),
    ]
    got = [(n.onset_div, n.duration_div, n.midi_pitch) for n in score.notes]
    assert got == expected

    labels = score.labels
    lower = {0, 4, 6, 7, 10, 13, 15, 17, 19, 22}
    assert set(labels.staff) <= {0, 1}
    assert {i for i, s in enumerate(labels.staff) if s == 1} == lower
    assert labels.key_fifths == (1,) * 24
    assert labels.octave_shift == (0,) * 24
    assert all(c == CLEF_G for i, c in enumerate(labels.clef) if i not in lower)
    assert all(c == CLEF_F for i, c in enumerate(labels.clef) if i in lower)
    assert labels.tuplet == (1,) * 24
    assert labels.chord_edges == frozenset({(8, 9)})

    # [DERIVED] voice chains: upper ids in onset order with the (8,9) chord
    # fanning out/in, lower ids in onset order.
    upper_chain = [1, 2, 3, 5, (8, 9), 11, 12, 14, 16, 18, 20, 21, 23]
    expected_edges = set()
    for a, b in zip(upper_chain, upper_chain[1:]):
        for u in (a if isinstance(a, tuple) else (a,)):
            for w in (b if isinstance(b, tuple) else (b,)):
                expected_edges.add((u, w))
    lower_chain = sorted(lower, key=lambda i: score.notes[i].onset_div)
    expected_edges.update(zip(lower_chain, lower_chain[1:]))
    assert labels.voice_edges == frozenset(expected_edges)
    assert len(labels.voice_edges) == 23


def test_fixture_a_note_types(parsed_fixtures):
    score = parsed_fixtures["fixture_a"].score
    labels = score.labels
    # divisions=2: dur 2 -> quarter(3), 4 -> half(2), 8 -> whole(1).
    by_dur = {2: 3, 4: 2, 8: 1}
    for i, n in enumerate(score.notes):
        assert labels.note_type[i] == by_dur[n.duration_div], i
        assert labels.dots[i] == 0


def test_fixture_b_notes_and_labels(parsed_fixtures):
    result = parsed_fixtures["fixture_b"]
    score = result.score
    assert score.divisions_per_quarter == 4
    assert len(score.notes) == 27
    assert score.num_bars == 8

    # [DERIVED] (onset, duration, midi) per canonical id.
    expected = [
        (0, 12, 53), (0, 4, 77), (4, 4, 79), (8, 4, 81),
        (12, 8, 48), (12, 12, 84), (20, 4, 53),
        (24, 12, 55), (24, 8, 81), (32, 4, 77),
        (36, 12, 57), (36, 4, 79), (40, 4, 76),
        (48, 8, 60), (48, 8, 96), (56, 4, 62), (56, 4, 98),
        (60, 12, 64), (60, 4, 81), (64, 4, 79), (68, 4, 77),
        (72, 8, 55), (72, 8, 76), (80, 4, 53), (80, 4, 74),
        (84, 12, 53), (84, 12, 72),
    ]
    got = [(n.onset_div, n.duration_div, n.midi_pitch) for n in score.notes]
    assert got == expected

    labels = score.labels
    lower = {0, 4, 6, 7, 10, 13, 15, 17, 21, 23, 25}
    assert {i for i, s in enumerate(labels.staff) if s == 1} == lower
    assert labels.key_fifths == (-1,) * 27
    # 8va bracket covers the very high notes in bar 7 (ids 14 and 16).
    assert labels.octave_shift == tuple(
        1 if i in (14, 16) else 0 for i in range(27))
    # Lower staff: F clef, then C clef for ids 13/15/17, then F again.
    c_clef = {13, 15, 17}
    for i in range(27):
        if i in c_clef:
            assert labels.clef[i] == CLEF_C
        elif i in lower:
            assert labels.clef[i] == CLEF_F
        else:
            assert labels.clef[i] == CLEF_G
    dotted = {0, 5, 7, 10, 17, 25, 26}
    assert {i for i, d in enumerate(labels.dots) if d == 1} == dotted
    assert all(d in (0, 1) for d in labels.dots)
    # Stems: explicit up on the upper voice, down on the lower voice.
    for i in range(27):
        assert labels.stem[i] == (STEM_DOWN if i in lower else STEM_UP)

    upper_chain = [1, 2, 3, 5, 8, 9, 11, 12, 14, 16, 18, 19, 20, 22, 24, 26]
    lower_chain = [0, 4, 6, 7, 10, 13, 15, 17, 21, 23, 25]
    expected_edges = set(zip(upper_chain, upper_chain[1:]))
    expected_edges.update(zip(lower_chain, lower_chain[1:]))
    assert labels.voice_edges == frozenset(expected_edges)
    assert len(labels.voice_edges) == 25
    assert labels.chord_edges == frozenset()


def test_triplet_octave_fixture(parsed_fixtures):
    result = parsed_fixtures["triplet_octave"]
    score = result.score
    assert score.divisions_per_quarter == 6
    assert len(score.notes) == 14
    assert score.num_bars == 4
    assert result.fifteen_mb_mapped == 1
    assert result.warnings == ("15mb bracket mapped to 8vb",)

    expected = [
        (0, 12, 48), (0, 2, 76), (2, 2, 77), (4, 2, 79), (6, 6, 81),
        (12, 12, 79), (24, 24, 55), (24, 24, 84),
        (48, 12, 48), (48, 12, 108), (60, 12, 43), (60, 12, 107),
        (72, 24, 48), (72, 24, 84),
    ]
    got = [(n.onset_div, n.duration_div, n.midi_pitch) for n in score.notes]
    assert [(o, m) for o, _, m in expected] == [(o, m) for o, _, m in got]

    labels = score.labels
    # Triplet eighths are ids 1..3; everything else is a plain ratio.
    assert labels.tuplet == tuple(3 if i in (1, 2, 3) else 1 for i in range(14))
    # 15ma on the very high notes; the 15mb below maps onto the 8vb class.
    assert labels.octave_shift == tuple(
        3 if i in (9, 11) else (2 if i in (8, 10) else 0) for i in range(14))

    upper = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 7), (7, 9), (9, 11), (11, 13)]
    lower = [(0, 6), (6, 8), (8, 10), (10, 12)]
    assert labels.voice_edges == frozenset(upper + lower)


def test_single_whole_defaults(parsed_fixtures):
    result = parsed_fixtures["single_whole"]
    score = result.score
    assert score.divisions_per_quarter == 1
    assert len(score.notes) == 1
    assert score.notes[0].midi_pitch == 60
    assert score.notes[0].duration_div == 4
    labels = score.labels
    # The file carries no staves/stem/clef elements: parse defaults apply.
    assert labels.staff == (0,)
    assert labels.stem == (STEM_NONE,)
    assert labels.clef == (CLEF_G,)
    assert labels.key_fifths == (0,)
    assert labels.octave_shift == (0,)
    assert labels.note_type == (1,)  # whole
    assert labels.voice_edges == frozenset()
    assert labels.chord_edges == frozenset()


def test_grace_clip_fixture(parsed_fixtures):
    result = parsed_fixtures["grace_clip"]
    score = result.score
    assert result.grace_dropped == 1
    assert result.clipped_notes == 1
    expected = [(0, 2, 72), (2, 2, 74), (4, 4, 76), (8, 8, 77)]
    got = [(n.onset_div, n.duration_div, n.midi_pitch) for n in score.notes]
    assert got == expected
    assert score.labels.voice_edges == frozenset({(0, 1), (1, 2), (2, 3)})


def test_parse_keeps_name_empty_but_read_score_file_sets_it(tmp_path):
    data = fixture_path("single_whole").read_bytes()
    assert parse_musicxml(data).score.name == ""
    assert read_score_file(fixture_path("single_whole")).score.name == (
        "single_whole")
    # gzip .mxl container round trip
    packed = tmp_path / "tiny.mxl"
    packed.write_bytes(gzip.compress(data))
    assert read_score_file(packed).score.name == "tiny"


def test_read_score_file_rejects_zip_container(tmp_path):
    bad = tmp_path / "z.mxl"
    bad.write_bytes(b"PK\x03\x04 not a gzip stream")
    with pytest.raises(MalformedXml):
        read_score_file(bad)


# --- parse error paths ---


def test_not_well_formed():
    with pytest.raises(MalformedXml, match="not well-formed"):
        parse_musicxml(b"<score-partwise><part>")


def test_bad_root():
    with pytest.raises(UnsupportedElement, match="root"):
        parse_musicxml(b"<opus/>")


def test_two_parts():
    body = f'<part id="P1"><measure number="1">{ATTRS}</measure></part>'
    data = doc().replace(b"</score-partwise>",
                         body.encode() + b"</score-partwise>")
    with pytest.raises(UnsupportedElement, match="one <part>"):
        parse_musicxml(data)


def test_unknown_top_level_child():
    data = doc().replace(b"<part-list>", b"<credit/><part-list>")
    with pytest.raises(UnsupportedElement, match="credit"):
        parse_musicxml(data)


def test_non_integer_duration():
    bad = note().replace("<duration>2</duration>", "<duration>q</duration>")
    with pytest.raises(MalformedXml, match="non-integer"):
        parse_musicxml(doc(ATTRS + bad))


def test_nonpositive_divisions():
    data = doc(ATTRS.replace("<divisions>2</divisions>",
                             "<divisions>0</divisions>") + note())
    with pytest.raises(MalformedXml, match="positive"):
        parse_musicxml(data)


@pytest.mark.parametrize("divisions,durations", [
    (2**62, (2,)),                   # a 4/4 bar is 2**64 divisions long
    (2**60, (2**62, 2**62)),         # two whole notes end at 2**63
], ids=["bar_length", "offset"])
def test_values_beyond_int64(divisions, durations):
    attrs = ATTRS.replace("<divisions>2</divisions>",
                          f"<divisions>{divisions}</divisions>")
    measures = [note(dur=d, ntype="whole") for d in durations]
    measures[0] = attrs + measures[0]
    with pytest.raises(MalformedXml, match="64-bit"):
        parse_musicxml(doc(*measures))


def test_divisions_change_mid_piece():
    second = ATTRS.replace("<divisions>2</divisions>",
                           "<divisions>4</divisions>")
    with pytest.raises(InconsistentTiming, match="divisions changed"):
        parse_musicxml(doc(ATTRS + note(dur=8, ntype="whole"),
                           second + note(dur=16, ntype="whole")))


def test_note_before_time_signature():
    with pytest.raises(InconsistentTiming, match="time signature"):
        parse_musicxml(doc("<attributes><divisions>2</divisions></attributes>"
                           + note()))


def test_document_without_time_signature():
    with pytest.raises(InconsistentTiming, match="time signature"):
        parse_musicxml(doc("<attributes><divisions>2</divisions></attributes>"))


def test_measure_lengths_must_follow_time_signatures():
    # [DERIVED] three <time> in measure 1: the parser measures it by the
    # last (2/4, 4 divisions), the signature table steps to the second (3/4)
    times = ("<time><beats>3</beats><beat-type>4</beat-type></time>"
             "<time><beats>2</beats><beat-type>4</beat-type></time>")
    attrs = ATTRS.replace("</attributes>", times + "</attributes>")
    with pytest.raises(InconsistentTiming, match="measure lengths disagree"):
        parse_musicxml(doc(attrs + note() * 2, note() * 2))


def test_key_without_fifths():
    data = doc(ATTRS.replace("<key><fifths>0</fifths></key>",
                             "<key><mode>major</mode></key>") + note())
    with pytest.raises(UnsupportedElement, match="fifths"):
        parse_musicxml(data)


def test_three_staves():
    data = doc(ATTRS.replace("</attributes>",
                             "<staves>3</staves></attributes>") + note())
    with pytest.raises(UnsupportedElement, match="staves"):
        parse_musicxml(data)


def test_note_without_pitch_or_rest():
    bad = ("<note><duration>2</duration><voice>1</voice>"
           "<type>quarter</type></note>")
    with pytest.raises(UnsupportedElement, match="pitch"):
        parse_musicxml(doc(ATTRS + bad))


def test_bad_step():
    with pytest.raises(UnsupportedElement, match="step"):
        parse_musicxml(doc(ATTRS + note(step="H")))


def test_alter_out_of_range():
    bad = ("<note><pitch><step>C</step><alter>3</alter><octave>4</octave>"
           "</pitch><duration>2</duration><voice>1</voice>"
           "<type>quarter</type></note>")
    with pytest.raises(UnsupportedElement, match="alter"):
        parse_musicxml(doc(ATTRS + bad))


def test_midi_out_of_range():
    with pytest.raises(UnsupportedElement):
        parse_musicxml(doc(ATTRS + note(step="C", octave=11)))


def test_note_without_type():
    bad = note().replace("<type>quarter</type>", "")
    with pytest.raises(UnsupportedElement, match="type"):
        parse_musicxml(doc(ATTRS + bad))


def test_bad_type_text():
    with pytest.raises(UnsupportedElement):
        parse_musicxml(doc(ATTRS + note(ntype="128th")))


def test_four_dots():
    with pytest.raises(UnsupportedElement, match="dot"):
        parse_musicxml(doc(ATTRS + note(dur=2, extra="<dot/>" * 4)))


def test_unknown_note_child():
    with pytest.raises(UnsupportedElement, match="lyric"):
        parse_musicxml(doc(ATTRS + note(extra="<lyric/>")))


def test_chord_on_rest():
    bad = ("<note><chord/><rest/><duration>2</duration><voice>1</voice>"
           "<type>quarter</type></note>")
    with pytest.raises(UnsupportedElement, match="chord"):
        parse_musicxml(doc(ATTRS + note() + bad))


def test_chord_without_preceding_note():
    with pytest.raises(InconsistentTiming, match="chord"):
        parse_musicxml(doc(ATTRS + note(pre="<chord/>")))


def test_chord_duration_mismatch():
    with pytest.raises(InconsistentTiming, match="chord"):
        parse_musicxml(doc(ATTRS + note(dur=2)
                           + note(step="E", dur=4, ntype="half",
                                  pre="<chord/>")))


def test_note_at_or_past_measure_end():
    # First note fills the whole 8-division bar; a second one cannot start.
    with pytest.raises(InconsistentTiming):
        parse_musicxml(doc(ATTRS + note(dur=8, ntype="whole") + note()))


def test_rest_overrun():
    with pytest.raises(InconsistentTiming, match="rest"):
        parse_musicxml(doc(ATTRS + rest(dur=10, ntype="whole")))


def test_backup_negative_cursor():
    body = ATTRS + note(dur=2) + "<backup><duration>4</duration></backup>"
    with pytest.raises(InconsistentTiming):
        parse_musicxml(doc(body))


def test_backup_without_duration():
    with pytest.raises(MalformedXml, match="duration"):
        parse_musicxml(doc(ATTRS + note() + "<backup/>"))


def test_two_units_same_voice_same_onset():
    body = (ATTRS + note(dur=2, voice=1)
            + "<backup><duration>2</duration></backup>"
            + note(step="E", dur=2, voice=1))
    with pytest.raises(InconsistentTiming, match="simultaneous"):
        parse_musicxml(doc(body))


def test_bad_tuplet_ratio():
    tm = ("<time-modification><actual-notes>7</actual-notes>"
          "<normal-notes>4</normal-notes></time-modification>")
    with pytest.raises(UnsupportedElement, match="tuplet|ratio|7"):
        parse_musicxml(doc(ATTRS + note(extra=tm)))


def test_time_modification_missing_children():
    tm = "<time-modification><actual-notes>3</actual-notes></time-modification>"
    with pytest.raises(UnsupportedElement):
        parse_musicxml(doc(ATTRS + note(extra=tm)))


def test_bad_stem_text():
    with pytest.raises(UnsupportedElement, match="stem"):
        parse_musicxml(doc(ATTRS + note(extra="<stem>double</stem>")))


def test_staff_three():
    attrs = ATTRS.replace("</attributes>", "<staves>2</staves></attributes>")
    with pytest.raises(UnsupportedElement, match="staff"):
        parse_musicxml(doc(attrs + note(extra="<staff>3</staff>")))


def test_direction_without_direction_type():
    with pytest.raises(UnsupportedElement, match="direction"):
        parse_musicxml(doc(ATTRS + "<direction/>" + note()))


def test_unsupported_direction_content():
    d = ("<direction><direction-type><wedge type=\"crescendo\"/>"
         "</direction-type></direction>")
    with pytest.raises(UnsupportedElement):
        parse_musicxml(doc(ATTRS + d + note()))


# --- export ---


def _labelled_score(note_specs, *, staff, note_type, spelling, voice_edges,
                    dots=None, divisions=2):
    n = len(note_specs)
    labels = LabelSet(
        staff=tuple(staff),
        spelling=tuple(spelling),
        key_fifths=(0,) * n,
        stem=tuple(0 if s == 0 else 1 for s in staff),
        octave_shift=(0,) * n,
        clef=tuple(CLEF_G if s == 0 else CLEF_F for s in staff),
        note_type=tuple(note_type),
        dots=tuple(dots) if dots is not None else (0,) * n,
        tuplet=(1,) * n,
        voice_edges=frozenset(voice_edges),
        chord_edges=frozenset(),
    )
    return make_score(divisions=divisions, time_signatures=[(0, 4, 4)],
                      note_specs=note_specs, labels=labels)


def test_export_too_many_voices():
    # Five unlinked simultaneous notes on one staff need voices 1..5, but a
    # staff only has room for four voice numbers.
    specs = [(0, 8, m) for m in (60, 62, 64, 65, 67)]
    score = _labelled_score(
        specs, staff=[0] * 5, note_type=[1] * 5,
        spelling=[12, 17, 22, 27, 32], voice_edges=set())
    engraved = engrave_from_labels(score)
    with pytest.raises(TooManyVoices):
        export_musicxml(engraved)


def test_export_unrepresentable_duration():
    score = _labelled_score(
        [(0, 8, 60)], staff=[0], note_type=[1], spelling=[12],
        voice_edges=set())
    engraved = engrave_from_labels(score)
    broken = dataclasses.replace(
        engraved,
        events=tuple(dataclasses.replace(ev, dots=4)
                     for ev in engraved.events))
    with pytest.raises(UnrepresentableDuration):
        export_musicxml(broken)


def test_export_coerces_impossible_spelling():
    # midi 60 labelled as D natural (spelling 17) cannot be written; the
    # exporter falls back to the default spelling for pitch class 0.
    score = _labelled_score(
        [(0, 8, 60)], staff=[0], note_type=[1], spelling=[17],
        voice_edges=set())
    data = export_musicxml(engrave_from_labels(score))
    reparsed = parse_musicxml(data)
    assert reparsed.score.labels.spelling == (12,)  # C natural
    assert reparsed.score.notes[0].midi_pitch == 60


def test_export_declares_divisions_and_validates():
    score = _labelled_score(
        [(0, 2, 60), (2, 2, 62), (4, 4, 64)], staff=[0, 0, 0],
        note_type=[3, 3, 2], spelling=[12, 17, 22],
        voice_edges={(0, 1), (1, 2)})
    data = export_musicxml(engrave_from_labels(score))
    validate_subset(data)
    text = data.decode()
    assert "<divisions>2</divisions>" in text
    assert text.count("<measure") == 1
    reparsed = parse_musicxml(data)
    assert [(n.onset_div, n.duration_div, n.midi_pitch)
            for n in reparsed.score.notes] == [(0, 2, 60), (2, 2, 62),
                                               (4, 4, 64)]


# --- subset validator ---


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_validate_subset_accepts_fixtures(name):
    validate_subset(fixture_path(name).read_bytes())


def test_validate_subset_rejects_two_parts():
    data = fixture_path("single_whole").read_bytes()
    tampered = data.replace(
        b"</score-partwise>",
        b'<part id="P2"><measure number="1"/></part></score-partwise>')
    with pytest.raises(UnsupportedElement, match="part"):
        validate_subset(tampered)


def test_validate_subset_rejects_out_of_order_note_children():
    # type before duration violates the canonical child order.
    bad = ("<note><pitch><step>C</step><octave>4</octave></pitch>"
           "<type>quarter</type><duration>2</duration><voice>1</voice>"
           "</note>")
    with pytest.raises(UnsupportedElement, match="order"):
        validate_subset(doc(ATTRS + bad))


def test_validate_subset_rejects_pitch_and_rest():
    bad = ("<note><pitch><step>C</step><octave>4</octave></pitch><rest/>"
           "<duration>2</duration><voice>1</voice><type>quarter</type>"
           "</note>")
    with pytest.raises(UnsupportedElement, match="exactly one"):
        validate_subset(doc(ATTRS + bad))


def test_validate_subset_rejects_bad_clef_sign():
    attrs = ATTRS.replace(
        "</attributes>",
        "<clef number=\"1\"><sign>TAB</sign><line>5</line></clef>"
        "</attributes>")
    with pytest.raises(UnsupportedElement, match="clef"):
        validate_subset(doc(attrs + note()))


def test_validate_subset_rejects_bad_octave_shift_type():
    d = ("<direction><direction-type>"
         "<octave-shift type=\"continue\" size=\"8\"/>"
         "</direction-type></direction>")
    with pytest.raises(UnsupportedElement, match="octave-shift"):
        validate_subset(doc(ATTRS + d + note()))


def test_validate_subset_rejects_unknown_measure_child():
    with pytest.raises(UnsupportedElement, match="print"):
        validate_subset(doc(ATTRS + "<print/>" + note()))


# --- round trip ---


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_round_trip_fixpoint(name):
    first = read_score_file(fixture_path(name)).score
    exported = export_musicxml(engrave_from_labels(first))
    validate_subset(exported)
    second = parse_musicxml(exported).score

    assert second.divisions_per_quarter == first.divisions_per_quarter
    assert second.time_signatures == first.time_signatures
    assert second.notes == first.notes
    assert second.labels == first.labels

    # And the export of the re-parsed score is byte-identical.
    again = export_musicxml(engrave_from_labels(second))
    assert again == exported


# --- golden bytes ---

# One sha256 per fixture over the export of engrave_from_labels(score), then
# the exports of engrave(random_bundle(graph, seed), score) for seeds 0-39,
# where a refused bundle contributes its exception class name instead. The
# digests were computed with the ElementTree serializer the text writer
# replaced; hashing all five streams in sorted order gives 3baf746ae48911c5...
GOLDEN_SHA256 = {
    "fixture_a":
        "bdc385758c678a5cc42f610e34e183d6daca7b7b7bf1209d502dd46573540b99",
    "fixture_b":
        "e7dc6602107dc3d10129052999ddc94d1de390be83b581508c64a5b7f1157f98",
    "grace_clip":
        "001278f696f19ee97fdba5e95350feb5004c183fdae4d7f0073a062eb519d058",
    "single_whole":
        "b2037969ec7a5c1fc109d7e91782ac1e0da287239c396ff5d48b68b4625cb9cd",
    "triplet_octave":
        "5ba9c75553a8e85453e2d26b5b730b8115d6fc95b921f26964ed7cbb8ef7da7e",
}
GOLDEN_SEEDS = range(40)
REFUSALS = (TooManyVoices, UnrepresentableDuration, UnfillableGap)


@pytest.fixture(scope="module")
def golden_streams(parsed_fixtures):
    """name -> (sha256 hex digest, exported documents) for every fixture."""
    streams = {}
    for name in FIXTURE_NAMES:
        score = parsed_fixtures[name].score
        digest = hashlib.sha256()
        docs = [export_musicxml(engrave_from_labels(score))]
        digest.update(docs[0])
        graph = graph_for(score, ModelConfig())
        for seed in GOLDEN_SEEDS:
            try:
                data = export_musicxml(engrave(random_bundle(graph, seed), score))
                docs.append(data)
            except REFUSALS as exc:
                data = type(exc).__name__.encode()
            digest.update(data)
        streams[name] = (digest.hexdigest(), docs)
    return streams


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_export_golden_bytes(golden_streams, name):
    assert golden_streams[name][0] == GOLDEN_SHA256[name]


# One sha256 per fixture over the engrave() results themselves, for the same
# bundles as above: the repr of every EngravedScore field but the score (all
# Python ints, tuples and dicts), or a refusal's class name. The export digest
# sees most random bundles on fixture_a and fixture_b only as TooManyVoices;
# this one pins the staff, spelling, clef, octave, key and event decisions
# behind them.
ENGRAVE_GOLDEN_SHA256 = {
    "fixture_a":
        "72576e439e6c24ff0d4a2b0beddca15dd1ec9d7f30b3a764b2901b9377a8b340",
    "fixture_b":
        "c4d962ec4104228edd0785c054ca4e5d737f5875d81dfb9b6655d1b462265e45",
    "grace_clip":
        "aa475efb51273cadc55f53582341d433cd995693a83c3e1ec879b188a032c082",
    "single_whole":
        "e54eb94c50c4520ed268a9dfbe9b414fcea56c5fd01975e68c16ea2427809b0e",
    "triplet_octave":
        "3c4a7783b358555f4707ba3882d78d1e2820cc74f0cac79ba13ecb8827c7c62b",
}


def engraved_fields(engraved) -> bytes:
    return repr([getattr(engraved, f.name)
                 for f in dataclasses.fields(engraved)
                 if f.name != "score"]).encode()


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_engrave_golden(parsed_fixtures, name):
    score = parsed_fixtures[name].score
    digest = hashlib.sha256(engraved_fields(engrave_from_labels(score)))
    graph = graph_for(score, ModelConfig())
    for seed in GOLDEN_SEEDS:
        try:
            data = engraved_fields(engrave(random_bundle(graph, seed), score))
        except REFUSALS as exc:
            data = type(exc).__name__.encode()
        digest.update(data)
    assert digest.hexdigest() == ENGRAVE_GOLDEN_SHA256[name]


def test_golden_documents_reach_every_writer_branch(golden_streams):
    text = b"".join(doc for _, docs in golden_streams.values() for doc in docs)
    for needle in (b"<backup>", b"<forward>", b'octave-shift type="stop"',
                   b"<notations>", b"<dot />", b"<alter>", b"<chord />"):
        assert needle in text, needle
