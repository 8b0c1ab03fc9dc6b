"""Shared fixtures: paths to the hand-written MusicXML corpus and parsed scores,
the straight-line NumPy oracles for layer norm and the GRU sweep, and the
two smallest tape nodes the gradient tests probe with (``mul``, ``sum_all``).

The five files under tests/fixtures/ are hand-authored and hand-verified;
tests that need ground truth about them carry [DERIVED] tables worked out
from the XML by hand, independent of the parser under test.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from notesetter import autodiff as ad
from notesetter.autodiff import ShapeMismatch, Value
from notesetter.musicxml import read_score_file

FIXTURE_DIR = Path(__file__).parent / "fixtures"

FIXTURE_NAMES = (
    "fixture_a",
    "fixture_b",
    "grace_clip",
    "single_whole",
    "triplet_octave",
)


def fixture_path(name: str) -> Path:
    return FIXTURE_DIR / f"{name}.musicxml"


def parse_fixture(name: str):
    return read_score_file(fixture_path(name))


@pytest.fixture(scope="session")
def parsed_fixtures():
    """name -> ParseResult for every fixture file, parsed once per session."""
    return {name: parse_fixture(name) for name in FIXTURE_NAMES}


@pytest.fixture(scope="session")
def fixture_a(parsed_fixtures):
    return parsed_fixtures["fixture_a"]


@pytest.fixture(scope="session")
def fixture_b(parsed_fixtures):
    return parsed_fixtures["fixture_b"]


# Acceptance tests (tests/test_acceptance.py) append one "PASS: ..."/"FAIL: ..."
# line per criterion here; the summary hook reprints them after the test run so
# they survive pytest's output capture.
ACCEPTANCE_RESULTS: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)


def numpy_layer_norm(x, g, b, eps=1e-5):
    mean = x.mean(axis=1, keepdims=True)
    var = ((x - mean) ** 2).mean(axis=1, keepdims=True)
    return (x - mean) / np.sqrt(var + eps) * g + b


def numpy_gru(seq, wx, wh, bias, ln_g, ln_b):
    """Straight-line GRU with layer norm on the candidate, row by row.

    The oracle for the fused sweep: ``wx``, ``wh`` and ``bias`` hold the
    (z, r, c) arrays, and row t of the result is the state after row t.
    """
    def sig(v):
        return 1.0 / (1.0 + np.exp(-np.clip(v, -500, 500)))

    (wxz, wxr, wxc), (whz, whr, whc), (bz, br, bc) = wx, wh, bias
    state = np.zeros((1, whz.shape[1]))
    rows = []
    for t in range(seq.shape[0]):
        x = seq[t:t + 1]
        z = sig(x @ wxz + bz + state @ whz)
        r = sig(x @ wxr + br + state @ whr)
        c = np.tanh(numpy_layer_norm(x @ wxc + bc + (r * state) @ whc,
                                     ln_g, ln_b))
        state = (1.0 - z) * c + z * state
        rows.append(state[0])
    return np.array(rows)


def mul(a: Value, b: Value) -> Value:
    """Elementwise product of equal shapes, as one tape node."""
    if a.shape != b.shape:
        raise ShapeMismatch("mul", a.shape, b.shape)

    def bwd(g):
        ad._accum(a, g * b.data)
        ad._accum(b, g * a.data)
    return Value(a.data * b.data, (a, b), bwd)


def sum_all(x: Value) -> Value:
    """The (1 x 1) sum of every entry, as one tape node."""
    def bwd(g):
        ad._accum(x, np.full_like(x.data, g[0, 0]))
    return Value(np.array([[x.data.sum()]]), (x,), bwd)
