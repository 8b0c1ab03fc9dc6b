"""Oracle tests for the SplitMix64 generator.

Reference values are [DERIVED] from an independent pure-int SplitMix64
implementation (constants from the published algorithm); the seed-0 first
output 0xE220A8397B1DCDAF matches the widely published reference vector.
"""

from __future__ import annotations

import math

import numpy as np

from notesetter.rng import Rng

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix_oracle(z: int) -> int:
    z &= _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def _raw_oracle(seed: int, n: int, start: int = 0) -> list[int]:
    return [_mix_oracle((seed + (start + i + 1) * _GOLDEN) & _M64)
            for i in range(n)]


def _uniform_oracle(seed: int, n: int) -> list[float]:
    return [(r >> 11) * 2.0 ** -53 for r in _raw_oracle(seed, n)]


# [DERIVED] first three raw outputs per seed, from the pure-int oracle above;
# seed 0 row agrees with the published SplitMix64 test vector.
_KNOWN_RAW = {
    0: (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F),
    1: (0x910A2DEC89025CC1, 0xBEEB8DA1658EEC67, 0xF893A2EEFB32555E),
    42: (0xBDD732262FEB6E95, 0x28EFE333B266F103, 0x47526757130F9F52),
}


def test_raw_known_vectors():
    for seed, expected in _KNOWN_RAW.items():
        rng = Rng(seed)
        got = tuple(int(v) for v in rng._raw(3))
        assert got == expected


def test_raw_matches_oracle_for_many_seeds():
    for seed in (0, 1, 7, 12345, 2**63, 2**64 - 1, 0xDEADBEEF):
        rng = Rng(seed)
        got = [int(v) for v in rng._raw(16)]
        assert got == _raw_oracle(seed, 16)


def test_counter_streaming_is_call_shape_invariant():
    # Drawing 12 values in one call equals drawing 3+4+5 across calls.
    a = Rng(99)._raw(12)
    b = Rng(99)
    chunks = np.concatenate([b._raw(3), b._raw(4), b._raw(5)])
    assert np.array_equal(a, chunks)


def test_uniform_values_and_range():
    # [DERIVED] (raw >> 11) * 2**-53 for seed 0.
    expected = _uniform_oracle(0, 4)
    got = Rng(0).uniform(4)
    assert got.tolist() == expected
    u = Rng(5).uniform(1000)
    assert u.shape == (1000,)
    assert np.all(u >= 0.0) and np.all(u < 1.0)


def test_uniform_shapes():
    assert Rng(3).uniform(2, 5).shape == (2, 5)
    flat = Rng(3).uniform(10)
    grid = Rng(3).uniform(2, 5)
    assert np.array_equal(flat, grid.ravel())


def test_normal_matches_box_muller_oracle():
    # [DERIVED] Box-Muller on block-paired uniforms: for n outputs draw
    # m = ceil(n/2) u1 values (floored at 2**-53), then m u2 values;
    # outputs are [r cos(2 pi u2), r sin(2 pi u2)][:n] with r = sqrt(-2 ln u1).
    seed, n = 123, 7
    m = (n + 1) // 2
    us = _uniform_oracle(seed, 2 * m)
    u1 = [max(u, 2.0 ** -53) for u in us[:m]]
    u2 = us[m:]
    r = [math.sqrt(-2.0 * math.log(v)) for v in u1]
    expected = ([ri * math.cos(2 * math.pi * vi) for ri, vi in zip(r, u2)]
                + [ri * math.sin(2 * math.pi * vi) for ri, vi in zip(r, u2)])[:n]
    got = Rng(seed).normal(n)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-15)


def test_normal_moments_are_sane():
    z = Rng(2024).normal(40000)
    assert abs(float(z.mean())) < 0.02
    assert abs(float(z.std()) - 1.0) < 0.02
    assert np.all(np.isfinite(z))


def test_integers_matches_modulo_oracle():
    seed, bound, n = 77, 13, 50
    expected = [r % bound for r in _raw_oracle(seed, n)]
    got = Rng(seed).integers(bound, n)
    assert got.dtype == np.int64
    assert got.tolist() == expected
    assert all(0 <= v < bound for v in got.tolist())


def test_shuffle_matches_fisher_yates_oracle():
    # [DERIVED] descending Fisher-Yates driven by the same integer stream.
    seed = 31
    items = list(range(10))
    rng = Rng(seed)
    rng.shuffle(items)

    oracle = list(range(10))
    draws = _raw_oracle(seed, 9)  # one draw per swap, i = 9..1
    for k, i in enumerate(range(9, 0, -1)):
        j = draws[k] % (i + 1)
        oracle[i], oracle[j] = oracle[j], oracle[i]
    assert items == oracle
    assert sorted(items) == list(range(10))


def test_shuffle_empty_and_single():
    rng = Rng(0)
    empty: list[int] = []
    rng.shuffle(empty)
    assert empty == []
    one = [42]
    rng.shuffle(one)
    assert one == [42]
