"""The vectorized float formatter against ``repr``, value by value."""

import numpy as np
import pytest

from zmclab import _floatrepr


def _texts(values) -> str:
    """The formatter's fields, one per line, NUL bytes dropped."""
    f = _floatrepr.fields(values)
    rows = np.concatenate((f, np.full((len(f), 1), ord("\n"), np.uint8)),
                          axis=1).ravel()
    return rows[rows != 0].tobytes().decode()


def _assert_repr(values):
    values = np.asarray(values, dtype=np.float64)
    got = _texts(values).split("\n")[:-1]
    ref = [repr(v) for v in values.tolist()]
    if got != ref:
        bad = [(r, g) for r, g in zip(ref, got) if r != g]
        pytest.fail(f"{len(bad)} of {len(ref)} differ, first {bad[:5]}")


def _bits(patterns) -> np.ndarray:
    return np.asarray(patterns, dtype=np.uint64).view(np.float64)


def test_random_bit_patterns_match_repr():
    rng = np.random.default_rng(20200301)
    _assert_repr(_bits(rng.integers(0, 2 ** 64, size=200_000,
                                    dtype=np.uint64)))


def test_powers_and_their_neighbours_match_repr():
    # every 2^k and 1eK, the values where the digit count, the exponent or
    # the spacing of the doubles changes, with both neighbours and signs
    base = np.concatenate((np.ldexp(1.0, np.arange(-1074, 1024)),
                           [float(f"1e{k}") for k in range(-323, 309)]))
    values = np.concatenate((base, np.nextafter(base, np.inf),
                             np.nextafter(base, -np.inf)))
    _assert_repr(np.concatenate((values, -values)))


def test_subnormals_and_the_smallest_normals_match_repr():
    _assert_repr(_bits(np.arange(1, 100_001)))
    edge = 1 << 52  # the bits of 2^-1022
    _assert_repr(_bits(np.arange(edge - 50_000, edge + 50_000)))


def test_special_values_match_repr():
    nan_payload = _bits([0x7FF8_0000_0000_0001, 0xFFF0_0000_0000_0002])
    _assert_repr([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1e16,
                  9999999999999998.0, 1e-05, 0.0001, 5e-324, -1e-323,
                  1.7976931348623157e308, 2.2250738585072014e-308,
                  123456789012345680.0, 0.1, 100.0, -1.5, *nan_payload])
    assert _floatrepr.fields([]).shape == (0, _floatrepr.WIDTH)


def test_fields_are_chunked_and_laid_out():
    # more values than one pass takes, in an array of two dimensions
    values = np.random.default_rng(3).normal(size=(3, _floatrepr.CHUNK + 7))
    values[1, ::3] *= 1e-9
    values[2, ::5] = -0.0
    _assert_repr(values.ravel())
    assert np.array_equal(_floatrepr.fields(values),
                          _floatrepr.fields(values.ravel()))


@pytest.mark.parametrize("size", [k * _floatrepr.CHUNK + d
                                  for k in (1, 3) for d in (-1, 0, 1)])
def test_fields_match_repr_around_chunk_multiples(size):
    # the values are cut into equal chunks of at most CHUNK
    values = np.random.default_rng(size).normal(size=size)
    values *= 10.0 ** np.random.default_rng(1).integers(-30, 30, size)
    values[::11] = -0.0
    _assert_repr(values)


@pytest.mark.slow
def test_exhaustive_patterns_match_repr():
    # opt in with ``-m slow``: 10^7 random patterns and the 2^20 smallest
    # subnormals, 250,000 values per pass
    rng = np.random.default_rng(1)
    for _ in range(40):
        _assert_repr(_bits(rng.integers(0, 2 ** 64, size=250_000,
                                        dtype=np.uint64)))
    for at in range(1, 2 ** 20 + 1, 2 ** 18):
        _assert_repr(_bits(np.arange(at, at + 2 ** 18)))
