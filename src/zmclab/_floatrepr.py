"""Shortest round-trip text of float64 arrays, vectorized.

``fields(values)`` returns an (N, ``WIDTH``) uint8 array whose row i holds
the ASCII bytes of ``repr(float(values[i]))``, padded with NUL bytes that
may also sit inside the field; a writer drops every NUL of its rows at
once.

The digits come from Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020), the algorithm behind the JDK's ``Double.toString``,
written in uint64 numpy: a table of 126-bit powers of ten g, and the three
products g * c' (c' the significand and the two ends of its rounding
interval, scaled) as 64x64 -> 128-bit products from 32-bit halves, rounded
to odd.  Two departures give Python's shortest digits instead of the
JDK's: the two smallest subnormals are not scaled by 10 (the JDK wants two
digits), and the candidate one digit shorter is tried from s >= 10 on, not
from s >= 100.  The layout then follows ``repr``: fixed notation for
-4 < decpt <= 16 (with ``.0`` after an integer, ``0.000...`` below 1),
``d.ddde+XX`` otherwise, and ``0.0``, ``nan`` and ``inf`` with their signs
as ``repr`` spells them.

Every scalar in the digit arithmetic is an explicit ``np.uint64``, so that
no numpy version promotes an operand to float64.  The tables are built on
first use.
"""

from __future__ import annotations

import functools

import numpy as np

#: bytes per field: a sign, 17 digits, a point and ``e-308``
WIDTH = 24
#: values per formatter pass at most, so that the temporaries stay small
CHUNK = 4096

_U = np.uint64
_M32 = _U(0xFFFF_FFFF)
_M63 = _U(2 ** 63 - 1)
_T_MASK = _U(2 ** 52 - 1)
_C_MIN = _U(2 ** 52)
_NOT_SIGN = _U(2 ** 63 - 1)
_ONE = _U(1)
_TWO = _U(2)
_TEN = _U(10)
_ZERO_U = _U(0)
_32, _52, _63 = _U(32), _U(52), _U(63)
_INF = _U(0x7FF0_0000_0000_0000)
_GIGA = _U(10 ** 9)
_TEN32 = np.uint32(10)
#: 1..17, the digit count up to each place
_PLACES = np.arange(1, 18, dtype=np.uint8)
#: 0..17, the places of a fixed-notation body
_COLUMNS = np.arange(18, dtype=np.uint8)
#: 10**i, i = 0..17
_POW10 = np.array([10 ** i for i in range(18)], dtype=np.uint64)
_K_MIN, _K_MAX = -324, 292
_DOT, _ZERO, _MINUS = ord("."), ord("0"), ord("-")


def _flog10pow2(e):
    """floor(log10(2**e)), exact for |e| <= 5456721."""
    return (e * 661_971_961_083) >> 41


def _flog10_three_quarters_pow2(e):
    """floor(log10(3/4 * 2**e)), exact for |e| <= 5456721."""
    return (e * 661_971_961_083 - 274_743_187_321) >> 41


def _flog2pow10(e):
    """floor(log2(10**e)), exact for |e| <= 6432162."""
    return (e * 913_124_641_741) >> 38


def _g(k: int) -> int:
    """floor(10**-k / 2**r) + 1 with r = floor(log2(10**-k)) - 125, so
    that 2**125 < g <= 2**126."""
    num, den = (10 ** -k, 1) if k <= 0 else (1, 10 ** k)
    r = _flog2pow10(-k) - 125
    if r >= 0:
        den <<= r
    else:
        num <<= -r
    return num // den + 1


@functools.cache
def _tables():
    """Per biased exponent, for regular spacing (columns 0..2047) and for
    irregular spacing (a power of two above the least normal, columns
    2048..4095): the uint64 rows k + 400, h, g1 and the 32-bit halves of g1
    and g0, where 10**k <= the spacing, h = q + floor(log2(10**-k)) + 2 is
    the shift of the scaled significand, and g = g1 * 2**63 + g0 =
    ``_g(k)``.  Columns no float64 uses are clipped into the range of k."""
    gs = [_g(k) for k in range(_K_MIN, _K_MAX + 1)]
    table = np.zeros((7, 4096), dtype=np.uint64)
    for at in range(4096):
        irregular, bq = divmod(at, 2048)
        q = max(bq, 1) - 1075
        k = (_flog10_three_quarters_pow2 if irregular else _flog10pow2)(q)
        k = min(max(k, _K_MIN), _K_MAX)
        g = gs[k - _K_MIN]
        g1, g0 = g >> 63, g & (2 ** 63 - 1)
        table[:, at] = [k + 400, q + _flog2pow10(-k) + 2, g1, g1 >> 32,
                        g1 & 0xFFFF_FFFF, g0 >> 32, g0 & 0xFFFF_FFFF]
    table.flags.writeable = False
    return table


@functools.cache
def _exponents():
    """The bytes ``e-XX`` / ``e+XXX`` of each decimal exponent -400..400,
    NUL-padded to 5, as a (801, 5) table."""
    table = np.zeros((801, 5), dtype=np.uint8)
    for at, e in enumerate(range(-400, 401)):
        text = f"e{e:+03d}".encode()
        table[at, :len(text)] = np.frombuffer(text, dtype=np.uint8)
    table.flags.writeable = False
    return table


def _mulhi(hi, lo, b0, b1):
    """The high 64 bits of g * b, g = hi * 2**32 + lo (halves at most 2**31
    and below 2**32), b = b1 * 2**32 + b0 (b1 below 2**28, as b < 2**60)."""
    mid = (lo * b0 >> _32) + lo * b1 + hi * b0  # below 2**64
    return hi * b1 + (mid >> _32)


def _rop(g1, g1h, g1l, g0h, g0l, cp):
    """floor(g * cp / 2**127), with its last bit set when the dropped part
    is not 0 (round to odd); g = g1 * 2**63 + g0."""
    b0, b1 = cp & _M32, cp >> _32
    z = (g1 * cp >> _ONE) + _mulhi(g0h, g0l, b0, b1)
    return (_mulhi(g1h, g1l, b0, b1) + (z >> _63)) | ((z & _M63) + _M63 >> _63)


def _shortest(bits):
    """(digits, k): the shortest decimal digits * 10**k that reads back as
    the positive finite float64 with these bits, the closest to it when
    several are as short."""
    bq = bits >> _52
    t = bits & _T_MASK
    c = np.where(bq > _ZERO_U, t | _C_MIN, t)
    irregular = (t == _ZERO_U) & (bq > _ONE)
    at = np.where(irregular, bq + _U(2048), bq).astype(np.intp)
    k, h, g1, g1h, g1l, g0h, g0l = (row.take(at) for row in _tables())
    cb = c << _TWO
    cp = np.stack((cb, cb - _TWO + irregular, cb + _TWO)) << h
    vb, vbl, vbr = _rop(g1, g1h, g1l, g0h, g0l, cp)
    odd = c & _ONE
    lo, hi = vbl + odd, vbr - odd  # the rounding interval's ends, scaled
    s = vb >> _TWO
    sp10 = s // _TEN * _TEN
    upin, wpin = lo <= sp10 << _TWO, sp10 + _TEN << _TWO <= hi
    short = (upin != wpin) & (s >= _TEN)
    uin, win = lo <= s << _TWO, s + _ONE << _TWO <= hi
    mid = (s << _TWO) + _TWO
    nearer = (vb < mid) | ((vb == mid) & ((s & _ONE) == _ZERO_U))
    take_s = np.where(uin != win, uin, nearer)
    digits = np.where(short, np.where(upin, sp10, sp10 + _TEN),
                      s + (~take_s).astype(np.uint64))
    return digits, k.astype(np.int64) - 400


def _digit_rows(digits):
    """(rows, count): the digits of each value as a (17, N) uint8 array,
    value j's digits left aligned down column j and zero-padded, and each
    value's digit count."""
    count = np.searchsorted(_POW10, digits, side="right")
    d17 = digits * _POW10[17 - count]
    top = d17 // _GIGA
    # the two halves, each below 10**9, one digit at a time from the right
    x = np.stack((top, d17 - top * _GIGA)).astype(np.uint32)
    rows = np.empty((2, 9, len(digits)), dtype=np.uint8)
    for at in range(8, -1, -1):
        q = x // _TEN32
        rows[:, at] = x - q * _TEN32
        x = q
    return rows.reshape(18, -1)[1:], count


def _fill(v):
    """The transposed fields, (WIDTH, N) uint8, of the float64 values v:
    a sign byte, then each value's body.  The three layouts (exponent,
    fixed at or above 1, fixed below 1) are built with arithmetic on
    (place, value) arrays, whose rows numpy runs as long contiguous loops,
    and masked together when a pass holds more than one."""
    bits = v.view(np.uint64)
    mag = bits & _NOT_SIGN
    out = np.zeros((WIDTH, v.size), dtype=np.uint8)
    out[0] = (bits > mag) * np.uint8(_MINUS)
    regular = (mag != _ZERO_U) & (mag < _INF)
    every = regular.all()
    at = slice(None) if every else np.flatnonzero(regular)
    if every or at.size:
        digits, k = _shortest(mag[at])
        d, count = _digit_rows(digits)
        sig = ((d != 0) * _PLACES[:, None]).max(axis=0)
        dp = k + count  # the point's place: value = 0.ddd * 10**dp
        exp = (dp <= -4) | (dp > 16)
        body = np.zeros((WIDTH - 1, dp.size), dtype=np.uint8)
        families = [(mask, layout) for mask, layout in (
            (exp, _exp_body), (~exp & (dp > 0), _int_body),
            (~exp & (dp <= 0), _frac_body)) if mask.any()]
        for mask, layout in families:
            b = layout(d, sig, dp)
            if len(families) > 1:
                b *= mask.view(np.uint8)
            body[:len(b)] += b
        out[1:, at] = body
    if not every:
        for text, mask in ((b"0.0", mag == _ZERO_U), (b"inf", mag == _INF)):
            out[1:4, mask] = np.frombuffer(text, dtype=np.uint8)[:, None]
        nan = mag > _INF
        out[:4, nan] = np.frombuffer(b"nan\0", dtype=np.uint8)[:, None]
    return out


def _significant(d, sig):
    """The ASCII digits, NUL past each value's first ``sig``."""
    return (d + np.uint8(_ZERO)) * (_PLACES[:, None] <= sig)


def _exp_body(d, sig, dp):
    """d.ddde+XX: the first digit, a point if more follow, the rest and
    the exponent."""
    dn = _significant(d, sig)
    return np.concatenate((dn[:1], ((sig > 1) * np.uint8(_DOT))[None],
                           dn[1:], _exponents()[dp + 399].T))


def _int_body(d, sig, dp):
    """ddd.ddd or ddd000.0, for 1 <= dp <= 16: the digits, zero-padded to
    one past the point, with the point inserted at dp."""
    e = np.zeros((19, dp.size), dtype=np.uint8)
    e[1:18] = _significant(d, np.maximum(sig, dp + 1))
    dp = np.clip(dp, 0, 18).astype(np.uint8)
    before, at = _COLUMNS[:, None] < dp, _COLUMNS[:, None] == dp
    shifted = e[:18]
    return (shifted + (e[1:] - shifted) * before
            + (np.uint8(_DOT) - shifted) * at)


def _frac_body(d, sig, dp):
    """0.000ddd, for -3 <= dp <= 0."""
    head = np.empty((5, dp.size), dtype=np.uint8)
    head[:2] = np.array([_ZERO, _DOT], dtype=np.uint8)[:, None]
    head[2:] = (_PLACES[:3, None] <= np.clip(-dp, 0, 4).astype(np.uint8)
                ) * np.uint8(_ZERO)
    return np.concatenate((head, _significant(d, sig)))


def fields(values) -> np.ndarray:
    """(N, WIDTH) uint8: row i the NUL-padded ASCII bytes of
    ``repr(float(values.flat[i]))``."""
    v = np.ascontiguousarray(values, dtype=np.float64).ravel()
    out = np.empty((v.size, WIDTH), dtype=np.uint8)
    step = -(-v.size // (-(-v.size // CHUNK) or 1)) or 1  # equal chunks
    for at in range(0, v.size, step):
        out[at:at + step] = _fill(v[at:at + step]).T
    return out

