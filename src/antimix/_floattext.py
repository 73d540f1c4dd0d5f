"""repr(float(x)) for whole float64 arrays, byte for byte, and CSV rows of it.

repr gives the shortest decimal string that reads back to the same float,
and of those the one nearest to it (Gay's dtoa, mode 0: D. M. Gay, "Correctly
rounded binary-decimal and decimal-binary conversions", 1990; the same digits
as Ryu, U. Adams, PLDI 2018).  `_render` finds those digits for a block at
once.  For finite x, not a power of two, with 2^-929 <= |x| < 2^930:

- E = floor(log10 |x|) and S = |x| 10^(16 - E), an exact double-double
  product (Dekker's TwoProduct) with 10^(16 - E) from a (hi, lo) table, so S
  lies in [10^16, 10^17) and M = floor(S) has 17 digits;
- x reads back from every decimal strictly within H = ulp(x)/2 10^(16 - E)
  of S (in units of S's last digit), and 0.555 < H < 11.1;
- the d-digit candidate is S rounded to a multiple of 10^(17 - d); it reads
  back when its distance to S is below H.  That holds for d = 17, and once it
  fails for some d it fails for every smaller d, so the digits are the
  candidate of the smallest passing d.

Two tests find that d.  d = 16 and d = 15 are tried on the whole block: the
multiples of 10 and of 100 nearest S.  Past 15 no test is needed.  If C, the
multiple of 100 nearest S, reads back, it is within H < 11.1 of S, and every
other multiple of 100 is more than 100 - 11.1 > H away.  So a multiple of
10^(2 + j) reads back only if it is C, at C's distance: d = 15 - j reads back
exactly when C is a multiple of 10^(2 + j), and d is 17 less C's trailing
zeros (at least 1).

S carries a relative error below 3 2^-106 (the table's lo is rounded, and so
is |x| lo), under 4e-15 of S's last digit, and the distances add two
roundings of numbers below 100, under 2e-14.  So every distance within
_MARGIN = 1e-6 of H at d = 16 or 15, every tie between the two nearest
candidates, and every S that fell outside [10^16, 10^17) (log10 off by one
next to a power of ten) is left to repr itself, as are the values outside
the fast range: nan, inf, zeros, subnormals, powers of two (whose rounding
interval is not symmetric) and |x| beyond 2^+-930.

A cell is four little-endian uint64 words, assembled a word at a time:

- word 0: the sign and the "0.000" that leads 1e-4 <= |x| < 1;
- words 1-3, bytes 0-17: the 18 digits of I 10^(k+1) + F, where I 10^k + F
  is the candidate with k digits after the point: the point gets a zero
  digit of its own, which the tables overwrite.  Each 8 digits are two
  lookups in a table of 0000 .. 9999;
- word 3, bytes 2-6: "e-308", from a table by E; byte 7 is left NUL for the
  CSV separator.

A row of the layout tables, picked by the sign, E clipped to [-5, 16] and
d, gives 10^k, the mask of each word's visible bytes and the bytes it sets:
the sign, the prefix and the point.
"""

from __future__ import annotations

import functools

import numpy as np

from .units import _product_error, _split

# A cell is WIDTH bytes of ASCII (at most 24: "-1.2345678901234567e-308"),
# NUL where a value does not use a byte; the CSV rows drop the NULs.
WIDTH = 32

_BLOCK = 4096  # values a kernel call takes at once; keeps every buffer small
_MARGIN = 1e-6

_U64 = np.uint64
_EXPONENT_BITS = _U64(0x7FF0000000000000)
_EXP_LIMIT = 930  # 2^930 ~ 9.1e279: E stays in [-280, 279]
_FAST_LOW = _U64(1023 - _EXP_LIMIT + 1)  # biased exponents of the fast range,
_FAST_SPAN = _U64(2 * _EXP_LIMIT - 1)  # [_FAST_LOW, _FAST_LOW + _FAST_SPAN)

_POW_MIN = 16 - 280  # 10^k for k = 16 - E, E = floor(log10 |x|) off by at most one
_POW_MAX = 16 + 282


def _pow10_table() -> tuple[np.ndarray, np.ndarray]:
    """10^k = hi + lo for k in [_POW_MIN, _POW_MAX), both correctly rounded.

    From exact ints: float(int) and int / int round correctly, and
    10^-m - a/b = (b - a 10^m) / (b 10^m) when hi = a/b.
    """
    hi, lo = [], []
    den = 10 ** -_POW_MIN
    for _ in range(_POW_MIN, 0):
        h = 1 / den
        a, b = h.as_integer_ratio()
        hi.append(h)
        lo.append((b - a * den) / (b * den))
        den //= 10
    num = 1
    for _ in range(0, _POW_MAX):
        h = float(num)
        hi.append(h)
        lo.append(float(num - int(h)))
        num *= 10
    return np.array(hi), np.array(lo)


_P_HI, _P_LO = _pow10_table()
_POW10 = np.stack([_P_HI, *_split(_P_HI), _P_LO], axis=1)  # rows: hi, hi's two halves, lo
_MOD10 = np.array([r % 10 for r in range(100)], dtype=np.float64)  # r mod 10 for r < 100

# rows of the layout tables: sign, then E clipped to [_E_LOW, _E_HIGH], then d
_E_LOW, _E_HIGH = -5, 16  # -5 stands for every E < -4, 16 for every E >= 16
_ROWS = (_E_HIGH - _E_LOW + 1) * 17
_EXP_OFFSET = 400  # the E tables cover [-_EXP_OFFSET, _EXP_OFFSET)


@functools.cache
def _layout() -> tuple[np.ndarray, ...]:
    """The cell tables, built on the first render, so a command that writes
    no CSV does not pay for them:

    - by E + _EXP_OFFSET: its first row, less one (d digits take row + d),
      and word 3 of a scientific cell, "e-05" .. "e+308";
    - by row: 10^k for the k digits after the point (1 for none), and
      (4, rows) the visible bytes of each cell word and the bytes it sets:
      the sign, "0.000" and the point, at byte a + 1 of the digit field when
      it follows digit a;
    - "00" .. "99" as uint64, and "0000" .. "9999" as the low and as the high
      half of a uint64.
    """
    power, mask, chars = [], bytearray(), bytearray()
    for sign in (b"\0", b"-"):
        for e10 in range(_E_LOW, _E_HIGH + 1):
            # fixed notation for 1e-4 <= |x| < 1e16, with the integer's zeros
            # and a digit after the point; else d.ddde+XX
            fixed = -4 <= e10 < 16
            lead = 1 - e10 if fixed and e10 < 0 else 0  # "0." and -E - 1 zeros
            for ndigits in range(1, 18):
                if fixed and e10 >= 0:
                    after, shown = e10, max(ndigits, e10 + 2)
                else:
                    after, shown = (-1 if fixed or ndigits == 1 else 0), ndigits  # -1: no point
                power.append(10 ** (16 - after) if after >= 0 else 1)
                row_chars = bytearray(sign + b"0.000"[:lead] + bytes(WIDTH - 1 - lead))
                row_mask = bytearray(WIDTH)
                visible = shown + (after >= 0)
                row_mask[8:8 + visible] = b"\xff" * visible
                if after >= 0:
                    row_mask[9 + after], row_chars[9 + after] = 0, ord(".")
                if not fixed:
                    row_mask[26:31] = b"\xff" * 5  # the exponent
                mask += row_mask
                chars += row_chars

    def words(table: bytes) -> np.ndarray:
        return np.ascontiguousarray(np.frombuffer(table, dtype=_U64).reshape(-1, 4).T)

    e10s = range(-_EXP_OFFSET, _EXP_OFFSET)
    exponent = b"".join(bytes(8) if -4 <= e10 < 16 else f"\0\0e{e10:+03d}".encode().ljust(8, b"\0")
                        for e10 in e10s)
    pairs = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), dtype=np.uint16).astype(_U64)
    quads = (pairs[:, None] | (pairs[None, :] << _U64(16))).reshape(-1)
    row_of_e10 = np.array([(min(max(e10, _E_LOW), _E_HIGH) - _E_LOW) * 17 - 1 for e10 in e10s])
    return (row_of_e10, np.frombuffer(exponent, dtype=_U64), np.array(power), words(mask),
            words(chars), pairs, quads, quads << _U64(32))


def _scaled(x: np.ndarray, bits: np.ndarray):
    """Whether x is in the fast range, and E, M = floor(S), frac = S - M and
    H for S = |x| 10^(16 - E); x outside the fast range is worked as 1.5."""
    fast = ((bits & _EXPONENT_BITS) >> _U64(52)) - _FAST_LOW < _FAST_SPAN
    fast &= bits << _U64(12) != 0  # not a power of two
    ax = np.where(fast, np.abs(x), 1.5)
    e10 = np.floor(np.log10(ax)).astype(np.int64)
    p_hi, p_hi_hi, p_hi_lo, p_lo = _POW10.take(16 - _POW_MIN - e10, axis=0).T
    prod = ax * p_hi
    err = _product_error(ax, p_hi_hi, p_hi_lo, prod)
    err += ax * p_lo
    s_hi = prod + err
    s_lo = err - (s_hi - prod)
    floor_lo = np.floor(s_lo)
    m = s_hi.astype(np.int64) + floor_lo.astype(np.int64)  # s_hi >= 2^53 is an integer
    # ulp(x)/2 = 2^(e - 53) for |x| = 1.f 2^e: ax with its mantissa cleared, times 2^-53
    half_ulp = (ax.view(_U64) & _EXPONENT_BITS).view(np.float64) * 2.0**-53
    return fast, e10, m, s_lo - floor_lo, p_hi * half_ulp


def _nearest(r: np.ndarray, frac: np.ndarray, half_width: np.ndarray, q: float):
    """S = m + frac rounded to a multiple of q, with r = m mod q as a float:
    that multiple less m, whether it reads back (its distance to S is below
    half_width) and whether that answer could be wrong; and r + frac, S's
    distance to the multiple below."""
    down = r + frac  # and q - down to the multiple above
    above = half_width - np.minimum(down, q - down)
    return q * (down > 0.5 * q) - r, above > 0, np.abs(above) < _MARGIN, down


def _shortest(m: np.ndarray, frac: np.ndarray, half_width: np.ndarray):
    """The candidate of the smallest d that reads back, d, and whether unsure.

    d = 17, the nearest integer at most 1/2 < H away, always reads back; d = 16
    and 15 are tested on all, and the shorter d from the trailing zeros of the
    d = 15 candidate (see the module docstring).
    """
    unsure = (np.abs(frac - 0.5) < _MARGIN) | ((m - 10**16).view(_U64) >= 9 * 10**16)
    r100 = m - 100 * (m // 100)
    step10, passes10, unsure10, down10 = _nearest(_MOD10.take(r100), frac, half_width, 10.0)
    step100, passes100, unsure100, _ = _nearest(r100.astype(np.float64), frac, half_width, 100.0)
    # a tie (S midway) reads back only at q = 10 (q/2 < H < 11.1), and d = 15
    # counts only where d = 16 passed
    tie = np.abs(down10 - 5.0) < 0.5 * _MARGIN
    unsure |= unsure10 | (passes10 & (tie | unsure100))
    passes100 &= passes10
    n = m + np.where(passes100, step100, np.where(passes10, step10, frac > 0.5)).astype(np.int64)
    ndigits = 17 - passes10.astype(np.int64) - passes100
    short = np.flatnonzero(passes100)
    if short.size:
        rest = n[short] // 100  # at most 10^15: 15 trailing zeros or fewer
        zeros = np.zeros(short.size, dtype=np.int64)
        for k in (8, 4, 2, 1):
            whole = rest % 10**k == 0
            rest = np.where(whole, rest // 10**k, rest)
            zeros += k * whole
        ndigits[short] = np.maximum(15 - zeros, 1)
    return n, ndigits, unsure


def _render(values: np.ndarray, out: np.ndarray) -> int:
    """Write the cell of each of values (r, c) into out (r, c, WIDTH).

    Returns how many cells were left to repr.
    """
    shape = values.shape
    x = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    bits = x.view(_U64)
    fast, e10, m, frac, half_width = _scaled(x, bits)
    n, ndigits, unsure = _shortest(m, frac, half_width)
    unsure |= ~fast
    carry = np.flatnonzero(n == 10**17)  # 99.96 -> 100: one digit, one decade up
    n[carry] = 10**16
    e10[carry] += 1

    row_of_e10, exponent, point_power, mask, chars, pairs, quads_low, quads_high = _layout()
    row = row_of_e10.take(e10 + _EXP_OFFSET) + ndigits
    row += (bits >> _U64(63)).view(np.int64) * _ROWS
    # open a zero digit for the point: I 10^k + F -> I 10^(k+1) + F
    n = 10 * n - 9 * (n % point_power.take(row))
    head = n // 10**10  # digits 0-7 of 18
    tail = n - head * 10**10
    middle = tail // 100  # digits 8-15
    cell = np.empty((x.size, 4), dtype=_U64)
    cell[:, 0] = chars[0].take(row)
    for word, eight in ((1, head), (2, middle)):
        high = eight // 10000
        # an uncertified cell may hold any n: clip keeps its table reads in range
        digits = quads_low.take(high, mode="clip")
        digits |= quads_high.take(eight - 10000 * high, mode="clip")
        digits &= mask[word].take(row)
        np.bitwise_or(digits, chars[word].take(row), out=cell[:, word])
    digits = pairs.take(tail - 100 * middle, mode="clip")
    digits |= exponent.take(e10 + _EXP_OFFSET)
    digits &= mask[3].take(row)
    np.bitwise_or(digits, chars[3].take(row), out=cell[:, 3])
    out.view(_U64)[...] = cell.reshape(*shape, 4)

    slow = np.flatnonzero(unsure)
    if slow.size:
        text = b"".join(repr(c).encode().ljust(WIDTH, b"\0") for c in x[slow].tolist())
        out[np.unravel_index(slow, shape)] = np.frombuffer(text, dtype=np.uint8).reshape(-1, WIDTH)
    return slow.size


def repr_cells(values) -> np.ndarray:
    """(n, WIDTH) uint8: row i is the ASCII of repr(float(values[i])) with NULs."""
    x = np.asarray(values, dtype=np.float64).reshape(-1, 1)
    out = np.empty((x.shape[0], 1, WIDTH), dtype=np.uint8)
    for start in range(0, x.shape[0], _BLOCK):
        _render(x[start:start + _BLOCK], out[start:start + _BLOCK])
    return out.reshape(-1, WIDTH)


def csv_rows(header: str, first: np.ndarray, rest: np.ndarray) -> bytes:
    """A CSV file: the header line, then per row the cell `first` (n, WIDTH)
    from repr_cells and the repr of each value of the float row rest (n, k)."""
    rows, k = rest.shape
    step = max(1, _BLOCK // max(k, 1))
    line = np.empty((min(step, rows), k + 1, WIDTH), dtype=np.uint8)
    # the last byte of a cell is NUL until the separator goes there
    separators = np.full(k + 1, ord(","), dtype=np.uint8)
    separators[-1] = ord("\n")
    chunks = [header.encode() + b"\n"]
    for start in range(0, rows, step):
        block = line[:min(step, rows - start)]
        block[:, 0] = first[start:start + step]
        _render(rest[start:start + step], block[:, 1:])
        block[..., -1] = separators
        chunks.append(block.tobytes().translate(None, b"\0"))
    return b"".join(chunks)
