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

S carries a relative error below 3 2^-106 (the table's lo is rounded, and so
is |x| lo), under 4e-15 of S's last digit, and the distances add one rounding
of a number below 12, under 2e-15.  So every distance within _MARGIN = 1e-6
of H, every tie between the two nearest candidates, and every S that fell
outside [10^16, 10^17) (log10 off by one next to a power of ten) is left to
repr itself, as are the values outside the fast range: nan, inf, zeros,
subnormals, powers of two (whose rounding interval is not symmetric) and
|x| beyond 2^+-930.
"""

from __future__ import annotations

import numpy as np

from .units import _product_error, _split

# A cell is WIDTH bytes: the sign, the "0.000" that leads 1e-4 <= |x| < 1,
# the 17 digits with a slot for the point after each of the first 16, and
# "e+308".  NUL bytes fill what a value does not use; the CSV rows drop them.
WIDTH = 44
_PREFIX, _DIGITS, _POINTS, _EXPONENT = slice(1, 6), slice(6, 39, 2), slice(7, 38, 2), slice(39, 44)
_ZERO_POINT = np.frombuffer(b"0.000", dtype=np.uint8)
_DIGIT_COLUMNS = np.arange(17)

_BLOCK = 4096  # values a kernel call takes at once; keeps every buffer small
_MARGIN = 1e-6

_EXP_BIAS = 1023
_EXP_LIMIT = 930  # 2^930 ~ 9.1e279: E stays in [-280, 279]
_MANTISSA = np.uint64((1 << 52) - 1)

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
_P_HI_HI, _P_HI_LO = _split(_P_HI)

# the characters of 00 .. 99, two bytes per entry, read as one uint16
_PAIRS = np.array([f"{i:02d}".encode() for i in range(100)]).view(np.uint16)


def _nearest(m: np.ndarray, frac: np.ndarray, half_width: np.ndarray, q: int):
    """S = m + frac rounded to a multiple of q > 1: that multiple, whether it
    reads back (its distance to S is below half_width), and whether either
    answer could be wrong."""
    r = m - q * (m // q)
    down = r + frac  # distance to m - r
    up = (q - r) - frac  # distance to m - r + q
    dist = np.minimum(down, up)
    passes = dist < half_width
    unsure = np.abs(dist - half_width) < _MARGIN
    if q == 10:  # a tie that reads back needs q/2 < H < 11.1
        unsure |= passes & (np.abs(up - down) < _MARGIN)
    return m - r + q * (up < down), passes, unsure


def _scaled(ax: np.ndarray, exponent: np.ndarray):
    """E, M = floor(S), frac = S - M and H for S = |x| 10^(16 - E)."""
    e10 = np.floor(np.log10(ax)).astype(np.int64)
    k = 16 - e10 - _POW_MIN
    p_hi = _P_HI[k]
    prod = ax * p_hi
    err = _product_error(ax, _P_HI_HI[k], _P_HI_LO[k], prod)
    err += ax * _P_LO[k]
    s_hi = prod + err
    s_lo = err - (s_hi - prod)
    floor_lo = np.floor(s_lo)
    m = s_hi.astype(np.int64) + floor_lo.astype(np.int64)  # s_hi >= 2^53 is an integer
    return e10, m, s_lo - floor_lo, np.ldexp(p_hi, (exponent - 53).astype(np.int32))


def _shortest(m: np.ndarray, frac: np.ndarray, half_width: np.ndarray):
    """The candidate of the smallest d that reads back, d, and whether unsure.

    d = 17, the nearest integer at most 1/2 < H away, always reads back; then
    d = 16 is tried on all, and each smaller d on those that still pass.
    """
    n = m + (frac > 0.5)
    unsure = (np.abs(frac - 0.5) < _MARGIN) | (m < 10**16) | (m >= 10**17)
    ndigits = np.full(m.size, 17, dtype=np.int8)
    live = np.arange(m.size)
    for d in range(16, 0, -1):
        cand, passes, unsure_d = _nearest(m, frac, half_width, 10 ** (17 - d))
        unsure[live[unsure_d]] = True
        live, m, frac, half_width = live[passes], m[passes], frac[passes], half_width[passes]
        if not live.size:
            break
        n[live] = cand[passes]
        ndigits[live] = d
    return n, ndigits, unsure


def _digits(n: np.ndarray) -> np.ndarray:
    """(len(n), 17) uint8: the 17 digits of each n, two at a time from the right."""
    chars = np.empty((n.size, 9), dtype=np.uint16)
    for j in range(8, -1, -1):
        rest = n // 100
        chars[:, j] = _PAIRS[n - 100 * rest]
        n = rest
    return chars.view(np.uint8)[:, 1:]  # past the leading '0'


def _render(values: np.ndarray, out: np.ndarray) -> int:
    """Write the cell of each of values (r, c) into out (r, c, WIDTH).

    Returns how many cells were left to repr.
    """
    shape = values.shape
    x = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    bits = x.view(np.uint64)
    exponent = ((bits >> np.uint64(52)) & np.uint64(0x7FF)).astype(np.int64) - _EXP_BIAS
    fast = (np.abs(exponent) < _EXP_LIMIT) & (bits & _MANTISSA != 0)
    # the other cells are worked as 1.5 (exponent 0) and written over by repr
    exponent[~fast] = 0
    e10, m, frac, half_width = _scaled(np.where(fast, np.abs(x), 1.5), exponent)
    n, ndigits, unsure = _shortest(m, frac, half_width)
    unsure |= ~fast
    carry = n == 10**17  # 99.96 -> 100: one digit, one decade up
    n[carry] = 10**16
    e10 += carry
    digits = _digits(n)

    # fixed notation for 1e-4 <= |x| < 1e16, with the integer's zeros and a
    # digit after the point; else d.ddde+XX
    fixed = (e10 >= -4) & (e10 < 16)
    point = fixed & (e10 >= 0)
    shown = np.where(point, np.maximum(ndigits, e10 + 2), ndigits)
    # the digit the point follows, or -1 for none
    after = np.where(point, e10, np.where(~fixed & (ndigits > 1), 0, -1))
    scientific = ~fixed
    abs_e10 = np.abs(e10)
    out[..., 0] = ((bits >> np.uint64(63)).astype(np.uint8) * np.uint8(ord("-"))).reshape(shape)
    lead = np.where(fixed & (e10 < 0), 1 - e10, 0)  # "0." and -E - 1 zeros
    out[..., _PREFIX] = (_ZERO_POINT * (_DIGIT_COLUMNS[:5] < lead[:, None])).reshape(*shape, 5)
    out[..., _DIGITS] = (digits * (_DIGIT_COLUMNS < shown[:, None])).reshape(*shape, 17)
    points = (_DIGIT_COLUMNS[:16] == after[:, None]) * np.uint8(ord("."))
    out[..., _POINTS] = points.reshape(*shape, 16)
    exp = out[..., _EXPONENT]
    exp[..., 0] = (scientific * ord("e")).reshape(shape)
    exp[..., 1] = (scientific * np.where(e10 < 0, ord("-"), ord("+"))).reshape(shape)
    exp[..., 2] = ((scientific & (abs_e10 >= 100)) * (ord("0") + abs_e10 // 100)).reshape(shape)
    last_two = _PAIRS[abs_e10 % 100].view(np.uint8).reshape(-1, 2) * scientific[:, None]
    exp[..., 3:] = last_two.reshape(*shape, 2)

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
    buffer = bytearray(min(step, rows) * (k + 1) * (WIDTH + 1))
    line = np.frombuffer(buffer, dtype=np.uint8).reshape(-1, k + 1, WIDTH + 1)
    line[:, :, WIDTH] = ord(",")
    line[:, -1, WIDTH] = ord("\n")
    chunks = [header.encode() + b"\n"]
    for start in range(0, rows, step):
        block = line[:min(step, rows - start)]
        block[:, 0, :WIDTH] = first[start:start + step]
        _render(rest[start:start + step], block[:, 1:, :WIDTH])
        text = buffer if block.shape[0] == line.shape[0] else buffer[:block.nbytes]
        chunks.append(text.translate(None, b"\0"))
    return b"".join(chunks)
