"""CSV rows of floats, every cell exactly Python's ``'%.17g' % v``.

``write_csv`` writes each row of a float table as
``",".join('%.17g' % v for v in row) + "\\n"``, byte for byte, from numpy
arrays in chunks of ``CHUNK_ROWS`` rows, one ``write`` per chunk.

``'%.17g'`` is the correctly rounded 17-digit decimal of the double.  For
a cell with 1e-280 <= |x| < 1e280 the kernel forms it without Python's
bignum conversion:

- X = floor(log10 |x|) is estimated, and |x| 10^(16 - X) is formed as a
  double-double p + lo: Dekker's exact product of |x| with the double
  nearest 10^k, plus |x| times the double nearest the remainder of 10^k.
  Both come from a table built once with exact integer arithmetic.  The
  pair is within about 1e-14 of the true product.
- Where the unrounded pair lies outside [1e16, 1e17), X was off by one
  and moves.  p >= 1e16 > 2^53 is then an integer, so the 17 digits are
  D = p + rint(lo); D = 10^17 carries into the exponent.
- The digits are laid out by the ``%g`` rules: exponent form iff X < -4
  or X >= 17, with at least two exponent digits, otherwise fixed form;
  trailing zeros and a bare dot are dropped.

Each cell is written into a fixed-width byte field padded with NUL, and
each chunk is compacted into one string by dropping the NULs.

Every other cell takes ``'%.17g' % v`` itself: non-finite cells, +-0,
cells outside that range, and cells whose ``lo - rint(lo)`` lies within
1e-6 of +-0.5, where the rounding of the 17th digit is not settled by
the pair's error bound.
"""

from __future__ import annotations

import functools

import numpy as np

#: rows formatted per chunk, and so per ``write``
CHUNK_ROWS = 512

_TINY, _HUGE = 1e-280, 1e280
# the powers 10^k, k = 16 - X, for every X an estimate or one move can
# give on that range
_K_MIN, _K_MAX = -265, 298
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant
_TIE = 1e-6

# A cell's field is 32 bytes, from eight uint32 words of text: the sign;
# four zeros and the 17 digits, from "000d" and four groups of four;
# "e-123" and the separator.  The digits before the dot are taken one
# byte to the left, which leaves room for the dot; the text shows "0."
# and the zeros of a fixed-form cell below 1 the same way.  Masks keep
# what each cell shows and NUL the rest.
_WIDTH = 32
_FIRST = 7  # byte of the first digit
_SEP = 29  # byte of the separator
_EXP_RANGE = 300  # |X| of every exponent the tail table covers
_ZERO = ord("0")


@functools.lru_cache(maxsize=None)
def _tables():
    """The tables of the kernel, built on first use:

    - pow10: (4, k) rows hi_1, hi_2, hi, lo with hi + lo = 10^k, k from
      _K_MIN to _K_MAX, and hi = hi_1 + hi_2 split into 26-bit halves;
    - ascii4: the ASCII of 0000..9999 as uint32 words;
    - zeros4: the trailing zeros of 0..9999 written with four digits;
    - sign: the first text word of a positive and of a negative cell;
    - tail: "e-XXX" and the separator by X + _EXP_RANGE, as uint64 words;
      only the separator in fixed form;
    - whole, frac, dot: masks by e, the text byte where the digits after
      the dot start, and s, the count of significant digits: whole[e]
      keeps the digits before the dot, frac[18 e + s] the sign, the
      digits after the dot and the tail, dot[18 e + s] adds the dot.
    """
    pairs = []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        hi = num / den  # int true division rounds correctly
        n, d = hi.as_integer_ratio()
        pairs.append((hi, (num * d - n * den) / (den * d)))
    hi, lo = np.array(pairs).T
    c = hi * _SPLIT
    h1 = c - (c - hi)
    pow10 = np.stack((h1, hi - h1, hi, lo))
    i = np.arange(10000)
    digits = i[:, None] // np.array([1000, 100, 10, 1]) % 10
    ascii4 = (digits + _ZERO).astype(np.uint8).view(np.uint32).ravel()
    zeros4 = sum(i % m == 0 for m in (10, 100, 1000, 10000))
    sign = np.frombuffer(b"\0\0\0" b"0" b"-\0\0" b"0", np.uint32)
    tail = np.array([("e%+03d" % x if x < -4 or x >= 17 else "")
                     .ljust(_SEP - 24, "\0") + ","
                     for x in range(-_EXP_RANGE, _EXP_RANGE + 1)],
                    dtype="S8").view(np.uint64)
    pos = np.arange(_WIDTH)
    e = np.arange(25)[:, None, None]
    s = np.arange(18)[:, None]
    # the text bytes from min(_FIRST, e - 1) up to e, one byte to the left
    whole = (pos >= np.minimum(_FIRST, e[:, 0] - 1) - 1) & (pos < e[:, 0] - 1)
    frac = (pos == 0) | (pos >= 24) | ((pos >= e) & (pos < _FIRST + s))
    dot = (pos == e - 1) & (_FIRST + s > e)
    masks = [np.where(m, 255, 0).astype(np.uint8).reshape(-1, _WIDTH)
             for m in (whole, frac)]
    return (pow10, ascii4, zeros4, sign, tail, *masks,
            np.where(dot, ord("."), 0).astype(np.uint8).reshape(-1, _WIDTH))


def _scaled(a, X):
    """|x| 10^(16 - X) as the unevaluated pair p + lo, p = fl(|x| hi)."""
    h1, h2, hi, lo10 = np.take(_tables()[0], 16 - X - _K_MIN, axis=1)
    c = a * _SPLIT
    a1 = c - (c - a)
    a2 = a - a1
    p = a * hi
    lo = (((a1 * h1 - p) + a1 * h2 + a2 * h1) + a2 * h2) + a * lo10
    return p, lo


def _outside(p, lo):
    """-1 where p + lo < 1e16, 1 where p + lo >= 1e17, else 0."""
    below = (p < 1e16) | ((p == 1e16) & (lo < 0))
    above = (p > 1e17) | ((p == 1e17) & (lo >= 0))
    return above.astype(np.intp) - below


def _fields(v):
    """The (n, _WIDTH) NUL-padded byte fields of the flat float64 cells v,
    each ended by ","."""
    _, ascii4, zeros4, sign, tail, whole, frac, dot = _tables()
    a = np.abs(v)
    ok = (a >= _TINY) & (a < _HUGE)
    a[~ok] = 1.0
    X = np.floor(np.log10(a)).astype(np.intp)
    p, lo = _scaled(a, X)
    step = _outside(p, lo)
    move = np.flatnonzero(step)
    if move.size:
        X[move] += step[move]
        p[move], lo[move] = _scaled(a[move], X[move])
        ok[move[_outside(p[move], lo[move]) != 0]] = False
    r = np.rint(lo)
    ok &= np.abs(np.abs(lo - r) - 0.5) > _TIE
    D = p.astype(np.int64) + r.astype(np.int64)
    top = D == 10 ** 17
    D[top] = 10 ** 16
    X[top] += 1

    # "000d" and four groups of four digits: the text's words 1 to 5
    upper = D // 10 ** 8
    first = upper // 10 ** 8
    groups = []
    for num in (upper - first * 10 ** 8, D - upper * 10 ** 8):
        high = num // 10 ** 4
        groups += [high, num - high * 10 ** 4]
    text = np.empty((v.size, _WIDTH // 4), np.uint32)
    text[:, 0] = sign.take(v < 0)
    for col, group in enumerate([first] + groups, 1):
        text[:, col] = ascii4.take(group)
    text.view(np.uint64)[:, 3] = tail.take(X + _EXP_RANGE)
    b = text.view(np.uint8)
    significant = 17 - zeros4.take(groups[-1])
    zero_tail = np.flatnonzero(groups[-1] == 0)
    significant[zero_tail] = 17 - np.argmax(
        b[zero_tail, _FIRST + 16:_FIRST - 1:-1] != _ZERO, axis=1)

    # e, the text byte of the first digit after the dot: one digit stands
    # before the dot in exponent form, X + 1 digits in fixed form, and the
    # text's zeros give the "0." and the zeros below 1
    e = np.where((X < -4) | (X >= 17), _FIRST + 1, _FIRST + 1 + X)
    key = 18 * e + significant
    f = np.take(frac, key, axis=0)
    f &= b
    f |= np.take(dot, key, axis=0)
    shown = np.take(whole, e, axis=0).ravel()
    shown[:-1] &= b.ravel()[1:]
    f |= shown.reshape(f.shape)

    rest = np.flatnonzero(~ok)
    if rest.size:
        # the definition itself, once per distinct bit pattern
        bits, inverse = np.unique(v[rest].view(np.int64), return_inverse=True)
        cells = np.array([("%.17g" % x).ljust(_SEP, "\0") + ","
                          for x in bits.view(np.float64).tolist()],
                         dtype=f"S{_WIDTH}").view(np.uint8)
        f[rest] = cells.reshape(bits.size, _WIDTH)[inverse]
    return f


def _chunk(table, heads):
    """The rows of the 2-D float table as one string."""
    rows, cols = table.shape
    f = _fields(np.ascontiguousarray(table, dtype=np.float64).ravel())
    buf = f.reshape(rows, cols * _WIDTH)
    buf[:, _SEP - _WIDTH] = ord("\n")
    if heads is not None:
        buf = np.concatenate((heads.view(np.uint8).reshape(rows, -1), buf),
                             axis=1)
    return buf.tobytes().translate(None, b"\0").decode("ascii")


def write_csv(stream, header, table, heads=None):
    """Write the line ``",".join(header)`` and then every row of the 2-D
    float table as ``",".join('%.17g' % v for v in row) + "\\n"``.

    heads, if given, is a 1-D bytes array (numpy ``S`` dtype) with one
    ASCII prefix per row, written before the row's first cell.  Each chunk
    of rows is one ``stream.write``; the header goes with the first.
    """
    text = ",".join(header) + "\n"
    for start in range(0, len(table), CHUNK_ROWS):
        stop = start + CHUNK_ROWS
        stream.write(text + _chunk(table[start:stop], None if heads is None
                                   else heads[start:stop]))
        text = ""
    if text:
        stream.write(text)
