"""The one CSV reader, CSV writer and JSON writer of bore_lab.

write_csv writes each value as the text '%.17g' % value gives, built in
numpy a block of values at a time.  For a finite x != 0 the text is the
17 significant digits of |x|, rounded half to even, laid out by the 'g'
rules.  With E = floor(log10|x|) they are the integer nearest to

    P = |x| * 10**(16 - E),   10**16 <= P < 10**17.

P is formed as a double-double (Dekker 1971) from a table pair hi + lo,
10**(16 - E) to 2**-106 relative, both halves correctly rounded from
Python ints: x and hi are each split in two 26-bit halves (Veltkamp), so
x * hi is the exact sum of a rounded product and its error, and x * lo is
added to the error.  For P < 1.5e17 the result is off by under 4e-15:
the table gives at most 1.2e-15, rounding x * lo (below 16) at most
0.9e-15, and adding it to the error term (below 32) at most 1.8e-15.
Rounding P to an integer decides differently from exact arithmetic only
when P lies within that error of a tie k + 1/2, so every P farther than
1e-6 from one rounds exactly as the exact product would.  E taken from
log(|x|) / log(10) may be off by one near a power of ten; the exact sign
of P - 10**16 and of P - 10**17 puts it right, and P rounding up to
10**17 raises E by one.

The digits and the layout are exact float arithmetic too: the digits as
q * 10**8 + r, 3-digit groups from a table, the last nonzero digit from
log2 of the digits' byte words, and the 'g' layout (fixed for
-4 <= E < 17, else d.ddde+XX; trailing zeros and a bare point dropped;
'-' for negatives and -0.0) in words of six bytes, each below 2**48,
cast to int64 and joined by deleting their pad bytes.  Staying in
float64, which the profile and PDE code already run, keeps the kernel
off numpy's integer and bitwise loops: paging those in cost ~0.7 MiB of
resident code in a process that formats a few values.

Only values the kernel cannot certify are formatted by '%.17g' one at a
time: nan and +-inf; 0 < |x| <= 1e-280 and |x| >= 1e280, a margin
before subnormals, the scale 10**(16 - E) or the splitting product
2**27 * x would leave the normal doubles and the product stop being
exact; and products within 1e-6 of a rounding tie, exact ties included.
+-0.0 go through the kernel.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import ConfigError

_MIN_ROWS = 10  # fewer samples resolve no profile or gauge trace
# Values formatted per block: bounds the kernel's transient arrays to a
# few hundred kB whatever the table length.
_BLOCK_VALUES = 2048
def read_csv(path, names):
    """The columns of a numeric CSV table, as float arrays.

    names is the header tuple the first line must match, or a column count
    for a table whose header is optional: then a first line holding a
    non-number is skipped.  One policy holds for every table: blank lines
    are skipped, every row holds exactly that many finite numbers, the
    first column strictly increases, and at least 10 rows follow.  A
    violation raises ConfigError naming the path and the line.
    """
    width = names if isinstance(names, int) else len(names)
    rows = []
    with open(path) as fh:
        lines = ((n, [p.strip() for p in raw.split(",")])
                 for n, raw in enumerate(fh, start=1) if raw.strip())
        for k, (lineno, parts) in enumerate(lines):
            at = f"{path}: line {lineno}"
            if k == 0 and not isinstance(names, int):
                if tuple(parts) != names:
                    raise ConfigError(f"{at}: expected the header {','.join(names)}")
                continue
            try:
                row = [float(p) for p in parts]
            except ValueError:
                if k == 0:
                    continue  # the optional header
                raise ConfigError(f"{at}: non-numeric value") from None
            if len(row) != width:
                raise ConfigError(f"{at}: expected {width} columns, got {len(row)}")
            if not all(map(math.isfinite, row)):
                raise ConfigError(f"{at}: non-finite value")
            if rows and row[0] <= rows[-1][0]:
                raise ConfigError(f"{at}: the first column must strictly increase")
            rows.append(row)
    if len(rows) < _MIN_ROWS:
        raise ConfigError(f"{path}: needs at least {_MIN_ROWS} rows, got {len(rows)}")
    return list(np.array(rows).T)


def _word(text: bytes, at: int = 0) -> int:
    """text as the bytes of a little-endian word, from byte at on."""
    return int.from_bytes(text, "little") << 8 * at


def _ten_pairs(exponents):
    """hi and lo with hi + lo = 10**(16 - E) to 2**-106, per exponent E."""
    hi, lo = [], []
    for e in exponents:
        k = 16 - e
        if k >= 0:
            n = 10**k
            h = float(n)
            low = float(n - int(h))
        else:
            d = 10**-k
            h = 1 / d  # correctly rounded, as is every int / int
            m, s = h.as_integer_ratio()
            low = math.ldexp((s - m * d) / d, 1 - s.bit_length())
        hi.append(h)
        lo.append(low)
    return np.array(hi), np.array(lo)


def _fixed(e: int) -> bool:
    """Whether %.17g lays out decimal exponent e without an exponent."""
    return -4 <= e < 17


_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter
_CERTIFIED = (1e-280, 1e280)  # open interval of |x| the kernel formats
_TIE_BAND = 1e-6
# Tables over the decimal exponent E, indexed by E + _EMAX: the kernel's
# E lies in [-281, 281].
_EMAX = 282
_ES = range(-_EMAX, _EMAX + 1)
_TEN_HI, _TEN_LO = _ten_pairs(_ES)
_TEN_HI_HEAD = _SPLIT * _TEN_HI - (_SPLIT * _TEN_HI - _TEN_HI)
_TEN_HI_TAIL = _TEN_HI - _TEN_HI_HEAD
_NO_POINT = 17
# The point follows digit _POINT; digits up to _WHOLE keep their zeros;
# "0." and _LEAD - 1 zeros precede the digits.
_POINT = np.array([(e if e >= 0 else _NO_POINT) if _fixed(e) else 0 for e in _ES], float)
_WHOLE = np.array([e if _fixed(e) and e > 0 else 0 for e in _ES], float)
_LEAD = np.array([-e if _fixed(e) and e < 0 else 0 for e in _ES], float)
_EXPONENT = np.array([0 if _fixed(e) else _word(b"e%+03d" % e) for e in _ES], float)
_HEAD = np.array([_word(b"-" if neg else b"\0") + _word(b"0.000"[:lead + 1] if lead else b"", 1)
                  for neg in (0, 1) for lead in range(5)], float)  # by 5 * sign + lead
# Digit values (not ASCII) of 3- and 2-digit groups, first digit in the low byte.
_DIGITS_3 = np.array([n // 100 + (n // 10 % 10 << 8) + (n % 10 << 16) for n in range(1000)], float)
_DIGITS_2 = np.array([n // 10 + (n % 10 << 8) for n in range(100)], float)
# Per digit word k (digits 6k to 6k + 5): the ASCII offsets of the digits
# up to keep, and the bytes that stay before a point after digit p.
_ASCII = [np.array([_word(b"0" * min(max(keep + 1 - 6 * k, 0), 6)) for keep in range(17)], float)
          for k in range(3)]
_STAY = [np.array([256.0 ** min(max(p + 1 - 6 * k, 0), 6) for p in range(_NO_POINT + 1)])
         for k in range(3)]
_UNSTAY = [1 / stay for stay in _STAY]
_DOT = [np.array([_word(b".", p + 1 - 6 * k) if 0 <= p + 1 - 6 * k < 6 else 0
                  for p in range(_NO_POINT + 1)], float) for k in range(3)]
_B48 = 2.0**48
_SEPARATOR_AT = 37  # the separator's byte in a record of five words


def _scaled(ax, i):
    """ax * 10**(16 - E) as s + t with |t| <= ulp(s) / 2; i = E + _EMAX."""
    p = ax * _TEN_HI[i]
    t = _SPLIT * ax
    a_head = t - (t - ax)
    a_tail = ax - a_head
    hh = _TEN_HI_HEAD[i]
    ht = _TEN_HI_TAIL[i]
    e = a_head * hh - p
    e += a_head * ht
    e += a_tail * hh
    e += a_tail * ht
    e += ax * _TEN_LO[i]
    s = p + e
    p -= s
    e += p
    return s, e


def _out_of_range(s, t):
    """Where s + t < 10**16 or >= 10**17, and which of the two."""
    # Sterbenz makes s - 10**k exact near 10**k; far from it, t cannot flip the sign.
    high = (s - 1e17) + t >= 0
    return ((s - 1e16) + t < 0) | high, high


def _decimal(x):
    """The 17 significant digits of each |x| as q * 10**8 + r, their
    decimal exponent E, and the mask of values they are not certified for
    (formatted by '%.17g' instead).

    x is a float64 array; q (9 digits), r (8 digits) and E are float
    arrays of integers, all 0 for +-0.0.
    """
    ax = np.abs(x)
    zero = ax == 0
    ok = (ax > _CERTIFIED[0]) & (ax < _CERTIFIED[1])
    slow = ~(ok | zero)
    ax = np.where(ok, ax, 1.0)
    E = np.floor(np.log(ax) * (1 / math.log(10)))
    i = (E + _EMAX).astype(np.intp)
    s, t = _scaled(ax, i)
    fix = np.flatnonzero(_out_of_range(s, t)[0])
    if fix.size:
        E[fix] += np.where(_out_of_range(s[fix], t[fix])[1], 1.0, -1.0)
        i[fix] = (E[fix] + _EMAX).astype(np.intp)
        s[fix], t[fix] = _scaled(ax[fix], i[fix])
    whole = np.floor(t)
    t -= whole
    slow |= np.abs(t - 0.5) < _TIE_BAND
    whole += np.floor(t + 0.5)  # up from above one half; ties went slow
    # The digits are s + whole.  s is an integer below 2**57, q * 1e8 has
    # at most 31 + 19 significant bits, and their difference is below
    # 2**28: every step is exact.
    q = np.floor(s / 1e8)
    r = s - q * 1e8
    r += whole
    carry = np.floor(r / 1e8)
    q += carry
    r -= carry * 1e8
    top = q == 1e9  # rounded up to 10**17
    q[top] = 1e8
    E += top
    q[zero] = 0.0
    r[zero] = 0.0
    E[zero] = 0.0
    return q, r, E, slow


def _format_block(x, separators) -> bytes:
    """'%.17g' % v for each v of x, each text followed by its separator.

    Each value becomes a record of five little-endian int64 words, each
    holding six text bytes, pad bytes 0: sign and the "0.000" lead;
    three words of digits with the point; exponent and separator (given
    as word values in separators).  A word is built as a float below
    2**48, so exactly: digits past the last nonzero one, where no integer
    part needs them, stay pads, and the point is inserted by moving the
    digits after it up one byte, the top one into the next word.
    """
    q, r, E, slow = _decimal(x)
    # Digit values of digits 0-5, 6-11 and 12-16.
    g = np.floor(q / 1000)
    c = np.floor(g / 1000)
    v0 = _DIGITS_3[c.astype(np.intp)] + _DIGITS_3[(g - c * 1000).astype(np.intp)] * 2.0**24
    c = np.floor(r / 1e5)
    v1 = _DIGITS_3[(q - g * 1000).astype(np.intp)] + _DIGITS_3[c.astype(np.intp)] * 2.0**24
    g = r - c * 1e5
    c = np.floor(g / 100)
    v2 = _DIGITS_3[c.astype(np.intp)] + _DIGITS_2[(g - c * 100).astype(np.intp)] * 2.0**24
    # The last nonzero digit: digits are at most 9, so a word's top set bit
    # lies in the low nibble of its top nonzero byte, and log2 cannot round
    # it into the next byte.
    nonzero = np.where(v2 > 0, v2, np.where(v1 > 0, v1, v0))
    last = np.where(v2 > 0, 12.0, np.where(v1 > 0, 6.0, 0.0))
    last += np.floor(np.log2(nonzero + 0.5) * 0.125)
    i = (E + _EMAX).astype(np.intp)
    keep = np.maximum(last, _WHOLE[i]).astype(np.intp)
    point = _POINT[i]
    point = np.where(last > point, point, _NO_POINT).astype(np.intp)
    words = np.empty((5, x.size))
    head = np.where(np.signbit(x), 5.0, 0.0) + _LEAD[i]
    words[0] = _HEAD[head.astype(np.intp)]
    carry = 0.0
    for k, v in enumerate((v0, v1, v2)):
        v += _ASCII[k][keep]
        low = v - np.floor(v * _UNSTAY[k][point]) * _STAY[k][point]
        v -= low
        v *= 256.0  # below 2**56 with a zero low byte: exact
        moved = np.floor(v * (1 / _B48))
        v -= moved * _B48
        low += v
        low += carry
        np.add(low, _DOT[k][point], out=words[k + 1])
        carry = moved
    np.add(_EXPONENT[i], separators, out=words[4])
    text = words.T.astype(np.int64, order="C").view(np.uint8)
    for j in np.flatnonzero(slow):
        fallback = b"%.17g" % x[j]
        text[j, :_SEPARATOR_AT] = 0
        text[j, : len(fallback)] = np.frombuffer(fallback, np.uint8)
    return text.tobytes().translate(None, b"\0")


def write_csv(path, header: str, columns) -> None:
    """Write equal-length columns under a one-line header, each value as %.17g.

    The bytes are those of np.savetxt(path, np.column_stack(columns),
    fmt="%.17g", delimiter=",", header=header, comments=""), built by
    _format_block (see the module docstring) about _BLOCK_VALUES values at
    a time, each block written as soon as it is formatted.
    """
    columns = [np.asarray(c, dtype=np.float64) for c in columns]
    if not columns or any(c.ndim != 1 or c.shape != columns[0].shape for c in columns):
        raise ValueError("write_csv needs one or more equal-length 1-D columns")
    n, width = columns[0].size, len(columns)
    rows = max(1, _BLOCK_VALUES // width)
    separators = np.full((rows, width), float(_word(b",", 5)))
    separators[:, -1] = _word(b"\n", 5)
    block = np.empty((rows, width))
    with open(path, "wb") as fh:
        fh.write((header + "\n").encode())
        for start in range(0, n, rows):
            m = min(rows, n - start)
            for j, c in enumerate(columns):
                block[:m, j] = c[start : start + m]
            fh.write(_format_block(block[:m].ravel(), separators[:m].ravel()))


def write_json(path, data) -> None:
    """Write data as JSON indented by two spaces, with a trailing newline."""
    with open(path, "w") as fh:
        fh.write(json.dumps(data, indent=2) + "\n")
