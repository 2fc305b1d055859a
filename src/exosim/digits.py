"""Digit streams for positional behavior.

A positional entity replays the digits of a fixed mathematical constant
(or an explicitly listed digit string) in the base given by the size of
the act alphabet. The stream starts with the integer-part digits of the
constant and continues with its fractional digits, so pi in base 10 is
3, 1, 4, 1, 5, ... and pi in base 2 starts 1, 1 (the integer part 3).

A request for n digits in base b reads the constant once, as the integer
floor(x * b**k) where k is the number of fractional digits, at about
n * log2(b) bits plus guard bits. The floor is certified: the guard grows
until both ends of the constant's error interval give the same integer.
That integer is then written in base b. A base whose digits fill whole
bytes (2, 4, 16, 256) reads them off the integer's bytes through a
256-entry table of each byte's digits, in linear time. Any other base
takes one pass that splits the integer by b**(n // 2) and recurses on
both halves (radix divide-and-conquer, Brent and Zimmermann, *Modern
Computer Arithmetic*, section 1.7).

Cost: the constant is a series summed by binary splitting on Python
ints (Brent and Zimmermann, section 4.9): Chudnovsky's for pi, with
sqrt(10005) from math.isqrt, and the sum of 1/k! for e. The splitting
stops at ranges of up to 16 terms, each summed in one loop by the
constant's leaf function; its sums and products are exact, so they are
the same integers a split down to single terms gives. e's term count
is found by bisecting on math.lgamma. A base b = o * 2**j, o odd, has
b**k = o**k << j * k: the scale, the cut of the integer part and the
split from the digits given before shift by the power of two and
multiply or divide only by o**k, which is 1 for a power-of-two base
(2, 4, 8, 16, 256) and 5**k for base 10. The divide-and-conquer
conversion does one big-integer division per split; where big-integer
division is schoolbook (CPython 3.11 and older) that is still quadratic
in n, but with a far smaller constant than one full-width divmod per
digit.

A ConstantDigits stream is a (name, base) value that keeps nothing
between reads. One read(limit) computes each digit once: each extension
resumes what the last one left, so the series state (P, Q, T) gains only
its new terms, the last extension's quotient is a first guess that
leaves a division with a short quotient, and only the new digits are
converted. pi's square root does not resume: each extension takes it
afresh with math.isqrt. The floor is certified afresh at each new width.
Each extension is then a few full-width multiplications and one short
division, each about a fifth of a full schoolbook division, plus pi's
full-width square root. A second read computes its digits again.

A read extends to a quarter past the position it reaches (64 digits at
first), but never past its limit. With a growth of 5/4 the quadratic
costs of all extensions sum to under three times those of the last, and
a read that stops at any step has computed 64 digits or a quarter more
than it used, whichever is more. Doubling would take fewer extensions,
but a read that stops just past a doubling would compute twice the
digits it used, in about twice the time of 5/4 growth at 65537 digits.
To position 200000 in base 3, 4 and 10 on a 2-core x86 machine with
Python 3.11 (medians of three runs), pi takes about 1.3, 1.7 and 4.7 s,
of which the square roots 0.50, 0.78 and 2.1 s, and e 0.53, 0.42 and
1.7 s.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple

from .universe import ExosimError

_GUARD_BITS = 64
_LEAF_DIGITS = 32
_LEAF_TERMS = 16
# Base -> the digits of each byte value, built on a base's first use.
_BYTE_DIGITS: dict[int, list[bytes]] = {}


class DigitError(ExosimError):
    pass


class DigitSourceExhausted(DigitError):
    """An explicit digit list was asked for a position past its end."""


class DigitOutOfRange(DigitError):
    """An explicit digit is too large for the requested base."""


def _split(leaf, lo: int, hi: int) -> tuple[int, int, int]:
    """(P, Q, T) by binary splitting: P and Q the products of p(k) and q(k) over
    lo <= k < hi, and T / Q the sum of a(k) p(lo)...p(k) / (q(lo)...q(k)).

    A range of up to _LEAF_TERMS terms is summed by leaf(lo, hi) in one loop.
    P, Q and T are exact, so where the recursion stops changes no bit."""
    if hi - lo <= _LEAF_TERMS:
        return leaf(lo, hi)
    mid = (lo + hi) // 2
    p1, q1, t1 = _split(leaf, lo, mid)
    p2, q2, t2 = _split(leaf, mid, hi)
    return p1 * p2, q1 * q2, t1 * q2 + p1 * t2


def _pi_leaf(lo: int, hi: int) -> tuple[int, int, int]:
    """_split's (P, Q, T) over Chudnovsky terms lo <= k < hi, one term at a
    time: p(k) = -(6k - 5)(2k - 1)(6k - 1), q(k) = k**3 640320**3 / 24 and
    a(k) = 13591409 + 545140134 k."""
    p, q, t = 1, 1, 0
    for k in range(lo, hi):
        p *= -(6 * k - 5) * (2 * k - 1) * (6 * k - 1)
        qk = k * k * k * 10939058860032000  # 640320**3 // 24
        q *= qk
        t = t * qk + p * (13591409 + 545140134 * k)
    return p, q, t


def _e_leaf(lo: int, hi: int) -> tuple[int, int, int]:
    """_split's (P, Q, T) over the terms lo <= k < hi of the sum of 1/k!:
    p(k) = a(k) = 1 and q(k) = k."""
    q, t = 1, 0
    for k in range(lo, hi):
        q *= k
        t = t * k + 1
    return 1, q, t


def _e_terms(work: int, done: int) -> int:
    """The least hi >= max(done, 2) with lgamma(hi + 1) >= (work + 1) log 2,
    that is hi! >= 2**(work + 1), by bisection: lgamma rises over the
    integers from 3 on, and max(work + 1, 4) passes, since k! > 2**k from
    k = 4 on."""
    target = (work + 1) * math.log(2)
    low, high = max(done, 2) - 1, max(done, work + 1, 4)
    while high - low > 1:  # low fails (or lies below the range), high passes
        mid = (low + high) // 2
        if math.lgamma(mid + 1) < target:
            low = mid
        else:
            high = mid
    return high


def _fixed(name: str, bits: int, series: list | None = None) -> int:
    """X with the constant x strictly inside ((X - 1) / 2**bits, (X + 2) / 2**bits).

    Each series runs from term 1 until its tail is below 2**-work of the
    sum; the tail, cuts and roundings move x * 2**work by under two units.

    A series list, empty at first, is resumed and updated. It holds
    [hi, P, Q, T, work, Y]: the sums over the terms 1 <= k < hi, and the
    last read's work and its x * 2**work before rounding. Only the terms
    from hi on are split, and merged in as P p2, Q q2, T q2 + P t2;
    terms past those needed only shrink the tail. The last read, shifted
    to the new work, is a first guess at the quotient n // d: the exact
    identity n // d = g + (n - g d) // d leaves a division with a short
    quotient, where a schoolbook division (CPython 3.11 and older) costs
    its quotient's length times the divisor's. pi's sqrt(10005) is not
    resumed: each read takes it afresh with math.isqrt.
    """
    work = bits + 8
    done, p, q, t, last_work, last = series or (1, 1, 1, 0, 0, 0)
    if name == "pi":
        # Chudnovsky: 1/pi = 12 / 640320**1.5 * sum (-1)**k (6k)! (13591409
        # + 545140134 k) / ((3k)! k!**3 640320**(3k)), over 47 bits a term.
        hi = max(work // 47 + 2, done)
        leaf = _pi_leaf
    elif name == "e":
        # e = sum 1/k!; the tail from term hi on is below 2 / hi!.
        hi = _e_terms(work, done)
        leaf = _e_leaf
    else:
        raise DigitError(f"unknown constant {name!r}")
    if hi > done:
        p2, q2, t2 = _split(leaf, done, hi)
        p, q, t = p * p2, q * q2, t * q2 + p * t2
    if name == "pi":
        total = t + 13591409 * q  # add term 0, then cut it to work + 64 bits and q alike
        cut = max(total.bit_length() - work - 64, 0)
        n, d = 426880 * math.isqrt(10005 << 2 * work) * (q >> cut), total >> cut
    else:
        n, d = (q + t) << work, q
    guess = (last << work) >> last_work
    scaled = guess + (n - guess * d) // d
    if series is not None:
        series[:] = hi, p, q, t, work, scaled
    return scaled >> 8


def _scaled_constant(name: str, scale: int, series: list | None = None, shift: int = 0) -> int:
    """floor(constant * scale * 2**shift) for integers scale >= 1 and shift >= 0,
    certified.

    The constant is read to f = c + shift fractional bits as X = _fixed(name, f),
    for c = scale.bit_length() + guard. When both ends of its interval
    ((X - 1) / 2**f, (X + 2) / 2**f), times scale * 2**shift, that is
    (X - 1) * scale and (X + 2) * scale over 2**c, have the same floor, that
    floor is exact; otherwise the guard doubles and the read repeats, resuming
    the series from where the last read left it. A power-of-two factor passed
    as shift costs no multiplication.
    """
    guard = _GUARD_BITS
    while True:
        cut = scale.bit_length() + guard
        product = _fixed(name, cut + shift, series) * scale
        low = (product - scale) >> cut
        if low == (product + 2 * scale) >> cut:
            return low
        guard *= 2


def _radix_digits(value: int, base: int, width: int) -> list[int]:
    """The width base-b digits of 0 <= value < base**width, most
    significant first (leading zeros included).

    A base whose digits fill whole bytes (2, 4, 16, 256) reads them off
    value.to_bytes through a 256-entry table of each byte's digits.
    Any other base splits value by base**(width // 2) and recurses on
    both halves (radix divide-and-conquer), down to leaves of a few
    digits.
    """
    if base in (2, 4, 16, 256):
        bits = base.bit_length() - 1
        table = _BYTE_DIGITS.get(base)
        if table is None:
            table = _BYTE_DIGITS[base] = [
                bytes(byte >> shift & base - 1 for shift in range(8 - bits, -1, -bits))
                for byte in range(256)
            ]
        per_byte = 8 // bits
        size = -(-width // per_byte)
        packed = b"".join(map(table.__getitem__, value.to_bytes(size, "big")))
        return list(packed[size * per_byte - width:])
    powers: dict[int, int] = {}
    out: list[int] = []

    def emit(value: int, width: int) -> None:
        if width <= _LEAF_DIGITS:
            leaf = [0] * width
            for i in range(width - 1, -1, -1):
                value, leaf[i] = divmod(value, base)
            out.extend(leaf)
            return
        low = width // 2
        if low not in powers:
            powers[low] = base**low
        high, rest = divmod(value, powers[low])
        emit(high, width - low)
        emit(rest, low)

    emit(value, width)
    return out


def constant_digits(name: str, base: int, count: int, resume: list | None = None) -> list[int]:
    """First count digits of a named constant in the given base.

    Integer-part digits come first, then fractional digits. Base 1 is the
    degenerate unary alphabet: every digit is 0.

    With a resume list, empty at first, the call gives the count digits
    after those of the calls before it with the same list, and updates the
    list to [digits given, their value, series state]. The value V of the
    first n digits is certified as before, and only V - V' * base**count,
    for V' the value of the digits given before, is converted.
    """
    if base < 1:
        raise DigitError(f"base must be at least 1, got {base}")
    if count < 0:
        raise DigitError(f"count must be non-negative, got {count}")
    if base == 1:
        return [0] * count
    integer_part = _scaled_constant(name, 1)
    head = 1
    while base**head <= integer_part:
        head += 1
    given, prefix, series = resume or (0, 0, [])
    end = given + count
    fraction = max(end - head, 0)
    # drop > 0 only while the integer part is not all given.
    drop = head + fraction - end
    # base = odd << shift, so base**k = odd**k << shift * k: the power of two
    # scales, cuts and splits by shifts, and only odd**k multiplies or divides.
    shift = (base & -base).bit_length() - 1
    odd = base >> shift
    scaled = _scaled_constant(name, odd**fraction, series, shift * fraction)
    value = (scaled >> shift * drop) // odd**drop
    digits = _radix_digits(value - (prefix * odd**count << shift * count), base, count)
    if resume is not None:
        resume[:] = end, value, series
    return digits


class ConstantDigits(NamedTuple):
    """Digit stream of a named constant in one base: a value that no read
    changes, so a second read computes its digits again."""

    name: str
    base: int

    def read(self, limit: int) -> Iterator[int]:
        """Digits 0 to limit - 1 in turn, computed as they are reached.

        Each extension runs to a quarter past the position reached (64
        digits at first) but never past limit, and resumes what the last
        one left: a read dropped at any step has computed each digit once,
        and at most 64 or a quarter more than it used.
        """
        position, resume = 0, []
        while position < limit:
            end = min(max(64, (position + 1) * 5 // 4), limit)
            yield from constant_digits(self.name, self.base, end - position, resume)
            position = end


class ExplicitDigits(NamedTuple):
    """A finite digit list given directly in the declaration."""

    digits: tuple[int, ...]
    base: int

    def read(self, limit: int) -> Iterator[int]:
        """Digits 0 to limit - 1 in turn; past the list's end, raises
        DigitSourceExhausted. A digit that does not fit the base raises
        DigitOutOfRange before the first digit is given."""
        for i, d in enumerate(self.digits):
            if not 0 <= d < max(self.base, 1):
                raise DigitOutOfRange(f"digit {d} at position {i} does not fit base {self.base}")
        yield from self.digits[: max(limit, 0)]
        length = len(self.digits)
        if limit > length:
            raise DigitSourceExhausted(
                f"explicit digit list of length {length} has no position {length}"
            )


def parse_digit_string(text: str, base: int) -> ExplicitDigits:
    """Parse a digit string like ``"0121"`` (digits 0-9 then a-z)."""
    digits = []
    for i, ch in enumerate(text):
        try:
            value = int(ch, 36)
        except ValueError:
            raise DigitOutOfRange(f"character {ch!r} at position {i} is not a digit") from None
        digits.append(value)
    return ExplicitDigits(tuple(digits), base)
