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
That integer is then written in base b in one pass that splits it by
b**(n // 2) and recurses on both halves (radix divide-and-conquer, Brent
and Zimmermann, *Modern Computer Arithmetic*, section 1.7).

Cost: the constant is a series summed by binary splitting on Python
ints (Brent and Zimmermann, section 4.9): Chudnovsky's for pi, with
sqrt(10005) from math.isqrt, and the sum of 1/k! for e. The conversion
does one big-integer division per split; where big-integer division is
schoolbook (CPython 3.11 and older) that is still quadratic in n, but
with a far smaller constant than one full-width divmod per digit. A
ConstantDigits stream doubles its prefix when a read passes its end, so
reading it to position n costs about as much as two requests for n
digits. Read to position 200000 in base 3, 4 and 10, a stream takes
about 1.9, 2.7 and 6.7 s for pi and 1.1, 1.6 and 4.5 s for e (conversion
0.4, 0.5 and 1.3 s of each) on a 2-core x86 machine with Python 3.11.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

_GUARD_BITS = 64
_LEAF_DIGITS = 32


class DigitError(Exception):
    pass


class DigitSourceExhausted(DigitError):
    """An explicit digit list was asked for a position past its end."""


class DigitOutOfRange(DigitError):
    """An explicit digit is too large for the requested base."""


def _split(p, q, a, lo: int, hi: int) -> tuple[int, int, int]:
    """(P, Q, T) by binary splitting: P and Q the products of p(k) and q(k) over
    lo <= k < hi, and T / Q the sum of a(k) p(lo)...p(k) / (q(lo)...q(k))."""
    if hi - lo == 1:
        return p(lo), q(lo), a(lo) * p(lo)
    mid = (lo + hi) // 2
    p1, q1, t1 = _split(p, q, a, lo, mid)
    p2, q2, t2 = _split(p, q, a, mid, hi)
    return p1 * p2, q1 * q2, t1 * q2 + p1 * t2


def _fixed(name: str, bits: int) -> int:
    """X with the constant x strictly inside ((X - 1) / 2**bits, (X + 2) / 2**bits).

    Each series runs from term 1 until its tail is below 2**-work of the
    sum; the tail, cuts and roundings move x * 2**work by under two units.
    """
    work = bits + 8
    if name == "pi":
        # Chudnovsky: 1/pi = 12 / 640320**1.5 * sum (-1)**k (6k)! (13591409
        # + 545140134 k) / ((3k)! k!**3 640320**(3k)), over 47 bits a term.
        _, q, t = _split(lambda k: -(6 * k - 5) * (2 * k - 1) * (6 * k - 1),
                         lambda k: k**3 * 10939058860032000,  # 640320**3 // 24
                         lambda k: 13591409 + 545140134 * k, 1, work // 47 + 2)
        t += 13591409 * q  # add term 0, then cut t to work + 64 bits and q alike
        cut = max(t.bit_length() - work - 64, 0)
        scaled = 426880 * math.isqrt(10005 << 2 * work) * (q >> cut) // (t >> cut)
    elif name == "e":
        # e = sum 1/k!; the tail from term hi on is below 2 / hi!.
        hi = 2
        while math.lgamma(hi + 1) < (work + 1) * math.log(2):
            hi += 1
        _, q, t = _split(lambda k: 1, lambda k: k, lambda k: 1, 1, hi)
        scaled = ((q + t) << work) // q
    else:
        raise DigitError(f"unknown constant {name!r}")
    return scaled >> 8


def _scaled_constant(name: str, scale: int) -> int:
    """floor(constant * scale) for an integer scale >= 1, certified.

    The constant is read to f fractional bits as X = _fixed(name, f). When both
    ends of its interval ((X - 1) / 2**f, (X + 2) / 2**f), times scale, have the
    same floor, that floor is exact; otherwise the guard doubles and the read repeats.
    """
    guard = _GUARD_BITS
    while True:
        bits = scale.bit_length() + guard
        product = _fixed(name, bits) * scale
        low = (product - scale) >> bits
        if low == (product + 2 * scale) >> bits:
            return low
        guard *= 2


def _radix_digits(value: int, base: int, width: int) -> list[int]:
    """The width base-b digits of 0 <= value < base**width, most
    significant first (leading zeros included).

    Splits value by base**(width // 2) and recurses on both halves
    (radix divide-and-conquer), down to leaves of a few digits.
    """
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


def constant_digits(name: str, base: int, count: int) -> list[int]:
    """First count digits of a named constant in the given base.

    Integer-part digits come first, then fractional digits. Base 1 is the
    degenerate unary alphabet: every digit is 0.
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
    fraction = max(count - head, 0)
    scaled = _scaled_constant(name, base**fraction)
    return _radix_digits(scaled, base, head + fraction)[:count]


@dataclass
class ConstantDigits:
    """Lazily extended digit stream of a named constant in one base."""

    name: str
    base: int
    _cache: list[int] = field(default_factory=list, repr=False, compare=False)

    def digit(self, position: int) -> int:
        if position < 0:
            raise DigitError(f"digit position must be non-negative, got {position}")
        if position >= len(self._cache):
            # Grow geometrically so a long run recomputes the prefix rarely.
            self._cache = constant_digits(
                self.name, self.base, max(64, 2 * (position + 1))
            )
        return self._cache[position]


@dataclass(frozen=True)
class ExplicitDigits:
    """A finite digit list given directly in the declaration."""

    digits: tuple[int, ...]
    base: int

    def __post_init__(self) -> None:
        for i, d in enumerate(self.digits):
            if not 0 <= d < max(self.base, 1):
                raise DigitOutOfRange(
                    f"digit {d} at position {i} does not fit base {self.base}"
                )

    def digit(self, position: int) -> int:
        if position < 0:
            raise DigitError(f"digit position must be non-negative, got {position}")
        if position >= len(self.digits):
            raise DigitSourceExhausted(
                f"explicit digit list of length {len(self.digits)} has no position {position}"
            )
        return self.digits[position]


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
