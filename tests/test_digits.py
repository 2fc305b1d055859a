from __future__ import annotations

import itertools
import math
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from exosim import (
    AgentArchitecture,
    ArchitectureKind,
    ConstantDigits,
    DigitError,
    DigitOutOfRange,
    DigitSourceExhausted,
    ExplicitDigits,
    constant_digits,
    parse_digit_string,
)

import exosim.digits as digits_module
import oracles


class TestConstantDigits:
    def test_pi_base_10_head(self):
        assert constant_digits("pi", 10, 6) == [3, 1, 4, 1, 5, 9]

    def test_e_base_10_head(self):
        assert constant_digits("e", 10, 6) == [2, 7, 1, 8, 2, 8]

    def test_pi_base_4_head(self):
        # Integer part of pi in base 4 is "3", then the fraction.
        assert constant_digits("pi", 4, 8) == [3, 0, 2, 1, 0, 0, 3, 3]

    def test_base_2_emits_full_integer_part(self):
        # pi = 11.001001... in binary: both integer digits come first.
        assert constant_digits("pi", 2, 5) == [1, 1, 0, 0, 1]
        # e = 10.1011... in binary.
        assert constant_digits("e", 2, 5) == [1, 0, 1, 0, 1]

    def test_base_1_is_all_zeros(self):
        # One-symbol alphabet: the only digit is 0, at every position.
        assert constant_digits("pi", 1, 7) == [0] * 7
        assert constant_digits("e", 1, 3) == [0, 0, 0]

    def test_unknown_constant(self):
        with pytest.raises(DigitError):
            constant_digits("tau", 10, 4)

    def test_bad_base_and_count(self):
        with pytest.raises(DigitError):
            constant_digits("pi", 0, 4)
        with pytest.raises(DigitError):
            constant_digits("pi", 10, -1)

    def test_count_zero(self):
        assert constant_digits("pi", 10, 0) == []

    @pytest.mark.parametrize("name", ["pi", "e"])
    @pytest.mark.parametrize("base", range(2, 17))
    def test_long_run_matches_certified_oracle(self, name, base):
        # 5000 digits are split eight levels deep before the conversion
        # reaches its 32-digit leaves, in every base. Up to 64 digits the
        # constant is read at 65 to 317 bits, where the pi series stops
        # after three to eight terms.
        for count in (*range(1, 65), 5000):
            want = oracles.certified_constant_digits(name, base, count)
            assert constant_digits(name, base, count) == want

    def test_digits_in_range(self):
        for base in (2, 3, 7, 12):
            for d in constant_digits("pi", base, 200):
                assert 0 <= d < base


class TestOracleSeries:
    @pytest.mark.parametrize("name", ["pi", "e"])
    def test_fixed_point_series_agree_with_spigot(self, name):
        # The certified oracle reads the series; the spigots and the
        # 50-digit anchors check the series.
        series = oracles.pi_fixed_point if name == "pi" else oracles.e_fixed_point
        spigot = oracles.pi_decimal_digits if name == "pi" else oracles.e_decimal_digits
        anchor = oracles.PI_DIGITS_50 if name == "pi" else oracles.E_DIGITS_50
        scaled, err = series(1010)
        low, high = str(scaled - err)[:1000], str(scaled + err)[:1000]
        assert low == high == "".join(map(str, spigot(1000)))
        assert low.startswith(anchor)


class TestFixedPoint:
    """The series' fixed-point contract, against the oracle's interval."""

    @pytest.mark.parametrize("name", ["pi", "e"])
    def test_constant_strictly_inside_interval(self, name):
        series = oracles.pi_fixed_point if name == "pi" else oracles.e_fixed_point
        for bits in (1, 2, 5, 9, 38, 47, 94, 100, 512, 1024, 4097, 12345, 20000):
            fixed = digits_module._fixed(name, bits)
            # x lies in [scaled - err, scaled + err] / 10**scale, an interval
            # far narrower than 2**-bits.
            scale = math.ceil(bits * math.log10(2)) + 30
            scaled, err = series(scale)
            assert (fixed - 1) * 10**scale < (scaled - err) << bits
            assert (scaled + err) << bits < (fixed + 2) * 10**scale

    def test_import_loads_no_mpmath(self):
        # Both series run on stdlib ints: loading every module of the
        # package pulls in no arbitrary-precision library. The package
        # imports a module when one of its names is first read, so each
        # name is read before the check.
        env = dict(os.environ, PYTHONPATH=str(Path(digits_module.__file__).parents[1]))
        code = (
            "import sys, exosim\n"
            "for name in exosim.__all__: getattr(exosim, name)\n"
            "print('mpmath' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"


def plain_digits(value: int, base: int, width: int) -> list[int]:
    """The width base-b digits of value, most significant first, one
    divmod at a time."""
    out = []
    for _ in range(width):
        value, d = divmod(value, base)
        out.append(d)
    return out[::-1]


class TestConversion:
    """The certified floor and the radix conversion, each against a plain
    recomputation."""

    @pytest.mark.parametrize("base", [3, 4, 10])
    def test_thin_guard_still_certifies(self, monkeypatch, base):
        # One guard bit leaves the floor in doubt at many widths, so the
        # read is retried with more guard bits until both ends agree.
        monkeypatch.setattr(digits_module, "_GUARD_BITS", 1)
        for count in (1, 2, 7, 64, 301, 1000):
            want = oracles.certified_constant_digits("e", base, count)
            assert constant_digits("e", base, count) == want

    @given(
        base=st.integers(2, 40),
        width=st.integers(0, 200),
        data=st.data(),
    )
    @settings(max_examples=200)
    def test_radix_conversion_pads_and_splits(self, base, width, data):
        value = data.draw(st.integers(0, base**width - 1))
        assert digits_module._radix_digits(value, base, width) == plain_digits(value, base, width)

    @pytest.mark.parametrize("base", [2, 4, 8, 16, 256])
    @pytest.mark.parametrize("width", [0, 1, 3, 5, 7, 9, 33, 1001])
    def test_byte_table_bases_and_base_8(self, base, width):
        # 2, 4, 16 and 256 read their digits off the value's bytes, here at
        # widths that leave the first byte part full; 8, whose digits cross
        # byte edges, takes the divide-and-conquer path.
        rng = random.Random(base * 10007 + width)
        for value in {0, base**width - 1, rng.randrange(base**width)}:
            got = digits_module._radix_digits(value, base, width)
            assert got == plain_digits(value, base, width)
        assert (base in digits_module._BYTE_DIGITS) == (base != 8)


class TestLazyStream:
    def test_digit_access_matches_batch(self):
        stream = ConstantDigits("pi", 10)
        batch = constant_digits("pi", 10, 40)
        assert list(stream.read(40)) == batch

    @pytest.mark.parametrize("name,base", [("pi", 4), ("e", 3)])
    def test_stream_across_doublings_equals_one_call(self, monkeypatch, name, base):
        calls = []

        def counted(*args):
            calls.append(args)
            return constant_digits(*args)

        # The stream must look constant_digits up through the module.
        monkeypatch.setattr(digits_module, "constant_digits", counted)
        stream = ConstantDigits(name, base)
        read = list(stream.read(5001))
        assert len(calls) >= 6
        assert read == constant_digits(name, base, 5001)


@pytest.fixture()
def counts(monkeypatch) -> list[int]:
    """The digit count of each constant_digits call, in call order."""
    made: list[int] = []

    def counted(*args):
        made.append(args[2])
        return constant_digits(*args)

    monkeypatch.setattr(digits_module, "constant_digits", counted)
    return made


class TestResumedStream:
    """A stream extends the series it has summed and converts only the new
    digits; what it reads must still be the certified digits."""

    @pytest.mark.parametrize("name", ["pi", "e"])
    @pytest.mark.parametrize("base", range(1, 17))
    def test_stream_matches_certified_oracle(self, name, base):
        # Read to 1500: the stream extends a dozen times past its first 64.
        stream = ConstantDigits(name, base)
        read = list(stream.read(1500))
        assert read == oracles.certified_constant_digits(name, base, 1500)

    @pytest.mark.parametrize("name,base", [("pi", 10), ("e", 7), ("pi", 2)])
    def test_out_of_order_reads(self, name, base):
        # Far ahead of the first 64 digits, back to the start, then between:
        # each read starts from the first digit, whatever reads came before.
        want = oracles.certified_constant_digits(name, base, 4000)
        stream = ConstantDigits(name, base)
        for limit in (10, 3000, 0, 5, 1499, 2999, 3749, 4000, 3750, 100):
            assert list(stream.read(limit)) == want[:limit], limit

    def test_resumed_extensions_retry_the_guard(self, monkeypatch):
        # One guard bit leaves the floor in doubt at many widths: a resumed
        # extension retries with more guard bits, extending the same series.
        monkeypatch.setattr(digits_module, "_GUARD_BITS", 1)
        extend, fixed = digits_module.constant_digits, digits_module._fixed
        resumed = {"extensions": 0, "reads": 0}

        def counted_extend(*args):
            resumed["extensions"] += bool(args[3])
            return extend(*args)

        def counted_fixed(name, bits, series=None):
            resumed["reads"] += bool(series)
            return fixed(name, bits, series)

        monkeypatch.setattr(digits_module, "constant_digits", counted_extend)
        monkeypatch.setattr(digits_module, "_fixed", counted_fixed)
        for name in ("pi", "e"):
            for base in (3, 4, 10):
                read = list(ConstantDigits(name, base).read(1000))
                assert read == oracles.certified_constant_digits(name, base, 1000)
        # More resumed reads of the constant than resumed extensions.
        assert resumed["reads"] > resumed["extensions"] > 0

    @pytest.mark.parametrize(
        "name,base,reader",
        [("pi", 4, "step"), ("e", 10, "step"), ("pi", 4, "read"), ("e", 10, "read")],
        ids=["pi-4", "e-10", "pi-4-read", "e-10-read"],
    )
    def test_sequential_read_computes_few_digits_twice(self, counts, name, base, reader):
        want = oracles.certified_constant_digits(name, base, 5001)
        if reader == "step":
            # Taken one digit at a time, a read has computed each digit once
            # and at most 64 or a quarter more than it has handed out.
            for position, digit in enumerate(ConstantDigits(name, base).read(5001)):
                assert digit == want[position], position
                assert position < sum(counts) <= max(64, (position + 1) * 5 // 4)
            assert counts == growth_schedule(5001)
            return
        # A read bounded by limit extends to 64 digits, then to a quarter
        # past each extension's end, the last cut at the bound, and makes
        # no digit past its bound.
        for limit in (1, 64, 65, 5001):
            counts.clear()
            assert list(ConstantDigits(name, base).read(limit)) == want[:limit]
            assert counts == growth_schedule(limit)
            assert sum(counts) == limit
        assert len(counts) == 21
        assert counts[:6] == [64, 17, 21, 26, 33, 41]

    def test_two_reads_give_the_same_digits_and_extensions(self, counts):
        # A stream is a value: a read changes nothing, so a second read
        # computes the same digits through the same extensions.
        stream = ConstantDigits("pi", 4)
        first = list(stream.read(3000))
        first_counts = counts[:]
        counts.clear()
        assert list(stream.read(3000)) == first
        assert counts == first_counts
        assert stream == ConstantDigits("pi", 4)
        assert tuple(stream) == ("pi", 4)

    def test_read_position_hidden_from_equality_and_repr(self):
        ahead, behind = ConstantDigits("pi", 4), ConstantDigits("pi", 4)
        list(ahead.read(3001))
        list(behind.read(11))
        assert ahead == behind == ConstantDigits("pi", 4)
        assert repr(ahead) == repr(behind) == "ConstantDigits(name='pi', base=4)"
        first, second = (
            AgentArchitecture("piper", ArchitectureKind.POSITIONAL, digits=digits)
            for digits in (ahead, behind)
        )
        assert first == second
        assert repr(first) == repr(second)
        assert ahead != ConstantDigits("e", 4)


def growth_schedule(limit: int) -> list[int]:
    """The digit counts of a read's extensions: to 64 digits, then to a
    quarter past each end, never past limit."""
    counts, position = [], 0
    while position < limit:
        end = min(max(64, (position + 1) * 5 // 4), limit)
        counts.append(end - position)
        position = end
    return counts


# Each series one term at a time, as (p(k), q(k), a(k)).
SERIES_TERMS = {
    "pi": (
        lambda k: -(6 * k - 5) * (2 * k - 1) * (6 * k - 1),
        lambda k: k**3 * 640320**3 // 24,
        lambda k: 13591409 + 545140134 * k,
    ),
    "e": (lambda k: 1, lambda k: k, lambda k: 1),
}


def split_by_terms(name: str, lo: int, hi: int) -> tuple[int, int, int]:
    """Binary splitting down to single terms."""
    p, q, a = SERIES_TERMS[name]
    if hi - lo == 1:
        return p(lo), q(lo), a(lo) * p(lo)
    mid = (lo + hi) // 2
    p1, q1, t1 = split_by_terms(name, lo, mid)
    p2, q2, t2 = split_by_terms(name, mid, hi)
    return p1 * p2, q1 * q2, t1 * q2 + p1 * t2


def e_terms_linear(work: int, done: int) -> int:
    """e's term count, one lgamma call per term."""
    hi = max(done, 2)
    while math.lgamma(hi + 1) < (work + 1) * math.log(2):
        hi += 1
    return hi


def extension_ends(limit: int) -> list[int]:
    """Where a read's extensions end: 64, 80, 101, ..., limit."""
    return list(itertools.accumulate(growth_schedule(limit)))


class TestKernel:
    """The series leaves, e's term count and the split of a base into its odd
    part and its power of two, each against a plain recomputation."""

    @pytest.mark.parametrize("name", ["pi", "e"])
    def test_leaf_loops_match_single_term_splitting(self, name):
        leaf = digits_module._pi_leaf if name == "pi" else digits_module._e_leaf
        for lo in (1, 2, 7, 100):
            for terms in range(1, 41):
                want = split_by_terms(name, lo, lo + terms)
                assert digits_module._split(leaf, lo, lo + terms) == want, (lo, terms)
                if terms <= digits_module._LEAF_TERMS:
                    assert leaf(lo, lo + terms) == want, (lo, terms)

    def test_e_term_count_matches_the_linear_search(self):
        # The bisection against one lgamma call per term, for widths from
        # 1 to 10**5 bits and counts resumed below, at and past the answer.
        works = {*range(1, 200), *(int(1.1**i) for i in range(60, 121)), 10**5}
        for work in sorted(works):
            want = e_terms_linear(work, 0)
            for done in {0, 1, 2, 3, want - 7, want - 1, want, want + 1, want + 50}:
                if done >= 0:
                    assert digits_module._e_terms(work, done) == e_terms_linear(work, done)

    @pytest.mark.parametrize("guard", [64, 1])
    @pytest.mark.parametrize("name", ["pi", "e"])
    @pytest.mark.parametrize("base", [2, 3, 4, 8, 10, 12, 16, 256])
    def test_bases_across_extensions(self, monkeypatch, guard, name, base):
        # Reads that end at, just before and just past each extension's end,
        # in powers of two, an odd base and bases with both factors; one
        # guard bit sends the scale through guard retries.
        monkeypatch.setattr(digits_module, "_GUARD_BITS", guard)
        calls = Counter()
        for spied in ("_fixed", "_scaled_constant"):
            real = getattr(digits_module, spied)

            def counted(*args, real=real, spied=spied):
                calls[spied] += 1
                return real(*args)

            monkeypatch.setattr(digits_module, spied, counted)
        want = oracles.certified_constant_digits(name, base, 1501)
        for end in extension_ends(1500):
            for limit in (end - 1, end, end + 1):
                assert list(ConstantDigits(name, base).read(limit)) == want[:limit], limit
        # A floor left in doubt reads the constant again.
        assert (calls["_fixed"] > calls["_scaled_constant"]) == (guard == 1)


class TestExplicitDigits:
    def test_lookup_and_exhaustion(self):
        src = ExplicitDigits((1, 0, 2), 3)
        assert list(src.read(3)) == [1, 0, 2]
        got = []
        with pytest.raises(DigitSourceExhausted, match="of length 3 has no position 3"):
            got.extend(src.read(4))
        assert got == [1, 0, 2]
        assert list(src.read(-1)) == []

    def test_out_of_range_digit_rejected_at_read(self):
        # The record holds any digits; its read rejects one that does not
        # fit the base before it gives the first digit.
        for digits, at in (((0, 5), 1), ((-1,), 0)):
            src = ExplicitDigits(digits, 4)
            assert src == (digits, 4)
            got = []
            with pytest.raises(DigitOutOfRange, match=f"at position {at} does not fit base 4"):
                got.extend(src.read(1))
            assert got == []

    def test_parse_digit_string(self):
        assert parse_digit_string("3141", 10).digits == (3, 1, 4, 1)
        assert parse_digit_string("a0f", 16).digits == (10, 0, 15)

    def test_parse_rejects_foreign_symbols(self):
        with pytest.raises(DigitOutOfRange):
            next(parse_digit_string("19", 8).read(2))
        with pytest.raises(DigitOutOfRange):
            parse_digit_string("x!", 10)

    @given(
        digits=st.lists(st.integers(0, 9), min_size=1, max_size=20),
    )
    @settings(max_examples=50)
    def test_explicit_round_trip(self, digits):
        src = ExplicitDigits(tuple(digits), 10)
        assert list(src.read(len(digits))) == digits
