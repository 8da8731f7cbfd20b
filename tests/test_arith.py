import itertools
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnncheck import arith
from gnncheck.arith import (
    ACTIVATIONS,
    ArithmeticSpec,
    Value,
    _round_div_away,
    act_inverses,
    add_inverses,
    mul_inverses,
    values_geq,
    values_lt,
)
from gnncheck.errors import ConfigError, UsageError
from gnncheck.formula import Arena, import_formula, parse

SAT10 = ArithmeticSpec.satint(10)
FIX32_4 = ArithmeticSpec.fixed(32, 4)
FIX16_1 = ArithmeticSpec.fixed(16, 1)


def v(spec, text):
    return Value.of(spec, text)


def lit(spec, text):
    return spec.parse_literal(text)


def all_values(spec):
    return [Value(p, spec) for p in spec.values_p()]


class TestSpecConstruction:
    def test_parse_round_trip(self):
        for text in ("satint:10", "fixed:32:4", "fixed:16:1"):
            assert ArithmeticSpec.parse(text).spec_string() == text

    def test_specs_are_interned(self):
        assert ArithmeticSpec.parse("satint:7") is ArithmeticSpec.satint(7)
        assert ArithmeticSpec.parse(" fixed:12:1") is ArithmeticSpec.fixed(12, 1)
        # the same payload range and scale, but another value set
        assert ArithmeticSpec.satint(63) != ArithmeticSpec.fixed(7, 0)
        assert ArithmeticSpec.satint(7) != ArithmeticSpec.satint(8)
        assert len({ArithmeticSpec.satint(7), ArithmeticSpec.parse("satint:7"), ArithmeticSpec.fixed(7, 0)}) == 2

    def test_mixed_specs_rejected(self):
        sat, fixed = ArithmeticSpec.satint(63), ArithmeticSpec.fixed(7, 0)
        with pytest.raises(UsageError):
            list(mul_inverses(Value(1, sat), Value(1, fixed)))
        f = parse("x1 >= 1", sat)
        with pytest.raises(UsageError):
            import_formula(Arena(fixed), f.arena, f.root)
        import_formula(Arena(ArithmeticSpec.satint(63)), f.arena, f.root)

    def test_bad_spec_strings(self):
        for text in ("satint", "satint:x", "fixed:32", "float:32", "satint:0"):
            with pytest.raises(ConfigError):
                ArithmeticSpec.parse(text)

    def test_fixed_must_contain_one(self):
        # 2^(b-1)-1 >= 10^d is required so that 1 is representable
        with pytest.raises(ConfigError):
            ArithmeticSpec.fixed(8, 4)
        ArithmeticSpec.fixed(15, 4)

    def test_bit_width(self):
        assert ArithmeticSpec.satint(15).bit_width == 5  # 31 values
        assert ArithmeticSpec.satint(2).bit_width == 3  # 5 values
        assert FIX32_4.bit_width == 32

    def test_literals(self):
        assert v(FIX32_4, "0.0080").payload == 80
        assert v(FIX32_4, "100").payload == 1_000_000
        assert v(FIX32_4, "250").payload == 2_500_000
        assert v(FIX32_4, "-0.8").payload == -8000
        assert str(v(FIX32_4, "0")) == "0.0000"
        assert str(v(SAT10, "-7")) == "-7"

    def test_literal_rejections(self):
        with pytest.raises(ConfigError):
            v(SAT10, "11")
        with pytest.raises(ConfigError):
            v(SAT10, "0.5")
        with pytest.raises(ConfigError):
            v(FIX32_4, "0.00001")
        with pytest.raises(ConfigError):
            v(FIX32_4, "300000")


class TestTables:
    @pytest.mark.parametrize("text", ["satint:3", "fixed:5:1"])
    def test_tables_are_the_primitives(self, text):
        spec = ArithmeticSpec.parse(text)
        ps = list(spec.values_p())
        m = spec.max_payload
        keys = [("act_p", name) for name in ACTIVATIONS]
        keys += [(name, c) for c in ps for name in ("mul_p", "add_p")]
        keys += [("fold_step", "max", acc) for acc in (None, *ps)]
        for key in keys:
            table = spec.table(*key)
            assert ArithmeticSpec.parse(text).table(*key) is table
            fn = getattr(spec, key[0])
            want = [fn(*key[1:], p) for p in ps]
            # filled through at_each, then read one entry at a time
            assert table.at_each(ps[::2]) == want[::2], key
            assert [table[p] for p in ps] == want, key
        # a sum of two payloads, through add_p(0, .), clamps past ±M
        sums = list(range(-2 * m, 2 * m + 1))
        assert spec.table("add_p", 0).at_each(sums) == [spec.clamp(s) for s in sums]

    def test_tables_start_again_in_place(self, monkeypatch):
        monkeypatch.setattr(arith, "TABLE_ENTRIES", 4)
        spec = ArithmeticSpec.satint(3)
        held = spec.table("mul_p", -2)
        assert [held[p] for p in spec.values_p()] == [spec.mul_p(-2, p) for p in spec.values_p()]
        assert spec.table("add_p", 0).at_each([100, 101, 102, 103, 104]) == [3] * 5  # at most four fit
        assert not held and spec.table("mul_p", -2) is held
        assert [held[p] for p in spec.values_p()] == [spec.mul_p(-2, p) for p in spec.values_p()]
        for s in range(105, 110):  # and one at a time
            assert held[s] == -3
        assert len(held) < 5

    @pytest.mark.parametrize("entries", [1 << 16, 6])
    def test_at_each_reads_as_the_table(self, monkeypatch, entries):
        # with 6 entries the tables start again in the middle of a call
        monkeypatch.setattr(arith, "TABLE_ENTRIES", entries)
        spec = ArithmeticSpec.satint(3)
        table = spec.table("add_p", 0)
        table.clear()
        for payloads in ([0, 1, 2], [2, 1, 0, 0, 1], [5, -9, 2, 5, -9, 7, 8], [1, 2, 3, 4, -4, -5, -6, 9, 9, 9], []):
            want = [spec.clamp(p) for p in payloads]
            assert table.at_each(payloads) == want == [table[p] for p in payloads]
            # read once, as the entrywise sums of two columns made on the fly
            halves = [p // 2 for p in payloads], [p - p // 2 for p in payloads]
            table.clear()
            assert table.at_each(map(operator.add, *halves)) == want

    def test_equal_specs_share_the_literal_table(self):
        table = ArithmeticSpec.parse("fixed:5:1").table("decode_literal")
        assert ArithmeticSpec.fixed(5, 1).table("decode_literal") is table
        assert ArithmeticSpec.fixed(5, 1).parse_literal("-1.2") == -12
        assert table["-1.2"] == -12 and "-1.2" in table
        assert ArithmeticSpec.satint(3).table("decode_literal") is not table

    def test_the_literal_table_starts_again_in_place(self, monkeypatch):
        monkeypatch.setattr(arith, "TABLE_ENTRIES", 4)
        spec = ArithmeticSpec.satint(3)
        held = spec.table("decode_literal")
        held.clear()
        monkeypatch.setattr(arith, "_filled", 0)
        texts = ["1", "2", "3", "-1", "-2", "-3"]
        assert [spec.parse_literal(t) for t in texts[:4]] == [1, 2, 3, -1]
        assert list(held) == texts[:4]
        assert [spec.parse_literal(t) for t in texts[4:]] == [-2, -3]  # the fifth starts the tables again
        assert list(held) == ["-3"] and spec.table("decode_literal") is held
        assert [held[t] for t in texts] == [1, 2, 3, -1, -2, -3]
        # a primitive table's entries count against the same bound
        held.clear()
        monkeypatch.setattr(arith, "_filled", 0)
        assert spec.parse_literal("0") == 0 and list(held) == ["0"]
        spec.table("add_p", 0).clear()
        spec.table("add_p", 0).at_each(range(100, 105))
        assert "0" not in held and spec.table("decode_literal") is held
        assert spec.parse_literal("0") == 0

    # every form of literal, good and bad: sign, a leading +, short
    # decimals, surrounding spaces, and JSON values read as their text
    LITERALS = [
        "0", "3", "-3", "+2", "-0", " 1", "1 ", "\t-1\n", "0.5", "-0.5", "+1.5", "1.5", "0.0", "01",
        "4", "-4", "1.05", "1.", ".5", "", "-", "+", " ", "x", "1e1", "--1", "+-1", "²", "1_0", "1.5.0",
        1, -1, 0, 1.5, -1.0, True, False, None, 1e1,
    ]

    @pytest.mark.parametrize("text", ["satint:3", "fixed:5:1"])
    def test_the_literal_table_matches_the_uncached_parse(self, text):
        spec = ArithmeticSpec.parse(text)
        table = spec.table("decode_literal")
        for _ in range(2):  # decoded, then read back
            for lit in self.LITERALS:
                try:
                    want = spec.decode_literal(str(lit))
                except (ConfigError, ValueError) as exc:
                    with pytest.raises(type(exc)) as got:
                        table[lit]
                    assert str(got.value) == str(exc), lit
                    assert str(lit) not in table, lit  # no failure is kept
                else:
                    assert table[lit] == spec.parse_literal(lit) == want, lit
        assert all(type(key) is str for key in table)


class TestAdd:
    def test_saturating_add_clamps(self):
        assert SAT10.add_p(7, 5) == 10

    def test_additive_identity(self):
        spec = ArithmeticSpec.satint(3)
        for k in spec.values_p():
            assert spec.add_p(0, k) == k

    def test_exact_cancellation(self):
        assert FIX32_4.format_payload(FIX32_4.add_p(lit(FIX32_4, "0.8"), lit(FIX32_4, "-0.8"))) == "0.0000"

    @pytest.mark.parametrize("a", [1, 2, 3, 4])
    def test_clamp_law_exhaustive(self, a):
        spec = ArithmeticSpec.satint(a)
        for x in spec.values_p():
            for y in spec.values_p():
                assert spec.add_p(x, y) == max(-a, min(a, x + y))

    def test_commutative_and_monotone_small(self):
        spec = ArithmeticSpec.satint(3)
        vals = list(spec.values_p())
        for x in vals:
            for y in vals:
                assert spec.add_p(x, y) == spec.add_p(y, x)
                for c in vals:
                    if x <= y:
                        assert spec.add_p(x, c) <= spec.add_p(y, c)


class TestMul:
    def test_fixed_point_scaling(self):
        # 1/125 * 100 = 0.8 in four-decimal fixed point
        assert FIX32_4.mul_p(lit(FIX32_4, "0.008"), lit(FIX32_4, "100.0")) == lit(FIX32_4, "0.8")

    def test_multiplicative_identity(self):
        spec = ArithmeticSpec.satint(4)
        for k in spec.values_p():
            assert spec.mul_p(spec.one, k) == k

    def test_clamped_product(self):
        assert SAT10.mul_p(3, 4) == 10

    def test_rounding_ties_away(self):
        # 0.5 * 0.5 = 0.25 -> rounds to 0.3 with one decimal
        assert FIX16_1.mul_p(lit(FIX16_1, "0.5"), lit(FIX16_1, "0.5")) == lit(FIX16_1, "0.3")
        assert FIX16_1.mul_p(lit(FIX16_1, "-0.5"), lit(FIX16_1, "0.5")) == lit(FIX16_1, "-0.3")

    @pytest.mark.parametrize("text", ["satint:3", "satint:7"])
    def test_mul_p_satint_is_the_rounded_clamped_product_exhaustive(self, text):
        spec = ArithmeticSpec.parse(text)
        vals = list(spec.values_p())
        for c in vals:
            for p in vals:
                assert spec.mul_p(c, p) == spec.clamp(_round_div_away(c * p, spec.scale)), (c, p)

    def test_mul_p_fixed_rounds_ties_away_exhaustive(self):
        spec = ArithmeticSpec.fixed(5, 1)
        vals = list(spec.values_p())
        for c in vals:
            for p in vals:
                exact = Fraction(c * p, spec.scale)
                rounded = math.floor(abs(exact) + Fraction(1, 2)) * (1 if exact >= 0 else -1)
                assert spec.mul_p(c, p) == spec.clamp(rounded), (c, p)


    @pytest.mark.parametrize("text", ["satint:1", "satint:3", "satint:5", "satint:7", "fixed:5:1"])
    def test_a_self_sum_is_the_doubling_exhaustive(self, text):
        # the tableau solves e + e as the scale by 2 * one: its table, image
        # and preimage must be those of the sum of a value with itself
        spec = ArithmeticSpec.parse(text)
        two, vals = 2 * spec.one, list(spec.values_p())
        for p in vals:
            assert spec.add_p(p, p) == spec.mul_p(two, p), p
        doubled = [(p, spec.add_p(p, p)) for p in vals]
        for lo in vals:
            for hi in vals:
                if lo <= hi:
                    assert spec.scale_image(two, lo, hi) == hull([d for p, d in doubled if lo <= p <= hi]), (lo, hi)
                want = interval_of([p for p, d in doubled if lo <= d <= hi])
                assert spec.mul_preimage(two, lo, hi) == want, (lo, hi)


class TestDiv:
    def test_rounds_away_from_zero(self):
        assert SAT10.div_p(7, 2) == 4
        assert SAT10.div_p(-7, 2) == -4

    def test_identity_divisor(self):
        spec = ArithmeticSpec.satint(4)
        for k in spec.values_p():
            assert spec.div_p(k, 1) == k

    def test_exact_quarter(self):
        assert FIX32_4.div_p(lit(FIX32_4, "1.0"), 4) == lit(FIX32_4, "0.25")

    def test_zero_divisor_rejected(self):
        with pytest.raises(UsageError):
            SAT10.div_p(4, 0)


class TestActivations:
    def test_relu(self):
        assert FIX32_4.act_p("relu", lit(FIX32_4, "-0.5")) == lit(FIX32_4, "0")
        assert FIX32_4.act_p("relu", lit(FIX32_4, "0.8")) == lit(FIX32_4, "0.8")

    def test_truncrelu(self):
        assert SAT10.act_p("truncrelu", 3) == SAT10.one
        assert FIX32_4.act_p("truncrelu", lit(FIX32_4, "0.5")) == lit(FIX32_4, "0.5")
        assert FIX32_4.act_p("truncrelu", lit(FIX32_4, "-3")) == lit(FIX32_4, "0")

    def test_unknown_activation(self):
        with pytest.raises(ConfigError):
            SAT10.act_p("sigmoid", 1)

    @pytest.mark.parametrize("spec", [ArithmeticSpec.satint(8), FIX16_1])
    def test_truncrelu_relu_identity_exhaustive(self, spec):
        # truncrelu(x) = relu(relu(x) - relu(x - 1)) everywhere
        one = spec.one
        for x in spec.values_p():
            rewritten = spec.act_p(
                "relu",
                spec.add_p(
                    spec.act_p("relu", x),
                    spec.mul_p(-one, spec.act_p("relu", spec.add_p(x, -one))),
                ),
            )
            assert rewritten == spec.act_p("truncrelu", x)


def brute_add_pairs(spec, k):
    return {
        (p1, p2)
        for p1 in spec.values_p()
        for p2 in spec.values_p()
        if spec.add_p(p1, p2) == k
    }


class TestInverseStreams:
    def test_add_inverses_zero(self):
        s2 = ArithmeticSpec.satint(2)
        got = [(a.payload, b.payload) for a, b in add_inverses(Value(0, s2))]
        assert got == [(-2, 2), (-1, 1), (0, 0), (1, -1), (2, -2)]

    def test_add_inverses_saturating_target(self):
        s2 = ArithmeticSpec.satint(2)
        got = [(a.payload, b.payload) for a, b in add_inverses(Value(2, s2))]
        for pair in [(0, 2), (1, 1), (1, 2), (2, 2)]:
            assert pair in got
        assert got == sorted(got)

    def test_add_inverses_contains_identity_pair(self):
        for k in all_values(ArithmeticSpec.satint(3)):
            pairs = {(a.payload, b.payload) for a, b in add_inverses(k)}
            assert (0, k.payload) in pairs

    @pytest.mark.parametrize("a", [1, 2, 3])
    def test_add_inverses_complete(self, a):
        spec = ArithmeticSpec.satint(a)
        for k in spec.values_p():
            got = {(x.payload, y.payload) for x, y in add_inverses(Value(k, spec))}
            assert got == brute_add_pairs(spec, k)

    def test_act_inverses_relu_zero(self):
        s2 = ArithmeticSpec.satint(2)
        assert [x.payload for x in act_inverses("relu", Value(0, s2))] == [-2, -1, 0]

    def test_mul_inverses_negation(self):
        got = list(mul_inverses(v(FIX32_4, "-1"), v(FIX32_4, "-0.8")))
        assert got == [v(FIX32_4, "0.8")]

    def test_mul_inverses_mixed_specs_rejected(self):
        with pytest.raises(UsageError):
            list(mul_inverses(v(SAT10, "1"), v(FIX32_4, "1")))

    @pytest.mark.parametrize("a", [1, 2, 3])
    def test_mul_inverses_complete(self, a):
        spec = ArithmeticSpec.satint(a)
        for c in spec.values_p():
            for k in spec.values_p():
                got = [x.payload for x in mul_inverses(Value(c, spec), Value(k, spec))]
                want = [p for p in spec.values_p() if spec.mul_p(c, p) == k]
                assert got == want, (c, k)

    @pytest.mark.parametrize("name", ["relu", "truncrelu", "id"])
    def test_act_inverses_complete(self, name):
        spec = ArithmeticSpec.satint(3)
        for k in spec.values_p():
            got = [x.payload for x in act_inverses(name, Value(k, spec))]
            want = [p for p in spec.values_p() if spec.act_p(name, p) == k]
            assert got == want

    def test_values_geq_lt_orders(self):
        spec = ArithmeticSpec.satint(3)
        assert [x.payload for x in values_geq(Value(1, spec))] == [1, 2, 3]
        assert [x.payload for x in values_lt(Value(1, spec))] == [0, -1, -2, -3]
        start = values_geq(v(FIX32_4, "100"))
        assert [str(next(start)) for _ in range(2)] == ["100.0000", "100.0001"]

    @pytest.mark.parametrize("a", [2, 3])
    def test_values_streams_complete(self, a):
        spec = ArithmeticSpec.satint(a)
        for k in spec.values_p():
            geq = [x.payload for x in values_geq(Value(k, spec))]
            lt = [x.payload for x in values_lt(Value(k, spec))]
            assert geq == [p for p in spec.values_p() if p >= k]
            assert lt == sorted((p for p in spec.values_p() if p < k), reverse=True)


@settings(max_examples=300)
@given(
    x=st.integers(-(2 ** 15) + 1, 2 ** 15 - 1),
    y=st.integers(-(2 ** 15) + 1, 2 ** 15 - 1),
)
def test_closure_fixed_point(x, y):
    spec = FIX16_1
    for p in (spec.add_p(x, y), spec.mul_p(x, y), spec.div_p(x, 3), spec.act_p("truncrelu", x)):
        assert spec.contains(p)


@settings(max_examples=200)
@given(
    c=st.integers(-(2 ** 15) + 1, 2 ** 15 - 1),
    k=st.integers(-(2 ** 15) + 1, 2 ** 15 - 1),
)
def test_mul_preimage_sound_fixed_point(c, k):
    spec = FIX16_1
    rng = spec.mul_preimage(c, k, k)
    if rng is not None:
        lo, hi = rng
        assert spec.mul_p(c, lo) == k
        assert spec.mul_p(c, hi) == k
        mid = (lo + hi) // 2
        assert spec.mul_p(c, mid) == k
    # neighbours just outside the interval must not map onto k
    if rng is not None and c != 0:
        lo, hi = rng
        if spec.contains(lo - 1):
            assert spec.mul_p(c, lo - 1) != k
        if spec.contains(hi + 1):
            assert spec.mul_p(c, hi + 1) != k


# -- integer preimages against the rational windows they replaced -------------


def fraction_round_window(spec, tlo, thi):
    """Reference: rational window of x with clamp(round_away(x)) in [tlo, thi]."""
    half = Fraction(1, 2)
    if tlo == -spec.max_payload:
        lo, lo_strict = None, False
    elif tlo > 0:
        lo, lo_strict = Fraction(tlo) - half, False
    else:
        lo, lo_strict = Fraction(tlo) - half, True
    if thi == spec.max_payload:
        hi, hi_strict = None, False
    elif thi < 0:
        hi, hi_strict = Fraction(thi) + half, False
    else:
        hi, hi_strict = Fraction(thi) + half, True
    return lo, lo_strict, hi, hi_strict


def clip(spec, lo, hi):
    m = spec.max_payload
    lo, hi = max(lo, -m), min(hi, m)
    return None if lo > hi else (lo, hi)


def fraction_mul_preimage(spec, c, tlo, thi):
    """Reference: mul_preimage computed through Fraction windows."""
    if tlo > thi:
        return None
    m = spec.max_payload
    if c == 0:
        return (-m, m) if tlo <= 0 <= thi else None
    lo, lo_strict, hi, hi_strict = fraction_round_window(spec, tlo, thi)
    s = Fraction(spec.scale, c)
    a = None if lo is None else lo * s
    b = None if hi is None else hi * s
    if c < 0:
        a, b, lo_strict, hi_strict = b, a, hi_strict, lo_strict
    plo = -m if a is None else (math.floor(a) + 1 if lo_strict else math.ceil(a))
    phi = m if b is None else (math.ceil(b) - 1 if hi_strict else math.floor(b))
    return clip(spec, plo, phi)


def fraction_div_preimage(spec, k, m):
    """Reference: div_preimage computed through Fraction windows."""
    top = spec.max_payload
    lo, lo_strict, hi, hi_strict = fraction_round_window(spec, k, k)
    slo = -top if lo is None else (math.floor(lo * m) + 1 if lo_strict else math.ceil(lo * m))
    shi = top if hi is None else (math.ceil(hi * m) - 1 if hi_strict else math.floor(hi * m))
    return clip(spec, slo, shi)


PREIMAGE_SPECS = [ArithmeticSpec.satint(3), ArithmeticSpec.satint(7), ArithmeticSpec.fixed(5, 1), ArithmeticSpec.fixed(7, 1)]
WINDOW_SPECS = [*map(ArithmeticSpec.satint, (1, 2, 3)), ArithmeticSpec.fixed(5, 1)]


def interval_of(ps):
    """(lo, hi) when the ascending payloads ps are the run lo..hi, None when
    there are none, else ps itself, which equals no interval."""
    if not ps:
        return None
    return (ps[0], ps[-1]) if ps == list(range(ps[0], ps[-1] + 1)) else ps


class TestIntegerPreimages:
    @pytest.mark.parametrize("spec", PREIMAGE_SPECS[:3], ids=lambda s: s.spec_string())
    def test_mul_preimage_matches_fractions_exhaustive(self, spec):
        values = list(spec.values_p())
        for c in values:
            for tlo in values:
                for thi in values:
                    assert spec.mul_preimage(c, tlo, thi) == fraction_mul_preimage(spec, c, tlo, thi), (c, tlo, thi)

    def test_mul_preimage_matches_fractions_fixed7_1(self):
        # every c and every lower end; upper ends at the lower end and just
        # around it (one below is empty), and saturated at either extreme
        spec = ArithmeticSpec.fixed(7, 1)
        m = spec.max_payload
        values = list(spec.values_p())
        for c in values:
            for tlo in values:
                for thi in {tlo - 1, tlo, tlo + 1, tlo + 7, -m, m}:
                    if spec.contains(thi):
                        assert spec.mul_preimage(c, tlo, thi) == fraction_mul_preimage(spec, c, tlo, thi), (c, tlo, thi)
            for thi in values:
                assert spec.mul_preimage(c, -m, thi) == fraction_mul_preimage(spec, c, -m, thi), (c, thi)

    @pytest.mark.parametrize("spec", PREIMAGE_SPECS[:3], ids=lambda s: s.spec_string())
    def test_act_preimages_exhaustive(self, spec):
        values = list(spec.values_p())
        for name in ACTIVATIONS:
            images = [(p, spec.act_p(name, p)) for p in values]
            for tlo in values:
                for thi in values[values.index(tlo):]:
                    want = [p for p, a in images if tlo <= a <= thi]
                    want = (want[0], want[-1]) if want else None
                    assert spec.act_preimage_interval(name, tlo, thi) == want, (name, tlo, thi)
                    if tlo == thi:
                        assert spec.act_preimage(name, tlo) == want, (name, tlo)

    @pytest.mark.parametrize("spec", PREIMAGE_SPECS, ids=lambda s: s.spec_string())
    def test_div_preimage_matches_fractions_exhaustive(self, spec):
        for k in spec.values_p():
            for m in range(1, 9):
                assert spec.div_preimage(k, m) == fraction_div_preimage(spec, k, m), (k, m)

    @pytest.mark.parametrize("spec", WINDOW_SPECS, ids=lambda s: s.spec_string())
    def test_add_preimage_exhaustive(self, spec):
        values = list(spec.values_p())
        for a in values:
            sums = [(q, spec.add_p(a, q)) for q in values]
            for tlo in values:
                for thi in values[values.index(tlo):]:
                    want = interval_of([q for q, s in sums if tlo <= s <= thi])
                    assert spec.add_preimage(a, tlo, thi) == want, (a, tlo, thi)

    @pytest.mark.parametrize("spec", WINDOW_SPECS, ids=lambda s: s.spec_string())
    def test_empty_targets_have_no_preimage(self, spec):
        # saturation hands these rules empty targets: contradicting bounds
        # (tlo > thi), and (-M, -M - 1) for an atom "< -M"
        values = list(spec.values_p())
        m = spec.max_payload
        for tlo, thi in [(tlo, thi) for tlo in values for thi in values if tlo > thi] + [(-m, -m - 1)]:
            for name in ACTIVATIONS:
                assert spec.act_preimage_interval(name, tlo, thi) is None, (name, tlo, thi)
            for a in values:
                assert spec.add_preimage(a, tlo, thi) is None, (a, tlo, thi)

    @pytest.mark.parametrize("spec", WINDOW_SPECS, ids=lambda s: s.spec_string())
    def test_sum_left_window_on_empty_partner_intervals(self, spec):
        # the tableau passes the partner's range as it stands, empty (blo >
        # bhi) under contradicting bounds, and its ticks rest on the answer:
        # the window's end rule, under which at k = M only bhi bounds the
        # window and at k = -M only blo, and elsewhere the window is empty
        values = list(spec.values_p())
        m = spec.max_payload
        for k in values:
            for blo in values:
                for bhi in values[: blo + m]:
                    want = None
                    if k in (m, -m):
                        end = bhi if k == m else blo
                        want = interval_of([k1 for k1 in values if spec.add_p(k1, end) == k])
                    assert spec.sum_left_window(k, blo, bhi) == want, (k, blo, bhi)

    @pytest.mark.parametrize("spec", WINDOW_SPECS, ids=lambda s: s.spec_string())
    def test_sum_left_window_exhaustive(self, spec):
        values = list(spec.values_p())
        m = spec.max_payload
        for k in values:
            # hits[k1][j]: how many k2 among the first j values have add_p(k1, k2) = k
            hits = {
                k1: list(itertools.accumulate((spec.add_p(k1, k2) == k for k2 in values), initial=0))
                for k1 in values
            }
            for blo in values:
                for bhi in values[blo + m :]:
                    want = interval_of([k1 for k1 in values if hits[k1][bhi + m + 1] > hits[k1][blo + m]])
                    assert spec.sum_left_window(k, blo, bhi) == want, (k, blo, bhi)


def boxes(spec):
    """Every interval of payloads: the non-empty ones, and the empty ones
    (lo > hi)."""
    ps = list(spec.values_p())
    return [(lo, hi) for lo in ps for hi in ps if lo <= hi], [(lo, hi) for lo in ps for hi in ps if lo > hi]


def hull(outs):
    return (min(outs), max(outs))


class TestForwardIntervalRules:
    """Each rule holds the image of every point of its box and, since every
    primitive is monotone, reaches both ends of it: the image is the hull of
    the pointwise results.  An empty box follows the stated convention."""

    SATINT3 = ArithmeticSpec.satint(3)
    FIXED5_1 = ArithmeticSpec.fixed(5, 1)

    def test_sum_scale_and_act_exhaustive_satint3(self):
        spec = self.SATINT3
        full, empty = boxes(spec)
        for a in full:
            xs = range(a[0], a[1] + 1)
            for b in full:
                assert spec.sum_image(a, b) == hull([spec.add_p(x, y) for x in xs for y in range(b[0], b[1] + 1)])
            for w in spec.values_p():  # every sign, 0 among them
                assert spec.scale_image(w, *a) == hull([spec.mul_p(w, x) for x in xs])
            for name in ACTIVATIONS:
                assert spec.act_image(name, *a) == hull([spec.act_p(name, x) for x in xs])
        # empty boxes: sum and act map each end in place, scale sorts
        for a in empty:
            for b in full + empty:
                assert spec.sum_image(a, b) == spec.sum_image(b, a) == (spec.add_p(a[0], b[0]), spec.add_p(a[1], b[1]))
            for w in spec.values_p():
                assert spec.scale_image(w, *a) == tuple(sorted((spec.mul_p(w, a[0]), spec.mul_p(w, a[1]))))
            for name in ACTIVATIONS:
                assert spec.act_image(name, *a) == (spec.act_p(name, a[0]), spec.act_p(name, a[1]))

    def test_every_rule_sampled_fixed5_1(self):
        spec, rng = self.FIXED5_1, random.Random(0)
        m = spec.max_payload
        ps = list(spec.values_p())

        def box():
            return tuple(sorted((rng.randint(-m, m), rng.randint(-m, m))))

        for _ in range(2000):
            a, b, w, name = box(), box(), rng.choice(ps + [0] * 3), rng.choice(ACTIVATIONS)
            xs, ys = range(a[0], a[1] + 1), range(b[0], b[1] + 1)
            assert spec.sum_image(a, b) == hull([spec.add_p(x, y) for x in xs for y in ys])
            assert spec.scale_image(w, *a) == hull([spec.mul_p(w, x) for x in xs])
            assert spec.act_image(name, *a) == hull([spec.act_p(name, x) for x in xs])
            # an empty box, under the convention
            e = (a[1], a[0]) if a[0] < a[1] else (a[0] + 1, a[0]) if a[0] < m else (m, m - 1)
            assert spec.sum_image(e, b) == (spec.add_p(e[0], b[0]), spec.add_p(e[1], b[1]))
            assert spec.scale_image(w, *e) == tuple(sorted((spec.mul_p(w, e[0]), spec.mul_p(w, e[1]))))
            assert spec.act_image(name, *e) == (spec.act_p(name, e[0]), spec.act_p(name, e[1]))
