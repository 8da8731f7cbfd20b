"""Saturating fixed-width arithmetic.

Two families of value sets are supported:

* ``satint:a`` is the set ``{-a, ..., a}`` of integers where addition and
  multiplication clamp to the extremes instead of wrapping.
* ``fixed:b:d`` is the set ``{p / 10**d : |p| <= 2**(b-1) - 1}`` of decimal
  fixed-point numbers stored on ``b`` bits.

Internally every value is a scaled integer payload; all operations are exact
integer arithmetic followed by round-to-nearest (ties away from zero) and a
clamp; so is every activation.  Besides the forward operations and the
aggregation fold, this module holds every interval rule: the forward ones,
the image of intervals under a primitive (``sum_image``, ``scale_image``,
``act_image``, and ``agg_hull`` over arities), which map an empty
interval's ends like any other's (sum and act in place, scale sorted), and
the backward ones the tableau prunes with (``mul_preimage``,
``div_preimage``, and one clamp preimage for ``act_preimage_interval``,
``add_preimage`` and ``sum_left_window``).
The inverse enumerators over ``Value`` are lazy, deterministic and yield
exactly the witnessing values.

Specs are interned, one per value set, and each keeps the tables of its
primitives that both engines read (``ArithmeticSpec.table``), and one table
of literals, by their text, that every loader and the formula parser read
(``parse_literal``): a literal is decoded once per value set, however often
a network repeats it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Iterable, Iterator, Optional

from .errors import ConfigError, UsageError

# Every activation is a clamp: its ends, of a spec's M and one (``clamps``).
_CLAMP_ENDS = {
    "relu": lambda m, one: (0, m),
    "truncrelu": lambda m, one: (0, one),
    "id": lambda m, one: (-m, m),
}
ACTIVATIONS = tuple(_CLAMP_ENDS)
AGG_KINDS = ("sum", "mean", "max", "weighted")  # the kinds the fold and agg_hull switch on


def _round_div_away(num: int, den: int) -> int:
    """num/den rounded to the nearest integer, ties away from zero (den > 0)."""
    q, r = divmod(abs(num), den)
    if 2 * r >= den:
        q += 1
    return q if num >= 0 else -q


def _least(num: int, d: int, strict: bool) -> int:
    """Least integer p with d*p >= num, or d*p > num when strict (d > 0)."""
    return num // d + 1 if strict else -(-num // d)


def _greatest(num: int, d: int, strict: bool) -> int:
    """Greatest integer p with d*p <= num, or d*p < num when strict (d > 0)."""
    return -(-num // d) - 1 if strict else num // d


def intersect(a: Optional[tuple[int, int]], b: Optional[tuple[int, int]]) -> Optional[tuple[int, int]]:
    """The payloads in both intervals, or None for none (None is the empty interval)."""
    if a is None or b is None:
        return None
    lo = max(a[0], b[0])
    hi = min(a[1], b[1])
    return None if lo > hi else (lo, hi)


def weight_cap(weight_vectors: Iterable[tuple[int, ...] | None]) -> int | None:
    """The fewest weights of any weighted aggregation among the vectors
    (None entries are unweighted ones), or None when there is none.

    This is the one arity rule: where a weighted aggregation occurs, no node
    may have more successors than this, whichever aggregation it evaluates.
    """
    return min((len(w) for w in weight_vectors if w is not None), default=None)


def arity_bound(*caps: int | None) -> int | None:
    """The most successors a node may have: the least of the caps that are
    not None (δ's value, a weight cap, an engine's own), or None when there
    is none.  A cap of 0 is a bound, not a missing one.  Every engine and
    phase reads its arity bound here."""
    return min((cap for cap in caps if cap is not None), default=None)


# The tables of primitive results (``ArithmeticSpec.table``) of every spec
# hold at most about this many entries in all: past it, each starts again.
TABLE_ENTRIES = 1 << 16
_filled = 0  # entries added since the tables last started again
_SPECS: dict[tuple, "ArithmeticSpec"] = {}  # every spec, by its fields


class _Table(dict):
    """Results of one primitive by its last operand, a payload (or a
    literal's text), filled on demand.  A call that raises stores nothing."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, p: int) -> int:
        out = self[p] = self.fn(p)
        _filled_with(1)
        return out

    def at_each(self, payloads: Iterable[int]) -> list[int]:
        """The results at each of payloads.  They are read once, so they may
        be made on the fly (say the entrywise sums of two columns), and one
        missing from the table is filled when first met."""
        return list(map(self.__getitem__, payloads))


class _Literals(_Table):
    """The payload of each literal by its text.  A value of another type,
    such as a JSON number, is read as its text (``str``): only texts are
    kept, since 1, 1.0 and True are one key but three literals."""

    __slots__ = ()

    def __missing__(self, text) -> int:
        return super().__missing__(text) if type(text) is str else self[str(text)]


class _Clamps(dict):
    """The clamp ends of each activation, by name; an unknown name is a ConfigError."""

    def __missing__(self, name: str):
        raise ConfigError(f"unknown activation {name!r}; known: {', '.join(ACTIVATIONS)}")


def _filled_with(n: int) -> None:
    """Count n new entries; past TABLE_ENTRIES, empty every table in place,
    so that none that a caller still holds keeps its entries."""
    global _filled
    _filled += n
    if _filled > TABLE_ENTRIES:
        _filled = 0
        for spec in list(_SPECS.values()):  # copies: another thread may add one
            for table in list(spec._tables.values()):
                table.clear()


@dataclass(frozen=True, eq=False)
class ArithmeticSpec:
    """A finite saturating number set, described by its payload range and scale.

    ``max_payload`` is the largest representable payload M; the value set is
    the symmetric range [-M, M] of payloads, each denoting payload / 10**frac_decimals.
    ``scale`` (10**frac_decimals), ``one``, the payload of the value 1 (the
    same number), and each activation's ends ``clamps`` are set once.

    Specs are interned: ``satint``, ``fixed`` and ``parse`` return one object
    per value set, so equality and hashing are those of identity.
    """

    kind: str  # "satint" | "fixed"
    max_payload: int
    frac_decimals: int
    total_bits: int | None = None
    scale: int = field(init=False, repr=False)
    one: int = field(init=False, repr=False)
    clamps: dict = field(init=False, repr=False)
    _tables: dict = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "scale", 10 ** self.frac_decimals)
        object.__setattr__(self, "one", self.scale)
        m, one = self.max_payload, self.one
        object.__setattr__(self, "clamps", _Clamps((name, ends(m, one)) for name, ends in _CLAMP_ENDS.items()))
        object.__setattr__(self, "_tables", {("decode_literal",): _Literals(self.decode_literal)})

    @staticmethod
    def _interned(*fields) -> "ArithmeticSpec":
        # setdefault keeps the first spec made, also when two threads race
        return _SPECS.get(fields) or _SPECS.setdefault(fields, ArithmeticSpec(*fields))

    @staticmethod
    def satint(a: int) -> "ArithmeticSpec":
        if a < 1:
            raise ConfigError(f"satint range must be >= 1 so that -1, 0, 1 are representable, got {a}")
        return ArithmeticSpec._interned("satint", a, 0, None)

    @staticmethod
    def fixed(total_bits: int, frac_decimals: int) -> "ArithmeticSpec":
        if total_bits < 2:
            raise ConfigError(f"fixed-point needs at least 2 bits, got {total_bits}")
        if frac_decimals < 0:
            raise ConfigError(f"frac_decimals must be >= 0, got {frac_decimals}")
        m = 2 ** (total_bits - 1) - 1
        if m < 10 ** frac_decimals:
            raise ConfigError(
                f"fixed:{total_bits}:{frac_decimals} cannot represent 1 "
                f"(max payload {m} < 10^{frac_decimals})"
            )
        return ArithmeticSpec._interned("fixed", m, frac_decimals, total_bits)

    @staticmethod
    def parse(text: str) -> "ArithmeticSpec":
        """Parse a spec string: ``satint:<a>`` or ``fixed:<total_bits>:<frac_decimals>``."""
        parts = text.strip().split(":")
        try:
            if parts[0] == "satint" and len(parts) == 2:
                return ArithmeticSpec.satint(int(parts[1]))
            if parts[0] == "fixed" and len(parts) == 3:
                return ArithmeticSpec.fixed(int(parts[1]), int(parts[2]))
        except ValueError:
            pass
        raise ConfigError(f"bad arithmetic spec {text!r}; expected satint:<a> or fixed:<bits>:<decimals>")

    def spec_string(self) -> str:
        if self.kind == "satint":
            return f"satint:{self.max_payload}"
        return f"fixed:{self.total_bits}:{self.frac_decimals}"

    @property
    def bit_width(self) -> int:
        """Minimal number of bits that encodes the payload range."""
        if self.total_bits is not None:
            return self.total_bits
        return max(1, math.ceil(math.log2(2 * self.max_payload + 1)))

    @property
    def n_values(self) -> int:
        return 2 * self.max_payload + 1

    def clamp(self, p: int) -> int:
        m = self.max_payload
        return -m if p < -m else m if p > m else p

    def contains(self, p: int) -> bool:
        return -self.max_payload <= p <= self.max_payload

    def check_payload(self, p: int) -> int:
        if not self.contains(p):
            raise UsageError(f"payload {p} outside {self.spec_string()}")
        return p

    def table(self, name: str, *operands) -> dict[int, int]:
        """The method ``name`` with these leading operands, by the payload of
        its last: ``table("mul_p", 2)[p]`` is ``mul_p(2, p)``.  There is one
        table per (name, operands), shared by every caller and filled on
        demand, until the tables start again (``TABLE_ENTRIES``).
        ``table("decode_literal")`` is the table of literals by their text
        (``parse_literal``)."""
        key = (name, *operands)
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = _Table(partial(getattr(self, name), *operands))
        return table

    # -- forward operations on payloads ------------------------------------

    # add_p and mul_p clamp inline: they are the innermost calls of every
    # evaluator

    def add_p(self, a: int, b: int) -> int:
        s, m = a + b, self.max_payload
        return -m if s < -m else m if s > m else s

    def mul_p(self, c: int, p: int) -> int:
        x, m, scale = c * p, self.max_payload, self.scale
        if scale != 1:  # round half away from zero, as _round_div_away
            q, r = divmod(-x if x < 0 else x, scale)
            if 2 * r >= scale:
                q += 1
            x = -q if x < 0 else q
        return -m if x < -m else m if x > m else x

    def div_p(self, p: int, m: int) -> int:
        if m < 1:
            raise UsageError(f"division arity must be >= 1, got {m}")
        return self.clamp(_round_div_away(p, m))

    def act_p(self, name: str, p: int) -> int:
        lo, hi = self.clamps[name]
        return lo if p < lo else hi if p > hi else p

    def fold_add(self, payloads) -> int:
        """Left fold of saturating addition, empty fold = 0."""
        acc = 0
        for p in payloads:
            acc = self.add_p(acc, p)
        return acc

    # The fold of an aggregation (kind sum, mean, max or weighted) over its
    # successors in order: start, one step per successor, finish.  A step
    # takes the successor's contribution, which for weighted is already the
    # product with the successor's weight.

    @staticmethod
    def fold_start(kind: str) -> int | None:
        """Accumulator before the first successor."""
        return None if kind == "max" else 0

    def fold_step(self, kind: str, acc: int | None, p: int) -> int:
        """Accumulator after one more successor contributing p."""
        if kind == "max":
            return p if acc is None or p > acc else acc
        return self.add_p(acc, p)

    def fold_finish(self, kind: str, acc: int | None, arity: int) -> int:
        """Value of the aggregation over arity successors; 0 for none."""
        if arity == 0:
            return 0
        if kind == "mean":
            return self.div_p(acc, arity)
        return acc

    # -- forward interval rules ----------------------------------------------
    # The image of payload intervals (lo, hi) under a primitive.  Every
    # primitive is monotone, so the image's ends are its values at the ends.
    # An empty interval (lo > hi, from contradicting bounds) has no point to
    # miss.  The one convention for it: sum_image and act_image map each end
    # in place, so its order carries through, and scale_image sorts its ends.

    def sum_image(self, a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
        """Image of add_p over the intervals a and b."""
        m = self.max_payload
        lo, hi = a[0] + b[0], a[1] + b[1]
        return (-m if lo < -m else m if lo > m else lo, -m if hi < -m else m if hi > m else hi)

    def scale_image(self, w: int, lo: int, hi: int) -> tuple[int, int]:
        """Image of mul_p(w, .) over [lo, hi], its ends sorted."""
        a, b = self.mul_p(w, lo), self.mul_p(w, hi)
        return (a, b) if a <= b else (b, a)

    def act_image(self, name: str, lo: int, hi: int) -> tuple[int, int]:
        """Image of act_p(name, .) over [lo, hi], each end in place."""
        return self.act_p(name, lo), self.act_p(name, hi)

    def agg_hull(
        self, kind: str, lo: int, hi: int, cap: int | None, weights: tuple[int, ...] | None = None
    ) -> tuple[int, int]:
        """Payload interval holding the aggregation's value over any 0..cap
        successors (cap None: any number; weighted: at most one per weight)
        whose values lie in [lo, hi].

        Every fold step is monotone in the successor's value and arity 0 gives
        0, so the interval is the hull over the arities of the folds of the
        ends.  A saturated mean can fall below lo (satint:7: two successors
        at 5 sum to 7, and div_p(7, 2) = 4), but never below min(lo, 0).
        """
        if cap == 0:
            return (0, 0)
        if kind == "sum":
            m = self.max_payload
            if cap is None:
                return (-m if lo < 0 else 0, m if hi > 0 else 0)
            return (min(0, self.clamp(cap * lo)), max(0, self.clamp(cap * hi)))
        if kind != "weighted":  # max, mean
            return (min(lo, 0), max(hi, 0))
        acc = out = (0, 0)
        for w in weights[:cap]:
            acc = self.sum_image(acc, self.scale_image(w, lo, hi))
            out = (min(out[0], acc[0]), max(out[1], acc[1]))
        return out

    # -- literals ------------------------------------------------------------

    def parse_literal(self, text: str) -> int:
        """The payload of a decimal literal, read from ``table("decode_literal")``:
        each distinct text is decoded once (``decode_literal``), and one that
        does not decode raises again wherever it is read."""
        return self._tables[("decode_literal",)][text]

    def decode_literal(self, text: str) -> int:
        """Parse a decimal literal into a payload, rejecting unrepresentable ones."""
        s = text.strip()
        sign = 1
        if s.startswith(("-", "+")):
            sign = -1 if s[0] == "-" else 1
            s = s[1:]
        if not s:
            raise ConfigError(f"empty numeric literal {text!r}")
        if "." in s:
            intpart, frac = s.split(".", 1)
            if not (intpart.isdigit() and frac.isdigit()):
                raise ConfigError(f"bad numeric literal {text!r}")
            if len(frac) > self.frac_decimals:
                raise ConfigError(
                    f"literal {text!r} has {len(frac)} decimals, "
                    f"{self.spec_string()} supports {self.frac_decimals}"
                )
            frac = frac.ljust(self.frac_decimals, "0")
            p = int(intpart) * self.scale + int(frac or "0")
        else:
            if not s.isdigit():
                raise ConfigError(f"bad numeric literal {text!r}")
            p = int(s) * self.scale
        p *= sign
        if not self.contains(p):
            raise ConfigError(f"literal {text!r} out of range for {self.spec_string()}")
        return p

    def format_payload(self, p: int) -> str:
        if self.frac_decimals == 0:
            return str(p)
        sign = "-" if p < 0 else ""
        q, r = divmod(abs(p), self.scale)
        return f"{sign}{q}.{r:0{self.frac_decimals}d}"

    def values_p(self) -> Iterator[int]:
        """All payloads, ascending."""
        return iter(range(-self.max_payload, self.max_payload + 1))

    # -- inverse interval services -------------------------------------------
    # These return contiguous payload intervals (lo, hi) or None; they back the
    # public inverse streams and the tableau's pruning.

    def act_preimage(self, name: str, k: int) -> Optional[tuple[int, int]]:
        """Payload interval {p : act(p) = k} or None if no preimage exists."""
        return self.act_preimage_interval(name, k, k)

    def act_preimage_interval(self, name: str, tlo: int, thi: int) -> Optional[tuple[int, int]]:
        """Payload interval {p : act(p) in [tlo, thi]} or None."""
        return self._clamp_preimage(self.clamps[name], tlo, thi, 0, 0)

    def _clamp_preimage(self, ends, tlo: int, thi: int, slo: int, shi: int) -> Optional[tuple[int, int]]:
        """Payload interval {q : q + s clamped to ends is in [tlo, thi] for some
        s in [slo, shi]}, or None.  An end of the target at or past the
        clamp's end leaves that side unbounded.  An empty shift interval
        (slo > shi) keeps the saturated sides of a window, and only those."""
        clo, chi = ends
        if max(tlo, clo) > min(thi, chi):
            return None
        m = self.max_payload
        return intersect((-m if tlo <= clo else tlo - shi, m if thi >= chi else thi - slo), (-m, m))

    def _round_preimage(self, a: int, b: int, tlo: int, thi: int) -> Optional[tuple[int, int]]:
        """Payload interval {p : clamp(round_away(a*p/b)) in [tlo, thi]}, a != 0, b > 0.

        Rounding ties away from zero, round_away(x) >= tlo iff 2x >= 2*tlo - 1
        for tlo > 0, and 2x > 2*tlo - 1 for tlo <= 0, where the tie rounds
        down; likewise round_away(x) <= thi iff 2x <= 2*thi + 1 for thi < 0,
        and 2x < 2*thi + 1 otherwise.  Saturation leaves the extreme ends
        unbounded.  Multiplying through by b turns each end into a bound on
        2*a*p, which flips its side for a < 0.
        """
        m = self.max_payload
        lo, hi = -m, m
        d = 2 * abs(a)
        if tlo != -m:
            bound = (2 * tlo - 1) * b
            if a > 0:
                lo = _least(bound, d, tlo <= 0)
            else:
                hi = _greatest(-bound, d, tlo <= 0)
        if thi != m:
            bound = (2 * thi + 1) * b
            if a > 0:
                hi = _greatest(bound, d, thi >= 0)
            else:
                lo = _least(-bound, d, thi >= 0)
        return intersect((lo, hi), (-m, m))

    def mul_preimage(self, c: int, tlo: int, thi: int) -> Optional[tuple[int, int]]:
        """Payload interval {p : mul_p(c, p) in [tlo, thi]} or None."""
        if tlo > thi:
            return None
        m = self.max_payload
        if c == 0:
            return (-m, m) if tlo <= 0 <= thi else None
        return self._round_preimage(c, self.scale, tlo, thi)

    def add_preimage(self, a: int, tlo: int, thi: int) -> Optional[tuple[int, int]]:
        """Payload interval {q : add_p(a, q) in [tlo, thi]} or None; add_p is id of the sum."""
        return self._clamp_preimage(self.clamps["id"], tlo, thi, a, a)

    def sum_left_window(self, k: int, blo: int, bhi: int) -> Optional[tuple[int, int]]:
        """Payload interval of k1 such that some k2 in [blo, bhi] has add_p(k1, k2) = k."""
        return self._clamp_preimage(self.clamps["id"], k, k, blo, bhi)

    def div_preimage(self, k: int, m: int) -> Optional[tuple[int, int]]:
        """Payload interval {S : div_p(S, m) = k}."""
        return self._round_preimage(1, m, k, k)


@dataclass(frozen=True, order=False)
class Value:
    """An element of a finite arithmetic: an integer payload plus its spec."""

    payload: int
    spec: ArithmeticSpec

    def __post_init__(self):
        self.spec.check_payload(self.payload)

    @staticmethod
    def of(spec: ArithmeticSpec, literal: str) -> "Value":
        return Value(spec.parse_literal(literal), spec)

    def __str__(self) -> str:
        return self.spec.format_payload(self.payload)

    def __repr__(self) -> str:
        return f"Value({self} @ {self.spec.spec_string()})"


# -- inverse enumeration streams ---------------------------------------------


def values_geq(k: Value) -> Iterator[Value]:
    """All values >= k, ascending from k."""
    spec = k.spec
    for p in range(k.payload, spec.max_payload + 1):
        yield Value(p, spec)


def values_lt(k: Value) -> Iterator[Value]:
    """All values < k, descending from the predecessor of k."""
    spec = k.spec
    for p in range(k.payload - 1, -spec.max_payload - 1, -1):
        yield Value(p, spec)


def _values_in(spec: ArithmeticSpec, rng: Optional[tuple[int, int]]) -> Iterator[Value]:
    """The values of the payload interval rng (None: none), ascending."""
    for p in range(rng[0], rng[1] + 1) if rng else ():
        yield Value(p, spec)


def add_inverses(k: Value) -> Iterator[tuple[Value, Value]]:
    """All pairs (k1, k2) with add_p(k1, k2) = k; k1 ascending, then k2 ascending."""
    spec = k.spec
    for p1 in range(-spec.max_payload, spec.max_payload + 1):
        for v2 in _values_in(spec, spec.add_preimage(p1, k.payload, k.payload)):
            yield Value(p1, spec), v2


def mul_inverses(c: Value, k: Value) -> Iterator[Value]:
    """All values v with mul_p(c, v) = k, ascending."""
    spec = k.spec
    if c.spec != spec:
        raise UsageError(f"mixed arithmetic specs: {c.spec.spec_string()} vs {spec.spec_string()}")
    yield from _values_in(spec, spec.mul_preimage(c.payload, k.payload, k.payload))


def act_inverses(name: str, k: Value) -> Iterator[Value]:
    """All values v with act_p(name, v) = k, ascending."""
    yield from _values_in(k.spec, k.spec.act_preimage(name, k.payload))
