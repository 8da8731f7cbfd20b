"""Tableau decision procedure for formula satisfiability and LVP verification.

A branch keeps one value per (word, expression) pair; asserting a second,
different value clashes the branch.  A word names a node of the tree model:
the root, or the i-th successor of a word.  Each search numbers its words as
``_Search.successors`` first reaches them and holds word number n as the
offset n * K, where K (``_Search.stride``) exceeds every expression id of the
formula.  The root word is 0, and a (word, expression) pair's store key is the
integer word + eid (eid = key % K, word = key - eid).  The engine alternates

1. saturation: all deterministic consequences (boolean decomposition,
   forward evaluation of ground subexpressions, and the backward rule of
   act, scale, self-sum and sum nodes, ``_Search._oblige``, which assigns
   an operand whose window, ``_Search._window``, holds one value),
2. a choice point, explored depth first in a fixed order: boolean splits,
   then the arity of a word on which an open atom's forward evaluation
   stopped in saturation's last pass over the atoms, then atom value guesses
   in the streams' canonical orders, then stuck inversions (the values of
   one operand's window, or of the leaf its node's evaluation stopped on),
   then successor work (arities ascending from 0, successor children one at
   a time).  Choosing such an arity first saves guessing an aggregation's
   value that every arity would then have to reconcile.

Every (word, expression) pair starts at its expression's structural range,
its interval at any word (``_Search.structural_ranges``, where an
aggregation ranges over ``ArithmeticSpec.agg_hull`` of its child's range up
to the arity cap); the store's bounds only narrow it.  Saturation and the
candidate streams of atom guesses, inversions, groundings and successor
walks read that one range, through ``_Search.expr_range``, and the walks
also the reachability of aggregation targets.  Pruned candidates provably
cannot be completed, so the enumeration stays exhaustive.  An atom its
expression's structural range cannot meet (``e >= k`` with the range's top
below k, ``e = k`` with k outside it, or their negations) clashes as soon as
the boolean decomposition reaches it, at any word, before the ticks
``assign`` would charge.  A sum of an expression with itself, ``e + e``, is
the scale by 2: ``add_p(v, v) == mul_p(2 * one, v)`` for every payload, so
it is evaluated, ranged and inverted, and bounds pass through it, as through
a unary node (``_Search.unary``): one child value at a time, not a pair of
operand values.
Aggregation constraints walk their successors incrementally with a running
accumulator, up to the arity cap (``arith.arity_bound``).  ``solve`` hands
the search δ's value alone: its encoding only sizes the input.  Every
aggregation kind walks by one rule (``walk_window``): a successor's
candidates are the values from which the lowest and highest completions,
through the later successors' structural ranges, can still reach the
aggregation's value.

Forward evaluation (``_Search._derive``) records where it stops on an
unknown expression: the unvalued feature or the word without an arity it
reached first.  A stuck inversion that would branch less forward than
backward grounds that feature or picks that arity.

The search's work is counted in ticks: one per branch alternative tried, one
per value assigned, and one per value newly derived into the store by forward
evaluation, charged to a ``semantics.Budget`` of ``SolveLimits.max_terms``
ticks and ``SolveLimits.time_limit`` seconds.  The clock is read once every
1 024 ticks, and in saturation once per atom and once per obligation, whose
walks down unknown expressions charge no tick and take as long as the
expression is deep.  ``verify_lvp`` runs cheaper sound deciders first, and
every phase charges the same budget.  Interval bounds of the network's
outputs (``gnn.BoxSplit.proved``) are free of ticks.  A round of
counterexample sampling (``falsify.Sampler``) costs nodes × layers + 1 ticks
per sampled tree; branch and bound over the last layer's input box
(``gnn.BoxSplit.run``) costs a tick per box per FNN layer, the root's box
among them, though the bounds already mapped it; up to
``falsify.EXTRA_ROUNDS`` more rounds follow at the sampling price, and the
tableau gets what is left.  The compiled formula reads the inputs alone, so
a tableau model of it is a counterexample as found.
"""

from __future__ import annotations

import bisect
from collections import deque
from dataclasses import dataclass
from functools import partial

from .arith import ArithmeticSpec, Value, arity_bound, intersect
from .compile import CompiledInstance, compile_lvp
from .falsify import EXTRA_ROUNDS, Sampler
from .formula import Arena, Formula
from .gnn import BoxSplit, DeltaMode, LvpInstance, eval_linineq, gnn_eval
from .graph import PointedGraph, tree
from .semantics import Budget, LimitHit, Sat, Unknown, Unsat, Verdict, check, check_limits, eval_payload


@dataclass
class SolveLimits:
    time_limit: float | None = None
    max_terms: int | None = None

    def __post_init__(self):
        check_limits(self.time_limit, max_terms=self.max_terms)


@dataclass
class Valid:
    by: str  # the phase that proved it: "bounds", "split" or "tableau"


@dataclass
class Invalid:
    counterexample: PointedGraph
    outputs: list[Value]


LvpVerdict = Valid | Invalid | Unknown


class _Clash(Exception):
    pass


class _State:
    __slots__ = ("values", "arity", "bounds", "bools", "atoms", "obligations", "walks")

    # words are offsets and (word, expression) pairs store keys (see the
    # module docstring); the word table itself belongs to the _Search.
    # bounds holds the pairs narrowed below their structural range; a pair
    # missing from it has that range
    def __init__(self):
        self.values: dict[int, int] = {}
        self.arity: dict[int, int] = {}
        self.bounds: dict[int, tuple[int, int]] = {}
        self.bools: list[tuple[int, int, bool]] = []
        self.atoms: list[tuple[int, int, bool]] = []
        self.obligations: dict[int, bool] = {}
        self.walks: list[tuple] = []  # (word, agg_eid, pos, acc)

    def fork(self) -> "_State":
        child = _State.__new__(_State)
        child.values = self.values.copy()
        child.arity = self.arity.copy()
        child.bounds = self.bounds.copy()
        child.bools = self.bools.copy()
        child.atoms = self.atoms.copy()
        child.obligations = self.obligations.copy()
        child.walks = self.walks.copy()
        return child


def _meets(r: tuple[int, int], tag: str, k: int, sign: bool) -> bool:
    """Whether a value in the interval r satisfies the atom e >= k (tag
    "geq") or e = k (tag "eq"), or with sign False its negation."""
    lo, hi = r
    if tag == "geq":
        return hi >= k if sign else lo < k
    return lo <= k <= hi if sign else r != (k, k)


def walk_window(spec: ArithmeticSpec, kind: str, acc: int | None, t: tuple[int, int], contrib, later, clo: int, chi: int):
    """Interval of successor values in [clo, chi] from which an aggregation
    walk can still fold into t, or None.

    A value v makes the accumulator ``fold_step(kind, acc, contrib[v])``
    (``contrib`` None: v itself; for weighted, the weight's ``mul_p`` table),
    and each later successor then folds in a contribution from its
    ``(lo, hi)`` interval in ``later``.  t is the aggregation's value, or for
    mean the sums that divide to it.  Every fold step is monotone, so along v
    ordered so that the contribution ascends neither the lowest nor the
    highest completion decreases: the values whose lowest completion is <=
    t's top and whose highest is >= t's bottom form one interval, found by
    binary search.  For sum, mean and max some choice of the later
    contributions folds each of them into t; for weighted, whose later
    intervals hold contributions that rounding skips, maybe not all do.

    When every later interval is the same, as always for sum, mean and max,
    its r copies fold as one step: r additions of one end c, all of one
    sign, clamp only at the end, to add_p(x, r*c), and max takes c once.
    """
    r = len(later)
    if r > 1 and later.count(later[0]) == r:
        lo, hi = later[0]
        later = [(lo, hi) if kind == "max" else (r * lo, r * hi)]

    def completion(v: int, side: int) -> int:
        x = spec.fold_step(kind, acc, v if contrib is None else contrib[v])
        for c in later:
            x = spec.fold_step(kind, x, c[side])
        return x

    ascending = contrib is None or contrib[clo] <= contrib[chi]
    vs = range(clo, chi + 1) if ascending else range(chi, clo - 1, -1)
    lo = bisect.bisect_left(vs, t[0], key=lambda v: completion(v, 1))
    hi = bisect.bisect_right(vs, t[1], key=lambda v: completion(v, 0))
    found = vs[lo:hi]
    return (min(found[0], found[-1]), max(found[0], found[-1])) if found else None


class _Search:
    def __init__(self, formula: Formula, delta: int | None, budget: Budget):
        self.formula = formula
        self.arena: Arena = formula.arena
        self.spec: ArithmeticSpec = formula.spec
        self.budget = budget
        fids, eids = formula.fids, formula.eids
        # the node table: expression nodes by id, and for each act node, each
        # non-zero scale node and each self-sum e + e its child, its
        # primitive's table, and its forward and backward interval rules, all
        # from ``arith``.  A self-sum is the scale by 2: add_p(v, v) is
        # mul_p(2 * one, v) for every payload v
        self.nodes: dict[int, tuple] = {eid: self.arena.expr(eid) for eid in eids}
        spec = self.spec
        self.unary: dict[int, tuple] = {}
        for eid, node in self.nodes.items():
            tag = node[0]
            if tag == "act":
                name, image, preimage = "act_p", spec.act_image, spec.act_preimage_interval
            elif (tag == "scale" and node[1] != 0) or (tag == "sum" and node[1] == node[2]):
                name, image, preimage = "mul_p", spec.scale_image, spec.mul_preimage
            else:
                continue
            operand, child = (2 * spec.one, node[1]) if tag == "sum" else node[1:]
            self.unary[eid] = (child, spec.table(name, operand), partial(image, operand), partial(preimage, operand))
        self.stopped_at: tuple = ()  # the leaf the last stuck ``_derive`` stopped on
        # in saturation's last pass over the atoms, the word without an arity
        # that stopped the first open atom stopped by one, else None
        self.atom_arity: int | None = None
        # the word table: word number n has offset n * stride and the offsets
        # of its successors 1, 2, ... in succs[n]
        self.stride = max(eids, default=0) + 1
        self.succs: list[list[int]] = [[]]
        # arity cap: δ, the weight cap (no model has a node of more
        # successors), and 2^n * |formula|, enough successors for distinct
        # summand combinations, so larger guesses are never needed
        combinatorial = (2 ** self.spec.bit_width) * (len(fids) + len(eids))
        self.arity_cap = arity_bound(delta, formula.weight_cap, combinatorial)
        # every (word, expression) pair starts at its expression's range here
        self.structural = self.structural_ranges()

    # -- bookkeeping -----------------------------------------------------------

    def root_state(self) -> _State:
        """The initial branch: the formula asserted at the root word."""
        st = _State()
        st.bools.append((0, self.formula.root, True))
        return st

    def successors(self, word: int, n: int) -> list[int]:
        """Offsets of the word's successors; entry i - 1 is the i-th, and at
        least the first n exist (new ones are numbered here)."""
        succs = self.succs[word // self.stride]
        while len(succs) < n:
            succs.append(len(self.succs) * self.stride)
            self.succs.append([])
        return succs

    def tick(self):
        """Charge one tick, as ``Budget.charge(1)`` would; the clock is read
        once every 1 024 ticks."""
        budget = self.budget
        ticks = budget.ticks = budget.ticks + 1
        if budget.limit is not None and ticks > budget.limit:
            raise LimitHit("node-limit")
        if ticks % 1024 == 0 and budget.expired():
            raise LimitHit("timeout")

    def assign(self, st: _State, word: int, eid: int, payload: int):
        """Constrain an expression's value at a word; clash on disagreement."""
        key = word + eid
        old = st.values.get(key)
        if old is not None:
            if old != payload:
                raise _Clash()
            return
        self.tick()
        node = self.nodes[eid]
        tag = node[0]
        if tag == "const":
            if node[1] != payload:
                raise _Clash()
            return
        bounds = st.bounds.get(key) or self.structural[eid]
        if not bounds[0] <= payload <= bounds[1]:
            raise _Clash()
        st.values[key] = payload
        if tag != "feat":
            st.obligations[key] = True

    def tighten(self, st: _State, word: int, eid: int, lo: int, hi: int) -> bool:
        """Narrow the known interval of an expression, at first its
        structural range, pushing bounds through invertible unary chains
        down to their leaves.  True when the expression's own interval
        narrowed.  A constant's structural range is its value, so narrowing
        it past that clashes."""
        changed = False
        while True:
            key = word + eid
            known = st.values.get(key)
            if known is not None:
                if not lo <= known <= hi:
                    raise _Clash()
                return changed
            old = st.bounds.get(key) or self.structural[eid]
            lo, hi = max(lo, old[0]), min(hi, old[1])
            if (lo, hi) == old:
                return changed
            if lo > hi:
                raise _Clash()
            st.bounds[key] = (lo, hi)
            changed = True
            op = self.unary.get(eid)
            if op is None:
                return True
            pre = op[3](lo, hi)
            if pre is None:
                raise _Clash()
            eid, (lo, hi) = op[0], pre

    def forward(self, st: _State, word: int, eid: int) -> int | None:
        """Evaluate an expression at a word from the store, memoizing results."""
        out = st.values.get(word + eid)
        return self._derive(st, word, eid) if out is None else out

    def _derive(self, st: _State, word: int, eid: int) -> int | None:
        """Evaluate an expression whose value is not in the store, and record it.

        Operands are evaluated left to right and evaluation stops at the first
        unknown one, so which values get derived (and ticked) is fixed.  A
        node whose operand is missing waits on a stack while the operand is
        derived.  Then a unary node maps the operand's value, and a sum or an
        aggregation is evaluated again and finds the operand in the store.
        When evaluation stops, ``stopped_at`` records the leaf it stopped on:
        ``("feat", word, eid)``, an unvalued feature, or ``("arity", word)``,
        a word whose aggregation has no arity yet.
        """
        values, nodes, unary = st.values, self.nodes, self.unary
        m = self.spec.max_payload
        waiting: list[tuple[int, int]] = []  # (word, eid), innermost last
        while True:
            node = nodes[eid]
            tag = node[0]
            op = unary.get(eid)
            if op is not None:
                value = values.get(word + op[0])
                if value is None:
                    waiting.append((word, eid))
                    eid = op[0]
                    continue
                out = op[1][value]
            elif tag == "sum":
                left = values.get(word + node[1])
                if left is None:
                    waiting.append((word, eid))
                    eid = node[1]
                    continue
                right = values.get(word + node[2])
                if right is None:
                    waiting.append((word, eid))
                    eid = node[2]
                    continue
                out = left + right
                out = -m if out < -m else m if out > m else out
            elif tag == "scale":  # 0 * e
                out = 0
            elif tag == "const":
                out = node[1]
            elif tag == "feat":
                self.stopped_at = ("feat", word, eid)
                return None
            else:  # agg
                arity = st.arity.get(word)
                if arity is None:
                    self.stopped_at = ("arity", word)
                    return None
                kind, child = node[1], node[2]
                acc = self.spec.fold_start(kind)
                missing = None
                for pos, succ in enumerate(self.successors(word, arity)[:arity], start=1):
                    value = values.get(succ + child)
                    if value is None:
                        missing = succ
                        break
                    acc = self.spec.fold_step(kind, acc, self._contribution(node, pos, value))
                if missing is not None:
                    waiting.append((word, eid))
                    word, eid = missing, child
                    continue
                out = self.spec.fold_finish(kind, acc, arity)
            while True:
                self.tick()  # record the derived value
                key = word + eid
                bounds = st.bounds.get(key)
                if bounds is not None and not bounds[0] <= out <= bounds[1]:
                    raise _Clash()
                values[key] = out
                if not waiting:
                    return out
                word, eid = waiting.pop()
                op = unary.get(eid)
                if op is None:
                    break  # a sum or an aggregation: evaluate it again
                out = op[1][out]  # a unary node, of the value just recorded

    def _contribution(self, node: tuple, pos: int, v: int) -> int:
        """What the successor at pos with value v adds to an aggregation."""
        weights = node[3]
        return v if weights is None else self.spec.table("mul_p", weights[pos - 1])[v]

    def expr_range(self, st: _State, word: int, eid: int) -> tuple[int, int]:
        """Sound interval over-approximation of the expression's value.

        A leaf not in the store (a feature, an aggregation, a constant or
        0 * e) starts at its structural range.  Subexpressions are ranged in
        post-order: an inverted id on the stack maps the ranges of its
        operands, which lie on top of ``done``, through its interval rule
        (``arith``).  The rules are monotone, so every range lies in the
        expression's structural range.  Each range is cut to the store's
        bounds at that word.
        """
        values, bounds, nodes, unary, structural = st.values, st.bounds, self.nodes, self.unary, self.structural
        done: list[tuple[int, int]] = []
        stack = [eid]
        while stack:
            e = stack.pop()
            if e >= 0:
                known = values.get(word + e)
                if known is not None:
                    done.append((known, known))
                    continue
                node = nodes[e]
                op = unary.get(e)
                if op is not None:
                    stack += (~e, op[0])
                    continue
                if node[0] == "sum":
                    stack += (~e, node[2], node[1])
                    continue
                lo, hi = structural[e]  # a leaf: const, 0 * e, feat or agg
            else:
                e = ~e
                op = unary.get(e)
                # the sum rule is symmetric, so the order of the pops is free
                lo, hi = self.spec.sum_image(done.pop(), done.pop()) if op is None else op[2](*done.pop())
            bound = bounds.get(word + e)
            if bound is not None:
                lo, hi = max(lo, bound[0]), min(hi, bound[1])
            done.append((lo, hi))
        return done[0]

    def structural_ranges(self) -> dict[int, tuple[int, int]]:
        """Each expression's interval at any word, whatever the store holds:
        an aggregation's is ``agg_hull`` of its child's over arities 0 to
        the arity cap.  Built in post-order, so operands come first."""
        m, table = self.spec.max_payload, {}
        for e, node in self.nodes.items():
            tag = node[0]
            if tag == "const":
                table[e] = (node[1], node[1])
            elif tag == "feat":
                table[e] = (-m, m)
            elif tag == "agg":
                table[e] = self.spec.agg_hull(node[1], *table[node[2]], self.arity_cap, node[3])
            elif e in self.unary:
                child, _, image, _ = self.unary[e]
                table[e] = image(*table[child])
            elif tag == "sum":
                table[e] = self.spec.sum_image(table[node[1]], table[node[2]])
            else:  # 0 * e
                table[e] = (0, 0)
        return table

    # -- saturation -------------------------------------------------------------

    def saturate(self, st: _State):
        progress = True
        while progress:
            progress = False
            progress |= self._saturate_bools(st)
            progress |= self._saturate_atoms(st)
            progress |= self._saturate_obligations(st)

    def _saturate_bools(self, st: _State) -> bool:
        progress = False
        remaining = []
        queue = deque(st.bools)
        st.bools = []
        while queue:
            word, fid, sign = queue.popleft()
            node = self.arena.formula(fid)
            tag = node[0]
            if tag == "not":
                queue.append((word, node[1], not sign))
                progress = True
            elif (tag == "and" and sign) or (tag == "or" and not sign):
                queue.append((word, node[1], sign))
                queue.append((word, node[2], sign))
                progress = True
            elif tag in ("geq", "eq"):
                # an atom its expression's structural range cannot meet
                # fails at every word
                if not _meets(self.structural[node[1]], tag, node[2], sign):
                    raise _Clash()
                if sign and tag == "eq":
                    self.assign(st, word, node[1], node[2])
                else:
                    st.atoms.append((word, fid, sign))
                progress = True
            else:
                remaining.append((word, fid, sign))
        st.bools = remaining
        return progress

    def _saturate_atoms(self, st: _State) -> bool:
        progress = False
        remaining = []
        expired = self.budget.expired
        self.atom_arity = None
        for word, fid, sign in st.atoms:
            if expired():
                raise LimitHit("timeout")
            node = self.arena.formula(fid)
            value = self.forward(st, word, node[1])
            k = node[2]
            if value is None:
                if self.atom_arity is None and self.stopped_at[0] == "arity":
                    self.atom_arity = self.stopped_at[1]
                m = self.spec.max_payload
                if node[0] == "geq" and sign:
                    progress |= self.tighten(st, word, node[1], k, m)
                elif node[0] == "geq":
                    progress |= self.tighten(st, word, node[1], -m, k - 1)
                else:  # a negated eq: _saturate_bools assigns every positive one
                    lo, hi = self.expr_range(st, word, node[1])
                    if lo == hi == k:
                        raise _Clash()
                remaining.append((word, fid, sign))
                continue
            progress = True
            holds = value >= k if node[0] == "geq" else value == k
            if holds != sign:
                raise _Clash()
        st.atoms = remaining
        return progress

    def _saturate_obligations(self, st: _State) -> bool:
        progress = False
        stride = self.stride
        expired = self.budget.expired
        # each step deletes at most the key it discharges, so every key of
        # the copy is still an obligation when its turn comes
        for key in list(st.obligations):
            if expired():
                raise LimitHit("timeout")
            eid = key % stride
            node = self.nodes[eid]
            tag = node[0]
            if eid in self.unary or tag == "sum":
                progress |= self._oblige(st, key - eid, eid)
            elif tag == "scale":
                # 0 * e is 0 whatever e evaluates to
                if st.values[key] != 0:
                    raise _Clash()
                del st.obligations[key]
                progress = True
            else:  # agg
                progress |= self._oblige_agg(st, key - eid, eid, node)
        return progress

    def _oblige(self, st: _State, word: int, eid: int) -> bool:
        """An act, scale, self-sum or sum node with a value: check it against
        its operands once they are known, else narrow its first unknown
        operand to its window (``_window``), clashing when that is empty and
        assigning it when it is one value."""
        key = word + eid
        op = self.unary.get(eid)
        if op is None:  # sum
            node = self.nodes[eid]
            left = self.forward(st, word, node[1])
            right = self.forward(st, word, node[2])
            value = None if left is None or right is None else self.spec.add_p(left, right)
        else:
            child = self.forward(st, word, op[0])
            value = None if child is None else op[1][child]
        if value is not None:
            if value != st.values[key]:
                raise _Clash()
            del st.obligations[key]
            return True
        operand, lo, hi = self._window(st, key)
        if lo > hi:
            raise _Clash()
        if lo == hi:
            self.assign(st, word, operand, lo)
            return True
        return False

    def _oblige_agg(self, st: _State, word: int, eid: int, node) -> bool:
        key = word + eid
        target = st.values[key]
        arity = st.arity.get(word)
        if arity is None:
            return False
        kind, child = node[1], node[2]
        values = [self.forward(st, succ, child) for succ in self.successors(word, arity)[:arity]]
        if all(v is not None for v in values):
            acc = self.spec.fold_start(kind)
            for pos, v in enumerate(values, start=1):
                acc = self.spec.fold_step(kind, acc, self._contribution(node, pos, v))
            if self.spec.fold_finish(kind, acc, arity) != target:
                raise _Clash()
            del st.obligations[key]
            return True
        del st.obligations[key]
        st.walks.append((word, eid, 1, self.spec.fold_start(kind)))
        return True

    # -- choice points -----------------------------------------------------------

    def pick_choice(self, st: _State):
        if st.bools:
            word, fid, sign = st.bools[0]
            node = self.arena.formula(fid)
            return ("bool", 0, word, node, sign)
        # an open atom waits on a word's arity: choose it before guessing a
        # value that every arity would have to reconcile
        if self.atom_arity is not None:
            return ("arity", self.atom_arity)
        deferred = None
        for idx, (word, fid, sign) in enumerate(st.atoms):
            # guessing a value for a sum with several unknown operands feeds
            # nothing; leave such atoms to propagation until the very end
            if deferred is None and self._atom_stuck(st, word, fid):
                deferred = idx
                continue
            return ("atom", idx, word, fid, sign)
        stride = self.stride
        for key in st.obligations:
            if self.nodes[key % stride][0] != "agg":
                return self._plan_stuck(st, key)
        if st.walks:
            return ("walk", 0)
        for key in st.obligations:
            word = key - key % stride
            if word not in st.arity:
                return ("arity", word)
        if deferred is not None:
            word, fid, sign = st.atoms[deferred]
            return ("atom", deferred, word, fid, sign)
        return None

    def _atom_stuck(self, st: _State, word: int, fid: int) -> bool:
        """True when assigning the atom's expression would hit a sum with two
        unknown operands: a value guessed there propagates only when an
        operand's window narrows to one value.  The atom is open after
        saturation, so its expression is unknown."""
        eid = self.arena.formula(fid)[1]
        while True:
            node = self.nodes[eid]
            tag = node[0]
            if tag in ("const", "feat", "agg"):
                return False
            if tag in ("act", "scale"):
                # an unknown act or scale node has an unknown child
                eid = node[2]
                continue
            # an unknown self-sum e + e has two unknown operands too: its
            # atom waits, though its value would propagate, since each value
            # guessed ahead of the aggregations' work repeats that work
            left = self.forward(st, word, node[1])
            right = self.forward(st, word, node[2])
            if left is None and right is None:
                return True
            if left is None:
                eid = node[1]
            elif right is None:
                eid = node[2]
            else:
                return False

    def _plan_stuck(self, st: _State, key):
        """Resolve a stuck inversion either backward (enumerate the first
        unknown operand's window) or forward (ground the leaf where
        evaluating the obligation's node stops), whichever branches less.
        Saturation discharges or clashes every obligation whose operands
        evaluate, and assigns a one-value window, so that evaluation stops at
        a leaf and the window holds two values or more."""
        eid = key % self.stride
        word = key - eid
        if self._derive(st, word, eid) is not None:
            raise RuntimeError("an obligation whose operands are known survived saturation")
        leaf = self.stopped_at
        operand, lo, hi = self._window(st, key)
        leaf_width = self.arity_cap + 1 if leaf[0] == "arity" else self.spec.n_values
        # grounding collapses everything downstream of the leaf, backward
        # inversion tends to cascade; invert only when clearly narrower
        if hi - lo + 1 <= max(2, leaf_width // 64):
            return ("invert", word, operand, lo, hi)
        if leaf[0] == "arity":
            return leaf
        return ("ground", leaf[1], leaf[2], *self.expr_range(st, leaf[1], leaf[2]))

    def _window(self, st: _State, key: int) -> tuple[int, int, int]:
        """Candidate interval (operand, lo, hi) of an act, scale, self-sum or
        sum node's first unknown operand, empty when lo > hi: the operand's
        values, cut to its range, that can still give the node its value.
        For act, scale and self-sum they are the child values that map to
        it; for a sum, the values that some value in the other operand's
        range completes to it.  add_p is symmetric, so ``sum_left_window``
        gives either operand's window, and over a known operand's one value
        it is ``add_preimage``."""
        eid = key % self.stride
        word = key - eid
        target = st.values[key]
        op = self.unary.get(eid)
        if op is None:  # sum
            node = self.nodes[eid]
            operand, other = node[1], node[2]
            if word + operand in st.values:
                operand, other = other, operand
            pre = self.spec.sum_left_window(target, *self.expr_range(st, word, other))
        else:
            operand, pre = op[0], op[3](target, target)
        window = pre and intersect(pre, self.expr_range(st, word, operand))
        return (operand, 1, 0) if window is None else (operand, *window)

    def alternatives(self, st: _State, choice):
        """Deterministic candidate stream for a choice point."""
        kind = choice[0]
        if kind == "bool":
            _, idx, word, node, sign = choice
            yield ("bool_pick", idx, word, node[1], sign)
            yield ("bool_pick", idx, word, node[2], sign)
            return
        if kind == "atom":
            _, idx, word, fid, sign = choice
            node = self.arena.formula(fid)
            eid, k = node[1], node[2]
            lo, hi = self.expr_range(st, word, eid)
            if node[0] == "geq" and sign:
                for v in range(max(k, lo), hi + 1):
                    yield ("set", word, eid, v)
            elif node[0] == "geq":
                for v in range(min(k - 1, hi), lo - 1, -1):
                    yield ("set", word, eid, v)
            else:  # negated eq: any other value
                for v in range(lo, hi + 1):
                    if v != k:
                        yield ("set", word, eid, v)
            return
        if kind in ("invert", "ground"):
            _, word, eid, lo, hi = choice
            for v in range(lo, hi + 1):
                yield ("set", word, eid, v)
            return
        if kind == "walk":
            yield from self._walk_alternatives(st)
            return
        # arity, ascending from 0
        for a in range(0, self.arity_cap + 1):
            yield ("set_arity", choice[1], a)

    def _walk_alternatives(self, st: _State):
        word, eid, pos, acc = st.walks[0]
        node = self.nodes[eid]
        kind, child, weights = node[1], node[2], node[3]
        target = st.values[word + eid]
        arity = st.arity[word]
        succ = self.successors(word, pos)[pos - 1]
        known = self.forward(st, succ, child)
        clo, chi = (known, known) if known is not None else self.expr_range(st, succ, child)
        t = self.spec.div_preimage(target, arity) if kind == "mean" else (target, target)
        if t is None:
            return
        # each later successor contributes from the child's structural range
        r = self.structural[child]
        later = [r if weights is None else self.spec.scale_image(weights[i], *r) for i in range(pos, arity)]
        contrib = None if weights is None else self.spec.table("mul_p", weights[pos - 1])
        rng = walk_window(self.spec, kind, acc, t, contrib, later, clo, chi)
        if rng is None:
            return
        for v in range(rng[0], rng[1] + 1):
            yield ("walk_step", v)

    def apply(self, st: _State, alternative):
        kind = alternative[0]
        if kind == "bool_pick":
            _, idx, word, fid, sign = alternative
            st.bools.pop(idx)
            st.bools.append((word, fid, sign))
        elif kind == "set":
            _, word, eid, v = alternative
            self.assign(st, word, eid, v)
        elif kind == "set_arity":
            _, word, a = alternative
            st.arity[word] = a
        else:  # walk_step
            word, eid, pos, acc = st.walks.pop(0)
            node = self.nodes[eid]
            v = alternative[1]
            self.assign(st, self.successors(word, pos)[pos - 1], node[2], v)
            acc = self.spec.fold_step(node[1], acc, self._contribution(node, pos, v))
            arity = st.arity[word]
            if pos == arity:
                if self.spec.fold_finish(node[1], acc, arity) != st.values[word + eid]:
                    raise _Clash()
            else:
                st.walks.append((word, eid, pos + 1, acc))

    # -- search -------------------------------------------------------------------

    def attempt(self, st: _State) -> _State | None:
        """Depth-first search from a branch for one that saturates with no
        choice left.  Each open choice point keeps its branch and the stream
        of alternatives still to try on a stack."""
        open_points: list[tuple[_State, object]] = []
        while True:
            try:
                self.saturate(st)
                choice = self.pick_choice(st)
            except _Clash:
                pass
            else:
                if choice is None:
                    return st
                open_points.append((st, self.alternatives(st, choice)))
            st = None
            while st is None:
                if not open_points:
                    return None
                parent, candidates = open_points[-1]
                try:
                    alternative = next(candidates)
                except (StopIteration, _Clash):
                    # exhausted, or enumeration itself exposed a contradiction
                    open_points.pop()
                    continue
                self.tick()
                st = parent.fork()
                try:
                    self.apply(st, alternative)
                except _Clash:
                    st = None

    def extract_model(self, st: _State) -> PointedGraph:
        """The tree the store describes, breadth first from the root word
        through each word's arity, each word labeled by its stored feature
        values, 0 where none is stored; ``graph.tree`` builds and names it."""
        values = st.values
        feat_ids = {node[1]: eid for eid, node in self.nodes.items() if node[0] == "feat"}
        columns = [feat_ids.get(f) for f in self.formula.features]
        counts, rows, queue = [], [], [0]
        for word in queue:
            rows.append([0 if eid is None else values.get(word + eid, 0) for eid in columns])
            arity = st.arity.get(word, 0)
            counts.append(arity)
            queue.extend(self.successors(word, arity)[:arity])
        return tree(self.spec, self.formula.features, counts, rows)


def solve(
    formula: Formula, delta: DeltaMode, limits: SolveLimits | None = None, *, _budget: Budget | None = None
) -> Verdict:
    """Decide satisfiability; Sat verdicts carry a checked model.

    A node has at most ``arity_bound(δ, formula.weight_cap, 2^n * |formula|)``
    successors; the last cap loses no model, so an exhausted search is Unsat
    whatever δ's encoding.  The search charges a budget of
    ``limits.max_terms`` ticks and ``limits.time_limit`` seconds;
    ``verify_lvp`` passes instead, as ``_budget``, the one its earlier
    phases charged.
    """
    limits = limits or SolveLimits()
    budget = Budget(limits.max_terms, limits.time_limit) if _budget is None else _budget
    search = _Search(formula, delta.value, budget)
    try:
        final = search.attempt(search.root_state())
    except LimitHit as hit:
        return Unknown(hit.reason)
    if final is None:
        return Unsat()
    model = search.extract_model(final)
    if not check(model.graph, model.point, formula):
        raise RuntimeError("tableau produced a model that fails its own formula")
    return Sat(model)


def verify_lvp(instance: LvpInstance, limits: SolveLimits | None = None) -> LvpVerdict:
    """Valid when the compiled formula is unsatisfiable, else a counterexample.

    The phases run cheapest first, and each charges the one
    ``semantics.Budget`` built from ``limits``, so a phase gets the ticks
    and the time the earlier ones left:

    1. an interval pass over the network (``BoxSplit.proved``): when L_out
       holds on the whole output box the instance is ``Valid("bounds")``,
       with nothing compiled, sampled or searched and no ticks charged;
    2. a round of counterexample sampling (``falsify.Sampler``);
    3. branch and bound over the last layer's input box (``BoxSplit.run``
       on the same split, whose root box is not mapped again), at
       ``box_price`` ticks a box and at most ``MAX_BOXES`` boxes, the root
       counted as the first: ``Valid("split")``;
    4. up to ``EXTRA_ROUNDS`` more sampling rounds from the same generator;
    5. the tableau on the compiled formula under the instance's δ; the
       formula declares the network's weight cap, the arity rule
       ``gnn_eval`` enforces, so no model it finds breaks that rule.  Its
       ``Unsat`` is ``Valid("tableau")``.

    A sampled counterexample's outputs come from the forward core
    (``gnn.gnn_eval_p``) on the drawn tree, a tableau model's from
    ``gnn_eval`` on the model as found; either way ``_checked_invalid``
    checks them against the formula semantics before it is returned.
    """
    limits = limits or SolveLimits()
    budget = Budget(limits.max_terms, limits.time_limit)
    split = BoxSplit(instance)
    if split.proved:
        return Valid("bounds")
    compiled = compile_lvp(instance)
    sampler = Sampler(instance, budget)
    hit = sampler.round()
    if hit is not None:
        return _checked_invalid(instance, compiled, *hit)
    if split.run(budget)[0]:
        return Valid("split")
    for _ in range(EXTRA_ROUNDS):
        if sampler.cut:
            break
        hit = sampler.round()
        if hit is not None:
            return _checked_invalid(instance, compiled, *hit)
    verdict = solve(compiled.formula, instance.delta, limits, _budget=budget)
    if isinstance(verdict, Unknown):
        return verdict
    if isinstance(verdict, Unsat):
        return Valid("tableau")
    return _checked_invalid(instance, compiled, verdict.model, gnn_eval(instance.model, verdict.model))


def _checked_invalid(instance: LvpInstance, compiled: CompiledInstance, pointed: PointedGraph, outputs: list[Value]) -> Invalid:
    """The counterexample, once the point satisfies L_in, the outputs violate
    L_out, the compiled formula holds on the graph as drawn, and each output
    expression evaluates there to the reported output, which also catches a
    wrong output that L_out does not read.  ``check`` and the output
    expressions share one memo, so each is evaluated once."""
    model, spec = instance.model, instance.model.spec
    graph, point = pointed.graph, pointed.point
    if not all(eval_linineq(q, graph.labels[point], spec) for q in instance.l_in):
        raise RuntimeError("counterexample fails the input constraints")
    payloads = [v.payload for v in outputs]
    if all(eval_linineq(q, dict(zip(model.output_features, payloads)), spec) for q in instance.l_out):
        raise RuntimeError("counterexample satisfies the output constraints")
    formula, memo = compiled.formula, {}
    holds = check(graph, point, formula, _values=memo)
    if not holds or payloads != [eval_payload(graph, point, formula.arena, e, memo) for e in compiled.outputs]:
        raise RuntimeError("the formula semantics reject the counterexample gnn_eval reports")
    return Invalid(pointed, outputs)
