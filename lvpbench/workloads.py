"""The four benchmark workloads: seeded input generation, the timed case, checks.

Each workload turns ``(seed, index)`` into one case, so case ``i`` of a seed is
the same whatever the number of cases a run asks for.  Parameters that drive
the cost of a case (arithmetic, aggregation kind, delta, depth, size) are
stratified over the case index rather than drawn at random, so that the
cost of a whole case list barely depends on the seed; the seed draws the
weights, constants, activations, labels, edges and formulas.

A workload object has these methods:

* ``make_case(p, seed, i)`` builds the case from plain data and encodes it as
  the text the program reads (JSON or formula syntax).
* ``run(p, case)`` is the timed part: decode, decide, check the verdict with
  computations made apart from the tableau.  It returns an :class:`Outcome`.
* ``confirm(p, seed, cases, outcomes)``, where present, runs after the timed
  loop for checks too slow to sit inside it, and returns new outcomes for the
  cases it settled.

``p`` is the namespace of freshly imported program modules (see ``run.py``);
every program call goes through a module attribute, so the tracer's wrappers
see it.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

# Fractional parts of square roots of distinct primes: rotations by them are
# evenly spread and jointly equidistributed, so lattice(i, k) for different k
# can stratify several case parameters at once.
ALPHAS = tuple(math.sqrt(n) % 1.0 for n in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31))
# Wall-clock safety net per solver call.  The work budgets below decide every
# verdict; a call that reaches this limit counts as a failed operation.
SAFETY_S = 30.0


def lattice(i: int, k: int) -> float:
    """Point i of the k-th rotation sequence in [0, 1): every prefix of it is
    evenly spread, so a parameter drawn from it has the same distribution in
    every run, whatever the seed."""
    return ((i + 1) * ALPHAS[k]) % 1.0


def pick(i: int, k: int, options):
    return options[int(lattice(i, k) * len(options))]


@dataclass
class Case:
    index: int
    text: str
    meta: dict = field(default_factory=dict)


@dataclass
class Outcome:
    verdict: str  # valid | invalid | sat | unsat | holds | unknown:<reason>
    decisive: bool
    covered: bool = True  # an independent check backs the verdict
    error: str | None = None  # set when the operation failed
    wrong: bool = False  # the failure is a wrong answer, not a crash


def _verdict_name(p, v) -> str:
    if isinstance(v, p.tableau.Valid):
        return "valid"
    if isinstance(v, p.tableau.Invalid):
        return "invalid"
    if isinstance(v, p.semantics.Sat):
        return "sat"
    if isinstance(v, p.semantics.Unsat):
        return "unsat"
    return f"unknown:{v.reason}"


def _undecided(name: str) -> Outcome:
    """Unknown at the work budget is a result; any other stop is a failure."""
    if name == "unknown:node-limit":
        return Outcome(name, False)
    return Outcome(name, False, error=f"solver stopped with {name}")


# -- lvp-grid ------------------------------------------------------------------


class LvpGrid:
    """Random aggregate-combine GNNs under linear input/output constraints."""

    name = "lvp-grid"
    per_second = 16.8  # distinct cases per second of --seconds
    max_terms = 10_000  # tableau tick budget per case
    oracle_steps = 50_000  # oracle step budget for confirming Valid
    oracle_cases = 40  # at most this many Valid cases are confirmed per run
    # fixed:12:1 rather than fixed:16:1: the max and weighted walks scan the
    # whole value range without ticking (see CHANGES.md), so under fixed:16:1 a
    # rare case ran 23 s whatever the tick budget.  At 12 bits the same scans
    # are 16 times shorter and still show as the heaviest cases.
    ARITHS = ("satint:7", "fixed:12:1")
    KINDS = ("sum", "mean", "max", "weighted")

    def make_case(self, p, seed: int, i: int) -> Case:
        rng = random.Random(f"{self.name}:{seed}:{i}")
        cell = i % 48
        arith = self.ARITHS[cell % 2]
        first_kind = self.KINDS[(cell // 2) % 4]
        delta = 2 + (cell // 8) % 2
        n_layers = 1 + cell // 16
        spec = p.arith.ArithmeticSpec.parse(arith)
        fmt = spec.format_payload
        top = 2 * spec.one  # weights lie in [-2, 2]

        def weight() -> str:
            return fmt(rng.randint(-top, top))

        dims = [pick(i, 0, (1, 2))]
        layers = []
        for layer in range(n_layers):
            kind = first_kind if layer == 0 else pick(i, 1 + layer, self.KINDS)
            agg = {"kind": "weighted", "weights": [weight() for _ in range(delta)]} if kind == "weighted" else kind
            width = pick(i, 4 + layer, (1, 2, 3))
            layers.append({
                "agg": agg,
                "comb": {
                    "weights": [[weight() for _ in range(2 * dims[-1])] for _ in range(width)],
                    "bias": [weight() for _ in range(width)],
                    "activation": [rng.choice(("relu", "id")) for _ in range(width)],
                },
            })
            dims.append(width)
        gnn = {
            "arith": arith,
            "input_dim": dims[0],
            "layers": layers,
            "out": {"weights": [[weight() for _ in range(dims[-1])]], "bias": [weight()], "activation": ["id"]},
        }
        one = fmt(spec.one)
        doc = {
            "gnn": gnn,
            "l_in": [{"coeffs": {"x1": one}, "const": fmt(rng.randint(-2, 2) * spec.one), "rel": ">="}],
            "l_out": [{"coeffs": {"y1": one}, "const": fmt(rng.randint(-2, 2) * spec.one), "rel": ">="}],
            "delta": {"mode": "unary", "value": delta},
        }
        return Case(i, json.dumps(doc))

    def run(self, p, case: Case) -> Outcome:
        inst = p.gnn.lvp_from_json(json.loads(case.text))
        limits = p.tableau.SolveLimits(time_limit=SAFETY_S, max_terms=self.max_terms)
        v = p.tableau.verify_lvp(inst, limits)
        name = _verdict_name(p, v)
        if name == "valid":
            return Outcome(name, True, covered=False)
        if name != "invalid":
            return _undecided(name)
        # replay the counterexample through the forward evaluator
        model, spec = inst.model, inst.model.spec
        cex = v.counterexample
        outs = [o.payload for o in p.gnn.gnn_eval(model, cex)]
        point = {f: cex.graph.labels[cex.point][f] for f in model.input_features}
        out_vals = dict(zip(model.output_features, outs))
        if outs != [o.payload for o in v.outputs]:
            return Outcome(name, True, error="replayed outputs differ from the reported ones", wrong=True)
        if not all(p.gnn.eval_linineq(q, point, spec) for q in inst.l_in):
            return Outcome(name, True, error="counterexample violates L_in", wrong=True)
        if all(p.gnn.eval_linineq(q, out_vals, spec) for q in inst.l_out):
            return Outcome(name, True, error="counterexample satisfies L_out", wrong=True)
        return Outcome(name, True)

    def confirm(self, p, seed: int, cases: list[Case], outcomes: list[Outcome]) -> dict[int, Outcome]:
        """Re-decide a seeded sample of the Valid cases that are small enough for
        the oracle (at most 15 values, one aggregation level) by brute force."""
        small = []
        for case, outcome in zip(cases, outcomes):
            doc = json.loads(case.text)["gnn"]
            if outcome.verdict == "valid" and doc["arith"] == "satint:7" and len(doc["layers"]) == 1:
                small.append(case)
        rng = random.Random(f"{self.name}:confirm:{seed}")
        confirmed = {}
        for case in rng.sample(small, min(len(small), self.oracle_cases)):
            inst = p.gnn.lvp_from_json(json.loads(case.text))
            compiled = p.compile.compile_lvp(inst)
            ov = p.semantics.brute_force_sat(
                compiled.formula, inst.delta.value, max_steps=self.oracle_steps, time_limit=SAFETY_S
            )
            name = _verdict_name(p, ov)
            if name == "unsat":
                confirmed[case.index] = Outcome("valid", True)
            elif name == "sat":
                confirmed[case.index] = Outcome("valid", True, error="oracle refutes Valid", wrong=True)
            elif name == "unknown:timeout":
                confirmed[case.index] = Outcome("valid", True, covered=False, error="oracle safety net fired")
        return confirmed


# -- sum-chain -------------------------------------------------------------------

SAT7 = 7


def _clamp7(v: int) -> int:
    return -SAT7 if v < -SAT7 else SAT7 if v > SAT7 else v


def _term(c: int, act: str, x: int) -> int:
    """c * act(x) in satint:7, in plain integers."""
    a = max(x, 0) if act == "relu" else x
    return _clamp7(c * a)


def _fold(values) -> int:
    acc = 0
    for v in values:
        acc = _clamp7(acc + v)
    return acc


class SumChain:
    """Linear chains sum c_i * act(x_i) rel k over satint:7, without aggregation."""

    name = "sum-chain"
    per_second = 4
    max_terms = 1_000_000  # never reached: chains tick roughly linearly in length
    # Chain lengths follow a density proportional to n^-6.5 on [50, 300]: the
    # solve time grows cubically with the length, so long chains are rare and
    # no single case holds much of a run.
    MIN_N, MAX_N, SHAPE = 50, 300, 6.5
    RELS = (">=", "<", "=")

    def length(self, i: int) -> int:
        ratio = self.MAX_N / self.MIN_N
        q = lattice(i, 0)
        x = (1 - q * (1 - ratio ** (1 - self.SHAPE))) ** (1 / (1 - self.SHAPE))
        return round(self.MIN_N * x)

    def make_case(self, p, seed: int, i: int) -> Case:
        rng = random.Random(f"{self.name}:{seed}:{i}")
        n = self.length(i)
        profile = ("mixed", "nonneg", "nonpos")[i % 3]
        coeffs, acts = [], []
        for _ in range(n):
            if profile == "mixed":
                coeffs.append(rng.choice((-3, -2, -1, 1, 2, 3)))
                acts.append(rng.choice(("relu", "id")))
            else:
                c = rng.randint(1, 3)
                coeffs.append(c if profile == "nonneg" else -c)
                acts.append("relu")
        rel = self.RELS[(i // 3) % 3]
        k = pick(i, 1, range(-SAT7, SAT7 + 1))
        text = " + ".join(f"{c}*{a}(x{j})" for j, (c, a) in enumerate(zip(coeffs, acts))) + f" {rel} {k}"
        return Case(i, text, {"coeffs": coeffs, "acts": acts, "rel": rel, "k": k})

    @staticmethod
    def bounds(meta: dict) -> tuple[int, int]:
        """Extremes of the chain: saturating addition is monotone, so they are
        the folds of the per-term extremes."""
        lows, highs = [], []
        for c, a in zip(meta["coeffs"], meta["acts"]):
            vals = [_term(c, a, x) for x in range(-SAT7, SAT7 + 1)]
            lows.append(min(vals))
            highs.append(max(vals))
        return _fold(lows), _fold(highs)

    def run(self, p, case: Case) -> Outcome:
        spec = p.arith.ArithmeticSpec.satint(SAT7)
        f = p.formula.parse(case.text, spec)
        limits = p.tableau.SolveLimits(time_limit=SAFETY_S, max_terms=self.max_terms)
        v = p.tableau.solve(f, p.gnn.DeltaMode.unary(1), limits)
        name = _verdict_name(p, v)
        if name not in ("sat", "unsat"):
            return _undecided(name)
        meta = case.meta
        rel, k = meta["rel"], meta["k"]
        lo, hi = self.bounds(meta)
        feasible = {">=": hi >= k, "<": lo < k, "=": lo <= k <= hi}[rel]
        if name == "unsat":
            if feasible and rel != "=":
                return Outcome(name, True, error=f"Unsat but the chain reaches [{lo}, {hi}]", wrong=True)
            # an equality inside the bounds may still be unreachable
            return Outcome(name, True, covered=not feasible)
        if not feasible:
            return Outcome(name, True, error=f"Sat but the chain spans only [{lo}, {hi}]", wrong=True)
        labels = v.model.graph.labels[v.model.point]
        total = _fold(_term(c, a, labels[f"x{j}"]) for j, (c, a) in enumerate(zip(meta["coeffs"], meta["acts"])))
        holds = {">=": total >= k, "<": total < k, "=": total == k}[rel]
        if not holds:
            return Outcome(name, True, error=f"model sums to {total}, violating {rel} {k}", wrong=True)
        return Outcome(name, True)


# -- fuzz-oracle -------------------------------------------------------------------


class FuzzOracle:
    """fuzz.random_formula cases solved by both the tableau and the oracle."""

    name = "fuzz-oracle"
    per_second = 100
    # Small budgets: the workload measures the per-call cost on tiny formulas,
    # so the few formulas that exhaust a budget stop early and stay cheap.
    max_terms = 5_000
    oracle_steps = 5_000
    ARITHS = ("satint:3", "satint:5", "fixed:5:1")

    def make_case(self, p, seed: int, i: int) -> Case:
        rng = random.Random(f"{self.name}:{seed}:{i}")
        arith = self.ARITHS[i % 3]
        delta = 2 + (i // 3) % 2
        spec = p.arith.ArithmeticSpec.parse(arith)
        f = p.fuzz.random_formula(rng, spec, agg_kinds=("sum", "mean", "max", "weighted"), delta=delta)
        return Case(i, p.formula.to_text(f), {"arith": arith, "delta": delta})

    def run(self, p, case: Case) -> Outcome:
        spec = p.arith.ArithmeticSpec.parse(case.meta["arith"])
        delta = case.meta["delta"]
        f = p.formula.parse(case.text, spec)
        limits = p.tableau.SolveLimits(time_limit=SAFETY_S, max_terms=self.max_terms)
        tv = _verdict_name(p, p.tableau.solve(f, p.gnn.DeltaMode.unary(delta), limits))
        ov = _verdict_name(p, p.semantics.brute_force_sat(f, delta, max_steps=self.oracle_steps, time_limit=SAFETY_S))
        decisive = tv in ("sat", "unsat")
        if "timeout" in tv or "timeout" in ov:
            return Outcome(tv, decisive, error=f"safety net: tableau {tv}, oracle {ov}")
        if not decisive:
            return _undecided(tv)
        if ov in ("sat", "unsat"):
            if ov != tv:
                return Outcome(tv, True, error=f"tableau {tv} but oracle {ov}", wrong=True)
            return Outcome(tv, True)
        return Outcome(tv, True, covered=tv == "sat")  # Sat carries a checked model


# -- forward-bridge -------------------------------------------------------------------


class ForwardBridge:
    """Forward evaluation of random GNNs on random graphs, against phi_N."""

    name = "forward-bridge"
    per_second = 6
    ARITHS = ("satint:7", "fixed:16:1")
    KINDS = ("sum", "mean", "max", "weighted")
    MAX_DEGREE = 6

    def make_case(self, p, seed: int, i: int) -> Case:
        rng = random.Random(f"{self.name}:{seed}:{i}")
        arith = self.ARITHS[i % 2]
        n_layers = 2 + (i // 2) % 3
        n_nodes = pick(i, 0, range(50, 301))
        spec = p.arith.ArithmeticSpec.parse(arith)
        fmt = spec.format_payload
        top = 2 * spec.one
        label_top = spec.max_payload if spec.kind == "satint" else 5 * spec.one

        def weight() -> str:
            return fmt(rng.randint(-top, top))

        dims = [pick(i, 1, (1, 2, 3, 4))]
        layers = []
        for layer in range(n_layers):
            kind = pick(i, 2 + layer, self.KINDS)
            agg = {"kind": "weighted", "weights": [weight() for _ in range(self.MAX_DEGREE)]} if kind == "weighted" else kind
            width = pick(i, 6 + layer, range(2, 13))
            layers.append({
                "agg": agg,
                "comb": {
                    "weights": [[weight() for _ in range(2 * dims[-1])] for _ in range(width)],
                    "bias": [weight() for _ in range(width)],
                    "activation": [rng.choice(("relu", "id")) for _ in range(width)],
                },
            })
            dims.append(width)
        n_out = pick(i, 10, (1, 2, 3))
        gnn = {
            "arith": arith,
            "input_dim": dims[0],
            "layers": layers,
            "out": {
                "weights": [[weight() for _ in range(dims[-1])] for _ in range(n_out)],
                "bias": [weight() for _ in range(n_out)],
                "activation": ["id"] * n_out,
            },
        }
        features = [f"x{j + 1}" for j in range(dims[0])]
        nodes = [
            {"id": f"n{j}", "label": {x: fmt(rng.randint(-label_top, label_top)) for x in features}}
            for j in range(n_nodes)
        ]
        edges = [
            [f"n{j}", f"n{t}"]
            for j in range(n_nodes)
            for t in rng.sample(range(n_nodes), rng.randint(0, self.MAX_DEGREE))
        ]
        graph = {"features": features, "nodes": nodes, "edges": edges, "point": "n0"}
        return Case(i, json.dumps({"gnn": gnn, "graph": graph}))

    def run(self, p, case: Case) -> Outcome:
        doc = json.loads(case.text)
        model = p.gnn.gnn_from_json(doc["gnn"])
        spec = model.spec
        graph, point = p.graph.load_json(doc["graph"], spec)
        outs = [o.payload for o in p.gnn.gnn_eval(model, p.graph.PointedGraph(graph, point))]
        arena = p.formula.Arena(spec)
        phi, out_names = p.compile.compile_gnn(arena, model)
        features = graph.features + out_names

        def labelled(values: list[int]):
            labels = {v: {**graph.labels[v], **{y: 0 for y in out_names}} for v in graph.nodes}
            labels[point].update(zip(out_names, values))
            return p.graph.LabeledGraph(spec, features, graph.nodes, graph.edges, labels)

        formula = p.formula.Formula(arena, phi, features)
        if not p.semantics.check(labelled(outs), point, formula):
            return Outcome("holds", True, error="phi_N fails on the forward outputs", wrong=True)
        for j, old in enumerate(outs):
            changed = list(outs)
            changed[j] = old - 1 if old == spec.max_payload else old + 1
            if p.semantics.check(labelled(changed), point, formula):
                return Outcome("holds", True, error=f"phi_N holds with output {j} changed", wrong=True)
        return Outcome("holds", True)


WORKLOADS = {w.name: w for w in (LvpGrid(), SumChain(), FuzzOracle(), ForwardBridge())}
