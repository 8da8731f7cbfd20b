"""Counterexample search by sampling, run ahead of the tableau.

A round draws ``SAMPLES`` random pointed trees for an LVP instance;
``Sampler.tries`` yields the outcome of each tree it evaluates, in turn (a
hit, whose outputs violate L_out, or None), and ``Sampler.round`` returns
its first hit: among the trees whose outputs violate L_out, the first with
the fewest nodes.  ``verify_lvp`` takes the first tree of the first round,
then the interval bounds, then the rest of that round from the same
iterator; then up to ``EXTRA_ROUNDS`` more rounds from the same generator
when the first round and the box split decide nothing, and each round holds
only its own trees.  A round draws each tree's shape first: the successor
counts of its nodes in breadth-first order (``grow_counts``).  A tree of one
node, the point alone, then draws its label and is evaluated at once, and a
hit there ends the sampling: no later tree can be smaller.  A larger tree is
kept as its shape alone until every shape is drawn; then the larger trees
are taken smallest first, in draw order among equals, and each draws its
label payloads, in one flat list, only when its turn comes, up to the first
hit.  So the trees evaluated, and their order, are those of evaluating every
drawn tree smallest first, and a tree past the first hit holds no labels and
costs no label draws.  A tree is evaluated in its compact form
(``tree_eval``), by the forward core that ``gnn.gnn_eval`` runs after its
graph checks, ``gnn.gnn_eval_p``: the breadth-first order is the core's node
order.  Only the hit a round returns is built into a validated graph, by
``graph.tree``, which builds the tableau's models too and so names the nodes
as they are named ("v", "v1", "v1.2").  A tree is as deep as the network has
layers (deeper nodes cannot reach the point's output), and each node has at
most ``arity_cap`` successors.  Labels favour the values where saturating
arithmetic turns: 0, ±one, ±M and small multiples of one, next to uniform
draws from the whole domain.  The point's label is drawn again until it
satisfies L_in, at most ``POINT_DRAWS`` times; a tree whose point never does
is skipped.

The draws come from a ``random.Random`` seeded by the instance's own names
and payloads (``instance_rng``), so an instance always gets the same trees,
whatever PYTHONHASHSEED is, also when it is rebuilt from its JSON.  Each
integer is drawn straight from its ``getrandbits`` by the
rejection rule of ``randrange``, ``randint`` and ``choice`` (see
``_payloads``): the same words give the same values, without the calls of
those methods.  The search is charged to the ``semantics.Budget`` the
sampler is given, which ``verify_lvp`` shares with its other phases, at a
fixed price per drawn tree: its nodes times the layers, plus one for the
output network.  A tree is charged when its shape is drawn, whether or not
its point meets L_in, so the ticks a round charges depend only on the
shapes it draws.  The price is not a count of evaluations (trees past the
first hit are not evaluated, and the forward core skips the nodes that
cannot reach the point's output).  Without a hit, or with a hit of more
than one node, every shape is drawn and charged, so the ticks left to the
tableau do not depend on the samples' outputs; a one-node hit is charged
only the shapes drawn up to it.  A tree that grows past the ticks left
ends the round, and the sampling, as soon as a layer shows it.
"""

from __future__ import annotations

import random
from collections.abc import Iterator

from .arith import ArithmeticSpec, Value, arity_bound
from .gnn import Fnn, LvpInstance, eval_linineq, gnn_eval_p
from .graph import PointedGraph, tree
from .semantics import Budget

# Samples per instance.  Every one is drawn and charged unless a one-node
# tree hits: after a larger hit a later, smaller tree makes a more readable
# counterexample, and when nothing hits the tableau gets the ticks left
# after all of them.  A drawn tree's shape costs a direct draw per node;
# only the trees up to the first smallest hit draw labels and are evaluated,
# and only that hit is built into a graph, so an instance without a hit pays
# the most wall time, about a few hundred tableau ticks' worth per sample,
# and the number stays small.
SAMPLES = 32
# Rounds of SAMPLES more that ``verify_lvp`` draws, from the same generator,
# when the first round and the box split decide nothing.  A sampled tick
# costs a few times a tableau tick in wall time, so the rounds stop well
# short of the budget: three decide most of what more rounds would.
EXTRA_ROUNDS = 3
# Successors per node when the arity bound allows more: trees grow as this
# number to the power of the layer count.
MAX_SAMPLED_ARITY = 4
# Draws of the point's label before a sample is given up as failing L_in.
POINT_DRAWS = 16

Hit = tuple[PointedGraph, list[Value]]


def _fnn_key(fnn: Fnn) -> tuple:
    return tuple((l.weights, l.bias, l.activations) for l in fnn.layers)


def instance_rng(instance: LvpInstance) -> random.Random:
    """A generator seeded by the instance alone: by the ``repr`` of a tuple
    of strings, integers and None that holds the spec, the feature names,
    every layer's aggregation and weights, the constraints and δ.  It reads
    the payloads the instance holds, so an instance rebuilt from its JSON
    gets the same generator, and no hash seed enters it."""
    model = instance.model
    key = (
        model.spec.spec_string(),
        model.input_features,
        model.output_features,
        tuple((l.agg_kind, l.agg_weights, _fnn_key(l.comb)) for l in model.layers),
        _fnn_key(model.out),
        tuple((q.coeffs, q.const) for q in instance.l_in),
        tuple((q.coeffs, q.const) for q in instance.l_out),
        instance.delta.kind,
        instance.delta.value,
    )
    return random.Random(repr(key))


def arity_cap(instance: LvpInstance) -> int:
    """Largest arity sampled: within δ, ``MAX_SAMPLED_ARITY`` and the
    network's weight cap."""
    return arity_bound(instance.delta.value, instance.model.weight_cap, MAX_SAMPLED_ARITY)


def _payloads(bits, count: int, spec: ArithmeticSpec) -> list[int]:
    """``count`` label payloads drawn with ``bits``, a generator's
    ``getrandbits``: 0, ±one, ±M, a clamped multiple k·one with |k| <= 3, or
    a uniform payload, each with probability 1/5.

    Each integer below n is drawn as ``random.Random._randbelow`` draws it:
    ``n.bit_length()`` bits, drawn again while they read n or more.  That
    is what ``randrange``, ``randint`` and ``choice`` do, so the same words
    are consumed and the same values come out as from those calls.
    """
    m, one = spec.max_payload, spec.one
    width = 2 * m + 1
    k = width.bit_length()
    out = []
    for _ in range(count):
        pick = bits(3)
        while pick >= 5:
            pick = bits(3)
        if pick == 0:
            out.append(0)
        elif pick < 3:  # choice((one, -one)) or choice((m, -m))
            sign = bits(2)
            while sign >= 2:
                sign = bits(2)
            v = one if pick == 1 else m
            out.append(-v if sign else v)
        elif pick == 3:  # clamp(randint(-3, 3) * one)
            r = bits(3)
            while r >= 7:
                r = bits(3)
            v = (r - 3) * one
            out.append(-m if v < -m else m if v > m else v)
        else:  # randint(-m, m)
            r = bits(k)
            while r >= width:
                r = bits(k)
            out.append(r - m)
    return out


def price(nodes: int, layers: int) -> int:
    """The ticks a sampled tree of ``nodes`` nodes costs: nodes × layers + 1."""
    return nodes * layers + 1


def grow_counts(bits, layers: int, cap: int, budget: Budget) -> list[int] | None:
    """A random tree rooted at the point, ``layers`` deep, as the successor
    counts of its nodes above the last layer in breadth-first order (each
    drawn as ``randint(0, cap)``), or None as soon as its price no longer
    fits ``budget`` or the budget's deadline passes.  Both are checked
    before the first layer and after each one, so an oversized tree stops
    growing one layer past the budget.  Nothing is charged here."""
    k = (cap + 1).bit_length()
    counts: list[int] = []
    size = width = 1
    for depth in range(layers + 1):
        if not budget.fits(price(size, layers)) or budget.expired():
            return None
        if depth == layers:
            break
        grown = 0
        for _ in range(width):
            r = bits(k)
            while r > cap:
                r = bits(k)
            counts.append(r)
            grown += r
        size += grown
        width = grown
    return counts


def label_payloads(bits, instance: LvpInstance, nodes: int) -> list[int] | None:
    """Input labels of ``nodes`` nodes, flat: node by node in breadth-first
    order, each in feature order, the point first.  None when no drawn label
    of the point satisfied L_in."""
    spec, features = instance.model.spec, instance.model.input_features
    n = len(features)
    payloads = _payloads(bits, nodes * n, spec)
    for _ in range(POINT_DRAWS):
        point = dict(zip(features, payloads))
        if all(eval_linineq(q, point, spec) for q in instance.l_in):
            return payloads
        payloads[:n] = _payloads(bits, n, spec)
    return None


def build_tree(instance: LvpInstance, counts: list[int], payloads: list[int]) -> PointedGraph:
    """The validated graph of a compact tree, pointed at its root
    (``graph.tree``)."""
    model = instance.model
    n = model.input_dim
    rows = [payloads[i : i + n] for i in range(0, len(payloads), n)]
    return tree(model.spec, model.input_features, counts, rows)


class Sampler:
    """The sampling rounds of one instance, drawn from one generator and
    charged to one budget.

    Each ``round`` draws ``SAMPLES`` trees where the last round stopped,
    under the same draw rule and price, and keeps them only until it
    returns, so a round without a tick limit holds one round's trees; of
    those, only the trees it has evaluated drew their labels.  A round that
    stops at the budget's limit or deadline sets ``cut``.
    """

    def __init__(self, instance: LvpInstance, budget: Budget):
        self.instance = instance
        self.budget = budget
        self.bits = instance_rng(instance).getrandbits
        self.cap = arity_cap(instance)
        self.layers = len(instance.model.layers)
        self.cut = False

    def tries(self) -> Iterator[Hit | None]:
        """The outcome of every tree one round evaluates, in turn: its hit,
        with its outputs, or None.  Every tree's shape is drawn and charged
        first; a one-node tree then draws its label and is evaluated, and
        its outcome is yielded before the next shape is drawn.  The larger
        trees are kept as shapes, then taken smallest first, in draw order
        among equals, each drawing its labels at its turn.  Only a hit is
        built into a graph.  The round stops drawing before a tree whose
        price no longer fits the budget (as soon as its growth shows it),
        and once the budget's deadline passes.  A caller stops at the first
        hit: no later tree of the round is smaller."""
        instance, bits, budget, layers = self.instance, self.bits, self.budget, self.layers
        shapes = []
        for _ in range(SAMPLES):
            counts = grow_counts(bits, layers, self.cap, budget)
            if counts is None:
                self.cut = True
                break
            size = 1 + sum(counts)
            budget.charge(price(size, layers))  # fits: grow_counts checked the whole tree
            if size > 1:
                shapes.append((size, counts))
                continue
            # the smallest-first pass would evaluate this tree before every
            # larger one and after the one-node trees drawn before it
            if budget.expired():
                self.cut = True
                return
            yield _violation(instance, bits, counts, 1)
        shapes.sort(key=lambda t: t[0])  # stable: draw order among equals
        for size, counts in shapes:
            if budget.expired():
                self.cut = True
                return
            yield _violation(instance, bits, counts, size)

    def round(self) -> Hit | None:
        """The smallest counterexample of one round (the first of the
        smallest) with its outputs, or None: the first hit of ``tries``."""
        return next(filter(None, self.tries()), None)


def tree_eval(instance: LvpInstance, counts: list[int], payloads: list[int]) -> list[int]:
    """The output payloads of a compact tree, from ``gnn.gnn_eval_p`` on its
    indices: its breadth-first order is the core's node order, and each
    node's children are the next ``count`` indices.  No arity check: a
    sampled node has at most ``arity_cap`` successors, which is at most the
    network's weight cap."""
    model = instance.model
    n = model.input_dim
    rows = [payloads[i : i + n] for i in range(0, len(payloads), n)]
    kids, end = [], 1
    for count in counts:
        kids.append(range(end, end + count))
        end += count
    # the nodes within d + 1 end with the children of the last node within d
    within = [1]
    for _ in model.layers:
        within.append(kids[within[-1] - 1].stop)
    return gnn_eval_p(model, rows, kids, within)


def _violation(instance: LvpInstance, bits, counts: list[int], nodes: int) -> Hit | None:
    """The tree of ``counts`` and ``nodes`` nodes, labelled now from
    ``bits`` and built, with its outputs when they violate L_out; None when
    they do not, or when its point fails L_in."""
    payloads = label_payloads(bits, instance, nodes)
    if payloads is None:
        return None
    model = instance.model
    # through the module attribute, so that a wrapper installed on
    # tree_eval (a profiler, a test's recorder) sees every evaluation
    out = tree_eval(instance, counts, payloads)
    out_vals = dict(zip(model.output_features, out))
    if all(eval_linineq(q, out_vals, model.spec) for q in instance.l_out):
        return None
    return build_tree(instance, counts, payloads), [Value(p, model.spec) for p in out]
