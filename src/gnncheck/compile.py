"""Unfold a quantized GNN plus linear constraints into one formula DAG.

The produced formula, L_in and not L_out over the network's output
expressions (``network_outputs``), is satisfiable exactly when the instance
has a counterexample, and its models are those counterexamples, labelled
with the inputs alone.  Unfolding canonicalizes the affine chains: zero-weight
products, zero biases, unit coefficients and identity activations are
dropped.  Each dropped construct is exact in the arithmetic (0*x = 0,
v + 0 = v, 1*v = v, id(v) = v), so evaluation of the canonical chain is
bit-identical to the dense fold used by the forward evaluator.

A compiled formula declares the whole instance: the model's input features,
in model order, and the network's weight cap (``GnnModel.weight_cap``) as
its own ``weight_cap``.  Dropping zero-weight products can leave a weighted
layer with no aggregation in the formula, and the cap still holds, so every
engine that reads the formula keeps the arity rule ``gnn_eval`` enforces.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import arity_bound
from .errors import UsageError
from .formula import Arena, Formula, features_of, import_formula
from .gnn import Fnn, GnnModel, LinIneq, LvpInstance


@dataclass
class CompiledInstance:
    formula: Formula
    outputs: tuple[int, ...]  # each network output's expression id, in model order
    # what the last FNNs (the last layer's comb and ``out``) read: the point's
    # states, then that layer's aggregations; without layers, the features
    inputs: tuple[int, ...]
    l_out: tuple[int, ...] = ()  # each L_out inequality's atom, in order (``compile_lvp``)


def _linear_chain(arena: Arena, terms: list[tuple[int, int]], bias: int) -> int:
    """Left-associated sum of coeff*expr terms plus a trailing bias."""
    one = arena.spec.one
    acc = None
    for coeff, eid in terms:
        if coeff == 0:
            continue
        term = eid if coeff == one else arena.scale(coeff, eid)
        acc = term if acc is None else arena.add(acc, term)
    if bias != 0 or acc is None:
        bterm = arena.const(bias)
        acc = bterm if acc is None else arena.add(acc, bterm)
    return acc


def unfold_fnn(arena: Arena, fnn: Fnn, inputs: list[int]) -> list[int]:
    """Expressions for each FNN output over the given input expressions."""
    if len(inputs) != fnn.input_dim:
        raise UsageError(f"expected {fnn.input_dim} inputs, got {len(inputs)}")
    state = list(inputs)
    for layer in fnn.layers:
        nxt = []
        for row, bias, act in zip(layer.weights, layer.bias, layer.activations):
            acc = _linear_chain(arena, list(zip(row, state)), bias)
            if act != "id":
                acc = arena.act(act, acc)
            nxt.append(acc)
        state = nxt
    return state


def network_outputs(arena: Arena, model: GnnModel) -> tuple[dict[str, int], tuple[int, ...]]:
    """Each network output's expression over the input features, by name,
    and the expressions the last FNNs read (``CompiledInstance.inputs``)."""
    state = [arena.feature(name) for name in model.input_features]
    last = state
    for layer in model.layers:
        last = state + [arena.agg(layer.agg_kind, s, layer.agg_weights) for s in state]
        state = unfold_fnn(arena, layer.comb, last)
    return dict(zip(model.output_features, unfold_fnn(arena, model.out, state))), tuple(last)


def compile_gnn(arena: Arena, model: GnnModel) -> tuple[int, tuple[str, ...]]:
    """Build the formula stating that fresh output features equal the GNN outputs."""
    outputs, one = network_outputs(arena, model)[0], arena.spec.one
    ties = [arena.eq(arena.add(e, arena.scale(-one, arena.feature(y))), 0) for y, e in outputs.items()]
    return arena.conjoin(ties), tuple(model.output_features)


def _ineq_atom(arena: Arena, ineq: LinIneq, exprs: dict[str, int]) -> int:
    expr = _linear_chain(arena, [(coeff, exprs[var]) for var, coeff in ineq.coeffs], 0)
    return arena.geq(expr, ineq.const)


def compile_lvp(instance: LvpInstance) -> CompiledInstance:
    """Reduce an instance to satisfiability: valid iff the formula has no model."""
    model = instance.model
    arena = Arena(model.spec)
    outputs, last = network_outputs(arena, model)
    features = {name: arena.feature(name) for name in model.input_features}
    conjuncts = [_ineq_atom(arena, q, features) for q in instance.l_in]
    negs = [arena.not_(_ineq_atom(arena, q, outputs)) for q in instance.l_out]
    l_out = tuple(arena.formula(neg)[1] for neg in negs)
    if negs:
        conjuncts.append(arena.disjoin(negs))
    else:
        # empty disjunction: no output constraint can fail, the formula is false
        conjuncts.append(arena.not_(arena.geq(arena.const(0), 0)))
    return _compiled(arena, arena.conjoin(conjuncts), model, outputs, last, l_out)


def compile_generalized(model: GnnModel, pre: Formula, post: Formula) -> CompiledInstance:
    """Reduction for instances whose constraints are arbitrary formulas."""
    if model.spec != pre.spec or model.spec != post.spec:
        raise UsageError("pre/post formulas must share the model's arithmetic spec")
    bad_pre = set(features_of(pre)) - set(model.input_features)
    if bad_pre:
        raise UsageError(f"precondition mentions non-input features {sorted(bad_pre)}")
    bad_post = set(features_of(post)) - set(model.output_features)
    if bad_post:
        raise UsageError(f"postcondition mentions non-output features {sorted(bad_post)}")
    arena = Arena(model.spec)
    outputs, last = network_outputs(arena, model)
    pre_id = import_formula(arena, pre.arena, pre.root)
    post_id = import_formula(arena, post.arena, post.root, outputs)
    return _compiled(arena, arena.conjoin([pre_id, arena.not_(post_id)]), model, outputs, last)


def _compiled(arena: Arena, root: int, model: GnnModel, outputs: dict, last: tuple, l_out=()) -> CompiledInstance:
    """The formula at root, declaring the model's inputs and the smaller of
    its own weight cap and the network's."""
    formula = Formula(arena, root, tuple(model.input_features))
    formula.weight_cap = arity_bound(formula.weight_cap, model.weight_cap)
    return CompiledInstance(formula, tuple(outputs.values()), last, l_out)
