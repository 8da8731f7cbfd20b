"""Unfold a quantized GNN plus linear constraints into one formula DAG.

The produced formula is satisfiable exactly when the instance has a
counterexample.  Unfolding canonicalizes the affine chains: zero-weight
products, zero biases, unit coefficients and identity activations are
dropped.  Each dropped construct is exact in the arithmetic (0*x = 0,
v + 0 = v, 1*v = v, id(v) = v), so evaluation of the canonical chain is
bit-identical to the dense fold used by the forward evaluator.

A compiled formula declares the whole instance: the model's input and
output features, and the network's weight cap (``GnnModel.weight_cap``)
as its own ``weight_cap``.  Dropping zero-weight products can leave a
weighted layer with no aggregation in the formula, and the cap still
holds, so every engine that reads the formula keeps the arity rule
``gnn_eval`` enforces.
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


def compile_gnn(arena: Arena, model: GnnModel) -> tuple[int, tuple[str, ...]]:
    """Build the formula stating that fresh output features equal the GNN outputs."""
    state = [arena.feature(name) for name in model.input_features]
    for layer in model.layers:
        aggs = [arena.agg(layer.agg_kind, s, layer.agg_weights) for s in state]
        state = unfold_fnn(arena, layer.comb, state + aggs)
    outs = unfold_fnn(arena, model.out, state)
    one = arena.spec.one
    conjuncts = []
    for eid, name in zip(outs, model.output_features):
        y = arena.feature(name)
        conjuncts.append(arena.eq(arena.add(eid, arena.scale(-one, y)), 0))
    return arena.conjoin(conjuncts), tuple(model.output_features)


def _ineq_atom(arena: Arena, ineq: LinIneq) -> int:
    terms = [(coeff, arena.feature(var)) for var, coeff in ineq.coeffs]
    expr = _linear_chain(arena, terms, 0)
    return arena.geq(expr, ineq.const)


def compile_lvp(instance: LvpInstance) -> CompiledInstance:
    """Reduce an instance to satisfiability: valid iff the formula has no model."""
    model = instance.model
    arena = Arena(model.spec)
    phi_n, outputs = compile_gnn(arena, model)
    conjuncts = [_ineq_atom(arena, q) for q in instance.l_in]
    conjuncts.append(phi_n)
    if instance.l_out:
        negs = [arena.not_(_ineq_atom(arena, q)) for q in instance.l_out]
        conjuncts.append(arena.disjoin(negs))
    else:
        # empty disjunction: no output constraint can fail, the formula is false
        conjuncts.append(arena.not_(arena.geq(arena.const(0), 0)))
    return _compiled(arena, arena.conjoin(conjuncts), model, outputs)


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
    phi_n, outputs = compile_gnn(arena, model)
    pre_id = import_formula(arena, pre.arena, pre.root)
    post_id = import_formula(arena, post.arena, post.root)
    return _compiled(arena, arena.conjoin([pre_id, phi_n, arena.not_(post_id)]), model, outputs)


def _compiled(arena: Arena, root: int, model: GnnModel, outputs: tuple[str, ...]) -> CompiledInstance:
    """The formula at root, declaring the model's inputs and outputs besides
    the features it mentions, and the smaller of its own weight cap and the
    network's: one walk of the DAG, the formula's own."""
    formula = Formula(arena, root)
    formula.features = tuple(sorted(set(model.input_features) | set(outputs) | set(formula.features)))
    formula.weight_cap = arity_bound(formula.weight_cap, model.weight_cap)
    return CompiledInstance(formula)
