"""Quantized aggregate-combine GNNs: data model, forward evaluation, LVP
instances, JSON I/O.

All numeric parameters are payloads of one arithmetic spec.  The affine
accumulation inside an FNN layer is the left fold of saturating addition over
weight*input products in input-index order, then the bias; the compiler
unfolds formulas with the same chain so that logic and evaluation agree
bit for bit.

The JSON loaders read every list of literals (a weight row, a bias, a
weighted aggregation's weights, an inequality's coefficients) with one
``map`` over the spec's literal table, and make a JSON path only when a
read fails (``graph.literal_fault``).  A weighted aggregation must give its
``weights``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from .arith import ACTIVATIONS, AGG_KINDS, ArithmeticSpec, Value, weight_cap
from .errors import SchemaError, UsageError
from .formula import is_feature_name
from .graph import LITERAL_FAULTS, PointedGraph, _expect, at_path, literal_fault


@dataclass(frozen=True)
class FnnLayer:
    """One dense layer: weights[j][i], bias[j], one activation name per output."""

    weights: tuple[tuple[int, ...], ...]
    bias: tuple[int, ...]
    activations: tuple[str, ...]

    def __post_init__(self):
        rows = len(self.weights)
        if rows == 0 or len(self.bias) != rows or len(self.activations) != rows:
            raise UsageError("layer rows, bias and activations must have equal nonzero length")
        width = len(self.weights[0])
        if any(len(r) != width for r in self.weights):
            raise UsageError("ragged weight matrix")
        unknown = [a for a in self.activations if a not in ACTIVATIONS]
        if unknown:
            raise UsageError(f"unknown activation {unknown[0]!r}; known: {', '.join(ACTIVATIONS)}")

    @property
    def input_dim(self) -> int:
        return len(self.weights[0])

    @property
    def output_dim(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class Fnn:
    layers: tuple[FnnLayer, ...]

    def __post_init__(self):
        if not self.layers:
            raise UsageError("an FNN needs at least one layer")
        for a, b in zip(self.layers, self.layers[1:]):
            if a.output_dim != b.input_dim:
                raise UsageError(f"layer dimensions do not chain: {a.output_dim} -> {b.input_dim}")

    @property
    def input_dim(self) -> int:
        return self.layers[0].input_dim

    @property
    def output_dim(self) -> int:
        return self.layers[-1].output_dim

    def size(self) -> int:
        """Number of numerical parameters (weights and biases)."""
        return sum(l.input_dim * l.output_dim + l.output_dim for l in self.layers)

    @staticmethod
    def identity(dim: int, spec: ArithmeticSpec) -> "Fnn":
        one = spec.one
        rows = tuple(tuple(one if i == j else 0 for i in range(dim)) for j in range(dim))
        return Fnn((FnnLayer(rows, (0,) * dim, ("id",) * dim),))


@dataclass(frozen=True)
class GnnLayer:
    agg_kind: str
    comb: Fnn
    agg_weights: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.agg_kind not in AGG_KINDS:
            raise UsageError(f"unknown aggregation {self.agg_kind!r}")
        if (self.agg_kind == "weighted") != (self.agg_weights is not None):
            raise UsageError("aggregation weights are given exactly for weighted layers")


@dataclass(frozen=True)
class GnnModel:
    spec: ArithmeticSpec
    layers: tuple[GnnLayer, ...]
    out: Fnn
    input_features: tuple[str, ...]
    output_features: tuple[str, ...]

    def __post_init__(self):
        dim = len(self.input_features)
        if dim == 0:
            raise UsageError("a GNN needs at least one input feature")
        # compiled formulas name features by these strings: each must parse back,
        # and a shared name would make an output and an input one feature
        names = self.input_features + self.output_features
        for name in names:
            if not is_feature_name(name):
                raise UsageError(f"feature name {name!r} is not an identifier, or is a keyword of the formula syntax")
        if len(set(names)) != len(names):
            raise UsageError(f"input and output feature names must be distinct, got {names}")
        for i, layer in enumerate(self.layers):
            if layer.comb.input_dim != 2 * dim:
                raise UsageError(
                    f"layer {i} combination takes {layer.comb.input_dim} inputs, expected {2 * dim}"
                )
            dim = layer.comb.output_dim
        if self.out.input_dim != dim:
            raise UsageError(f"output network takes {self.out.input_dim} inputs, expected {dim}")
        if self.out.output_dim != len(self.output_features):
            raise UsageError("output network width must match the output feature names")

    @property
    def input_dim(self) -> int:
        return len(self.input_features)

    @property
    def output_dim(self) -> int:
        return len(self.output_features)

    @property
    def weight_cap(self) -> int | None:
        """The fewest weights of any weighted layer (``arith.weight_cap``):
        ``gnn_eval`` takes no graph with a node of more successors."""
        return weight_cap(layer.agg_weights for layer in self.layers)

    def size(self) -> int:
        return sum(l.comb.size() for l in self.layers) + self.out.size()


def fnn_eval_p(fnn: Fnn, inputs: Sequence[int], spec: ArithmeticSpec) -> list[int]:
    if len(inputs) != fnn.input_dim:
        raise UsageError(f"expected {fnn.input_dim} inputs, got {len(inputs)}")
    add_p, mul_p, act_p = spec.add_p, spec.mul_p, spec.act_p
    state = list(inputs)
    for layer in fnn.layers:
        nxt = []
        for row, b, act in zip(layer.weights, layer.bias, layer.activations):
            acc = 0
            for w, x in zip(row, state):
                acc = add_p(acc, mul_p(w, x))
            nxt.append(act_p(act, add_p(acc, b)))
        state = nxt
    return state


def _aggregate(layer: GnnLayer, states: list[list[int]], spec: ArithmeticSpec) -> list[int]:
    """Fold successor state vectors componentwise, in successor order."""
    if not states:
        return [0] * (layer.comb.input_dim // 2)
    dim = len(states[0])
    out = []
    for j in range(dim):
        vals = [s[j] for s in states]
        if layer.agg_kind == "sum":
            out.append(spec.fold_add(vals))
        elif layer.agg_kind == "mean":
            out.append(spec.div_p(spec.fold_add(vals), len(vals)))
        elif layer.agg_kind == "max":
            out.append(max(vals))
        else:
            out.append(spec.fold_add(spec.mul_p(w, v) for w, v in zip(layer.agg_weights, vals)))
    return out


def gnn_eval(model: GnnModel, pointed: PointedGraph) -> list[Value]:
    """Forward evaluation of a pointed graph: the spec, feature and arity
    checks, then ``gnn_eval_p`` over the nodes within reach of the point, in
    breadth-first order from it.  Node names live only here: the core sees
    each node as its index in that order."""
    graph, spec = pointed.graph, model.spec
    if graph.spec != spec:
        raise UsageError("graph and model use different arithmetic specs")
    missing = [f for f in model.input_features if f not in graph.features]
    if missing:
        raise UsageError(f"graph lacks input features {missing}")
    graph.require_arity(model.weight_cap)
    successors = graph.successors
    # breadth-first from the point: the nodes within distance d are
    # order[:within[d]], and kids[i] holds the indices of order[i]'s
    # successors for every node the layers expand
    order, index, kids, within = [pointed.point], {pointed.point: 0}, [], [1]
    for _ in model.layers:
        for n in order[len(kids) :]:
            row = []
            for s in successors(n):
                if s not in index:
                    index[s] = len(order)
                    order.append(s)
                row.append(index[s])
            kids.append(row)
        within.append(len(order))
    rows = [[graph.label_payload(n, f) for f in model.input_features] for n in order]
    return [Value(p, spec) for p in gnn_eval_p(model, rows, kids, within)]


def gnn_eval_p(model: GnnModel, rows: list[list[int]], kids: Sequence[Sequence[int]], within: list[int]) -> list[int]:
    """The output payloads at node 0 of a graph given by indices: ``rows[i]``
    is node i's input labels in feature order, ``kids[i]`` its successors'
    indices in successor order, and the nodes within distance d of node 0
    are the first ``within[d]``, for d up to the layer count.

    A node at distance d from node 0 reaches the output only through
    layers 1..L-d, so layer l evaluates only the nodes within L-l of it
    (shortest distance, so cycles and paths of different lengths are
    covered).  No arity check: callers see to it that no node has more
    successors than ``model.weight_cap``."""
    spec, depth = model.spec, len(model.layers)
    states = rows
    for l, layer in enumerate(model.layers, start=1):
        states = [
            fnn_eval_p(layer.comb, states[i] + _aggregate(layer, [states[k] for k in kids[i]], spec), spec)
            for i in range(within[depth - l])
        ]
    return fnn_eval_p(model.out, states[0], spec)


# -- linear constraint systems and LVP instances -------------------------------


@dataclass(frozen=True)
class LinIneq:
    """Sum of coeff*variable >= const; coefficient order is declaration order."""

    coeffs: tuple[tuple[str, int], ...]
    const: int

    def variables(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.coeffs)


def eval_linineq(ineq: LinIneq, values: Mapping[str, int], spec: ArithmeticSpec) -> bool:
    acc = 0
    for var, c in ineq.coeffs:
        if var not in values:
            raise UsageError(f"no value for variable {var!r}")
        acc = spec.add_p(acc, spec.mul_p(c, values[var]))
    return acc >= ineq.const


@dataclass(frozen=True)
class DeltaMode:
    kind: str  # "unary" | "binary" | "inf"
    value: int | None = None

    def __post_init__(self):
        if self.kind not in ("unary", "binary", "inf"):
            raise UsageError(f"unknown delta mode {self.kind!r}")
        if (self.kind == "inf") != (self.value is None):
            raise UsageError("finite delta modes carry a value, inf carries none")
        if self.value is not None and not (type(self.value) is int and self.value >= 0):
            raise UsageError(f"arity bound must be an int >= 0, got {self.value!r}")

    @staticmethod
    def unary(k: int) -> "DeltaMode":
        return DeltaMode("unary", k)

    @staticmethod
    def binary(k: int) -> "DeltaMode":
        return DeltaMode("binary", k)

    @staticmethod
    def infinite() -> "DeltaMode":
        return DeltaMode("inf", None)

    @staticmethod
    def parse(text: str) -> "DeltaMode":
        if text == "inf":
            return DeltaMode.infinite()
        parts = text.split(":")
        if len(parts) == 2 and parts[0] in ("unary", "binary") and parts[1].isdigit():
            return DeltaMode(parts[0], int(parts[1]))
        raise UsageError(f"bad delta {text!r}; expected unary:<k>, binary:<k> or inf")


@dataclass(frozen=True)
class LvpInstance:
    model: GnnModel
    l_in: tuple[LinIneq, ...]
    l_out: tuple[LinIneq, ...]
    delta: DeltaMode

    def __post_init__(self):
        in_names = set(self.model.input_features)
        out_names = set(self.model.output_features)
        for ineq in self.l_in:
            bad = set(ineq.variables()) - in_names
            if bad:
                raise UsageError(f"input constraints mention unknown variables {sorted(bad)}")
        for ineq in self.l_out:
            bad = set(ineq.variables()) - out_names
            if bad:
                raise UsageError(f"output constraints mention unknown variables {sorted(bad)}")


# -- JSON schemas ---------------------------------------------------------------


def _layer_to_json(layer: FnnLayer, spec: ArithmeticSpec) -> dict[str, Any]:
    return {
        "weights": [[spec.format_payload(w) for w in row] for row in layer.weights],
        "bias": [spec.format_payload(b) for b in layer.bias],
        "activation": list(layer.activations),
    }


def _fnn_to_json(fnn: Fnn, spec: ArithmeticSpec) -> dict[str, Any]:
    if len(fnn.layers) == 1:
        return _layer_to_json(fnn.layers[0], spec)
    return {"layers": [_layer_to_json(l, spec) for l in fnn.layers]}


def gnn_to_json(model: GnnModel) -> dict[str, Any]:
    spec = model.spec
    layers = []
    for layer in model.layers:
        if layer.agg_kind == "weighted":
            agg: Any = {"kind": "weighted", "weights": [spec.format_payload(w) for w in layer.agg_weights]}
        else:
            agg = layer.agg_kind
        layers.append({"agg": agg, "comb": _fnn_to_json(layer.comb, spec)})
    return {
        "arith": spec.spec_string(),
        "input_dim": model.input_dim,
        "features": list(model.input_features),
        "outputs": list(model.output_features),
        "layers": layers,
        "out": _fnn_to_json(model.out, spec),
    }


def _layer_from_json(doc: Any, spec: ArithmeticSpec, path: str) -> FnnLayer:
    if not isinstance(doc, dict) or "weights" not in doc:
        raise SchemaError("expected an object with 'weights'", path)
    rows = _expect(doc, "weights", list, path)
    for j, row in enumerate(rows):
        if not isinstance(row, list):
            raise SchemaError("a weight row must be a list", f"{path}.weights[{j}]")
    decode = spec.table("decode_literal").__getitem__
    try:
        weights = tuple(tuple(map(decode, row)) for row in rows)
        bias = tuple(map(decode, _expect(doc, "bias", list, path, [])))
    except LITERAL_FAULTS:
        for j, row in enumerate(rows):
            literal_fault(spec, row, f"{path}.weights[{j}]")
        literal_fault(spec, doc["bias"], f"{path}.bias")
        raise
    acts = doc.get("activation", [])
    if isinstance(acts, str):
        acts = [acts] * len(weights)
    elif not isinstance(acts, list):
        raise SchemaError("'activation' must be str or list", f"{path}.activation")
    return at_path(path, FnnLayer, weights, bias, tuple(acts))


def _fnn_from_json(doc: Any, spec: ArithmeticSpec, path: str) -> Fnn:
    if isinstance(doc, dict) and "layers" in doc:
        layers = tuple(
            _layer_from_json(l, spec, f"{path}.layers[{i}]") for i, l in enumerate(_expect(doc, "layers", list, path))
        )
    else:
        layers = (_layer_from_json(doc, spec, path),)
    return at_path(path, Fnn, layers)


def gnn_from_json(doc: Any, path: str = "$") -> GnnModel:
    """Build a model from its JSON document, found at path in the input."""
    if not isinstance(doc, dict) or "arith" not in doc:
        raise SchemaError("expected an object with 'arith'", path)
    spec = at_path(f"{path}.arith", ArithmeticSpec.parse, str(doc["arith"]))
    features = _expect(doc, "features", list, path, None)
    dim = _expect(doc, "input_dim", int, path, None)
    if features is None:
        if dim is None:
            raise SchemaError("need 'features' or 'input_dim'", path)
    elif dim is not None and dim != len(features):
        raise SchemaError("input_dim disagrees with features", f"{path}.input_dim")
    elif not all(isinstance(name, str) for name in features):
        raise SchemaError("feature names must be strings", f"{path}.features")
    layers = []
    for i, ld in enumerate(_expect(doc, "layers", list, path, [])):
        at = f"{path}.layers[{i}]"
        if not isinstance(ld, dict):
            raise SchemaError("expected an object", at)
        agg = ld.get("agg", "sum")
        weights = None
        if isinstance(agg, dict):
            kind = agg.get("kind")
            if kind != "weighted":
                raise SchemaError(f"unknown aggregation {kind!r}", f"{at}.agg")
            raw = _expect(agg, "weights", list, f"{at}.agg")
            try:
                weights = tuple(map(spec.table("decode_literal").__getitem__, raw))
            except LITERAL_FAULTS:
                literal_fault(spec, raw, f"{at}.agg.weights")
                raise
            agg = "weighted"
        elif agg not in AGG_KINDS or agg == "weighted":
            raise SchemaError(f"unknown aggregation {agg!r}", f"{at}.agg")
        comb = _fnn_from_json(ld.get("comb"), spec, f"{at}.comb")
        layers.append(at_path(at, GnnLayer, agg, comb, weights))
    if "out" not in doc:
        raise SchemaError("missing output network", f"{path}.out")
    out = _fnn_from_json(doc["out"], spec, f"{path}.out")
    if features is None:
        # checked before the names are made: their number comes from the document
        width = layers[0].comb.input_dim // 2 if layers else out.input_dim
        if dim != width:
            raise SchemaError(f"input_dim {dim} disagrees with the network's input width {width}", f"{path}.input_dim")
        features = [f"x{i + 1}" for i in range(dim)]
    outputs = tuple(_expect(doc, "outputs", list, path, [f"y{i + 1}" for i in range(out.output_dim)]))
    if not all(isinstance(name, str) for name in outputs):
        raise SchemaError("output names must be strings", f"{path}.outputs")
    return at_path(path, GnnModel, spec, tuple(layers), out, tuple(features), outputs)


def linineq_to_json(ineq: LinIneq, spec: ArithmeticSpec) -> dict[str, Any]:
    return {
        "coeffs": {v: spec.format_payload(c) for v, c in ineq.coeffs},
        "const": spec.format_payload(ineq.const),
        "rel": ">=",
    }


def linineq_from_json(doc: Any, spec: ArithmeticSpec, path: str) -> LinIneq:
    if not isinstance(doc, dict):
        raise SchemaError("expected an object", path)
    if doc.get("rel", ">=") != ">=":
        raise SchemaError("only '>=' inequalities are supported", f"{path}.rel")
    raw = _expect(doc, "coeffs", dict, path, {})
    const = doc.get("const", "0")
    decode = spec.table("decode_literal").__getitem__
    try:
        return LinIneq(tuple(zip(raw, map(decode, raw.values()))), decode(const))
    except LITERAL_FAULTS:
        literal_fault(spec, raw, f"{path}.coeffs")
        literal_fault(spec, {"const": const}, path)
        raise


def lvp_to_json(instance: LvpInstance) -> dict[str, Any]:
    spec = instance.model.spec
    delta: dict[str, Any] = {"mode": instance.delta.kind}
    if instance.delta.value is not None:
        delta["value"] = instance.delta.value
    return {
        "gnn": gnn_to_json(instance.model),
        "l_in": [linineq_to_json(q, spec) for q in instance.l_in],
        "l_out": [linineq_to_json(q, spec) for q in instance.l_out],
        "delta": delta,
    }


def lvp_from_json(doc: Any) -> LvpInstance:
    if not isinstance(doc, dict) or "gnn" not in doc:
        raise SchemaError("expected an object with 'gnn'", "$")
    model = gnn_from_json(doc["gnn"], "$.gnn")
    spec = model.spec
    l_in, l_out = (
        tuple(linineq_from_json(q, spec, f"$.{key}[{i}]") for i, q in enumerate(_expect(doc, key, list, "$", [])))
        for key in ("l_in", "l_out")
    )
    raw_delta = _expect(doc, "delta", dict, "$", {"mode": "inf"})
    delta = at_path("$.delta", DeltaMode, raw_delta.get("mode", "inf"), raw_delta.get("value"))
    return at_path("$", LvpInstance, model, l_in, l_out, delta)
