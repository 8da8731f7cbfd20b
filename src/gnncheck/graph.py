"""Vector-labelled directed graphs over a finite arithmetic, with JSON and DOT I/O.

Successor order is the edge-declaration order; since saturating addition is
order sensitive, every fold over successors (logic semantics, GNN evaluation,
the brute-force oracle) uses this one order.

``tree`` builds the pointed trees all three engines answer with (the
tableau, the brute-force oracle and the sampler) and names their nodes:
"v" is the point, "v1" its first successor, "v1.2" that node's second.
The loaders share one rule for malformed input: a constructor's
``UsageError`` or ``ConfigError`` is a ``SchemaError`` at the JSON path of
what it was built from (``at_path``), and a bad literal is one at the
literal's path (``_parse_payload``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .arith import ArithmeticSpec
from .errors import ConfigError, SchemaError, UsageError


class LabeledGraph:
    """Nodes with total feature labellings and ordered directed edges."""

    def __init__(
        self,
        spec: ArithmeticSpec,
        features: tuple[str, ...],
        nodes: tuple[str, ...],
        edges: tuple[tuple[str, str], ...],
        labels: dict[str, dict[str, int]],
    ):
        self.spec = spec
        self.features = tuple(features)
        self.nodes = tuple(nodes)
        self.edges = tuple(edges)
        self.labels = labels
        self._validate()
        succ: dict[str, list[str]] = {n: [] for n in self.nodes}
        for src, dst in self.edges:
            succ[src].append(dst)
        self._successors = {n: tuple(s) for n, s in succ.items()}

    def _validate(self):
        if len(set(self.nodes)) != len(self.nodes):
            raise UsageError("duplicate node identifiers")
        node_set = set(self.nodes)
        seen = set()
        for src, dst in self.edges:
            if src not in node_set or dst not in node_set:
                raise UsageError(f"edge ({src}, {dst}) mentions an unknown node")
            if (src, dst) in seen:
                raise UsageError(f"duplicate edge ({src}, {dst})")
            seen.add((src, dst))
        for n in self.nodes:
            lab = self.labels.get(n)
            if lab is None or set(lab) != set(self.features):
                raise UsageError(f"node {n} must label exactly the features {self.features}")
            for name, payload in lab.items():
                self.spec.check_payload(payload)

    def successors(self, v: str) -> tuple[str, ...]:
        try:
            return self._successors[v]
        except KeyError:
            raise UsageError(f"unknown node {v!r}") from None

    def out_degree(self, v: str) -> int:
        return len(self.successors(v))

    def require_arity(self, weight_cap: int | None) -> None:
        """Raise UsageError when a node has more successors than ``weight_cap``,
        the fewest weights of a weighted aggregation (``arith.weight_cap``);
        None allows any number."""
        if weight_cap is None:
            return
        for n, succs in self._successors.items():
            if len(succs) > weight_cap:
                raise UsageError(
                    f"a weighted aggregation has {weight_cap} weights for {len(succs)} successors of node {n}"
                )

    def label_payload(self, v: str, feature: str) -> int:
        try:
            return self.labels[v][feature]
        except KeyError:
            raise UsageError(f"no feature {feature!r} at node {v!r}") from None

    def __eq__(self, other):
        return (
            isinstance(other, LabeledGraph)
            and self.spec == other.spec
            and self.features == other.features
            and self.nodes == other.nodes
            and self.edges == other.edges
            and self.labels == other.labels
        )


@dataclass(frozen=True)
class PointedGraph:
    graph: LabeledGraph
    point: str

    def __post_init__(self):
        if self.point not in self.graph.nodes:
            raise UsageError(f"point {self.point!r} is not a node")


def tree(spec: ArithmeticSpec, features: tuple[str, ...], counts: list[int], rows: list[list[int]]) -> PointedGraph:
    """The tree whose nodes, in breadth-first order, have ``counts[i]``
    successors (none past the end of ``counts``) and the payloads ``rows[i]``
    in feature order, pointed at its root.  The root is "v", its successors
    "v1", "v2", ..., and the second successor of "v1" is "v1.2"."""
    nodes, edges = ["v"], []
    for at, count in enumerate(counts):
        parent = nodes[at]
        prefix = "v" if at == 0 else parent + "."
        for i in range(1, count + 1):
            child = f"{prefix}{i}"
            edges.append((parent, child))
            nodes.append(child)
    labels = {name: dict(zip(features, row)) for name, row in zip(nodes, rows)}
    return PointedGraph(LabeledGraph(spec, features, nodes, edges, labels), "v")


def save_json(graph: LabeledGraph, point: str | None = None) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "features": list(graph.features),
        "nodes": [
            {"id": n, "label": {f: graph.spec.format_payload(graph.labels[n][f]) for f in graph.features}}
            for n in graph.nodes
        ],
        "edges": [[s, t] for s, t in graph.edges],
    }
    if point is not None:
        doc["point"] = point
    return doc


_REQUIRED = object()


def _expect(doc: Any, key: str, kind, path: str, default: Any = _REQUIRED):
    """doc[key], which must be of type kind; default when the key is
    missing, if one is given.  doc must be an object."""
    if not isinstance(doc, dict) or key not in doc:
        if isinstance(doc, dict) and default is not _REQUIRED:
            return default
        raise SchemaError(f"missing key {key!r}", path)
    value = doc[key]
    if not isinstance(value, kind):
        raise SchemaError(f"{key!r} must be {kind.__name__}", f"{path}.{key}")
    return value


def at_path(path: str, make, *args):
    """``make(*args)``, with its UsageError or ConfigError raised as a
    SchemaError at ``path``."""
    try:
        return make(*args)
    except (UsageError, ConfigError) as exc:
        raise SchemaError(str(exc), path) from None


def _parse_payload(spec: ArithmeticSpec, raw: Any, path: str) -> int:
    """The payload of the literal ``raw``; a bad one is a SchemaError at
    ``path``.  ``int`` raises ValueError on digits that ``str.isdigit``
    passes, such as "²", and past the interpreter's digit limit."""
    try:
        return spec.parse_literal(str(raw))
    except (ConfigError, ValueError) as exc:
        raise SchemaError(str(exc), path) from None


def load_json(doc: Any, spec: ArithmeticSpec) -> tuple[LabeledGraph, str | None]:
    """Build a graph from its JSON document; label strings are read under spec."""
    features = _expect(doc, "features", list, "$")
    if not all(isinstance(name, str) for name in features):
        raise SchemaError("feature names must be strings", "$.features")
    raw_nodes = _expect(doc, "nodes", list, "$")
    raw_edges = _expect(doc, "edges", list, "$")
    nodes = []
    labels: dict[str, dict[str, int]] = {}
    for i, nd in enumerate(raw_nodes):
        path = f"$.nodes[{i}]"
        node_id = _expect(nd, "id", str, path)
        raw_label = _expect(nd, "label", dict, path)
        lab = {}
        for name in features:
            if name not in raw_label:
                raise SchemaError(f"missing feature {name!r}", f"{path}.label")
            lab[name] = _parse_payload(spec, raw_label[name], f"{path}.label.{name}")
        nodes.append(node_id)
        labels[node_id] = lab
    edges = []
    for i, e in enumerate(raw_edges):
        if not (isinstance(e, list) and len(e) == 2 and isinstance(e[0], str) and isinstance(e[1], str)):
            raise SchemaError("edge must be a [source, target] pair of node ids", f"$.edges[{i}]")
        edges.append((e[0], e[1]))
    graph = at_path("$", LabeledGraph, spec, tuple(features), tuple(nodes), tuple(edges), labels)
    point = _expect(doc, "point", str, "$", None)
    if point is not None and point not in labels:
        raise SchemaError(f"point {point!r} is not a node", "$.point")
    return graph, point


def to_dot(graph: LabeledGraph, point: str | None = None) -> str:
    """Render as a DOT digraph; labels as name=value lists."""
    lines = ["digraph g {"]
    for n in graph.nodes:
        label = ", ".join(f"{f}={graph.spec.format_payload(graph.labels[n][f])}" for f in graph.features)
        shape = ' shape="doublecircle"' if n == point else ""
        lines.append(f'  "{n}" [label="{n}\\n{label}"{shape}];')
    for s, t in graph.edges:
        lines.append(f'  "{s}" -> "{t}";')
    lines.append("}")
    return "\n".join(lines)
