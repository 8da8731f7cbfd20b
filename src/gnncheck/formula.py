"""Expression and formula DAGs with hash consing, concrete syntax and queries.

Nodes are stored as plain tuples inside an :class:`Arena`; structurally equal
nodes always share one id, so shared subterms are represented once.  Expression
node shapes::

    ("const", payload)
    ("feat", name)
    ("act", activation_name, child)
    ("agg", kind, child, weights)      # kind: sum | mean | max | weighted
    ("sum", left, right)
    ("scale", payload, child)

Formula node shapes::

    ("geq", expr, payload)
    ("eq", expr, payload)
    ("not", child)
    ("and", left, right)
    ("or", left, right)

Every pass over a DAG follows one order, the walk of :meth:`Arena.reachable`:
post-order, each node once, children before parents, left to right.  Passes
that only read the DAG, or rebuild it, are loops over that list, so no pass
is bounded by the interpreter's recursion limit.

Formula text is read in one linear pass.  One regular expression scans it
into (kind, text, offset) tokens and pairs each "(" with its ")"; a
recursive descent reads the tokens.  At a literal, a "(" opens an atom's
arithmetic group when the token after its ")" is "+", "-", ">=", "=" or
"<", and a formula group otherwise, so valid text is read without going
back.  An error's line and column are counted from its offset when it is
raised.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .arith import ACTIVATIONS, AGG_KINDS, ArithmeticSpec, weight_cap
from .errors import ConfigError, FormulaSyntaxError, UsageError

_ATOMS = ("geq", "eq")
# positions of a node's children in its tuple, by tag; an atom's expression
# is not among them, since it lives in the other id space
_KIDS = {
    "const": (), "feat": (), "act": (2,), "scale": (2,), "agg": (2,), "sum": (1, 2),
    "geq": (), "eq": (), "not": (1,), "and": (1, 2), "or": (1, 2),
}


def _post_order(nodes: list[tuple], root: int, seen: set[int]) -> list[int]:
    """Ids of the nodes under root that are not in seen, in post-order: each
    once, children before parents, left to right.  They are added to seen.

    A node popped for the first time pushes a marker (its id inverted) and
    then its children, rightmost first; the marker pops once they are done.
    """
    order = []
    stack = [root]
    while stack:
        n = stack.pop()
        if n < 0:
            order.append(~n)
        elif n not in seen:
            seen.add(n)
            node = nodes[n]
            stack.append(~n)
            for i in reversed(_KIDS[node[0]]):
                stack.append(node[i])
    return order


def _relabel(node: tuple, ids: dict[int, int], expr_ids: dict[int, int]) -> tuple:
    """The node with its children's ids mapped through ids, and an atom's
    expression id through expr_ids."""
    if node[0] in _ATOMS:
        return (node[0], expr_ids[node[1]], node[2])
    kids = _KIDS[node[0]]
    if not kids:
        return node
    out = list(node)
    for i in kids:
        out[i] = ids[out[i]]
    return tuple(out)


class Arena:
    """Hash-consed store for expression and formula nodes over one spec.

    Construction is single-threaded; once a formula is built the arena is
    never mutated by evaluation or solving, so concurrent readers are safe.
    """

    def __init__(self, spec: ArithmeticSpec):
        self.spec = spec
        self._exprs: list[tuple] = []
        self._expr_ids: dict[tuple, int] = {}
        self._formulas: list[tuple] = []
        self._formula_ids: dict[tuple, int] = {}

    def _intern_expr(self, node: tuple) -> int:
        eid = self._expr_ids.get(node)
        if eid is None:
            eid = len(self._exprs)
            self._exprs.append(node)
            self._expr_ids[node] = eid
        return eid

    def _intern_formula(self, node: tuple) -> int:
        fid = self._formula_ids.get(node)
        if fid is None:
            fid = len(self._formulas)
            self._formulas.append(node)
            self._formula_ids[node] = fid
        return fid

    def expr(self, eid: int) -> tuple:
        return self._exprs[eid]

    def formula(self, fid: int) -> tuple:
        return self._formulas[fid]

    # -- expression constructors -------------------------------------------

    def const(self, payload: int) -> int:
        self.spec.check_payload(payload)
        return self._intern_expr(("const", payload))

    def feature(self, name: str) -> int:
        return self._intern_expr(("feat", name))

    def act(self, name: str, child: int) -> int:
        if name not in ACTIVATIONS:
            raise UsageError(f"unknown activation {name!r}")
        return self._intern_expr(("act", name, child))

    def agg(self, kind: str, child: int, weights: tuple[int, ...] | None = None) -> int:
        if kind not in AGG_KINDS:
            raise UsageError(f"unknown aggregation kind {kind!r}")
        if (kind == "weighted") != (weights is not None):
            raise UsageError("weights are given exactly for weighted aggregation")
        if weights is not None:
            for w in weights:
                self.spec.check_payload(w)
        return self._intern_expr(("agg", kind, child, weights))

    def add(self, left: int, right: int) -> int:
        return self._intern_expr(("sum", left, right))

    def scale(self, payload: int, child: int) -> int:
        self.spec.check_payload(payload)
        return self._intern_expr(("scale", payload, child))

    # -- formula constructors ------------------------------------------------

    def geq(self, expr: int, payload: int) -> int:
        self.spec.check_payload(payload)
        return self._intern_formula(("geq", expr, payload))

    def eq(self, expr: int, payload: int) -> int:
        self.spec.check_payload(payload)
        return self._intern_formula(("eq", expr, payload))

    def not_(self, child: int) -> int:
        return self._intern_formula(("not", child))

    def and_(self, left: int, right: int) -> int:
        return self._intern_formula(("and", left, right))

    def or_(self, left: int, right: int) -> int:
        return self._intern_formula(("or", left, right))

    def conjoin(self, fids: list[int]) -> int:
        """Left-associated conjunction of one or more formulas."""
        acc = fids[0]
        for fid in fids[1:]:
            acc = self.and_(acc, fid)
        return acc

    def disjoin(self, fids: list[int]) -> int:
        acc = fids[0]
        for fid in fids[1:]:
            acc = self.or_(acc, fid)
        return acc

    def true(self) -> int:
        """The tautology, spelled x1 - x1 >= 0."""
        x = self.feature("x1")
        return self.geq(self.add(x, self.scale(-self.spec.one, x)), 0)

    # -- traversal -----------------------------------------------------------

    def reachable(self, fid: int) -> tuple[list[int], list[int]]:
        """(formula ids, expression ids) reachable from a formula root.

        Both lists are in post-order: each node once, children before parents,
        left to right.  The expressions come in the order a post-order walk of
        the whole DAG finishes them, atom by atom.
        """
        fids = _post_order(self._formulas, fid, set())
        eids: list[int] = []
        seen: set[int] = set()
        for f in fids:
            node = self._formulas[f]
            if node[0] in _ATOMS:
                eids += _post_order(self._exprs, node[1], seen)
        return fids, eids

    def dag_size(self, fid: int) -> int:
        fids, eids = self.reachable(fid)
        return len(fids) + len(eids)


@dataclass
class Formula:
    """A formula root in an arena, with its spec and declared feature set.

    ``fids`` and ``eids`` hold the walk of :meth:`Arena.reachable` from the
    root, made once here and read by every later pass.  Nodes are never
    changed once interned, so what a fixed root reaches stays the same when
    the arena grows.  ``weight_cap`` is the fewest weights of any weighted
    aggregation (``arith.weight_cap``), or None: no node of a model may have
    more successors, whichever subformula it evaluates.  A compiled formula
    declares the smaller of that and the network's weight cap, which holds
    even where no weighted aggregation is left in the formula.
    """

    arena: Arena
    root: int
    features: tuple[str, ...] = field(default=())
    fids: list[int] = field(init=False, repr=False, compare=False)
    eids: list[int] = field(init=False, repr=False, compare=False)
    weight_cap: int | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.fids, self.eids = self.arena.reachable(self.root)
        exprs = self.arena._exprs
        self.weight_cap = weight_cap(exprs[e][3] for e in self.eids if exprs[e][0] == "agg")
        found = features_of(self)
        if not self.features:
            self.features = found
        elif not set(found) <= set(self.features):
            raise UsageError(f"undeclared features {set(found) - set(self.features)}")

    @property
    def spec(self) -> ArithmeticSpec:
        return self.arena.spec


def features_of(f: Formula) -> tuple[str, ...]:
    """Sorted names of all features reachable from the root."""
    exprs = f.arena._exprs
    return tuple(sorted({exprs[e][1] for e in f.eids if exprs[e][0] == "feat"}))


def agg_depth(f: Formula) -> int:
    """Maximum nesting of aggregation operators."""
    arena = f.arena
    depth: dict[int, int] = {}
    for eid in f.eids:
        node = arena.expr(eid)
        depth[eid] = max((depth[node[i]] for i in _KIDS[node[0]]), default=0) + (node[0] == "agg")
    return max(depth.values())


def _rebuild(dst: Arena, src: Arena, root: int, replace=lambda node: None) -> int:
    """Copy the formula DAG under root from src into dst, in walk order.

    Each node is interned in dst with its children already rebuilt, unless
    ``replace``, given that rebuilt node, returns the id of a node to stand
    for it (an expression id for an expression, a formula id for a formula).
    Rebuilding within one arena keeps every node that is not replaced, nor
    above a replaced one, at its id.
    """
    fids, eids = src.reachable(root)
    new_expr: dict[int, int] = {}
    for eid in eids:
        node = _relabel(src.expr(eid), new_expr, new_expr)
        out = replace(node)
        new_expr[eid] = dst._intern_expr(node) if out is None else out
    new_formula: dict[int, int] = {}
    for fid in fids:
        node = _relabel(src.formula(fid), new_formula, new_expr)
        out = replace(node)
        new_formula[fid] = dst._intern_formula(node) if out is None else out
    return new_formula[root]


def rewrite_truncrelu(f: Formula) -> Formula:
    """Replace each truncrelu node by its plain-ReLU encoding.

    truncrelu(E) becomes relu(relu(E) + (-1)*relu(E + (-1)*1)); sharing is
    preserved because the rebuild goes through the hash-consing arena.
    """
    arena = f.arena
    one = arena.spec.one

    def replace(node: tuple) -> int | None:
        if node[0] != "act" or node[1] != "truncrelu":
            return None
        child = node[2]
        minus_one = arena.scale(-one, arena.const(one))
        inner = arena.act("relu", arena.add(child, minus_one))
        return arena.act("relu", arena.add(arena.act("relu", child), arena.scale(-one, inner)))

    return Formula(arena, _rebuild(arena, arena, f.root, replace), f.features)


def desugar_eq(f: Formula) -> Formula:
    """Expand each eq atom into (e >= k) and (-1*e + k >= 0)."""
    arena = f.arena

    def replace(node: tuple) -> int | None:
        if node[0] != "eq":
            return None
        e, k = node[1], node[2]
        flipped = arena.geq(arena.add(arena.scale(-arena.spec.one, e), arena.const(k)), 0)
        return arena.and_(arena.geq(e, k), flipped)

    return Formula(arena, _rebuild(arena, arena, f.root, replace), f.features)


def structural_expr_key(arena: Arena, eid: int):
    """Arena-independent structural form of an expression, for comparisons.

    The key is flat: the nodes of the walk in order, each child written as its
    position in the walk.  (Comparing deeply nested tuples would recurse in
    the interpreter.)  Two expressions have equal keys exactly when they are
    equal as trees, because hash consing makes the walks of equal trees alike.
    """
    eids = _post_order(arena._exprs, eid, set())
    at = {e: i for i, e in enumerate(eids)}
    return tuple(_relabel(arena.expr(e), at, at) for e in eids)


def structural_key(arena: Arena, fid: int):
    """Arena-independent structural form of a formula: flat, as
    :func:`structural_expr_key`, over its formulas and its expressions."""
    fids, eids = arena.reachable(fid)
    at = {e: i for i, e in enumerate(eids)}
    fat = {f: i for i, f in enumerate(fids)}
    exprs = tuple(_relabel(arena.expr(e), at, at) for e in eids)
    return exprs, tuple(_relabel(arena.formula(f), fat, at) for f in fids)


def import_formula(dst: Arena, src: Arena, fid: int, features: dict[str, int] | None = None) -> int:
    """Copy a formula DAG between arenas, re-sharing through the target's
    consing; a feature named in ``features`` becomes the expression it maps to."""
    if dst.spec != src.spec:
        raise UsageError("cannot import between arenas with different specs")
    return _rebuild(dst, src, fid, lambda node: (features or {}).get(node[1]) if node[0] == "feat" else None)


# -- concrete syntax ----------------------------------------------------------

# the aggregation words of the text and the kinds they name; the printer
# reads the table backwards
_AGG_NAMES = {"agg": "sum", "mean": "mean", "maxagg": "max", "wagg": "weighted"}
_AGG_WORDS = {kind: word for word, kind in _AGG_NAMES.items()}
_KEYWORDS = {"and", "or", "not", "true", "alpha", *_AGG_NAMES, *ACTIVATIONS}
_IDENT = re.compile(r"[^\W\d]\w*")
# one token per match, the spaces between skipped: a number, an identifier,
# an operator, or any other character, which is an error
_TOKEN = re.compile(rf"(?P<number>\d+(?:\.\d+)?)|(?P<ident>{_IDENT.pattern})|(?P<op>>=|[-()*+=<,\[\]])|(?P<bad>\S)")
_COMPARISONS = (">=", "=", "<")
# the tokens that can follow an arithmetic group's ")" inside an atom
_AFTER_GROUP = frozenset(("+", "-", *_COMPARISONS))


def _error(message: str, text: str, offset: int) -> FormulaSyntaxError:
    """The error at offset in text, with its line and column counted from 1."""
    return FormulaSyntaxError(message, text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset))


def _scan(text: str) -> tuple[list[tuple[str, str, int]], dict[int, int]]:
    """The (kind, text, offset) tokens of text, the last of kind "eof", and
    the index of the ")" that closes each "(" that is closed.  An operator's
    kind is its text."""
    tokens: list[tuple[str, str, int]] = []
    closing: dict[int, int] = {}
    opened: list[int] = []
    for m in _TOKEN.finditer(text):
        kind, tok = m.lastgroup, m[0]
        if kind == "op":
            kind = tok
            if tok == "(":
                opened.append(len(tokens))
            elif tok == ")" and opened:
                closing[opened.pop()] = len(tokens)
        elif kind == "bad":
            raise _error(f"unexpected character {tok!r}", text, m.start())
        tokens.append((kind, tok, m.start()))
    tokens.append(("eof", "", len(text)))
    return tokens, closing


def is_feature_name(name) -> bool:
    """Whether formula text reads name back as one feature: an identifier that is no keyword."""
    return isinstance(name, str) and _IDENT.fullmatch(name) is not None and name not in _KEYWORDS


class _Parser:
    def __init__(self, text: str, spec: ArithmeticSpec, default_activation: str):
        self.text = text
        self.tokens, self.closing = _scan(text)
        self.pos = 0
        self.arena = Arena(spec)
        self.spec = spec
        self.literals = spec.table("decode_literal")
        self.default_activation = default_activation

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str):
        raise _error(message, self.text, self.peek()[2])

    def expect(self, kind: str) -> tuple[str, str, int]:
        if self.peek()[0] != kind:
            self.fail(f"expected {kind!r}, found {self.peek()[1] or 'end of input'!r}")
        return self.next()

    def literal(self, tok: tuple[str, str, int], negative: bool = False) -> int:
        try:
            return self.literals[("-" if negative else "") + tok[1]]
        except (ConfigError, ValueError) as exc:
            raise _error(str(exc), self.text, tok[2]) from None

    def parse(self) -> int:
        fid = self.formula()
        if self.peek()[0] != "eof":
            self.fail(f"trailing input starting at {self.peek()[1]!r}")
        return fid

    def formula(self) -> int:
        left = self.conj()
        while self.peek()[1] == "or":
            self.next()
            left = self.arena.or_(left, self.conj())
        return left

    def conj(self) -> int:
        left = self.lit()
        while self.peek()[1] == "and":
            self.next()
            left = self.arena.and_(left, self.lit())
        return left

    def lit(self) -> int:
        kind, word, _ = self.peek()
        if word == "not":
            self.next()
            return self.arena.not_(self.lit())
        if word == "true":
            self.next()
            return self.arena.true()
        if kind != "(":
            return self.atom()
        # a "(" opens an atom's arithmetic group when what follows its ")"
        # can follow one in an atom, and a formula group otherwise
        close = self.closing.get(self.pos)
        if close is not None and self.tokens[close + 1][0] in _AFTER_GROUP:
            start = self.pos
            try:
                return self.atom()
            except FormulaSyntaxError:
                # the text is malformed either way; report what reading
                # the group as a formula finds
                self.pos = start
        self.next()
        fid = self.formula()
        self.expect(")")
        return fid

    def atom(self) -> int:
        expr = self.expr()
        op = self.peek()[0]
        if op not in _COMPARISONS:
            self.fail(f"expected a comparison, found {self.peek()[1] or 'end of input'!r}")
        self.next()
        fid = (self.arena.eq if op == "=" else self.arena.geq)(expr, self.signed_number())
        return self.arena.not_(fid) if op == "<" else fid

    def signed_number(self) -> int:
        negative = self.peek()[0] == "-"
        if negative:
            self.next()
        return self.literal(self.expect("number"), negative)

    def expr(self) -> int:
        left = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            right = self.term()
            if op == "-":
                right = self.arena.scale(-self.spec.one, right)
            left = self.arena.add(left, right)
        return left

    def term(self) -> int:
        negative = self.peek()[0] == "-"
        if negative:
            self.next()
        if self.peek()[0] == "number":
            payload = self.literal(self.next(), negative)
            if self.peek()[0] != "*":
                return self.arena.const(payload)
            self.next()
            return self.arena.scale(payload, self.factor())
        return self.arena.scale(-self.spec.one, self.factor()) if negative else self.factor()

    def factor(self) -> int:
        kind, name, _ = self.peek()
        if kind == "number":
            return self.arena.const(self.literal(self.next()))
        if kind == "(":
            self.next()
            eid = self.expr()
            self.expect(")")
            return eid
        if name in ACTIVATIONS or name == "alpha" or name in _AGG_NAMES:
            self.next()
            weights = None
            if name == "wagg":
                self.expect("[")
                weights = [self.signed_number()]
                while self.peek()[0] == ",":
                    self.next()
                    weights.append(self.signed_number())
                self.expect("]")
                weights = tuple(weights)
            self.expect("(")
            child = self.expr()
            self.expect(")")
            if name in _AGG_NAMES:
                return self.arena.agg(_AGG_NAMES[name], child, weights)
            return self.arena.act(self.default_activation if name == "alpha" else name, child)
        if kind != "ident":
            self.fail(f"expected an expression, found {name or 'end of input'!r}")
        if name in _KEYWORDS:
            self.fail(f"keyword {name!r} cannot be used as a feature")
        self.next()
        return self.arena.feature(name)


def parse(text: str, spec: ArithmeticSpec, default_activation: str = "relu") -> Formula:
    """Parse formula text into a hash-consed DAG.

    Text nested past the interpreter's recursion limit is a
    FormulaSyntaxError, "formula nested too deeply".
    """
    parser = _Parser(text, spec, default_activation)
    try:
        root = parser.parse()
    except RecursionError:
        # the recursive descent ran out of interpreter stack
        raise _error("formula nested too deeply", text, parser.peek()[2]) from None
    return Formula(parser.arena, root)


def to_text(f: Formula) -> str:
    """Canonical text; parsing it back yields a structurally identical DAG
    when the text is within the parser's nesting limit (300 nested ``relu(``
    parse, 400 do not; see :func:`parse`).

    The printer works from an explicit stack of pending items, so nesting
    depth is not bounded by the interpreter's recursion limit.  An item is
    text to emit, an expression id, or a (formula id, level) pair, where the
    level (0 disjunction, 1 conjunction, 2 literal) says how tightly the
    context binds.  Expanding a node emits its leading text at once and
    pushes the rest in reverse order.
    """
    arena = f.arena
    expr, formula, fmt = arena.expr, arena.formula, arena.spec.format_payload
    out: list[str] = []
    emit = out.append
    stack: list = [(f.root, 0)]
    pop = stack.pop
    while stack:
        item = pop()
        if type(item) is int:
            node = expr(item)
            tag = node[0]
            if tag == "const":
                emit(fmt(node[1]))
            elif tag == "feat":
                emit(node[1])
            elif tag == "act":
                emit(f"{node[1]}(")
                stack += (")", node[2])
            elif tag == "agg":
                weights = "" if node[3] is None else f"[{','.join(fmt(w) for w in node[3])}]"
                emit(f"{_AGG_WORDS[node[1]]}{weights}(")
                stack += (")", node[2])
            elif tag == "scale":
                emit(f"{fmt(node[1])}*")
                child = expr(node[2])
                if child[0] in ("sum", "scale") or (child[0] == "const" and child[1] < 0):
                    emit("(")
                    stack += (")", node[2])
                else:
                    stack.append(node[2])
            elif expr(node[2])[0] == "sum":  # sum: a sum on the right is parenthesized
                stack += (")", node[2], " + (", node[1])
            else:
                stack += (node[2], " + ", node[1])
        elif type(item) is str:
            emit(item)
        else:
            fid, level = item
            node = formula(fid)
            tag = node[0]
            mine = 2 if tag in ("geq", "eq", "not") else 1 if tag == "and" else 0
            if mine < level:
                emit("(")
                stack.append(")")
            if tag == "geq" or tag == "eq":
                stack += (f" {'>=' if tag == 'geq' else '='} {fmt(node[2])}", node[1])
            elif tag == "not":
                emit("not ")
                stack.append((node[1], 2))
            elif tag == "and":
                stack += ((node[2], 2), " and ", (node[1], 1))
            else:
                stack += ((node[2], 1), " or ", (node[1], 0))
    return "".join(out)
