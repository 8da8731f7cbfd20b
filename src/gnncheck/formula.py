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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .arith import ACTIVATIONS, ArithmeticSpec
from .errors import FormulaSyntaxError, UsageError

AGG_KINDS = ("sum", "mean", "max", "weighted")


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

    def true(self, feature_name: str = "x1") -> int:
        """The tautology, spelled x1 - x1 >= 0."""
        x = self.feature(feature_name)
        return self.geq(self.add(x, self.scale(-self.spec.one, x)), 0)

    # -- traversal -----------------------------------------------------------

    def reachable(self, fid: int) -> tuple[set[int], set[int]]:
        """(formula ids, expression ids) reachable from a formula root."""
        fids: set[int] = set()
        eids: set[int] = set()
        stack = [fid]
        while stack:
            f = stack.pop()
            if f in fids:
                continue
            fids.add(f)
            node = self._formulas[f]
            if node[0] in ("geq", "eq"):
                self._collect_exprs(node[1], eids)
            elif node[0] == "not":
                stack.append(node[1])
            else:
                stack.append(node[1])
                stack.append(node[2])
        return fids, eids

    def _collect_exprs(self, eid: int, seen: set[int]) -> None:
        stack = [eid]
        while stack:
            e = stack.pop()
            if e in seen:
                continue
            seen.add(e)
            node = self._exprs[e]
            tag = node[0]
            if tag in ("act", "scale"):
                stack.append(node[2])
            elif tag == "agg":
                stack.append(node[2])
            elif tag == "sum":
                stack.append(node[1])
                stack.append(node[2])

    def dag_size(self, fid: int) -> int:
        fids, eids = self.reachable(fid)
        return len(fids) + len(eids)


@dataclass
class Formula:
    """A formula root in an arena, with its spec and declared feature set."""

    arena: Arena
    root: int
    features: tuple[str, ...] = field(default=())

    def __post_init__(self):
        found = features_of(self)
        if not self.features:
            self.features = found
        elif not set(found) <= set(self.features):
            raise UsageError(f"undeclared features {set(found) - set(self.features)}")

    @property
    def spec(self) -> ArithmeticSpec:
        return self.arena.spec


def features_of(f: Formula | tuple[Arena, int]) -> tuple[str, ...]:
    """Sorted names of all features reachable from the root."""
    arena, root = (f.arena, f.root) if isinstance(f, Formula) else f
    _, eids = arena.reachable(root)
    names = {arena.expr(e)[1] for e in eids if arena.expr(e)[0] == "feat"}
    return tuple(sorted(names))


def agg_depth(f: Formula) -> int:
    """Maximum nesting of aggregation operators."""
    arena = f.arena
    memo: dict[int, int] = {}

    def depth(eid: int) -> int:
        if eid in memo:
            return memo[eid]
        node = arena.expr(eid)
        tag = node[0]
        if tag in ("const", "feat"):
            d = 0
        elif tag in ("act", "scale"):
            d = depth(node[2])
        elif tag == "agg":
            d = 1 + depth(node[2])
        else:
            d = max(depth(node[1]), depth(node[2]))
        memo[eid] = d
        return d

    fids, _ = arena.reachable(f.root)
    best = 0
    for fid in fids:
        node = arena.formula(fid)
        if node[0] in ("geq", "eq"):
            best = max(best, depth(node[1]))
    return best


def rewrite_truncrelu(f: Formula) -> Formula:
    """Replace each truncrelu node by its plain-ReLU encoding.

    truncrelu(E) becomes relu(relu(E) + (-1)*relu(E + (-1)*1)); sharing is
    preserved because the rebuild goes through the hash-consing arena.
    """
    arena = f.arena
    one = arena.spec.one
    ememo: dict[int, int] = {}

    def rw_expr(eid: int) -> int:
        if eid in ememo:
            return ememo[eid]
        node = arena.expr(eid)
        tag = node[0]
        if tag in ("const", "feat"):
            out = eid
        elif tag == "act":
            child = rw_expr(node[2])
            if node[1] == "truncrelu":
                minus_one = arena.scale(-one, arena.const(one))
                inner = arena.act("relu", arena.add(child, minus_one))
                out = arena.act("relu", arena.add(arena.act("relu", child), arena.scale(-one, inner)))
            else:
                out = arena.act(node[1], child)
        elif tag == "scale":
            out = arena.scale(node[1], rw_expr(node[2]))
        elif tag == "agg":
            out = arena.agg(node[1], rw_expr(node[2]), node[3])
        else:
            out = arena.add(rw_expr(node[1]), rw_expr(node[2]))
        ememo[eid] = out
        return out

    fmemo: dict[int, int] = {}

    def rw_formula(fid: int) -> int:
        if fid in fmemo:
            return fmemo[fid]
        node = arena.formula(fid)
        tag = node[0]
        if tag in ("geq", "eq"):
            out = arena._intern_formula((tag, rw_expr(node[1]), node[2]))
        elif tag == "not":
            out = arena.not_(rw_formula(node[1]))
        elif tag == "and":
            out = arena.and_(rw_formula(node[1]), rw_formula(node[2]))
        else:
            out = arena.or_(rw_formula(node[1]), rw_formula(node[2]))
        fmemo[fid] = out
        return out

    return Formula(arena, rw_formula(f.root), f.features)


def desugar_eq(f: Formula) -> Formula:
    """Expand each eq atom into (e >= k) and (-1*e + k >= 0)."""
    arena = f.arena
    memo: dict[int, int] = {}

    def rw(fid: int) -> int:
        if fid in memo:
            return memo[fid]
        node = arena.formula(fid)
        tag = node[0]
        if tag == "eq":
            e, k = node[1], node[2]
            flipped = arena.geq(arena.add(arena.scale(-arena.spec.one, e), arena.const(k)), 0)
            out = arena.and_(arena.geq(e, k), flipped)
        elif tag == "geq":
            out = fid
        elif tag == "not":
            out = arena.not_(rw(node[1]))
        elif tag == "and":
            out = arena.and_(rw(node[1]), rw(node[2]))
        else:
            out = arena.or_(rw(node[1]), rw(node[2]))
        memo[fid] = out
        return out

    return Formula(arena, rw(f.root), f.features)


def structural_expr_key(arena: Arena, eid: int):
    """Arena-independent structural form of an expression, for comparisons."""
    node = arena.expr(eid)
    tag = node[0]
    if tag in ("const", "feat"):
        return node
    if tag in ("act", "scale"):
        return (tag, node[1], structural_expr_key(arena, node[2]))
    if tag == "agg":
        return (tag, node[1], structural_expr_key(arena, node[2]), node[3])
    return (tag, structural_expr_key(arena, node[1]), structural_expr_key(arena, node[2]))


def structural_key(arena: Arena, fid: int):
    """Arena-independent structural form of a formula."""
    node = arena.formula(fid)
    tag = node[0]
    if tag in ("geq", "eq"):
        return (tag, structural_expr_key(arena, node[1]), node[2])
    if tag == "not":
        return (tag, structural_key(arena, node[1]))
    return (tag, structural_key(arena, node[1]), structural_key(arena, node[2]))


def import_formula(dst: Arena, src: Arena, fid: int) -> int:
    """Copy a formula DAG between arenas, re-sharing through the target's consing."""
    if dst.spec != src.spec:
        raise UsageError("cannot import between arenas with different specs")
    ememo: dict[int, int] = {}

    def imp_expr(eid: int) -> int:
        if eid in ememo:
            return ememo[eid]
        node = src.expr(eid)
        tag = node[0]
        if tag in ("const", "feat"):
            out = dst._intern_expr(node)
        elif tag in ("act", "scale"):
            out = dst._intern_expr((tag, node[1], imp_expr(node[2])))
        elif tag == "agg":
            out = dst._intern_expr((tag, node[1], imp_expr(node[2]), node[3]))
        else:
            out = dst._intern_expr((tag, imp_expr(node[1]), imp_expr(node[2])))
        ememo[eid] = out
        return out

    fmemo: dict[int, int] = {}

    def imp_formula(f: int) -> int:
        if f in fmemo:
            return fmemo[f]
        node = src.formula(f)
        tag = node[0]
        if tag in ("geq", "eq"):
            out = dst._intern_formula((tag, imp_expr(node[1]), node[2]))
        elif tag == "not":
            out = dst._intern_formula((tag, imp_formula(node[1])))
        else:
            out = dst._intern_formula((tag, imp_formula(node[1]), imp_formula(node[2])))
        fmemo[f] = out
        return out

    return imp_formula(fid)


# -- concrete syntax ----------------------------------------------------------

_AGG_NAMES = {"agg": "sum", "mean": "mean", "maxagg": "max"}
_KEYWORDS = {"and", "or", "not", "true", "agg", "mean", "maxagg", "wagg", "alpha", "relu", "truncrelu", "id"}


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        start_col = col
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == "." and j + 1 < n and text[j + 1].isdigit():
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            tokens.append(_Token("number", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if text.startswith(">=", i):
            tokens.append(_Token(">=", ">=", line, start_col))
            i += 2
            col += 2
            continue
        if ch in "()*+-=<,[]":
            tokens.append(_Token(ch, ch, line, start_col))
            i += 1
            col += 1
            continue
        raise FormulaSyntaxError(f"unexpected character {ch!r}", line, start_col)
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str, spec: ArithmeticSpec, default_activation: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.arena = Arena(spec)
        self.spec = spec
        self.default_activation = default_activation

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise FormulaSyntaxError(f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok.line, tok.col)
        return self.next()

    def fail(self, message: str):
        tok = self.peek()
        raise FormulaSyntaxError(message, tok.line, tok.col)

    def literal(self, tok: _Token, negative: bool = False) -> int:
        text = ("-" if negative else "") + tok.text
        try:
            return self.spec.parse_literal(text)
        except Exception as exc:
            raise FormulaSyntaxError(str(exc), tok.line, tok.col) from None

    def parse(self) -> int:
        fid = self.formula()
        tok = self.peek()
        if tok.kind != "eof":
            self.fail(f"trailing input starting at {tok.text!r}")
        return fid

    def formula(self) -> int:
        left = self.conj()
        while self.peek().kind == "ident" and self.peek().text == "or":
            self.next()
            left = self.arena.or_(left, self.conj())
        return left

    def conj(self) -> int:
        left = self.lit()
        while self.peek().kind == "ident" and self.peek().text == "and":
            self.next()
            left = self.arena.and_(left, self.lit())
        return left

    def lit(self) -> int:
        tok = self.peek()
        if tok.kind == "ident" and tok.text == "not":
            self.next()
            return self.arena.not_(self.lit())
        if tok.kind == "ident" and tok.text == "true":
            self.next()
            return self.arena.true()
        if tok.kind == "(":
            # A "(" may open an arithmetic group of an atom or a nested
            # formula; try the atom reading first and rewind on failure.
            saved = self.pos
            try:
                return self.atom()
            except FormulaSyntaxError:
                self.pos = saved
            self.next()
            fid = self.formula()
            self.expect(")")
            return fid
        return self.atom()

    def atom(self) -> int:
        expr = self.expr()
        tok = self.peek()
        if tok.kind == ">=":
            self.next()
            return self.arena.geq(expr, self.signed_number())
        if tok.kind == "=":
            self.next()
            return self.arena.eq(expr, self.signed_number())
        if tok.kind == "<":
            self.next()
            return self.arena.not_(self.arena.geq(expr, self.signed_number()))
        self.fail(f"expected a comparison, found {tok.text or 'end of input'!r}")

    def signed_number(self) -> int:
        negative = False
        if self.peek().kind == "-":
            self.next()
            negative = True
        return self.literal(self.expect("number"), negative)

    def expr(self) -> int:
        left = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            right = self.term()
            if op == "-":
                right = self.arena.scale(-self.spec.one, right)
            left = self.arena.add(left, right)
        return left

    def term(self) -> int:
        tok = self.peek()
        if tok.kind == "-":
            self.next()
            if self.peek().kind == "number":
                payload = self.literal(self.next(), negative=True)
                if self.peek().kind == "*":
                    self.next()
                    return self.arena.scale(payload, self.factor())
                return self.arena.const(payload)
            return self.arena.scale(-self.spec.one, self.factor())
        if tok.kind == "number":
            payload = self.literal(self.next())
            if self.peek().kind == "*":
                self.next()
                return self.arena.scale(payload, self.factor())
            return self.arena.const(payload)
        return self.factor()

    def factor(self) -> int:
        tok = self.peek()
        if tok.kind == "number":
            return self.arena.const(self.literal(self.next()))
        if tok.kind == "(":
            self.next()
            eid = self.expr()
            self.expect(")")
            return eid
        if tok.kind == "ident":
            name = tok.text
            if name in ("relu", "truncrelu", "id", "alpha"):
                self.next()
                self.expect("(")
                child = self.expr()
                self.expect(")")
                act = self.default_activation if name == "alpha" else name
                return self.arena.act(act, child)
            if name in _AGG_NAMES:
                self.next()
                self.expect("(")
                child = self.expr()
                self.expect(")")
                return self.arena.agg(_AGG_NAMES[name], child)
            if name == "wagg":
                self.next()
                self.expect("[")
                weights = [self.signed_number()]
                while self.peek().kind == ",":
                    self.next()
                    weights.append(self.signed_number())
                self.expect("]")
                self.expect("(")
                child = self.expr()
                self.expect(")")
                return self.arena.agg("weighted", child, tuple(weights))
            if name in _KEYWORDS:
                self.fail(f"keyword {name!r} cannot be used as a feature")
            self.next()
            return self.arena.feature(name)
        self.fail(f"expected an expression, found {tok.text or 'end of input'!r}")


def parse(text: str, spec: ArithmeticSpec, default_activation: str = "relu") -> Formula:
    """Parse formula text into a hash-consed DAG."""
    parser = _Parser(text, spec, default_activation)
    try:
        root = parser.parse()
    except RecursionError:
        # the recursive descent ran out of interpreter stack
        tok = parser.peek()
        raise FormulaSyntaxError("formula nested too deeply", tok.line, tok.col) from None
    return Formula(parser.arena, root)


_AGG_TEXT = {"sum": "agg(", "mean": "mean(", "max": "maxagg("}


def to_text(f: Formula) -> str:
    """Canonical text; parsing it back yields a structurally identical DAG.

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
                emit(_AGG_TEXT.get(node[1]) or f"wagg[{','.join(fmt(w) for w in node[3])}](")
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
