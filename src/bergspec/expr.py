"""Analytic expression trees with forward-mode derivative propagation.

A Jet carries the value of an analytic function at a point and, at order 1,
its first derivative, so one evaluation yields h and h' together, or only
the value when that is all the caller reads; d1 is None at order 0.  Each
slot is computed by the same formula at both orders, so its value does not
depend on the order.  One arithmetic, numpy's, serves every point: a tape
evaluates a point set as a flat complex array (a scalar as one element),
and jets combine only with jets, so a point's jet has the same bits however
it arrives.  log, sqrt and pow take np.log's principal branch; log is
computed in real arithmetic as log|f| + i·atan2(Im f, Re f), and pow(f, w)
as exp(w·log f).

Every expression is parsed from formula text by `parse_expr`, the built-in
models' too.  Parentheses, calls and signs nest at most _MAX_DEPTH = 100
deep, and so does the tree, where a chain of sums or products adds a level
per operator.  There is no derivative node; a caller that needs h' reads it
from the jet of h.  `log_of(e)` folds log e at compile time (exp(x) -> x,
pow(f, w) -> log(f)*w, products and quotients -> sums and differences), so
a weight's logarithm reuses the logs already in its tree.  A `Tape`
compiles the DAG under one or more roots into a flat post-order schedule in
which each node, and each set of structurally equal nodes, appears once: a
weight's text that repeats the logs of its map's text, as every built-in's
does, computes them once.
A tape has one truncation order, as forward-mode tapes do (Griewank and
Walther, Evaluating Derivatives, 2008): it builds its variable and its
constants at that order and computes and returns every node at it.
Evaluating at a point is one straight loop over the schedule, so a shared
subtree is computed once per point however many roots read it.  Each
intermediate slot is freed after its last reader, from a liveness list made
at compile time, so a call holds only the live intermediates.  Constants
are scalar jets, broadcast to the shape of the points only in the returned
slots.
"""

from __future__ import annotations

import cmath
import operator

from ._lazy import np
from .errors import EvaluationError, ExprSyntaxError

__all__ = ["Jet", "Tape", "AnalyticExpr", "parse_expr", "log_of"]


class Jet:
    """Value, and at order 1 the first derivative, of an analytic function
    at a point; at order 0 d1 is None.  Operations take jets of one order,
    as a tape builds its variable and its constants at its one order."""

    __slots__ = ("f", "d1")

    def __init__(self, f, d1=None):
        self.f = f
        self.d1 = d1

    def __add__(self, o):
        return Jet(self.f + o.f, None if self.d1 is None else self.d1 + o.d1)

    def __neg__(self):
        return Jet(-self.f, None if self.d1 is None else -self.d1)

    def __sub__(self, o):
        # IEEE defines a - b as a + (-b), signed zeros included, so this is
        # bitwise the sum with a negated operand, without the negation pass
        return Jet(self.f - o.f, None if self.d1 is None else self.d1 - o.d1)

    def __mul__(self, o):
        f, g = self, o
        return Jet(f.f * g.f, None if f.d1 is None else f.d1 * g.f + f.f * g.d1)

    def __truediv__(self, o):
        f, g = self, o
        v0 = f.f / g.f
        return Jet(v0, None if f.d1 is None else (f.d1 - v0 * g.d1) / g.f)

    def exp(self):
        e = np.exp(self.f)
        return Jet(e, None if self.d1 is None else e * self.d1)

    def log(self):
        """Principal log in real arithmetic, log|f| + i·atan2(Im f, Re f):
        numpy's complex log costs several times the real log and atan2.
        The cut is np.log's, signed zeros included: -1 - 0i maps to -πi and
        -1 + 0i to +πi.  |f| = 0 exactly when f = 0, so the modulus also
        serves the branch-point check."""
        f0, f1 = self.f, self.d1
        a = np.abs(f0)
        if not a.all():
            raise EvaluationError("log/pow evaluated at a branch point (argument 0)")
        out = np.empty(np.shape(f0), dtype=complex)
        np.log(a, out=out.real)
        if a.sum() >= 2.0 ** 1023:
            # at a finite f with |f| >= 2^1023, |f| or the |Re f| + |Im f| of
            # numpy's complex division can overflow: halve f and f' there
            # (exact), so log|f| = log|f/2| + log 2 and f'/f hold
            two = np.where(np.isfinite(f0) & (a >= 2.0 ** 1023), 2.0, 1.0)
            f0, f1 = (x if x is None else x / two for x in (f0, f1))
            out.real[...] = np.log(np.abs(f0)) + np.log(two)
        np.arctan2(f0.imag, f0.real, out=out.imag)
        return Jet(out[()], None if f1 is None else f1 / f0)

    def sqrt(self):
        if not np.all(self.f):
            raise EvaluationError("sqrt evaluated at a branch point (argument 0)")
        s0 = np.sqrt(self.f)
        return Jet(s0, None if self.d1 is None else self.d1 / (2 * s0))

    def pow(self, w):
        """Principal-branch power exp(w log f) with the exponent w a jet, so
        an exponent that depends on z carries its derivatives."""
        return (self.log() * w).exp()


# --- expression nodes -------------------------------------------------------
#
# Nodes only describe the DAG; `Tape` evaluates it.  A tape computes every
# node at its one order: the node reads its children at that order and maps
# their jets to its own with `step()`.  A node's depth is its longest path
# down to a leaf.

class _Node:
    name = None
    children = ()
    depth = 0


class _Const(_Node):
    def __init__(self, value):
        self.value = complex(value)


_Z = _Node()    # the variable z: one node, shared by every tree

_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul,
          "/": operator.truediv, "neg": operator.neg}


class _Op(_Node):
    """An operation named by its arithmetic symbol, "neg" or its function."""

    def __init__(self, name, *children):
        self.name = name
        self.children = children
        self.depth = 1 + max(c.depth for c in children)

    def step(self):
        # a function's Jet method is looked up as a tape compiles
        return _ARITH.get(self.name) or getattr(Jet, self.name)


def _structure(node, children):
    """What a node computes, given the indices of its (already merged)
    children: nodes with equal keys give bitwise equal jets, so a tape
    computes them once.  Constants compare by repr, which tells -0.0 from
    0.0."""
    if isinstance(node, _Const):
        return _Const, repr(node.value)
    return node.name, children


def _shaped(x, shape):
    """Slot x shaped like the points; a constant's scalar slot is broadcast."""
    if getattr(x, "ndim", 0):
        return x if x.shape == shape else x.reshape(shape)
    return None if x is None else np.full(shape, x, dtype=complex)


class Tape:
    """Flat post-order schedule of the expression DAG under some roots.

    Every node appears once, and so do nodes that compute the same thing
    (same name, equal constants and merged children).  Each is
    computed at the tape's one order, 0 or 1; a slot's value does not
    depend on that order, so a caller that reads a root only to a lower
    order reads the bits of that lower order's tape.  The variable and the
    constants are jets at that order, the constants built at compile time.
    A call runs one straight loop over the schedule, freeing each computed
    slot that is not returned after the op that reads it last, and returns
    one jet per root at the tape's order, every slot an array shaped like z
    (0-d for a scalar z).
    """

    def __init__(self, exprs, order):
        self._order = order
        if order > 1:
            raise ValueError("jets carry derivatives up to order 1")
        self._static = [None]   # slot 0: the variable; constant jets elsewhere
        # (output slot, step, input slot, second input or None), and below
        # the slots freed after the op
        self._ops = []
        slot, first = {}, {}    # node id -> slot; structural key -> slot

        def visit(node):
            if id(node) not in slot:
                for c in node.children:
                    visit(c)
                ins = tuple(slot[id(c)] for c in node.children)
                key = _structure(node, ins)
                if key not in first:
                    first[key] = 0 if node is _Z else len(self._static)
                    if isinstance(node, _Const):
                        self._static.append(Jet(node.value, 0j if order else None))
                    elif node is not _Z:
                        self._static.append(None)
                        # a unary step has no second input
                        self._ops.append((first[key], node.step(), *ins, None)[:4])
                slot[id(node)] = first[key]

        for e in exprs:
            visit(e._root)
        self._out = [slot[id(e._root)] for e in exprs]

        # liveness: a computed slot that is not returned is freed after the
        # op that reads it last (or writes it, if none reads it), so a call
        # holds only the live intermediates
        last = {0: 0} if self._ops else {}
        for j, (out, _, a, b) in enumerate(self._ops):
            last.update({out: j, a: j, b: j})
        dead = [[] for _ in self._ops]
        for s, j in last.items():
            if s is not None and self._static[s] is None and s not in self._out:
                dead[j].append(s)
        self._ops = [op + (tuple(d),) for op, d in zip(self._ops, dead)]

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        vals = self._static.copy()
        vals[0] = Jet(z.ravel(), np.ones(z.size, complex) if self._order else None)
        for out, step, a, b, dead in self._ops:
            vals[out] = step(vals[a]) if b is None else step(vals[a], vals[b])
            for s in dead:
                vals[s] = None
        return [Jet(_shaped(vals[i].f, z.shape), _shaped(vals[i].d1, z.shape))
                for i in self._out]


class AnalyticExpr:
    """Evaluable analytic expression on the unit disk."""

    def __init__(self, root: _Node, text: str | None = None):
        self._root = root
        self._text = text
        self._tapes = {}   # order -> Tape, compiled on first use

    def jet(self, z, order) -> Jet:
        """Jet at z carrying the derivatives up to `order`, every slot an
        array shaped like z (0-d for a scalar z)."""
        tape = self._tapes.get(order)
        if tape is None:
            tape = self._tapes[order] = Tape((self,), order)
        return tape(z)[0]

    def __call__(self, z):
        return self.jet(z, 0).f

    def __repr__(self):
        return f"AnalyticExpr({self._text!r})"


def log_of(e: AnalyticExpr) -> AnalyticExpr:
    """An expression l with exp(l) = e at every point, folded at compile
    time: exp(x) -> x, pow(f, w) -> log(f)*w (the product that pow
    exponentiates), a*b -> l(a) + l(b), a/b -> l(a) - l(b), a constant c ->
    log c, and any other node -> log(node).  So a weight built of exp and
    pow factors costs no exp, and its logs are those already in the tree.
    l is a logarithm on no fixed branch: it may jump by 2 pi i, so read it
    only through exp(... +- l) or l' = e'/e, which do not see the branch."""
    return AnalyticExpr(_log_node(e._root))


def _log_node(node):
    if node.name == "exp":
        return node.children[0]
    if node.name == "pow":
        base, w = node.children
        return _Op("*", _Op("log", base), w)
    if node.name in ("*", "/"):
        a, b = (_log_node(c) for c in node.children)
        return _Op("+" if node.name == "*" else "-", a, b)
    if isinstance(node, _Const) and node.value:
        return _Const(cmath.log(node.value))
    return _Op("log", node)


# --- parser -----------------------------------------------------------------

_FUNCS = {"exp": 1, "log": 1, "sqrt": 1, "pow": 2}
# how deep parentheses, calls and signs, and a tree, may nest: the parser
# takes some six frames a level, the walks over a tree one, of Python's 1,000
_MAX_DEPTH = 100


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def error(self, msg):
        raise ExprSyntaxError(msg, self.pos + 1)

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch):
        if self.peek() != ch:
            self.error(f"expected '{ch}'")
        self.pos += 1

    def parse(self) -> _Node:
        node = self.expr()
        if self.peek():
            self.error(f"unexpected character '{self.peek()}'")
        if node.depth > _MAX_DEPTH:
            self.error(f"expression nested deeper than {_MAX_DEPTH} levels")
        return node

    def expr(self) -> _Node:
        node = self.term()
        while (op := self.peek()) in ("+", "-"):
            self.pos += 1
            node = _Op(op, node, self.term())
        return node

    def term(self) -> _Node:
        node = self.unary()
        while (op := self.peek()) in ("*", "/"):
            self.pos += 1
            node = _Op(op, node, self.unary())
        return node

    def unary(self) -> _Node:
        if self.depth > _MAX_DEPTH:     # every nesting passes through here
            self.error(f"expression nested deeper than {_MAX_DEPTH} levels")
        self.depth += 1
        ch = self.peek()
        if ch in ("-", "+"):
            self.pos += 1
            node = self.unary()
            node = _Op("neg", node) if ch == "-" else node
        else:
            node = self.power()
        self.depth -= 1
        return node

    def power(self) -> _Node:
        """base^n as products by repeated squaring, branch free: 1/base^-n
        for n < 0 and the constant 1 for n = 0.  A tape computes each square
        once, as it does any repeated subtree."""
        base = self.atom()
        if self.peek() != "^":
            return base
        self.pos += 1
        neg = self.peek() == "-"
        if neg:
            self.pos += 1
        n = self.integer()
        node = None
        while n:
            if n & 1:
                node = base if node is None else _Op("*", node, base)
            n >>= 1
            base = _Op("*", base, base)
        node = _Const(1.0) if node is None else node
        return _Op("/", _Const(1.0), node) if neg else node

    def integer(self) -> int:
        start = self.pos
        self.peek()
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected an integer exponent ('^' takes integers; use pow() otherwise)")
        return int(self.text[start:self.pos])

    def atom(self) -> _Node:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            node = self.expr()
            self.expect(")")
            return node
        if ch.isdigit() or ch == ".":
            return self.number()
        if ch.isalpha():
            return self.identifier()
        self.error(f"unexpected character '{ch or '<end>'}'")

    def number(self) -> _Node:
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isdigit() or self.text[self.pos] in ".eE"):
            if self.text[self.pos] in "eE" and self.pos + 1 < len(self.text) and self.text[self.pos + 1] in "+-":
                self.pos += 1
            self.pos += 1
        try:
            value = float(self.text[start:self.pos])
        except ValueError:
            self.pos = start
            self.error("malformed number")
        if self.pos < len(self.text) and self.text[self.pos] == "i":
            self.pos += 1
            return _Const(value * 1j)
        return _Const(value)

    def identifier(self) -> _Node:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalnum():
            self.pos += 1
        name = self.text[start:self.pos]
        if name == "z":
            return _Z
        if name == "i":
            return _Const(1j)
        if name == "pi":
            return _Const(cmath.pi)
        if name in _FUNCS:
            self.expect("(")
            args = [self.expr()]
            for _ in range(_FUNCS[name] - 1):
                self.expect(",")
                args.append(self.expr())
            self.expect(")")
            return _Op(name, *args)
        self.pos = start
        self.error(f"unknown identifier '{name}'")


def parse_expr(text: str) -> AnalyticExpr:
    """Parse an expression string over z into an evaluable tree."""
    return AnalyticExpr(_Parser(text).parse(), text=text)
