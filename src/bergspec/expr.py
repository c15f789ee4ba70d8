"""Analytic expression trees with forward-mode derivative propagation.

A Jet carries the value of an analytic function together with its
derivatives up to a requested order (0 to 2) at a point, so one evaluation
yields h, h', h'' simultaneously, or only the value when that is all the
caller reads.  Every slot is computed by the same truncated Taylor
formula at every order, so its value does not depend on the order asked for.
One arithmetic, numpy's, serves every point: a tape evaluates a point set
as a flat complex array (a scalar as one element), and jets combine only
with jets, so a point's jet has the same bits however it arrives.  log,
sqrt and pow take np.log's principal branch; log is computed in real
arithmetic as log|f| + i·atan2(Im f, Re f), and pow(f, w) as exp(w·log f).

Expressions are DAGs: the built-in weights reuse the logs inside the
conformal map's own tree.  There is no derivative node; a caller that needs
h' reads it from the jet of h.  `log_of(e)` folds log e at compile time
(exp(x) -> x, pow(f, w) -> log(f)*w, products and quotients -> sums and
differences), so a weight's logarithm reuses the logs already in its tree.
A `Tape` compiles the DAG under one or more roots into a flat post-order
schedule in which each node, and each set of structurally equal nodes (as
an expression model's v_expr repeats the logs of its h_expr), appears once,
at the highest order any of its readers wants; a lower-order reader takes a
truncated copy, which is bitwise the lower-order computation.  Evaluating
at a point is one straight loop over the schedule, so a shared subtree is
computed once per point however many roots read it.  Each intermediate
slot is freed after its last reader, from a liveness list made at compile
time, so a call holds only the live intermediates.  Constants are scalar
jets, broadcast to the shape of the points only in the returned slots.
"""

from __future__ import annotations

import cmath
import functools
import operator

import numpy as np

from .errors import EvaluationError, ExprSyntaxError

__all__ = ["Jet", "Tape", "AnalyticExpr", "parse_expr", "const", "var", "apply_fn",
           "log_of"]


class Jet:
    """Value plus the first `order` derivatives of an analytic function at a
    point; the slots above `order` are None.  Operations take jets only and
    compute to the lower order of their operands."""

    __slots__ = ("f", "d1", "d2", "order")

    def __init__(self, f, d1=0.0, d2=0.0, order=2):
        self.f = f
        self.d1 = d1 if order > 0 else None
        self.d2 = d2 if order > 1 else None
        self.order = order

    @staticmethod
    def variable(z, order):
        return Jet(z, np.ones_like(z) if order > 0 else None,
                   np.zeros_like(z) if order > 1 else None, order)

    def truncated(self, order):
        """The same jet without the slots above `order`."""
        return Jet(self.f, self.d1, self.d2, order)

    def __add__(self, o):
        n = min(self.order, o.order)
        return Jet(self.f + o.f,
                   self.d1 + o.d1 if n > 0 else None,
                   self.d2 + o.d2 if n > 1 else None, n)

    def __neg__(self):
        n = self.order
        return Jet(-self.f, -self.d1 if n > 0 else None,
                   -self.d2 if n > 1 else None, n)

    def __sub__(self, o):
        # IEEE defines a - b as a + (-b), signed zeros included, so this is
        # bitwise the sum with a negated operand, without the negation pass
        n = min(self.order, o.order)
        return Jet(self.f - o.f,
                   self.d1 - o.d1 if n > 0 else None,
                   self.d2 - o.d2 if n > 1 else None, n)

    def __mul__(self, o):
        f, g = self, o
        n = min(f.order, g.order)
        return Jet(f.f * g.f,
                   f.d1 * g.f + f.f * g.d1 if n > 0 else None,
                   f.d2 * g.f + 2 * f.d1 * g.d1 + f.f * g.d2 if n > 1 else None, n)

    def __truediv__(self, o):
        f, g = self, o
        n = min(f.order, g.order)
        v0 = f.f / g.f
        v1 = (f.d1 - v0 * g.d1) / g.f if n > 0 else None
        v2 = (f.d2 - 2 * v1 * g.d1 - v0 * g.d2) / g.f if n > 1 else None
        return Jet(v0, v1, v2, n)

    def ipow(self, n: int):
        """Integer power by repeated squaring (branch free)."""
        if n == 0:
            return Jet(np.ones_like(self.f), order=self.order)
        if n < 0:
            return self.ipow(0) / self.ipow(-n)
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            base = base * base
            n >>= 1
        return result

    def exp(self):
        e = np.exp(self.f)
        f1, f2, n = self.d1, self.d2, self.order
        return Jet(e, e * f1 if n > 0 else None,
                   e * (f1 * f1 + f2) if n > 1 else None, n)

    def log(self):
        """Principal log in real arithmetic, log|f| + i·atan2(Im f, Re f):
        numpy's complex log costs several times the real log and atan2.
        The cut is np.log's, signed zeros included: -1 - 0i maps to -πi and
        -1 + 0i to +πi.  |f| = 0 exactly when f = 0, so the modulus also
        serves the branch-point check."""
        f0, f1, f2, n = self.f, self.d1, self.d2, self.order
        a = np.abs(f0)
        if not a.all():
            raise EvaluationError("log/pow evaluated at a branch point (argument 0)")
        out = np.empty(np.shape(f0), dtype=complex)
        np.log(a, out=out.real)
        if a.sum() >= 2.0 ** 1023:
            # at a finite f with |f| >= 2^1023, |f| or the |Re f| + |Im f| of
            # numpy's complex division can overflow: halve f, f' and f''
            # there (exact), so log|f| = log|f/2| + log 2 and f'/f, f''/f hold
            two = np.where(np.isfinite(f0) & (a >= 2.0 ** 1023), 2.0, 1.0)
            f0, f1, f2 = (x if x is None else x / two for x in (f0, f1, f2))
            out.real[...] = np.log(np.abs(f0)) + np.log(two)
        np.arctan2(f0.imag, f0.real, out=out.imag)
        q1 = f1 / f0 if n > 0 else None
        return Jet(out[()], q1, f2 / f0 - q1 * q1 if n > 1 else None, n)

    def sqrt(self):
        if not np.all(self.f):
            raise EvaluationError("sqrt evaluated at a branch point (argument 0)")
        n = self.order
        s0 = np.sqrt(self.f)
        s1 = self.d1 / (2 * s0) if n > 0 else None
        s2 = (self.d2 - 2 * s1 * s1) / (2 * s0) if n > 1 else None
        return Jet(s0, s1, s2, n)

    def pow(self, w):
        """Principal-branch power exp(w log f) with the exponent w a jet, so
        an exponent that depends on z carries its derivatives."""
        return (self.log() * w).exp()


# --- expression nodes -------------------------------------------------------
#
# Nodes only describe the DAG; `Tape` evaluates it.  A node computed at order
# k reads its children at order k and maps their jets to its own with
# `step(k)`.

class _Node:
    children = ()


class _Const(_Node):
    def __init__(self, value):
        self.value = complex(value)

    def __repr__(self):
        return f"{self.value}"


class _Var(_Node):
    def __repr__(self):
        return "z"


_Z = _Var()  # every tree shares one variable node, so a tape computes it once

_BIN_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
            "/": operator.truediv}


class _Bin(_Node):
    def __init__(self, op, left, right):
        self.op = op
        self.children = (left, right)

    def step(self, k):
        return _BIN_OPS[self.op]

    def __repr__(self):
        left, right = self.children
        return f"({left} {self.op} {right})"


class _Neg(_Node):
    def __init__(self, child):
        self.children = (child,)

    def step(self, k):
        return operator.neg

    def __repr__(self):
        return f"(-{self.children[0]})"


class _IPow(_Node):
    def __init__(self, base, n):
        self.children = (base,)
        self.n = n

    def step(self, k):
        return functools.partial(Jet.ipow, n=self.n)

    def __repr__(self):
        return f"({self.children[0]}^{self.n})"


class _Fn(_Node):
    def __init__(self, name, args):
        self.name = name
        self.children = tuple(args)

    def step(self, k):
        return getattr(Jet, self.name)

    def __repr__(self):
        return f"{self.name}({', '.join(map(repr, self.children))})"


def _structure(node, children):
    """What a node computes, given the indices of its (already merged)
    children: nodes with equal keys give bitwise equal jets, so a tape
    computes them once.  Constants compare by repr, which tells -0.0 from
    0.0."""
    if isinstance(node, _Const):
        return _Const, repr(node.value)
    return (type(node), getattr(node, "op", None), getattr(node, "name", None),
            getattr(node, "n", None), children)


def _shaped(x, shape):
    """Slot x shaped like the points; a constant's scalar slot is broadcast."""
    if getattr(x, "ndim", 0):
        return x if x.shape == shape else x.reshape(shape)
    return None if x is None else np.full(shape, x, dtype=complex)


class Tape:
    """Flat post-order schedule of the expression DAG under some roots.

    Every node appears once, and so do nodes that compute the same thing
    (same class, op, name or exponent, equal constants and merged
    children), at the highest order any reader wants; a reader
    that wants fewer orders takes a truncated copy, whose slots are bitwise
    those of the lower-order computation.  Constants are fixed jets built at
    compile time.  A call runs one straight loop over the schedule, freeing
    each computed slot that is not returned after the op that reads it last,
    and returns one jet per root at the order asked for, every slot an
    array shaped like z (0-d for a scalar z).
    """

    def __init__(self, exprs, orders):
        if max(orders) > 2:
            raise ValueError("jets carry derivatives up to order 2")
        roots = [e._root for e in exprs]
        post, pos = [], {}   # nodes in post-order; id -> index while compiling
        first = {}           # structural key -> index of its first node

        def visit(node):
            if id(node) not in pos:
                for c in node.children:
                    visit(c)
                key = _structure(node, tuple(pos[id(c)] for c in node.children))
                if key not in first:
                    first[key] = len(post)
                    post.append(node)
                pos[id(node)] = first[key]

        for r in roots:
            visit(r)
        need = [0] * len(post)
        for r, k in zip(roots, orders):
            need[pos[id(r)]] = max(need[pos[id(r)]], k)
        for i in reversed(range(len(post))):   # every reader before its inputs
            for c in post[i].children:
                need[pos[id(c)]] = max(need[pos[id(c)]], need[i])

        self._static = [None]   # slot 0: the variable; fixed jets elsewhere
        # (output slot, step, input slot, second input or None), and below
        # the slots freed after the op
        self._ops = []
        self._var_order = need[pos[id(_Z)]] if id(_Z) in pos else 0
        slot = {}               # (node index, order) -> slot

        def new_slot(jet=None):
            self._static.append(jet)
            return len(self._static) - 1

        def read(i, k):
            if (i, k) not in slot:
                if isinstance(post[i], _Const):
                    slot[i, k] = new_slot(Jet(post[i].value, 0j, 0j, k))
                else:
                    s = new_slot()
                    self._ops.append((s, functools.partial(Jet.truncated, order=k),
                                      slot[i, need[i]], None))
                    slot[i, k] = s
            return slot[i, k]

        for i, node in enumerate(post):
            if node is _Z:
                slot[i, need[i]] = 0
            elif not isinstance(node, _Const):
                ins = [read(pos[id(c)], need[i]) for c in node.children]
                ins.append(None)   # a unary step has no second input
                s = new_slot()
                self._ops.append((s, node.step(need[i]), ins[0], ins[1]))
                slot[i, need[i]] = s
        self._out = [read(pos[id(r)], k) for r, k in zip(roots, orders)]

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
        vals[0] = Jet.variable(z.ravel(), self._var_order)
        for out, step, a, b, dead in self._ops:
            vals[out] = step(vals[a]) if b is None else step(vals[a], vals[b])
            for s in dead:
                vals[s] = None
        return [Jet(*(_shaped(x, z.shape) for x in (j.f, j.d1, j.d2)), j.order)
                for j in (vals[i] for i in self._out)]


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
            tape = self._tapes[order] = Tape((self,), (order,))
        return tape(z)[0]

    def __call__(self, z):
        return self.jet(z, 0).f

    def __repr__(self):
        return f"AnalyticExpr({self._text or self._root!r})"


# --- programmatic constructors (used for built-in models) -------------------

def const(c) -> AnalyticExpr:
    return AnalyticExpr(_Const(c))


def var() -> AnalyticExpr:
    return AnalyticExpr(_Z)


def _wrap(x):
    if isinstance(x, AnalyticExpr):
        return x._root
    return _Const(x)


def combine(op, a, b) -> AnalyticExpr:
    return AnalyticExpr(_Bin(op, _wrap(a), _wrap(b)))


def apply_fn(name, *args) -> AnalyticExpr:
    return AnalyticExpr(_Fn(name, [_wrap(a) for a in args]))


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
    if isinstance(node, _Fn) and node.name == "exp":
        return node.children[0]
    if isinstance(node, _Fn) and node.name == "pow":
        base, w = node.children
        return _Bin("*", _Fn("log", [base]), w)
    if isinstance(node, _Bin) and node.op in "*/":
        a, b = (_log_node(c) for c in node.children)
        return _Bin("+" if node.op == "*" else "-", a, b)
    if isinstance(node, _Const) and node.value:
        return _Const(cmath.log(node.value))
    return _Fn("log", [node])


def _add_ops():
    def mk(op):
        def f(self, other):
            return combine(op, self, other)

        def rf(self, other):
            return combine(op, other, self)

        return f, rf

    for op, name in (("+", "add"), ("-", "sub"), ("*", "mul"), ("/", "truediv")):
        f, rf = mk(op)
        setattr(AnalyticExpr, f"__{name}__", f)
        setattr(AnalyticExpr, f"__r{name}__", rf)
    AnalyticExpr.__neg__ = lambda self: AnalyticExpr(_Neg(self._root))


_add_ops()


# --- parser -----------------------------------------------------------------

_FUNCS = {"exp": 1, "log": 1, "sqrt": 1, "pow": 2}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

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
        return node

    def expr(self) -> _Node:
        node = self.term()
        while self.peek() and self.peek() in "+-":
            op = self.text[self.pos]
            self.pos += 1
            node = _Bin(op, node, self.term())
        return node

    def term(self) -> _Node:
        node = self.unary()
        while self.peek() and self.peek() in "*/":
            op = self.text[self.pos]
            self.pos += 1
            node = _Bin(op, node, self.unary())
        return node

    def unary(self) -> _Node:
        ch = self.peek()
        if ch == "-":
            self.pos += 1
            return _Neg(self.unary())
        if ch == "+":
            self.pos += 1
            return self.unary()
        return self.power()

    def power(self) -> _Node:
        base = self.atom()
        if self.peek() == "^":
            self.pos += 1
            neg = False
            if self.peek() == "-":
                neg = True
                self.pos += 1
            n = self.integer()
            return _IPow(base, -n if neg else n)
        return base

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
            return _Const(np.pi)
        if name in _FUNCS:
            self.expect("(")
            args = [self.expr()]
            for _ in range(_FUNCS[name] - 1):
                self.expect(",")
                args.append(self.expr())
            self.expect(")")
            return _Fn(name, args)
        self.pos = start
        self.error(f"unknown identifier '{name}'")


def parse_expr(text: str) -> AnalyticExpr:
    """Parse an expression string over z into an evaluable tree."""
    return AnalyticExpr(_Parser(text).parse(), text=text)
