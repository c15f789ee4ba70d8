"""Joint evaluation of h with the weight v or its logarithm l = log v: one
pass over a shared-subtree tape at one order gives bitwise the jets of
separate passes, and computes each shared node once."""

import numpy as np
import pytest

from bergspec.expr import Jet, Tape, parse_expr
from bergspec.scenario import eval_hl_jets, make_builtin, quasi_random_grid

SLOTS = ("f", "d1")
C, S, D = 0.4, 0.7, 0.3
TOP = len(SLOTS) - 1
# a reader of h to kh and of v to kv runs the one tape at the higher order,
# as the resolvent one-form reads h' and l from the order-1 tape.  Order
# TOP + 1 lies above the jets' top slot: joint and separate passes must both
# reject it, even when only one of the two roots asks for it
ORDER_PAIRS = [(kh, kv) for kh in range(TOP + 2) for kv in range(TOP + 2)]

BUILTINS = {name: make_builtin(name, 2.0, c=C, s=S, d=D)
            for name in ("strip_flow", "half_strip", "trident")}

# expression-model twins of the built-ins: same h and weight formula
TWINS = {}
for _name, (_h, _hprime, _dfac) in {
        "strip_twin": ("log(1+z) - log(1-z)", "2/(1-z^2)", "1+z"),
        "trident_twin": ("0.5*log(1+z^2) - log(1+z)", "z/(1+z^2) - 1/(1+z)",
                         "z - i")}.items():
    TWINS[_name] = (parse_expr(_h), parse_expr(
        f"exp({C}*({_h})) * pow({_hprime}, -{S}) * pow({_dfac}, {D})"))

POINTS = quasi_random_grid(200, 0.95)
SCALARS = [complex(z) for z in POINTS[::50]]


def _same(a, b):
    return np.array_equal(a, b) and np.shape(a) == np.shape(b)


def _check_joint(joint, h, v, kh, kv):
    top = max(kh, kv)
    if top > TOP:
        for z in [POINTS, SCALARS[0]]:
            with pytest.raises(ValueError):
                joint(z, top)
            for e, k in ((h, kh), (v, kv)):
                if k > TOP:
                    with pytest.raises(ValueError):
                        e.jet(z, k)
        return
    for z in [POINTS, *SCALARS]:
        hj, vj = joint(z, top)
        for j, ref, k in ((hj, h.jet(z, kh), kh), (vj, v.jet(z, kv), kv)):
            # every root comes back at the tape's order
            assert (j.d1 is None) == (top == 0), (kh, kv)
            for slot in SLOTS[:k + 1]:
                assert _same(getattr(j, slot), getattr(ref, slot)), (kh, kv, slot)


@pytest.mark.parametrize("kh,kv", ORDER_PAIRS)
@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_joint_pass_matches_separate_passes_builtin(name, kh, kv):
    s = BUILTINS[name]
    _check_joint(lambda z, k: eval_hl_jets(s, z, k), s._h, s._l, kh, kv)


@pytest.mark.parametrize("kh,kv", ORDER_PAIRS)
@pytest.mark.parametrize("name", sorted(TWINS))
def test_joint_pass_matches_separate_passes_twin(name, kh, kv):
    h, v = TWINS[name]
    _check_joint(lambda z, k: Tape((h, v), k)(z), h, v, kh, kv)


def test_shared_subtrees_are_evaluated_once(monkeypatch):
    calls = []
    log = Jet.log

    def counted(self):
        calls.append(self)
        return log(self)

    # tapes bind their steps when compiled, so patch before building
    monkeypatch.setattr(Jet, "log", counted)
    s = make_builtin("strip_flow", 2.0, c=C, s=S)
    z = POINTS[:16]
    # log(1+z) and log(1-z) inside h, once each; the weight's log of h' is
    # built from those two, and so is l = log v.  A warm call first: the
    # model's first numerical use runs its round-trip check, which calls h
    eval_hl_jets(s, z, 1)
    del calls[:]
    eval_hl_jets(s, z, 1)
    assert len(calls) == 2
    del calls[:]
    s._v(z)
    assert len(calls) == 2


@pytest.mark.parametrize("e", [parse_expr("1"), parse_expr("2*i")])
def test_constant_trees_take_the_shape_of_z(e):
    value = e(0.0)
    for z in (POINTS, POINTS.reshape(20, 10)):
        for k in range(TOP + 1):
            j = e.jet(z, k)
            for i in range(k + 1):
                x = getattr(j, SLOTS[i])
                assert isinstance(x, np.ndarray) and x.shape == z.shape
                assert np.all(x == (value if i == 0 else 0))
    for k in range(TOP + 1):
        j = e.jet(SCALARS[0], k)
        for i in range(k + 1):
            assert np.ndim(getattr(j, SLOTS[i])) == 0


@pytest.mark.parametrize("kh,kv", [(kh, kv) for kh in range(TOP + 1)
                                   for kv in range(TOP + 1)])
def test_tape_frees_each_dead_slot_once_after_its_last_reader(kh, kv):
    # the trident's h and v share its logs; freeing the slots no later op
    # reads leaves the jets bitwise those of each root evaluated on its own,
    # read to kh and kv from the tape at the higher order
    s = BUILTINS["trident"]
    tape = Tape((s._h, s._v), max(kh, kv))
    for z in [POINTS, SCALARS[0]]:
        for j, ref, k in zip(tape(z), (s._h.jet(z, kh), s._v.jet(z, kv)),
                             (kh, kv)):
            for slot in SLOTS[:k + 1]:
                assert _same(getattr(j, slot), getattr(ref, slot)), (k, slot)
    computed = {0} | {op[0] for op in tape._ops}
    last_read = {}
    for i, (_, _, a, b, _) in enumerate(tape._ops):
        last_read.update({a: i, b: i})
    freed = [(x, i) for i, op in enumerate(tape._ops) for x in op[4]]
    assert sorted(x for x, _ in freed) == sorted(computed - set(tape._out))
    for x, i in freed:
        assert i >= last_read.get(x, i), (x, i)
