"""The Laurent-ring Poincare oracle against sympy and its guards.

The oracle forms the 45 commutators of the scalar generators, each scaled
by its integer factor s_k, in the ring Z[i][q1, q2, q3, w, 1/w] and proves
each expansion there. sympy is the reference here: the stated, unscaled
generators are written again as sympy expressions in q and m with
w = sqrt(q^2 + m^2), and the ring's generators and commutators are
compared slot by slot with them times s_k and s_i s_j; the earlier
`linsolve` solve at irrational points is replayed for a few pairs. The
table is pinned to the one that solve gave.
"""

from fractions import Fraction

import pytest
import sympy as sp

from ercd import poincare_oracle as po

# nonzero constants {(left, right): {k: c}} with [left, right] = sum_k c g_k,
# as recorded from the linsolve oracle
NONZERO = {
    ("p0", "j01"): {1: 1.0}, ("p0", "j02"): {2: 1.0}, ("p0", "j03"): {3: 1.0},
    ("p1", "j31"): {3: 1.0}, ("p1", "j12"): {2: -1.0}, ("p1", "j01"): {0: 1.0},
    ("p2", "j23"): {3: -1.0}, ("p2", "j12"): {1: 1.0}, ("p2", "j02"): {0: 1.0},
    ("p3", "j23"): {2: 1.0}, ("p3", "j31"): {1: -1.0}, ("p3", "j03"): {0: 1.0},
    ("j23", "j31"): {6: 1.0}, ("j23", "j12"): {5: -1.0},
    ("j23", "j02"): {9: 1.0}, ("j23", "j03"): {8: -1.0},
    ("j31", "j12"): {4: 1.0}, ("j31", "j01"): {9: -1.0},
    ("j31", "j03"): {7: 1.0}, ("j12", "j01"): {8: 1.0},
    ("j12", "j02"): {7: -1.0}, ("j01", "j02"): {6: -1.0},
    ("j01", "j03"): {5: 1.0}, ("j02", "j03"): {4: -1.0},
}

# the sample points of the linsolve oracle: w is irrational at each
_IRRATIONAL_POINTS = (
    (1, 2, 3), (2, -1, 1), (-3, 1, 2), (1, 1, -2), (2, 3, -1), (-1, -2, 2),
)

_Q = sp.symbols("q1 q2 q3", real=True)
_M = sp.Symbol("m", positive=True)
_W = sp.sqrt(_Q[0] ** 2 + _Q[1] ** 2 + _Q[2] ** 2 + _M ** 2)

PAIRS = [(i, j) for i in range(10) for j in range(i + 1, 10)]


def _sympy_generators():
    """The scalar generators as four sympy slots: the coefficients of
    d/dq_1..3, then the zeroth order."""
    zero = sp.Integer(0)
    gens = [[zero, zero, zero, -sp.I * _W]]
    gens += [[zero, zero, zero, sp.I * _Q[n]] for n in range(3)]
    for (l, n) in ((2, 3), (3, 1), (1, 2)):
        slots = [zero] * 4
        slots[l - 1], slots[n - 1] = _Q[n - 1], -_Q[l - 1]
        gens.append(slots)
    for k in range(3):
        slots = [zero] * 3 + [_Q[k] / (2 * _W)]
        slots[k] = _W
        gens.append(slots)
    return gens


def _sympy_commutator(f, g):
    return [sp.cancel(sp.together(sum(
        f[a] * sp.diff(g[b], _Q[a]) - g[a] * sp.diff(f[b], _Q[a])
        for a in range(3)))) for b in range(4)]


def _rational(x):
    x = Fraction(x)
    return sp.Rational(x.numerator, x.denominator)


def _to_sympy(poly):
    return sum((_rational(re) + sp.I * _rational(im))
               * _Q[0] ** e1 * _Q[1] ** e2 * _Q[2] ** e3 * _W ** k
               for (e1, e2, e3, k), (re, im) in poly.items())


def _same(expr, poly):
    return sp.cancel(sp.together(expr - _to_sympy(poly))) == 0


def _linsolve_expansion(gens, target):
    """The earlier oracle's solve: linsolve over the slot values at the
    irrational points, then nsimplify(simplify) of each constant."""
    lams = sp.symbols(f"lam0:{len(gens)}")
    equations = []
    for pt in _IRRATIONAL_POINTS:
        subs = {**{_Q[a]: pt[a] for a in range(3)}, _M: 1}
        for slot in range(4):
            lhs = sum(lam * g[slot].subs(subs) for lam, g in zip(lams, gens))
            equations.append(sp.Eq(lhs, target[slot].subs(subs)))
    (solution,) = sp.linsolve(equations, lams)
    return [sp.nsimplify(sp.simplify(v)) for v in solution]


def test_table_equals_the_recorded_linsolve_table():
    table, verified = po.oracle_structure_table()
    assert verified
    names = po.NAMES
    expected = {(names[i], names[j]): tuple(
        NONZERO.get((names[i], names[j]), {}).get(k, 0.0) for k in range(10))
        for i in range(10) for j in range(i + 1, 10)}
    assert list(table) == list(expected)
    assert table == expected


def test_ring_commutators_equal_the_sympy_commutators():
    # the ring holds s_k g_k, so its commutators are s_i s_j [g_i, g_j]
    ring, ref, scales = po._scalar_generators(), _sympy_generators(), po.SCALES
    assert scales == (1,) * 7 + (2,) * 3
    for g, h, s in zip(ring, ref, scales):
        assert all(_same(s * h[slot], g[slot]) for slot in range(4))
    for i, j in PAIRS:
        comm = po._commutator(ring[i], ring[j])
        expected = _sympy_commutator(ref[i], ref[j])
        for slot in range(4):
            assert _same(scales[i] * scales[j] * expected[slot],
                         comm[slot]), (i, j, slot)


def test_the_ring_holds_only_integers():
    gens = po._scalar_generators()
    polys = [poly for g in gens for poly in g]
    polys += [poly for i, j in PAIRS
              for poly in po._commutator(gens[i], gens[j])]
    assert all(type(c) is int for poly in polys
               for re_im in poly.values() for c in re_im)
    assert "Fraction" not in vars(po) and "fractions" not in vars(po)


@pytest.mark.parametrize("pair", [("p0", "j01"), ("j01", "j02"),
                                  ("j23", "j31")])
def test_constants_match_linsolve_at_irrational_points(pair):
    gens = _sympy_generators()
    i, j = (po.NAMES.index(name) for name in pair)
    old = _linsolve_expansion(gens, _sympy_commutator(gens[i], gens[j]))
    assert all(v.is_rational for v in old)
    assert tuple(float(v) for v in old) == po.oracle_structure_table()[0][pair]


def test_a_perturbed_generator_fails_the_proof(monkeypatch):
    gens = po._scalar_generators()
    zeroth = gens[po.NAMES.index("j01")][3]
    (mono,) = zeroth
    # 2 q1 / w for q1 / w, the zeroth order of 2 j01
    assert zeroth[mono] == (1, 0)
    zeroth[mono] = (2, 0)
    monkeypatch.setattr(po, "_scalar_generators", lambda: gens)
    table, verified = po.oracle_structure_table.__wrapped__()
    assert not verified
    assert len(table) == len(PAIRS)


def test_a_target_outside_the_span_does_not_close(monkeypatch):
    # with p3 = i q3^2 no generator owns the q3 coordinate that [p0, j03]
    # reads (it is i q3), so the reconstruction misses it
    gens = po._scalar_generators()
    gens[3] = po._op((3, (0, 0, 2, 0), 0, 1))
    monkeypatch.setattr(po, "_scalar_generators", lambda: gens)
    table, verified = po.oracle_structure_table.__wrapped__()
    assert not verified
    assert table[("p0", "j03")] == (0.0,) * 10


def test_a_generator_without_an_owned_coordinate_is_refused(monkeypatch):
    gens = po._scalar_generators()
    gens[9] = gens[8]
    monkeypatch.setattr(po, "_scalar_generators", lambda: gens)
    with pytest.raises(ValueError, match="j02 owns no coordinate"):
        po.oracle_structure_table.__wrapped__()
