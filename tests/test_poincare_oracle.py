"""The exact Poincare oracle against its old symbolic solve and its guards.

The oracle solves for the structure constants by one rational
elimination at points where w = sqrt(q^2 + 1) is an integer. Its table is
pinned to the one the earlier sympy `linsolve` solve at irrational points
gave, and for a few pairs that solve is replayed here as a cross-check.
"""

import os
import subprocess
import sys

import pytest
import sympy as sp

import ercd
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


def _pair(left, right):
    gens = po._scalar_generators()
    return gens, po._commutator(gens[po.NAMES.index(left)],
                                gens[po.NAMES.index(right)])


def _slot(op, slot):
    return op[1] if slot == 3 else op[0].get(slot, sp.Integer(0))


def _linsolve_expansion(gens, target):
    """The earlier oracle's solve: linsolve over the slot values at the
    irrational points, then nsimplify(simplify) of each constant."""
    lams = sp.symbols(f"lam0:{len(gens)}")
    equations = []
    for pt in _IRRATIONAL_POINTS:
        subs = {**{po._Q[a]: pt[a] for a in range(3)}, po._M: 1}
        for slot in range(4):
            lhs = sum(lam * _slot(g, slot).subs(subs)
                      for lam, g in zip(lams, gens))
            equations.append(sp.Eq(lhs, _slot(target, slot).subs(subs)))
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


@pytest.mark.parametrize("pair", [("p0", "j01"), ("j01", "j02"),
                                  ("j23", "j31")])
def test_constants_match_linsolve_at_irrational_points(pair):
    gens, comm = _pair(*pair)
    old = _linsolve_expansion(gens, comm)
    assert all(v.is_rational for v in old)
    (new,) = po._solve_expansions(gens, [comm])
    assert [sp.Rational(c.numerator, c.denominator) for c in new] == old
    assert tuple(float(c) for c in new) == po.oracle_structure_table()[0][pair]


def test_one_point_does_not_determine_the_expansion(monkeypatch):
    monkeypatch.setattr(po, "_SAMPLE_POINTS", ((1, 1, 1),))
    with pytest.raises(ValueError, match="do not determine"):
        po.oracle_structure_table.__wrapped__()


def test_a_point_with_irrational_omega_is_refused(monkeypatch):
    monkeypatch.setattr(po, "_SAMPLE_POINTS", po._SAMPLE_POINTS + ((1, 2, 3),))
    with pytest.raises(ValueError, match=r"not in Q\(i\)"):
        po.oracle_structure_table.__wrapped__()


def test_a_target_outside_the_span_does_not_close():
    gens = po._scalar_generators()
    outside = ({}, po._Q[0] ** 2)
    with pytest.raises(ValueError, match="does not close"):
        po._solve_expansions(gens, [outside])


def test_the_symbolic_proof_can_fail():
    gens, comm = _pair("j23", "j31")
    (lam,) = po._solve_expansions(gens, [comm])
    exact = [sp.Rational(c.numerator, c.denominator) for c in lam]
    assert po._verify_expansion(gens, comm, exact)
    for k in range(len(exact)):
        off = list(exact)
        off[k] += 1
        assert not po._verify_expansion(gens, comm, off)


_IMPORT_PROBE = """
import contextlib, io, sys
from ercd.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    for suite in ("cd", "ercd", "percd", "so6", "a32", "pgi", "bosonic",
                  "fw"):
        main(["verify", "--suite", suite, "--format", "json"])
    main(["dump", "--set", "a32", "--kind", "structure-constants"])
    print("sympy" in sys.modules, file=sys.stderr)
    main(["verify", "--suite", "poincare", "--format", "json"])
    print("sympy" in sys.modules, file=sys.stderr)
"""


def test_sympy_is_imported_only_when_poincare_runs():
    src = os.path.dirname(os.path.dirname(os.path.abspath(ercd.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr.split() == ["False", "True"]
