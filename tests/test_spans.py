"""The trace-form span layer against a reference Gauss-Jordan elimination.

The reference vectorises each realification into 64 entries of Q(sqrt2)
and row-reduces with sympy over that field, sharing no code with
ercd.spans.
"""

from fractions import Fraction

import pytest
from sympy import QQ, Rational, sqrt
from sympy.polys.matrices import DomainMatrix

from ercd.algebras import (a32, blade_codes, bosonic_rep,
                           bosonic_so8_generators, cd16, ercd64,
                           extended_gammas, pd_gammas, percd29, pgi8, so6,
                           so8_generators, so15_generators)
from ercd.operators import GeneralOp, commutator
from ercd.spans import (OrthogonalBasis, centralizer_dimension,
                        centralizer_kernel, span_rank, spans_equal,
                        structure_constants)
from exact_oracles import is_real, realify

K = QQ.algebraic_field(sqrt(2))


def _family(build):
    return lambda: [op for _, op in sorted(build().items())]


def _orts(build):
    return lambda: [op for lbl, op in build() if lbl != "I"]


NAMED = {
    "cd16": _orts(cd16),
    "ercd64": _orts(ercd64),
    "percd29": _orts(percd29),
    "so6": _orts(so6),
    "a32": _orts(a32),
    "pgi8": _orts(pgi8),
    "bosonic": lambda: bosonic_rep()[0].ops(),
    "so15-family": _family(so15_generators),
    "so8-family": _family(so8_generators),
    "bosonic-so8-family": _family(bosonic_so8_generators),
}


def _columns(ops):
    """The realifications as the columns of a 64-row matrix over Q(sqrt2)."""
    memo = {}

    def entry(x):
        key = (x.a.numerator, x.a.denominator, x.b.numerator, x.b.denominator)
        if key not in memo:
            memo[key] = K.from_sympy(Rational(*key[:2])
                                     + Rational(*key[2:]) * sqrt(2))
        return memo[key]

    rows = [[entry(x) for row in realify(op) for x in row] for op in ops]
    return DomainMatrix(rows, (len(rows), 64), K).transpose()


def _rank(ops):
    return _columns(ops).rank() if ops else 0


def _pair(v):
    """(a, b) with v = a + b*sqrt2."""
    coeffs = [Fraction(int(c.numerator), int(c.denominator))
              for c in v.to_list()]
    b, a = ([Fraction(0)] * 2 + coeffs)[-2:]
    return a, b


def _expansions(basis, targets):
    """Solve basis @ c = target for each target by Gauss-Jordan
    elimination of [basis | targets]: {k: (a, b)} per target, or None
    when the target lies outside the span. basis must be independent."""
    n = len(basis)
    reduced, pivots = _columns(basis + targets).rref()
    assert tuple(pivots[:n]) == tuple(range(n))
    outside = {p - n for p in pivots[n:]}
    rows = reduced.to_sdm()
    out = []
    for t in range(len(targets)):
        if t in outside:
            out.append(None)
            continue
        out.append({pivots[r]: _pair(row[n + t]) for r, row in rows.items()
                    if r < n and n + t in row})
    return out


def _reference_structure_constants(gens):
    n = len(gens)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    found = _expansions(gens, [commutator(gens[i], gens[j]) for i, j in pairs])
    if any(e is None for e in found):
        return None
    table = {}
    for (i, j), e in zip(pairs, found):
        for k, (a, b) in e.items():
            table[(i, j, k)], table[(j, i, k)] = (a, b), (-a, -b)
    return table


@pytest.mark.parametrize("name", sorted(NAMED))
def test_rank_matches_reference_elimination(name):
    ops = NAMED[name]()
    assert span_rank(ops) == _rank(ops) == len(ops)


def test_zero_members_do_not_count_towards_the_rank():
    g = pd_gammas().ops()
    ops = [g[0], GeneralOp.zero(), g[1]]
    assert span_rank(ops) == _rank(ops) == 2


def test_spans_equal_matches_reference_elimination():
    sets = {name: build() for name, build in NAMED.items()}
    ercd = ercd64()
    sets["ercd64-antihermitian"] = [op for _, op in ercd
                                    if op.adjoint() == -op]
    sets["ig0-centralizer"] = centralizer_kernel(extended_gammas().get("g7"))
    sets["a32-with-I"] = a32().ops()[::-1]
    ranks = {name: _rank(ops) for name, ops in sets.items()}
    verdicts = set()
    for name1, ops1 in sets.items():
        for name2, ops2 in sets.items():
            expected = (ranks[name1] == ranks[name2]
                        and ranks[name1] == _rank(ops1 + ops2))
            assert spans_equal(ops1, ops2) == expected, (name1, name2)
            verdicts.add(expected)
    assert spans_equal(sets["ercd64-antihermitian"], sets["so8-family"])
    assert spans_equal(sets["ig0-centralizer"], sets["a32-with-I"])
    assert verdicts == {True, False}


@pytest.mark.parametrize("name", sorted(NAMED))
def test_structure_constants_match_reference_elimination(name):
    gens = NAMED[name]()
    if blade_codes(gens) is None:  # the bosonic set and the families
        with pytest.raises(ValueError, match="^generator set is not a set of "
                           "distinct signed blades$"):
            structure_constants(gens)
        return
    expected = _reference_structure_constants(gens)
    if expected is None:
        with pytest.raises(ValueError, match="outside the span"):
            structure_constants(gens)
        return
    table = structure_constants(gens)
    assert all(is_real(c) for c in table.values())
    assert {key: (c.a, c.b) for key, c in table.items()} == expected


def test_structure_constants_reject_a_set_that_does_not_close():
    with pytest.raises(ValueError, match="outside the span"):
        structure_constants(pd_gammas().ops())


def test_centralizer_dimension_matches_reference_elimination():
    orts = ercd64().ops()
    ext = extended_gammas()
    for x in (GeneralOp.identity(), GeneralOp.imaginary_unit(),
              GeneralOp.conjugation(), ext.get("g7"), ext.get("g5"),
              pd_gammas().get("g0")):
        images = [commutator(x, o) for o in orts]
        assert centralizer_dimension(x) == 64 - _rank(images)
    kernel = centralizer_kernel(ext.get("g7"))
    assert all(commutator(ext.get("g7"), q).is_zero for q in kernel)


def test_a_basis_that_is_not_orthogonal_is_refused():
    g = pd_gammas().ops()
    with pytest.raises(ValueError, match="operators 1 and 3 are not orthogonal"):
        OrthogonalBasis([g[0], g[1], g[2], g[1] + g[3]])
    # a centralizer whose nonzero images are parallel is refused too
    with pytest.raises(ValueError, match="not orthogonal"):
        centralizer_kernel(g[0] + g[1])


def test_membership_needs_the_exact_reconstruction():
    g0, g1 = pd_gammas().get("g0"), pd_gammas().get("g1")
    basis = OrthogonalBasis([g0])
    # g0 + g1 projects onto g0 with coordinate 1, but is not in the span
    assert basis.coordinates([g0 + g1, g0.scaled(3), GeneralOp.zero()]) \
        == [None, {0: 3}, {}]
    assert not basis.contains([g1])
