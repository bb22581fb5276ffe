"""Structure verification: anticommutation tables, rotation-algebra
commutation tables, Hermiticity classification, explicit-form identities,
Casimir evaluation and Lie closure.

Every check in this module is exact: a nonzero deviation is a hard
failure, never a tolerance question. The metric-contraction rule of the
rotation tables is one signed index, the term K and the sign of
[s^P, s^Q], built once per family shape (``_contraction``).
check_rotation_table reads it one generator row at a time on integers
(operators.bracket_matches), and the fw suite gathers it over the whole
flip table of the nonlocal generators' rotation family as float residuals
(``suites.flip_residuals``). The Lie closure, the
squares-and-pairing check and the multiplication and commutator tables
read a set through its blade codes (``algebras.blade_codes``) and form
no matrix product. A set that is not distinct signed blades fails those
three checks with one message, and the two tables raise it as a
ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .algebras import (OrtSet, blade_codes, blade_products, extended_gammas,
                       pd_gammas, pgi_lorentz6, require_blades, so8_generators)
from .operators import GeneralOp, anticommutator, bracket_matches, compose
from .spans import blade_brackets

MetricSignature = Tuple[int, ...]
Pair = Tuple[int, int]

SO15_METRIC: MetricSignature = (1, -1, -1, -1, -1, -1)
SO13_METRIC: MetricSignature = (1, -1, -1, -1)
COMPACT8: MetricSignature = (-1,) * 8


@dataclass
class StructureReport:
    """Outcome of one exact relation check: the number of checks made and
    a message per failing one; it passes when there are none."""

    checks_total: int = 0
    failures: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def _as_ops(gens) -> List[Tuple[str, GeneralOp]]:
    if isinstance(gens, OrtSet):
        return list(gens.elements)
    return [(f"g{k}", op) for k, op in enumerate(gens)]


def check_anticommutation(gens, metric: MetricSignature) -> StructureReport:
    """Verify g_a g_b + g_b g_a = 2 * metric[a] * delta_ab * I exactly."""
    items = _as_ops(gens)
    if len(items) != len(metric):
        raise ValueError("generator count does not match metric length")
    rep = StructureReport()
    two = GeneralOp.identity().scaled(2)
    for a, (la, ga) in enumerate(items):
        for b, (lb, gb) in enumerate(items):
            defect = anticommutator(ga, gb)
            if a == b:
                defect = defect - two if metric[a] > 0 else defect + two
            rep.checks_total += 1
            if not defect.is_zero:
                rep.failures.append(f"{{{la},{lb}}} != "
                                    f"{2 * metric[a] if a == b else 0}*I")
    return rep


@lru_cache(maxsize=None)
def _contraction(pairs: Tuple[Pair, ...], metric: MetricSignature,
                 index_base: int) -> Tuple[np.ndarray, np.ndarray]:
    """(terms, signs), (n, n) integer arrays with [s^P, s^Q] =
    signs[P, Q] s^{terms[P, Q]} over the keys of a family, from the
    metric-contraction rule

        [s^{mn}, s^{rs}] = -g^{mr} s^{ns} - g^{rn} s^{sm}
                           - g^{ns} s^{mr} - g^{sm} s^{rn},

    with s^{aa} = 0 and s^{ba} = -s^{ab} for a key (a, b). Two distinct
    pairs share at most one index, so at most one term survives: its sign
    is +-1, and 0 (with term 0) where none does. Built once per (pairs,
    metric, index_base)."""
    index = {pair: k for k, pair in enumerate(pairs)}
    terms = np.zeros((len(pairs),) * 2, dtype=np.int64)
    signs = np.zeros_like(terms)
    for p, (m, n) in enumerate(pairs):
        for q, (r, s) in enumerate(pairs):
            for i, j, k, l in ((m, r, n, s), (r, n, s, m),
                               (n, s, m, r), (s, m, r, n)):
                if i == j and k != l:
                    sign = -metric[i - index_base]
                    if (k, l) not in index:
                        k, l, sign = l, k, -sign
                    terms[p, q], signs[p, q] = index[(k, l)], sign
    return terms, signs


def check_rotation_table(table: Dict[Pair, GeneralOp], metric: MetricSignature,
                         index_base: int = 0) -> StructureReport:
    """Full pairwise commutator table against the metric-contraction rule,
    one integer row per generator (operators.bracket_matches against the
    signed index of the rule).

    The compact all-minus signature reproduces the plus-sign (delta) form
    of the commutation relations; the (+,-,...,-) signature gives the
    pseudo-rotation form.
    """
    pairs = sorted(table)
    rep = StructureReport(len(pairs) ** 2)
    rows = bracket_matches([table[pair] for pair in pairs],
                           *_contraction(tuple(pairs), metric, index_base))
    for (m, n), row in zip(pairs, rows):
        rep.failures += [f"[s{m}{n}, s{r}{s}] mismatch"
                         for (r, s), ok in zip(pairs, row) if not ok]
    return rep


def check_so15(table: Dict[Pair, GeneralOp]) -> StructureReport:
    """Six-index pseudo-rotation table, metric diag(+1,-1,-1,-1,-1,-1)."""
    return check_rotation_table(table, SO15_METRIC)


def check_so8(table: Dict[Pair, GeneralOp]) -> StructureReport:
    """Eight-index compact rotation table (delta form of the relations)."""
    return check_rotation_table(table, COMPACT8, index_base=1)


def pgi_orientation_check() -> StructureReport:
    """The six-generator antilinear-extension Lorentz set closes as so(1,3),
    but in the mirrored orientation: the NEGATED generators satisfy the
    (+---) table; the printed ones satisfy it with the overall sign flipped.
    """
    table = pgi_lorentz6()
    direct = check_rotation_table(table, SO13_METRIC)
    mirrored = check_rotation_table({pair: -op for pair, op in table.items()},
                                    SO13_METRIC)
    rep = StructureReport(direct.checks_total + mirrored.checks_total)
    if not mirrored.passed:
        rep.failures.append("negated sextet fails the (+---) table")
    if direct.passed:
        rep.failures.append("direct and mirrored orientations cannot both close")
    return rep


def classify_hermiticity(ortset: OrtSet):
    """Partition an ort set by adjoint(X) = +X / -X / neither."""
    herm, anti, neither = [], [], []
    for lbl, op in ortset:
        adj = op.adjoint()
        if adj == op:
            herm.append(lbl)
        elif adj == -op:
            anti.append(lbl)
        else:
            neither.append(lbl)
    return herm, anti, neither


# ---------------------------------------------------------------------------
# explicit-form identities for the extra basis elements
# ---------------------------------------------------------------------------

def _expected_explicit_forms() -> List[Tuple[Pair, GeneralOp, str]]:
    """The tabulated closed forms of the sixteen nontrivial extra orts,
    as commonly printed. Two of them (alpha_57, alpha_67) carry a sign
    inconsistent with the defining quarter-commutators; the check reports
    them as failures together with the computed forms."""
    g = pd_gammas()
    i_op = GeneralOp.imaginary_unit()
    c_op = GeneralOp.conjugation()
    g0, g1, g2, g3, g4 = (g.get(f"g{k}") for k in range(5))
    return [
        ((1, 5), -(g3 @ c_op), "-g3 C"),
        ((2, 5), -compose(g0, g4, c_op), "-g0 g4 C"),
        ((3, 5), g1 @ c_op, "g1 C"),
        ((4, 5), compose(g0, g2, c_op), "g0 g2 C"),
        ((1, 6), -compose(i_op, g3, c_op), "-i g3 C"),
        ((2, 6), -compose(i_op, g0, g4, c_op), "-i g0 g4 C"),
        ((3, 6), compose(i_op, g1, c_op), "i g1 C"),
        ((4, 6), compose(i_op, g0, g2, c_op), "i g0 g2 C"),
        ((5, 6), i_op, "i"),
        ((1, 7), -compose(i_op, g0, g1), "-i g0 g1"),
        ((2, 7), -compose(i_op, g0, g2), "-i g0 g2"),
        ((3, 7), -compose(i_op, g0, g3), "-i g0 g3"),
        ((4, 7), -compose(i_op, g0, g4), "-i g0 g4"),
        ((5, 7), -compose(i_op, g2, g4, c_op), "-i g2 g4 C"),
        ((6, 7), compose(g2, g4, c_op), "g2 g4 C"),
        ((7, 8), compose(i_op, g0), "i g0"),
    ]


_REVERSED_ORDER = (" (computed value is the negative: the tabulated sign"
                   " matches the reversed product order)")


def verify_explicit_forms(columns: Sequence[int] = (5, 6, 7, 8),
                          hint: str = _REVERSED_ORDER) -> StructureReport:
    """Check each tabulated extra-ort expression alpha^{AB}, B in columns,
    against 2*s^{AB} exactly. A row whose computed value is the negative of
    the tabulated one carries hint; {flipped} in it stands for the
    tabulated text with its sign flipped."""
    table = so8_generators()
    rep = StructureReport()
    for (a, b), expected, text in _expected_explicit_forms():
        if b not in columns:
            continue
        rep.checks_total += 1
        computed = table[(a, b)].scaled(2)
        if computed != expected:
            flipped = "+" + text[1:] if text[0] == "-" else "-" + text
            note = hint.format(flipped=flipped) if computed == -expected else ""
            rep.failures.append(f"alpha_{a}{b} != {text}{note}")
    return rep


def gamma_product_identities() -> Dict[str, bool]:
    """prod(g0..g4) = -I, prod(g1..g7) = I, g5 g6 = i, g7 = -prod(g1..g6):
    each identity, by name, mapped to whether it holds."""
    g = pd_gammas()
    ext = extended_gammas()
    ident = GeneralOp.identity()
    seven = [ext.get(f"g{k}") for k in range(1, 8)]
    return {
        "g0 g1 g2 g3 g4 = -I":
            compose(*(g.get(f"g{k}") for k in range(5))) == -ident,
        "g1..g7 product = I": compose(*seven) == ident,
        "g5 g6 = i": seven[4] @ seven[5] == GeneralOp.imaginary_unit(),
        "g7 = -(g1..g6 product)": -compose(*seven[:6]) == seven[6],
    }


# ---------------------------------------------------------------------------
# Casimir and closure
# ---------------------------------------------------------------------------

def casimir_spin_squared(spin: OrtSet | Sequence[GeneralOp]) -> GeneralOp:
    """Sum of squares of a three-component spin set."""
    ops = spin.ops() if isinstance(spin, OrtSet) else list(spin)
    if len(ops) != 3:
        raise ValueError("spin Casimir needs exactly three components")
    out = GeneralOp.zero()
    for s in ops:
        out = out + s @ s
    return out


def _blade_report(ortset: OrtSet, total: int, failures) -> StructureReport:
    """StructureReport(total, failures(codes)) on the blade codes of ortset;
    a set that is not distinct signed blades fails with that message as
    its one failure, and never raises."""
    try:
        codes = require_blades(ortset.ops(), ortset.name)
    except ValueError as exc:
        return StructureReport(total, [str(exc)])
    return StructureReport(total, failures(codes))


def closure_check(ortset: OrtSet) -> StructureReport:
    """Every pairwise commutator must lie in the real span of the set."""
    labels = ortset.labels()
    return _blade_report(ortset, len(labels) * (len(labels) - 1) // 2,
                         lambda codes: [
                             f"[{labels[i]}, {labels[j]}] outside span"
                             for i, j, k, _ in blade_brackets(codes)
                             if k is None])


def composition_closure_check(ortset: OrtSet) -> StructureReport:
    """Every pairwise product must be +-1 or +-i times a basis element
    (the defining feature of an ort basis)."""
    return _blade_report(ortset, len(ortset) ** 2, lambda codes: [
        f"{li} * {lj} not proportional to an ort"
        for li, lj, hit, _ in _blade_pairs(ortset, codes) if hit is None])


def squares_and_pairing_check(ortset: OrtSet) -> StructureReport:
    """Each ort squares to +I or -I; each pair commutes or anticommutes.
    A signed blade squares to BLADE_SIGNS[S, S] I = +-I, and two blades
    commute or anticommute (the commutes flag of blade_products), so on
    blade codes every check holds."""
    n = len(ortset)
    return _blade_report(ortset, n * (n + 1) // 2, lambda codes: [])


# ---------------------------------------------------------------------------
# tables for the dump interface
# ---------------------------------------------------------------------------

def _blade_pairs(ortset: OrtSet, codes):
    """(left, right, hit, commutes) per ordered pair of the set with blade
    codes codes, hit the (unit, label) with left*right = unit*label or
    None; each ort enters 1, -1, i, -i in turn, and a later one wins."""
    labels, units = ortset.labels(), {}
    ((i_signs, i_masks, _),) = blade_products(
        blade_codes([GeneralOp.imaginary_unit()]), codes)
    for lbl, (s, m), si, mi in zip(labels, codes, i_signs, i_masks):
        units.update({(s, m): ("1", lbl), (-s, m): ("-1", lbl),
                      (si, mi): ("i", lbl), (-si, mi): ("-i", lbl)})
    return [(li, lj, units.get(code), c) for li, (signs, masks, commutes)
            in zip(labels, blade_products(codes, codes))
            for lj, code, c in zip(labels, zip(signs, masks), commutes)]


def multiplication_table(ortset: OrtSet) -> List[Tuple[str, str, str, str]]:
    """(left, right, unit, label) rows with left*right = unit*label.
    ValueError unless the set is distinct signed blades."""
    return [(li, lj, *(hit or ("?", "outside-basis"))) for li, lj, hit, _
            in _blade_pairs(ortset, require_blades(ortset.ops(), ortset.name))]


def commutator_table(ortset: OrtSet) -> List[Tuple[str, str, str]]:
    """(left, right, rendered) rows; the rendered entry is '0' for
    commuting orts, else 2*unit*label with [x, y] = 2 x y = 2*unit*label,
    or 'mixed' when x y is no unit multiple of an ort. ValueError unless
    the set is distinct signed blades."""
    return [(li, lj, "0" if c else f"2*{hit[0]}*{hit[1]}" if hit else "mixed")
            for li, lj, hit, c in _blade_pairs(
                ortset, require_blades(ortset.ops(), ortset.name))]
