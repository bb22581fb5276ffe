"""Degree-1 forward-mode jets (dual numbers over numpy arrays) for the
q-derivatives of momentum symbols (Griewank & Walther, Evaluating
Derivatives, SIAM 2008). Their one user, ``MomentumSymbol.jet``, evaluates
a symbol's scalar profiles on jets and hands back values and gradients as
plain arrays; the symbol's constant operators never meet a jet.

A Jet holds a value array ``val`` and its gradient ``grad`` of shape
(3, *val.shape), where grad[a] is d val / d q_a. Jets take part in numpy
arithmetic through ``__array_ufunc__``: + - * / sqrt and conj work between
jets, arrays and scalars with the usual broadcasting, so a profile written
for plain momentum arrays evaluates unchanged on a jet. Plain operands are
constants. Only degree 1 is kept: a jet's gradient is a plain array, and
jets are never nested.

Momenta arrive as signed batches, N momenta and their reflections, with
the sign axis first. ``Jet.of_momenta`` seeds both halves with e_a, so
each entry is differentiated with respect to its own momentum: on the -q
half, d/dq_a is taken at -q.
"""

from __future__ import annotations

import numpy as np


class Jet(np.lib.mixins.NDArrayOperatorsMixin):
    __slots__ = ("val", "grad")

    def __init__(self, val, grad):
        self.val = val
        self.grad = grad

    @classmethod
    def of_momenta(cls, q):
        """Seed the components (q1, q2, q3) of a signed batch, each an
        array with the sign axis first: jet a has gradient e_a."""
        jets = []
        for a, qa in enumerate(q):
            grad = np.zeros((3,) + qa.shape)
            grad[a] = 1.0
            jets.append(cls(qa, grad))
        return tuple(jets)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if method != "__call__" or kwargs or ufunc not in _RULES:
            return NotImplemented
        vals = [x.val if isinstance(x, Jet) else x for x in inputs]
        grads = [x.grad if isinstance(x, Jet) else None for x in inputs]
        val = ufunc(*vals)
        grad = _RULES[ufunc](val, vals, grads)
        return Jet(val, np.broadcast_to(grad, (3,) + val.shape))


def _sum(*terms):
    present = [t for t in terms if t is not None]
    return sum(present[1:], present[0])


def _times(g, factor):
    return None if g is None else g * factor


def _product(val, vals, grads):
    (x, y), (gx, gy) = vals, grads
    return _sum(_times(gx, y), _times(gy, x))


def _quotient(val, vals, grads):
    (x, y), (gx, gy) = vals, grads
    return _sum(_times(gx, 1.0 / y), _times(gy, -val / y))


_RULES = {
    np.add: lambda val, vals, grads: _sum(*grads),
    np.subtract: lambda val, vals, grads: _sum(grads[0],
                                               _times(grads[1], -1.0)),
    np.negative: lambda val, vals, grads: -grads[0],
    np.conjugate: lambda val, vals, grads: np.conj(grads[0]),
    np.multiply: _product,
    np.true_divide: _quotient,
    np.sqrt: lambda val, vals, grads: grads[0] * (0.5 / val),
}
