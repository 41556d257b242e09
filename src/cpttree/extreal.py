"""Extended reals with a tagged +infinity.

The marker deliberately defines no arithmetic: combining it with finite
values raises TypeError instead of silently propagating a float inf.
The only sanctioned combination is ``ext_sub`` (a difference with a finite
subtrahend), which is the admissibility convention for CPT values.
"""

from __future__ import annotations


class _PositiveInfinity:
    __slots__ = ()

    def __repr__(self) -> str:
        return "+inf"

    def __reduce__(self):
        return (_pos_inf_instance, ())


def _pos_inf_instance() -> "_PositiveInfinity":
    return POS_INF


POS_INF = _PositiveInfinity()

ExtReal = float | _PositiveInfinity


def is_inf(x: ExtReal) -> bool:
    return x is POS_INF


def is_finite(x: ExtReal) -> bool:
    return x is not POS_INF


def ext_sub(a: ExtReal, b: ExtReal) -> ExtReal:
    """a - b for extended a and finite b; rejects an infinite subtrahend."""
    if is_inf(b):
        raise TypeError("cannot subtract an infinite value")
    if is_inf(a):
        return POS_INF
    return float(a) - float(b)
