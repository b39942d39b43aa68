"""Exact rational references for step densities, in the stdlib alone.

A float is a rational number, so fractions.Fraction reads every cell
value and spacing of a step density exactly, and every quantity below is
computed with no rounding at all.  The module imports nothing from the
package it checks.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def cumulative_layer_mass(values: Sequence[float], dx: float) -> list[tuple[Fraction, Fraction]]:
    """Knots (length, mass) of the mass of f* inside centered intervals.

    f* stacks the cells of f by decreasing value around the origin, so the
    mass inside the centered interval of length L is piecewise linear in
    L with a knot after every cell: (0, 0), (dx, v_1 dx), (2 dx, (v_1 +
    v_2) dx), ... for v_1 >= v_2 >= ... the values of f.
    """
    width = Fraction(dx)
    length = mass = Fraction(0)
    knots = [(length, mass)]
    for v in sorted(map(Fraction, values), reverse=True):
        length += width
        mass += Fraction(v) * width
        knots.append((length, mass))
    return knots


def _mass_at(knots: list[tuple[Fraction, Fraction]], length: Fraction) -> Fraction:
    """The piecewise-linear mass at an interval length, the total past the
    last knot."""
    for (x0, m0), (x1, m1) in zip(knots, knots[1:]):
        if length <= x1:
            return m0 + (m1 - m0) * (length - x0) / (x1 - x0)
    return knots[-1][1]


def majorization_margin(f_values: Sequence[float], f_dx: float,
                        g_values: Sequence[float], g_dx: float) -> Fraction:
    """The least of mass(g*, L) - mass(f*, L) over all interval lengths L.

    Both masses are linear between their knots, so the least difference is
    taken at a knot of one side or the other; it is evaluated at every
    knot of both.
    """
    kf = cumulative_layer_mass(f_values, f_dx)
    kg = cumulative_layer_mass(g_values, g_dx)
    lengths = sorted({x for x, _ in kf[1:]} | {x for x, _ in kg[1:]})
    return min(_mass_at(kg, x) - _mass_at(kf, x) for x in lengths)
