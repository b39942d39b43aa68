"""Convolution and resampling of grid densities.

Each density is treated as a sequence of atoms at cell midpoints with
weight value*dx; the discrete convolution of those weights, divided by
dx, is the output step density.  For two inputs with N and M cells the
output has N + M - 1 cells at the same spacing, and its first cell is
centered at the sum of the two first midpoints, i.e.

    x0_out = x0_f + x0_g + dx/2.

The half-cell term is forced by the midpoint convention and is what makes
the convolution of two origin-centered densities exactly centered again
(and f convolved with a one-cell spike an exact translation by the
spike's midpoint).

Only the hull of each factor is convolved, from its first positive cell
to its last, and the result is written at the sum of the two hull offsets
into zeros covering all N + M - 1 output cells; the output grid does not
depend on where the factors are positive.

Up to `FFT_THRESHOLD` output cells of the hull product the quadratic-time
direct sum is used; larger products go through numpy's real FFT
(`numpy.fft.rfft`/`irfft`) at the smallest 5-smooth length that holds the
hull product.  The two zero-padded factors take one batched `rfft` call,
whose rows are bitwise equal to separate calls, and a self-convolution
(f convolved with itself) takes one transform and squares it.  Either
result is then given its exact support: the sum set of the two factors'
runs of positive cells, the run pair sums sorted and merged where they
overlap or touch, or the runs of an FFT of the two indicators (a pair
count, exact when rounded at 1/2) when the run pairs outnumber the
output cells; when each hull is one run it is every cell.
The gaps between its runs are zeroed slice by slice, with no full-length
mask.  A cell on the support that the kernel left below the smallest
normal float, `np.finfo(float).tiny`, gets that value: its true
value is positive, but below FFT resolution or, on the direct path, a sum
of products below the float range.  Both paths thus give the same
support, and the threshold is a speed choice only.

:func:`convolve_series`, the Poisson series sum of :mod:`levy` and not
exported, sums sum_k w_k f * g^(*k) in five real transforms
on whole cells, each about half as long as its dx/2 output (four when the
terms step by a whole number of cells).  The terms start k(g.x0 + dx/2)
apart, a whole number of half cells when g's first midpoint sits on a
multiple of dx/2, so the terms of even k sit on one whole-cell lattice and
those of odd k on another, shifted by that step's odd half cell if it has
one.  On each lattice the class is f times a power series in the spectrum
of g^(*2), evaluated by Horner's rule, and each whole-cell value is then
written to the two half cells it covers.  Its support is the union over k
of the sum sets of the runs, by the same rule as in :func:`convolve`,
summed term by term only until a term is one run wider than every gap of
g; each later term is then one run, one hull of g wider than the last.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from .config import FFT_THRESHOLD, MAX_CELLS
from .errors import BadParameter, NonPositiveSpacing, SpacingMismatch
from .grids import Grid1D, half_cell_offset, same_spacing

__all__ = ["convolve", "convolve_k", "scale_density", "resample", "project_onto"]

_TINY = np.finfo(float).tiny

Runs = tuple[np.ndarray, np.ndarray]


@functools.lru_cache(maxsize=1024)  # more than the ~580 lengths of a verify pass
def _fast_len(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, a length numpy's FFT splits into radix-2,
    -3 and -5 passes only (scipy.fft.next_fast_len(n, real=True))."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            m = p35 << ((n - 1) // p35).bit_length()  # least p35 * 2^k >= n
            if m < best:
                best = m
            p35 *= 3
        p5 *= 5
    return best


def _fft_conv(p: np.ndarray, q: np.ndarray, out_len: int) -> np.ndarray:
    """The first out_len cells of the cyclic convolution of p and q at the
    smallest 5-smooth length that holds them.  Both factors take one batched
    rfft call, whose rows have the bits of separate calls, and the spectra
    multiply as p's times q's; when q is p, one transform is squared."""
    n = _fast_len(out_len)
    if q is p:
        spec = np.fft.rfft(p, n)
        prod = spec * spec
    else:
        pair = np.zeros((2, n))
        pair[0, :p.size] = p
        pair[1, :q.size] = q
        spec = np.fft.rfft(pair)
        del pair
        prod = spec[0] * spec[1]
    del spec
    return np.fft.irfft(prod, n)[:out_len]


def _place(buf: np.ndarray, values: np.ndarray, start: int) -> np.ndarray:
    """buf zeroed, then values written into it cyclically from index start,
    as np.roll of values padded with zeros to buf's length would place them;
    returns buf."""
    buf.fill(0.0)
    start %= buf.size
    head = min(values.size, buf.size - start)
    buf[start:start + head] = values[:head]
    buf[:values.size - head] = values[head:]
    return buf


def _runs(values: np.ndarray) -> Runs:
    """Start and end (exclusive) indices of the runs of positive cells."""
    positive = np.zeros(values.size + 2, dtype=bool)  # padded with False
    np.greater(values, 0.0, out=positive[1:-1])
    edges = np.flatnonzero(positive[1:] != positive[:-1])
    return edges[0::2], edges[1::2]


def _mark(starts: np.ndarray, ends: np.ndarray, n: int) -> np.ndarray:
    """Mask of the n cells covered by the intervals [starts, ends)."""
    edge = np.bincount(starts, minlength=n + 1) - np.bincount(ends, minlength=n + 1)
    return np.cumsum(edge[:n]) > 0


def _merge(starts: np.ndarray, ends: np.ndarray) -> Runs:
    """The union of the intervals [starts, ends) as sorted runs, merged
    where they overlap or touch; at least one interval."""
    order = np.argsort(starts, kind="stable")
    starts = starts[order]
    reach = np.maximum.accumulate(ends[order])
    first = np.flatnonzero(np.concatenate(([True], starts[1:] > reach[:-1])))
    return starts[first], reach[np.append(first[1:], starts.size) - 1]


def _sum_runs(runs_p: Runs, runs_q: Runs, n_p: int, n_q: int) -> Runs:
    """Runs of the sum set of runs_p (on n_p cells) and runs_q (on n_q
    cells): the run pair sums [s + t, e + u - 1), merged, or past
    n_p + n_q - 1 pairs the runs of an FFT pair count of the indicators."""
    (sp, ep), (sq, eq) = runs_p, runs_q
    if sp.size * sq.size > n_p + n_q - 1:
        return _runs(_fft_conv(_mark(sp, ep, n_p), _mark(sq, eq, n_q), n_p + n_q - 1) >= 0.5)
    return _merge((sp[:, None] + sq).ravel(), (ep[:, None] + eq - 1).ravel())


def _zero_off(values: np.ndarray, runs: Runs) -> None:
    """Zero values in place outside the sorted disjoint runs."""
    starts, ends = runs
    for end, start in zip([0, *ends.tolist()], [*starts.tolist(), values.size]):
        values[end:start] = 0.0


def _conv_weights(p: np.ndarray, q: np.ndarray, runs_p: Runs, runs_q: Runs,
                  force: str | None = None) -> np.ndarray:
    """Convolution of the hulls p and q (first and last cells positive),
    zero exactly off its support."""
    out_len = p.size + q.size - 1
    method = force or ("direct" if out_len <= FFT_THRESHOLD else "fft")
    if method == "direct":
        w = np.convolve(p, q)
    elif min(p.size, q.size) == 1:  # a one-cell factor scales the other exactly
        w = p * q
    else:
        w = _fft_conv(p, q, out_len)
    np.maximum(w, _TINY, out=w)
    if runs_p[0].size > 1 or runs_q[0].size > 1:  # else the sum set is every cell
        _zero_off(w, _sum_runs(runs_p, runs_q, p.size, q.size))
    return w


def convolve(f: Grid1D, g: Grid1D, method: str | None = None) -> Grid1D:
    """Convolution of two grid densities with equal spacing.

    Raises SpacingMismatch when the spacings differ by more than one part
    in 1e12.  `method` forces "direct" or "fft" (used by the agreement
    test); by default the choice follows FFT_THRESHOLD, applied to
    the output length of the two hulls.
    """
    if not same_spacing(f, g):
        raise SpacingMismatch(f"dx mismatch: {f.dx} vs {g.dx}")
    if method not in (None, "direct", "fft"):
        raise BadParameter(f"unknown convolution method {method!r}")
    dx = f.dx
    vals = np.zeros(f.n_cells + g.n_cells - 1)
    (sf, ef), (sg, eg) = _runs(f.values), _runs(g.values)
    if sf.size and sg.size:
        a0, b0 = sf[0], sg[0]
        p = f.values[a0:ef[-1]] * dx
        q = p if g is f else g.values[b0:eg[-1]] * dx  # a self-convolution takes one transform
        w = _conv_weights(p, q, (sf - a0, ef - a0), (sg - b0, eg - b0), force=method)
        np.divide(w, dx, out=vals[a0 + b0:a0 + b0 + w.size])
    return Grid1D(x0=f.x0 + g.x0 + 0.5 * dx, dx=dx, values=vals)


def convolve_series(f: Grid1D, g: Grid1D, weights: Sequence[float]) -> Grid1D:
    """sum_k weights[k] * (f * g^(*k)), k = 0 .. len(weights) - 1, at dx/2.

    Its one caller, :mod:`levy`, passes the Gaussian window as f, the
    jump law's hull as g on f's spacing, and at least two Poisson weights,
    each positive; nothing else is checked.

    Term k is the k-fold :func:`convolve` of f with g; its first cell sits
    k*h half cells from f's, h = 2 (g.x0 + dx/2) / dx, and each of its
    values covers two half cells of the dx/2 refinement.  With h = 2a + r,
    r in {0, 1}, term 2j starts j*h whole cells after f and term 2j + 1
    starts a + j*h whole cells and r half cells after it.  So each parity
    class of k is one whole-cell convolution, cyclic at the smallest
    5-smooth length that holds it: f times sum_j w_2j z^j for the even
    terms and f times g_a sum_j w_(2j+1) z^j for the odd ones, where g_a
    and g_(a+r) are the spectra of g*dx shifted by a and a + r cells and
    z = g_a g_(a+r), summed by Horner's rule.  Each cell value of a class
    is added to the two half cells it covers.  That is three forward
    transforms (two when r = 0) and two inverse ones, all about half the
    output's length.  One real buffer is refilled for the forward inputs
    and one complex buffer holds each class's series in turn, the odd
    class first so g_a can go before its inverse transform, and f's
    spectrum goes after the even class's product.  The output is
    allocated once both inverses are taken and every spectrum is freed,
    and the odd class is added into it before the even one.  The working
    set is at most four arrays half the output's size (f's spectrum, z,
    the series and the odd inverse, or the series and both inverses),
    then the output beside the two inverses: about 2 times the output's
    bytes.  The result spans the union of the terms' grids.  It
    is zero off the union of the terms' supports and at least the smallest
    normal float on it, as in :func:`convolve` (the terms' runs merged,
    the gaps zeroed by slices, no difference array).

    Raises BadParameter when g's first midpoint is not a multiple of dx/2
    (2 g.x0 / dx not an integer), the lattice levy snaps its jump law onto,
    and, before anything is allocated, when the output would have more
    than MAX_CELLS half cells, as for a jump law far from the origin.
    """
    dx = f.dx
    half_cells = half_cell_offset(g)
    if half_cells is None:
        raise BadParameter(f"second factor starts at x0={g.x0}, not a multiple of dx/2")
    h = half_cells + 1  # half cells from one term's first cell to the next's
    n_f, n_g, k_max = f.n_cells, g.n_cells, len(weights) - 1
    lo = min(0, k_max * h)  # the output's first half cell, from f's
    n_out = max(2 * n_f, 2 * n_f + k_max * (h + 2 * n_g - 2)) - lo
    if n_out > MAX_CELLS:
        raise BadParameter(f"the series spans {n_out} half cells, "
                           f"more than MAX_CELLS = {MAX_CELLS}")

    # the runs of term k, in half cells of the output
    runs, runs_g, k = _runs(f.values), _runs(g.values), 0
    sg, eg = runs_g
    widest_gap = np.max(sg[1:] - eg[:-1], initial=0)
    starts, ends = [], []
    while runs[0].size != 1 or runs[1][0] - runs[0][0] <= widest_gap:
        starts.append(k * h - lo + 2 * runs[0])
        ends.append(k * h - lo + 2 * runs[1])
        if k == k_max:
            break
        runs = _sum_runs(runs, runs_g, n_f + k * (n_g - 1), n_g)
        k += 1
    else:  # one run wider than every gap of g: so is each later term, one hull wider
        j = np.arange(k_max + 1 - k)
        starts.append((k + j) * h - lo + 2 * (runs[0] + j * sg[0]))
        ends.append((k + j) * h - lo + 2 * (runs[1] + j * (eg[-1] - 1)))

    a, r = divmod(h, 2)
    n = _fast_len(n_out // 2 + 2)
    lo_cell, odd_lo = divmod(lo, 2)  # cell 0 of the transforms starts odd_lo half cells before lo
    buf = np.empty(n)  # the input of each forward transform in turn
    f_hat = np.fft.rfft(_place(buf, f.values, -lo_cell))
    g_dx = g.values * dx
    g_hat = np.fft.rfft(_place(buf, g_dx, a))
    # one expression: past 256 KiB numpy multiplies into the rfft's temporary
    # as rfft * g_hat, and with FMA that operand order sets the last bits
    z = g_hat * (g_hat if r == 0 else np.fft.rfft(_place(buf, g_dx, a + r)))
    del buf
    series = np.empty_like(z)
    classes = []  # (first half cell, whole-cell values) of the odd class, then the even
    # the odd class first, so g_hat can go before its inverse transform
    for parity, first in ((1, r - odd_lo), (0, -odd_lo)):
        class_weights = weights[parity::2]
        series.fill(complex(class_weights[-1]))
        for w in class_weights[-2::-1]:
            series *= z
            series += w
        if parity:
            series *= g_hat
            del g_hat
        else:
            del z
        series *= f_hat
        if not parity:
            del f_hat
        classes.append((first, np.fft.irfft(series, n)))
    del series
    vals = np.zeros(n_out)
    for first, cells in classes:
        for half in (first, first + 1):  # cell i covers half cells first + 2i and the next
            skip, odd = divmod(half, 2)
            dst = vals[odd::2][max(skip, 0):]
            dst += cells[max(-skip, 0):][:dst.size]
    del classes, cells
    np.maximum(vals, _TINY, out=vals)
    _zero_off(vals, _merge(np.concatenate(starts), np.concatenate(ends)))
    return Grid1D(x0=f.x0 + min(0.0, k_max * (g.x0 + 0.5 * dx)), dx=0.5 * dx, values=vals)


def convolve_k(fs: list[Grid1D] | tuple[Grid1D, ...]) -> Grid1D:
    """Left fold of :func:`convolve` over k >= 1 densities."""
    if len(fs) == 0:
        raise BadParameter("convolve_k needs at least one density")
    out = fs[0]
    for g in fs[1:]:
        out = convolve(out, g)
    return out


def scale_density(f: Grid1D, s: float) -> Grid1D:
    """Density of s*X when X ~ f: grid scaled by s, values by 1/s.

    Exact as a function, so every Renyi entropy shifts by log(s) exactly.
    Only positive scale factors are supported.
    """
    if not (s > 0.0) or not math.isfinite(s):
        raise BadParameter(f"scale factor must be positive and finite, got {s}")
    return Grid1D(x0=f.x0 * s, dx=f.dx * s, values=f.values / s)


def project_onto(f: Grid1D, x0: float, dx: float, n_cells: int) -> Grid1D:
    """Mass-preserving projection of f onto an arbitrary target grid.

    Each target cell receives exactly the mass f assigns to it (the
    cumulative mass of a step density is piecewise linear, so linear
    interpolation at target edges is exact).  Mass outside the target
    window is dropped.  A dx that is not positive and finite raises
    NonPositiveSpacing before any arithmetic on it.
    """
    if not (0.0 < dx < math.inf):  # also dx = nan
        raise NonPositiveSpacing(f"dx must be positive and finite, got {dx}")
    if n_cells < 1:
        raise BadParameter("target grid needs at least one cell")
    cum = np.concatenate(([0.0], np.cumsum(f.values) * f.dx))
    tgt_edges = x0 + np.arange(n_cells + 1) * dx
    cum_at = np.interp(tgt_edges, f.edges, cum, left=0.0, right=cum[-1])
    vals = np.diff(cum_at) / dx
    np.maximum(vals, 0.0, out=vals)
    return Grid1D(x0=float(x0), dx=float(dx), values=vals)


def resample(f: Grid1D, dx_new: float) -> Grid1D:
    """Re-grid f at a new spacing, preserving total mass.

    The new grid is anchored at f.x0 and extends just past the old
    support; refining by an integer factor and coarsening back is the
    identity.
    """
    if not (0.0 < dx_new < math.inf):  # also dx_new = nan
        raise NonPositiveSpacing(f"dx_new must be positive and finite, got {dx_new}")
    span = f.n_cells * f.dx
    n_new = max(1, int(math.ceil(span / dx_new - 1e-12)))
    return project_onto(f, f.x0, dx_new, n_new)
