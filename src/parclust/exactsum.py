"""Grouping-independent exact accumulation of float64 values.

Finite float64 values convert losslessly to integers on a fixed
power-of-two grid. Integer addition is associative, so any split of a
sum into per-node partial sums folds to the same total. Every result is
an integer quotient (a sum over a count, or a sum over a sum) rounded
back to float64 exactly once by CPython's correctly rounded int true
division. This is what lets the parallel reductions reproduce serial
results bit for bit regardless of how the rows were blocked.

One kernel, `grouped_sums_fixed`, computes every sum: per (group, column)
for a row labelling, per column, or of a flat array. It never shifts a
big integer per element. It peels the rows into fixed-width slices by the
error-free extraction of Rump, Ogita & Oishi ("Accurate floating-point
summation, part I", SIAM J. Sci. Comput. 2008), which Demmel & Nguyen
use for reproducible parallel sums ("Parallel reproducible summation",
IEEE Trans. Comput. 2015). For a chunk of n rows, set bits = 52 -
n.bit_length(), so that n * 2**bits <= 2**52. With top the largest
magnitude left and 2**E > top its binade bound (from frexp), one slice
is q = trunc(r * 2**s) with s = bits - E: integers |q| < 2**bits, whose
float64 sums in any order stay below 2**52 and so are exact. Each
non-zero sum is shifted once onto the grid (below), and r - q * 2**-s
is the exact remainder (q * 2**-s is r truncated to a multiple of
2**-s), below 2**-s, so each slice takes at least `bits` binades off
the top. Truncation, not rounding to nearest: a rounded slice of the
largest finite value can round up past it, and its scaled slice
overflow. NaN and infinity raise ValueError, and so does a quotient
beyond the float64 range.

The default grid, 2**-1126, holds every finite float64. A caller that
knows its values can pass a coarser grid 2**g, and its integers are
then smaller: `data_grid` gives the coarsest g that holds every value of
an array, about -60 for data of unit scale, so Lloyd's sums of data
rows are integers of about 70 bits instead of about 1130. No slice is
finer than the grid: the slice at 2**g takes all that is left of values
on it, so its remainder is zero, and a remainder left after it is a bit
below the grid, which raises ValueError instead of being cut off. A sum
on grid g is the default-grid sum divided by 2**(g + 1126), and its
quotients are the same floats.

Each chunk is copied once, as columns x rows, into a private C-contiguous
array, and every slice is peeled off that copy in place through one
reused buffer, so the input is never written and a column total sums
one contiguous row. No BLAS call is made: a BLAS product may split its
work over threads of its own.
"""

from __future__ import annotations

import math

import numpy as np

# The default grid is 2**-1126: frexp writes every finite float64 as
# mantissa * 2**exp with |mantissa| in [0.5, 1) and exp >= -1073, so every
# finite float64 is an integer multiple of it.
_GRID_BITS = 1126

# Rows are summed in chunks of at most this many; a chunk of n rows takes
# slices of 52 - n.bit_length() bits (32 for a full chunk).
MAX_BUCKET_TERMS = 1 << 19


def fixed_to_float(acc: int, count: int = 1) -> float:
    """Accumulated value divided by an integer count, rounded once to float64."""
    return fixed_ratio(acc, count << _GRID_BITS)


def fixed_to_floats(accs, count: int = 1,
                    grid: int = -_GRID_BITS) -> list[float]:
    """`fixed_to_float(acc, count)` of every value accumulated on the grid
    2**grid (grid <= 0), one shared count."""
    return fixed_ratios(accs, count << -grid)


def data_grid(points) -> int:
    """The exponent g of the coarsest grid 2**g that holds every value of
    the float64 array `points`: frexp writes x as m * 2**e with a 53-bit
    m, so x is a multiple of 2**(e - 53). Zero counts as e = 0, and so
    does an empty array, so g <= -53; a subnormal gives -1126, the
    default grid."""
    return int(np.frexp(points)[1].min(initial=0)) - 53


def fixed_ratio(num: int, den: int) -> float:
    """Quotient of two accumulated values on the same grid, rounded once."""
    return fixed_ratios((num,), den)[0]


def fixed_ratios(nums, den: int) -> list[float]:
    """Quotients of accumulated values over one shared denominator, each
    rounded once.

    Raises ZeroDivisionError on a zero denominator and ValueError when
    a quotient is beyond the float64 range.
    """
    if den < 0:  # so that a zero quotient is +0.0, as with Fraction
        nums, den = [-num for num in nums], -den
    try:
        return [num / den for num in nums]
    except OverflowError:
        raise ValueError("exact result out of float64 range") from None


def grouped_sums_fixed(a, groups=None, ngroups: int = 1,
                       grid: int = -_GRID_BITS) -> list[int]:
    """Exact per-(group, column) sums of a 2-D float64 array, as integer
    multiples of 2**grid.

    Row r of `a` is added to group `groups[r]` (every row to group 0 when
    `groups` is None). Returns `ngroups * c` fixed-point integers in
    group-major order: the sum of column j over group g is at `g * c + j`.
    Raises ValueError on a NaN or infinite value, and on a value with a
    bit below 2**grid, which the default grid cannot meet.
    """
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("grouped_sums_fixed expects a 2-D array")
    n, c = arr.shape
    if groups is not None:
        groups = np.asarray(groups, dtype=np.int64)
        if groups.shape != (n,):
            raise ValueError("groups must hold one label per row")
        if n and (groups.min() < 0 or groups.max() >= ngroups):
            raise ValueError("group label out of range [0, %d)" % ngroups)
    out = np.zeros(ngroups * c, dtype=object)  # Python ints
    for start in range(0, n, MAX_BUCKET_TERMS):
        stop = min(n, start + MAX_BUCKET_TERMS)
        key = None
        if groups is not None and ngroups > 1:
            key = (groups[start:stop] * c
                   + np.arange(c, dtype=np.int64)[:, None]).ravel()
        _accumulate(arr[start:stop].T.copy(), key, out, grid)
    return out.tolist()


def _scale(x, s: int, out=None):
    """x * 2**s, exact while the result is a normal double or zero."""
    if -1022 <= s <= 1023:
        return np.multiply(x, math.ldexp(1.0, s), out=out)
    return np.ldexp(x, s, out=out)  # 2**s itself is beyond the normal range


def _top(r) -> float:
    """The largest magnitude in `r`; ValueError if it is NaN or infinite."""
    top = max(float(r.max()), -float(r.min()))
    if not math.isfinite(top):
        raise ValueError("non-finite value (NaN or infinity) in an exact sum: "
                         "the input or a quantity computed from it is out "
                         "of float64 range")
    return top


def _accumulate(r, key, out, grid: int) -> None:
    """Add the exact sums of one chunk of at most MAX_BUCKET_TERMS rows to
    `out`, in units of 2**grid: per column, or per `key` (group * columns
    + column) when given.

    `r` is the chunk's private copy as columns x rows, C-contiguous, which
    the slices are peeled off in place; `key` is laid out the same way."""
    if r.size == 0:
        return
    bits = 52 - r.shape[1].bit_length()
    q = np.empty_like(r)
    top = _top(r)
    while top != 0.0:
        # no finer than the grid: a slice at s = -grid takes all that is
        # left of values on the grid, and is still below 2**bits
        s = min(bits - math.frexp(top)[1], -grid)
        np.trunc(_scale(r, s, out=q), out=q)
        # a total t is t * 2**-s, t << shift units of the grid; on the
        # default grid s <= 1124, as a subnormal top has E >= -1073
        shift = -grid - s
        if key is None:  # few columns: fold each total in turn
            for j, t in enumerate(q.sum(axis=1).tolist()):
                if t:
                    out[j] += int(t) << shift
        else:  # many groups: fold the non-zero totals in one array operation
            sums = np.bincount(key, weights=q.ravel(), minlength=len(out))
            used = np.flatnonzero(sums)
            out[used] += sums[used].astype(np.int64).astype(object) << shift
        np.subtract(r, _scale(q, -s, out=q), out=r)
        top = _top(r)
        if top and s == -grid:
            raise ValueError("a value has a bit below the grid 2**%d of an "
                             "exact sum" % grid)


def sum_fixed(values) -> int:
    """Exact sum of an array of float64 values as a fixed-point integer."""
    arr = np.asarray(values, dtype=np.float64).reshape(-1, 1)
    return grouped_sums_fixed(arr)[0]

