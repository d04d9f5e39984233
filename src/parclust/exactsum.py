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
n.bit_length(), so that n * 2**bits <= 2**52. One frexp pass gives the
top binade bound 2**E > every magnitude and the finest bit any value can
hold. A slice at 2**-s is q = trunc(r * 2**s): integers |q| < 2**bits
when every |r| < 2**(bits - s), whose float64 sums in any order stay
below 2**52 and so are exact. Each non-zero sum is shifted once onto the
grid (below), and r - q * 2**-s is the exact remainder (q * 2**-s is r
truncated to a multiple of 2**-s), below 2**-s, so the next slice is at
least `bits` binades finer; when more than one slice is left, it starts
at the remainder's own top, so empty binades are skipped. The last slice
is at the finest bit, or at the grid if that is coarser: what is left
for it is a multiple of its unit below 2**bits units, so it is summed as
it is, with no truncation, and only its totals are scaled. Truncation,
not rounding to nearest: a rounded slice of the largest finite value can
round up past it, and its scaled slice overflow. NaN and infinity raise
ValueError, caught in the slice totals, and so does a quotient beyond
the float64 range.

The default grid, 2**-1126, holds every finite float64. A caller that
knows its values can pass a coarser grid 2**g, and its integers are
then smaller: `data_grid` gives the coarsest g that holds every value of
an array, about -60 for data of unit scale, so Lloyd's sums of data
rows are integers of about 70 bits instead of about 1130. No slice is
finer than the grid: when a value may hold a bit below it (its frexp
exponent says so), the last slice, at 2**g, is checked to take all that
is left, and a bit below the grid raises ValueError instead of being
cut off. A sum on grid g is the default-grid sum divided by
2**(g + 1126), and its quotients are the same floats.

Each chunk is read as columns x rows, C-contiguous: a column-major or
one-column array in place, any other through one copy. The slices are
peeled off through buffers of the kernel's own, so the input is never
written, and a column total sums one contiguous row. No BLAS call is
made: a BLAS product may split its work over threads of its own.
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
    bit below 2**grid, which the default grid cannot meet. A column-major
    or one-column array is read in place; any other is copied once, a
    chunk at a time.
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
    if groups is None or ngroups == 1:
        groups, out = None, [0] * c  # Python ints, one a column
    else:
        out = np.zeros(ngroups * c, dtype=object)  # Python ints
    for start in range(0, n, MAX_BUCKET_TERMS):
        stop = min(n, start + MAX_BUCKET_TERMS)
        key = None
        if groups is not None:
            key = (groups[start:stop] * c
                   + np.arange(c, dtype=np.int64)[:, None]).ravel()
        _accumulate(np.ascontiguousarray(arr[start:stop].T), key, out, grid)
    return list(out)


def _scale(x, s: int, out=None):
    """x * 2**s, exact while the result is a normal double or zero."""
    if -1022 <= s <= 1023:
        return np.multiply(x, math.ldexp(1.0, s), out=out)
    return np.ldexp(x, s, out=out)  # 2**s itself is beyond the normal range


def _fold(x, key, out, s: int, shift: int) -> None:
    """Add the totals of `x` per row, or per `key`, to `out`: each total
    times 2**s is an integer below 2**52, added shifted by `shift` bits.
    ValueError if a total is NaN or infinite. Neither einsum nor bincount
    warns when a total meets both infinities."""
    if key is None:  # few columns: fold each total in turn
        totals = np.einsum("ij->i", x)
        totals = (_scale(totals, s) if s else totals).tolist()
        _check_finite(math.isfinite(sum(totals)))
        for j, t in enumerate(totals):
            if t:
                out[j] += int(t) << shift
    else:  # many groups: fold the non-zero totals in one array operation
        sums = np.bincount(key, weights=x.ravel(), minlength=len(out))
        used = np.flatnonzero(sums)
        sums = _scale(sums[used], s) if s else sums[used]
        _check_finite(np.isfinite(sums).all())
        out[used] += sums.astype(np.int64).astype(object) << shift


def _check_finite(finite: bool) -> None:
    if not finite:
        raise ValueError("non-finite value (NaN or infinity) in an exact sum: "
                         "the input or a quantity computed from it is out "
                         "of float64 range")


def _accumulate(r, key, out, grid: int) -> None:
    """Add the exact sums of one chunk of at most MAX_BUCKET_TERMS rows to
    `out`, in units of 2**grid: per column, or per `key` (group * columns
    + column) when given.

    `r` is the chunk as columns x rows, C-contiguous, and is only read;
    `key` is laid out the same way. One frexp pass fixes the slices: the
    first at the top binade bound, each next one at least `bits` finer,
    the last at `last`, the finest bit a value can hold or the grid,
    summed as it is (see the module docstring)."""
    if r.size == 0:
        return
    bits = 52 - r.shape[1].bit_length()
    q = np.empty_like(r)
    e = np.frexp(r, out=(q, np.empty(r.shape, dtype=np.intc)))[1]
    # a value is a multiple of 2**(e - 53); zero counts as e = 0
    fine = 53 - int(e.min(initial=0))
    last = min(fine, -grid)
    s = bits - int(e.max())
    rem, buf = r, q  # the remainder, and a buffer that does not hold it
    while s < last:
        np.trunc(_scale(rem, s, out=buf), out=buf)
        _fold(buf, key, out, 0, -grid - s)
        # the remainder rem - q * 2**-s is exact, and below 2**-s
        rem, buf = (np.subtract(rem, _scale(buf, -s, out=buf), out=buf),
                    None if rem is r else rem)
        s += bits
        if s < last:  # more than one slice left: skip empty binades
            top = max(float(rem.max()), -float(rem.min()))
            if top == 0.0:
                return
            s = bits - math.frexp(top)[1]
            if buf is None:
                buf = np.empty_like(r)
    _fold(rem, key, out, last, -grid - last)
    if fine > last:  # a value may hold a bit below the grid
        x = _scale(rem, last)
        if not np.array_equal(np.trunc(x), x):
            raise ValueError("a value has a bit below the grid 2**%d of an "
                             "exact sum" % grid)


def sum_fixed(values) -> int:
    """Exact sum of an array of float64 values as a fixed-point integer."""
    arr = np.asarray(values, dtype=np.float64).reshape(-1, 1)
    return grouped_sums_fixed(arr)[0]

