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
big integer per element. Following the small superaccumulator of Neal,
"Fast exact summation using small and large superaccumulators"
(arXiv:1505.05571), and the binned sums of Demmel & Nguyen's ReproBLAS,
it splits each 53-bit mantissa into a high and a low integer part, sums
each part in float64 into buckets keyed by (group, column, block of
binades) with `np.bincount` (exact because the parts are small integers
and a bucket holds a bounded number of terms), and shifts one big
integer per non-empty bucket. NaN and infinity raise ValueError, and so
does a quotient beyond the float64 range.
"""

from __future__ import annotations

import math

import numpy as np

# frexp writes every finite float64 as mantissa * 2**exp with |mantissa|
# in [0.5, 1) and exp >= -1073, so mantissa * 2**53 is an exact integer
# and the left shift below is never negative. The grid is 2**-1126.
_GRID_BITS = 1126
_MANT_SCALE = float(1 << 53)

# A bucket covers 2**_BLOCK_BITS consecutive binades. With e0 the lowest
# binade of its block and o = e - e0 < 2**_BLOCK_BITS, the value
# m * 2**e is (hi * 2**26 + lo) * 2**(e0 - 53), where hi = floor(m *
# 2**(27 + o)) and lo < 2**26 are integers found exactly in float64 and
# |hi| <= 2**34. Float64 sums of such terms stay exact while a bucket
# holds at most 2**19 of them (|partial sum| <= 2**53); each row adds at
# most one term to a bucket, so rows are summed in chunks of this many.
_BLOCK_BITS = 3
_LO_BITS = 26
_LO_SCALE = float(1 << _LO_BITS)
MAX_BUCKET_TERMS = 1 << 19


def fixed_from_float(x: float) -> int:
    """Exact fixed-point image of one finite float64."""
    m, e = math.frexp(x)
    return int(m * _MANT_SCALE) << (e + 1073)


def fixed_to_float(acc: int, count: int = 1) -> float:
    """Accumulated value divided by an integer count, rounded once to float64."""
    return fixed_ratio(acc, count << _GRID_BITS)


def fixed_to_floats(accs, count: int = 1) -> list[float]:
    """`fixed_to_float(acc, count)` of every accumulated value, one shared count."""
    return fixed_ratios(accs, count << _GRID_BITS)


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


def grouped_sums_fixed(a, groups=None, ngroups: int = 1) -> list[int]:
    """Exact per-(group, column) sums of a 2-D float64 array.

    Row r of `a` is added to group `groups[r]` (every row to group 0 when
    `groups` is None). Returns `ngroups * c` fixed-point integers in
    group-major order: the sum of column j over group g is at `g * c + j`.
    Raises ValueError on a NaN or infinite value.
    """
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("grouped_sums_fixed expects a 2-D array")
    n, c = arr.shape
    if groups is None:
        groups = np.zeros(n, dtype=np.int64)
    else:
        groups = np.asarray(groups, dtype=np.int64)
        if groups.shape != (n,):
            raise ValueError("groups must hold one label per row")
        if n and (groups.min() < 0 or groups.max() >= ngroups):
            raise ValueError("group label out of range [0, %d)" % ngroups)
    if not np.isfinite(arr).all():
        raise ValueError("non-finite value (NaN or infinity) in an exact sum: "
                         "the input or a quantity computed from it is out "
                         "of float64 range")
    out = [0] * (ngroups * c)
    for start in range(0, n, MAX_BUCKET_TERMS):
        stop = min(n, start + MAX_BUCKET_TERMS)
        _accumulate(arr[start:stop], groups[start:stop], c, out)
    return out


def _accumulate(arr, groups, c, out) -> None:
    """Add the exact sums of one chunk of at most MAX_BUCKET_TERMS rows to `out`."""
    if arr.size == 0:
        return
    m, e = np.frexp(arr)
    emin = int(e.min())
    e -= emin
    block = e >> _BLOCK_BITS
    e &= (1 << _BLOCK_BITS) - 1
    nblocks = int(block.max()) + 1
    nbins = len(out) * nblocks
    key = groups[:, None] * c + np.arange(c, dtype=np.int64)
    key *= nblocks
    key += block
    del block
    # split m * 2**(53 + o) into hi * 2**26 + lo, o being e's offset in
    # its block (see the constants above)
    e += _LO_BITS + 1
    np.ldexp(m, e, out=m)
    del e
    hi = np.floor(m)
    m -= hi
    m *= _LO_SCALE
    if nbins > key.size:
        # sparse keys: number only the buckets in use, so memory follows
        # the element count and not groups x columns x exponent span
        keys, key = np.unique(key, return_inverse=True)
        nbins = keys.size
    else:
        keys = None
    hi_sum = np.bincount(key.ravel(), weights=hi.ravel(), minlength=nbins)
    lo_sum = np.bincount(key.ravel(), weights=m.ravel(), minlength=nbins)
    used = np.flatnonzero((hi_sum != 0.0) | (lo_sum != 0.0))
    bucket = used if keys is None else keys[used]
    slots = (bucket // nblocks).tolist()
    shifts = (((bucket % nblocks) << _BLOCK_BITS) + (emin + 1073)).tolist()
    his = hi_sum[used].astype(np.int64).tolist()
    los = lo_sum[used].astype(np.int64).tolist()
    for s, sh, h, l in zip(slots, shifts, his, los):
        out[s] += ((h << _LO_BITS) + l) << sh


def sum_fixed(values) -> int:
    """Exact sum of an array of float64 values as a fixed-point integer."""
    arr = np.asarray(values, dtype=np.float64).reshape(-1, 1)
    return grouped_sums_fixed(arr)[0]

