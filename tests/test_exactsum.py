"""The fixed-point accumulator is the load-bearing wall: every claim of
bit-identical results across node counts reduces to these properties."""

import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from parclust import exactsum
from parclust.comm import CommWorld
from parclust.core import DataSet, generate_blobs
from parclust.exactsum import (fixed_from_float, fixed_ratio, fixed_ratios,
                               fixed_to_float, fixed_to_floats,
                               grouped_sums_fixed, sum_fixed)
from parclust.fcm import FcmParams, pfcm
from parclust.kmeans import KMeansParams, pkm
from parclust.pddp import pddp_km

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
MAX_FINITE = sys.float_info.max
# zeros of both signs, subnormals and the largest finite values, among the rest
edge_floats = st.one_of(
    finite_floats,
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                     MAX_FINITE, -MAX_FINITE, 1.0, -1.0]))


@given(finite_floats)
def test_fixed_round_trip_is_lossless(x):
    assert fixed_to_float(fixed_from_float(x)) == x


@given(st.lists(finite_floats, min_size=0, max_size=60))
@settings(deadline=None)
def test_sum_matches_exact_rational_oracle(values):
    oracle = sum(Fraction(v) for v in values)
    assert Fraction(sum_fixed(values), 1 << 1126) == oracle


@given(st.lists(finite_floats, min_size=1, max_size=60),
       st.randoms(use_true_random=False))
@settings(deadline=None)
def test_sum_is_grouping_and_order_free(values, rnd):
    whole = sum_fixed(values)
    shuffled = list(values)
    rnd.shuffle(shuffled)
    cut = rnd.randrange(len(shuffled) + 1)
    assert sum_fixed(shuffled[:cut]) + sum_fixed(shuffled[cut:]) == whole


def test_fixed_from_float_small_values():
    tiny = 5e-324  # smallest subnormal, 2**-1074, i.e. 2**52 grid units
    assert fixed_from_float(tiny) == 1 << 52
    assert fixed_to_float(1 << 52) == tiny


def test_sum_simple_arithmetic():
    assert fixed_to_float(sum_fixed([1.0, 2.0, 3.0])) == 6.0
    assert sum_fixed([]) == 0
    assert fixed_to_float(sum_fixed([0.1] * 10)) == float(Fraction(0.1) * 10)


def test_column_sums_match_per_column_loop():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(23, 4)) * 1e3
    cols = grouped_sums_fixed(a)
    for j in range(4):
        assert cols[j] == sum_fixed(a[:, j])
    assert cols == grouped_sums_fixed(a, np.zeros(23, dtype=np.int64), 1)
    with pytest.raises(ValueError):
        grouped_sums_fixed(a[:, 0])


def test_mean_rounds_once():
    acc = sum_fixed([1.0, 2.0])
    assert fixed_to_float(acc, 2) == 1.5
    # 1/3 is not a float64; the mean must be the correctly rounded quotient
    acc = sum_fixed([1.0])
    assert fixed_to_float(acc, 3) == float(Fraction(1, 3))
    with pytest.raises(ZeroDivisionError):
        fixed_to_float(acc, 0)


def test_fixed_ratio():
    num = sum_fixed([3.0])
    den = sum_fixed([2.0])
    assert fixed_ratio(num, den) == 1.5
    assert fixed_ratio(-num, -den) == 1.5
    assert fixed_ratio(0, -den).hex() == "0x0.0p+0"  # +0.0, as with Fraction
    with pytest.raises(ZeroDivisionError):
        fixed_ratio(num, 0)


@given(st.lists(finite_floats, min_size=1, max_size=30))
@settings(deadline=None)
def test_mean_equals_rational_oracle(values):
    # a mean of finite floats never exceeds the largest input, so the
    # rational oracle always rounds to a finite float
    acc = sum_fixed(values)
    oracle = float(sum(Fraction(v) for v in values) / len(values))
    assert fixed_to_float(acc, len(values)) == oracle


def _rational_oracle(num, den):
    """float(Fraction(num, den)), or None where it is beyond float64."""
    try:
        return float(Fraction(num, den))
    except OverflowError:
        return None


# grid values of single floats (subnormals up to the largest finite), of
# short sums (up to 8 times the largest finite, beyond float64) and of
# arbitrary integers
grid_values = st.one_of(
    st.builds(fixed_from_float, edge_floats),
    st.lists(edge_floats, max_size=8).map(sum_fixed),
    st.integers(-(1 << 2200), 1 << 2200),
)


@given(grid_values, st.integers(1, 1 << 20))
@settings(deadline=None, max_examples=300)
def test_fixed_to_float_matches_rational_oracle(acc, count):
    want = _rational_oracle(acc, count << 1126)
    if want is None:
        with pytest.raises(ValueError, match="out of float64 range"):
            fixed_to_float(acc, count)
    else:
        assert fixed_to_float(acc, count).hex() == want.hex()


@given(grid_values, grid_values.filter(bool))
@settings(deadline=None, max_examples=300)
def test_fixed_ratio_matches_rational_oracle(num, den):
    want = _rational_oracle(num, den)
    if want is None:
        with pytest.raises(ValueError, match="out of float64 range"):
            fixed_ratio(num, den)
    else:
        assert fixed_ratio(num, den).hex() == want.hex()


def _each_or_none(f, values, shared):
    """[f(v, shared) for v in values], or None if any raises ValueError."""
    try:
        return [f(v, shared).hex() for v in values]
    except ValueError:
        return None


@given(st.lists(grid_values, max_size=10), st.integers(1, 1 << 20))
@settings(deadline=None, max_examples=300)
def test_fixed_to_floats_equals_fixed_to_float_of_each(accs, count):
    oracle = [_rational_oracle(a, count << 1126) for a in accs]
    want = _each_or_none(fixed_to_float, accs, count)
    assert want == (None if None in oracle else [v.hex() for v in oracle])
    if want is None:
        with pytest.raises(ValueError, match="out of float64 range"):
            fixed_to_floats(accs, count)
    else:
        assert [v.hex() for v in fixed_to_floats(accs, count)] == want


@given(st.lists(grid_values, max_size=10), grid_values.filter(bool))
@settings(deadline=None, max_examples=300)
def test_fixed_ratios_equals_fixed_ratio_of_each(nums, den):
    oracle = [_rational_oracle(n, den) for n in nums]
    want = _each_or_none(fixed_ratio, nums, den)
    assert want == (None if None in oracle else [v.hex() for v in oracle])
    if want is None:
        with pytest.raises(ValueError, match="out of float64 range"):
            fixed_ratios(nums, den)
    else:
        assert [v.hex() for v in fixed_ratios(nums, den)] == want


def test_fixed_to_floats_signs_and_range():
    third = sum_fixed([1.0])
    assert [v.hex() for v in fixed_to_floats([0, -third, third], 3)] == \
        ["0x0.0p+0", float(Fraction(-1, 3)).hex(), float(Fraction(1, 3)).hex()]
    assert fixed_ratios([0, third], -third) == [0.0, -1.0]
    assert math.copysign(1.0, fixed_ratios([0], -third)[0]) == 1.0
    twice_max = sum_fixed([MAX_FINITE, MAX_FINITE])
    with pytest.raises(ValueError, match="out of float64 range"):
        fixed_to_floats([third, twice_max], 1)
    assert fixed_to_floats([twice_max], 2) == [MAX_FINITE]
    assert fixed_to_floats([], 5) == []


def test_sum_beyond_float_range_raises_value_error():
    twice_max = sum_fixed([MAX_FINITE, MAX_FINITE])
    with pytest.raises(ValueError, match="out of float64 range"):
        fixed_to_float(twice_max)
    assert fixed_to_float(twice_max, 2) == MAX_FINITE
    with pytest.raises(ValueError, match="out of float64 range"):
        fixed_ratio(twice_max, 1 << 1126)
    # the smallest subnormal over a large count underflows to zero
    assert fixed_to_float(fixed_from_float(5e-324), 1 << 20) == 0.0
    assert fixed_to_float(fixed_from_float(-5e-324), 3).hex() == "-0x0.0p+0"


def _grouped_oracle(a, groups, ngroups):
    """Per-(group, column) sums as exact rationals, group-major."""
    n, c = a.shape
    out = [Fraction(0)] * (ngroups * c)
    for r in range(n):
        for j in range(c):
            out[int(groups[r]) * c + j] += Fraction(float(a[r, j]))
    return out


@st.composite
def grouped_inputs(draw, max_rows=40):
    n = draw(st.integers(0, max_rows))
    c = draw(st.integers(1, 4))
    ngroups = draw(st.integers(1, 5))
    a = draw(hnp.arrays(np.float64, (n, c), elements=edge_floats))
    # groups may be left empty: labels are drawn from a subset
    groups = draw(hnp.arrays(np.int64, (n,),
                             elements=st.integers(0, ngroups - 1)))
    return a, groups, ngroups


@given(grouped_inputs())
@settings(deadline=None, max_examples=200)
def test_grouped_sums_match_rational_oracle(case):
    a, groups, ngroups = case
    got = grouped_sums_fixed(a, groups, ngroups)
    want = _grouped_oracle(a, groups, ngroups)
    assert len(got) == len(want)
    assert [Fraction(v, 1 << 1126) for v in got] == want


@given(grouped_inputs(), st.data())
@settings(deadline=None)
def test_grouped_sums_add_over_a_row_split(case, data):
    a, groups, ngroups = case
    cut = data.draw(st.integers(0, a.shape[0]))
    head = grouped_sums_fixed(a[:cut], groups[:cut], ngroups)
    tail = grouped_sums_fixed(a[cut:], groups[cut:], ngroups)
    assert [x + y for x, y in zip(head, tail)] == \
        grouped_sums_fixed(a, groups, ngroups)


def _layouts(a):
    """`a` as C-order, Fortran-order and strided copies; the strided one
    is every other row of a NaN-padded array, so a read outside it raises."""
    n, c = a.shape
    padded = np.full((2 * n, c + 1), np.nan)
    padded[::2, 1:] = a
    return {"C": np.ascontiguousarray(a), "F": np.asfortranarray(a),
            "strided": padded[::2, 1:]}


@given(grouped_inputs())
@settings(deadline=None, max_examples=200)
def test_sums_do_not_depend_on_the_layout(case):
    a, groups, ngroups = case
    want = _grouped_oracle(a, groups, ngroups)
    want_cols = _grouped_oracle(a, np.zeros(len(a), dtype=np.int64), 1)
    for name, x in _layouts(a).items():
        got = grouped_sums_fixed(x, groups, ngroups)
        assert [Fraction(v, 1 << 1126) for v in got] == want, name
        got = grouped_sums_fixed(x)
        assert [Fraction(v, 1 << 1126) for v in got] == want_cols, name


@pytest.mark.parametrize("bucket", [None, 3])
@pytest.mark.parametrize("view", ["C", "F", "rows-and-columns", "T",
                                  "read-only"])
def test_the_kernel_never_writes_to_its_input(view, bucket, monkeypatch):
    # slices are peeled off in place, so only a private copy may be written
    if bucket is not None:  # many chunks
        monkeypatch.setattr(exactsum, "MAX_BUCKET_TERMS", bucket)
    rng = np.random.default_rng(5)
    base = rng.normal(size=(41, 5)) * 10.0 ** rng.integers(-300, 300,
                                                             size=(41, 5))
    base[::6, 2] = MAX_FINITE
    base[1::6, 3] = -5e-324
    if view == "F":
        base = np.asfortranarray(base)
    x = {"rows-and-columns": base[::2, 1:], "T": base.T}.get(view, base)
    if view == "read-only":
        base.setflags(write=False)
    before = base.copy()
    groups = rng.integers(0, 4, size=len(x))
    got = [grouped_sums_fixed(x), grouped_sums_fixed(x, groups, 4),
           sum_fixed(x[:, 0]), sum_fixed(x)]
    assert base.tobytes() == before.tobytes()
    assert [Fraction(v, 1 << 1126) for v in got[1]] == \
        _grouped_oracle(x, groups, 4)
    assert got[0][0] == got[2]
    assert got[3] == sum(got[0])


def test_grouped_sums_reject_bad_groups():
    a = np.ones((3, 2))
    with pytest.raises(ValueError):
        grouped_sums_fixed(a, [0, 1, 2], 2)
    with pytest.raises(ValueError):
        grouped_sums_fixed(a, [0, -1, 0], 2)
    with pytest.raises(ValueError):
        grouped_sums_fixed(a, [0, 1], 2)
    with pytest.raises(ValueError):
        grouped_sums_fixed(a[:, 0], None, 1)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_input_raises(bad):
    with pytest.raises(ValueError, match="non-finite"):
        sum_fixed([bad])
    with pytest.raises(ValueError, match="non-finite"):
        sum_fixed([1.0, bad, 2.0])
    a = np.ones((4, 3))
    a[2, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        grouped_sums_fixed(a)
    with pytest.raises(ValueError, match="non-finite"):
        grouped_sums_fixed(a, [0, 1, 1, 0], 2)


def _ones_below(e: int) -> float:
    """The largest float64 below 2**e: all 53 mantissa bits set."""
    return math.ldexp(1.0 - 2.0 ** -53, e)


def test_row_chunks_below_the_bucket_bound_stay_exact(monkeypatch):
    # a bound of 3 rows forces many chunks, each taking slices of 50 bits
    monkeypatch.setattr(exactsum, "MAX_BUCKET_TERMS", 3)
    rng = np.random.default_rng(3)
    a = rng.normal(size=(50, 3)) * 10.0 ** rng.integers(-300, 300, size=(50, 3))
    a[::7, 0] = MAX_FINITE
    a[1::7, 0] = -MAX_FINITE
    a[2::5, 2] = 5e-324
    # whole chunks whose every term fills the top slice of its column
    a[9:15, 1] = _ones_below(40)
    a[15:18] = -_ones_below(-1000)
    groups = rng.integers(0, 4, size=50)
    groups[15:18] = 2
    got = grouped_sums_fixed(a, groups, 4)
    assert [Fraction(v, 1 << 1126) for v in got] == \
        _grouped_oracle(a, groups, 4)
    assert sum_fixed(a[:, 1]) == grouped_sums_fixed(a)[1]


def test_buckets_filled_to_the_term_bound_stay_exact():
    # every term has the largest mantissa of the top binade, so each one
    # truncates to 2**bits - 1 in the first slice, the worst case for a
    # slice's float sum: n * 2**bits reaches 2**52 (2**51 for a full chunk);
    # two bits more and the partial sums would pass 2**53 and round
    x = _ones_below(-40)
    for n in (exactsum.MAX_BUCKET_TERMS - 1, exactsum.MAX_BUCKET_TERMS,
              2 * exactsum.MAX_BUCKET_TERMS + 5):
        a = np.full(n, x)
        assert Fraction(sum_fixed(a), 1 << 1126) == n * Fraction(x)
        assert Fraction(sum_fixed(-a), 1 << 1126) == -n * Fraction(x)
        got = grouped_sums_fixed(a.reshape(-1, 1), np.arange(n) % 2, 2)
        assert [Fraction(v, 1 << 1126) for v in got] == \
            [(n - n // 2) * Fraction(x), n // 2 * Fraction(x)]


@pytest.mark.parametrize("column", [
    [MAX_FINITE, 5e-324, -MAX_FINITE],       # both ends of the range
    [MAX_FINITE, -5e-324, MAX_FINITE, 5e-324, MAX_FINITE],
    [2.0 ** 1023, -(2.0 ** 1023), 2.0 ** 1023, 1.0],  # E = 1024 exactly
    [2.0 ** 1023],
    [5e-324, -1e-310, 2.2250738585072004e-308, 3e-320],  # subnormals only
    [5e-324] * 7,
    [0.0, 0.0, 0.0],
    [-0.0, -0.0],
    [0.0, -0.0, 0.0],
])
def test_extreme_columns_match_rational_oracle(column):
    a = np.array(column).reshape(-1, 1)
    want = sum(Fraction(v) for v in column)
    assert Fraction(sum_fixed(column), 1 << 1126) == want
    wide = np.hstack([a, -a, a[::-1]])
    groups = np.arange(len(column)) % 3
    got = grouped_sums_fixed(wide, groups, 3)
    assert [Fraction(v, 1 << 1126) for v in got] == \
        _grouped_oracle(wide, groups, 3)


class _CountingNumpy:
    """numpy, with each call of `trunc` (one a slice) counted."""

    def __init__(self, slices):
        self._slices = slices

    def __getattr__(self, name):
        return getattr(np, name)

    def trunc(self, *args, **kwargs):
        self._slices[-1] += 1
        return np.trunc(*args, **kwargs)


def test_lloyd_pass_sums_take_at_most_three_slices(monkeypatch):
    # each slice takes 52 - n.bit_length() binades off the top, so the
    # exact sums of a Lloyd pass take 2 slices, a few 3; one slice per
    # binade would take dozens
    X0, _ = generate_blobs(seed=1, k=4, per_cluster=500, d=8, spread=1.0,
                           separation=0.5)
    X = DataSet.from_points(X0.points * np.array([16.0, 4.0] + [1.0] * 6))
    slices = []
    accumulate = exactsum._accumulate

    def counted(*args):
        slices.append(0)
        return accumulate(*args)

    monkeypatch.setattr(exactsum, "_accumulate", counted)
    monkeypatch.setattr(exactsum, "np", _CountingNumpy(slices))
    world = CommWorld(1)
    try:
        pkm(world, X, KMeansParams(k=4, max_iter=8))
        pfcm(world, X, FcmParams(k=4, max_iter=8))
        pddp_km(world, X, height=2, max_iter=8)
    finally:
        world.shutdown()
    assert len(slices) > 100
    assert max(slices) <= 3
    assert slices.count(2) > len(slices) // 2


def test_wide_exponent_span_with_many_slots_stays_small():
    # 3000 group x column slots over ~2000 binades: a dense bucket array
    # would hold 3000 * 2000 * 8 B = 48 MB per part
    rng = np.random.default_rng(11)
    n, c, ngroups = 2000, 3, 1000
    a = rng.uniform(1.0, 2.0, size=(n, c)) * 10.0 ** rng.integers(
        -300, 301, size=(n, c))
    a[rng.random((n, c)) < 0.5] *= -1.0
    groups = rng.integers(0, ngroups, size=n)
    tracemalloc.start()
    try:
        got = grouped_sums_fixed(a, groups, ngroups)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * a.nbytes  # ~3 MB; the elements alone are 48 kB
    assert [Fraction(v, 1 << 1126) for v in got] == \
        _grouped_oracle(a, groups, ngroups)


def _wide_magnitude_data(top):
    """Blobs whose four columns sit at `top`, 1e20, 1e-50 and 1e-150, the
    last three scaled row by row over 100 more decades."""
    X, _ = generate_blobs(seed=4, k=3, per_cluster=20, d=4, spread=1.0,
                          separation=8.0)
    rng = np.random.default_rng(4)
    pts = X.points * np.array([top, 1e20, 1e-50, 1e-150])
    pts[:, 1:] *= 10.0 ** rng.integers(-100, 1, size=(X.n, 1))
    return DataSet.from_points(pts)


# the k-means and FCM data reach 1e150 and the pddp-km data 1e70
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name,top,run", [
    ("pkm", 1e150, lambda w, X: pkm(w, X, KMeansParams(k=3, seed=2))),
    ("pfcm", 1e150, lambda w, X: pfcm(w, X, FcmParams(k=3, seed=2,
                                                      max_iter=30))),
    ("pddp-km", 1e70, lambda w, X: pddp_km(w, X, height=2)),
])
def test_wide_magnitude_runs_are_bit_identical_across_node_counts(name, top,
                                                                  run):
    X = _wide_magnitude_data(top)
    reports = {}
    for p in (1, 2, 3):
        world = CommWorld(p)
        try:
            reports[p] = run(world, X)
        finally:
            world.shutdown()
    ref = reports[1]
    assert np.isfinite(ref.j) and ref.j > 0
    assert len(np.unique(ref.labels)) > 1
    for p in (2, 3):
        rep = reports[p]
        assert np.array_equal(rep.labels, ref.labels), p
        assert rep.j == ref.j, p
        assert np.array_equal(rep.centroids, ref.centroids), p
