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
from parclust.exactsum import (column_sums_fixed, fixed_from_float,
                               fixed_mean, fixed_ratio, fixed_to_float,
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
    cols = column_sums_fixed(a)
    for j in range(4):
        assert cols[j] == sum_fixed(a[:, j])
    with pytest.raises(ValueError):
        column_sums_fixed(a[:, 0])


def test_fixed_mean_rounds_once():
    acc = sum_fixed([1.0, 2.0])
    assert fixed_mean(acc, 2) == 1.5
    # 1/3 is not a float64; the mean must be the correctly rounded quotient
    acc = sum_fixed([1.0])
    assert fixed_mean(acc, 3) == float(Fraction(1, 3))
    with pytest.raises(ZeroDivisionError):
        fixed_mean(acc, 0)


def test_fixed_ratio():
    num = sum_fixed([3.0])
    den = sum_fixed([2.0])
    assert fixed_ratio(num, den) == 1.5
    with pytest.raises(ZeroDivisionError):
        fixed_ratio(num, 0)


@given(st.lists(finite_floats, min_size=1, max_size=30))
@settings(deadline=None)
def test_mean_equals_rational_oracle(values):
    # a mean of finite floats never exceeds the largest input, so the
    # rational oracle always rounds to a finite float
    acc = sum_fixed(values)
    oracle = float(sum(Fraction(v) for v in values) / len(values))
    assert fixed_mean(acc, len(values)) == oracle


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


@given(hnp.arrays(np.float64, st.tuples(st.integers(0, 30), st.integers(1, 5)),
                  elements=edge_floats))
@settings(deadline=None)
def test_column_sums_are_the_one_group_call(a):
    assert column_sums_fixed(a) == grouped_sums_fixed(a)
    assert column_sums_fixed(a) == grouped_sums_fixed(
        a, np.zeros(a.shape[0], dtype=np.int64), 1)


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
        column_sums_fixed(a)
    with pytest.raises(ValueError, match="non-finite"):
        grouped_sums_fixed(a, [0, 1, 1, 0], 2)


def test_row_chunks_below_the_bucket_bound_stay_exact(monkeypatch):
    # a bound of 3 rows forces many chunks, each with its own buckets
    monkeypatch.setattr(exactsum, "MAX_BUCKET_TERMS", 3)
    rng = np.random.default_rng(3)
    a = rng.normal(size=(50, 3)) * 10.0 ** rng.integers(-300, 300, size=(50, 3))
    a[::7, 0] = MAX_FINITE
    a[1::7, 0] = -MAX_FINITE
    a[2::5, 2] = 5e-324
    groups = rng.integers(0, 4, size=50)
    got = grouped_sums_fixed(a, groups, 4)
    assert [Fraction(v, 1 << 1126) for v in got] == \
        _grouped_oracle(a, groups, 4)
    assert sum_fixed(a[:, 1]) == column_sums_fixed(a)[1]


def test_buckets_filled_to_the_term_bound_stay_exact():
    # every term but one has the largest mantissa at the top binade of the
    # block, the worst case for a bucket's float sum; past the bound the
    # partial sums would exceed 2**53 and round
    top = (1 << exactsum._BLOCK_BITS) - 1
    n = 2 * exactsum.MAX_BUCKET_TERMS + 5
    a = np.full(n, math.ldexp(1.0 - 2.0 ** -53, -40 + top))
    a[0] = math.ldexp(0.5, -40)  # pins the block to start at exponent -40
    want = Fraction(float(a[0])) + (n - 1) * Fraction(float(a[1]))
    assert Fraction(sum_fixed(a), 1 << 1126) == want
    assert Fraction(sum_fixed(-a), 1 << 1126) == -want


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


# pddp squares covariance entries in its power-iteration norms, so its data
# stays below 1e77 there; the k-means and FCM data reach 1e150
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
