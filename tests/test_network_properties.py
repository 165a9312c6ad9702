"""Property tests: LeakyReLU and the sigmoid give the bits of their plain
formulas on arbitrary float64 arrays, NaN, infinities, signed zeros and
subnormals included."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from claire.network import Activation, sigmoid

SIGNALING_NAN = np.array([0x7FF0000000000001], dtype=np.uint64).view(np.float64)[0]
FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([np.nan, -np.nan, SIGNALING_NAN, np.inf, -np.inf, 0.0, -0.0,
                     5e-324, -5e-324]))
ARRAYS = arrays(np.float64, st.tuples(st.integers(1, 9), st.integers(1, 9)), elements=FLOATS)
SMALL = settings(max_examples=60, deadline=None)


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def _signaling_nan(a):
    """NaNs whose quiet bit is clear. Arithmetic never makes one; the plain
    formula multiplies it (and so quiets it), the maximum passes it on."""
    return np.isnan(a) & ((_bits(a) & (1 << 51)) == 0)


def _same_bits_or_both_nan_at(got, want, where):
    assert np.array_equal(_bits(got)[~where], _bits(want)[~where])
    assert np.isnan(got[where]).all() and np.isnan(want[where]).all()


@SMALL
@given(ARRAYS, ARRAYS, st.sampled_from([0.01, 0.5, 1.0]))
def test_leaky_relu_is_the_where_formula(a, d, slope):
    d = np.resize(d, a.shape)
    act = Activation("leaky_relu", slope)
    with np.errstate(invalid="ignore", over="ignore", under="ignore"):
        out = act.apply(a)
        want = np.where(a > 0, a, slope * a)
        _same_bits_or_both_nan_at(out, want, _signaling_nan(a))
        _same_bits_or_both_nan_at(act.backward(d, a, out),
                                  d * np.where(a > 0, 1.0, slope), _signaling_nan(d))


@SMALL
@given(ARRAYS)
def test_sigmoid_is_the_two_sided_formula(a):
    with np.errstate(invalid="ignore", over="ignore", under="ignore"):
        e = np.exp(-np.abs(a))
        denom = 1.0 + e
        want = np.where(a >= 0, 1.0 / denom, e / denom)
        assert np.array_equal(_bits(sigmoid(a)), _bits(want))
