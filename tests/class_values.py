"""Observable-class test helpers shared by the `classify` and `bound_check` tests."""

from hypothesis import strategies as st

from eigenlogic import ObservableClass


def reference_classes(values, tol):
    """`classify`, one eigenvalue at a time in plain Python."""
    near_zero = [abs(v) <= tol for v in values]
    near_one = [abs(v - 1.0) <= tol for v in values]
    near_minus_one = [abs(v + 1.0) <= tol for v in values]
    return ObservableClass(
        is_projector=all(z or o for z, o in zip(near_zero, near_one)),
        is_isometry=all(o or m for o, m in zip(near_one, near_minus_one)),
        is_identity=all(near_one),
        is_zero=all(near_zero),
    )


# Exact class values, values a hair away from them, and arbitrary ones.
NEAR_CLASS_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.builds(
        lambda v, d: v + d,
        st.sampled_from([0.0, 1.0, -1.0]),
        st.sampled_from([1e-13, -1e-13, 1e-12, -1e-12, 2e-12, 0.25, -0.5, 0.55, 1.0]),
    ),
    st.floats(-3, 3, allow_nan=False),
)
