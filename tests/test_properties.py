"""Property tests: the exact solver against the brute force oracle."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import zforce as zf  # noqa: E402


@st.composite
def small_graphs(draw) -> zf.Graph:
    n = draw(st.integers(min_value=1, max_value=9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return zf.Graph.from_edges(n, [e for e, keep in zip(pairs, present) if keep])


@settings(max_examples=200, deadline=None)
@given(small_graphs())
def test_solver_matches_oracle_with_a_forcing_witness(g):
    res = zf.zero_forcing_number(g)
    assert res.value == zf.brute_force_oracle(g).value
    assert res.witness.bit_count() == res.value
    assert zf.is_zero_forcing_set(g, res.witness)
