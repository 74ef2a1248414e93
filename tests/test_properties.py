"""Property tests over random connected graphs and (p, k): the Stein
solve against the dense second-moment operator, and the sandwich chain."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ridlnoise import RidlConfig, compute_noise_report
from ridlnoise.graphs import _build

from oracles import dense_exact


@st.composite
def connected_graphs(draw):
    """A random spanning tree on 2..9 nodes plus random extra edges."""
    n = draw(st.integers(min_value=2, max_value=9))
    tree = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    extra = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return _build(n, tree + [e for e, keep in zip(pairs, extra) if keep])


@given(
    g=connected_graphs(),
    p=st.floats(min_value=0.05, max_value=1.0),
    k=st.floats(min_value=0.05, max_value=0.99),
)
def test_stein_solve_matches_dense_and_sandwich(g, p, k):
    cfg = RidlConfig.for_graph(g, p=p, sigma2=1.0, k=k)
    rep = compute_noise_report(g, cfg)
    assert rep.exact.j == pytest.approx(dense_exact(g, cfg), rel=1e-10)
    chain = [rep.j_res_lb, rep.j_lb, rep.exact.j, rep.j_ub, rep.j_res_ub]
    assert np.all(np.diff(chain) >= -1e-9)
