"""Fixed loci and ramification on small projective actions.

Every matrix here is tiny enough to reason about eigenspaces by hand.  The
one heavier test feeds actual symmetric-power decompositions through the
growth fitter to pin the nonfree part's degree under the ramification bound.
"""

import numpy as np
import pytest

from sympow.gf import make_field
from sympow.geometry import EMPTY, fixed_dims, ramification
from sympow.groups import close_group, sym_power
from sympow.modules import Registry, decompose, nonfree
from sympow.polyfit import growth_degree


def close(p, e, *gens):
    return close_group(make_field(p, e), [np.array(g, dtype=np.int64) for g in gens])


def _inv(G, h):
    out, cur = 0, h
    for _ in range(G.element_order(h) - 1):
        out = cur
        cur = G.mult(cur, h)
    return out if G.element_order(h) > 1 else 0


def test_identity_fixes_all_of_projective_space():
    G = close(3, 1, [[1, 1], [0, 1]])
    assert fixed_dims(G, 0) == [(0, 1)]


def test_transvection_fixes_one_point():
    # ker(J2 - I) is a line, so the fixed locus on P^1 is a single point
    G = close(2, 1, [[1, 1], [0, 1]])
    assert fixed_dims(G, 1) == [(0, 0)]


def test_diagonal_fixes_line_and_point():
    G = close(2, 2, [[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    g = next(i for i in range(1, G.order) if G.elements[i][2, 2] == 2)
    assert fixed_dims(G, g) == [(0, 1), (1, 0)]


def test_mixed_order_element_uses_p_prime_part():
    # [[w,1],[0,w]] over GF(4) has order 6; its eigenvalues are those of the
    # order-3 semisimple part, a single w with geometric multiplicity 1
    G = close(2, 2, [[2, 1], [0, 2]])
    g = next(i for i in range(G.order) if G.element_order(i) == 6)
    assert fixed_dims(G, g) == [(1, 0)]


def test_cp_on_line_ramifies_at_one_point():
    G = close(2, 1, [[1, 1], [0, 1]])
    rep = ramification(G)
    assert rep["dimB"] == 0 and rep["dimBp"] == 0
    assert rep["c"] == 0 and rep["cp"] == 0
    assert rep["generically_free"] and rep["faithful_on_P"]
    assert rep["elements"][0]["order"] == 2


def test_gl2f2_on_line_has_finite_ramification():
    G = close(2, 1, [[0, 1], [1, 0]], [[1, 1], [0, 1]])
    assert G.order == 6
    rep = ramification(G)
    assert rep["c"] == 0 and rep["cp"] == 0
    two_elts = [e for e in rep["elements"] if e["order"] == 2]
    assert len(two_elts) == 3
    for e in two_elts:
        assert e["fixed"] == [[0, 0]]


def test_fixed_line_on_plane_gives_cp_one():
    G = close(2, 1, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    rep = ramification(G)
    assert rep["cp"] == 1 and rep["c"] == 1
    assert rep["dimBp"] == 1


def test_no_p_elements_means_empty_bp():
    # diag(2,1) over GF(7) generates a 7'-group, so B_7 is the empty locus
    G = close(7, 1, [[2, 0], [0, 1]])
    rep = ramification(G)
    assert rep["dimBp"] == "empty" and rep["cp"] == "empty"
    assert rep["dimB"] == 0


def test_dim_bp_never_exceeds_dim_b():
    fixtures = [
        close(2, 1, [[1, 1], [0, 1]]),
        close(2, 1, [[0, 1], [1, 0]], [[1, 1], [0, 1]]),
        close(2, 1, [[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
        close(7, 1, [[2, 0], [0, 1]]),
    ]
    for G in fixtures:
        rep = ramification(G)
        b, bp = (EMPTY if v == "empty" else v for v in (rep["dimB"], rep["dimBp"]))
        assert bp <= b


def test_scalar_element_is_a_hard_error():
    G = close(2, 2, [[2, 0], [0, 2]])
    with pytest.raises(ValueError, match="scalar"):
        ramification(G)


def test_conjugation_invariance_of_fixed_dims():
    G = close(2, 1, [[0, 1], [1, 0]], [[1, 1], [0, 1]])
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = int(rng.integers(1, G.order))
        h = int(rng.integers(0, G.order))
        conj = G.mult(G.mult(h, g), _inv(G, h))
        assert fixed_dims(G, conj) == fixed_dims(G, g)
        assert sum(d + 1 for _, d in fixed_dims(G, g)) <= G.dim


def test_nonfree_growth_degree_within_cp():
    G = close(3, 1, [[1, 1], [0, 1]])
    ram = ramification(G)
    assert ram["cp"] == 0
    reg = Registry(G)
    dims = []
    for n in range(15):
        vec = decompose(sym_power(G, n), reg, seed=3)
        dims.append(reg.dim_of(nonfree(vec, reg, seed=3)))
    assert dims[:6] == [1, 2, 0, 1, 2, 0]
    fit = growth_degree(dims, 3)
    assert fit["ok"] and fit["degree"] <= ram["cp"]
    full = growth_degree([n + 1 for n in range(15)], 3)
    assert full["degree"] == 1
