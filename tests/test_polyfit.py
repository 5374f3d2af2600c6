"""Polynomial description detection, exercised against closed forms.

The main oracle is the cyclic-p case: multiplicities of Sym^n over C_p follow
first-degree polynomials in t for n = t*p + a, computable by hand from the
division n+1 = s*p + u.  detect_description has to rediscover exactly that.
"""

from fractions import Fraction

import pytest

from sympow.groups import monomials, sym_dim
from sympow.polyfit import (PolynomialDescription, delta,
                            detect_description, eval_poly, fit_polynomial_tail,
                            growth_degree)


def cp_vector(p: int, n: int) -> dict[int, int]:
    """Jordan type of Sym^n for C_p in characteristic p, ids = block sizes.

    Sym^n of the 2-dim faithful module is J_p^s + J_u with n+1 = s*p + u,
    except u = 0, where it is plain J_p^s.
    """
    s, u = divmod(n + 1, p)
    out = {}
    if s:
        out[p] = s
    if u:
        out[u] = out.get(u, 0) + 1
    return out


def test_delta_basics():
    assert delta([1, 4, 9, 16]) == [3, 5, 7]
    assert delta([7]) == []


def test_fit_constant_tail():
    n0, coeffs = fit_polynomial_tail([5, 5, 5, 5, 5], 0)
    assert n0 == 0
    assert coeffs == [Fraction(5)]


def test_fit_line_dimension_count():
    # dim Sym^n in 2 variables is n + 1
    seq = [n + 1 for n in range(8)]
    n0, coeffs = fit_polynomial_tail(seq, 1)
    assert n0 == 0
    assert coeffs == [Fraction(1), Fraction(1)]


def test_fit_eventually_polynomial():
    # garbage head, quadratic tail
    seq = [99, -3, 0] + [(n * n + 1) for n in range(3, 12)]
    n0, coeffs = fit_polynomial_tail(seq, 2)
    assert n0 == 3
    assert eval_poly(coeffs, 5) == 26


def test_fit_of_integers_has_fraction_coefficients():
    # differences stay integers, but the Newton basis divides by ell!, so
    # n(n+1)/2 needs halves and every coefficient is a Fraction
    n0, coeffs = fit_polynomial_tail([n * (n + 1) // 2 for n in range(8)], 2)
    assert n0 == 0
    assert coeffs == [Fraction(0), Fraction(1, 2), Fraction(1, 2)]
    assert all(type(c) is Fraction for c in coeffs)
    n0, coeffs = fit_polynomial_tail([5, 5, 5, 5, 5], 0)
    assert all(type(c) is Fraction for c in coeffs)


def test_fit_rejects_exponential():
    assert fit_polynomial_tail([2**n for n in range(10)], 3) is None


def test_fit_rejects_short_input():
    with pytest.raises(ValueError):
        fit_polynomial_tail([1, 2], 1)


def test_fit_trims_trailing_zero_coeffs():
    n0, coeffs = fit_polynomial_tail([4, 4, 4, 4, 4, 4], 3)
    assert n0 == 0
    assert coeffs == [Fraction(4)]


def test_all_zero_sequence_fits_from_zero():
    n0, coeffs = fit_polynomial_tail([0] * 6, 1)
    assert n0 == 0
    assert coeffs == [Fraction(0)]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_detect_cp_closed_form(p):
    seq = [cp_vector(p, n) for n in range(14 * p)]
    desc = detect_description(seq, m_candidates=[1, p, p * p], dmax=3)
    assert desc is not None
    assert desc.m == p
    assert max(len(c) - 1 for c in desc.polys.values()) == 1
    # replay every degree past the threshold, and spot-read the shape:
    # at n = t*p + a the free multiplicity is t + (a+1)//p ... check directly
    for n in range(desc.t_min * p, 14 * p):
        assert desc.vector_at(n) == seq[n]
    # the non-free block J_(a+1) appears exactly once in residue a < p-1
    for a in range(p - 1):
        assert desc.polys[(a, a + 1)] == [Fraction(1)]


def test_detect_prefers_least_period():
    seq = [{1: n + 1} for n in range(20)]
    desc = detect_description(seq, m_candidates=[1, 2, 4], dmax=2)
    assert desc is not None
    assert desc.m == 1
    assert max(len(c) - 1 for c in desc.polys.values()) == 1


def test_detect_gives_up_on_exponential():
    seq = [{1: 2**n} for n in range(16)]
    assert detect_description(seq, m_candidates=[1, 2], dmax=4) is None


def test_detect_needs_enough_per_residue():
    seq = [{1: 1} for _ in range(8)]
    # period 4 leaves 2 entries per residue, below dmax+3+holdout
    assert detect_description(seq, m_candidates=[4], dmax=1) is None


def test_description_json_round_shape():
    seq = [cp_vector(2, n) for n in range(30)]
    desc = detect_description(seq, m_candidates=[1, 2, 4], dmax=2)
    blob = desc.to_json()
    assert blob["m"] == 2
    assert len(blob["residues"]) == 2
    for entry in blob["residues"]:
        for term in entry["terms"]:
            for c in term["coeffs"]:
                num, den = c.split("/")
                int(num), int(den)


def test_multiplicity_raises_off_range():
    desc = PolynomialDescription(m=1, t_min=0, ids=[1],
                                 polys={(0, 1): [Fraction(-1), Fraction(1)]})
    assert desc.multiplicity(0, 1, 5) == 4
    with pytest.raises(ValueError):
        desc.multiplicity(0, 1, 0)  # evaluates to -1


def test_growth_degree_projective_plane():
    dims = [sym_dim(3, n) for n in range(24)]
    rep = growth_degree(dims, 1)
    assert rep["ok"] and rep["degree"] == 2


def test_growth_degree_empty_residue():
    dims = [n if n % 2 else 0 for n in range(24)]
    rep = growth_degree(dims, 2)
    assert rep["residues"][0]["degree"] == "empty"
    assert rep["ok"] and rep["degree"] == 1


def test_growth_degree_all_zero():
    rep = growth_degree([0] * 12, 1)
    assert rep["ok"] and rep["degree"] == "empty"


def test_bounded_growth_exact_fit():
    # a degree bound that admits the exact fit, and one that does not
    dims = [sym_dim(2, n) for n in range(12)]
    rep = growth_degree(dims, 1, dmax=1)
    assert rep["ok"] and rep["degree"] == 1
    assert not growth_degree([sym_dim(3, n) for n in range(12)], 1, dmax=1)["ok"]


def test_binomial_dim_matches_monomial_count():
    # the Hilbert function of projective d-space, as the growth tests use it
    assert [sym_dim(3, n) for n in range(5)] == [len(monomials(3, n)) for n in range(5)]
    assert [sym_dim(3, n) for n in range(5)] == [1, 3, 6, 10, 15]
    assert sym_dim(4, 7) == 120
