"""Field layer: canonical moduli, arithmetic axioms, roots, text form."""

import itertools
import random

import pytest

from sympow import gf
from sympow.gf import CapacityError, extension, make_field


def poly_mod(a, b, p):
    """Remainder of a by b over GF(p), coefficient lists little-endian, trimmed."""
    a = list(a)
    while len(a) >= len(b):
        if a[-1] == 0:
            a.pop()
            continue
        c = a[-1] * pow(b[-1], p - 2, p) % p
        off = len(a) - len(b)
        for i in range(len(b)):
            a[off + i] = (a[off + i] - c * b[i]) % p
        while a and a[-1] == 0:
            a.pop()
    return a


def monic_polys(p, deg):
    """Every monic degree-deg polynomial over GF(p), coefficient-lex order."""
    return [list(tail) + [1] for tail in itertools.product(range(p), repeat=deg)]


def brute_force_least_irreducible(p, e, max_deg=None):
    """Independent oracle: trial-divide every monic degree-e poly, in
    coefficient-lex order (constant coefficient most significant), by every
    monic poly of degree 1..max_deg (default e-1).  Only viable for tiny
    p^e."""
    divisors = [g for deg in range(1, e if max_deg is None else max_deg + 1)
                for g in monic_polys(p, deg)]
    for f in monic_polys(p, e):
        if all(poly_mod(f, g, p) for g in divisors):
            return tuple(f)
    raise AssertionError("no irreducible found")


@pytest.mark.parametrize(
    "p,e,expected",
    [
        (2, 1, (0, 1)),
        (2, 2, (1, 1, 1)),  # x^2+x+1, the unique irreducible quadratic
        (3, 2, (1, 0, 1)),  # x^2+1
        # past the brute-force oracle's reach; recorded on the Rabin-test scan
        (2, 12, (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1)),
        (2, 16, (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 1)),
        (3, 8, (1, 0, 0, 0, 0, 1, 1, 0, 1)),
        (3, 10, (1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 1)),
        (5, 7, (1, 0, 0, 0, 0, 0, 1, 1)),
        (7, 5, (1, 0, 0, 0, 3, 1)),
        (13, 4, (1, 0, 0, 1, 1)),
        (46337, 2, (1, 1, 1)),
    ],
)
def test_canonical_modulus_examples(p, e, expected):
    assert make_field(p, e).modulus == expected


@pytest.mark.parametrize("p,e", [(2, 2), (3, 2), (2, 3), (2, 4), (5, 2), (7, 2), (3, 3)])
def test_canonical_modulus_matches_brute_force(p, e):
    F = make_field(p, e)
    assert F.modulus == brute_force_least_irreducible(p, e), f"modulus scan disagrees for GF({p}^{e})"


@pytest.mark.parametrize("p,e", [(2, e) for e in range(2, 9)] + [(3, e) for e in range(2, 6)]
                         + [(5, e) for e in range(2, 5)])
def test_canonical_modulus_is_the_first_candidate_without_a_small_factor(p, e):
    # a reducible degree-e polynomial has a factor of degree <= e/2
    assert gf._canonical_modulus(p, e) == brute_force_least_irreducible(p, e, e // 2)


def test_canonical_modulus_runs_few_rabin_tests(monkeypatch):
    """Candidates divisible by x or with a root in GF(p) never reach the
    irreducibility test: for GF(2^12) the plain scan ran it 2,053 times."""
    calls = []
    real = gf._is_irreducible
    monkeypatch.setattr(gf, "_is_irreducible", lambda f, p: calls.append(f) or real(f, p))
    assert gf._canonical_modulus(2, 12) == (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1)
    assert len(calls) <= 5


@pytest.mark.parametrize("p,max_deg", [(2, 6), (3, 4), (5, 3), (7, 3)])
def test_is_irreducible_matches_trial_division(p, max_deg):
    """Ben-Or's verdict on every monic polynomial of degree 1..max_deg."""
    for deg in range(1, max_deg + 1):
        divisors = [g for d in range(1, deg // 2 + 1) for g in monic_polys(p, d)]
        for f in monic_polys(p, deg):
            want = all(poly_mod(f, g, p) for g in divisors)
            assert gf._is_irreducible(f, p) == want, f"verdict on {f} over GF({p})"


def test_make_field_rejects_bad_input():
    for n in (0, 1, 6, 9):
        with pytest.raises(ValueError):
            make_field(n, 1)
    with pytest.raises(CapacityError):
        make_field(2, 17)
    with pytest.raises(CapacityError):
        make_field(46349, 2)  # 46349^2 > 2^31


def test_make_field_is_interned_and_deterministic():
    assert make_field(3, 2) is make_field(3, 2)
    assert make_field(2, 4).modulus == make_field(2, 4).modulus


def test_arithmetic_examples():
    F2 = make_field(2)
    assert F2.add(1, 1) == 0
    F7 = make_field(7)
    assert F7.inv(3) == 5
    F4 = make_field(2, 2)
    x = F4.from_coeffs((0, 1))
    assert F4.mul(x, x) == F4.from_coeffs((1, 1)), "x*x should be x+1 under x^2+x+1"


@pytest.mark.parametrize("p,e", [(2, 1), (7, 1), (2, 2), (3, 2), (2, 4), (5, 2)])
def test_field_axioms_random(p, e):
    F = make_field(p, e)
    rng = random.Random(20260814 + p * 100 + e)
    for _ in range(1000):
        a, b, c = (rng.randrange(F.q) for _ in range(3))
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        if a:
            assert F.mul(a, F.inv(a)) == 1
        assert F.add(F.add(a, F.neg(b)), b) == a
        assert F.mul(a, b) == F.mul(b, a)


@pytest.mark.parametrize(
    "p,e,root_coeffs",
    [
        (2, 2, (0, 1)),  # x
        (7, 1, (3,)),
        (2, 1, (1,)),
        (3, 2, (1, 1)),  # 1+x
    ],
)
def test_primitive_root_examples(p, e, root_coeffs):
    F = make_field(p, e)
    assert F.coeffs(F.root) == root_coeffs


@pytest.mark.parametrize("p,e", [(2, 1), (2, 2), (3, 2), (2, 4), (5, 1), (13, 1), (3, 3)])
def test_root_has_full_order(p, e):
    F = make_field(p, e)
    n = F.q - 1
    assert F.pow(F.root, n) == 1
    for k in range(1, n):
        if F.pow(F.root, k) == 1:
            pytest.fail(f"root order {k} < {n} in GF({p}^{e})")


def test_scalar_text_form():
    F4 = make_field(2, 2)
    assert [F4.scalar_str(a) for a in range(4)] == ["00", "10", "01", "11"]
    F3 = make_field(3)
    assert F3.scalar_str(2) == "2"
    F13 = make_field(13, 1)
    assert F13.scalar_str(11) == "11"
    for F in (F4, F3, make_field(13, 2)):
        for a in range(min(F.q, 64)):
            assert F.scalar_parse(F.scalar_str(a)) == a, f"roundtrip failed for {a} in {F}"


def test_vectorized_matches_scalar():
    import numpy as np

    # GF(3^6) and GF(23^2) lie past TABLE_CAP: vec_mul goes through times_x
    for p, e in [(2, 1), (3, 1), (2, 2), (3, 2), (2, 4), (3, 6), (23, 2)]:
        F = make_field(p, e)
        rng = random.Random(99 + p + e)
        a = np.array([rng.randrange(F.q) for _ in range(200)], dtype=np.int64)
        b = np.array([rng.randrange(F.q) for _ in range(200)], dtype=np.int64)
        assert all(F.vec_add(a, b)[i] == F.add(int(a[i]), int(b[i])) for i in range(200))
        assert all(F.vec_mul(a, b)[i] == F.mul(int(a[i]), int(b[i])) for i in range(200))
        nz = a + (a == 0)
        assert all(F.vec_inv(nz)[i] == F.inv(int(nz[i])) for i in range(200))


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 9), (3, 6), (67108879, 1)])
def test_inv_matches_fermat_power(p, e):
    """Scalar and vector inverses agree with a^(q-2), across the table cap."""
    import numpy as np

    F = make_field(p, e)
    rng = random.Random(5)
    codes = range(1, F.q) if F.q <= 1000 else [1, 2, 3, F.q - 2, F.q - 1] + [
        rng.randrange(1, F.q) for _ in range(50)]
    want = [F.pow(a, F.q - 2) for a in codes]
    assert [F.inv(a) for a in codes] == want
    assert F.vec_inv(np.array(list(codes), dtype=np.int64)).tolist() == want
    with pytest.raises(ZeroDivisionError):
        F.inv(0)
    with pytest.raises(ZeroDivisionError):
        F.vec_inv(np.array([1, 0], dtype=np.int64))


def test_subfield_embedding():
    F4 = make_field(2, 2)
    F16, table = extension(F4, 2)
    assert F16 is make_field(2, 4)
    # image of F4's root satisfies F4's modulus and generates a copy of F4
    imgs = set(table.tolist())
    assert len(imgs) == 4
    for a in range(4):
        for b in range(4):
            ia, ib = int(table[a]), int(table[b])
            assert table[F4.mul(a, b)] == F16.mul(ia, ib)
            assert table[F4.add(a, b)] == F16.add(ia, ib)


# -- polynomials over F ----------------------------------------------------------


def test_poly_mul_matches_convolution_mod_p():
    import numpy as np

    from sympow.gf import poly_mul, poly_trim

    F = make_field(5)
    rng = random.Random(3)
    for _ in range(25):
        a = np.array([rng.randrange(5) for _ in range(rng.randrange(1, 8))], dtype=np.int64)
        b = np.array([rng.randrange(5) for _ in range(rng.randrange(1, 8))], dtype=np.int64)
        got = poly_mul(F, a, b)
        want = poly_trim(np.convolve(a, b) % 5)
        assert got.tolist() == want.tolist()


def test_poly_divmod_roundtrip_gf9():
    import numpy as np

    from sympow.gf import poly_add, poly_divmod, poly_mul, poly_trim

    F = make_field(3, 2)
    rng = random.Random(7)
    for _ in range(40):
        a = np.array([rng.randrange(9) for _ in range(rng.randrange(1, 10))], dtype=np.int64)
        b = np.array([rng.randrange(9) for _ in range(rng.randrange(1, 5))], dtype=np.int64)
        if not poly_trim(b).size:
            continue
        q, r = poly_divmod(F, a, b)
        assert len(r) < len(poly_trim(b))
        back = poly_add(F, poly_mul(F, q, b), r)
        assert back.tolist() == poly_trim(a).tolist()


def test_poly_gcd_and_eval():
    import numpy as np

    from sympow.gf import poly_eval, poly_gcd, poly_mul

    F = make_field(7)
    lin = lambda c: np.array([F.neg(c), 1], dtype=np.int64)
    f = poly_mul(F, lin(1), lin(3))
    assert poly_eval(F, f, 1) == 0 and poly_eval(F, f, 3) == 0
    assert poly_eval(F, f, 2) != 0
    g = poly_gcd(F, poly_mul(F, lin(1), lin(2)), poly_mul(F, lin(1), lin(4)))
    assert g.tolist() == lin(1).tolist()


def test_poly_powmod_agrees_with_repeated_product():
    import numpy as np

    from sympow.gf import poly_mod, poly_mul, poly_powmod

    F = make_field(2, 2)
    f = np.array([1, 2, 1, 1], dtype=np.int64)
    a = np.array([2, 3], dtype=np.int64)
    naive = np.array([1], dtype=np.int64)
    for _ in range(7):
        naive = poly_mod(F, poly_mul(F, naive, a), f)
    assert poly_powmod(F, a, 7, f).tolist() == naive.tolist()


def test_coprime_split_certifies_prime_powers():
    import numpy as np

    from sympow.gf import poly_coprime_split, poly_mul

    rng = np.random.default_rng(5)
    F2 = make_field(2)
    irr = np.array([1, 1, 1], dtype=np.int64)
    assert poly_coprime_split(F2, irr, rng) is None
    assert poly_coprime_split(F2, poly_mul(F2, irr, irr), rng) is None
    F9 = make_field(3, 2)
    lin = np.array([F9.neg(4), 1], dtype=np.int64)
    cube = poly_mul(F9, poly_mul(F9, lin, lin), lin)
    assert poly_coprime_split(F9, cube, rng) is None
    F3 = make_field(3)
    cubic = np.array([1, 2, 0, 1], dtype=np.int64)  # x^3 + 2x + 1
    assert all((1 + 2 * c + c**3) % 3 for c in range(3)), "rootless, hence irreducible"
    assert poly_coprime_split(F3, cubic, rng) is None


def test_coprime_split_finds_coprime_factors():
    import numpy as np

    from sympow.gf import poly_coprime_split, poly_gcd, poly_mul

    rng = np.random.default_rng(11)
    cases = []
    F3 = make_field(3)
    lin = lambda F, c: np.array([F.neg(c), 1], dtype=np.int64)
    cases.append((F3, poly_mul(F3, poly_mul(F3, lin(F3, 1), lin(F3, 1)), lin(F3, 2))))
    F9 = make_field(3, 2)
    cases.append((F9, poly_mul(F9, lin(F9, 2), lin(F9, 7))))
    F2 = make_field(2)
    c1 = np.array([1, 1, 0, 1], dtype=np.int64)
    c2 = np.array([1, 0, 1, 1], dtype=np.int64)
    cases.append((F2, poly_mul(F2, c1, c2)))  # equal-degree path, no roots
    for F, f in cases:
        u, v = poly_coprime_split(F, f, rng)
        assert len(u) > 1 and len(v) > 1
        assert poly_mul(F, u, v).tolist() == f.tolist()
        assert len(poly_gcd(F, u, v)) == 1
