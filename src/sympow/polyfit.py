"""Exact polynomial structure detection for decomposition sequences.

Everything here is integer/rational arithmetic: a sequence is declared
polynomial only when its forward differences of the right order vanish on the
whole observed tail, and fitted Newton polynomials are re-validated against
every remaining element plus a holdout block.  No least squares anywhere; an
approximate fit would hide exactly the bugs this package exists to catch.

A "description" of a sequence of DecompVectors is a period m, a threshold
t_min and one rational polynomial per (residue, registry id) reproducing the
multiplicity of that id at degree n = t*m + a for all observed t >= t_min.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

HOLDOUT = 3  # entries of each residue class withheld from the fit, then replayed


def delta(seq: list, k: int = 1) -> list:
    """k-fold forward difference of a sequence (any type supporting '-')."""
    out = list(seq)
    for _ in range(k):
        out = [b - a for a, b in zip(out, out[1:])]
    return out


def tail_threshold(flags: list[bool]) -> int | None:
    """Least index from which every flag holds; None if the last one doesn't."""
    t = len(flags)
    while t > 0 and flags[t - 1]:
        t -= 1
    return t if t < len(flags) else None


def _newton_poly(tail: list, n0: int, dmax: int) -> list[Fraction]:
    """Coefficients (ascending) of the Newton form through tail[0..dmax] at n0.

    The forward differences of integers stay integers; only the Newton
    basis, which divides by ell!, needs `Fraction`.
    """
    diffs = tail
    leading = []
    for _ in range(dmax + 1):
        leading.append(diffs[0])
        diffs = delta(diffs)
    coeffs = [Fraction(0)] * (dmax + 1)
    basis = [Fraction(1)]  # (x - n0)(x - n0 - 1).../ell! built incrementally
    for ell, lead in enumerate(leading):
        scaled = [c * lead for c in basis]
        for i, c in enumerate(scaled):
            coeffs[i] += c
        root = Fraction(n0 + ell)
        nxt = [Fraction(0)] * (len(basis) + 1)
        for i, c in enumerate(basis):
            nxt[i + 1] += c
            nxt[i] -= c * root
        basis = [c / (ell + 1) for c in nxt]
    return coeffs


def eval_poly(coeffs: list[Fraction], x: int) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def fit_polynomial_tail(seq: list, dmax: int):
    """Least n0 with (dmax+1)-th differences zero from n0 on, plus the polynomial.

    seq holds integers.  Returns (n0, coeffs ascending) or None when no tail
    of the required length is polynomial of degree <= dmax.  The returned
    polynomial is validated on every element from n0 to the end, not just
    the fitted window.
    """
    if len(seq) < dmax + 3:
        raise ValueError("sequence too short for the requested degree bound")
    # entry i is the (dmax+1)-th difference starting at seq index i
    n0 = tail_threshold([d == 0 for d in delta(seq, dmax + 1)])
    if n0 is None:
        return None
    coeffs = _newton_poly(seq[n0:], n0, dmax)
    for i in range(n0, len(seq)):
        if eval_poly(coeffs, i) != seq[i]:
            return None
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return n0, coeffs


@dataclass
class PolynomialDescription:
    """Period m, registry ids used, and one polynomial per (residue, id)."""

    m: int
    t_min: int
    ids: list[int]
    polys: dict[tuple[int, int], list[Fraction]] = field(default_factory=dict)

    def multiplicity(self, a: int, mid: int, t: int) -> int:
        coeffs = self.polys.get((a, mid))
        if coeffs is None:
            return 0
        val = eval_poly(coeffs, t)
        if val.denominator != 1 or val < 0:
            raise ValueError("description evaluated outside its validity range")
        return int(val)

    def vector_at(self, n: int) -> dict[int, int]:
        t, a = divmod(n, self.m)
        out = {}
        for mid in self.ids:
            mult = self.multiplicity(a, mid, t)
            if mult:
                out[mid] = mult
        return out

    def to_json(self) -> dict:
        residues = []
        for a in range(self.m):
            terms = []
            for mid in self.ids:
                coeffs = self.polys.get((a, mid))
                if coeffs:
                    terms.append({
                        "id": mid,
                        "coeffs": [f"{c.numerator}/{c.denominator}" for c in coeffs],
                    })
            residues.append({"a": a, "terms": terms})
        return {"m": self.m, "t_min": self.t_min, "residues": residues}


def detect_description(seq: list[dict[int, int]], m_candidates, dmax: int):
    """Least period m admitting an exact polynomial description of the tail.

    seq[n] is the DecompVector at degree n.  For each candidate m the
    multiplicity sequence of every id in every residue class is fitted with
    the final HOLDOUT entries withheld, then the whole description is
    replayed against every vector from t_min*m on, holdout included.
    """
    all_ids = sorted({mid for vec in seq for mid in vec})
    for m in sorted(set(int(m) for m in m_candidates)):
        if m < 1:
            continue
        per_residue = min(len(range(a, len(seq), m)) for a in range(m))
        if per_residue < dmax + 3 + HOLDOUT:
            continue
        desc = PolynomialDescription(m=m, t_min=0, ids=all_ids)
        ok = True
        t_min = 0
        for a in range(m):
            fit_ns = list(range(a, len(seq), m))[:-HOLDOUT]
            for mid in all_ids:
                counts = [seq[n].get(mid, 0) for n in fit_ns]
                fit = fit_polynomial_tail(counts, dmax)
                if fit is None:
                    ok = False
                    break
                n0, coeffs = fit
                t_min = max(t_min, n0)
                if any(c != 0 for c in coeffs):
                    desc.polys[(a, mid)] = coeffs
            if not ok:
                break
        if not ok:
            continue
        desc.t_min = t_min
        start = t_min * m
        if all(desc.vector_at(n) == seq[n] for n in range(start, len(seq))):
            desc.ids = sorted({mid for (_, mid) in desc.polys})
            return desc
    return None


def growth_degree(dims: list[int], m: int, dmax: int | None = None) -> dict:
    """Per-residue polynomial degree of a dimension sequence; max is d(M).

    A residue class that is identically zero in the window gets the "empty"
    sentinel instead of a numeric degree.
    """
    if m < 1:
        raise ValueError("period must be positive")
    bound = dmax if dmax is not None else max(0, min(len(dims) // m - 3, 8))
    residues = []
    degrees = []
    for a in range(m):
        vals = [dims[n] for n in range(a, len(dims), m)]
        if len(vals) < 4:
            raise ValueError("need at least 4 entries per residue")
        if not any(vals):
            residues.append({"a": a, "degree": "empty"})
            continue
        fit = None
        for d in range(0, bound + 1):
            if len(vals) < d + 3:
                break
            fit = fit_polynomial_tail(vals, d)
            if fit is not None:
                break
        if fit is None:
            return {"ok": False, "failed_residue": a, "residues": residues}
        n0, coeffs = fit
        deg = len(coeffs) - 1
        degrees.append(deg)
        residues.append({
            "a": a,
            "degree": deg,
            "threshold": n0,
            "coeffs": [f"{c.numerator}/{c.denominator}" for c in coeffs],
        })
    return {"ok": True, "degree": max(degrees) if degrees else "empty", "residues": residues}
