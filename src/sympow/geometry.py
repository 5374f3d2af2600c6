"""Fixed loci of a linear action on projective space.

For a group element g, the fixed locus in P^d is the union of projectivized
eigenspaces of its matrix.  Candidate eigenvalues are roots of unity of order
dividing the p'-part of ord(g) (the p-part is unipotent and contributes no
new eigenvalues in characteristic p), so each eigenspace is a kernel rank
over the splitting field; no characteristic polynomial is ever factored.

Dimensions follow the projective convention: a q-dimensional eigenspace fixes
a (q-1)-dimensional linear subvariety, and an empty locus is -1.
"""

from __future__ import annotations

import numpy as np

from .chars import root_space_dims
from .groups import GroupData, p_part

EMPTY = -1


def fixed_dims(G: GroupData, g: int) -> list[tuple[int, int]]:
    """(eigenvalue exponent, projective fixed-component dim) for element g.

    Exponents index powers of the canonical primitive o'-th root of unity,
    o' the p'-part of ord(g); exponent 0 is the eigenvalue 1.  Only nonempty
    eigenspaces are listed, so dims are >= 0.
    """
    o = G.element_order(g)
    o //= p_part(o, G.field.p)
    dims = root_space_dims(G.field, G.elements[g], o)
    return [(k, d - 1) for k, d in enumerate(dims) if d > 0]


def _is_scalar(A) -> bool:
    expected = np.zeros_like(A)
    np.fill_diagonal(expected, A[0, 0])
    return np.array_equal(A, expected)


def ramification(G: GroupData) -> dict:
    """The ramification report of the projective action: dim B, dim B_p, c, c_p.

    B is the union of fixed loci of nonidentity elements, B_p the same over
    p-elements.  With the structure sheaf as the coefficient sheaf, c = dim B
    and c_p = dim B_p.  An empty locus reads "empty".  A nonidentity scalar
    element acts trivially on P^d and makes the whole notion collapse, so it
    is a hard error.

    That raise is why `generically_free` and `faithful_on_P` are always
    true: only scalars act trivially on P^d, and a non-scalar g fixes just
    its eigenspaces, proper linear subspaces, so B is a proper closed subset.
    `elements` lists each nonidentity element's order and fixed components.
    """
    p = G.field.p
    dim_b, dim_bp = EMPTY, EMPTY
    elements = []
    for g in range(1, G.order):
        if _is_scalar(G.elements[g]):
            raise ValueError(
                f"element {g} acts as a nonidentity scalar: projective action is not faithful"
            )
        fixed = fixed_dims(G, g)
        local = max((d for _, d in fixed), default=EMPTY)
        dim_b = max(dim_b, local)
        o = G.element_order(g)
        if p_part(o, p) == o:
            dim_bp = max(dim_bp, local)
        elements.append({
            "index": g,
            "order": o,
            "fixed": [[k, d] for k, d in fixed],
        })
    dim_b, dim_bp = ("empty" if v == EMPTY else v for v in (dim_b, dim_bp))
    return {"dimB": dim_b, "dimBp": dim_bp, "c": dim_b, "cp": dim_bp,
            "generically_free": True, "faithful_on_P": True, "elements": elements}
