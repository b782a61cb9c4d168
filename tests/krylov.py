"""The tests' reference minimal polynomial: every trace from the Krylov sequence.

cvtk reads the traces Tr((D*a)^j) off baby and giant steps (numfield).  This
module reads each one off its own Krylov vector v_j = A^j e_0, A = D*M the
integer rows of `numfield.multiplication_matrix`, with k + 1 mat-vecs and no
giant step, and checks that the minimal polynomial vanishes by summing the
same vectors.  It shares only the matrix and the squarefree part with cvtk,
so it is an independent computation of every trace.
"""

from operator import mul

from cvtk.factor import squarefree_part
from cvtk.numfield import multiplication_matrix
from cvtk.ratpoly import ExactArithError, UniPoly


def krylov(rows) -> list:
    """v_0, ..., v_k with v_j = A^j e_0 for A = rows: the coordinates of (D*a)^j."""
    v = [1] + [0] * (len(rows) - 1)
    out = [v]
    for _ in rows:
        v = [sum(map(mul, row, v)) for row in rows]
        out.append(v)
    return out


def krylov_char_poly_from(modulus: UniPoly, d: int, vectors, var: str) -> UniPoly:
    """det(var*I - M) from the traces s_j = <v_j, tau> of the Krylov vectors,
    tau_i = Tr(r^i) by Newton's identities on the integer modulus; Newton's
    identities again give the char poly of A = D*M, rescaled by D**j."""
    k = len(vectors) - 1
    m = modulus.num
    tau = [k]
    for i in range(1, k):
        tau.append(-i * m[k - i] - sum(m[k - j] * tau[i - j] for j in range(1, i)))
    s = [sum(map(mul, v, tau)) for v in vectors]
    c = [1]  # descending coefficients of det(var*I - A)
    for j in range(1, k + 1):
        q, rem = divmod(-sum(c[j - i] * s[i] for i in range(1, j + 1)), j)
        if rem:
            raise ExactArithError("Newton's identities gave a non-integer coefficient")
        c.append(q)
    return UniPoly.from_ints([cj * d ** (k - j) for j, cj in enumerate(c)][::-1], d ** k, var)


def krylov_vanishes(mp: UniPoly, d: int, vectors) -> bool:
    """Whether mp(a) = 0: P(u) = mp.den * D**deg * mp(u / D) has the integer
    coefficients mp.num[j] * D**(deg - j), and the coordinates of P(D*a) are
    the sum of P's coefficient j times v_j."""
    deg = mp.degree
    acc = [0] * (len(vectors) - 1)
    for j, c in enumerate(mp.num):
        if c:
            c *= d ** (deg - j)
            acc = [s + c * x for s, x in zip(acc, vectors[j])]
    return not any(acc)


def krylov_char_poly(a, var: str = "u") -> UniPoly:
    """Monic characteristic polynomial of x -> a*x, by the Krylov sequence."""
    d, rows = multiplication_matrix(a)
    return krylov_char_poly_from(a.field.modulus, d, krylov(rows), var)


def krylov_min_poly(a, var: str = "u") -> UniPoly:
    """Monic minimal polynomial of a, checked to vanish on the Krylov vectors."""
    d, rows = multiplication_matrix(a)
    vectors = krylov(rows)
    mp = squarefree_part(krylov_char_poly_from(a.field.modulus, d, vectors, var))
    if not krylov_vanishes(mp, d, vectors):
        raise ExactArithError("minimal polynomial does not vanish; bad modulus?")
    return mp
