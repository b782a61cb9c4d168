"""The tests' oracles on BiPoly: long division in one variable and
evaluation at a point.

cvtk divides a BiPoly only by r - t, in d_split's synthetic division on
integer rows, and evaluates the X model only through x_relation, without
expanding it.  These two check both from outside, and each has its own
sympy test in test_ratpoly.py.
"""

from fractions import Fraction

from cvtk.ratpoly import BiPoly, ExactArithError, _pseudo_divmod


def divmod_in(p: BiPoly, d: BiPoly, var: str):
    """Long division in `var` by a divisor monic in `var`: (q, r) with
    p = q * d + r and deg_var r < deg_var d."""
    p._check(d)
    B = d.coeff_list_in(var)
    if not B or B[-1] != 1:
        raise ExactArithError(f"divisor is not monic in {var}")
    q, r = _pseudo_divmod(p.coeff_list_in(var), B)
    return BiPoly.from_coeff_list(q, var, p.vars), BiPoly.from_coeff_list(r, var, p.vars)


def evaluate(p: BiPoly, v0, v1):
    """p at (vars[0], vars[1]) = (v0, v1), over any commutative ring."""
    acc = None
    for row in reversed(p.rows):
        c = row(v0)
        acc = c if acc is None else acc * v1 + c
    return Fraction(0) if acc is None else acc
