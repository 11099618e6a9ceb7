"""Shared helpers: independent oracles the tests check the library against."""

import copy
import math
import operator

from downup import (ZERO, BiPoly, DownUpPresentation, Scalar, gwa_algebra,
                    validate_param_spec)
# the brute-force index enumerator and the Leibniz identity live with the
# verify suites; the tests use the same two checks
from downup.suites import enumerate_indices, leibniz_holds

ONE = Scalar.from_rational(1)


def double_loop_product(a, b, add):
    """The product of two sparse maps by the double loop over their terms,
    keys combined by add and zero sums dropped: the reference for the
    kernels' one-term shortcuts."""
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            k = add(i, j)
            out[k] = out[k] + x * y if k in out else x * y
    return {k: v for k, v in out.items() if v}


def binomial_quotients(st):
    """A hypothesis strategy: a numerator times binomials z^(n + t) -/+ z^t
    over others, so that numerators and denominators share repeated
    cyclotomic factors."""
    def quotient(num, above, below):
        out = Scalar(num)
        for binomials, op in ((above, operator.mul),
                              (below, operator.truediv)):
            for n, t, c, sign in binomials:
                out = op(out, Scalar({n + t: c, t: sign * c}))
        return out

    binomial = st.tuples(st.integers(1, 6), st.integers(0, 2),
                         st.sampled_from([1, 2, -3]), st.sampled_from([1, -1]))
    binomials = st.lists(binomial, max_size=3)
    nums = st.dictionaries(st.integers(0, 8), st.integers(-4, 4).filter(bool),
                           min_size=1, max_size=4)
    return st.builds(quotient, nums, binomials, binomials)


def residual_form(s):
    """The same stored maps with the denominator kept as c*z^t*R, R its
    whole primitive z-free part, so that every gcd with it takes the
    GCDHEU path."""
    plain, d = copy.copy(s), s.den
    t, c = min(d), math.gcd(*d.values())
    plain.fac = c, t, (), {e - t: v // c for e, v in d.items()}
    return plain


def std_spec(d=1, n1=3, n2=2):
    return validate_param_spec(d, n1, n2)


def random_param_spec(rng, d_max=3, n_max=5):
    """A seeded parameter point that passes the standing assumptions."""
    while True:
        try:
            return validate_param_spec(rng.randint(1, d_max),
                                       rng.choice([-1, 1]) * rng.randint(1, n_max),
                                       rng.choice([-1, 1]) * rng.randint(1, n_max))
        except ValueError:
            continue


def std_algebra(spec=None, f_coeffs=(0, 1)):
    spec = spec or std_spec()
    pres = DownUpPresentation.from_coefficients(spec, list(f_coeffs))
    return gwa_algebra(pres)


def gaussian_solvable(columns, rhs):
    """Whether rhs is a Scalar-linear combination of the given columns.

    Plain Gaussian elimination over the scalar field on the augmented
    matrix; independent of any structure in the columns.
    """
    rows = len(rhs)
    aug = [[col[r] for col in columns] + [rhs[r]] for r in range(rows)]
    ncols = len(columns)
    pivot_row = 0
    for col in range(ncols):
        pivot = next((r for r in range(pivot_row, rows) if aug[r][col]), None)
        if pivot is None:
            continue
        aug[pivot_row], aug[pivot] = aug[pivot], aug[pivot_row]
        inv = aug[pivot_row][col].inverse()
        aug[pivot_row] = [c * inv for c in aug[pivot_row]]
        for r in range(rows):
            if r != pivot_row and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[pivot_row])]
        pivot_row += 1
    # inconsistent iff some zero row has nonzero augment
    for r in range(pivot_row, rows):
        if any(aug[r][:ncols]):
            continue
        if aug[r][ncols]:
            return False
    return True


def inner_system_solvable(spec, c0):
    """Set up c0 = mu^{-1} p - phi(p) as a linear system over supp(c0)
    and decide feasibility by elimination."""
    from downup import apply_phi_power

    support = sorted(c0.terms)
    columns = []
    for key in support:
        basis = BiPoly.monomial(*key, ONE)
        image = basis * Scalar.z_power(spec.n2) - apply_phi_power(spec, basis, 1)
        columns.append([image.terms.get(k, ZERO) for k in support])
    rhs = [c0.terms.get(k, ZERO) for k in support]
    return gaussian_solvable(columns, rhs)
