"""Sparse multivariate polynomials and pseudo-remainders.

A polynomial is a map from exponent tuples to nonzero scalar coefficients,
tied to a PolyRing that fixes the variable names and the coefficient field.
Everything is exact; no floats anywhere.
"""

from fractions import Fraction

from .scalars import char_of, lift, one_like, power


class PolyRing:
    """Polynomial ring k[x1,...,xn]: variable names plus the field's one."""

    def __init__(self, varnames, one=Fraction(1)):
        self.varnames = tuple(varnames)
        self.one = one
        self.zero_exp = (0,) * len(self.varnames)
        self.char = char_of(one)

    def nvars(self):
        return len(self.varnames)

    def var(self, name):
        i = self.varnames.index(name)
        e = [0] * len(self.varnames)
        e[i] = 1
        return MultiPoly(self, {tuple(e): self.one})

    def gens(self):
        return tuple(self.var(v) for v in self.varnames)

    def const(self, c):
        c = lift(self.one, c)
        if not c:
            return MultiPoly(self, {})
        return MultiPoly(self, {self.zero_exp: c})

    def zero(self):
        return MultiPoly(self, {})

    def __eq__(self, other):
        return (isinstance(other, PolyRing)
                and self.varnames == other.varnames
                and self.one == other.one)

    def __hash__(self):
        return hash(self.varnames)

    def __repr__(self):
        return "PolyRing(%s)" % (",".join(self.varnames))


def _constant(ring, c):
    """The scalar c as a constant of `ring`.  An int or a Fraction enters
    through scalars.lift (F4 * Fraction is undefined).  Anything else is
    multiplied by the ring's one, which raises for a scalar that does not
    belong, such as a Mod of another modulus."""
    if isinstance(c, (int, Fraction)):
        return ring.const(c)
    return MultiPoly(ring, {ring.zero_exp: ring.one * c})


class MultiPoly:
    """Sparse polynomial: dict exponent-tuple -> nonzero coefficient."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        self.ring = ring
        self.coeffs = {e: c for e, c in coeffs.items() if c}

    # -- basic structure ---------------------------------------------------

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def degree_in(self, name):
        i = self.ring.varnames.index(name)
        if not self.coeffs:
            return -1
        return max(e[i] for e in self.coeffs)

    def constant_coeff(self):
        return self.coeffs.get(self.ring.zero_exp, self.ring.one * 0)

    def monomials(self):
        return sorted(self.coeffs)

    # -- arithmetic --------------------------------------------------------

    def _lift(self, other):
        if isinstance(other, MultiPoly):
            if other.ring != self.ring:
                raise ValueError("mixed polynomial rings")
            return other
        if not isinstance(other, (int, Fraction)):
            try:
                one_like(other)
            except TypeError:
                return NotImplemented
        return _constant(self.ring, other)

    def __add__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        new = dict(self.coeffs)
        for e, c in o.coeffs.items():
            s = new.get(e)
            s = c if s is None else s + c
            if s:
                new[e] = s
            elif e in new:
                del new[e]
        return MultiPoly(self.ring, new)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.ring, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        prod = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in o.coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                s = prod.get(e)
                s = c if s is None else s + c
                if s:
                    prod[e] = s
                elif e in prod:
                    del prod[e]
        return MultiPoly(self.ring, prod)

    __rmul__ = __mul__

    def scale(self, c):
        return MultiPoly(self.ring, {e: v * c for e, v in self.coeffs.items()})

    def __pow__(self, n):
        return power(self, n, self.ring.const(1))

    def __eq__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash((self.ring.varnames, frozenset(self.coeffs.items())))

    # -- calculus / evaluation ----------------------------------------------

    def diff(self, name):
        """Formal partial derivative (char-2 safe: coefficients multiply
        by the integer exponent image in the field, possibly zero)."""
        i = self.ring.varnames.index(name)
        new = {}
        for e, c in self.coeffs.items():
            if e[i] == 0:
                continue
            k = lift(self.ring.one, e[i])
            if not k:
                continue
            e2 = list(e)
            e2[i] -= 1
            new[tuple(e2)] = new.get(tuple(e2), self.ring.one * 0) + c * k
        return MultiPoly(self.ring, new)

    def subst(self, mapping, target_ring=None):
        """Substitute polynomials for variables.

        mapping: variable name -> MultiPoly in the target ring.  Every
        variable that actually occurs must be covered.
        """
        if target_ring is None:
            some = next(iter(mapping.values()))
            target_ring = some.ring if isinstance(some, MultiPoly) else self.ring
        out = target_ring.zero()
        for e, c in self.coeffs.items():
            if isinstance(c, MultiPoly):
                raise ValueError("nested polynomial coefficients unsupported")
            term = _constant(target_ring, c)
            for name, ei in zip(self.ring.varnames, e):
                if ei == 0:
                    continue
                if name not in mapping:
                    raise ValueError("substitution misses variable %r" % name)
                g = mapping[name]
                if not isinstance(g, MultiPoly):
                    g = _constant(target_ring, g)
                if g.ring != target_ring:
                    raise ValueError("substitution targets mix rings")
                term = term * (g if ei == 1 else g ** ei)
            out = out + term
        return out

    def divexact(self, g):
        """Exact division self / g; raises if g does not divide exactly."""
        if g.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        r = self
        q = self.ring.zero()
        glt = max(g.coeffs)
        glc = g.coeffs[glt]
        while r.coeffs:
            rlt = max(r.coeffs)
            diff = tuple(a - b for a, b in zip(rlt, glt))
            if any(d < 0 for d in diff):
                raise ValueError("inexact polynomial division")
            c = r.coeffs[rlt] / glc
            t = MultiPoly(self.ring, {diff: c})
            q = q + t
            r = r - t * g
        return q

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            mono = "*".join("%s^%d" % (v, k) if k > 1 else v
                            for v, k in zip(self.ring.varnames, e) if k)
            parts.append("(%s)%s" % (c, "*" + mono if mono else ""))
        return " + ".join(parts)


def proportional_polys(f, g):
    """(True, scalar) if f == scalar*g with scalar nonzero, else (False, None)."""
    if f.is_zero() or g.is_zero():
        return (f.is_zero() and g.is_zero(), None)
    m = g.monomials()[0]
    cg = g.coeffs[m]
    cf = f.coeffs.get(m)
    if cf is None:
        return False, None
    lam = cf / cg
    if f == g.scale(lam):
        return True, lam
    return False, None


def prem(f, g, name):
    """Pseudo-remainder of f by g viewed as polynomials in the variable
    `name`; lc(g)^k * f = q*g + prem for some k.  Used for membership tests
    modulo a single relation without rational-function coefficients."""
    i = f.ring.varnames.index(name)
    dg = g.degree_in(name)
    if dg < 0:
        raise ZeroDivisionError("pseudo-division by zero")
    lc_g = coeff_in(g, name, dg)
    r = f
    while True:
        dr = r.degree_in(name)
        if dr < dg or r.is_zero():
            return r
        lc_r = coeff_in(r, name, dr)
        shift = [0] * f.ring.nvars()
        shift[i] = dr - dg
        mono = MultiPoly(f.ring, {tuple(shift): f.ring.one})
        r = r * lc_g - lc_r * mono * g


def coeff_in(f, name, d):
    """Coefficient of name^d in f, as a polynomial in the other variables."""
    i = f.ring.varnames.index(name)
    new = {}
    for e, c in f.coeffs.items():
        if e[i] == d:
            e2 = list(e)
            e2[i] = 0
            new[tuple(e2)] = c
    return MultiPoly(f.ring, new)
