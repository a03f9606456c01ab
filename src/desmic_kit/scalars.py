"""Exact scalar arithmetic: prime fields, Gaussian rationals, F_4.

Plain rationals are represented by fractions.Fraction (or int); the classes
here supply the remaining field variants.  All values are immutable and
hashable, and arithmetic accepts plain ints on either side.
"""

from fractions import Fraction
from math import gcd, isqrt


def is_prime(n):
    """Whether the integer n is prime, by trial division."""
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def xgcd(a, b):
    """Extended gcd: returns (g, s, t) with g = s*a + t*b."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


class Mod:
    """Element of the prime field GF(p)."""

    __slots__ = ("v", "p")

    def __init__(self, v, p):
        if p < 2:
            raise ValueError("modulus %r is below 2" % (p,))
        if isinstance(v, Mod):
            if v.p != p:
                raise ValueError("mixed moduli %d and %d" % (v.p, p))
            v = v.v
        object.__setattr__(self, "v", v % p)
        object.__setattr__(self, "p", p)

    def __setattr__(self, *a):
        raise AttributeError("Mod is immutable")

    def __reduce__(self):
        return Mod, (self.v, self.p)

    def _lift(self, other):
        if isinstance(other, Mod):
            if other.p != self.p:
                raise ValueError("mixed moduli")
            return other
        if isinstance(other, int):
            return Mod(other, self.p)
        if isinstance(other, Fraction):
            return Mod(other.numerator, self.p) / Mod(other.denominator, self.p)
        return NotImplemented

    def __add__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return Mod(self.v + o.v, self.p)

    __radd__ = __add__

    def __neg__(self):
        return Mod(-self.v, self.p)

    def __sub__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return Mod(self.v - o.v, self.p)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return Mod(self.v * o.v, self.p)

    __rmul__ = __mul__

    def inverse(self):
        g, s, _ = xgcd(self.v, self.p)
        if g != 1:
            raise ZeroDivisionError("not invertible mod %d" % self.p)
        return Mod(s, self.p)

    def __truediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, e):
        if not isinstance(e, int):
            raise TypeError("exponent %r is not an int" % (e,))
        if e < 0:
            return self.inverse() ** (-e)
        return Mod(pow(self.v, e, self.p), self.p)

    def __eq__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return self.v == o.v

    def __bool__(self):
        return self.v != 0

    def __hash__(self):
        return hash((self.v, self.p, "Mod"))

    def __repr__(self):
        return "Mod(%d, %d)" % (self.v, self.p)


def sqrt_minus_one(p):
    """The canonical square root of -1 in GF(p): the smallest one.

    Raises ValueError when there is none, as for every p other than a
    prime = 1 mod 4.
    """
    if p % 4 != 1 or not is_prime(p):
        raise ValueError("no square root of -1 mod %d" % p)
    # a^((p-1)/4) squares to -1 for the first non-residue a
    a = next(a for a in range(2, p) if pow(a, (p - 1) // 2, p) == p - 1)
    r = pow(a, (p - 1) // 4, p)
    return Mod(min(r, p - r), p)


def field_i(one):
    """The designated square root of -1 in the field of `one`: i in Q and
    Q(i), sqrt_minus_one(p) in GF(p).  Other fields raise ValueError."""
    if isinstance(one, Mod):
        return sqrt_minus_one(one.p)
    if isinstance(one, (int, Fraction, QI)):
        return I
    raise ValueError("field lacks a designated square root of -1")


def lift(one, x):
    """Image of x in the field of `one`, times `one`.  An int n maps to
    one*n and a Fraction n/d to (one*n)/d, with d taken into the field
    through its identity, which also serves F_4, where F4 * Fraction is
    undefined; with an int `one` (the rationals) a Fraction maps to one*x,
    since int / int is a float.  Anything else is taken to be a field
    element already and is returned unchanged."""
    if isinstance(x, int):
        return one * x
    if isinstance(x, Fraction):
        if isinstance(one, int):
            return one * x
        return one * x.numerator / (one_like(one) * x.denominator)
    return x


class QI:
    """Gaussian rational (a + b*i)/d, stored as three ints with d > 0 and
    gcd(a, b, d) = 1, so equal values have equal triples.  One common
    denominator keeps arithmetic on ints (Cohen, A Course in Computational
    Algebraic Number Theory, 4.2); `re` and `im` read back as Fractions."""

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        re, im = Fraction(re), Fraction(im)
        # over the lcm of the two reduced denominators the triple is reduced
        dr, di = re.denominator, im.denominator
        d = dr * di // gcd(dr, di)
        object.__setattr__(self, "a", re.numerator * (d // dr))
        object.__setattr__(self, "b", im.numerator * (d // di))
        object.__setattr__(self, "d", d)

    @classmethod
    def _make(cls, a, b, d):
        """The value (a + b*i)/d for ints a, b and d > 0."""
        if d != 1:
            g = gcd(a, b, d)
            a, b, d = a // g, b // g, d // g
        q = object.__new__(cls)
        object.__setattr__(q, "a", a)
        object.__setattr__(q, "b", b)
        object.__setattr__(q, "d", d)
        return q

    def __setattr__(self, *a):
        raise AttributeError("QI is immutable")

    def __reduce__(self):
        return QI._make, (self.a, self.b, self.d)

    @property
    def re(self):
        return Fraction(self.a, self.d)

    @property
    def im(self):
        return Fraction(self.b, self.d)

    @staticmethod
    def _lift(other):
        """(a, b, d) of an operand, or None for a foreign type."""
        if isinstance(other, QI):
            return other.a, other.b, other.d
        if isinstance(other, int):
            return other, 0, 1
        if isinstance(other, Fraction):
            return other.numerator, 0, other.denominator
        return None

    def __add__(self, other):
        o = QI._lift(other)
        if o is None:
            return NotImplemented
        a, b, d = o
        return QI._make(self.a * d + a * self.d, self.b * d + b * self.d,
                        self.d * d)

    __radd__ = __add__

    def __neg__(self):
        return QI._make(-self.a, -self.b, self.d)

    def __sub__(self, other):
        o = QI._lift(other)
        if o is None:
            return NotImplemented
        a, b, d = o
        return QI._make(self.a * d - a * self.d, self.b * d - b * self.d,
                        self.d * d)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = QI._lift(other)
        if o is None:
            return NotImplemented
        a, b, d = o
        return QI._make(self.a * a - self.b * b, self.a * b + self.b * a,
                        self.d * d)

    __rmul__ = __mul__

    def inverse(self):
        n = self.a * self.a + self.b * self.b
        if n == 0:
            raise ZeroDivisionError("0 in Q(i)")
        return QI._make(self.a * self.d, -self.b * self.d, n)

    def __truediv__(self, other):
        o = QI._lift(other)
        if o is None:
            return NotImplemented
        # (a1 + b1 i)/d1 * d2 (a2 - b2 i)/(a2^2 + b2^2)
        a, b, d = o
        n = a * a + b * b
        if n == 0:
            raise ZeroDivisionError("0 in Q(i)")
        return QI._make((self.a * a + self.b * b) * d,
                        (self.b * a - self.a * b) * d, self.d * n)

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, e):
        if isinstance(e, int) and e < 0:
            return self.inverse() ** (-e)
        return power(self, e, QI(1))

    def __eq__(self, other):
        o = QI._lift(other)
        if o is None:
            return NotImplemented
        return self.a == o[0] and self.b == o[1] and self.d == o[2]

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __hash__(self):
        if self.b == 0:
            return hash(self.re)
        return hash((self.re, self.im, "QI"))

    def __repr__(self):
        if self.b == 0:
            return "QI(%s)" % self.re
        return "QI(%s, %s)" % (self.re, self.im)


I = QI(0, 1)


class F4:
    """Element a + b*w of the field with four elements, w^2 = w + 1.
    There are exactly four F4 objects, F4_ELEMENTS[a | b << 1]: the
    constructor and the operations return one of them."""

    __slots__ = ("a", "b")

    def __new__(cls, a=0, b=0):
        return F4_ELEMENTS[a % 2 | b % 2 << 1]

    def __setattr__(self, *a):
        raise AttributeError("F4 is immutable")

    def __reduce__(self):
        return F4, (self.a, self.b)

    @staticmethod
    def _lift(other):
        if isinstance(other, F4):
            return other
        if isinstance(other, int):
            return F4(other)
        return NotImplemented

    def __add__(self, other):
        o = F4._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return F4_ELEMENTS[self.a ^ o.a | (self.b ^ o.b) << 1]

    __radd__ = __add__
    __sub__ = __add__
    __rsub__ = __add__

    def __neg__(self):
        return self

    def __mul__(self, other):
        o = F4._lift(other)
        if o is NotImplemented:
            return NotImplemented
        # (a+bw)(c+dw) = ac + (ad+bc)w + bd w^2,  w^2 = w+1
        a, b, c, d = self.a, self.b, o.a, o.b
        return F4_ELEMENTS[a & c ^ b & d | (a & d ^ b & c ^ b & d) << 1]

    __rmul__ = __mul__

    def inverse(self):
        if not self:
            raise ZeroDivisionError("0 in F4")
        # x^3 = 1 for x != 0, so x^-1 = x^2
        return self * self

    def __truediv__(self, other):
        o = F4._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, e):
        if isinstance(e, int) and e < 0:
            return self.inverse() ** (-e)
        return power(self, e, F4(1))

    def __eq__(self, other):
        o = F4._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __hash__(self):
        return hash((self.a, self.b, "F4"))

    def __repr__(self):
        return {(0, 0): "F4(0)", (1, 0): "F4(1)",
                (0, 1): "w", (1, 1): "w+1"}[(self.a, self.b)]


def _f4_element(a, b):
    x = object.__new__(F4)
    object.__setattr__(x, "a", a)
    object.__setattr__(x, "b", b)
    return x


F4_ELEMENTS = tuple(_f4_element(k & 1, k >> 1) for k in range(4))

W = F4(0, 1)


def char_of(x):
    """Characteristic of the field a sample element lives in."""
    if isinstance(x, Mod):
        return x.p
    if isinstance(x, F4):
        return 2
    if isinstance(x, (int, Fraction, QI)):
        return 0
    raise TypeError("unknown scalar type %r" % type(x))


def one_like(x):
    """Multiplicative identity of the field of x."""
    if isinstance(x, Mod):
        return Mod(1, x.p)
    if isinstance(x, F4):
        return F4(1)
    if isinstance(x, QI):
        return QI(1)
    if isinstance(x, (int, Fraction)):
        return Fraction(1)
    raise TypeError("unknown scalar type %r" % type(x))


def power(base, e, one):
    """base**e by repeated squaring, for an int e >= 0; `one` is the
    identity of the ring of base.  QI, F4 and MultiPoly raise to a power
    through it; Mod uses the built-in modular pow."""
    if not isinstance(e, int):
        raise TypeError("exponent %r is not an int" % (e,))
    if e < 0:
        raise ValueError("negative exponent %d" % e)
    r = one
    while e:
        if e & 1:
            r = r * base
        e >>= 1
        if e:
            base = base * base
    return r
