"""Tests for the exact arithmetic substrate: scalars, polynomials, matrices.
The Pfaffian is checked only here, so its code is here too."""

import copy
import operator
import pickle
import random
import re
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from desmic_kit.scalars import (Mod, QI, F4, W, I, F4_ELEMENTS, is_prime,
                                lift, power, sqrt_minus_one)
from desmic_kit.forms import Form, restrict
from desmic_kit.poly import MultiPoly, PolyRing, prem
from desmic_kit.lattices import (inertia_signature, smith_invariants,
                                 smith_normal_form)
from desmic_kit.matrices import (bilinear, det_poly_matrix, matrix_rank,
                                 nullspace, rref)
from desmic_kit.projgeom import LineP3

import oracles


# ---------------------------------------------------------------- scalars --

def test_mod_field():
    a = Mod(7, 13)
    assert a + 8 == Mod(2, 13)
    assert a * a == Mod(49, 13)
    assert (a / a) == Mod(1, 13)
    assert a ** -1 * a == 1
    assert -a == Mod(6, 13)


def is_mod(x, v, p):
    return type(x) is Mod and (x.v, x.p) == (v % p, p)


@pytest.mark.parametrize("p", [2, 3, 4, 13])
def test_mod_agrees_with_extended_euclid_oracle(p):
    """The reflected and derived operators of every residue against integer
    arithmetic with the extended-Euclid inverse; mod 4 the even residues
    have none, and dividing by them raises."""
    def raises_not_invertible(f, *args):
        with pytest.raises(ZeroDivisionError,
                           match="^not invertible mod %d$" % p):
            f(*args)

    for v in range(p):
        x = Mod(v, p)
        inv = oracles.xgcd_inverse(v, p)
        if inv is None:
            raises_not_invertible(Mod.inverse, x)
        else:
            assert is_mod(x.inverse(), inv, p)
        for n in range(-p, p + 1):
            assert is_mod(n - x, n - v, p)
            if inv is None:
                raises_not_invertible(lambda: n / x)
            else:
                assert is_mod(n / x, n * inv, p)
        for w in range(p):
            if inv is None:
                raises_not_invertible(lambda: Mod(w, p) / x)
            else:
                assert is_mod(Mod(w, p) / x, w * inv, p)
        for k in range(1, 5):
            if inv is None:
                raises_not_invertible(pow, x, -k)
            else:
                assert is_mod(x ** -k, oracles.naive_power(inv, k, 1), p)


def test_sqrt_minus_one_canonical():
    assert sqrt_minus_one(13) == Mod(5, 13)
    assert sqrt_minus_one(17) == Mod(4, 17)
    for p in (13, 17, 29):
        i = sqrt_minus_one(p)
        assert i * i == Mod(-1, p)
    # no root: p = 3 mod 4, or p = 1 mod 4 that is not a prime
    for p in (7, 2, 1, 9, 21, 25, 45, 65):
        with pytest.raises(ValueError, match="mod %d" % p):
            sqrt_minus_one(p)


def smallest_root_by_search(p):
    """The oracle: the old linear search for the smallest root of -1."""
    return next(x for x in range(2, p) if x * x % p == p - 1)


def test_sqrt_minus_one_agrees_with_linear_search():
    for p in range(5, 20000, 4):
        if is_prime(p):
            assert sqrt_minus_one(p) == Mod(smallest_root_by_search(p), p)


def test_sqrt_minus_one_large_prime():
    # the linear search needs 4.5e7 steps here; the root is its answer
    assert sqrt_minus_one(100000037) == Mod(44612474, 100000037)


def test_lift_agrees_with_repeated_addition():
    """Over each field, and over the rationals given by the int 1, n lifts
    to the n-fold sum of one, n/3 (3 is a unit in each) to the exact
    element whose threefold sum is the image of n, and the Fraction n to
    the image of the int n, also when one is not the field's identity."""
    for one in (Mod(1, 13), QI(1), Fraction(1), F4(1), W, 1):
        for n in range(-7, 8):
            r = one * 0
            for _ in range(abs(n)):
                r = r + one
            assert lift(one, n) == (r if n >= 0 else -r)
            third = lift(one, Fraction(n, 3))
            assert not isinstance(third, float)
            assert third * 3 == lift(one, n)
            assert lift(one, Fraction(n)) == lift(one, n)


LIFT_FIELDS = [("Q", Fraction(1), [Fraction(-3, 7)]),
               ("Qi", QI(1), [I, QI(Fraction(1, 2), -3)]),
               ("F13", Mod(1, 13), [Mod(5, 13)]),
               ("F2", Mod(1, 2), [Mod(1, 2)]),
               ("F4", F4(1), list(F4_ELEMENTS))]


@pytest.mark.parametrize("one,elements", [f[1:] for f in LIFT_FIELDS],
                         ids=[f[0] for f in LIFT_FIELDS])
def test_lift_agrees_with_the_helpers_it_replaced(one, elements):
    """lift takes the value of from_int on ints, of lift_scalar on ints,
    Fractions and field elements, of lift_point on a whole tuple, and of
    as_field over Q; unlike lift_point it also maps a Fraction into the
    field, where it hashes like the lifted int."""
    ints = list(range(-4, 5))
    fracs = [Fraction(n, d) for n in (-3, 0, 2, 5) for d in (1, 3, 7)]
    for n in ints:
        assert lift(one, n) == oracles.from_int(one, n)
    for x in ints + fracs + elements:
        got = lift(one, x)
        assert got == oracles.lift_scalar(one, x)
        assert hash(got) == hash(oracles.lift_scalar(one, x))
    pt = tuple(ints + elements)
    assert tuple(lift(one, x) for x in pt) == oracles.lift_point(one, pt)
    for x in ints + fracs + elements:
        assert lift(Fraction(1), x) == oracles.as_field(x)
    for f in fracs:
        assert type(lift(one, f)) is type(one)
        if f.denominator == 1:
            assert hash(lift(one, f)) == hash(lift(one, f.numerator))


def test_gaussian_rationals():
    assert I * I == QI(-1)
    a = QI(Fraction(1, 2), 3)
    assert a * QI(a.re, -a.im) == QI(a.re ** 2 + a.im ** 2)
    assert (a / a) == QI(1)
    assert a + Fraction(1, 2) == QI(1, 3)
    assert QI(2) == 2


def agrees(new, old):
    """new is a QI in lowest terms with the value of the oracle's old."""
    return (isinstance(new, QI) and type(new.re) is Fraction
            and type(new.im) is Fraction
            and (new.re, new.im) == (old.re, old.im)
            and new.d > 0 and gcd(new.a, new.b, new.d) == 1
            and repr(new) == repr(old) and hash(new) == hash(old))


def outcome(f, *args):
    """f(*args), or the type of the exception it raises."""
    try:
        return f(*args)
    except ZeroDivisionError as exc:
        return type(exc), str(exc)


rationals = st.fractions(min_value=-40, max_value=40, max_denominator=60)
plain_scalars = st.one_of(st.integers(-30, 30), rationals)


@settings(max_examples=300, deadline=None)
@given(rationals, rationals, rationals, rationals, plain_scalars)
def test_qi_agrees_with_fraction_pair_oracle(r1, i1, r2, i2, c):
    x, y = QI(r1, i1), QI(r2, i2)
    ox, oy = oracles.FractionPairQI(r1, i1), oracles.FractionPairQI(r2, i2)
    assert agrees(x, ox) and agrees(y, oy)
    ops = [lambda u, v: u + v, lambda u, v: u - v, lambda u, v: u * v,
           lambda u, v: u / v]
    for op in ops:
        want = outcome(op, ox, oy)
        got = outcome(op, x, y)
        assert got == want if isinstance(want, tuple) else agrees(got, want)
        # mixed operands: an int or a Fraction on either side
        for args, oargs in (((x, c), (ox, c)), ((c, x), (c, ox))):
            want = outcome(op, *oargs)
            got = outcome(op, *args)
            assert got == want if isinstance(want, tuple) \
                else agrees(got, want)
    assert agrees(-x, -ox)
    got, want = outcome(QI.inverse, x), outcome(oracles.FractionPairQI.inverse, ox)
    assert got == want if isinstance(want, tuple) else agrees(got, want)
    for e in range(-3, 5):
        got, want = outcome(pow, x, e), outcome(pow, ox, e)
        assert got == want if isinstance(want, tuple) else agrees(got, want)
    assert (x == y) == (ox == oy) and (x == c) == (ox == c)
    assert (c == x) == (c == ox) and bool(x) == bool(ox)


@settings(max_examples=200, deadline=None)
@given(plain_scalars)
def test_real_qi_hashes_and_compares_like_its_value(c):
    x = QI(c)
    assert x == c and c == x and x == QI(c, 0)
    assert hash(x) == hash(c) == hash(Fraction(c))
    assert {x: 1}[c] == 1
    assert x != QI(c, 1) and QI(c, 1) != c


def test_qi_representation_and_errors():
    x = QI(Fraction(3, 4), Fraction(-5, 6))
    assert (x.a, x.b, x.d) == (9, -10, 12)
    assert (QI(0).a, QI(0).b, QI(0).d) == (0, 0, 1)
    assert repr(x) == "QI(3/4, -5/6)" and repr(QI(Fraction(-2, 4))) \
        == "QI(-1/2)"
    assert QI("1/3", 2) == QI(Fraction(1, 3), 2)
    with pytest.raises(ZeroDivisionError, match="0 in Q"):
        QI(0).inverse()
    with pytest.raises(ZeroDivisionError, match="0 in Q"):
        QI(1) / 0
    with pytest.raises(ZeroDivisionError, match="0 in Q"):
        Fraction(1) / QI(0)
    for attr in ("re", "im", "a", "b", "d", "other"):
        with pytest.raises(AttributeError):
            setattr(x, attr, 1)
    assert x.__eq__(Mod(1, 13)) is NotImplemented and x != 0.75
    with pytest.raises(TypeError):
        x + Mod(1, 13)


def test_f4():
    assert W * W == W + 1
    assert W ** 3 == F4(1)
    assert W + W == F4(0)
    assert (W / W) == F4(1)
    assert all(x * x.inverse() == F4(1) for x in F4_ELEMENTS if x)


def test_f4_agrees_with_formula_oracle_on_all_pairs():
    """The four interned elements against the mod-2 formulas, on all 16
    pairs, with an int on the left and with negative powers; every result
    is one of the four."""
    bits = [(a, b) for b in (0, 1) for a in (0, 1)]
    for x, (a, b) in zip(F4_ELEMENTS, bits):
        ox = oracles.F4Formulas(a, b)
        assert (x.a, x.b) == (a, b)
        assert x is F4(ox.a, ox.b) and repr(x) == repr(ox)
        if a or b:
            assert repr(x.inverse()) == repr(ox.inverse())
        else:
            for zero in (x, ox):
                with pytest.raises(ZeroDivisionError):
                    zero.inverse()
        for y, (c, d) in zip(F4_ELEMENTS, bits):
            oy = oracles.F4Formulas(c, d)
            assert (x == y) == (ox == oy)
            results = [(x + y, ox + oy), (x - y, ox - oy), (x * y, ox * oy)]
            if c or d:
                results.append((x / y, ox / oy))
            for got, want in results:
                assert any(got is e for e in F4_ELEMENTS)
                assert (got.a, got.b) == (want.a, want.b)
                assert got is F4(want.a, want.b) and repr(got) == repr(want)
        for n in range(-2, 4):
            on = oracles.F4Formulas(n)
            results = [(n - x, on - ox)]
            if a or b:
                results.append((n / x, on / ox))
            for got, want in results:
                assert any(got is e for e in F4_ELEMENTS) and \
                    repr(got) == repr(want)
            if not (a or b):
                with pytest.raises(ZeroDivisionError, match="0 in F4"):
                    n / x
        for k in range(1, 5):
            if a or b:
                want = oracles.naive_power(ox.inverse(), k,
                                           oracles.F4Formulas(1))
                assert x ** -k is F4_ELEMENTS[want.a | want.b << 1]
            else:
                with pytest.raises(ZeroDivisionError, match="0 in F4"):
                    x ** -k
    assert -W is W


def test_f4_elements_are_interned_and_immutable():
    assert F4(-3, 5) is F4(1, 1) is W + 1
    assert F4(2) is F4(0) is F4_ELEMENTS[0] and F4(1, 0) is F4(7)
    assert W * W is W + 1 and F4(1) / W is W + 1 and W + 1 is 1 + W
    for x in F4_ELEMENTS:
        for attr in ("a", "b", "other"):
            with pytest.raises(AttributeError):
                setattr(x, attr, 1)
    assert [(x.a, x.b) for x in F4_ELEMENTS] == [(0, 0), (1, 0), (0, 1),
                                                  (1, 1)]


ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
    "pickle-0": lambda x: pickle.loads(pickle.dumps(x, 0)),
}


@pytest.mark.parametrize("how", sorted(ROUND_TRIPS))
def test_scalars_survive_copy_and_pickle(how):
    trip = ROUND_TRIPS[how]
    values = [Mod(0, 13), Mod(5, 13), Mod(-1, 2), QI(0), QI(-3), I,
              QI(Fraction(1, 3), Fraction(-2, 5)), QI(Fraction(7, 2))]
    for x in values + list(F4_ELEMENTS):
        y = trip(x)
        assert type(y) is type(x) and y == x and hash(y) == hash(x)
        assert repr(y) == repr(x)
    for x in F4_ELEMENTS:
        assert trip(x) is x
    # a QI comes back with its reduced triple
    q = trip(QI(Fraction(1, 3), Fraction(-2, 5)))
    assert (q.a, q.b, q.d) == (5, -6, 15)
    assert trip([Mod(3, 7), {W: QI(1, 1)}]) == [Mod(3, 7), {W: QI(1, 1)}]


def test_f4_hash_agrees_with_equality_of_the_interned_elements():
    # F4 hashes by identity: equal elements are one object, whether made by
    # the constructor, a copy or a pickle round trip
    for x in F4_ELEMENTS:
        assert F4(x.a, x.b) is x and F4(x.a + 2, x.b - 4) is x
        for trip in ROUND_TRIPS.values():
            assert trip(x) is x
    for x in F4_ELEMENTS:
        for y in F4_ELEMENTS:
            assert (hash(x) == hash(y)) == (x == y) == (x is y)
    # the 21 points of PG(2,4), each a triple of first nonzero entry 1
    triples = [(F4(1), F4(a, b), F4(c, d)) for a in (0, 1) for b in (0, 1)
               for c in (0, 1) for d in (0, 1)]
    triples += [(F4(0), F4(1), F4(a, b)) for a in (0, 1) for b in (0, 1)]
    triples.append((F4(0), F4(0), F4(1)))
    copies = copy.deepcopy(triples) + pickle.loads(pickle.dumps(triples))
    assert len(set(triples)) == len(set(triples + copies)) == 21


# -- the exact-type fast paths of the scalar operators ------------------------
#
# Each binary operator of QI, Mod and F4 takes an operand of exactly its own
# type inline and any other through _lift; arithmetic builds its results by
# _make, without the validation of the public constructors.

class SubQI(QI):
    """An operand that is a QI but not exactly one: it takes the _lift
    path."""

    __slots__ = ()


class SubMod(Mod):
    __slots__ = ()


class Foreign:
    """An operand that no scalar type knows."""


BINARY_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
              "/": operator.truediv, "==": operator.eq}


def random_fraction(rng):
    return Fraction(rng.randint(-60, 60), rng.randint(1, 40))


def test_qi_fast_paths_agree_with_fraction_pair_oracle():
    """Seeded random operations, with a QI, a QI subclass, an int or a
    Fraction on either side, against the Fraction-pair oracle: every result
    is a reduced QI (exactly), and a zero divisor raises alike."""
    rng = random.Random(20251)
    for _ in range(1500):
        r1, i1, r2, i2 = (random_fraction(rng) for _ in range(4))
        if rng.random() < 0.2:
            i2 = 0
        x, ox = QI(r1, i1), oracles.FractionPairQI(r1, i1)
        kind = rng.choice(["QI", "SubQI", "int", "Fraction"])
        if kind == "QI":
            y, oy = QI(r2, i2), oracles.FractionPairQI(r2, i2)
        elif kind == "SubQI":
            y, oy = SubQI(r2, i2), oracles.FractionPairQI(r2, i2)
        elif kind == "int":
            y = oy = rng.randint(-9, 9)
        else:
            y = oy = r2
        for name, op in BINARY_OPS.items():
            for args, oargs in (((x, y), (ox, oy)), ((y, x), (oy, ox))):
                got, want = outcome(op, *args), outcome(op, *oargs)
                if isinstance(want, (bool, tuple)):
                    assert got == want, (name, args)
                else:
                    assert type(got) is QI and agrees(got, want), (name, args)


def test_mod_fast_paths_agree_with_integer_arithmetic():
    """Seeded random operations, with a Mod, a Mod subclass, an int or a
    Fraction on either side, against int arithmetic mod p."""
    rng = random.Random(20252)
    for _ in range(1500):
        p = rng.choice([2, 3, 5, 13, 37, 10007])
        v = rng.randrange(-3 * p, 3 * p)
        x = Mod(v, p)
        w = rng.randrange(-3 * p, 3 * p)
        kind = rng.choice(["Mod", "SubMod", "int", "Fraction"])
        if kind == "Mod":
            y, yv = Mod(w, p), w
        elif kind == "SubMod":
            y, yv = SubMod(w, p), w
        elif kind == "int":
            y, yv = w, w
        else:
            d = rng.choice([d for d in range(1, 12) if d % p])
            y, yv = Fraction(w, d), w * pow(d, -1, p)
        for a, av, b, bv in ((x, v, y, yv), (y, yv, x, v)):
            assert is_mod(a + b, av + bv, p) and is_mod(a - b, av - bv, p)
            assert is_mod(a * b, av * bv, p)
            assert (a == b) is ((av - bv) % p == 0)
            if bv % p:
                assert is_mod(a / b, av * pow(bv, -1, p), p)
            else:
                with pytest.raises(ZeroDivisionError,
                                   match="^not invertible mod %d$" % p):
                    a / b
        assert is_mod(-x, -v, p)


def test_foreign_operands_are_not_implemented():
    """A foreign operand, or a float, gets NotImplemented from every
    operator, so Python raises TypeError either way round and == is
    False."""
    for x in (QI(1, 2), SubQI(3), Mod(3, 7), SubMod(2, 5), W, F4(1)):
        for other in (Foreign(), 0.5):
            for name in ("__add__", "__radd__", "__sub__", "__rsub__",
                         "__mul__", "__rmul__", "__truediv__",
                         "__rtruediv__", "__eq__"):
                assert getattr(x, name)(other) is NotImplemented, (x, name)
            for name, op in BINARY_OPS.items():
                if name == "==":
                    assert not op(x, other) and not op(other, x)
                    continue
                with pytest.raises(TypeError):
                    op(x, other)
                with pytest.raises(TypeError):
                    op(other, x)


def test_integral_qi_hashes_like_its_int():
    """An integral QI hashes as its int, which is the hash of that
    Fraction; any other QI hashes as the Fraction-pair oracle did."""
    ints = list(range(-20, 21)) + [2 ** 61 - 2, 2 ** 61 - 1, 2 ** 61,
                                   -2 ** 64 + 3, 10 ** 30]
    for n in ints:
        assert hash(QI(n)) == hash(n) == hash(Fraction(n))
        assert hash(QI(n) * 1) == hash(QI(Fraction(2 * n, 2))) == hash(n)
    rng = random.Random(20253)
    for _ in range(1000):
        r, i = random_fraction(rng), rng.choice([0, random_fraction(rng)])
        assert hash(QI(r, i)) == hash(oracles.FractionPairQI(r, i))
        assert hash(QI(r, i) + 0) == hash(QI(r, i))


def test_frozen_values_refuse_deletion():
    """del raises like assignment, so an interned value keeps its slots."""
    line = LineP3([1, 0, 0, 0], [0, 1, 0, 0])
    for x in (Mod(3, 7), QI(1, 2), W, line):
        for attr in x.__slots__:
            with pytest.raises(AttributeError, match="is immutable"):
                delattr(x, attr)
    assert F4_ELEMENTS[2] is W and (W.a, W.b) == (0, 1)
    assert W * W is W + 1 and W.inverse() is W + 1
    assert (Mod(3, 7).v, QI(1, 2).b, line.plucker[0]) == (3, 2, 1)


@pytest.mark.parametrize("how", sorted(ROUND_TRIPS))
def test_made_scalars_are_immutable_and_survive_copy_and_pickle(how):
    """Results of arithmetic, built by _make, are as frozen as constructed
    values and make the same round trips."""
    trip = ROUND_TRIPS[how]
    made = [QI(1, 2) * QI(3, -4), QI(Fraction(1, 3)) / 7, -I, I.inverse(),
            QI(Fraction(5, 6), 1) - Fraction(1, 6), I ** 3,
            Mod(3, 7) * Mod(5, 7), Mod(3, 7) + 9, Mod(2, 13).inverse(),
            Mod(2, 13) ** 5, -Mod(1, 2), Mod(4, 11) / Fraction(1, 3),
            W * W, F4(1) / W]
    for x in made:
        for attr in x.__slots__ + ("other",):
            with pytest.raises(AttributeError, match="is immutable"):
                setattr(x, attr, 1)
        y = trip(x)
        assert type(y) is type(x) and y == x and hash(y) == hash(x)
        assert repr(y) == repr(x)


def test_arithmetic_runs_no_public_constructor(monkeypatch):
    """Validation stays at the boundary: a seeded loop of QI and Mod
    arithmetic, with ints and Fractions among the operands, builds every
    result without calling QI.__init__ or Mod.__init__."""
    rng = random.Random(20254)
    p = 37
    qs = [QI(random_fraction(rng), random_fraction(rng)) for _ in range(30)]
    qs += [QI(rng.randint(-5, 5)) for _ in range(10)]
    ms = [Mod(rng.randrange(p), p) for _ in range(40)]
    calls = []
    for cls in (QI, Mod):
        def counted(self, *args, _init=cls.__init__):
            calls.append(type(self).__name__)
            _init(self, *args)
        monkeypatch.setattr(cls, "__init__", counted)
    # the wrapper sees a public construction
    assert QI(1) == 1 and Mod(1, p) == 1 and calls == ["QI", "Mod"]
    del calls[:]
    for _ in range(1000):
        n = rng.randint(-5, 5)
        f = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        for x, y in ((rng.choice(qs), rng.choice(qs)),
                     (rng.choice(ms), rng.choice(ms))):
            _ = (x + y, x - y, x * y, -x, x + n, n - x, x * f, f * x,
                 x ** 3, x == y, x == n, hash(x))
            if y:
                _ = (x / y, n / y, f / y, y.inverse(), y ** -2)
    assert calls == []


def test_public_constructors_still_validate():
    for bad, err, msg in (
            (lambda: Mod(2.5, 7), TypeError,
             "Mod value 2.5 is not an int or a Mod"),
            (lambda: QI(0.1), TypeError, "QI part 0.1 is a float"),
            (lambda: QI(1, 0.5), TypeError, "QI part 0.5 is a float"),
            (lambda: Mod(3, 1), ValueError, "modulus 1 is below 2"),
            (lambda: Mod(Mod(3, 5), 7), ValueError, "mixed moduli 5 and 7"),
            (lambda: Mod(1, 5) + Mod(1, 7), ValueError,
             "mixed moduli 5 and 7"),
            (lambda: Mod(1, 5) * SubMod(1, 7), ValueError,
             "mixed moduli 5 and 7"),
            (lambda: Mod(1, 5) == Mod(1, 7), ValueError,
             "mixed moduli 5 and 7"),
            (lambda: Mod(1, 5) / Mod(0, 7), ValueError,
             "mixed moduli 5 and 7"),
            (lambda: SubMod(1, 7) - Mod(1, 5), ValueError,
             "mixed moduli 7 and 5")):
        with pytest.raises(err, match="^%s$" % re.escape(msg)):
            bad()


QI_XY = PolyRing(["x", "y"], QI(1))
POWER_BASES = {
    "F13": (Mod(1, 13), [Mod(n, 13) for n in (0, 1, 2, 5, 12)]),
    "Qi": (QI(1), [QI(0), QI(1), I, QI(1, 1), QI(Fraction(2, 3), -1)]),
    "F4": (F4(1), list(F4_ELEMENTS)),
    "poly": (QI_XY.const(1), [QI_XY.zero(), QI_XY.var("x") + I,
                              QI_XY.var("y").scale(QI(1, -1))]),
}


@pytest.mark.parametrize("field", sorted(POWER_BASES))
def test_power_agrees_with_repeated_multiplication(field):
    one, bases = POWER_BASES[field]
    for x in bases:
        for e in range(41):
            want = oracles.naive_power(x, e, one)
            assert power(x, e, one) == want, (x, e)
            assert x ** e == want, (x, e)


class CountedMul:
    """A ring element that logs each product as (left, right) names."""

    def __init__(self, name, log):
        self.name, self.log = name, log

    def __mul__(self, other):
        self.log.append((self.name, other.name))
        return CountedMul("(%s*%s)" % (self.name, other.name), self.log)


def test_power_squares_only_while_bits_remain():
    log = []
    one, x = CountedMul("1", log), CountedMul("x", log)
    power(x, 1, one)
    assert log == [("1", "x")]
    for e in range(41):
        del log[:]
        power(x, e, one)
        squarings = sum(1 for a, b in log if a == b)
        assert squarings == max(e.bit_length() - 1, 0), e
        assert len(log) - squarings == bin(e).count("1"), e


scalar_samples = {
    "Q": [Fraction(n, d) for n in range(-3, 4) for d in (1, 2, 3)],
    "Qi": [QI(n, m) for n in range(-2, 3) for m in range(-2, 3)],
    "F13": [Mod(n, 13) for n in range(13)],
    "F4": list(F4_ELEMENTS),
}


@pytest.mark.parametrize("field", sorted(scalar_samples))
def test_field_axioms_sampled(field):
    xs = scalar_samples[field]
    rng = random.Random(7)
    for _ in range(50):
        a, b, c = (rng.choice(xs) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if b:
            assert (a / b) * b == a


# ------------------------------------------------------------ polynomials --

def ring_q(*names):
    return PolyRing(names)


def test_poly_subst_basic():
    r = ring_q("x", "y")
    x, y = r.gens()
    f = x + y
    r2 = ring_q("u", "v")
    u, v = r2.gens()
    assert f.subst({"x": u ** 2, "y": v}) == u ** 2 + v


def test_poly_subst_missing_var():
    r = ring_q("x", "y")
    x, y = r.gens()
    with pytest.raises(ValueError):
        (x + y).subst({"x": x})


def test_poly_fraction_coefficients_enter_f4_through_lift():
    # 3 = 1 in F_4, so 1/3 lifts to 1; the product F4(1) * Fraction(1, 3)
    # is undefined
    third = Fraction(1, 3)
    f4 = PolyRing(["y"], F4(1))
    y = f4.var("y")
    assert y + third == y + 1 == third + y
    assert y * third == y
    assert (y - third) * (y + third) == y * y + 1
    x = ring_q("x").var("x")
    assert x.scale(third).subst({"x": y}, f4) == y
    # 1/9 + 1/3 = 1 + 1 = 0 in F_4
    assert (x * x + third).subst({"x": third}, f4) == f4.zero()
    assert (x + 3).subst({"x": y}, f4) == y + 1


def test_poly_rejects_a_scalar_of_another_field():
    x = PolyRing(["x"], Mod(1, 13)).var("x")
    with pytest.raises(ValueError, match="mixed moduli 13 and 17"):
        x + Mod(1, 17)
    with pytest.raises(ValueError, match="mixed moduli 13 and 17"):
        (x * x).subst({"x": Mod(1, 17)})
    with pytest.raises(TypeError):
        ring_q("x").var("x") + 0.5


def test_poly_ring_rejects_a_repeated_variable():
    with pytest.raises(ValueError, match="repeated variable 'x'"):
        PolyRing(["x", "y", "x"])
    # a parameter named like restrict's span coordinates is refused, not
    # conflated with the first of them
    s0, x, y = PolyRing(["s0", "x", "y"]).gens()
    with pytest.raises(ValueError, match="repeated variable 's0'"):
        restrict(Form(s0 * x + y, ("x", "y")), [(1, 0), (0, 1)])


def test_poly_ring_rejects_a_composite_modulus():
    with pytest.raises(ValueError, match="modulus 4 is not prime"):
        PolyRing(["x"], Mod(1, 4))
    with pytest.raises(ValueError, match="modulus 91 is not prime"):
        PolyRing(["x", "y"], Mod(3, 91))
    assert PolyRing(["x"], Mod(1, 2)).char == 2


def test_poly_mixed_ring_rejected():
    r1, r2 = ring_q("x"), ring_q("y")
    with pytest.raises(ValueError):
        r1.var("x") + r2.var("y")


def test_rings_over_different_fields_are_unequal():
    # the same names over Q, Q(i), F_5, F_7 and F_4: the field tells them
    # apart, not the value of one (QI(1) == Fraction(1), and Mod(1, 5) vs
    # Mod(1, 7) raises "mixed moduli")
    rings = [PolyRing(["x", "y"], one) for one in
             (Fraction(1), QI(1), Mod(1, 5), Mod(1, 7), F4(1))]
    for r, s in combinations(rings, 2):
        assert r != s and s != r
        with pytest.raises(ValueError, match="mixed polynomial rings"):
            r.var("x") * 3 + s.var("x")
    assert all(r == PolyRing(["x", "y"], r.one) for r in rings)


X = PolyRing(["x"]).var("x")


@pytest.mark.parametrize("call,error,match", [
    (lambda: Mod(2, 5) ** 1.5, TypeError, "exponent 1.5 is not an int"),
    (lambda: QI(1, 1) ** Fraction(1, 2), TypeError, "Fraction(1, 2)"),
    (lambda: F4(1) ** "2", TypeError, "exponent '2' is not an int"),
    (lambda: X ** 2.0, TypeError, "exponent 2.0 is not an int"),
    (lambda: X ** -1, ValueError, "negative exponent -1"),
    (lambda: smith_normal_form([[1, 2], [3]]), ValueError,
     "ragged rows: row 1 has 1 entries, row 0 has 2"),
    (lambda: smith_normal_form([[1, Fraction(1, 2)]]), ValueError,
     "row 0 entry Fraction(1, 2) is not an int"),
    (lambda: Mod(Fraction(1, 2), 5), TypeError,
     "Mod value Fraction(1, 2) is not an int or a Mod"),
    (lambda: Mod(2.5, 7), TypeError, "Mod value 2.5 is not an int or a Mod"),
    (lambda: QI(0.1), TypeError, "QI part 0.1 is a float"),
    (lambda: QI(1, 0.5), TypeError, "QI part 0.5 is a float"),
], ids=["mod-pow", "qi-pow", "f4-pow", "poly-pow-type", "poly-pow-negative",
        "matrix-ragged", "matrix-entry", "mod-fraction", "mod-float",
        "qi-float-re", "qi-float-im"])
def test_arithmetic_rejects_bad_operands_by_name(call, error, match):
    with pytest.raises(error, match=re.escape(match)):
        call()


def test_poly_derivative_char2():
    r = PolyRing(["x", "w"], Mod(1, 2))
    x, w = r.gens()
    f = w ** 2 * x + x ** 2
    assert f.diff("w").is_zero()
    assert f.diff("x") == w ** 2


def test_prem_membership():
    r = ring_q("z", "b")
    z, b = r.gens()
    g = b * z ** 2 + 1
    f = (z ** 3 + b) * g
    assert prem(f, g, "z").is_zero()
    assert not prem(f + z, g, "z").is_zero()


@st.composite
def small_polys(draw, ring, coeff_strategy):
    n = ring.nvars()
    terms = draw(st.lists(
        st.tuples(st.tuples(*[st.integers(0, 2)] * n), coeff_strategy),
        max_size=4))
    out = ring.zero()
    for e, c in terms:
        out = out + MultiPoly(ring, {e: ring.one}).scale(ring.one * c)
    return out


COEFF = {
    "Q": (PolyRing(["x", "y"]), st.fractions(min_value=-3, max_value=3,
                                             max_denominator=4)),
    "Qi": (PolyRing(["x", "y"], QI(1)),
           st.builds(QI, st.integers(-2, 2), st.integers(-2, 2))),
    "F13": (PolyRing(["x", "y"], Mod(1, 13)),
            st.builds(lambda n: Mod(n, 13), st.integers(0, 12))),
    "F4": (PolyRing(["x", "y"], F4(1)),
           st.sampled_from(F4_ELEMENTS)),
}


@pytest.mark.parametrize("variant", sorted(COEFF))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_poly_ring_axioms(variant, data):
    ring, cs = COEFF[variant]
    f = data.draw(small_polys(ring, cs))
    g = data.draw(small_polys(ring, cs))
    h = data.draw(small_polys(ring, cs))
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f + ring.zero() == f
    assert f * ring.const(1) == f


def test_divexact():
    r = ring_q("x", "y")
    x, y = r.gens()
    f = (x + y) ** 3 * (x - 2 * y)
    assert f.divexact(x + y) == (x + y) ** 2 * (x - 2 * y)
    with pytest.raises(ValueError):
        (x ** 2 + y).divexact(x + y)


# ---------------------------------------------------------------- matrices --

def test_det_small():
    r = ring_q("x", "y", "z", "w")
    x, y, z, w = r.gens()
    assert det_poly_matrix([[x]]) == x
    assert det_poly_matrix([[x, y], [z, w]]) == x * w - y * z
    with pytest.raises(ValueError):
        det_poly_matrix([[x, y]])


def test_det_scalar_entries():
    m = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
    assert det_poly_matrix(m) == Fraction(-2)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_det_integer_entries_stay_exact(seed):
    # integer entries take the exact // path: the result is an int equal
    # to the Fraction determinant, and a mixed matrix is not floored
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    d = det_poly_matrix(m)
    assert type(d) is int
    assert d == det_poly_matrix([[Fraction(x) for x in r] for r in m])
    half = [[Fraction(x, 2) if (i, j) == (n - 1, n - 1) else x
             for j, x in enumerate(r)] for i, r in enumerate(m)]
    frac = det_poly_matrix([[Fraction(x) for x in r] for r in half])
    assert det_poly_matrix(half) == frac


def dense_bilinear(gram, u, v):
    """The oracle: the dense double sum over every entry."""
    n = len(gram)
    return sum(u[r] * gram[r][c] * v[c] for r in range(n) for c in range(n))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_bilinear_agrees_with_dense_sum(data):
    n = data.draw(st.integers(1, 7))
    gram = data.draw(st.lists(st.lists(st.integers(-4, 4), min_size=n,
                                       max_size=n), min_size=n, max_size=n))
    entry = st.one_of(st.just(0), st.integers(-5, 5),
                      st.fractions(-5, 5, max_denominator=6))
    u = data.draw(st.lists(entry, min_size=n, max_size=n))
    v = data.draw(st.lists(entry, min_size=n, max_size=n))
    assert bilinear(gram, u, v) == dense_bilinear(gram, u, v)


def pfaffian_poly_matrix(m):
    """Pfaffian of an alternating matrix (zero diagonal, skew; in char 2
    this means symmetric with zero diagonal), by expansion along the first
    row.  Pf(M)^2 = det(M)."""
    n = len(m)
    if n % 2:
        raise ValueError("odd-size alternating matrix")
    zero = m[0][0] * 0
    for i in range(n):
        if m[i][i] != zero:
            raise ValueError("nonzero diagonal")
        for j in range(n):
            if m[i][j] != -m[j][i]:
                raise ValueError("matrix not alternating")

    def pf(idx):
        if not idx:
            return zero + 1
        total = zero
        for pos in range(1, len(idx)):
            a = m[idx[0]][idx[pos]]
            if a != zero:
                # sign (-1)^(pos+1): pos = 1 is positive
                term = a * pf(idx[1:pos] + idx[pos + 1:])
                total = total + (-term if pos % 2 == 0 else term)
        return total

    return pf(list(range(n)))


def test_pfaffian_small():
    r = ring_q("a", "b", "c", "d", "e", "f")
    a, b, c, d, e, f = r.gens()
    assert pfaffian_poly_matrix([[r.zero(), f], [-f, r.zero()]]) == f
    z = r.zero()
    m = [[z, a, b, c],
         [-a, z, d, e],
         [-b, -d, z, f],
         [-c, -e, -f, z]]
    assert pfaffian_poly_matrix(m) == a * f - b * e + c * d


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from([2, 4, 6]))
def test_pfaffian_squared_is_det(seed, n):
    rng = random.Random(seed)
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = Fraction(rng.randint(-4, 4))
            m[i][j] = v
            m[j][i] = -v
    pf = pfaffian_poly_matrix(m)
    assert pf * pf == det_poly_matrix(m)


def test_pfaffian_char2_symmetric_zero_diagonal():
    r2 = PolyRing(["a", "b", "c", "d", "e", "f"], Mod(1, 2))
    a, b, c, d, e, f = r2.gens()
    z = r2.zero()
    m = [[z, a, b, c],
         [a, z, d, e],
         [b, d, z, f],
         [c, e, f, z]]
    pf = pfaffian_poly_matrix(m)
    assert pf == a * f + b * e + c * d
    assert pf * pf == det_poly_matrix(m)


def gram_a(n):
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = 2
        if i:
            g[i][i - 1] = g[i - 1][i] = -1
    return g


def gram_d(n):
    g = gram_a(n)
    g[0][1] = g[1][0] = 0
    g[0][2] = g[2][0] = -1
    return g


def gram_e8():
    # E8 as D8 plus one extra node on the third vertex of the chain
    g = [[0] * 8 for _ in range(8)]
    adj = [(0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)]
    # that is D8; E8 instead: chain of 7 with one branch at node 4
    g = [[0] * 8 for _ in range(8)]
    chain = [(i, i + 1) for i in range(6)]
    adj = chain + [(4, 7)]
    for i in range(8):
        g[i][i] = 2
    for i, j in adj:
        g[i][j] = g[j][i] = -1
    return g


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def matmul(a, b):
    return [[sum(x * y for x, y in zip(r, c)) for c in zip(*b)] for r in a]


def test_smith_identity():
    d, u, v = smith_normal_form(identity(3))
    assert d == identity(3)


def test_smith_gram_a3():
    assert smith_invariants(gram_a(3)) == [1, 1, 4]


def test_smith_gram_d8():
    inv = smith_invariants(gram_d(8))
    assert inv[-2:] == [2, 2]
    assert inv[:-2] == [1] * 6


def rand_unimodular(n, rng):
    a = identity(n)
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        for k in range(n):
            a[i][k] += c * a[j][k]
    return a


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_smith_invariance_and_unimodularity(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
    d, u, v = smith_normal_form(m)
    assert matmul(matmul(u, m), v) == d
    assert abs(det_poly_matrix(u)) == 1 and abs(det_poly_matrix(v)) == 1
    s, t = rand_unimodular(n, rng), rand_unimodular(n, rng)
    d2, _, _ = smith_normal_form(matmul(matmul(s, m), t))
    assert d == d2


def test_inertia_hyperbolic_plane():
    assert inertia_signature([[0, 1], [1, 0]]) == (1, 0, 1)


def test_inertia_e8_negative():
    g = [[-x for x in row] for row in gram_e8()]
    assert inertia_signature(g) == (0, 0, 8)
    assert abs(det_poly_matrix(gram_e8())) == 1


def random_symmetric(rng):
    """A symmetric matrix of size 0..7: sparse or dense ints, a low-rank
    form A^T D A, a zero diagonal (which forces the congruence step), or
    Fractions."""
    n = rng.randint(0, 7)
    kind = rng.choice(["sparse", "dense", "low-rank", "zero-diagonal",
                       "rational"])
    if kind == "low-rank":
        r = rng.randint(0, n)
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
        d = [rng.choice([-2, -1, 1, 3]) for _ in range(r)]
        return [[sum(a[k][i] * d[k] * a[k][j] for k in range(r))
                 for j in range(n)] for i in range(n)]
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if kind == "sparse":
                x = rng.choice([0, 0, 0, rng.randint(-4, 4)])
            elif kind == "rational":
                x = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
            else:
                x = rng.randint(-9, 9)
            g[i][j] = g[j][i] = 0 if kind == "zero-diagonal" and i == j \
                else x
    return g


def test_inertia_agrees_with_fraction_oracle():
    """The fraction-free elimination against the elimination over Q that it
    replaced, on 3000 seeded symmetric matrices of size at most 7."""
    rng = random.Random(20255)
    for _ in range(3000):
        g = random_symmetric(rng)
        assert inertia_signature(g) == oracles.inertia_by_fractions(g), g


def test_inertia_scales_a_rational_matrix_and_checks_symmetry():
    g = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 3), Fraction(-5, 7)]]
    assert inertia_signature(g) == (1, 0, 1)
    assert inertia_signature([[Fraction(1, 4)]]) == (1, 0, 0)
    assert inertia_signature([]) == (0, 0, 0)
    assert inertia_signature([[0, 0], [0, 0]]) == (0, 2, 0)
    with pytest.raises(ValueError, match="not symmetric"):
        inertia_signature([[1, 2], [3, 1]])


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_inertia_congruence_invariance(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = rng.randint(-3, 3)
    s = rand_unimodular(n, rng)
    s_t = [list(c) for c in zip(*s)]
    gs = matmul(matmul(s_t, g), s)
    assert inertia_signature(g) == inertia_signature(gs)


RREF_FIELDS = {
    "Q": lambda rng: Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
    "Qi": lambda rng: QI(Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                         rng.randint(-2, 2)),
    "F13": lambda rng: Mod(rng.randrange(13), 13),
    "F4": lambda rng: rng.choice(F4_ELEMENTS),
}


@pytest.mark.parametrize("field", sorted(RREF_FIELDS))
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_rref_agrees_with_dense_elimination(field, seed):
    """Zero-skipping elimination against the dense oracle on sparse
    matrices, some with rows that are sums of others: the same rows, with
    entries of the same types, and the same pivots."""
    rng = random.Random(seed)
    draw = RREF_FIELDS[field]
    zero = draw(rng) * 0
    nr, nc = rng.randint(1, 6), rng.randint(1, 7)
    density = rng.choice((0.2, 0.4, 0.7))
    rows = [[draw(rng) if rng.random() < density else zero
             for _ in range(nc)] for _ in range(nr)]
    if nr > 2 and rng.random() < 0.5:
        rows[-1] = [x + y for x, y in zip(rows[0], rows[1])]
    got, pivots = rref(rows)
    want, want_pivots = oracles.dense_rref(rows)
    assert pivots == want_pivots
    assert got == want
    assert [[type(x) for x in r] for r in got] \
        == [[type(x) for x in r] for r in want]


RANK_FIELDS = dict(RREF_FIELDS,
                   F2=lambda rng: Mod(rng.randrange(2), 2),
                   F3=lambda rng: Mod(rng.randrange(3), 3))


@pytest.mark.parametrize("field", sorted(RANK_FIELDS))
def test_rank_agrees_with_dense_elimination_pivots(field):
    """Forward elimination against the pivot count of the dense oracle on
    1-7 x 1-7 matrices of every density from empty to full, with zero
    rows, repeated rows and rows that are sums of others mixed in."""
    rng = random.Random(field)
    draw = RANK_FIELDS[field]
    zero = draw(rng) * 0
    for _ in range(300):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        density = rng.choice((0, 0.15, 0.3, 0.5, 0.7, 0.85, 1))
        rows = [[draw(rng) if rng.random() < density else zero
                 for _ in range(nc)] for _ in range(nr)]
        for k in range(1, nr):
            how = rng.random()
            if how < 0.15:
                rows[k] = [zero] * nc
            elif how < 0.3:
                rows[k] = list(rows[rng.randrange(k)])
            elif how < 0.4 and k > 1:
                rows[k] = [x + y for x, y in zip(rows[0], rows[k - 1])]
        _, pivots = oracles.dense_rref(rows)
        assert matrix_rank(rows) == len(pivots), rows


def test_rank_nullspace_over_gf13():
    one = Mod(1, 13)
    rows = [[Mod(1, 13), Mod(2, 13), Mod(3, 13)],
            [Mod(2, 13), Mod(4, 13), Mod(6, 13)]]
    assert matrix_rank(rows) == 1
    ker = nullspace(rows, one)
    assert len(ker) == 2
    for vec in ker:
        for row in rows:
            s = Mod(0, 13)
            for a, b in zip(row, vec):
                s = s + a * b
            assert s == Mod(0, 13)
