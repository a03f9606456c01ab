"""Seeded micro-loop over the scalar arithmetic of desmic_kit.scalars.

The scalar dunder methods run millions of times per suite, far too often to
wrap in spans, so their rates come from this loop instead.  Every result is
checked by an identity after timing; the checks raise explicitly, so that
`python -O` cannot remove them.
"""

import random
import statistics
import time
from fractions import Fraction

SCAN_FIELD_PRIMES = (13, 17, 29, 37, 41)
REPEATS = 3


class ScalarCheckError(AssertionError):
    """A scalar operation returned a wrong result."""


def _require(ok, what):
    if not ok:
        raise ScalarCheckError("scalar self-check failed: %s" % what)


def _rate(op, xs, ys):
    """Median operations per second of op over the pairs, and the results
    of the last repetition."""
    rates = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        out = [op(x, y) for x, y in zip(xs, ys)]
        rates.append(len(xs) / (time.perf_counter() - t0))
    return statistics.median(rates), out


def scalar_rates(scalars, seed, n=5000):
    """Operations per second of QI multiply and divide, Mod multiply and
    inverse, and F4 multiply, on inputs drawn from `seed`."""
    rng = random.Random(seed)
    QI, Mod, F4 = scalars.QI, scalars.Mod, scalars.F4

    def frac():
        return Fraction(rng.randint(-999, 999), rng.randint(1, 999))

    qa = [QI(frac(), frac()) for _ in range(n)]
    qb = [QI(frac(), frac()) or QI(1) for _ in range(n)]
    p = rng.choice(SCAN_FIELD_PRIMES)
    ma = [Mod(rng.randrange(p), p) for _ in range(n)]
    mb = [Mod(rng.randrange(1, p), p) for _ in range(n)]
    fa = [F4(rng.randrange(2), rng.randrange(2)) for _ in range(n)]
    fb = [F4(rng.randrange(2), rng.randrange(2)) or F4(1) for _ in range(n)]

    rates = {}
    rates["qi_mul"], out = _rate(lambda x, y: x * y, qa, qb)
    _require(all(z / y == x for x, y, z in zip(qa, qb, out)), "QI (x*y)/y")
    rates["qi_div"], out = _rate(lambda x, y: x / y, qa, qb)
    _require(all(z * y == x for x, y, z in zip(qa, qb, out)), "QI (x/y)*y")
    rates["mod_mul"], out = _rate(lambda x, y: x * y, ma, mb)
    _require(all(z.p == p and z.v == x.v * y.v % p
                 for x, y, z in zip(ma, mb, out)), "Mod x*y")
    rates["mod_inverse"], out = _rate(lambda x, _: x.inverse(), mb, mb)
    _require(all(x.v * z.v % p == 1 for x, z in zip(mb, out)),
             "Mod x*x.inverse()")
    rates["f4_mul"], out = _rate(lambda x, y: x * y, fa, fb)
    _require(all(z * y.inverse() == x for x, y, z in zip(fa, fb, out)),
             "F4 (x*y)/y")
    return rates, {"mod_prime": p, "ops_per_repeat": n, "repeats": REPEATS}
