"""Singular points over P^5(F_p) of the pair of equations

    z0^2 + ... + z5^2 = 0,    z0*z1*z2 + c*z3*z4*z5 = 0.

A point counts when both equations vanish and the 2x6 Jacobian has rank at
most 1.  For p odd the gradient of the quadric is 2z, never zero, so this
is the Lagrange condition: the cubic's gradient equals lambda*z for some
lambda in F_p.  Scaling z by mu scales lambda by mu, so lambda in {0, 1}
reaches every projective point, and the condition splits into one system
per block (x0, x1, x2) with coefficient k (1, then c):

    k*x1*x2 = lambda*x0,   k*x0*x2 = lambda*x1,   k*x0*x1 = lambda*x2.

- lambda = 1: multiplying through gives x0^2 = x1^2 = x2^2 = k*x0*x1*x2,
  so a block is zero or (t, e*t, d*t) with e, d = +-1 and t = e*d/k.
- lambda = 0: each block has at most one nonzero coordinate, and the
  quadric forces both blocks to have one, fixed to 1 and to a square root
  of -1.

That leaves at most 25 + 18 candidates.  Each is kept only if it passes
the explicit equation and Jacobian checks; the survivors are normalized
(leading nonzero coordinate 1) and listed in the standard order: by
leading position, then lexicographically.
"""

from .scalars import is_prime, sqrt_minus_one


def _check_candidate(z, c, p):
    """Jacobian condition for a point already on both hypersurfaces."""
    g = (z[1] * z[2] % p, z[0] * z[2] % p, z[0] * z[1] % p,
         c * z[4] * z[5] % p, c * z[3] * z[5] % p, c * z[3] * z[4] % p)
    for a in range(6):
        za, ga = z[a], g[a]
        for b in range(a + 1, 6):
            if (za * g[b] - z[b] * ga) % p:
                return False
    return True


def _lagrange_blocks(k, p):
    """The block solutions of the lambda = 1 system with coefficient k."""
    t = pow(k, -1, p)
    return [(0, 0, 0)] + [(e * d * t % p, d * t % p, e * t % p)
                          for e in (1, -1) for d in (1, -1)]


def _leading(z):
    return next(i for i, v in enumerate(z) if v)


def run_scan(p, c):
    """All singular points over P^5(F_p), normalized and in standard
    order, as a list of 6-tuples of ints."""
    if p == 2 or not is_prime(p):
        raise ValueError("scan needs an odd prime, got p=%r" % (p,))
    if c % p == 0:
        raise ValueError("cubic coefficient c=%r vanishes mod %d" % (c, p))
    c %= p
    # lambda = 1
    candidates = [x + y for x in _lagrange_blocks(1, p)
                  for y in _lagrange_blocks(c, p)]
    # lambda = 0 needs a square root of -1
    if p % 4 == 1:
        s = sqrt_minus_one(p).v
        for a in range(3):
            for b in range(3, 6):
                for root in (s, p - s):
                    z = [0] * 6
                    z[a], z[b] = 1, root
                    candidates.append(tuple(z))
    found = set()
    for z in candidates:
        if (not any(z) or sum(v * v for v in z) % p
                or (z[0] * z[1] * z[2] + c * z[3] * z[4] * z[5]) % p
                or not _check_candidate(z, c, p)):
            continue
        inv = pow(z[_leading(z)], -1, p)
        found.add(tuple(v * inv % p for v in z))
    return sorted(found, key=lambda z: (_leading(z), z))
