"""The line-complex suite: the 34 nodes and 24 planes of the cubic line
complex, and at each scan prime p the singular points that an exhaustive
scan over F_p finds."""

import functools

from . import linecomplex as lc
from . import projgeom as pg
from . import scalars


def check_complex_nodes():
    sizes = [tuple(map(len, lc.verify_node_inventory(ci)))
             for ci in (lc.CompleteIntersection35.plucker(),
                        lc.CompleteIntersection35.klein())]
    return sizes == [(18, 16)] * 2, ("18 + 16 = 34 listed points are "
                                     "ordinary nodes in both coordinate "
                                     "systems")


def check_complex_planes():
    per_plane, per_node1, per_node2 = lc.verify_plane_inventory(
        lc.CompleteIntersection35.plucker())
    ok = (per_plane == [(3, 4)] * 24 and per_node1 == [4] * 18
          and per_node2 == [6] * 16)
    return ok, ("24 planes contained; 3+4 nodes per plane, 4 planes per "
                "first-family node, 6 per second-family node")


def check_scan(scan, p, unit_variant):
    count, pts = scan(p, unit_variant)
    want = 18 if unit_variant else 34
    label = "unit-coefficient variant" if unit_variant else "complex"
    if count == want:
        return ("evidence-only",
                "exhaustive scan of the projective quadric over F_%d finds "
                "exactly %d singular points of the %s" % (p, count, label))
    return False, ("scan over F_%d found %d singular points, expected %d"
                   % (p, count, want))


def check_scan_matches_list(scan, p):
    i = scalars.sqrt_minus_one(p)
    printed = {tuple(c.v for c in pg.normalize(pt))
               for pt in lc.klein_nodes_18(i) + lc.klein_nodes_16(i)}
    _, pts = scan(p, False)
    return set(pts) == printed, ("scan output over F_%d equals the "
                                 "reduction of the printed node list" % p)


def rows(opt):
    # values that several checks read, as cached thunks (see cli)
    scan = functools.cache(lambda p, unit: lc.scan_singular_points(p, unit))
    return [
        ("complex.nodes-34", "34 listed nodes", check_complex_nodes),
        ("complex.planes-24", "24 planes and incidence counts",
         check_complex_planes),
    ] + [row for p in opt.primes for row in (
        ("complex.scan-f%d" % p, "exhaustive scan over F_%d" % p,
         check_scan, scan, p, False),
        ("complex.scan-f%d-unit" % p,
         "exhaustive scan, unit variant, over F_%d" % p,
         check_scan, scan, p, True),
        ("complex.scan-f%d-match" % p,
         "scan agrees with the printed list mod %d" % p,
         check_scan_matches_list, scan, p))]
