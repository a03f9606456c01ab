"""The desmic-surface suite: the nodes, lines and Reye incidence of the
generic pencil member, and its residual-conic tangency against the gradient
oracle and against the printed formula."""

import functools

from . import configs as cf
from . import forms as fm
from . import poly
from . import surfaces as sf


def check_desmic_nodes(pencil):
    # surfaces.GENERIC_WITNESSES: why four members decide the generic one
    members = sf.desmic_members(pencil())
    good = sum(1 for p in sf.DESMIC_SINGULAR_12
               if any(fm.node_check(m, p) for m in members))
    return good == 12, ("%d/12 points are ordinary nodes of the generic "
                        "pencil member" % good)


def check_desmic_lines(pencil):
    f = pencil()
    lines = sf.desmic_lines_16()
    distinct = len(set(l.plucker for l in lines))
    good = sum(1 for l in lines if sf.contains_line(f, l))
    return (distinct == 16 and good == 16,
            "%d distinct base-locus lines, %d contained" % (distinct, good))


def check_desmic_reye():
    desmic = cf.desmic_surface_config(sf.DESMIC_SINGULAR_12,
                                      sf.desmic_lines_16())
    iso = cf.config_isomorphic(desmic, cf.reye_config())
    return (iso is not None,
            "node/line incidence is a (12_4, 16_3) Reye configuration")


def check_tangency_computed(tangency):
    condition, conic, big = tangency()
    ring = condition.ring
    a, b, u, v = ring.gens()
    two = ring.const(2)
    computed_ok = poly.proportional_polys(
        condition, (a + two * b) * u + (two * a + b) * v)[0]
    si, ti, ri = (big.varnames.index(n) for n in ("s", "t", "r"))
    degs = {e[si] + e[ti] + e[ri] for e in conic.coeffs}
    return (computed_ok and degs == {2},
            "tangency condition (a+2b)u + (2a+b)v = 0 confirmed by the "
            "gradient oracle; residual conic is an honest quadric")


def check_tangency_printed(tangency):
    # the printed formula, taken at face value: u(b+c) + v(a+b) with
    # c = -a-b, compared against the computed condition
    condition, _, _ = tangency()
    ring = condition.ring
    a, b, u, v = ring.gens()
    printed = (b + (-a - b)) * u + (a + b) * v
    same = poly.proportional_polys(condition, printed)[0]
    return same, ("computed condition %s the printed formula "
                  "u(b+c) + v(a+b)" % ("matches" if same else "differs from"))


def rows(opt):
    # values that several checks read, as cached thunks (see cli)
    pencil = functools.cache(lambda: sf.desmic_pencil_symbolic())
    tangency = functools.cache(lambda: sf.residual_conic_tangency(pencil()))
    return [
        ("desmic.nodes-12", "twelve singular points of the pencil",
         check_desmic_nodes, pencil),
        ("desmic.lines-16", "sixteen base-locus lines",
         check_desmic_lines, pencil),
        ("desmic.reye-incidence", "node/line incidence configuration",
         check_desmic_reye),
        ("desmic.tangency-computed",
         "residual-conic tangency, gradient oracle",
         check_tangency_computed, tangency),
        ("desmic.tangency-printed",
         "residual-conic tangency, printed formula",
         check_tangency_printed, tangency),
    ]
