"""The symmetry suite: the monomial symmetry group of the line complex,
its order and its orbits on the nodes and planes."""

from . import symmetry as sy


def check_symmetry():
    rep = sy.monomial_symmetry_group()
    ok = (rep.closed and rep.order == 1152
          and rep.node_orbit_sizes == [16, 18]
          and rep.plane_orbit_count == 1)
    return ok, ("monomial symmetry group %s at order %d with node orbits %s "
                "and %d plane orbit(s)"
                % ("closes" if rep.closed else "does not close", rep.order,
                   rep.node_orbit_sizes, rep.plane_orbit_count))


def rows(opt):
    return [
        ("symmetry.group-1152", "monomial symmetry group and orbits",
         check_symmetry),
    ]
