"""The cremona suite: the projection of the line complex from a node to a
quartic threefold, its 17 nodes, 4 singular lines and 3 planes, and the
cubic change of variables to the 35-nodal cubic."""

from . import cremona as cr
from . import forms as fm
from .scalars import QI


def check_cremona_rewrite():
    return (all(lhs == rhs for lhs, rhs in cr.projection_identity_parts()),
            "quartic-threefold rewriting and elimination identities hold "
            "exactly")


def check_cremona_nodes():
    f = fm.Form(cr.projected_quartic())
    good = sum(1 for p in cr.PROJECTED_NODES_17 if fm.node_check(f, p))
    return good == len(cr.PROJECTED_NODES_17) == 17, (
        "%d listed points verified as nodes of the projected quartic" % good)


def check_cremona_lines():
    f = fm.Form(cr.projected_quartic())
    good = sum(1 for covs in cr.SINGULAR_LINES_4
               if cr.line_singular_on(f, covs))
    return (good == len(cr.SINGULAR_LINES_4) == 4,
            "all 4 listed singular lines verified")


def check_rationality_planes():
    cr.verify_rationality_planes()  # raises naming a plane or a meet
    return True, ("the three planes lie on the threefold and meet pairwise "
                  "in the listed points")


def check_segre():
    out = cr.segre_isomorphism_check()
    ok = out["lambda"] == QI(24) and out["nodes_mod_p"] == 35
    return ok, ("sum t_i = 0 and sum t_i^3 = 24 * cubic; 35 distinct nodes "
                "over a prime field")


def rows(opt):
    return [
        ("cremona.rewrite", "quartic threefold rewriting identity",
         check_cremona_rewrite),
        ("cremona.nodes-17", "seventeen nodes", check_cremona_nodes),
        ("cremona.singular-lines", "four singular lines",
         check_cremona_lines),
        ("cremona.rationality-planes", "three planes and intersections",
         check_rationality_planes),
        ("cremona.segre", "cubic change of variables", check_segre),
    ]
