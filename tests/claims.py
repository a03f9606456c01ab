"""Paper claims that only the tests check, shared by several test modules.

`desmic-kit` runs none of this code, so it lives beside the tests and not
in the package: the Plucker-to-Klein change of coordinates, the
permutation labels that it gives the 24 Klein planes, the coset and
plane/node incidence configurations, and the rank of the 24 points
projected to the plane.
"""

from itertools import permutations

import desmic_kit.linecomplex as lc
from desmic_kit.configs import AbstractConfig
from desmic_kit.matrices import matrix_rank, nullspace
from desmic_kit.projgeom import _orbit
from desmic_kit.scalars import I, QI, lift, one_like
from desmic_kit.surfaces import DESMIC_SINGULAR_12


# ---------------------------------------------------- Plucker and Klein --

def klein_change_rows(i):
    """Matrix K with (Klein coords) = K * (Plucker coords):

    (x1,x2,x3,y1,y2,y3) =
      (p12+p34, -p13+p24, p14+p23, i(p34-p12), i(p24+p13), i(p23-p14))."""
    o = one_like(i)
    z = o * 0
    return [
        [o, z, z, z, z, o],
        [z, -o, z, z, o, z],
        [z, z, o, o, z, z],
        [-i, z, z, z, z, i],
        [z, i, z, z, i, z],
        [z, z, -i, i, z, z],
    ]


def mat_apply(m, point):
    """The point m * point, its int coordinates lifted into Q(i)."""
    return tuple(lift(QI(1), sum(a * x for a, x in zip(row, point)))
                 for row in m)


def klein_plane_labels():
    """Match each Klein plane with a printed alpha/beta plane through the
    coordinate change and return the permutation labels, in the order of
    klein_plane_list()."""
    rows = klein_change_rows(I)
    printed = lc.plucker_plane_list(QI(1))
    by_canon = {lc._span_key(pl.covectors): pl.label for pl in printed}
    if len(by_canon) != 24:
        raise ValueError("the printed planes have %d distinct canonical "
                         "forms, not 24" % len(by_canon))
    labels = []
    for pl in lc.klein_plane_list():
        pulled = [[sum((cv[k] * rows[k][j] for k in range(6)), QI(0))
                   for j in range(6)] for cv in pl.covectors]
        labels.append(by_canon[lc._span_key(pulled)])
    if len(set(labels)) != 24:
        raise ValueError("the Klein planes match %d distinct printed "
                         "labels, not 24" % len(set(labels)))
    return labels


# --------------------------------------------- permutations of 4 letters --

def perm_from_cycles(text):
    """Permutation of {1,2,3,4} from disjoint-cycle notation, as the tuple
    (g(1),g(2),g(3),g(4))."""
    img = {k: k for k in (1, 2, 3, 4)}
    for part in text.replace(")", ")|").split("|"):
        part = part.strip().strip("()")
        if not part or part == "1":
            continue
        cyc = [int(ch) for ch in part]
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            img[a] = b
    return tuple(img[k] for k in (1, 2, 3, 4))


def perm_compose(g, h):
    """(g o h)(x) = g(h(x))."""
    return tuple(g[h[x - 1] - 1] for x in (1, 2, 3, 4))


# ------------------------------------------------ incidence configurations --

COSET_SUBGROUP_GENERATORS = [
    [perm_from_cycles("(12)"), perm_from_cycles("(34)")],
    [perm_from_cycles("(13)"), perm_from_cycles("(24)")],
    [perm_from_cycles("(14)"), perm_from_cycles("(23)")],
]


def coset_config():
    """(24_3, 18_4): the 24 permutations of four letters against the 18
    cosets of the three order-4 subgroups generated by pairs of disjoint
    transpositions.  The coset side is fixed so that the quadruple
    {(143),(132),(1432),(13)} is one block."""
    elements = sorted(permutations((1, 2, 3, 4)))
    quadruple = ["(143)", "(132)", "(1432)", "(13)"]
    marker = frozenset(perm_from_cycles(t) for t in quadruple)
    for side in ("right", "left"):
        blocks = set()
        for gens in COSET_SUBGROUP_GENERATORS:
            h = _orbit((1, 2, 3, 4), gens, lambda s, g: perm_compose(g, s))
            for g in elements:
                if side == "right":
                    blocks.add(frozenset(perm_compose(x, g) for x in h))
                else:
                    blocks.add(frozenset(perm_compose(g, x) for x in h))
        if marker in blocks:
            inc = {(p, b) for b in blocks for p in b}
            cfg = AbstractConfig(elements, sorted(blocks, key=sorted),
                                 inc, name="cosets")
            assert cfg.type_signature == ((24, 3), (18, 4))
            return cfg
    raise ValueError("the printed coset quadruple %s is a block on neither "
                     "side" % ", ".join(quadruple))


def plane_node_config(family):
    """Incidence of the 24 planes on the singular complex with one family
    of its singular points: family 1 (18 points, 3 per plane) or family 2
    (16 points, 4 per plane)."""
    if family not in (1, 2):
        raise ValueError("plane family %r is not 1 or 2" % (family,))
    one = QI(1)
    planes = lc.plucker_plane_list(one)
    nodes = lc.PLUCKER_NODES_18 if family == 1 else lc.PLUCKER_NODES_16
    pts = list(range(len(planes)))
    inc = set()
    for k, pl in enumerate(planes):
        for nd in nodes:
            if pl.contains_point([one * v for v in nd]):
                inc.add((k, nd))
    cfg = AbstractConfig(pts, list(nodes), inc,
                         name="planes-vs-family-%d" % family)
    want = ((24, 3), (18, 4)) if family == 1 else ((24, 4), (16, 6))
    assert cfg.type_signature == want
    return cfg


# ------------------------------------------------ 24-point projection rank --

DESMIC_VERTICES_12 = [
    (0, 0, 1, 1), (0, 0, 1, -1), (0, 1, 0, 1), (0, 1, 0, -1),
    (0, 1, 1, 0), (0, 1, -1, 0), (1, 0, 0, 1), (1, 0, 0, -1),
    (1, 0, 1, 0), (1, 0, -1, 0), (1, 1, 0, 0), (1, -1, 0, 0),
]


def projected_24_points_quartic_rank(center):
    """Project the 12 nodes plus 12 vertices from `center` to P^2 and return
    the rank of the 24 x 15 evaluation matrix of plane quartic monomials."""
    pts = [tuple(lift(QI(1), x) for x in p)
           for p in DESMIC_SINGULAR_12 + DESMIC_VERTICES_12]
    c = tuple(lift(QI(1), x) for x in center)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if matrix_rank([list(pts[i]), list(pts[j]), list(c)]) <= 2:
                raise ValueError("center lies on a connecting line")
    return quartic_rank_of_projection(pts, c)


def quartic_rank_of_projection(pts, c):
    """Rank of the plane quartic monomials at the images of pts under the
    projection from c."""
    # basis of linear forms vanishing at c
    forms = nullspace([list(c)], QI(1))  # 3 covectors
    if len(forms) != 3:
        raise ValueError("center %r has %d independent linear forms through "
                         "it, not 3" % (c, len(forms)))
    images = []
    for p in pts:
        img = [sum(f[k] * p[k] for k in range(4)) for f in forms]
        images.append(img)
    monos = [(i, j, k) for i in range(5) for j in range(5) for k in range(5)
             if i + j + k == 4]
    rows = []
    for img in images:
        rows.append([img[0] ** m[0] * img[1] ** m[1] * img[2] ** m[2]
                     for m in monos])
    return matrix_rank(rows)
