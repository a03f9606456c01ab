"""The identities suite: the product-of-tetrahedra, eight-squares and
Steinerian identities, each compared exactly."""

from . import surfaces as sf


def check_desmic_identity():
    lhs, rhs = sf.desmic_identity_parts()
    return lhs == rhs, "product-of-tetrahedra identity holds exactly"


def check_eight_squares():
    lhs, rhs = sf.eight_squares_parts()
    return lhs == rhs, "eight-squares identity holds exactly"


def check_steinerian(char):
    lhs, rhs = sf.steinerian_identity_parts(char)
    return lhs == rhs, ("f^2 - f_x f_y f_z = G w^2 in characteristic %d"
                        % char)


def rows(opt):
    return [
        ("identities.desmic", "desmic tetrahedra product identity",
         check_desmic_identity),
        ("identities.eight-squares", "eight-squares identity",
         check_eight_squares),
        ("identities.steinerian-char0", "Steinerian identity over Z",
         check_steinerian, 0),
        ("identities.steinerian-char2", "Steinerian identity over F_2",
         check_steinerian, 2),
    ]
