"""The char2 suite: the characteristic-2 Cremona quartic's 13 singular
points, its A_3 specialization, and the Kummer model's lines and A_3
points."""

from . import surfaces as sf


def check_char2_points():
    sf.verify_char2_cremona_singular_points()  # raises naming a family
    return True, ("13/13 singular points verified in the parametric "
                  "quotient rings")


def check_char2_a3():
    F = sf.cremona_char2_specialized(0, 0, 1, 1)
    verdict = sf.rdp_an_type(sf.local_series(F, (0, 0, 0, 1)))
    return verdict == "A3", ("specialization (0,0,1,1) has an A_3 point at "
                             "(0,0,0,1); detector returned %s" % verdict)


def check_char2_kummer():
    form, lines, verdicts = sf.kummer_char2_quartic()
    pts = sf.kummer_char2_points()
    a3 = verdicts.count("A3")
    counts_pt = [sum(1 for l in lines if l.contains(p)) for p in pts]
    counts_ln = [sum(1 for p in pts if l.contains(p)) for l in lines]
    ok = (len(lines) == 4 and all(sf.contains_line(form, l) for l in lines)
          and a3 == 6 and counts_pt == [2] * 6 and counts_ln == [3] * 4)
    return ok, "4 lines on the surface, 6 A_3 points, (6_2, 4_3) incidence"


def rows(opt):
    return [
        ("char2.points-13", "thirteen singular points", check_char2_points),
        ("char2.a3-specialization", "A_3 at the special member",
         check_char2_a3),
        ("char2.kummer-model", "four lines and six A_3 points",
         check_char2_kummer),
    ]
