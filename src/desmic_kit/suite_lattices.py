"""The lattices suite: the rank-19 lattice spanned by the 28 curves in its
two presentations, finite quadratic form relations, overlattice chains and
the embeddability verdicts."""

from . import lattices as la


def check_genus_match():
    l1, l2 = la.curve_span_lattice_names()
    out = la.genus_match_indefinite(l1, l2)
    ok = (out["match"] and out["signatures"] == ((1, 18), (1, 18))
          and out["disc_orders"] == (16, 16))
    return ok, ("the two rank-19 presentations share signature (1,18), "
                "discriminant order 16 and isometric discriminant forms")


def check_span_28(data_dir):
    rep = la.lattice_from_curves(la.kummer_char0_system(data_dir))
    ok = (rep["rank"] == 19 and rep["signature"] == (1, 18)
          and rep["disc_order"] == 16)
    return ok, ("28-curve span has rank %d, signature %s, discriminant "
                "order %d" % (rep["rank"], rep["signature"],
                              rep["disc_order"]))


def check_disc_form_relations():
    u, v = la.fq_u2(), la.fq_v2()
    q1, q5 = la.fq_cyclic(1, 4), la.fq_cyclic(5, 4)
    ok = (not la.fq_isometric(u, v)
          and la.fq_isometric(u.direct_sum(u), v.direct_sum(v))
          and la.fq_isometric(q1.direct_sum(v), q5.direct_sum(u)))
    return ok, ("u != v, u+u = v+v, q_1(4)+v = q_5(4)+u as finite quadratic "
                "forms")


def check_overlattice_chains():
    ch = la.d5_a3_chain()  # raises unless E8 and D8 have det 1 and 4
    # and D8 lies in E8
    ok = la.genus_match_indefinite(
        ch["E8"], la.standard_lattice("E8"))["match"]
    fq_d8, _ = la.disc_form(ch["D8"])
    ok = ok and la.fq_isometric(fq_d8, la.fq_u2())
    return ok, ("glue over the rank-8 base yields unimodular and "
                "determinant-4 overlattices with the expected forms, nested "
                "as sublattices")


def check_artin_verdicts():
    r1, r2, r3 = (la.artin2_check(s) for s in (1, 2, 3))
    ok = (r1["embeddable"] and r2["embeddable"]
          and not r3["embeddable"] and r3["candidates"] > 0)
    return ok, ("embeddability verdicts (yes, yes, no); the third case "
                "certified by exhaustive ternary enumeration (%d candidates, "
                "0 matching)" % r3["candidates"])


def rows(opt):
    return [
        ("lat.genus-match", "two presentations of the rank-19 lattice",
         check_genus_match),
        ("lat.span-28", "28-curve span invariants",
         check_span_28, opt.data_dir),
        ("lat.disc-forms", "finite quadratic form relations",
         check_disc_form_relations),
        ("lat.overlattice-chains", "overlattice chains",
         check_overlattice_chains),
        ("lat.artin-verdicts", "embeddability verdicts",
         check_artin_verdicts),
    ]
