"""The supersingular suite: the plane over the four-element field, the
duad/syntheme table, the 42-curve system derived from the 6-arc with its
three fibration tables, its Reye sub-configuration and the pairings of the
polarization H."""

import functools
from itertools import combinations

from . import configs as cf


def check_pg24(plane):
    pg = plane()
    ok = pg.type_signature == ((21, 5), (21, 5))
    ok = ok and all(len(pg.blocks_of(p) & pg.blocks_of(q)) == 1
                    for p, q in combinations(pg.points, 2))
    return ok, ("plane over the four-element field is a (21_5, 21_5) "
                "configuration with unique joins")


def check_duad_table(duads):
    sysd = duads()
    same = sysd["table"] == cf.DUAD_TABLE
    return same, ("6x6 duad/syntheme table is byte-identical to the "
                  "reference rendering" if same else
                  "6x6 duad/syntheme table differs from the reference")


def check_fibration_tables(tables):
    cs, commons = tables()
    ok = (len(commons) == 16
          and [len(fib["fibers"]) for fib in cs.fibrations] == [5] * 3)
    return ok, ("three fibration tables validate: five 4-pronged star "
                "fibers each, classes square to zero, 16 common simple "
                "components")


def check_reye_28(tables):
    cf.extract_desmic_28(tables())  # raises unless the 28 curves are Reye
    return True, ("28-curve sub-system carries a (12_4, 16_3) configuration "
                  "isomorphic to Reye")


def check_ss_divisor(tables, h_pairings):
    _, commons = tables()
    out = h_pairings()
    pair = out["pairings"]
    centrals = {c for t in cf.FIBRATION_TABLES for c, _ in t[:4]}
    conics = {"1", "6", "16.23.45"}
    contracted = {"16", "16.24.35", "16.25.34"}
    ok = out["self"] == 4
    ok = ok and all(pair[c] == 0 for c in centrals | contracted)
    ok = ok and all(pair[c] == 1 for c in commons)
    ok = ok and all(pair[c] == 2 for c in conics)
    return ok, ("H^2 = 4; H pairs 0 with centrals and contracted curves, 1 "
                "with the 16 commons, 2 with the three conics")


def check_ss_profile_printed(h_pairings):
    out = h_pairings()
    profile = {}
    for v in out["pairings"].values():
        profile[v] = profile.get(v, 0) + 1
    printed = {0: 15, 1: 16, 2: 3, 3: 8}
    got = ", ".join("%dx%d" % (k, profile[k]) for k in sorted(profile))
    return profile == printed, ("pairing profile {%s} vs printed {0x15, "
                                "1x16, 2x3, 3x8}" % got)


def rows(opt):
    # values that several checks read, as cached thunks (see cli)
    plane = functools.cache(lambda: cf.pg24())
    duads = functools.cache(lambda: cf.duad_syntheme_system())
    tables = functools.cache(lambda: cf.fibration_tables(
        cf.label_42_curves(plane(), duads())[0]))
    h_pairings = functools.cache(lambda: cf.divisor_pairings(tables()[0], "H"))
    return [
        ("ss.pg24", "plane over the four-element field", check_pg24, plane),
        ("ss.duad-table", "duad/syntheme table", check_duad_table, duads),
        ("ss.fibration-tables", "three fibration tables",
         check_fibration_tables, tables),
        ("ss.reye-28", "28-curve configuration", check_reye_28, tables),
        ("ss.divisor-h", "polarization pairings",
         check_ss_divisor, tables, h_pairings),
        ("ss.pairing-profile-printed", "printed pairing profile",
         check_ss_profile_printed, h_pairings),
    ]
