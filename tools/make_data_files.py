"""Regenerate the two checked-in dual-graph data files.

This is the only writer of src/desmic_kit/data; the package only reads
it.  Run from anywhere: `python tools/make_data_files.py`.  On a clean
checkout it rewrites kummer-char0.json and kummer-char2-ordinary.json byte
for byte.  It imports nothing from desmic_kit: the 42-curve system of the
supersingular suite is no data file, since desmic_kit.configs derives it
from the 6-arc on every run.

The files are validated where they are read: desmic_kit.lattices'
ingest_curve_system checks the records, and the desmic_kit.configs
CurveSystem it builds checks the incidence rules encoded here (fiber
squares, affine Dynkin shapes, divisor pairing integrality), so a
transcription slip shows up as a validation error rather than silently
corrupting downstream checks.
"""

import json
import os

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src",
                   "desmic_kit", "data")


def kummer_char0():
    # 28 curves on the resolved Kummer surface of a product of two copies
    # of one elliptic curve, char != 2: 16 disjoint exceptional curves Tij
    # over the 2-torsion points, plus 12 disjoint curves: horizontal Ei,
    # vertical E^j (spelled Ep j) and translated diagonals Dk.
    curves = []
    for i in range(4):
        for j in range(4):
            curves.append({"id": "T%d%d" % (i, j), "self": -2})
    for i in range(4):
        curves.append({"id": "E%d" % i, "self": -2})
    for j in range(4):
        curves.append({"id": "Ep%d" % j, "self": -2})
    for k in range(4):
        curves.append({"id": "D%d" % k, "self": -2})

    inter = []
    for i in range(4):
        for j in range(4):
            inter.append(["E%d" % i, "T%d%d" % (i, j), 1])
            inter.append(["Ep%d" % j, "T%d%d" % (i, j), 1])
    for k in range(4):
        for j in range(4):
            inter.append(["D%d" % k, "T%d%d" % (j, j ^ k), 1])

    def d4_fiber(central, leaves):
        comps = [{"id": central, "mult": 2}]
        comps += [{"id": c, "mult": 1} for c in leaves]
        return {"type": "D~4", "components": comps}

    fibrations = [
        {"name": "f1", "fibers": [
            d4_fiber("E%d" % i, ["T%d%d" % (i, j) for j in range(4)])
            for i in range(4)]},
        {"name": "f2", "fibers": [
            d4_fiber("Ep%d" % j, ["T%d%d" % (i, j) for i in range(4)])
            for j in range(4)]},
        {"name": "f3", "fibers": [
            d4_fiber("D%d" % k, ["T%d%d" % (j, j ^ k) for j in range(4)])
            for k in range(4)]},
        # one elliptic pencil with a 9-component fiber, exhibiting the
        # bigger degenerate fiber used for the Picard lattice computation
        {"name": "pencil-d8", "fibers": [
            {"type": "D~8", "components": [
                {"id": "T00", "mult": 1}, {"id": "T02", "mult": 1},
                {"id": "T10", "mult": 1}, {"id": "T13", "mult": 1},
                {"id": "E0", "mult": 2}, {"id": "T01", "mult": 2},
                {"id": "Ep1", "mult": 2}, {"id": "T11", "mult": 2},
                {"id": "E1", "mult": 2}]}]},
    ]

    h_terms = [{"class": "f1", "coeff": "1"},
               {"class": "f2", "coeff": "1"},
               {"class": "f3", "coeff": "1"}]
    for i in range(4):
        for j in range(4):
            h_terms.append({"id": "T%d%d" % (i, j), "coeff": "-1/2"})
    divisors = [{"name": "H", "terms": h_terms}]

    return {"curves": curves, "intersections": inter,
            "fibrations": fibrations, "divisors": divisors}


def kummer_char2_ordinary():
    # 22 curves on the resolved Kummer surface of a product of two copies
    # of one ordinary elliptic curve in characteristic two: four D4 points
    # give 16 exceptional curves Ei^j (spelled Ei.j), plus the images of
    # two horizontal curves (F1, F2), two vertical curves (Eb1, Eb2) and
    # two translated diagonals (D1, D2).
    names16 = ["E%d.%d" % (i, j) for i in range(1, 5) for j in range(4)]
    extra = ["F1", "F2", "Eb1", "Eb2", "D1", "D2"]
    curves = [{"id": c, "self": -2} for c in names16 + extra]

    cycle = ["E2.0", "E2.2", "F2", "E1.3", "E1.0", "E1.2", "Eb1", "E4.3",
             "E4.0", "E4.2", "F1", "E3.3", "E3.0", "E3.2", "Eb2", "E2.3"]
    inter = []
    for k, a in enumerate(cycle):
        inter.append([a, cycle[(k + 1) % len(cycle)], 1])
    for i in range(1, 5):
        inter.append(["E%d.0" % i, "E%d.1" % i, 1])
    inter += [["E2.1", "D1", 1], ["E4.1", "D1", 1],
              ["E1.1", "D2", 1], ["E3.1", "D2", 1]]

    def d8_fiber(chain, end_leaves_a, end_leaves_b):
        # chain: five curves of multiplicity 2; the leaves attach to the
        # first and last chain members
        comps = [{"id": c, "mult": 2} for c in chain]
        comps += [{"id": c, "mult": 1}
                  for c in end_leaves_a + end_leaves_b]
        return {"type": "D~8", "components": comps}

    fibrations = [
        {"name": "pi1", "fibers": [
            d8_fiber(["E4.0", "E4.2", "F1", "E3.3", "E3.0"],
                     ["E4.3", "E4.1"], ["E3.2", "E3.1"]),
            d8_fiber(["E2.0", "E2.2", "F2", "E1.3", "E1.0"],
                     ["E2.3", "E2.1"], ["E1.2", "E1.1"])]},
        {"name": "pi2", "fibers": [
            d8_fiber(["E1.0", "E1.2", "Eb1", "E4.3", "E4.0"],
                     ["E1.3", "E1.1"], ["E4.2", "E4.1"]),
            d8_fiber(["E3.0", "E3.2", "Eb2", "E2.3", "E2.0"],
                     ["E3.3", "E3.1"], ["E2.2", "E2.1"])]},
        {"name": "pi3", "fibers": [
            d8_fiber(["E2.0", "E2.1", "D1", "E4.1", "E4.0"],
                     ["E2.2", "E2.3"], ["E4.2", "E4.3"]),
            d8_fiber(["E1.0", "E1.1", "D2", "E3.1", "E3.0"],
                     ["E1.2", "E1.3"], ["E3.2", "E3.3"])]},
    ]

    h_terms = [{"class": "pi1", "coeff": "1"},
               {"class": "pi2", "coeff": "1"},
               {"class": "pi3", "coeff": "1"}]
    for i in range(1, 5):
        h_terms.append({"id": "E%d.0" % i, "coeff": "-2"})
        for j in range(1, 4):
            h_terms.append({"id": "E%d.%d" % (i, j), "coeff": "-1"})
    divisors = [{"name": "H", "terms": h_terms}]

    return {"curves": curves, "intersections": inter,
            "fibrations": fibrations, "divisors": divisors}


def data_files():
    """(file name, text) of each data file."""
    for name, data in [
            ("kummer-char0.json", kummer_char0()),
            ("kummer-char2-ordinary.json", kummer_char2_ordinary())]:
        yield name, json.dumps(data, indent=1) + "\n"


def main():
    for name, text in data_files():
        path = os.path.join(OUT, name)
        with open(path, "w") as fh:
            fh.write(text)
        print("wrote", path)


if __name__ == "__main__":
    main()
