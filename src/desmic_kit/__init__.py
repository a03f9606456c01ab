"""desmic-kit: exact-arithmetic verification toolkit.

Library layout:

- scalars / poly / matrices : exact arithmetic substrate
- projgeom                  : points; planes and lines in P^3 with Plucker coords
- surfaces                  : hypersurface singularity analysis and quartic models
- linecomplex               : the cubic line complex in P^5 (nodes, planes, symmetry)
- configs                   : abstract incidence configurations and curve systems
- lattices                  : even lattices, discriminant forms, embedding checks
- cli                       : batch verification suites with JSON reports
"""

__version__ = "0.1.0"
