"""desmic-kit: exact-arithmetic verification toolkit.

Library layout:

- scalars / poly / matrices : exact arithmetic substrate
- projgeom                  : lines in P^3 with Plucker coords, projective keys,
                              orbits (points and planes are coordinate tuples)
- forms                     : forms, their per-form Hasse tables and Taylor
                              expansion, restriction to subspaces
- surfaces                  : hypersurface singularity analysis and quartic models
- linecomplex               : the cubic line complex in P^5 (nodes, planes)
- symmetry                  : its monomial symmetry group
- cremona                   : its quartic-threefold projection and 35-nodal cubic
- scan                      : singular points of the complex over F_p
- configs                   : abstract incidence configurations and curve systems
- lattices                  : even lattices, discriminant forms, embedding checks
- cli                       : batch verification suites with JSON reports
"""

__version__ = "0.1.0"
