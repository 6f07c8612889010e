"""Configuration space integrals for links in R^3.

Combinatorics and exact algebra of Jacobi diagrams, Monte Carlo evaluation
of the Gauss-type configuration space integrals (quadrature for one chord
and for two chords on one circle), the anomaly and framing corrections,
and the assembled invariants (linking number, self-linking, the degree-2
invariant, the corrected series Z0).
"""

from .curves import LinkCurve, catalog, validate_embedding
from .diagrams import (Diagram, OrientedDiagram, automorphism_count,
                       canonical_form, degree, enumerate_diagrams,
                       half_edge_count_check, is_principal, is_subprincipal,
                       quotient_diagram, std_oriented)
from .strata import FaceLabel, StratumFamily, classify_face, enumerate_strata
from .algebra import (ClassVector, LabelledDiagram, Series, beta,
                      check_ihx_prime, check_stu_prime, dim_A_n, exp_action,
                      insert, lattice_generators, product, quotient_A_n_k,
                      reduce_to_basis)
from .integrate import (chord_quadrature, gauss_kernel, integrate_diagram,
                        integrand_at, two_chord_quadrature, z_n)
from .anomaly import (anomaly_alpha, degree3_region_predicates, disc_integral,
                      f_gamma, framing_report)
from .invariants import (lattice_check, linking_number, self_linking, v2,
                         z0_series, z_series)
from .mc import Estimate

__version__ = "0.1.0"
