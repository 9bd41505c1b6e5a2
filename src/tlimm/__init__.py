"""
tlimm: Temperley-Lieb immanants and percent immanants in exact arithmetic.

The package computes, classifies, and exhaustively verifies:

* non-crossing matchings, the matching beta(w) of a 321-avoiding w, the
  image theta(u) of a permutation in the Temperley-Lieb algebra TL_n(2)
  under theta(s_i) = t_i - 1, and the coefficients f_w(u) of beta(w) in
  theta(u), all multiplied over one table of generator steps
  (:mod:`tlimm.tl`);
* percent immanants of skew shapes, hulls, complementary minors, and
  ``alternation_violations``, the 1324-sign-alternation test for membership
  in their span (:mod:`tlimm.immanant`);
* the classification of which Temperley-Lieb immanants are combinations of
  percent immanants, with explicit one- or two-shape decompositions and
  closed-form coefficients (:mod:`tlimm.classify`);
* colorings and the unique zone-constrained matchings behind the
  complementary-minor expansions (:mod:`tlimm.coloring`);
* the A1-A10 verification suites (:mod:`tlimm.verify`) and a CLI
  (:mod:`tlimm.cli`).
"""

from .classify import (
    Case1,
    Case2,
    Decomposition,
    antidiag_coeff,
    avoids_main_patterns,
    build_case1,
    build_case2,
    classify_2143,
    closed_form,
    closed_form_coeff,
    closed_form_column,
    cm_expansion,
    corner_params,
    decompose,
    rect_cm_expansion,
)
from .coloring import (
    Coloring,
    canonical_coloring,
    compatible_permutations,
    is_compatible,
    unique_matching_case1,
    unique_matching_case2,
    unique_matching_general,
)
from .errors import LimitError, PreconditionError, VerificationError
from .immanant import (
    Immanant,
    SkewShape,
    cm_immanant,
    evaluate,
    hull,
    lies_in,
    percent_basis_decompose,
    percent_immanant,
    related_classes,
    skew_shape,
    tl_immanant,
)
from .perm import (
    Perm,
    compose,
    contains_pattern,
    format_perm,
    identity,
    inverse,
    length,
    longest_word,
    parse_perm,
    reduced_word,
    sign,
)
from .tl import (
    NonCrossingMatching,
    TLElement,
    beta,
    beta_inv,
    catalan,
    f_coeff,
    format_matching,
    generator,
    parse_matching,
    theta,
    theta_table,
)

__version__ = "0.1.0"
