"""Constant index tables for exterior algebra on an oriented 4-chart.

Storage conventions used across the package:

* 2-forms keep the 6 independent components in pair order
  PAIRS = (01, 02, 03, 12, 13, 23); antisymmetry is implied by storage.
* 3-forms keep 4 components; component l is the coefficient of
  dx^i ^ dx^j ^ dx^k with (i,j,k) the increasing complement of axis l.
* Pair 5 - p is the complement of pair p: the wedge pairing of stored
  2-forms, and the flat star, is the signed reversal of pair order,
  (alpha ^ beta)_{0123} = sum_p alpha_p WEDGE2_SIGNS[p] beta_{5-p}, the one
  table of Lambda^2.  The self-dual frame basis (unit norm for an
  orthonormal coframe e^a) is pair a plus pair 5 - a signed by that table,
  eta_1 = (e^01 + e^23)/sqrt(2), eta_2 = (e^02 + e^31)/sqrt(2) and
  eta_3 = (e^03 + e^12)/sqrt(2), applied by `eta_sums`; H_PLUS holds its rows.
"""

from __future__ import annotations

import numpy as np

PAIRS: tuple[tuple[int, int], ...] = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

# complement triples, increasing: TRIPLES[l] omits axis l
TRIPLES: tuple[tuple[int, int, int], ...] = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))
# stored 3-form component l is the coefficient of TRIPLE_SIGNS[l] i_{d_l}(dx^0123)
TRIPLE_SIGNS = np.array([1.0, -1.0, 1.0, -1.0])
# the signed reversal of pair order, WEDGE2_SIGNS[p] = eps_{PAIRS[p] PAIRS[5 - p]}
WEDGE2_SIGNS = np.array([1.0, -1.0, 1.0, 1.0, -1.0, 1.0])


def eta_sums(pairs, weight=1.0 / np.sqrt(2.0), out=None) -> np.ndarray:
    """[a, ...] = weight pairs[a] + (WEDGE2_SIGNS[a] weight) pairs[5 - a], a < 3, for
    stored pairs[6, ...]: the bits of the contraction with the weighted eta rows."""
    out = np.empty((3,) + np.shape(pairs[0])) if out is None else out
    for a in range(3):
        np.multiply(weight, pairs[a], out=out[a])
        out[a] += (WEDGE2_SIGNS[a] * weight) * pairs[5 - a]
    return out


H_PLUS = eta_sums(np.eye(6))
for _constant in (TRIPLE_SIGNS, H_PLUS, WEDGE2_SIGNS):
    _constant.flags.writeable = False
