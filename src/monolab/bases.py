"""Constant index tensors for exterior algebra on an oriented 4-chart.

Storage conventions used across the package:

* 2-forms keep the 6 independent components in pair order
  PAIRS = (01, 02, 03, 12, 13, 23); antisymmetry is implied by storage.
* 3-forms keep 4 components; component l is the coefficient of
  dx^i ^ dx^j ^ dx^k with (i,j,k) the increasing complement of axis l.
* The self-dual frame basis (unit norm for an orthonormal coframe e^a) is
      eta_1 = (e^0^e^1 + e^2^e^3)/sqrt(2)
      eta_2 = (e^0^e^2 + e^3^e^1)/sqrt(2)
      eta_3 = (e^0^e^3 + e^1^e^2)/sqrt(2)
  stored as rows in pair order, H_PLUS[a, p].
* The wedge pairing of two stored 2-forms is the signed reversal of pair
  order, WEDGE2[p, 5 - p] = WEDGE2_SIGNS[p], since pair 5 - p is the
  complement of pair p.
"""

from __future__ import annotations

import numpy as np

PAIRS: tuple[tuple[int, int], ...] = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

# complement triples, increasing: TRIPLES[l] omits axis l
TRIPLES: tuple[tuple[int, int, int], ...] = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))
# stored 3-form component l is the coefficient of TRIPLE_SIGNS[l] i_{d_l}(dx^0123)
TRIPLE_SIGNS = np.array([1.0, -1.0, 1.0, -1.0])

# eta rows in pair order: the first wedge e^0^e^a and the second, whose sign
# tells the self-dual triple from the anti-self-dual one (e^3^e^1 = -e^1^e^3)
_FIRST_WEDGE = np.eye(3, 6)
_SECOND_WEDGE = np.array([[0.0, 0, 0, 0, 0, 1], [0, 0, 0, 0, -1, 0], [0, 0, 0, 1, 0, 0]])
H_PLUS = (_FIRST_WEDGE + _SECOND_WEDGE) / np.sqrt(2.0)

# wedge pairing of stored 2-forms, (alpha ^ beta)_{0123} = alpha_p WEDGE2[p,q] beta_q:
# the signed reversal of pair order, WEDGE2_SIGNS[p] = eps_{PAIRS[p] PAIRS[5 - p]}
WEDGE2_SIGNS = np.array([1.0, -1.0, 1.0, 1.0, -1.0, 1.0])
WEDGE2 = np.zeros((6, 6))
WEDGE2[np.arange(6), 5 - np.arange(6)] = WEDGE2_SIGNS
for _constant in (TRIPLE_SIGNS, H_PLUS, WEDGE2, WEDGE2_SIGNS):
    _constant.flags.writeable = False
