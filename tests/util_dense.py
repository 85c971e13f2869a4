"""Dense oracles for the block edge-probability matrix: its explicit n x n
array, and the hand-derived variance of the labelled 2-star count over that
array, which ``meanfield.exact_variance`` is checked against.
"""

import numpy as np

DENSE_LIMIT = 4000


def to_dense(xi) -> np.ndarray:
    """The n x n array of ``xi``'s edge probabilities, with zero diagonal."""
    if xi.n > DENSE_LIMIT:
        raise ValueError(f"refusing to densify above n = {DENSE_LIMIT}")
    label = np.full(xi.n, len(xi.classes))
    for a, c in enumerate(xi.classes):
        label[list(c)] = a
    arr = xi.probs[np.ix_(label, label)]
    arr[np.diag_indices_from(arr)] = 0.0
    return arr


def exact_star2_variance(arr: np.ndarray) -> float:
    """Exact variance of the labelled 2-star count under the product law
    with the edge probabilities of the symmetric array ``arr``.

    Splits E[N^2] into same-center terms (factorial moments of each row's
    Poisson-binomial degree), independent cross-center products, and a
    correction for pairs of stars sharing their connecting edge.
    """
    s = arr.sum(axis=1)
    p2 = (arr**2).sum(axis=1)
    p3 = (arr**3).sum(axis=1)
    p4 = (arr**4).sum(axis=1)
    e1 = s
    e2 = (e1 * s - p2) / 2.0
    e3 = (e2 * s - e1 * p2 + p3) / 3.0
    e4 = (e3 * s - e2 * p2 + e1 * p3 - p4) / 4.0
    per_center = s * s - p2  # E[d(d-1)] per row
    expected = float(per_center.sum())
    same_center = 24.0 * e4 + 24.0 * e3 + 4.0 * e2
    cross_products = expected**2 - float((per_center**2).sum())
    a = s[:, None] - arr
    b = s[None, :] - arr
    shared_edge = 4.0 * arr * (1.0 - arr) * a * b
    second_moment = float(same_center.sum()) + cross_products + float(shared_edge.sum())
    return second_moment - expected**2
