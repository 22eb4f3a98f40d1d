"""Per-sample reference for the holonomy classifier.

One state at a time: tree-walk evaluation of the coefficients and of
``TwoForm.as_matrix``, one SVD per sample and per form, and the witness
kept while scanning samples then forms.  ``closedness_test`` and
``frobenius_test`` must agree with it wherever no sample hits a domain
error.
"""

import numpy as np

from kahlermech.constraints import RANK_RTOL, sample_points
from kahlermech.exterior import exterior_derivative
from kahlermech.expressions import make_point


def _state(cs, point):
    omega = np.array([f.coefficient_vector(point) for f in cs.forms])
    scales = np.max(np.abs(omega), axis=1)
    return omega, np.where(scales > 0, scales, 1.0)


def reference_closedness(cs, samples, seed, tol):
    d_forms = [exterior_derivative(f) for f in cs.forms]
    worst = np.zeros(cs.r)
    for z, w in sample_points(cs.m, samples, seed):
        point = make_point(z, w)
        _, scales = _state(cs, point)
        here = [np.max(np.abs(d.as_matrix(point))) / scales[a] for a, d in enumerate(d_forms)]
        worst = np.maximum(worst, here)
    return [bool(x <= tol) for x in worst]


def reference_frobenius(cs, samples, seed, tol):
    """(closed flags, max bracket, valid, deficient, witness (z, w, form) or None)."""
    d_forms = [exterior_derivative(f) for f in cs.forms]
    closed = [True] * cs.r
    max_bracket, witness, valid, deficient = 0.0, None, 0, 0
    for z, w in sample_points(cs.m, samples, seed):
        point = make_point(z, w)
        omega, scales = _state(cs, point)
        _, sigma, vh = np.linalg.svd(omega)
        if np.sum(sigma > RANK_RTOL * sigma[0]) < cs.r:
            deficient += 1
            continue
        valid += 1
        kernel = vh[cs.r:].conj().T
        for a, d in enumerate(d_forms):
            D = d.as_matrix(point)
            if np.max(np.abs(D)) / scales[a] > tol:
                closed[a] = False
            value = np.linalg.svd(kernel.T @ D @ kernel, compute_uv=False)[0] / scales[a]
            if value > max_bracket:
                max_bracket, witness = float(value), (z, w, a)
    return tuple(closed), max_bracket, valid, deficient, witness
