"""Chebyshev time evolution — ``psi(t) = exp(-i H t) psi(0)``.

The same three-term recursion that powers the paper's moment pipeline
also gives the fastest general-purpose propagator for sparse
Hamiltonians (Tal-Ezer & Kosloff 1984; reviewed in Weisse et al.
Sec. II.C): with ``H~`` rescaled into ``[-1, 1]``,

    exp(-i H t) = exp(-i b t) * sum_n c_n(a t) T_n(H~),
    c_n(tau)   = (2 - delta_{n0}) (-i)^n J_n(tau),

where ``J_n`` are Bessel functions.  ``J_n(tau)`` dies super-
exponentially once ``n > |tau|``, so the truncation order is chosen
automatically from the time step and checked against a tail bound.
This module is the reproduction's demonstration that the paper's
substrate (rescaling + recursion on any operator-protocol matrix)
carries every Chebyshev-expansion workload, not just the DoS.
"""

from __future__ import annotations

import numpy as np
from scipy.special import jv

from repro.errors import ValidationError
from repro.kpm.moments import chebyshev_steps
from repro.kpm.rescale import rescale_operator
from repro.sparse import as_operator
from repro.util.validation import check_positive_float, check_positive_int

__all__ = ["evolution_coefficients", "evolve_state", "evolution_order"]

_TAIL_TOLERANCE = 1e-12


def evolution_order(scaled_time: float, *, tolerance: float = _TAIL_TOLERANCE) -> int:
    """Truncation order for ``exp(-i H~ tau)`` accurate to ``tolerance``.

    Uses the super-exponential Bessel tail: starting from
    ``n ~ |tau| + 10``, grow until ``|J_n| < tolerance`` for several
    consecutive orders.
    """
    tolerance = check_positive_float(tolerance, "tolerance")
    tau = abs(float(scaled_time))
    order = int(tau) + 10
    while True:
        tail = np.abs(jv(np.arange(order, order + 4), tau))
        if np.all(tail < tolerance):
            return order + 4
        order += max(4, order // 8)


def evolution_coefficients(scaled_time: float, num_terms: int) -> np.ndarray:
    """Complex coefficients ``c_n = (2 - delta_n0) (-i)^n J_n(tau)``."""
    num_terms = check_positive_int(num_terms, "num_terms")
    orders = np.arange(num_terms)
    coefficients = jv(orders, float(scaled_time)).astype(np.complex128)
    coefficients *= (-1j) ** orders
    coefficients[1:] *= 2.0
    return coefficients


def evolve_state(
    hamiltonian,
    state,
    time: float,
    *,
    num_terms: int | None = None,
    bounds_method: str = "gerschgorin",
    epsilon: float = 0.01,
) -> np.ndarray:
    """Propagate ``state`` by ``exp(-i * hamiltonian * time)``.

    Parameters
    ----------
    hamiltonian:
        Symmetric operator (any storage accepted by the library).
    state:
        Initial vector (real or complex), length ``D``.
    time:
        Evolution time (any real number; hbar = 1).
    num_terms:
        Chebyshev truncation; default picks :func:`evolution_order`
        automatically from ``a * time``.
    bounds_method, epsilon:
        Spectral rescaling options (see :func:`repro.kpm.rescale_operator`).

    Returns
    -------
    complex ndarray
        ``psi(t)``; unitary up to the truncation tolerance (norm is
        preserved to ~1e-12 with the default order).
    """
    op = as_operator(hamiltonian)
    psi0 = np.asarray(state)  # repro: noqa[RA003] -- complex states allowed; split below

    if psi0.ndim != 1 or psi0.shape[0] != op.shape[0]:
        raise ValidationError(
            f"state must be a vector of length {op.shape[0]}, got shape {psi0.shape}"
        )
    scaled, rescaling = rescale_operator(op, method=bounds_method, epsilon=epsilon)
    tau = rescaling.scale * float(time)
    if num_terms is None:
        num_terms = evolution_order(tau)
    coefficients = evolution_coefficients(tau, num_terms)

    real0 = np.ascontiguousarray(psi0.real, dtype=np.float64)
    imag0 = np.ascontiguousarray(psi0.imag, dtype=np.float64) if np.iscomplexobj(psi0) else None

    def accumulate(start: np.ndarray) -> np.ndarray:
        # Sum c_n T_n(H~)|start> with the standard recursion.
        result = coefficients[0] * start.astype(np.complex128)
        if num_terms == 1:
            return result
        cur = scaled.matvec(start)
        result += coefficients[1] * cur

        def add_term(order: int, _, nxt: np.ndarray) -> None:
            np.add(result, coefficients[order] * nxt, out=result)

        chebyshev_steps(scaled, start, cur, 2, num_terms, add_term)
        return result

    evolved = accumulate(real0)
    if imag0 is not None:
        evolved = evolved + 1j * accumulate(imag0)
    # Undo the spectral shift: exp(-iHt) = exp(-i b t) exp(-i H~ tau).
    return np.exp(-1j * rescaling.shift * float(time)) * evolved
