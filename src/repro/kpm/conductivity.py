"""Kubo–Greenwood conductivity via the double Chebyshev expansion.

Transport is the flagship "beyond-DoS" application of KPM (Weisse et
al., Rev. Mod. Phys. 78, 275 (2006), Sec. IV): the zero-temperature
Kubo–Greenwood conductivity at Fermi energy ``E`` is the current-current
correlator

    j(E) = Tr[ v delta(E - H) v delta(E - H) ] / D,

expanded in *two* Chebyshev indices,

    j(x) = (1 / (pi^2 (1 - x^2))) *
           sum_{nm} (2-d_n0)(2-d_m0) g_n g_m mu_nm T_n(x) T_m(x),

    mu_nm = Tr[ v T_n(H~) v T_m(H~) ] / D.

**Real-arithmetic formulation.** For a real hopping Hamiltonian the
velocity ``v = -i [H, X]`` is ``-i A`` with ``A = [H, X]`` real and
antisymmetric, so ``mu_nm = -Tr[A T_n A T_m]/D`` stays real.  On a
periodic lattice ``X`` itself is ill-defined; the physical object is
the bond displacement, so :func:`current_operator_from_edges` builds
``A`` directly from ``A_ij = t_ij d_ij`` (antisymmetrized), with
``d_ij`` the minimal-image displacement along the transport axis.

**Stochastic evaluation.** Per random vector ``|r>``:

    L_n = T_n(H~) (A |r>),   R_m = A (T_m(H~) |r>),
    mu_nm ~= (L_n . R_m) / D,

two recursions plus ``2 N`` stored vectors — cost ``O(N nnz + N^2 D)``.

Units: with hbar = e = lattice constant = 1 and the deltas in *scaled*
energy, converting to the physical axis divides by ``a^2`` (one Jacobian
per delta); :func:`conductivity_profile` handles that.  The returned
``sigma(E) = pi * j(E)`` matches ``(pi/D) sum_{kk'} |v_kk'|^2
delta(E-E_k) delta(E-E_k')`` — the Gaussian-broadened exact sum the
tests validate against.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError, ValidationError
from repro.kpm.config import KPMConfig
from repro.kpm.kernels import get_kernel
from repro.kpm.moments import chebyshev_steps
from repro.kpm.random_vectors import random_vector
from repro.kpm.rescale import Rescaling, rescale_operator
from repro.lattice.lattice import Lattice
from repro.sparse import COOMatrix, as_operator
from repro.util.validation import check_nonnegative_int, check_positive_int

__all__ = [
    "current_operator_from_edges",
    "lattice_current_operator",
    "conductivity_moments_single_vector",
    "stochastic_conductivity_moments",
    "conductivity_profile",
    "kubo_greenwood_conductivity",
    "finite_temperature_conductivity",
]


def current_operator_from_edges(
    num_sites: int,
    edge_i,
    edge_j,
    displacements,
    *,
    hopping=-1.0,
    format: str = "csr",
):
    """The real antisymmetric bond-current operator ``A = [H, X]``.

    ``A_ij = t_ij * d_ij`` for each bond, ``A_ji = -A_ij``, where
    ``d_ij`` is the displacement of site ``j`` relative to site ``i``
    along the transport direction (minimal image on periodic lattices).
    The physical velocity operator is ``v = -i A``.
    """
    num_sites = check_positive_int(num_sites, "num_sites")
    edge_i = np.asarray(edge_i, dtype=np.int64).ravel()
    edge_j = np.asarray(edge_j, dtype=np.int64).ravel()
    displacements = np.asarray(displacements, dtype=np.float64).ravel()
    if not (edge_i.shape == edge_j.shape == displacements.shape):
        raise ShapeError("edge_i, edge_j, displacements must have equal length")
    hopping_values = np.broadcast_to(
        np.asarray(hopping, dtype=np.float64), edge_i.shape
    )
    amplitude = hopping_values * displacements
    rows = np.concatenate([edge_i, edge_j])
    cols = np.concatenate([edge_j, edge_i])
    values = np.concatenate([amplitude, -amplitude])
    coo = COOMatrix(rows, cols, values, (num_sites, num_sites)).sum_duplicates()
    if format == "coo":
        return coo
    if format == "csr":
        return coo.to_csr()
    if format == "dense":
        from repro.sparse import DenseOperator

        return DenseOperator(coo.to_dense())
    raise ValidationError(f"format must be csr, coo, or dense; got {format!r}")


def lattice_current_operator(
    lattice: Lattice, axis: int = 0, *, hopping=-1.0, format: str = "csr"
):
    """Current operator of a hypercubic tight-binding lattice along ``axis``.

    Every nearest-neighbor bond generated along ``axis`` carries unit
    displacement (+1 from each site to its ``+axis`` neighbor, with
    minimal-image wrap on periodic axes); bonds along other axes carry
    zero current and are omitted.
    """
    if not isinstance(lattice, Lattice):
        raise ValidationError(f"lattice must be a Lattice, got {type(lattice).__name__}")
    axis = check_nonnegative_int(axis, "axis")
    if axis >= lattice.ndim:
        raise ValidationError(f"axis {axis} out of range for {lattice.ndim}-D lattice")
    indices = np.arange(lattice.num_sites, dtype=np.int64)
    coords = lattice.site_coords(indices)
    length = lattice.dims[axis]
    shifted = coords.copy()
    shifted[:, axis] += 1
    if lattice.periodic[axis]:
        shifted[:, axis] %= length
        keep = np.ones(lattice.num_sites, dtype=bool)
    else:
        keep = shifted[:, axis] < length
    edge_i = indices[keep]
    edge_j = shifted[keep] @ lattice._strides
    displacements = np.ones(edge_i.size, dtype=np.float64)
    return current_operator_from_edges(
        lattice.num_sites, edge_i, edge_j, displacements, hopping=hopping, format=format
    )


def _chebyshev_vectors(operator, start: np.ndarray, num_moments: int) -> np.ndarray:
    """Stack ``[T_0 s, T_1 s, ..., T_{N-1} s]`` as an ``(N, D)`` array."""
    out = np.empty((num_moments, start.shape[0]), dtype=np.float64)
    out[0] = start
    if num_moments == 1:
        return out
    out[1] = operator.matvec(start)

    def store(order: int, _, nxt: np.ndarray) -> None:
        out[order] = nxt

    chebyshev_steps(operator, start, out[1], 2, num_moments, store)
    return out


def conductivity_moments_single_vector(
    scaled_operator,
    current,
    start_vector,
    num_moments: int,
) -> np.ndarray:
    """One-vector estimate of ``mu_nm = -Tr[A T_n A T_m]/D``, shape (N, N).

    Parameters
    ----------
    scaled_operator:
        ``H~`` with spectrum inside ``[-1, 1]``.
    current:
        The antisymmetric operator ``A`` (same dimension, *unscaled* —
        ``A`` carries physical units and is not spectrum-mapped).
    start_vector:
        ``|r>``.
    num_moments:
        Truncation ``N`` of both expansions.
    """
    scaled = as_operator(scaled_operator)
    current_op = as_operator(current)
    num_moments = check_positive_int(num_moments, "num_moments")
    r0 = np.asarray(start_vector, dtype=np.float64)
    if r0.shape != (scaled.shape[0],):
        raise ShapeError(
            f"start_vector must have shape ({scaled.shape[0]},), got {r0.shape}"
        )
    if current_op.shape != scaled.shape:
        raise ShapeError("current operator dimension mismatch")
    dim = scaled.shape[0]
    # mu_nm = <r| A T_n A T_m |r> / D * (-1)
    #       = (T_n (A r)) . (A (T_m r)) / D       [A antisymmetric]
    left = _chebyshev_vectors(scaled, current_op.matvec(r0), num_moments)
    phi = _chebyshev_vectors(scaled, r0, num_moments)
    right = np.stack([current_op.matvec(phi[m]) for m in range(num_moments)])
    return (left @ right.T) / dim


def stochastic_conductivity_moments(
    scaled_operator,
    current,
    config: KPMConfig,
) -> np.ndarray:
    """Averaged ``mu_nm`` over ``R x S`` random vectors, shape (N, N)."""
    if not isinstance(config, KPMConfig):
        raise ValidationError(f"config must be a KPMConfig, got {type(config).__name__}")
    scaled = as_operator(scaled_operator)
    dim = scaled.shape[0]
    total = np.zeros((config.num_moments, config.num_moments), dtype=np.float64)
    for realization in range(config.num_realizations):
        for index in range(config.num_random_vectors):
            r0 = random_vector(
                dim,
                config.vector_kind,
                seed=config.seed,
                realization=realization,
                vector_index=index,
            )
            total += conductivity_moments_single_vector(
                scaled, current, r0, config.num_moments
            )
    return total / config.total_vectors


def conductivity_profile(
    mu_nm,
    rescaling: Rescaling,
    energies,
    *,
    kernel: str = "jackson",
) -> np.ndarray:
    """``sigma(E) = pi * j(E)`` from the 2-D moments, at the given energies.

    Both Chebyshev indices are damped with the same kernel; the two
    delta-function Jacobians convert the scaled-axis correlator to
    original units (``1/a^2``).
    """
    if not isinstance(rescaling, Rescaling):
        raise ValidationError(
            f"rescaling must be a Rescaling, got {type(rescaling).__name__}"
        )
    mu_nm = np.asarray(mu_nm, dtype=np.float64)
    if mu_nm.ndim != 2 or mu_nm.shape[0] != mu_nm.shape[1]:
        raise ShapeError(f"mu_nm must be square 2-D, got shape {mu_nm.shape}")
    num_moments = mu_nm.shape[0]
    x = np.atleast_1d(rescaling.to_scaled(np.asarray(energies, dtype=np.float64)))
    if np.any(np.abs(x) >= 1.0):
        raise ValidationError(
            "energies must lie strictly inside the rescaled spectral interval"
        )
    g = get_kernel(kernel, num_moments)
    weights = g * (2.0 - (np.arange(num_moments) == 0))
    theta = np.arccos(x)
    chebyshev = np.cos(np.outer(np.arange(num_moments), theta))  # (N, M)
    weighted = (weights[:, None] * chebyshev)  # (N, M)
    correlator = np.einsum("nm,ne,me->e", mu_nm, weighted, weighted)
    j_scaled = correlator / (np.pi**2 * (1.0 - x**2))
    return np.pi * j_scaled * rescaling.density_jacobian**2


def kubo_greenwood_conductivity(
    hamiltonian,
    current,
    energies,
    config: KPMConfig | None = None,
) -> np.ndarray:
    """End-to-end Kubo–Greenwood ``sigma(E)`` for a Hamiltonian + current pair.

    Rescales ``H``, runs the stochastic double expansion, and evaluates
    the profile at ``energies`` (original units).
    """
    config = KPMConfig() if config is None else config
    scaled, rescaling = rescale_operator(
        hamiltonian, method=config.bounds_method, epsilon=config.epsilon
    )
    mu_nm = stochastic_conductivity_moments(scaled, current, config)
    return conductivity_profile(mu_nm, rescaling, energies, kernel=config.kernel)


def finite_temperature_conductivity(
    mu_nm,
    rescaling: Rescaling,
    chemical_potential: float,
    temperature: float,
    *,
    kernel: str = "jackson",
    num_points: int = 512,
) -> float:
    """DC conductivity at finite temperature (Kubo–Bastin thermal window).

    ``sigma(mu, T) = integral (-df/dE) sigma(E) dE`` — the Fermi window
    ``-df/dE`` (a peak of width ``~4T`` around ``mu``) averages the
    zero-temperature profile.  ``T = 0`` returns
    ``conductivity_profile`` at ``mu`` exactly.

    Integration: trapezoid over a Chebyshev-node grid restricted to the
    rescaled interval (dense near the band edges, where the profile is
    steepest).
    """
    if temperature < 0:
        raise ValidationError(f"temperature must be >= 0, got {temperature}")
    if temperature == 0.0:
        return float(
            conductivity_profile(
                mu_nm, rescaling, [chemical_potential], kernel=kernel
            )[0]
        )
    num_points = check_positive_int(num_points, "num_points")
    k = np.arange(num_points, dtype=np.float64)
    x = np.cos(np.pi * (k + 0.5) / num_points)[::-1]
    energies = rescaling.to_original(x)
    sigma = conductivity_profile(mu_nm, rescaling, energies, kernel=kernel)
    # -df/dE = 1/(4T cosh^2((E - mu)/(2T))), overflow-safe via clipping.
    argument = np.clip((energies - chemical_potential) / (2.0 * temperature), -350, 350)
    window = 1.0 / (4.0 * temperature * np.cosh(argument) ** 2)
    return float(np.trapezoid(window * sigma, energies))
