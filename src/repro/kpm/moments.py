"""Chebyshev moment computation — paper Eq. (13), (16)–(19).

The heaviest part of the KPM (paper Fig. 3 step 2) is the three-term
recursion

    |r_0> = |r>,  |r_1> = H~ |r_0>,  |r_{n+2}> = 2 H~ |r_{n+1}> - |r_n>,

with one dot product ``mu~_n = <r_0 | r_n>`` per order.

**One core.**  :func:`chebyshev_steps` is the only host copy of that
loop, for a vector (``matvec``) or a ``(D, R)`` block (``matmat``).
The moment paths here, the conductivity expansion and the time
propagator differ only in what they ``emit`` per order.  Moment
doubling (two moments per matvec, from ``2 T_m T_n = T_{m+n} +
T_{|m-n|}``; Weiße et al. Sec. II.D) is one such emitter: each new
``a_n = T_n(H~) r_0`` yields ``mu_{2n-1} = 2<a_n|a_{n-1}> - mu_1`` and
``mu_{2n} = 2<a_n|a_n> - mu_0``.

**A cold run is a resume from ``mu_0``.**  Every run builds the order-0
:class:`RecursionCheckpoint` and extends it, so a cold run at ``M``
and a run at ``N`` extended to ``M`` execute the same floating-point
operations in the same order: ``concat(moments(N), extend(N -> M))`` is
bit-identical to ``moments(M)`` by construction.  ``mu_n`` depends only
on ``r_0 .. r_n``, never on the truncation order, so moments are also
prefix-closed.  The serve layer's prefix-closed moment cache is built
on this contract.

**Dots.**  A vector's moments reduce with BLAS (``float(a @ b)``); a
block's reduce each column with ``einsum("ij,ij->j")``.  The two sum
in different orders, so column ``r`` of :func:`moments_block` equals
:func:`moments_single_vector` on that column only up to rounding.

Entry points (each validates its inputs, then runs the core):

- :func:`moments_single_vector`, :func:`moments_block` — raw moments
  ``<r|T_n(H~)|r>``;
- :func:`moments_single_vector_resumable`,
  :func:`moments_block_resumable` — the same plus a checkpoint, and
  :func:`extend_moments_single_vector`, :func:`extend_moments_block`
  to continue it;
- :func:`stochastic_moments`, :func:`stochastic_moments_resumable`,
  :func:`extend_stochastic_moments` — the stochastic trace estimator,
  normalized by ``D`` so that ``mu_0 ~= 1``;
- :func:`exact_moments` — the exact trace, for validation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ShapeError, SpectrumError, ValidationError
from repro.kpm.config import KPMConfig
from repro.kpm.random_vectors import random_block
from repro.sparse import as_operator
from repro.util.validation import check_positive_int

__all__ = [
    "MomentData",
    "RecursionCheckpoint",
    "TraceCheckpoint",
    "chebyshev_steps",
    "moments_single_vector",
    "moments_block",
    "moments_single_vector_resumable",
    "moments_block_resumable",
    "extend_moments_single_vector",
    "extend_moments_block",
    "stochastic_moments",
    "stochastic_moments_resumable",
    "extend_stochastic_moments",
    "exact_moments",
]

# |<r|T_n|r>| <= ||r||^2 when the spectrum is inside [-1, 1]; allow slack
# for rounding, then diagnose divergence (bad rescaling) beyond it.
_DIVERGENCE_FACTOR = 1e3


@dataclass
class MomentData:
    """Stochastic-trace moment estimates and their dispersion.

    Attributes
    ----------
    mu:
        Length-``N`` grand mean, normalized so ``mu[0] ~= 1``
        (``mu_n = Tr[T_n(H~)] / D``).
    per_realization:
        ``(S, N)`` array of per-realization means (each already averaged
        over its ``R`` vectors and normalized by ``D``).
    dimension:
        Matrix dimension ``D``.
    num_vectors:
        ``R`` — vectors averaged within each realization.
    """

    mu: np.ndarray
    per_realization: np.ndarray
    dimension: int
    num_vectors: int

    def __post_init__(self) -> None:
        self.mu = np.asarray(self.mu, dtype=np.float64)
        self.per_realization = np.atleast_2d(
            np.asarray(self.per_realization, dtype=np.float64)
        )
        if self.per_realization.shape[1] != self.mu.shape[0]:
            raise ShapeError(
                "per_realization must have one column per moment: "
                f"{self.per_realization.shape} vs {self.mu.shape}"
            )

    @property
    def num_moments(self) -> int:
        """``N`` — Chebyshev truncation order."""
        return int(self.mu.shape[0])

    @property
    def num_realizations(self) -> int:
        """``S`` — independent realizations averaged."""
        return int(self.per_realization.shape[0])

    def standard_error(self) -> np.ndarray:
        """Per-moment standard error of the grand mean across realizations.

        Zero when ``S == 1`` (no dispersion information at this level).
        """
        s = self.num_realizations
        if s < 2:
            return np.zeros_like(self.mu)
        return self.per_realization.std(axis=0, ddof=1) / np.sqrt(s)

    def prefix(self, num_moments: int) -> "MomentData":
        """The first ``num_moments`` orders, as views of this data.

        Moments are prefix-closed (``mu_n`` never depends on the
        truncation order), so the slice is bit-identical to what a fresh
        run at ``num_moments`` would have produced on the same backend.
        The views inherit this array's writeability — a cache handing out
        read-only moments hands out read-only prefixes.
        """
        num_moments = check_positive_int(num_moments, "num_moments")
        if num_moments > self.num_moments:
            raise ValidationError(
                f"prefix of {num_moments} moments exceeds the stored "
                f"{self.num_moments}"
            )
        if num_moments == self.num_moments:
            return self
        return MomentData(
            mu=self.mu[:num_moments],
            per_realization=self.per_realization[:, :num_moments],
            dimension=self.dimension,
            num_vectors=self.num_vectors,
        )


@dataclass
class RecursionCheckpoint:
    """Resumable tail state of one three-term recursion.

    Everything :func:`extend_moments_single_vector` /
    :func:`extend_moments_block` need to continue the loop exactly where
    a previous run stopped.  ``start`` is the checkpoint's own copy of
    ``|r_0>`` (or of the ``(D, R)`` start block); in the plain path
    ``prev``/``cur`` are ``r_{N-2}``/``r_{N-1}`` and ``k == N - 1``; in
    the doubling path they are ``a_{k-1}``/``a_k`` with ``k`` the
    Chebyshev index of ``cur`` (for odd ``N`` the last half-step produces
    no new ``a``, so ``k`` can lag ``N``).  ``mu0`` / ``mu1`` are the raw
    order-0/1 moments the doubling corrections reference; ``scale`` is
    the divergence-check normalization.  At ``num_moments == 1`` the
    recursion has not started: ``prev``, ``cur`` and ``mu1`` are
    ``None``.
    """

    start: np.ndarray
    prev: np.ndarray | None
    cur: np.ndarray | None
    k: int
    num_moments: int
    scale: float
    use_doubling: bool
    mu0: object
    mu1: object


@dataclass
class TraceCheckpoint:
    """Resumable state of a :func:`stochastic_moments` run.

    One :class:`RecursionCheckpoint` per realization, in realization
    order.  Opaque to callers — hand it back to
    :func:`extend_stochastic_moments` unchanged.
    """

    checkpoints: list

    @property
    def num_moments(self) -> int:
        """Orders already produced (0 when the checkpoint list is empty)."""
        if not self.checkpoints:
            return 0
        return int(self.checkpoints[0].num_moments)


def chebyshev_steps(operator, prev, cur, start: int, stop: int, emit):
    """Run the three-term recursion for ``order`` in ``[start, stop)``.

    Each step computes ``nxt = 2 H~ cur - prev`` — ``operator.matvec``
    for a vector, ``operator.matmat`` for a ``(D, R)`` block — calls
    ``emit(order, cur, nxt)`` and shifts ``(prev, cur) <- (cur, nxt)``.
    With ``prev``/``cur`` holding ``T_{start-2}``/``T_{start-1}`` applied
    to a start vector, ``order`` is the Chebyshev index of ``nxt``.

    ``operator`` is an operator-protocol object (see
    :func:`repro.sparse.as_operator`); ``prev`` and ``cur`` are never
    written.  Returns the final ``(prev, cur)``, from which a later call
    continues the recursion.
    """
    if prev.shape != cur.shape:
        raise ShapeError(
            f"prev and cur must have the same shape, got {prev.shape} and {cur.shape}"
        )
    vector = cur.ndim == 1
    for order in range(start, stop):
        nxt = 2.0 * (operator.matvec(cur) if vector else operator.matmat(cur)) - prev
        emit(order, cur, nxt)
        prev, cur = cur, nxt
    return prev, cur


def _check_moment_magnitude(value, order: int, scale: float) -> None:
    # Runs once per order: a scalar moment takes a path without numpy calls.
    peak = abs(value) if isinstance(value, float) else float(np.max(np.abs(value)))
    magnitude = peak / scale
    if not magnitude <= _DIVERGENCE_FACTOR:  # also true for NaN
        raise SpectrumError(
            f"moment of order {order} diverged (|value| {magnitude!r}); the operator's "
            "spectrum is not contained in [-1, 1] — rescale it first "
            "(repro.kpm.rescale_operator)"
        )


def _dots(a: np.ndarray, b: np.ndarray):
    """``<a|b>`` per vector: a float for vectors, an ``(R,)`` row for blocks."""
    if a.ndim == 1:
        return float(a @ b)
    return np.einsum("ij,ij->j", a, b)


def _cold(op, start, num_moments: int, use_doubling: bool, ndim: int):
    """Moments ``[0, num_moments)`` and their checkpoint: a resume from ``mu_0``."""
    # The checkpoint owns its start vector: a caller editing theirs later
    # must not change what an extension computes.
    start = np.array(start, dtype=np.float64)
    if start.ndim != ndim or start.shape[0] != op.shape[0]:
        name = "start_vector" if ndim == 1 else "start_block"
        expected = f"({op.shape[0]},)" if ndim == 1 else f"({op.shape[0]}, R)"
        raise ShapeError(f"{name} must have shape {expected}, got {start.shape}")
    mu0 = _dots(start, start)
    mu = np.empty((num_moments,) + start.shape[1:], dtype=np.float64)
    mu[0] = mu0
    checkpoint = RecursionCheckpoint(
        start=start,
        prev=None,
        cur=None,
        k=0,
        num_moments=1,
        scale=float(np.max(mu0, initial=1.0)),
        use_doubling=bool(use_doubling),
        mu0=mu0,
        mu1=None,
    )
    if num_moments > 1:
        segment, checkpoint = _extend(op, checkpoint, num_moments)
        mu[1:] = segment
    return mu, checkpoint


def _extend(op, checkpoint: RecursionCheckpoint, num_moments: int):
    """Orders ``[checkpoint.num_moments, num_moments)`` and the advanced checkpoint."""
    start, scale, base = checkpoint.start, checkpoint.scale, checkpoint.num_moments
    segment = np.empty((num_moments - base,) + start.shape[1:], dtype=np.float64)

    def store(order: int, value) -> None:
        segment[order - base] = value
        _check_moment_magnitude(value, order, scale)

    prev, cur, k, mu1 = checkpoint.prev, checkpoint.cur, checkpoint.k, checkpoint.mu1
    if cur is None:
        # Only mu_0 is known: r_1 = H~ r_0 starts the recursion.
        cur = op.matvec(start) if start.ndim == 1 else op.matmat(start)
        prev, k, mu1 = start, 1, _dots(start, cur)
        store(1, mu1)
    if checkpoint.use_doubling:
        # prev/cur are a_{k-1}/a_k; mu_{2k} is already known for odd bases.
        mu0 = checkpoint.mu0
        if base <= 2 * k < num_moments:
            store(2 * k, 2.0 * _dots(cur, cur) - mu0)

        def emit(n: int, a_prev, a_n) -> None:
            store(2 * n - 1, 2.0 * _dots(a_n, a_prev) - mu1)
            if 2 * n < num_moments:
                store(2 * n, 2.0 * _dots(a_n, a_n) - mu0)

        last = num_moments // 2
        prev, cur = chebyshev_steps(op, prev, cur, k + 1, last + 1, emit)
        k = max(k, last)
    else:

        def emit(order: int, _, r_n) -> None:
            store(order, _dots(start, r_n))

        prev, cur = chebyshev_steps(op, prev, cur, max(base, 2), num_moments, emit)
        k = num_moments - 1
    advanced = RecursionCheckpoint(
        start=start,
        prev=prev,
        cur=cur,
        k=k,
        num_moments=num_moments,
        scale=scale,
        use_doubling=checkpoint.use_doubling,
        mu0=checkpoint.mu0,
        mu1=mu1,
    )
    return segment, advanced


def _check_resume(checkpoint, ndim: int, op, num_moments: int) -> None:
    if not isinstance(checkpoint, RecursionCheckpoint):
        raise ValidationError(
            f"checkpoint must be a RecursionCheckpoint, got {type(checkpoint).__name__}"
        )
    if checkpoint.start.ndim != ndim:
        raise ShapeError(
            f"checkpoint start vector must be {ndim}-dimensional, got "
            f"shape {checkpoint.start.shape}"
        )
    if checkpoint.start.shape[0] != op.shape[0]:
        raise ShapeError(
            f"checkpoint dimension {checkpoint.start.shape[0]} does not match "
            f"operator dimension {op.shape[0]}"
        )
    if num_moments <= checkpoint.num_moments:
        raise ValidationError(
            f"extension target {num_moments} must exceed the checkpoint's "
            f"{checkpoint.num_moments} moments"
        )


def moments_single_vector(
    operator, start_vector, num_moments: int, *, use_doubling: bool = False
) -> np.ndarray:
    """Raw moments ``<r|T_n(H~)|r>`` for one start vector.

    Parameters
    ----------
    operator:
        The *rescaled* Hamiltonian ``H~`` (spectrum inside ``[-1, 1]``).
    start_vector:
        ``|r>`` of length ``D``.
    num_moments:
        ``N`` — number of moments to produce.
    use_doubling:
        Use ``mu_{2k} = 2<r_k|r_k> - mu_0`` and
        ``mu_{2k+1} = 2<r_{k+1}|r_k> - mu_1`` to halve the matvec count.
    """
    op = as_operator(operator)
    num_moments = check_positive_int(num_moments, "num_moments")
    return _cold(op, start_vector, num_moments, use_doubling, 1)[0]


def moments_block(
    operator, start_block, num_moments: int, *, use_doubling: bool = False
) -> np.ndarray:
    """Raw moments for a ``(D, R)`` block of start vectors, shape ``(N, R)``.

    Column ``r`` of the result equals
    ``moments_single_vector(operator, start_block[:, r], ...)`` up to
    floating-point reduction order.
    """
    op = as_operator(operator)
    num_moments = check_positive_int(num_moments, "num_moments")
    return _cold(op, start_block, num_moments, use_doubling, 2)[0]


def moments_single_vector_resumable(
    operator, start_vector, num_moments: int, *, use_doubling: bool = False
) -> tuple[np.ndarray, RecursionCheckpoint]:
    """:func:`moments_single_vector` plus a resumable checkpoint.

    The moments are bit-identical to :func:`moments_single_vector`; the
    checkpoint lets :func:`extend_moments_single_vector` raise the order
    later without replaying from ``mu_0``.
    """
    op = as_operator(operator)
    num_moments = check_positive_int(num_moments, "num_moments")
    return _cold(op, start_vector, num_moments, use_doubling, 1)


def extend_moments_single_vector(
    operator, checkpoint: RecursionCheckpoint, num_moments: int
) -> tuple[np.ndarray, RecursionCheckpoint]:
    """Resume a single-vector recursion up to ``num_moments`` orders.

    Returns the *new segment* — raw moments of orders
    ``[checkpoint.num_moments, num_moments)`` — and the advanced
    checkpoint.  ``concat(old, segment)`` is bit-identical to a cold
    :func:`moments_single_vector` run at ``num_moments``.
    """
    op = as_operator(operator)
    num_moments = check_positive_int(num_moments, "num_moments")
    _check_resume(checkpoint, 1, op, num_moments)
    return _extend(op, checkpoint, num_moments)


def moments_block_resumable(
    operator, start_block, num_moments: int, *, use_doubling: bool = False
) -> tuple[np.ndarray, RecursionCheckpoint]:
    """:func:`moments_block` plus a resumable checkpoint (see above)."""
    op = as_operator(operator)
    num_moments = check_positive_int(num_moments, "num_moments")
    return _cold(op, start_block, num_moments, use_doubling, 2)


def extend_moments_block(
    operator, checkpoint: RecursionCheckpoint, num_moments: int
) -> tuple[np.ndarray, RecursionCheckpoint]:
    """Resume a block recursion; returns the ``(new_orders, R)`` segment.

    Block analogue of :func:`extend_moments_single_vector` — same
    contract: the segment stacked under the old moments is bit-identical
    to a cold :func:`moments_block` run at ``num_moments``.
    """
    op = as_operator(operator)
    num_moments = check_positive_int(num_moments, "num_moments")
    _check_resume(checkpoint, 2, op, num_moments)
    return _extend(op, checkpoint, num_moments)


def _stochastic(op, config: KPMConfig, *, checkpoints=None, per_vector=None):
    """Run every realization's block recursion cold and average the moments.

    Appends each realization's checkpoint to ``checkpoints`` and stores
    its raw per-vector moments in ``per_vector`` when those are given.
    """
    dim = op.shape[0]
    n, r, s = config.num_moments, config.num_random_vectors, config.num_realizations
    per_realization = np.empty((s, n), dtype=np.float64)
    for realization in range(s):
        block = random_block(
            dim, r, config.vector_kind, seed=config.seed, realization=realization
        )
        raw, checkpoint = _cold(op, block, n, config.use_doubling, 2)  # (N, R)
        if checkpoints is not None:
            checkpoints.append(checkpoint)
        if per_vector is not None:
            per_vector[realization] = raw.T / dim
        per_realization[realization] = raw.mean(axis=1) / dim
    return MomentData(
        mu=per_realization.mean(axis=0),
        per_realization=per_realization,
        dimension=dim,
        num_vectors=r,
    )


def stochastic_moments(
    operator,
    config: KPMConfig,
    *,
    keep_per_vector: bool = False,
) -> MomentData | tuple[MomentData, np.ndarray]:
    """Stochastic-trace moment estimation — paper Eq. (19).

    Averages raw per-vector moments over ``R`` vectors and ``S``
    realizations and normalizes by ``D``.

    Parameters
    ----------
    operator:
        The *rescaled* Hamiltonian ``H~``.
    config:
        KPM parameters (``num_moments``, ``num_random_vectors``,
        ``num_realizations``, ``vector_kind``, ``seed``,
        ``use_doubling``).
    keep_per_vector:
        Also return the raw per-vector estimates, shape ``(S, R, N)``,
        for convergence studies.
    """
    if not isinstance(config, KPMConfig):
        raise ValidationError(f"config must be a KPMConfig, got {type(config).__name__}")
    op = as_operator(operator)
    if not keep_per_vector:
        return _stochastic(op, config)
    shape = (config.num_realizations, config.num_random_vectors, config.num_moments)
    per_vector = np.empty(shape, dtype=np.float64)
    return _stochastic(op, config, per_vector=per_vector), per_vector


def stochastic_moments_resumable(
    operator, config: KPMConfig
) -> tuple[MomentData, TraceCheckpoint]:
    """:func:`stochastic_moments` plus a :class:`TraceCheckpoint`.

    Bit-identical to :func:`stochastic_moments` (both run the same cold
    block recursions); the checkpoint lets
    :func:`extend_stochastic_moments` raise the truncation order later
    without replaying the recursion from ``mu_0``.
    """
    if not isinstance(config, KPMConfig):
        raise ValidationError(f"config must be a KPMConfig, got {type(config).__name__}")
    op = as_operator(operator)
    checkpoints: list = []
    data = _stochastic(op, config, checkpoints=checkpoints)
    return data, TraceCheckpoint(checkpoints=checkpoints)


def extend_stochastic_moments(
    operator, config: KPMConfig, data: MomentData, checkpoint: TraceCheckpoint
) -> tuple[MomentData, TraceCheckpoint]:
    """Extend a checkpointed stochastic run to ``config.num_moments`` orders.

    ``data``/``checkpoint`` must come from
    :func:`stochastic_moments_resumable` (or a previous extension) with
    the same operator and config identity; only ``config.num_moments``
    may differ, and must be larger.  The result is bit-identical to a
    cold :func:`stochastic_moments` at the new order: the stored prefix
    columns are reused as-is and the new columns are produced by the
    resumed recursion, whose per-order values never depended on the
    truncation order in the first place.
    """
    if not isinstance(config, KPMConfig):
        raise ValidationError(f"config must be a KPMConfig, got {type(config).__name__}")
    if not isinstance(data, MomentData):
        raise ValidationError(f"data must be a MomentData, got {type(data).__name__}")
    if not isinstance(checkpoint, TraceCheckpoint):
        raise ValidationError(
            f"checkpoint must be a TraceCheckpoint, got {type(checkpoint).__name__}"
        )
    op = as_operator(operator)
    base = checkpoint.num_moments
    target = config.num_moments
    if len(checkpoint.checkpoints) != config.num_realizations:
        raise ValidationError(
            f"checkpoint has {len(checkpoint.checkpoints)} realizations, "
            f"config asks for {config.num_realizations}"
        )
    if data.num_moments != base:
        raise ValidationError(
            f"data carries {data.num_moments} moments but the checkpoint "
            f"stopped at {base}; they must match"
        )
    if target <= base:
        raise ValidationError(
            f"extension target {target} must exceed the checkpointed {base} moments"
        )
    dim = data.dimension
    new_columns = np.empty((config.num_realizations, target - base), dtype=np.float64)
    advanced = []
    for realization, state in enumerate(checkpoint.checkpoints):
        _check_resume(state, 2, op, target)
        segment, state = _extend(op, state, target)
        new_columns[realization] = segment.mean(axis=1) / dim
        advanced.append(state)
    per_realization = np.concatenate([data.per_realization, new_columns], axis=1)
    extended = MomentData(
        mu=per_realization.mean(axis=0),
        per_realization=per_realization,
        dimension=dim,
        num_vectors=data.num_vectors,
    )
    return extended, TraceCheckpoint(checkpoints=advanced)


def exact_moments(operator, num_moments: int, *, chunk_size: int = 256) -> np.ndarray:
    """Exact normalized moments ``Tr[T_n(H~)] / D`` (no stochastic error).

    Runs the block recursion over all ``D`` basis vectors in chunks;
    cost ``O(N * D * nnz)`` — intended for validation at small ``D``.
    """
    op = as_operator(operator)
    num_moments = check_positive_int(num_moments, "num_moments")
    chunk_size = check_positive_int(chunk_size, "chunk_size")
    dim = op.shape[0]
    total = np.zeros(num_moments, dtype=np.float64)
    # Build each chunk's identity slab directly — materializing the full
    # D x D identity would defeat the O(D * chunk_size) memory purpose
    # of chunking in the first place.
    for start in range(0, dim, chunk_size):
        count = min(chunk_size, dim - start)
        # Per-chunk identity slab (final chunk can be narrower); this is
        # the O(D * chunk_size) memory cap itself, not recursion churn.
        block = np.zeros((dim, count), dtype=np.float64)  # repro: noqa[RA009]
        block[start + np.arange(count), np.arange(count)] = 1.0
        total += _cold(op, block, num_moments, False, 2)[0].sum(axis=1)
    return total / dim
