"""Field reductions, photon statistics, Husimi functions, symmetry reports.

Everything here consumes a multi-sector ``SystemState``, a ``Trajectory``
of them, or the reduced field density matrix obtained from one.  The
reduction traces out the matter labels (q, r): within a sector every basis
state carries a distinct photon number, so sector-diagonal blocks
contribute only to the diagonal of rho_F, while cross-sector terms land on
the stripe |nu - nu'| = |M - M'| picked out by shared (q, r) labels.  That stripe
structure is what makes the cyclic order of a state detectable by a gcd.

Which pairs of stacked basis states share (q, r) depends only on the
sector bases, so the reduction is one gather of a_i conj(a_j) over that
pair list and one scatter-add onto rho.  ``reduce_fields`` does this for
the (T, N) amplitude array of a trajectory in one array pass and runs the
checks of ``FieldDensityMatrix`` over the whole stack; ``reduce_field`` is
its one-state case and ``reduce_field_blocks`` runs it over bounded blocks
of rows.

The Husimi function reads the same stripes.  The coherent-state overlaps
c[nu, g] = <nu|alpha_g> are one table of G points per photon number, one
contiguous row each, with magnitudes only on the rows that rho's nonzero
entries read, and Q at every point is summed one diagonal of rho at a
time, skipping the diagonals that hold only zeros.  A batch of fields on
the same points shares that one table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import ValidationError
from .dynamics import SystemState, Trajectory, sector_layout

__all__ = [
    "FieldDensityMatrix",
    "HusimiGrid",
    "SymmetryReport",
    "DEFAULT_GRID",
    "pure_field",
    "reduce_field",
    "reduce_fields",
    "reduce_field_blocks",
    "photon_probabilities",
    "photon_weights",
    "linear_entropy",
    "linear_entropies",
    "husimi",
    "husimi_values",
    "husimi_two_fock",
    "check_overlaps",
    "detect_cyclic_symmetry",
]

# quadrature window and resolution used when no grid is requested
DEFAULT_GRID = ((-6.0, 6.0, 241), (-6.0, 6.0, 241))

COHERENCE_TOL = 1e-10
# entries of one coherent-overlap table, points x (nu_max + 1): `cnlight
# husimi` on 10^6 points peaked at 276 MB RSS for the vacuum and 552 MB at
# the cap (Linux, Python 3.11, numpy 2.4)
MAX_OVERLAPS = 2 * 10**7
# rho entries per block of reduce_field_blocks: 16 MiB of complex, and a
# few times that in the temporaries of the checks and of S_L
BLOCK_ENTRIES = 2**20
_RESIDUAL_SAMPLES = 10_000
_RESIDUAL_SEED = 20_493


@dataclass(frozen=True)
class FieldDensityMatrix:
    """Reduced field state on the Fock ladder 0..nu_max."""

    rho: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=complex)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise ValidationError(f"rho must be square, got shape {rho.shape}")
        object.__setattr__(self, "rho", rho)
        _check_rhos(rho[None], first=None)

    @property
    def nu_max(self) -> int:
        return self.rho.shape[0] - 1

    @property
    def trace(self) -> float:
        return float(np.real(np.trace(self.rho)))

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.rho)[0])


def _check_rhos(rhos: np.ndarray, first: Optional[int] = 0) -> None:
    """The checks of a FieldDensityMatrix, run at once over a (T, d, d) stack.

    Every rho must be finite, Hermitian to 1e-8 and of trace 1 to 1e-6.
    A failure names the first offending row, as ``first`` plus its index
    in the stack; ``first=None`` names none (a lone rho).
    """
    def refuse(bad: np.ndarray, why: Callable[[int], str]) -> None:
        k = int(np.argmax(bad))
        row = "" if first is None else f" {first + k}"
        raise ValidationError(f"rho{row} {why(k)}")

    if not np.isfinite(rhos).all():
        refuse(~np.isfinite(rhos).all(axis=(1, 2)), lambda k: "has a non-finite entry")
    if rhos.size:
        asym = np.abs(rhos - rhos.swapaxes(1, 2).conj())
        if asym.max() > 1e-8:
            herm = asym.max(axis=(1, 2))
            refuse(herm > 1e-8,
                   lambda k: f"is not Hermitian (asymmetry {herm[k]:.3g})")
    tr = rhos.trace(axis1=1, axis2=2).real
    off = np.abs(tr - 1.0)
    if off.max() > 1e-6:
        refuse(off > 1e-6, lambda k: f"trace {tr[k]} is not 1")


@dataclass(frozen=True)
class HusimiGrid:
    """Q values on a rectangular quadrature grid, alpha = (q + ip)/sqrt(2).

    ``values[i, j]`` is Q at (q_values[j], p_values[i]).  For a batch of
    fields (see :func:`husimi`) ``values`` is (F, n_p, n_q) and
    ``values[f, i, j]`` is Q of the f-th field there.
    """

    q_range: Tuple[float, float]
    p_range: Tuple[float, float]
    n_q: int
    n_p: int
    values: np.ndarray

    @property
    def q_values(self) -> np.ndarray:
        return np.linspace(self.q_range[0], self.q_range[1], self.n_q)

    @property
    def p_values(self) -> np.ndarray:
        return np.linspace(self.p_range[0], self.p_range[1], self.n_p)

    def normalization(self) -> Union[float, np.ndarray]:
        """Riemann sum of Q dq dp / 2 (the coherent-state measure) over the
        last two axes: a float, or one sum per field of a batch."""
        dq = (self.q_range[1] - self.q_range[0]) / (self.n_q - 1)
        dp = (self.p_range[1] - self.p_range[0]) / (self.n_p - 1)
        sums = np.sum(self.values, axis=(-2, -1)) * dq * dp / 2.0
        return float(sums) if sums.ndim == 0 else sums


@dataclass(frozen=True)
class SymmetryReport:
    """Detected cyclic order of a field state.

    order 0 encodes a diagonal rho, i.e. full (continuous) rotational
    symmetry of Q.  For order n >= 1 the residual is the worst
    |Q(rho_r, phi + 2pi/n) - Q(rho_r, phi)| over the sampled points,
    evaluated as Q of rho' = D rho D^dag, D = diag(e^{-i nu 2pi/n}), against
    Q of rho at the same points (equal up to roundoff); for order 0 the two
    angles of each pair are drawn independently.
    """

    order: int
    support_differences: Tuple[int, ...]
    max_residual: float
    tol: float = COHERENCE_TOL


# ------------------------------------------------------------------
# reductions
# ------------------------------------------------------------------

def pure_field(amplitudes: Dict[int, complex]) -> FieldDensityMatrix:
    """|psi><psi| for psi = sum of c_nu |nu> from {nu: c_nu}, normalised.

    Raises ValidationError for a negative photon number, an empty or
    all-zero map and a non-finite amplitude.
    """
    if not amplitudes:
        raise ValidationError("need at least one photon-number amplitude")
    if min(amplitudes) < 0:
        raise ValidationError(
            f"photon numbers must be >= 0, got {sorted(amplitudes)}"
        )
    vec = np.zeros(max(amplitudes) + 1, dtype=complex)
    for nu, amp in amplitudes.items():
        vec[nu] = amp
    if not np.all(np.isfinite(vec)):
        raise ValidationError(f"need finite amplitudes, got {amplitudes}")
    norm = np.linalg.norm(vec)
    if norm == 0.0:
        raise ValidationError("every amplitude is zero")
    vec /= norm
    return FieldDensityMatrix(rho=np.outer(vec, vec.conj()))


def _pair_list(dim: int, layout):
    """Gather and scatter indices of the reduction on a stacked ``layout``.

    Returns the pairs (i, j) of stacked basis states that share their
    matter labels (q, r), grouped by the flat rho entry nu_i * dim + nu_j
    they land on (in the order of sector pairs, then basis order, within
    a group), the start of each group, and each group's entry.
    """
    tagged = [
        {(s.q, s.r): (sl.start + k, s.nu) for k, s in enumerate(b.states)}
        for b, sl in layout.values()
    ]
    pairs = []   # (rho entry, position in the loop, i, j)
    for d1 in tagged:
        for d2 in tagged:
            for qr, (i, nu1) in d1.items():
                hit = d2.get(qr)
                if hit is not None:
                    pairs.append((nu1 * dim + hit[1], len(pairs), i, hit[0]))
    pairs.sort()
    entry, _, gather_i, gather_j = zip(*pairs)
    starts = [
        k for k in range(len(entry)) if k == 0 or entry[k] != entry[k - 1]
    ]
    return (
        np.array(gather_i), np.array(gather_j),
        np.array(starts), np.array([entry[k] for k in starts]),
    )


def _reducer(layout) -> Callable[[np.ndarray, int], np.ndarray]:
    """The reduction of amplitude rows stacked by ``layout`` (a
    ``sector_layout``) to fields, (T, dim, dim) with dim the largest label
    plus 1, as a function of the rows and the index of the first of them.

    A row with a non-finite amplitude raises ValidationError naming its
    index; the checks of a FieldDensityMatrix are left to the caller.  The
    pair list is built once; one gather of a_i conj(a_j) over it and one
    scatter-add of each group onto its rho entry serve every row at once.
    """
    dim = max(layout) + 1
    gather_i, gather_j, starts, entries = _pair_list(dim, layout)

    def reduce(rows: np.ndarray, first: int) -> np.ndarray:
        if not np.isfinite(rows).all():
            k = first + int(np.argmin(np.isfinite(rows).all(axis=1)))
            raise ValidationError(f"state {k} has a non-finite amplitude")
        prods = rows.take(gather_i, axis=1) * rows.take(gather_j, axis=1).conj()
        rhos = np.zeros((len(rows), dim * dim), dtype=complex)
        rhos[:, entries] = np.add.reduceat(prods, starts, axis=1)
        return rhos.reshape(len(rows), dim, dim)

    return reduce


def reduce_field(state: SystemState) -> FieldDensityMatrix:
    """Trace out the matter labels of a (normalized) multi-sector state.

    The one-state case of :func:`reduce_fields`, stacked by the same
    ``sector_layout``.
    """
    if not state.sectors:
        raise ValidationError("state has no sectors")
    layout = sector_layout(state.sectors)
    row = np.concatenate([state.sectors[m][1] for m in layout], dtype=complex)
    return FieldDensityMatrix(rho=_reducer(layout)(row[None], 0)[0])


def reduce_fields(traj: Trajectory) -> np.ndarray:
    """Reduced field rho of every state of a trajectory, stacked as
    (T, nu_max + 1, nu_max + 1): the blocks of :func:`reduce_field_blocks`
    joined, so it grows with T (nu_max + 1)^2.
    """
    return np.concatenate([rhos for _, rhos in reduce_field_blocks(traj)])


def reduce_field_blocks(traj: Trajectory) -> Iterator[Tuple[int, np.ndarray]]:
    """Reduced fields of a trajectory a block of rows at a time: yields the
    index of each block's first row and its (rows, nu_max + 1, nu_max + 1)
    stack of rho, in time order.

    A block holds at most ``BLOCK_ENTRIES`` rho entries (but at least one
    row), so memory stays bounded for a trajectory of any length.  The
    pair list is built once from the trajectory's sector layout and serves
    every block.  Every rho passes the checks of a FieldDensityMatrix,
    else ValidationError naming the first bad row by its index in the
    trajectory.
    """
    reduce = _reducer(traj.sectors)
    rows = max(1, BLOCK_ENTRIES // (max(traj.sectors) + 1) ** 2)
    for first in range(0, len(traj.amplitudes), rows):
        rhos = reduce(traj.amplitudes[first:first + rows], first)
        _check_rhos(rhos, first)
        yield first, rhos


def photon_probabilities(rho: FieldDensityMatrix) -> np.ndarray:
    """P(nu) for nu = 0..nu_max; sums to the trace."""
    return np.real(np.diag(rho.rho)).copy()


def photon_weights(state: SystemState) -> np.ndarray:
    """P(nu) for nu = 0..nu_max of a state, without its reduced field.

    P(nu) is the sum of |a|^2 over the basis states with photon number nu:
    the diagonal of ``reduce_field(state)`` up to summation order.  The
    checks of a FieldDensityMatrix that bear on the diagonal still apply:
    a non-finite amplitude or a total weight off 1 by more than 1e-6 raises
    ValidationError.
    """
    nus, weights = [], []
    for basis, amps in state.sectors.values():
        nus.extend(s.nu for s in basis.states)
        weights.append(np.abs(amps) ** 2)
    p = np.bincount(nus, np.concatenate(weights), minlength=state.nu_max + 1)
    total = float(p.sum())
    if not abs(total - 1.0) <= 1e-6:   # NaN and inf fail too
        raise ValidationError(f"photon weights sum to {total}, not 1")
    return p


def linear_entropy(rho: FieldDensityMatrix) -> float:
    """S_L = 1 - Tr(rho^2); zero iff pure."""
    return float(linear_entropies(rho.rho[None])[0])


def linear_entropies(rhos: np.ndarray) -> np.ndarray:
    """S_L of every rho of a (T, d, d) stack, as from ``reduce_fields``."""
    return 1.0 - np.sum(np.abs(rhos) ** 2, axis=(1, 2))


# ------------------------------------------------------------------
# Husimi function
# ------------------------------------------------------------------

def _coherent_overlaps(
    rho_r: np.ndarray, phi: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """Table c[nu, g] = <nu|alpha_g> for alpha = rho_r e^{i phi} on the
    photon numbers ``rows`` (ascending), shape (rows[-1] + 1, G).

    Each row nu is contiguous.  The phases are the powers z^nu of
    z = e^{i phi}, one cos/sin pair per point and then one complex
    multiply per row, for every nu up to rows[-1].  Only the rows in
    ``rows`` are scaled by their magnitudes, each from one real exp of
    nu ln(rho_r) - lnGamma(nu+1)/2 - rho_r^2/2, the log domain keeping
    large nu and large radius from overflowing; the other rows hold bare
    phases and must not be read.
    """
    dim = int(rows[-1]) + 1
    log_r = np.log(rho_r, out=np.zeros_like(rho_r), where=rho_r > 0.0)
    half_r2 = 0.5 * rho_r ** 2
    # at the origin only the vacuum overlap survives
    zero = np.flatnonzero(rho_r == 0.0)
    c = np.empty((dim, len(rho_r)), dtype=complex)
    c[0] = 1.0
    if dim > 1:
        c[1].real = np.cos(phi)
        c[1].imag = np.sin(phi)
    for n in range(2, dim):
        np.multiply(c[n - 1], c[1], out=c[n])
    mag = np.empty_like(rho_r)
    for n in rows:
        np.multiply(n, log_r, out=mag)
        mag -= 0.5 * math.lgamma(n + 1)
        mag -= half_r2
        np.exp(mag, out=mag)
        if n > 0:
            mag[zero] = 0.0
        c[n].real *= mag
        c[n].imag *= mag
    return c


Fields = Union[FieldDensityMatrix, Sequence[FieldDensityMatrix]]


def check_overlaps(points: int, dim: int) -> None:
    """Refuse, with ValidationError, a coherent-overlap table of ``points``
    times ``dim`` (nu_max + 1) entries that passes MAX_OVERLAPS."""
    if points * dim > MAX_OVERLAPS:
        raise ValidationError(
            f"{points} points at nu_max = {dim - 1} need more than "
            f"{MAX_OVERLAPS} coherent-state overlaps"
        )


def husimi_values(rho: Fields, rho_r, phi) -> np.ndarray:
    """Q = <alpha|rho|alpha>/pi at arbitrary polar points (vectorized).

    ``rho`` is one FieldDensityMatrix, or a batch: a sequence of them of
    one dimension.  A batch shares one coherent-overlap table, and its Q
    gets a leading axis whose f-th entry is, bit for bit, the lone call on
    rho[f].  The table carries magnitudes only on the support of the
    batch, the photon numbers whose row of (the Hermitian part of) some
    rho holds a nonzero entry: the only rows the sum reads.  Q is bit for
    bit what the whole table gives.

    Radii must be finite and non-negative and angles finite, else
    ValidationError.  So is an empty batch or one of unequal dimensions,
    and so are a coherent-overlap table of more than MAX_OVERLAPS entries
    (points times nu_max + 1) and a batch of more than MAX_OVERLAPS Q
    values, both refused before they are allocated.
    """
    rho_r = np.atleast_1d(np.asarray(rho_r, dtype=float))
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    if rho_r.shape != phi.shape:
        raise ValidationError("rho_r and phi must have matching shapes")
    if not (np.isfinite(rho_r).all() and np.isfinite(phi).all()):
        raise ValidationError("radius and angle must be finite")
    if np.any(rho_r < 0):
        raise ValidationError("radius must be non-negative")
    lone = isinstance(rho, FieldDensityMatrix)
    fields = [rho] if lone else list(rho)
    if not fields:
        raise ValidationError("need at least one field")
    dims = sorted({len(f.rho) for f in fields})
    if len(dims) > 1:
        raise ValidationError(f"a batch needs fields of one dimension, got {dims}")
    check_overlaps(rho_r.size, dims[0])
    if len(fields) * rho_r.size > MAX_OVERLAPS:
        raise ValidationError(
            f"{len(fields)} fields at {rho_r.size} points make more than "
            f"{MAX_OVERLAPS} Q values"
        )
    # Re <alpha|rho|alpha> only sees the Hermitian part of rho
    parts = [0.5 * (field.rho + field.rho.conj().T) for field in fields]
    # the stripe loop reads the overlaps of the rows of nonzero entries only
    support = np.flatnonzero(np.any([r != 0 for r in parts], axis=(0, 1)))
    c = _coherent_overlaps(rho_r.ravel(), phi.ravel(), support)
    q = np.empty((len(fields), c.shape[1]))
    total = np.empty(c.shape[1], dtype=complex)
    term = np.empty_like(total)
    for r, out in zip(parts, q):
        # Q pi = sum_i rho_ii |c_i|^2 + 2 Re sum_{k>=1} sum_i rho_{i,i+k} conj(c_i) c_{i+k},
        # one pass per diagonal k of rho and one row product per nonzero
        # entry, so a two-sector state costs two passes.  The products stay
        # elementwise: with a BLAS contraction (c.conj() @ rho) the %.17g
        # formatting of the frames that follows ran about 35 % slower, which
        # ate the whole gain; OpenBLAS worker threads are the suspect.
        total.fill(0.0)
        for k in range(len(r)):
            stripe = np.diagonal(r, k)
            for i in np.flatnonzero(stripe):
                np.conjugate(c[i], out=term)
                term *= c[i + k]
                term *= stripe[i] if k == 0 else 2.0 * stripe[i]
                total += term
        np.divide(total.real, math.pi, out=out)
    return q.reshape(rho_r.shape if lone else (len(fields),) + rho_r.shape)


def husimi(
    rho: Fields,
    grid: Optional[Tuple[Tuple[float, float, int], Tuple[float, float, int]]] = None,
) -> HusimiGrid:
    """Evaluate Q on a rectangular (q, p) grid; default −6..6, 241 points.

    ``rho`` is one field or a batch, as for :func:`husimi_values`: a
    batch's values are (F, n_p, n_q), from one set of points and one
    overlap table.
    """
    (qmin, qmax, n_q), (pmin, pmax, n_p) = grid if grid is not None else DEFAULT_GRID
    if n_q < 2 or n_p < 2:
        raise ValidationError("grid needs at least 2 points per axis")
    if not all(math.isfinite(x) for x in (qmin, qmax, pmin, pmax)):
        raise ValidationError(f"grid range must be finite, got {grid}")
    qs = np.linspace(qmin, qmax, int(n_q))
    ps = np.linspace(pmin, pmax, int(n_p))
    qm, pm = np.meshgrid(qs, ps)
    alpha = (qm + 1j * pm) / math.sqrt(2.0)
    values = husimi_values(rho, np.abs(alpha), np.angle(alpha))
    return HusimiGrid(
        q_range=(float(qmin), float(qmax)),
        p_range=(float(pmin), float(pmax)),
        n_q=int(n_q),
        n_p=int(n_p),
        values=values,
    )


def husimi_two_fock(nu1: int, nu2: int, theta: float, xi: float, rho_r, phi):
    """Closed-form Q of cos(theta)|nu1> + e^{i xi} sin(theta)|nu2>.

    (e^{-r^2}/pi) [cos^2 t r^{2 nu1}/nu1! + sin^2 t r^{2 nu2}/nu2!
                   + sin 2t r^{nu1+nu2} cos((nu2-nu1) phi - xi)/sqrt(nu1! nu2!)]

    Vectorized over (rho_r, phi); scalar in, scalar out.
    """
    if nu1 == nu2:
        raise ValidationError("need two distinct photon numbers")
    if nu1 < 0 or nu2 < 0:
        raise ValidationError("photon numbers must be non-negative")
    rho_arr = np.asarray(rho_r, dtype=float)
    if np.any(rho_arr < 0):
        raise ValidationError("radius must be non-negative")
    scalar = rho_arr.ndim == 0 and np.asarray(phi).ndim == 0
    rho_arr = np.atleast_1d(rho_arr)
    phi_arr = np.atleast_1d(np.asarray(phi, dtype=float))
    rho_arr, phi_arr = np.broadcast_arrays(rho_arr, phi_arr)

    lg1, lg2 = math.lgamma(nu1 + 1), math.lgamma(nu2 + 1)
    log_r = np.log(rho_arr, out=np.zeros_like(rho_arr), where=rho_arr > 0.0)

    def power(k: float, lg: float):
        # rho^k e^{-rho^2} / normalizer, safely through the log domain
        vals = np.exp(k * log_r - rho_arr ** 2 - lg)
        if k > 0:
            vals = np.where(rho_arr == 0.0, 0.0, vals)
        return vals

    ct, st = math.cos(theta), math.sin(theta)
    out = (
        ct * ct * power(2 * nu1, lg1)
        + st * st * power(2 * nu2, lg2)
        + 2.0 * ct * st
        * power(nu1 + nu2, 0.5 * (lg1 + lg2))
        * np.cos((nu2 - nu1) * phi_arr - xi)
    ) / math.pi
    return float(out[()] if out.ndim == 0 else out[0]) if scalar else out


# ------------------------------------------------------------------
# cyclic symmetry
# ------------------------------------------------------------------

def detect_cyclic_symmetry(
    rho: FieldDensityMatrix, tol: float = COHERENCE_TOL
) -> SymmetryReport:
    """Certify the point symmetry of Q from the coherence support of rho.

    The order is gcd{|nu - nu'| : |rho[nu, nu']| > tol}; every Husimi term
    carries e^{i phi (nu - nu')}, so Q is invariant under rotation by
    2 pi / order exactly.  The residual is measured directly on a fixed
    random sample of points (no grid rotation, no interpolation), as Q of
    rho against Q of rho rotated by 2 pi / order in one batch, so identical
    inputs give identical reports.  Raises ValidationError for ``tol < 0``.
    """
    if not tol >= 0:
        raise ValidationError(f"need tol >= 0, got {tol}")
    r = rho.rho
    # |rho| by np.hypot, the libm hypot of the scalar abs: numpy's vectorised
    # complex abs differs from it in the last bit, enough to cross tol
    modulus = np.hypot(r.real, r.imag)
    diffs = [
        k for k in range(1, len(r))
        if np.any(np.diagonal(modulus, k) > tol)
        or np.any(np.diagonal(modulus, -k) > tol)
    ]
    order = 0
    for d in diffs:
        order = math.gcd(order, d)

    rng = np.random.default_rng(_RESIDUAL_SEED)
    rad = rng.uniform(0.0, 6.0, _RESIDUAL_SAMPLES)
    ang = rng.uniform(0.0, 2.0 * math.pi, _RESIDUAL_SAMPLES)
    if order >= 1:
        # Q of D rho D^dag, D = diag(e^{-i nu 2pi/n}), is Q of rho turned by
        # 2pi/n, so both halves share the points and one overlap table
        d = np.exp(-1j * (2.0 * math.pi / order) * np.arange(len(r)))
        turned = FieldDensityMatrix(rho=d[:, None] * r * d.conj()[None, :])
        q1, q2 = husimi_values((rho, turned), rad, ang)
    else:
        ang2 = rng.uniform(0.0, 2.0 * math.pi, _RESIDUAL_SAMPLES)
        q1 = husimi_values(rho, rad, ang)
        q2 = husimi_values(rho, rad, ang2)
    residual = float(np.max(np.abs(q1 - q2)))
    return SymmetryReport(
        order=order,
        support_differences=tuple(diffs),
        max_residual=residual,
        tol=tol,
    )
