"""Field reductions, photon statistics, Husimi functions, symmetry reports.

Everything here consumes either a multi-sector ``SystemState`` or the
reduced field density matrix obtained from one.  The reduction traces out
the matter labels (q, r): within a sector every basis state carries a
distinct photon number, so sector-diagonal blocks contribute only to the
diagonal of rho_F, while cross-sector terms land on the stripe
|nu - nu'| = |M - M'| picked out by shared (q, r) labels.  That stripe
structure is what makes the cyclic order of a state detectable by a gcd.

Which pairs of stacked basis states share (q, r) depends only on the
sector bases, so the reduction is one gather of a_i conj(a_j) over that
pair list and one scatter-add onto rho.  ``reduce_fields`` does this for
every snapshot of a trajectory in one array pass and runs the checks of
``FieldDensityMatrix`` over the whole stack; ``reduce_field`` is its
one-snapshot case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from .errors import ValidationError
from .dynamics import SystemState

__all__ = [
    "FieldDensityMatrix",
    "HusimiGrid",
    "SymmetryReport",
    "DEFAULT_GRID",
    "pure_field",
    "reduce_field",
    "reduce_fields",
    "photon_probabilities",
    "linear_entropy",
    "linear_entropies",
    "husimi",
    "husimi_values",
    "husimi_two_fock",
    "detect_cyclic_symmetry",
]

# quadrature window and resolution used when no grid is requested
DEFAULT_GRID = ((-6.0, 6.0, 241), (-6.0, 6.0, 241))

COHERENCE_TOL = 1e-10
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
        _check_rhos(rho[None])

    @property
    def nu_max(self) -> int:
        return self.rho.shape[0] - 1

    @property
    def trace(self) -> float:
        return float(np.real(np.trace(self.rho)))

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.rho)[0])


def _check_rhos(rhos: np.ndarray) -> None:
    """The checks of a FieldDensityMatrix, run at once over a (T, d, d) stack.

    Every rho must be finite, Hermitian to 1e-8 and of trace 1 to 1e-6.
    A failure in a stack of several names the first offending row.
    """
    def refuse(bad: np.ndarray, why: Callable[[int], str]) -> None:
        k = int(np.argmax(bad))
        row = f" {k}" if len(rhos) > 1 else ""
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

    ``values[i, j]`` is Q at (q_values[j], p_values[i]).
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

    def normalization(self) -> float:
        """Riemann sum of Q dq dp / 2 (the coherent-state measure)."""
        dq = (self.q_range[1] - self.q_range[0]) / (self.n_q - 1)
        dp = (self.p_range[1] - self.p_range[0]) / (self.n_p - 1)
        return float(np.sum(self.values) * dq * dp / 2.0)


@dataclass(frozen=True)
class SymmetryReport:
    """Detected cyclic order of a field state.

    order 0 encodes a diagonal rho, i.e. full (continuous) rotational
    symmetry of Q.  For order n >= 1 the residual is the worst
    |Q(rho_r, phi + 2pi/n) - Q(rho_r, phi)| over the sampled points; for
    order 0 the two angles of each pair are drawn independently.
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


def _amplitude_rows(states: Sequence[SystemState]):
    """Field dimension, sector bases in label order and the (T, N) array of
    the states' stacked amplitudes.

    Every state must have the sectors of the first, on the same bases, and
    finite amplitudes.
    """
    if not states:
        raise ValidationError("need at least one state")
    sectors = states[0].sectors
    if not sectors:
        raise ValidationError("state has no sectors")
    if any(s.sectors.keys() != sectors.keys() for s in states):
        raise ValidationError("states of one stack must share their sectors")
    bases, blocks = [], []
    for m in sorted(sectors):
        basis = sectors[m][0]
        column = [s.sectors[m] for s in states]
        if any(b is not basis and b.states != basis.states for b, _ in column):
            raise ValidationError("states of one stack must share their bases")
        bases.append(basis)
        blocks.append(np.array([a for _, a in column], dtype=complex))
    rows = np.concatenate(blocks, axis=1)
    if not np.isfinite(rows).all():
        k = int(np.argmin(np.isfinite(rows).all(axis=1)))
        raise ValidationError(f"state {k} has a non-finite amplitude")
    return max(sectors) + 1, bases, rows


def _pair_list(dim: int, bases):
    """Gather and scatter indices of the reduction on stacked ``bases``.

    Returns the pairs (i, j) of stacked basis states that share their
    matter labels (q, r), grouped by the flat rho entry nu_i * dim + nu_j
    they land on (in the order of sector pairs, then basis order, within
    a group), the start of each group, and each group's entry.
    """
    tagged, offset = [], 0
    for b in bases:
        tagged.append(
            {(s.q, s.r): (offset + k, s.nu) for k, s in enumerate(b.states)}
        )
        offset += len(b)
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


def _reduce(dim: int, bases, rows: np.ndarray) -> np.ndarray:
    """Unchecked reduced fields, (T, dim, dim), of amplitude rows on ``bases``.

    One gather of a_i conj(a_j) over the pair list and one scatter-add of
    each group onto its rho entry serve every row at once.
    """
    gather_i, gather_j, starts, entries = _pair_list(dim, bases)
    prods = rows.take(gather_i, axis=1) * rows.take(gather_j, axis=1).conj()
    rhos = np.zeros((len(rows), dim * dim), dtype=complex)
    rhos[:, entries] = np.add.reduceat(prods, starts, axis=1)
    return rhos.reshape(len(rows), dim, dim)


def reduce_field(state: SystemState) -> FieldDensityMatrix:
    """Trace out the matter labels of a (normalized) multi-sector state."""
    return FieldDensityMatrix(rho=_reduce(*_amplitude_rows([state]))[0])


def reduce_fields(states: Sequence[SystemState]) -> np.ndarray:
    """Reduced field rho of every state, stacked as (T, nu_max + 1, nu_max + 1).

    The states must share their sector bases, as the snapshots of one
    trajectory do; the pair list is then built once for all of them.
    Every rho passes the checks of a FieldDensityMatrix, else
    ValidationError.
    """
    rhos = _reduce(*_amplitude_rows(states))
    _check_rhos(rhos)
    return rhos


def photon_probabilities(rho: FieldDensityMatrix) -> np.ndarray:
    """P(nu) for nu = 0..nu_max; sums to the trace."""
    return np.real(np.diag(rho.rho)).copy()


def linear_entropy(rho: FieldDensityMatrix) -> float:
    """S_L = 1 - Tr(rho^2); zero iff pure."""
    return float(linear_entropies(rho.rho[None])[0])


def linear_entropies(rhos: np.ndarray) -> np.ndarray:
    """S_L of every rho of a (T, d, d) stack, as from ``reduce_fields``."""
    return 1.0 - np.sum(np.abs(rhos) ** 2, axis=(1, 2))


# ------------------------------------------------------------------
# Husimi function
# ------------------------------------------------------------------

def _coherent_overlaps(rho_r: np.ndarray, phi: np.ndarray, dim: int) -> np.ndarray:
    """Matrix c[g, nu] = <nu|alpha_g> for alpha = rho_r e^{i phi}.

    Log-domain evaluation exp(nu ln(rho_r) - lnGamma(nu+1)/2 - rho_r^2/2)
    keeps large nu and large radius from overflowing.
    """
    nu = np.arange(dim)
    lg = np.array([math.lgamma(n + 1) for n in nu])
    rho_r = np.asarray(rho_r, dtype=float)
    log_r = np.log(rho_r, out=np.zeros_like(rho_r), where=rho_r > 0.0)
    log_mag = (
        nu[None, :] * log_r[:, None]
        - 0.5 * lg[None, :]
        - 0.5 * rho_r[:, None] ** 2
    )
    c = np.exp(log_mag) * np.exp(1j * nu[None, :] * phi[:, None])
    # at the origin only the vacuum overlap survives
    zero = rho_r == 0.0
    if np.any(zero):
        c[zero, :] = 0.0
        c[zero, 0] = 1.0
    return c


def husimi_values(rho: FieldDensityMatrix, rho_r, phi) -> np.ndarray:
    """Q = <alpha|rho|alpha>/pi at arbitrary polar points (vectorized)."""
    rho_r = np.atleast_1d(np.asarray(rho_r, dtype=float))
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    if rho_r.shape != phi.shape:
        raise ValidationError("rho_r and phi must have matching shapes")
    if np.any(rho_r < 0):
        raise ValidationError("radius must be non-negative")
    c = _coherent_overlaps(rho_r.ravel(), phi.ravel(), rho.nu_max + 1)
    q = np.einsum("gi,ij,gj->g", c.conj(), rho.rho, c).real / math.pi
    return q.reshape(rho_r.shape)


def husimi(
    rho: FieldDensityMatrix,
    grid: Optional[Tuple[Tuple[float, float, int], Tuple[float, float, int]]] = None,
) -> HusimiGrid:
    """Evaluate Q on a rectangular (q, p) grid; default −6..6, 241 points."""
    (qmin, qmax, n_q), (pmin, pmax, n_p) = grid if grid is not None else DEFAULT_GRID
    if n_q < 2 or n_p < 2:
        raise ValidationError("grid needs at least 2 points per axis")
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
    2 pi / order exactly.  The residual is measured directly at exactly
    paired angles (no grid rotation, no interpolation) on a fixed random
    sample, so identical inputs give identical reports.  Raises
    ValidationError for ``tol < 0``.
    """
    if not tol >= 0:
        raise ValidationError(f"need tol >= 0, got {tol}")
    r = rho.rho
    n = r.shape[0]
    diffs = sorted({
        abs(i - j)
        for i in range(n)
        for j in range(n)
        if i != j and abs(r[i, j]) > tol
    })
    order = 0
    for d in diffs:
        order = math.gcd(order, d)

    rng = np.random.default_rng(_RESIDUAL_SEED)
    rad = rng.uniform(0.0, 6.0, _RESIDUAL_SAMPLES)
    ang = rng.uniform(0.0, 2.0 * math.pi, _RESIDUAL_SAMPLES)
    if order >= 1:
        ang2 = ang + 2.0 * math.pi / order
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
