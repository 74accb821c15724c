"""Field reductions, photon statistics, Husimi functions, symmetry reports.

Everything here consumes either a multi-sector ``SystemState`` or the
reduced field density matrix obtained from one.  The reduction traces out
the matter labels (q, r): within a sector every basis state carries a
distinct photon number, so sector-diagonal blocks contribute only to the
diagonal of rho_F, while cross-sector terms land on the stripe
|nu - nu'| = |M - M'| picked out by shared (q, r) labels.  That stripe
structure is what makes the cyclic order of a state detectable by a gcd.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

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
    "photon_probabilities",
    "linear_entropy",
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
        if not np.all(np.isfinite(rho)):
            raise ValidationError("rho has a non-finite entry")
        herm = float(np.max(np.abs(rho - rho.conj().T))) if rho.size else 0.0
        if herm > 1e-8:
            raise ValidationError(f"rho is not Hermitian (asymmetry {herm:.3g})")
        tr = float(np.real(np.trace(rho)))
        if abs(tr - 1.0) > 1e-6:
            raise ValidationError(f"rho trace {tr} is not 1")

    @property
    def nu_max(self) -> int:
        return self.rho.shape[0] - 1

    @property
    def trace(self) -> float:
        return float(np.real(np.trace(self.rho)))

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.rho)[0])


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
    """|psi><psi| for psi = sum of c_nu |nu> from {nu: c_nu}, normalised."""
    vec = np.zeros(max(amplitudes) + 1, dtype=complex)
    for nu, amp in amplitudes.items():
        vec[nu] = amp
    vec /= np.linalg.norm(vec)
    return FieldDensityMatrix(rho=np.outer(vec, vec.conj()))


def reduce_field(state: SystemState) -> FieldDensityMatrix:
    """Trace out the matter labels of a (normalized) multi-sector state."""
    nu_max = max(state.sectors)
    rho = np.zeros((nu_max + 1, nu_max + 1), dtype=complex)
    # per sector: matter label -> (photon number, amplitude)
    tagged = []
    for _, (basis, amps) in sorted(state.sectors.items()):
        tagged.append({
            (s.q, s.r): (s.nu, amps[i]) for i, s in enumerate(basis.states)
        })
    for d1 in tagged:
        for d2 in tagged:
            for qr, (nu1, a1) in d1.items():
                hit = d2.get(qr)
                if hit is not None:
                    nu2, a2 = hit
                    rho[nu1, nu2] += a1 * np.conj(a2)
    return FieldDensityMatrix(rho=rho)


def photon_probabilities(rho: FieldDensityMatrix) -> np.ndarray:
    """P(nu) for nu = 0..nu_max; sums to the trace."""
    return np.real(np.diag(rho.rho)).copy()


def linear_entropy(rho: FieldDensityMatrix) -> float:
    """S_L = 1 - Tr(rho^2); zero iff pure."""
    r = rho.rho
    return float(1.0 - np.sum(np.abs(r) ** 2))


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
