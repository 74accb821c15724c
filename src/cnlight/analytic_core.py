"""Closed-form one-atom results.

Everything in this module lives in a single excitation sector of a single
atom, spanned (in this fixed order) by

    |1> = |m - lambda3; 100>,   |2> = |m - lambda2; 110>,   |3> = |m; 111>,

and is valid under the solvable detuning condition of the configuration
(see ``AtomicConfig.has_analytic_detuning``).  With

    E(cal) = sqrt((Delta/2)^2 + Omega_x^2)

each sector reduces to a driven two-level block plus one uncoupled (dark)
direction, which is what makes the spectra, eigenvectors, propagators and
entropies expressible in elementary functions.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import Tuple

import numpy as np

from .errors import (
    DegenerateSectorError,
    DetuningConditionError,
    DomainError,
    SectorTooSmallError,
    ValidationError,
)
from .hilbert import AtomicConfig, Kind

__all__ = [
    "Branch",
    "StepSpectrum",
    "DressedState",
    "PropagatorMatrix",
    "rabi_frequency",
    "step_spectrum",
    "dressed_states",
    "dressed_linear_entropy",
    "propagator",
    "evolve_ground_analytic",
    "switching_time",
    "balanced_coupling",
    "balanced_detuning_residual",
]


class Branch(str, Enum):
    PLUS = "plus"
    ZERO = "zero"
    MINUS = "minus"


@dataclass(frozen=True)
class StepSpectrum:
    """Energies of one excitation step (units of hbar*Omega).

    ``e_zero`` is the label energy ``m`` of the uncoupled branch.  For the
    ladder and lambda configurations this is exact at any allowed detuning;
    for a detuned v configuration the dark eigenvector actually carries the
    detuning (eigenvalue ``m + delta12``) and coincides with ``m`` only on
    resonance.
    """

    m: int
    omega_x: float
    cal_e: float
    delta_x: float
    e_plus: float
    e_zero: float
    e_minus: float


@dataclass(frozen=True)
class DressedState:
    """Sector eigenvector: branch label, amplitudes, true eigenvalue."""

    branch: Branch
    amps: np.ndarray
    energy: float


@dataclass(frozen=True)
class PropagatorMatrix:
    """Full propagator u = exp(-i*m*tau) * U_I(tau) on the ordered sector."""

    tau: float
    u: np.ndarray


def _require_condition(config: AtomicConfig) -> None:
    if not config.has_analytic_detuning:
        raise DetuningConditionError(
            f"closed forms need the solvable detuning condition for "
            f"{config.kind.value} (residual "
            f"{config.detuning_condition_residual():g})"
        )


def _require_sector(config: AtomicConfig, m: int) -> None:
    # All closed forms involve sqrt(m) and, for the ladder, sqrt(m-1) with
    # weight mu23; m = 1 is fine there (the weight vanishes), m = 0 is not.
    if m < 1:
        raise SectorTooSmallError(
            f"one-atom closed forms need m >= 1, got m={m}"
        )


def _config_detuning(config: AtomicConfig) -> float:
    """The single detuning Delta_x surviving the solvable condition."""
    return config.delta13 if config.kind is Kind.LAMBDA else config.delta12


def _coupling_pair(config: AtomicConfig, m: int) -> Tuple[float, float]:
    """sqrt-weighted couplings (a, b) of the bright two-level block.

    Ladder: a = sqrt(m-1)*mu23 (|1>-|2|) and b = sqrt(m)*mu12 (|2>-|3>).
    V:      a = sqrt(m)*mu13 (|1>-|3>) and b = sqrt(m)*mu12 (|2>-|3>).
    Lambda: a = sqrt(m)*mu23 (|1>-|2>) and b = sqrt(m)*mu13 (|1>-|3>).
    """
    if config.kind is Kind.XI:
        return math.sqrt(m - 1) * config.mu23, math.sqrt(m) * config.mu12
    if config.kind is Kind.V:
        return math.sqrt(m) * config.mu13, math.sqrt(m) * config.mu12
    return math.sqrt(m) * config.mu23, math.sqrt(m) * config.mu13


def rabi_frequency(config: AtomicConfig, m: int) -> float:
    """Collective flopping frequency Omega_x of sector ``m``.

    Omega_Xi     = sqrt(m*mu12^2 + (m-1)*mu23^2)
    Omega_V      = sqrt(m*(mu12^2 + mu13^2))
    Omega_Lambda = sqrt(m*(mu13^2 + mu23^2))
    """
    _require_sector(config, m)
    a, b = _coupling_pair(config, m)
    return math.hypot(a, b)


def step_spectrum(config: AtomicConfig, m: int) -> StepSpectrum:
    """Step energies e_pm = m + Delta_x/2 +- E(cal), e_zero = m."""
    _require_condition(config)
    _require_sector(config, m)
    omega_x = rabi_frequency(config, m)
    delta_x = _config_detuning(config)
    cal_e = math.hypot(delta_x / 2.0, omega_x)
    return StepSpectrum(
        m=m,
        omega_x=omega_x,
        cal_e=cal_e,
        delta_x=delta_x,
        e_plus=m + delta_x / 2.0 + cal_e,
        e_zero=float(m),
        e_minus=m + delta_x / 2.0 - cal_e,
    )


def dressed_states(
    config: AtomicConfig, m: int
) -> Tuple[DressedState, DressedState, DressedState]:
    """Sector eigenvectors (psi_plus, psi_zero, psi_minus).

    Branch labels follow the closed-form expressions, not energy sorting,
    so they stay stable when the zero branch crosses at finite detuning.
    The m = 1 ladder sector keeps the formulas as written: the sqrt(m-1)
    weights vanish and the zero branch degenerates onto the first slot.
    """
    _require_condition(config)
    _require_sector(config, m)
    a, b = _coupling_pair(config, m)
    omega_x = math.hypot(a, b)
    if omega_x == 0.0:
        raise DegenerateSectorError(
            "dressed branches are degenerate when every coupling vanishes"
        )
    delta = _config_detuning(config)
    cal_e = math.hypot(delta / 2.0, omega_x)
    kind = config.kind

    if kind is Kind.XI:
        zero = np.array([-b, 0.0, a]) / omega_x
        e_zero = float(m)
    elif kind is Kind.V:
        zero = np.array([-config.mu12, config.mu13, 0.0])
        zero /= math.hypot(config.mu12, config.mu13)
        e_zero = m + delta  # the dark direction carries the detuning
    else:
        zero = np.array([0.0, -config.mu13, config.mu23])
        zero /= math.hypot(config.mu13, config.mu23)
        e_zero = float(m)

    states = []
    for sign in (+1.0, -1.0):
        lam = delta / 2.0 + sign * cal_e
        if kind is Kind.XI:
            v = np.array([a, -lam, b])
        elif kind is Kind.V:
            # for the minus branch lam < 0 flips the bright components
            v = np.array([-sign * a, -sign * b, cal_e - sign * delta / 2.0])
        else:
            v = np.array([-lam, a, b])
        v /= np.linalg.norm(v)
        branch = Branch.PLUS if sign > 0 else Branch.MINUS
        states.append(
            DressedState(
                branch=branch,
                amps=v.astype(complex),
                energy=m + delta / 2.0 + sign * cal_e,
            )
        )

    plus, minus = states
    zero_state = DressedState(
        branch=Branch.ZERO, amps=zero.astype(complex), energy=e_zero
    )
    return plus, zero_state, minus


def dressed_linear_entropy(config: AtomicConfig, branch: Branch, m: int) -> float:
    """Linear entropy 1 - Tr(rho_F^2) of a dressed state's field reduction.

    Closed forms, with E = E(cal) and Delta the surviving detuning:

    ladder: S0 = 2*m*(m-1)*mu12^2*mu23^2 / Omega^4,
            S+- = 1 - [ (m-1)^2 mu23^4 + m^2 mu12^4 + (Delta/2 +- E)^4 ]
                      / (E^4 (2 +- Delta/E)^2);
    v:      S0 = 0,
            S+- = 1 - [ m^2 (mu12^2+mu13^2)^2 + (E -+ Delta/2)^4 ]
                      / (E^4 (2 -+ Delta/E)^2);
    lambda: S0 = 0 and the v form with mu12 -> mu13, mu13 -> mu23 and
            Delta -> -Delta.

    On resonance the +- branches of v and lambda give exactly 1/2.
    """
    _require_condition(config)
    _require_sector(config, m)
    branch = Branch(branch)
    a, b = _coupling_pair(config, m)
    omega2 = a * a + b * b
    if omega2 == 0.0:
        raise DegenerateSectorError(
            "dressed branches are degenerate when every coupling vanishes"
        )
    delta = _config_detuning(config)
    cal_e = math.hypot(delta / 2.0, math.sqrt(omega2))

    if branch is Branch.ZERO:
        if config.kind is Kind.XI:
            return 2.0 * (a * b) ** 2 / omega2**2
        return 0.0

    sign = +1.0 if branch is Branch.PLUS else -1.0
    if config.kind is Kind.XI:
        # photon weights a^2, (Delta/2 + sign*E)^2, b^2 on three distinct nu
        quartic = a**4 + b**4 + (delta / 2.0 + sign * cal_e) ** 4
        denom = (cal_e**2 * (2.0 + sign * delta / cal_e)) ** 2
    else:
        # bright pair shares one photon number: weights Omega^2 and
        # (E -+ Delta/2)^2 on two distinct nu; the detuning enters with
        # opposite sign for v and lambda
        sv = -sign if config.kind is Kind.V else sign
        quartic = omega2**2 + (cal_e + sv * delta / 2.0) ** 4
        denom = (cal_e**2 * (2.0 + sv * delta / cal_e)) ** 2
    return 1.0 - quartic / denom


def propagator(config: AtomicConfig, m: int, tau: float) -> PropagatorMatrix:
    """Closed-form propagator exp(-i*m*tau) * U_I(tau) on the sector basis.

    U_I is complex symmetric (the interaction-picture generator is real
    symmetric), so only the upper triangle is written out.
    """
    if not math.isfinite(tau):
        raise ValidationError(f"propagator needs a finite tau, got {tau}")
    _require_condition(config)
    _require_sector(config, m)
    a, b = _coupling_pair(config, m)
    omega2 = a * a + b * b
    if omega2 == 0.0:
        raise DegenerateSectorError(
            "closed-form propagator needs a nonzero coupling"
        )
    delta = _config_detuning(config)
    cal_e = math.hypot(delta / 2.0, math.sqrt(omega2))

    half = cmath.exp(-0.5j * delta * tau)
    c = math.cos(cal_e * tau)
    sn = math.sin(cal_e * tau) / cal_e
    plus = half * (c + 0.5j * delta * sn)   # bright-block diagonal, one sign
    minus = half * (c - 0.5j * delta * sn)  # ... and the other
    s = 1j * sn * half                      # bright off-diagonal / coupling

    u = np.empty((3, 3), dtype=complex)
    if config.kind is Kind.XI:
        u[0, 0] = (b * b + a * a * plus) / omega2
        u[0, 1] = a * s
        u[0, 2] = a * b * (plus - 1.0) / omega2
        u[1, 1] = minus
        u[1, 2] = b * s
        u[2, 2] = (a * a + b * b * plus) / omega2
    elif config.kind is Kind.V:
        dark = cmath.exp(-1j * delta * tau)  # dark eigenvalue is Delta
        u[0, 0] = (a * a * minus + b * b * dark) / omega2
        u[0, 1] = a * b * (minus - dark) / omega2
        u[0, 2] = a * s
        u[1, 1] = (b * b * minus + a * a * dark) / omega2
        u[1, 2] = b * s
        u[2, 2] = plus
    else:
        u[0, 0] = minus
        u[0, 1] = a * s
        u[0, 2] = b * s
        u[1, 1] = (a * a * plus + b * b) / omega2
        u[1, 2] = a * b * (plus - 1.0) / omega2
        u[2, 2] = (b * b * plus + a * a) / omega2
    u[1, 0] = u[0, 1]
    u[2, 0] = u[0, 2]
    u[2, 1] = u[1, 2]
    u *= cmath.exp(-1j * m * tau)
    return PropagatorMatrix(tau=tau, u=u)


def evolve_ground_analytic(
    config: AtomicConfig, nu0: int, tau: float
) -> np.ndarray:
    """Amplitudes of an atom entering in its ground state with nu0 photons.

    Returns ``(U_13, U_23, U_33)`` of the full propagator: the amplitudes of
    ``|nu0 - lambda3; 100>``, ``|nu0 - lambda2; 110>`` and ``|nu0; 111>``.
    """
    if nu0 < config.lambda3:
        raise SectorTooSmallError(
            f"need nu0 >= {config.lambda3} so all three sector kets exist, "
            f"got nu0={nu0}"
        )
    return propagator(config, nu0, tau).u[:, 2].copy()


def switching_time(config: AtomicConfig, nu0: int, n: int = 1) -> float:
    """Earliest times at which the intermediate photon amplitude vanishes.

    For the ladder configuration the amplitude of nu0 - 1 photons is
    proportional to sin(E*tau), so it has zeros at t_s = n*pi/E.
    """
    if config.kind is not Kind.XI:
        raise ValidationError(
            "switching times are defined for the ladder (xi) configuration"
        )
    if n < 1:
        raise ValidationError(f"zero index n must be >= 1, got {n}")
    _require_condition(config)
    spec = step_spectrum(config, nu0)
    return n * math.pi / spec.cal_e


def balanced_coupling(nu0: int, mu23: float, sign: int) -> float:
    """mu12 making the end probabilities equal at the switching time.

    On resonance P(nu0-2, t_s) = P(nu0, t_s) when

        mu12 = (sqrt(2) +- 1) * sqrt((nu0-1)/nu0) * mu23.
    """
    if nu0 < 2:
        raise ValidationError(f"need nu0 >= 2, got {nu0}")
    if mu23 <= 0:
        raise ValidationError(f"need mu23 > 0, got {mu23}")
    if sign not in (+1, -1):
        raise ValidationError(f"sign must be +1 or -1, got {sign!r}")
    return (math.sqrt(2.0) + sign) * math.sqrt((nu0 - 1) / nu0) * mu23


def balanced_detuning_residual(
    nu0: int, mu12: float, mu23: float, delta12: float
) -> float:
    """Residual of the off-resonance balance condition at the switching time.

    Returns LHS - RHS of

        cos(Delta12*pi / sqrt(4*nu0*(mu12^2+mu23^2) + Delta12^2 - 4*mu23^2))
            = (nu0*mu12^2 - (nu0-1)*mu23^2)^2
              / (4*nu0*(nu0-1)*mu12^2*mu23^2),

    so a root in Delta12 balances P(nu0-2, t_s) and P(nu0, t_s).
    """
    if nu0 < 2:
        raise ValidationError(f"need nu0 >= 2, got {nu0}")
    if mu12 <= 0 or mu23 <= 0:
        raise ValidationError("both couplings must be positive")
    radicand = 4 * nu0 * (mu12**2 + mu23**2) + delta12**2 - 4 * mu23**2
    if radicand <= 0:
        raise DomainError(
            f"balance condition needs a positive radicand, got {radicand:g}"
        )
    lhs = math.cos(delta12 * math.pi / math.sqrt(radicand))
    rhs = (nu0 * mu12**2 - (nu0 - 1) * mu23**2) ** 2 / (
        4.0 * nu0 * (nu0 - 1) * mu12**2 * mu23**2
    )
    return lhs - rhs
