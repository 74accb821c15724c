"""Configurations, basis states, and fixed-excitation sectors.

A single cavity mode (frequency ``Omega``, fixed to 1 so that time is the
dimensionless ``tau = Omega * t``) couples to ``na`` identical 3-level atoms.
The level connectivity comes in three flavours, named after the shape the
allowed transitions draw in a level diagram:

* ``xi`` (ladder): 1-2 and 2-3 allowed,
* ``v``: 1-2 and 1-3 allowed,
* ``lambda``: 1-3 and 2-3 allowed.

Within the rotating-wave approximation the operator

    M = a^dag a + lambda2 * A22 + lambda3 * A33

commutes with the Hamiltonian; its integer eigenvalue ``m`` labels dynamically
closed sectors.  The weights ``(lambda2, lambda3)`` count the excitation cost
of parking an atom in level 2 or 3 and depend only on the connectivity:
(1, 2) for the ladder, (1, 1) for ``v``, (0, 1) for ``lambda``.

The symmetric matter states are labelled ``|na q r>`` with
``0 <= r <= q <= na``; the level populations are ``(n1, n2, n3) =
(r, q - r, na - q)``.  A sector basis collects every ``|nu> x |na q r>``
with non-negative photon number ``nu = m - lambda2*(q-r) - lambda3*(na-q)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Tuple

from .errors import ValidationError

__all__ = [
    "Kind",
    "AtomicConfig",
    "BasisState",
    "SectorBasis",
    "build_sector_basis",
    "excitation_number",
    "sector_dimension",
]

#: detuning-condition tolerance used by the closed-form branch
CONDITION_TOL = 1e-12


class Kind(str, Enum):
    """Level connectivity of the 3-level atom."""

    XI = "xi"
    V = "v"
    LAMBDA = "lambda"


_EXCITATION_WEIGHTS = {
    Kind.XI: (1, 2),
    Kind.V: (1, 1),
    Kind.LAMBDA: (0, 1),
}

_FORBIDDEN_COUPLING = {
    Kind.XI: "mu13",
    Kind.V: "mu23",
    Kind.LAMBDA: "mu12",
}


@dataclass(frozen=True)
class AtomicConfig:
    """Immutable description of the atom species and its couplings.

    Couplings ``mu12, mu13, mu23`` are dimensionless strengths (units of
    ``hbar * Omega``); detunings ``delta12, delta13, delta23`` are in units
    of ``Omega``.  The coupling forbidden by the connectivity must stay 0.

    Args:
        kind: level connectivity (``Kind`` or its string value).
        mu12, mu13, mu23: pairwise coupling strengths.
        delta12, delta13, delta23: detunings of the 2-1, 3-1 and 3-2
            transitions from the respective resonance.
        omega: cavity frequency; fixed to 1 by the dimensionless units.
    """

    kind: Kind
    mu12: float = 0.0
    mu13: float = 0.0
    mu23: float = 0.0
    delta12: float = 0.0
    delta13: float = 0.0
    delta23: float = 0.0
    omega: float = field(default=1.0)

    def __post_init__(self) -> None:
        kind = Kind(self.kind)
        object.__setattr__(self, "kind", kind)
        if self.omega != 1.0:
            raise ValidationError("omega is fixed to 1 (dimensionless time)")
        for name in ("mu12", "mu13", "mu23", "delta12", "delta13", "delta23"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(
                    f"need a finite {name}, got {getattr(self, name)!r}"
                )
        forbidden = _FORBIDDEN_COUPLING[kind]
        if getattr(self, forbidden) != 0.0:
            raise ValidationError(
                f"{kind.value}-configuration forbids a {forbidden} coupling "
                f"(got {getattr(self, forbidden)!r})"
            )

    @property
    def lambda2(self) -> int:
        """Excitation weight of level 2."""
        return _EXCITATION_WEIGHTS[self.kind][0]

    @property
    def lambda3(self) -> int:
        """Excitation weight of level 3."""
        return _EXCITATION_WEIGHTS[self.kind][1]

    @property
    def level_frequencies(self) -> Tuple[float, float, float]:
        """Atomic level frequencies ``(omega1, omega2, omega3)``.

        Only differences enter the dynamics, so ``omega1 = 0``.  The other
        two follow from the cavity frequency and the detunings:

        * ladder: ``omega2 = Omega + delta12``,
          ``omega3 = 2*Omega + delta12 + delta23``;
        * v: ``omega2 = Omega + delta12``, ``omega3 = Omega + delta13``;
        * lambda: ``omega3 = Omega + delta13``,
          ``omega2 = delta13 - delta23`` (level 2 sits near level 1, offset
          so that the 3-2 transition is detuned by ``delta23``).
        """
        o = self.omega
        if self.kind is Kind.XI:
            return (0.0, o + self.delta12, 2 * o + self.delta12 + self.delta23)
        if self.kind is Kind.V:
            return (0.0, o + self.delta12, o + self.delta13)
        return (0.0, self.delta13 - self.delta23, o + self.delta13)

    def detuning_condition_residual(self) -> float:
        """Distance from the detuning condition of the closed-form branch.

        Zero means the sector Hamiltonian is solvable in closed form:
        ``delta12 + delta23 = 0`` (ladder), ``delta12 - delta13 = 0`` (v),
        ``delta13 - delta23 = 0`` (lambda).
        """
        if self.kind is Kind.XI:
            return self.delta12 + self.delta23
        if self.kind is Kind.V:
            return self.delta12 - self.delta13
        return self.delta13 - self.delta23

    @property
    def has_analytic_detuning(self) -> bool:
        """True when the closed-form detuning condition holds."""
        return abs(self.detuning_condition_residual()) <= CONDITION_TOL


@dataclass(frozen=True, order=True)
class BasisState:
    """One product ket ``|nu> x |na q r>``.

    ``q`` and ``r`` label the symmetric matter states; the populations of
    the three levels are ``(r, q - r, na - q)``.
    """

    nu: int
    na: int
    q: int
    r: int

    def __post_init__(self) -> None:
        if not (0 <= self.r <= self.q <= self.na):
            raise ValidationError(
                f"need 0 <= r <= q <= na, got (q, r, na) = "
                f"({self.q}, {self.r}, {self.na})"
            )
        if self.nu < 0:
            raise ValidationError(f"photon number must be >= 0, got {self.nu}")

    @property
    def populations(self) -> Tuple[int, int, int]:
        """Occupation numbers ``(n1, n2, n3)`` of the three atomic levels."""
        return (self.r, self.q - self.r, self.na - self.q)


def excitation_number(config: AtomicConfig, s: BasisState) -> int:
    """Total excitation number ``nu + lambda2*(q-r) + lambda3*(na-q)``."""
    return s.nu + config.lambda2 * (s.q - s.r) + config.lambda3 * (s.na - s.q)


def sector_dimension(na: int) -> int:
    """Dimension of a full sector: ``(na+1)(na+2)/2`` symmetric states."""
    return (na + 1) * (na + 2) // 2


@dataclass(frozen=True)
class SectorBasis:
    """Ordered basis of the fixed-excitation sector ``m``.

    States are enumerated in lexicographically increasing ``(q, r)``; for a
    single atom this yields the conventional ordering ``|m - lambda3; 100>``,
    ``|m - lambda2; 110>``, ``|m; 111>``.
    """

    config: AtomicConfig
    na: int
    m: int
    states: Tuple[BasisState, ...]

    def __len__(self) -> int:
        return len(self.states)

    @property
    def complete(self) -> bool:
        """Whether every ``(q, r)`` pair carries a non-negative photon number.

        Complete exactly when ``m >= lambda3 * na``; smaller sectors lose the
        states whose implied photon number would be negative.
        """
        return len(self.states) == sector_dimension(self.na)

    def index(self, q: int, r: int) -> int:
        """Position of the state with matter labels ``(q, r)``."""
        for i, s in enumerate(self.states):
            if s.q == q and s.r == r:
                return i
        raise KeyError(f"no state with (q, r) = ({q}, {r}) in sector m={self.m}")


def build_sector_basis(config: AtomicConfig, na: int, m: int) -> SectorBasis:
    """Enumerate the sector with total excitation number ``m``.

    Every ``(q, r)`` with ``0 <= r <= q <= na`` whose implied photon number
    ``nu = m - lambda2*(q-r) - lambda3*(na-q)`` is non-negative contributes
    one state.  An empty sector is legal (e.g. ``m = 0`` with weights that
    force ``nu < 0`` everywhere).
    """
    if na < 1:
        raise ValidationError(f"need at least one atom, got na={na}")
    if m < 0:
        raise ValidationError(f"excitation number must be >= 0, got m={m}")
    l2, l3 = config.lambda2, config.lambda3
    states = []
    for q in range(na + 1):
        for r in range(q + 1):
            nu = m - l2 * (q - r) - l3 * (na - q)
            if nu >= 0:
                states.append(BasisState(nu=nu, na=na, q=q, r=r))
    return SectorBasis(config=config, na=na, m=m, states=tuple(states))
