"""Phase model of a single integrate-and-fire oscillator with concave rise.

Every oscillator carries a phase theta in [0, 1) that grows at unit rate.
Its membrane-like state is ``rise(theta)``, a concave, strictly increasing
profile normalized to rise(0) = 0 and rise(1) = 1, with one steepness
parameter ``b > 0``.  Receiving a pulse of strength ``delta`` advances the
state additively and maps back to phase space:

    jump(theta, delta) = rise_inv(rise(theta) + delta)

which collapses to the affine form  e^(b*delta) * theta + const, so repeated
receptions compose by adding their strengths.  A reception whose jump would
exceed phase 1 makes the oscillator fire; ``trigger_threshold`` gives the
lowest phase at which a pulse of multiplicity m does that.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

#: The largest rise steepness b whose expm1(b), the denominator of every
#: jump coefficient, is a finite double: ln(DBL_MAX) = 709.782712893384.
_B_MAX = math.log(sys.float_info.max)


class DomainError(ValueError):
    """A phase-model argument left its admissible domain."""


@dataclass(frozen=True)
class ModelParams:
    """Network-level parameters shared by all oscillators.

    b        steepness of the concave rise profile (must be > 0 and at
             most _B_MAX, past which expm1(b) overflows)
    eps      total coupling strength a firing oscillator delivers, split
             evenly over the n-1 receivers (must be >= 0)
    n        number of oscillators (>= 2)
    tau      pulse propagation delay (>= 0)
    """

    b: float
    eps: float
    n: int = 3
    tau: float = 0.0
    # cached affine coefficients of jump_m for m = 1 and m = 2, see _affine()
    _a1: float = field(init=False, repr=False, compare=False)
    _c1: float = field(init=False, repr=False, compare=False)
    _a2: float = field(init=False, repr=False, compare=False)
    _c2: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (self.b > 0.0) or not math.isfinite(self.b):
            raise DomainError(f"rise steepness b must be positive and finite, got {self.b}")
        if self.b > _B_MAX:
            raise DomainError(
                f"rise steepness b must be at most {_B_MAX!r}, where expm1(b) overflows, "
                f"got {self.b}"
            )
        if self.eps < 0.0 or not math.isfinite(self.eps):
            raise DomainError(f"coupling eps must be finite and non-negative, got {self.eps}")
        if self.n < 2:
            raise DomainError(f"need at least two oscillators, got n={self.n}")
        if self.tau < 0.0 or not math.isfinite(self.tau):
            raise DomainError(f"delay tau must be finite and non-negative, got {self.tau}")
        e1 = self.eps_hat
        for m in (1, 2):
            a, c = _affine(self.b, m * e1)
            object.__setattr__(self, f"_a{m}", a)
            object.__setattr__(self, f"_c{m}", c)

    @property
    def eps_hat(self) -> float:
        """Per-receiver pulse strength eps/(n-1)."""
        return self.eps / (self.n - 1)


def rise(params: ModelParams, theta: float) -> float:
    """Concave rise profile: (1/b) * ln(1 + (e^b - 1) * theta).

    Fixed endpoints rise(0) = 0 and rise(1) = 1 for every b.
    """
    if theta < 0.0:
        raise DomainError(f"phase must be >= 0, got {theta}")
    return math.log1p(math.expm1(params.b) * theta) / params.b


def rise_inv(params: ModelParams, x: float) -> float:
    """Inverse of the rise profile: (e^(b*x) - 1) / (e^b - 1)."""
    if x < 0.0:
        raise DomainError(f"rise value must be >= 0, got {x}")
    return math.expm1(params.b * x) / math.expm1(params.b)


def jump(params: ModelParams, theta: float, delta: float) -> float:
    """Post-reception phase for a pulse of strength delta (un-clamped).

    jump(theta, delta) = rise_inv(rise(theta) + delta)
                       = e^(b*delta) * theta + (e^(b*delta) - 1)/(e^b - 1)

    The value may exceed 1; the event engine clamps to 1 and fires.  Strictly
    increasing in theta, and jumps compose additively in delta.
    """
    if theta < 0.0:
        raise DomainError(f"phase must be >= 0, got {theta}")
    if delta < 0.0:
        raise DomainError(f"pulse strength must be >= 0, got {delta}")
    a, c = _affine(params.b, delta)
    return a * theta + c


def _affine(b: float, delta: float) -> tuple[float, float]:
    """jump's affine coefficients for strength delta, rounded the one way
    that jump, jump_m and jump_coeffs all share; where exp(b * delta)
    overflows, delta > 1 (b <= _B_MAX), so (0, 1): phase 1 from any phase."""
    if b * delta > _B_MAX:
        return 0.0, 1.0
    return math.exp(b * delta), math.expm1(b * delta) / math.expm1(b)


def jump_m(params: ModelParams, theta: float, m: int) -> float:
    """Post-reception phase for m simultaneous unit pulses (strength m*eps_hat),
    as a * theta + c with jump_coeffs' coefficients."""
    if m < 1:
        raise DomainError(f"pulse multiplicity must be >= 1, got {m}")
    if theta < 0.0:
        raise DomainError(f"phase must be >= 0, got {theta}")
    a, c = jump_coeffs(params, m)
    return a * theta + c


def jump_coeffs(params: ModelParams, m: int = 1) -> tuple[float, float]:
    """Affine coefficients (a, c) with jump_m(theta, m) = a * theta + c and
    jump(theta, m * eps_hat) = the same value; m = 1 and m = 2 are cached
    on the params."""
    if m == 1:
        return params._a1, params._c1
    if m == 2:
        return params._a2, params._c2
    return _affine(params.b, m * params.eps_hat)


def response(params: ModelParams, theta: float, delta: float) -> float:
    """Phase advance caused by a pulse of strength delta: jump - theta.

    Non-negative, and strictly increasing in theta for delta > 0 (excitatory
    coupling advances late phases more).
    """
    return jump(params, theta, delta) - theta


def trigger_threshold(params: ModelParams, m: int = 1) -> float:
    """Lowest phase from which m simultaneous unit pulses reach threshold.

    Solves jump_m(theta, m) = 1, giving (e^(b*x) - 1)/(e^b - 1) with
    x = 1 - m*eps_hat: the closed form of rise_inv(x), evaluated directly
    because x may be negative.  A reception of multiplicity m fires the
    receiver iff its phase is >= this value.  The value is <= 1, equals 1
    when eps = 0, and goes negative once m*eps_hat exceeds 1 (any reception
    fires anyone).
    """
    if m < 1:
        raise DomainError(f"pulse multiplicity must be >= 1, got {m}")
    return math.expm1(params.b * (1.0 - m * params.eps_hat)) / math.expm1(params.b)
