"""Two-level Rabi dynamics under a small constant detuning.

The deviation from resonant dynamics,
    deltaP = sin^2(omega t / 2) - P_e(Delta, t),
is negative semidefinite at completed cycles and tiny for gravitational-wave
detunings, so the module carries cancellation-safe evaluations throughout:
the direct difference is rewritten with sin^2 A - sin^2 B = sin(A+B) sin(A-B)
below DETUNING_RATIO_SERIES_THRESHOLD, and completed-cycle sampling reduces
the phase analytically instead of trusting a floating-point multiple of pi.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, field
from typing import Iterator

from . import constants
from .distortion import Strain
from .transitions import DetuningResult, TransitionSpec, transition_detuning

__all__ = [
    "RabiConfig",
    "DeviationSeries",
    "Regime",
    "excited_probability",
    "deviation_exact",
    "deviation_exact_at_cycles",
    "deviation_small_detuning",
    "deviation_short_time",
    "deviation_at_cycles",
    "figure2_config",
    "figure2_rows",
    "figure2_series",
    "DETUNING_RATIO_SERIES_THRESHOLD",
]

#: |Delta|/omega below which deviation_exact switches to the identity-based
#: cancellation-free form.  Both branches agree to ~1e-15 at the boundary.
DETUNING_RATIO_SERIES_THRESHOLD = 1e-6


class Regime(enum.Enum):
    SHORT_TIME = "short_time"
    LONG_TIME = "long_time"


@dataclass(frozen=True)
class RabiConfig:
    """Rabi frequency and detuning, both angular (rad/s)."""

    omega: float
    detuning: float = 0.0

    def __post_init__(self) -> None:
        if not self.omega > 0:
            raise ValueError(f"omega must be > 0, got {self.omega}")

    @property
    def ratio(self) -> float:
        return self.detuning / self.omega

    def regime(self, t: float) -> Regime:
        """short_time while t < pi omega / Delta^2, long_time after.

        A detuning whose square underflows to 0 is short_time throughout, as
        zero detuning is.
        """
        detuning_sq = self.detuning**2
        if detuning_sq == 0.0:
            return Regime.SHORT_TIME
        return Regime.SHORT_TIME if t < math.pi * self.omega / detuning_sq else Regime.LONG_TIME


@dataclass(frozen=True)
class DeviationSeries:
    """Deviation curves sampled at completed cycles."""

    abscissa: tuple[int, ...]  # cycle counts N
    at_cycles: tuple[float, ...]  # completed-cycle formula (N pi Delta^2 / 2 omega^2)^2
    exact: tuple[float, ...]  # signed exact deviation at t = 2 N pi / omega
    small_detuning: tuple[float, ...]
    short_time: tuple[float, ...]
    regime_flags: tuple[Regime, ...]
    config: RabiConfig = RabiConfig(omega=1.0)
    metadata: dict = field(default_factory=dict)


def excited_probability(cfg: RabiConfig, t: float) -> float:
    """P_e = omega^2/(Delta^2+omega^2) sin^2(sqrt(Delta^2+omega^2) t / 2)."""
    if t < 0:
        raise ValueError("t must be >= 0")
    g = math.hypot(cfg.omega, cfg.detuning)
    return (cfg.omega / g) ** 2 * math.sin(g * t / 2.0) ** 2


def _deviation_identity_form(x: float, phi: float) -> float:
    # deltaP = -sin(h) sin(2 phi + h) + x^2/(1+x^2) sin^2(phi sqrt(1+x^2))
    # with h = (sqrt(1+x^2) - 1) phi = x^2 phi / (1 + sqrt(1+x^2)); exact
    # rewrite of the direct difference, free of catastrophic cancellation
    s = math.sqrt(1.0 + x * x)
    h = x * x * phi / (1.0 + s)
    return -math.sin(h) * math.sin(2.0 * phi + h) + (x * x / (1.0 + x * x)) * math.sin(phi * s) ** 2


def deviation_exact(cfg: RabiConfig, t: float) -> float:
    """Signed deviation sin^2(omega t/2) - P_e(Delta, t)."""
    if t < 0:
        raise ValueError("t must be >= 0")
    if cfg.detuning == 0.0:
        return 0.0
    x = cfg.ratio
    phi = cfg.omega * t / 2.0
    if abs(x) < DETUNING_RATIO_SERIES_THRESHOLD:
        return _deviation_identity_form(x, phi)
    return math.sin(phi) ** 2 - excited_probability(cfg, t)


def deviation_exact_at_cycles(cfg: RabiConfig, n_cycles: int) -> float:
    """Exact deviation at t = 2 N pi / omega with the phase reduced analytically.

    At completed cycles the resonant term vanishes identically, leaving
    deltaP = -sin^2(h) / (1 + x^2), h = N pi x^2 / (1 + sqrt(1+x^2)).
    Evaluating through a floating-point t would bury h under the roundoff of
    N pi for gravitational-wave-scale detunings; this route never does.
    """
    if n_cycles < 0:
        raise ValueError("n_cycles must be >= 0")
    x = cfg.ratio
    s = math.sqrt(1.0 + x * x)
    h = n_cycles * math.pi * x * x / (1.0 + s)
    return -math.sin(h) ** 2 / (1.0 + x * x)


def deviation_small_detuning(cfg: RabiConfig, t: float) -> float:
    """Small-detuning approximation sin^2(wt/2) [1 - cos^2(Delta^2 t/4w)/(1+x^2)].

    The bracket is evaluated as (x^2 + sin^2(eps))/(1+x^2) to avoid the
    1 - cos^2 cancellation.  Warns outside its |Delta| <= 0.1 omega domain.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    x = cfg.ratio
    if abs(x) > 0.1:
        warnings.warn(
            f"small-detuning approximation called at |Delta|/omega = {abs(x):.3g} > 0.1",
            stacklevel=2,
        )
    phi = cfg.omega * t / 2.0
    eps = cfg.detuning**2 * t / (4.0 * cfg.omega)
    return math.sin(phi) ** 2 * (x * x + math.sin(eps) ** 2) / (1.0 + x * x)


def deviation_short_time(cfg: RabiConfig, t: float) -> float:
    """Short-time approximation (Delta^2 t / 4 omega)^2."""
    if t < 0:
        raise ValueError("t must be >= 0")
    return (cfg.detuning**2 * t / (4.0 * cfg.omega)) ** 2


def deviation_at_cycles(cfg: RabiConfig, n_cycles: int) -> float:
    """Completed-cycle deviation magnitude (N pi Delta^2 / 2 omega^2)^2."""
    if n_cycles < 0:
        raise ValueError("n_cycles must be >= 0")
    return (n_cycles * math.pi * cfg.ratio**2 / 2.0) ** 2


def figure2_config(
    transition: TransitionSpec,
    strain: Strain,
    omega: float,
    detuning: DetuningResult | None = None,
) -> tuple[RabiConfig, dict]:
    """Rabi configuration and metadata of a strained transition's figure-2 curve.

    `omega` is angular (rad/s); the detuning is derived from the transition's
    strain response, Delta = delta / hbar.
    """
    if detuning is None:
        detuning = transition_detuning(transition, strain)
    delta_hartree = detuning.slope * strain.s_p
    delta_angular = constants.hartree_to_rad_per_s(delta_hartree)
    cfg = RabiConfig(omega=omega, detuning=delta_angular)
    metadata = {
        "lower": str(transition.lower),
        "upper": str(transition.upper),
        "strain": strain.s_p,
        "omega_rad_s": omega,
        "detuning_slope_hartree": detuning.slope,
        "detuning_rad_s": delta_angular,
    }
    return cfg, metadata


def figure2_rows(
    cfg: RabiConfig, n_cycles_max: int
) -> Iterator[tuple[int, float, float, float, float, float, str]]:
    """Rows (n, t, at_cycles, exact, small_detuning, short_time, regime), n = 1..N.

    t = 2 pi n / omega.  The values are bit for bit those of
    deviation_at_cycles, deviation_exact_at_cycles, deviation_small_detuning,
    deviation_short_time and cfg.regime(t).value: each formula keeps its
    operation order, and only per-config constants are computed once.  Rows
    are made one at a time, so memory does not grow with N.

    Every error is raised by this call, never while iterating: each
    magnitude is monotone in n, so row N is evaluated first.  The
    small-detuning domain warning (|Delta|/omega > 0.1) is issued once,
    after that, and only when N >= 1.
    """
    if n_cycles_max < 0:
        raise ValueError("n_cycles_max must be >= 0")
    if n_cycles_max == 0:
        return iter(())
    sin, pi = math.sin, math.pi
    omega, detuning = cfg.omega, cfg.detuning
    x = cfg.ratio
    x_pow2 = x**2
    xx = x * x
    one_xx = 1.0 + xx
    one_s = 1.0 + math.sqrt(1.0 + xx)
    detuning_sq = detuning**2
    four_omega = 4.0 * omega
    two_pi = 2.0 * pi
    t_star = pi * omega / detuning_sq if detuning_sq != 0.0 else math.inf
    short, long = Regime.SHORT_TIME.value, Regime.LONG_TIME.value

    def rows(cycles):
        for n in cycles:
            n_pi = n * pi
            t = two_pi * n / omega
            eps = detuning_sq * t / four_omega
            yield (
                n, t,
                (n_pi * x_pow2 / 2.0) ** 2,
                -sin(n_pi * x * x / one_s) ** 2 / one_xx,
                sin(omega * t / 2.0) ** 2 * (xx + sin(eps) ** 2) / one_xx,
                eps**2,
                short if t < t_star else long,
            )

    next(rows((n_cycles_max,)))
    if abs(x) > 0.1:
        warnings.warn(
            f"small-detuning approximation called at |Delta|/omega = {abs(x):.3g} > 0.1",
            stacklevel=2,
        )
    return rows(range(1, n_cycles_max + 1))


def figure2_series(
    transition: TransitionSpec,
    strain: Strain,
    omega: float,
    n_cycles_max: int,
    detuning: DetuningResult | None = None,
) -> DeviationSeries:
    """Deviation-vs-completed-cycles curve for a strained transition.

    `omega` is angular (rad/s); the rows are those of figure2_rows.
    """
    if n_cycles_max < 0:
        raise ValueError("n_cycles_max must be >= 0")
    cfg, metadata = figure2_config(transition, strain, omega, detuning)
    rows = list(figure2_rows(cfg, n_cycles_max))
    cycles, _, at_cycles, exact, small, short, regimes = (
        tuple(zip(*rows)) if rows else ((),) * 7
    )
    return DeviationSeries(
        abscissa=cycles,
        at_cycles=at_cycles,
        exact=exact,
        small_detuning=small,
        short_time=short,
        regime_flags=tuple(map(Regime, regimes)),
        config=cfg,
        metadata=metadata,
    )
