"""Quasi-static CPU contention model (utilization-based).

The engine node exposes a fixed number of cores. The model tracks *actual*
core consumption: a CPU-bound task that would use ``w`` cores uncontended
and is slowed down by a factor ``I`` draws ``w / I`` cores for ``I`` times
as long — its CPU *work* (core-seconds) is invariant, as in real processor
sharing. This keeps the feedback loop stable and physical: utilization ρ can
approach but not meaningfully exceed 1, and the slowdown is a function of ρ::

    I(ρ) = 1 + c · ρⁿ / (1 - min(ρ, ρ_max))      (ρ ≤ 1)
    I(ρ) = I(ρ_max) · ρ ** κ                     (ρ > 1, defensive)

The Hill-type numerator ρⁿ keeps the slowdown ≈ 1 until high load, while the
``1/(1-ρ)`` pole makes it rise sharply toward saturation — the knee shape
measured on time-shared multicore nodes. ``c`` scales the effect, ``n``
controls how late the knee appears, ρ_max bounds the maximum slowdown so the
closed loop stays numerically stable.

The model is *quasi-static*: a task's slowdown is computed once, when it
starts, from the utilization at that instant. Over the paper's 23-minute
steady-state runs this approximates processor sharing closely while keeping
the event loop O(1) per event.
"""

from __future__ import annotations

from repro.utils.validation import check_in_range, check_positive

__all__ = ["CpuContentionModel", "inflation_factor"]


def inflation_factor(
    ratio: float,
    scale: float,
    sharpness: float,
    rho_max: float = 0.97,
    kappa: float = 1.5,
) -> float:
    """Service-time slowdown for a CPU utilization ``ratio``.

    Shared by the DES (:class:`CpuContentionModel`) and the analytic model
    (:class:`repro.engine.analytic.AnalyticEngineModel`) so the two stay in
    exact agreement on the contention curve.
    """
    ratio = min(ratio, 8.0)  # defensive clamp for analytic transients
    inflation = 1.0
    if scale != 0.0 and ratio > 0.0:
        rho = ratio if ratio < rho_max else rho_max
        inflation = 1.0 + scale * rho**sharpness / (1.0 - rho)
    if ratio > 1.0:
        inflation *= ratio**kappa
    return inflation


class CpuContentionModel:
    """Tracks actual core draw and converts utilization to slowdown."""

    __slots__ = (
        "cores",
        "scale",
        "sharpness",
        "rho_max",
        "kappa",
        "_demand",
        "_base_load",
        "_last_time",
        "_usage_integral",
    )

    def __init__(
        self,
        cores: float,
        *,
        base_load: float = 0.0,
        scale: float = 0.05,
        sharpness: float = 6.0,
        rho_max: float = 0.97,
        kappa: float = 1.5,
    ) -> None:
        self.cores = check_positive("cores", cores)
        if scale < 0:
            raise ValueError(f"scale must be >= 0, got {scale}")
        if sharpness < 0:
            raise ValueError(f"sharpness must be >= 0, got {sharpness}")
        self.scale = float(scale)
        self.sharpness = float(sharpness)
        self.rho_max = check_in_range("rho_max", rho_max, 0.0, 1.0, inclusive=False)
        if kappa < 1:
            raise ValueError(f"kappa must be >= 1, got {kappa}")
        self.kappa = float(kappa)
        if base_load < 0:
            raise ValueError("base_load must be >= 0")
        self._base_load = float(base_load)
        self._demand = float(base_load)
        self._last_time = 0.0
        self._usage_integral = 0.0

    @property
    def demand(self) -> float:
        """Current core draw (incl. base load: background + pool standby)."""
        return self._demand

    def usage(self) -> float:
        """Instantaneous CPU usage fraction in [0, 1]."""
        return min(1.0, self._demand / self.cores)

    def inflation(self) -> float:
        """Slowdown multiplier for CPU-bound work starting *now*.

        :func:`inflation_factor` with its arithmetic inlined: the DES asks
        this once per CPU stage, and every operation is the same, in the
        same order, so both return the same bits.
        """
        ratio = self._demand / self.cores
        if ratio > 8.0:
            ratio = 8.0
        inflation = 1.0
        scale = self.scale
        if scale != 0.0 and ratio > 0.0:
            rho_max = self.rho_max
            rho = ratio if ratio < rho_max else rho_max
            inflation = 1.0 + scale * rho**self.sharpness / (1.0 - rho)
        if ratio > 1.0:
            inflation *= ratio**self.kappa
        return inflation

    # -- draw bookkeeping --------------------------------------------------------
    # acquire/release inline _advance (integrate usage() up to ``now``).

    def acquire(self, draw: float, now: float) -> None:
        """A task drawing ``draw`` actual cores becomes active."""
        if draw < 0:
            raise ValueError("core draw must be >= 0")
        dt = now - self._last_time
        if dt > 0:
            usage = self._demand / self.cores
            self._usage_integral += (usage if usage < 1.0 else 1.0) * dt
            self._last_time = now
        self._demand += draw

    def release(self, draw: float, now: float) -> None:
        """A task drawing ``draw`` cores finished."""
        dt = now - self._last_time
        if dt > 0:
            usage = self._demand / self.cores
            self._usage_integral += (usage if usage < 1.0 else 1.0) * dt
            self._last_time = now
        demand = self._demand - draw
        base = self._base_load
        self._demand = demand if demand > base else base

    def _advance(self, now: float) -> None:
        dt = now - self._last_time
        if dt > 0:
            self._usage_integral += self.usage() * dt
            self._last_time = now

    # -- monitoring ----------------------------------------------------------------

    def usage_integral(self, now: float) -> float:
        """∫ usage dt up to ``now`` (for exact windowed averages)."""
        self._advance(now)
        return self._usage_integral

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CpuContentionModel(cores={self.cores}, demand={self._demand:.2f}, "
            f"usage={self.usage():.0%})"
        )
