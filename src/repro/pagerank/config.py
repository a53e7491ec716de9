"""PageRank solver configuration.

The paper uses the classic formulation (its eq. 1)

    PR(v) = alpha / |V| + (1 - alpha) * sum_{u in Γ-(v)} PR(u) / |Γ+(u)|

where ``alpha`` is the **teleportation probability** (so the damping factor
of the Brin–Page formulation is ``1 - alpha``).  Mass sent to dangling
vertices (``|Γ+(u)| = 0``) is dropped in the literal equation; setting
``dangling="uniform"`` redistributes it uniformly over the active vertex
set instead, which makes the vector sum to exactly 1 and is what most
production implementations do.  ``"uniform"`` is the default: the paper's
partial initialization (eq. 4) renormalizes the warm-start vector to unit
mass, which only matches the fixed point's scale when dangling mass is
redistributed — under ``"drop"`` the scale mismatch erases the warm-start
benefit entirely.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ValidationError

__all__ = ["PagerankConfig"]

_DANGLING_MODES = ("drop", "uniform")


@dataclass(frozen=True)
class PagerankConfig:
    """Parameters shared by every PageRank kernel in the library.

    Attributes
    ----------
    alpha:
        Teleportation probability in (0, 1).  The paper's eq. 1; 0.15
        corresponds to the classic 0.85 damping factor.
    tolerance:
        L1 convergence threshold on successive iterates.
    max_iterations:
        Hard iteration cap (the paper notes implementations "execute a
        fixed number of iterations at most").
    dangling:
        ``"uniform"`` (redistribute dangling mass uniformly over active
        vertices; the default — see module docstring) or ``"drop"``
        (paper eq. 1 literal).
    strict:
        When True, kernels raise :class:`~repro.errors.ConvergenceError`
        instead of returning a non-converged result.
    """

    alpha: float = 0.15
    tolerance: float = 1e-8
    max_iterations: int = 100
    dangling: str = "uniform"
    strict: bool = False

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 1.0):
            raise ValidationError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.tolerance <= 0:
            raise ValidationError(
                f"tolerance must be > 0, got {self.tolerance}"
            )
        if self.max_iterations <= 0:
            raise ValidationError(
                f"max_iterations must be > 0, got {self.max_iterations}"
            )
        if self.dangling not in _DANGLING_MODES:
            raise ValidationError(
                f"dangling must be one of {_DANGLING_MODES}, "
                f"got {self.dangling!r}"
            )

    @property
    def damping(self) -> float:
        """The Brin–Page damping factor ``1 - alpha``."""
        return 1.0 - self.alpha
