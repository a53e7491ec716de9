"""Driver registry: one factory for the paper's three execution models.

``make_driver`` is the seam the CLI and the analysis layer share — both
used to hand-roll per-model construction; now the model name is data and
the construction is one call.  The kernel driver is not registered here
because it runs a *user-supplied* kernel rather than a model of the
paper's computation; it still satisfies the same ``ModelDriver`` contract.

Imports are lazy: the model packages import :mod:`repro.runtime`, so a
module-level import here would be circular.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.errors import ValidationError
from repro.events.event_set import TemporalEventSet
from repro.events.windows import WindowSpec
from repro.pagerank.config import PagerankConfig

__all__ = ["MODELS", "make_driver"]

#: the execution models of paper Section 3.3, in presentation order
MODELS: Tuple[str, ...] = ("offline", "streaming", "postmortem")


def make_driver(
    model: str,
    events: TemporalEventSet,
    spec: WindowSpec,
    config: Optional[PagerankConfig] = None,
    *,
    executor: str = "serial",
    n_workers: int = 4,
    program=None,
    postmortem_options=None,
):
    """Construct the driver for ``model`` against one event set and spec.

    ``executor`` goes to the offline and streaming drivers (streaming
    rejects all but ``"serial"``) and ``n_workers`` to offline;
    postmortem takes both from ``postmortem_options``, the model's tuning
    surface, which the other models ignore — deliberately, so one call
    site can pass a full configuration and let the model name select what
    matters.  ``program`` selects the vertex program every model driver
    runs (a registered name or a :class:`~repro.programs.base.
    VertexProgram` instance; ``None`` means the reference PageRank
    program).
    """
    if model not in MODELS:
        raise ValidationError(
            f"unknown model {model!r}; expected one of {MODELS}"
        )
    if config is None:
        config = PagerankConfig()

    if model == "offline":
        from repro.models.offline import OfflineDriver

        return OfflineDriver(
            events, spec, config, executor=executor, n_workers=n_workers,
            program=program,
        )
    if model == "streaming":
        from repro.streaming.driver import StreamingDriver

        return StreamingDriver(
            events, spec, config, executor=executor, program=program
        )

    from repro.models.postmortem import PostmortemDriver, PostmortemOptions

    if postmortem_options is None:
        postmortem_options = PostmortemOptions()
    return PostmortemDriver(
        events, spec, config, postmortem_options, program=program
    )
