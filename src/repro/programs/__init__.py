"""Temporal vertex programs: the engine every analytic runs on.

The package splits into the abstraction (:mod:`repro.programs.base`), the
registry (:mod:`repro.programs.registry` — lazy so name validation is
import-cheap), the chain engine (:mod:`repro.programs.engine`) and the
first-class programs (``pagerank`` / ``katz`` / ``kcore`` /
``components``).  Concrete program modules are imported on demand by
:func:`make_program`, keeping this package's import light and cycle-free
with the model drivers.  Custom analytics subclass :class:`VertexProgram`
and run anywhere a program name is accepted.
"""

from repro.programs.base import VertexProgram
from repro.programs.registry import (
    PROGRAMS,
    make_program,
    resolve_program,
    validate_program_name,
)

__all__ = [
    "VertexProgram",
    "PROGRAMS",
    "make_program",
    "resolve_program",
    "validate_program_name",
]
