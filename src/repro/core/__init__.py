"""The paper's primary contribution: incremental DTD evolution.

Modules, following the phases of Figure 1:

- :mod:`repro.core.extended_dtd` — the extended DTD: per-declaration
  aggregate structures filled by the recording phase (Section 3.2);
- :mod:`repro.core.recorder` — the recording phase (Section 3);
- :mod:`repro.core.windows` — invalidity ratios, the activation
  condition (check phase) and the old/misc/new windows (Section 4.1);
- :mod:`repro.core.restriction` — restriction of operators in the old
  window (Section 4.1);
- :mod:`repro.core.policies` — the 13 heuristic policies + 3 basic
  policies (Section 4.2, Appendix A);
- :mod:`repro.core.structure_builder` — exhaustive policy application
  rebuilding an element's declaration (new window);
- :mod:`repro.core.evolution` — the evolution phase over a whole DTD;
- :mod:`repro.core.engine` — the end-to-end source, which runs the loop
  (classify → record → check → evolve → re-classify repository) and
  announces each phase on a :mod:`repro.pipeline` event bus.
"""

from repro.core.extended_dtd import ExtendedDTD, ElementRecord, ValidLabelStats, PlusLabelStats
from repro.core.recorder import Recorder
from repro.core.windows import Window, classify_window, invalidity_ratio, activation_score
from repro.core.restriction import restrict_operators
from repro.core.policies import Policy, EvolutionContext, default_policies, basic_policies
from repro.core.structure_builder import build_structure
from repro.core.evolution import EvolutionConfig, EvolutionResult, ElementAction, evolve_dtd
from repro.core.engine import XMLSource, ProcessOutcome, EvolutionEvent

__all__ = [
    "ExtendedDTD",
    "ElementRecord",
    "ValidLabelStats",
    "PlusLabelStats",
    "Recorder",
    "Window",
    "classify_window",
    "invalidity_ratio",
    "activation_score",
    "restrict_operators",
    "Policy",
    "EvolutionContext",
    "default_policies",
    "basic_policies",
    "build_structure",
    "EvolutionConfig",
    "EvolutionResult",
    "ElementAction",
    "evolve_dtd",
    "XMLSource",
    "ProcessOutcome",
    "EvolutionEvent",
]
