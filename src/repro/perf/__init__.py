"""Performance instrumentation for the exact fast paths.

The classification/recording hot loop (Figure 1) has a layered fast
path — see ``docs/API.md`` ("Performance architecture"):

- **Tier 1 — validity short-circuit**: a linear-time automaton
  validation replaces the span DP for conforming documents.  Section
  3.1 of the paper grounds this: for the global measure, fullness
  coincides with validity, so a valid document scores exactly 1.0.
- **Tier 2 — structural interning cache**: matcher results are keyed by
  ``(declaration, mode, fingerprint)`` where the fingerprint is a
  Merkle-style hash of the element subtree
  (:meth:`repro.xmltree.document.Element.structure_info`), so identical
  subtrees across a document *stream* cost one DP run total.
- **Tier 3 — pruned ranking**: the classifier evaluates DTDs
  best-upper-bound-first and skips any DTD whose bound cannot beat the
  current best.

After an evolution, the **pruned drain** skips repository documents
whose sound upper bound against the evolved DTD stays below ``sigma``,
without constructing evaluations (see ``docs/API.md``, "The pruned
drain").

One switch governs them all: the ``fastpath`` flag of
:class:`~repro.core.engine.XMLSource`,
:class:`~repro.classification.classifier.Classifier` and
:class:`~repro.similarity.matcher.StructureMatcher` (``True`` by
default; ``False`` is the reference path).  All fast paths are
semantics-preserving: similarities, classification decisions and
evolved DTDs are bit-identical either way (asserted by
``tests/test_fastpath.py`` and ``tests/test_evolution_incremental.py``).
:class:`PerfCounters` proves at runtime that the fast paths actually
fire, and its :meth:`~PerfCounters.timer` facility
(:data:`TIMER_NAMES`) reports wall-clock phase timings for the
evolution phases (mine / build / rewrite / restrict) and the drain.
"""

from repro.perf.counters import COUNTER_NAMES, TIMER_NAMES, PerfCounters

__all__ = ["COUNTER_NAMES", "TIMER_NAMES", "PerfCounters"]
