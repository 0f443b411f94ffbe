"""The RbSyn synthesis engine.

The engine mirrors the three components of the paper's algorithm:

* **type-guided synthesis** (:mod:`repro.synth.enumerate`) fills typed holes
  with constants, variables and method calls whose return type fits;
* **effect-guided synthesis** (:mod:`repro.synth.effect_guided`) reacts to
  failed spec assertions by inserting effect holes and filling them with
  calls whose write effect covers the assertion's read effect;
* **merging** (:mod:`repro.synth.merge`) combines per-spec solutions into a
  single branching method, synthesizing branch conditions and simplifying
  with the rewrite rules of Figure 6 / Figure 13, using a SAT-based
  implication check (:mod:`repro.synth.sat`, :mod:`repro.synth.implication`).

:mod:`repro.synth.search` implements the work-list of Algorithm 2 and
:mod:`repro.synth.synthesizer` ties everything together behind
:func:`~repro.synth.synthesizer.run_synthesis`.

The public entry point is :class:`~repro.synth.session.SynthesisSession`: a
context-managed engine owning the evaluation memo
(:mod:`repro.synth.cache`), the snapshot managers
(:mod:`repro.synth.state`), the base config and an optional persistent
spec-outcome store (:mod:`repro.synth.store`).  ``session.run`` synthesizes
one problem and ``session.sweep`` drives the evaluation harnesses.  See
``docs/API.md``.
"""

from repro.synth.cache import CacheStats, SynthCache
from repro.synth.config import SynthConfig
from repro.synth.dsl import define
from repro.synth.goal import Spec, SpecContext, SynthesisProblem, evaluate_spec
from repro.synth.parallel import ParallelExecutor, run_synthesis_parallel
from repro.synth.session import SweepEntry, SynthesisSession
from repro.synth.state import (
    NondeterministicSetupError,
    StateManager,
    StateStats,
)
from repro.synth.store import SpecOutcomeStore, StoreStats
from repro.synth.synthesizer import SynthesisResult, run_synthesis

__all__ = [
    "CacheStats",
    "SynthCache",
    "SynthConfig",
    "define",
    "Spec",
    "SpecContext",
    "SynthesisProblem",
    "evaluate_spec",
    "NondeterministicSetupError",
    "StateManager",
    "StateStats",
    "SpecOutcomeStore",
    "StoreStats",
    "ParallelExecutor",
    "run_synthesis_parallel",
    "SweepEntry",
    "SynthesisSession",
    "SynthesisResult",
    "run_synthesis",
]
