"""Copy-on-write database snapshots for spec evaluation.

PR 1's memo removed *repeated* ``(program, spec)`` executions; this module
removes the state-rebuilding cost of the executions that remain.  Without it
every spec evaluation replays the problem's reset closure and the setup
block's seed inserts before the candidate program even runs -- exactly the
work the Section 4 observation says should *not* be the bottleneck (unique
program paths should be).

The :class:`StateManager` exploits that a spec's setup is deterministic up to
the ``ctx.invoke(...)`` call: everything before the invoke depends only on
the problem baseline, not on the candidate.  The first time a spec runs, the
manager *records* it --

* the database state right before the invoke (a copy-on-write
  :meth:`~repro.activerecord.database.Database.snapshot`),
* the invoke arguments, and
* the setup's scratch state (``ctx.state``, the @ivars the postcondition
  reads)

-- and every later evaluation of the same spec *replays* the recording: the
database is restored by cheap copy-on-write table swaps
(:meth:`~repro.activerecord.database.Database.restore`) and the candidate is
invoked directly, skipping the reset closure and the seed inserts entirely.
The problem baseline (the state the reset closure produces) is itself
snapshotted once, so even specs that cannot be replayed restore it without
re-running the closure.

Replay is only sound for setups whose observable behavior is fully captured
by the recording, so a recording is finalized only when the setup

* called ``ctx.invoke`` exactly once,
* performed no database writes after the invoke returned,
* wrote no ``ctx.state`` entries after the invoke, and
* passed no assertions of its own.

Anything else (or a setup that raised before completing) falls back to a full
reset+setup replay, preserving the seed semantics exactly; the fallback is
counted in :class:`StateStats` so the benchmarks can report it.  One class
of setup is inherently undetectable: pure control flow on the candidate's
result after the invoke (``x = ctx.invoke(a); if x is None: raise``) leaves
no observable trace during the recording pass, so such specs must not rely
on replay -- this is part of the determinism contract the ``database``
opt-in asserts, and the reason ``bench_state.py --check`` exists.  The
opt-in ``SynthConfig.verify_recordings`` debug mode audits that contract at
runtime: every Nth replay of a recorded spec re-runs the full reset+setup
under a fresh recorder and diffs what it captured against the recording,
raising :class:`NondeterministicSetupError` on divergence.  Restores and
rebuilds surface in ``SearchStats``/Table 1, and ``benchmarks/bench_state.py
--check`` gates on snapshot-on and snapshot-off runs synthesizing identical
programs.

Enabling the manager requires the problem to carry its ``database`` (see
``SynthesisProblem.database`` / ``define(..., database=...)``): handing the
database over asserts that the reset closure touches *only* that database
and that setups are deterministic.  Problems without a database keep the
legacy reset-every-time behavior.  Like the evaluation memo, the manager is
registered for invalidation: ``SynthesisProblem.invalidate_caches`` and
``rebind_reset`` drop the baseline and every recording.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Set, Tuple


if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.activerecord.database import Database
    from repro.synth.goal import Spec, SpecContext, SynthesisProblem


def _safely_equal(left: Any, right: Any) -> bool:
    """Equality that treats incomparable values as unequal, never raising."""

    try:
        return bool(left == right)
    except Exception:  # noqa: BLE001 - exotic __eq__ just opts out of replay
        return False


class NondeterministicSetupError(RuntimeError):
    """A ``verify_recordings`` pass caught a setup violating determinism.

    Raised when re-recording a spec's setup produced a different pre-invoke
    database snapshot, different invoke arguments or different scratch state
    than the stored recording -- i.e. the setup depends on something outside
    the problem baseline, breaking the ``define(..., database=...)`` replay
    contract.
    """


@dataclass
class StateStats:
    """Counters describing one :class:`StateManager`'s work."""

    #: Snapshot restores that replaced a full reset+setup replay.
    restores: int = 0
    #: Full reset+setup replays (recording passes and unreplayable specs).
    rebuilds: int = 0
    #: Snapshots captured (one baseline plus one per replayable spec).
    captures: int = 0
    #: Specs whose setup could not be recorded (they keep full replays).
    unreplayable: int = 0
    invalidations: int = 0
    #: ``verify_recordings`` passes that re-recorded a setup and found it
    #: deterministic (a mismatch raises instead of counting).
    verifications: int = 0
    #: Queries the manager's database answered through a hash index (see
    #: :class:`repro.activerecord.database.QueryStats`; pulled in by
    #: ``sync_query_stats``).
    index_hits: int = 0
    #: Queries that fell back to a full table scan.
    index_scans: int = 0

    def copy(self) -> "StateStats":
        return StateStats(**self.as_dict())

    def since(self, before: "StateStats") -> "StateStats":
        """The counter deltas accumulated after ``before`` was copied."""

        return StateStats(
            restores=self.restores - before.restores,
            rebuilds=self.rebuilds - before.rebuilds,
            captures=self.captures - before.captures,
            unreplayable=self.unreplayable - before.unreplayable,
            invalidations=self.invalidations - before.invalidations,
            verifications=self.verifications - before.verifications,
            index_hits=self.index_hits - before.index_hits,
            index_scans=self.index_scans - before.index_scans,
        )

    def as_dict(self) -> Dict[str, int]:
        return {
            "restores": self.restores,
            "rebuilds": self.rebuilds,
            "captures": self.captures,
            "unreplayable": self.unreplayable,
            "invalidations": self.invalidations,
            "verifications": self.verifications,
            "index_hits": self.index_hits,
            "index_scans": self.index_scans,
        }


@dataclass(frozen=True)
class SpecRecording:
    """What one spec's setup does, up to the candidate invocation."""

    #: Database state right before ``ctx.invoke`` ran (CoW snapshot).
    snapshot: Dict[str, Any]
    #: The arguments the setup passed to ``ctx.invoke`` (master copy;
    #: deep-copied again per replay so candidates cannot poison it).
    args: Tuple[Any, ...]
    #: ``ctx.state`` as of the invoke (master copy, deep-copied per replay).
    state: Dict[str, Any]


class _Recorder:
    """Observes one recording pass through a spec's setup.

    Attached to the :class:`~repro.synth.goal.SpecContext` of the pass;
    ``invoke`` and ``__setitem__`` call back into it so the manager can
    capture the pre-invoke state and detect setups replay cannot mimic.
    """

    __slots__ = (
        "database",
        "invokes",
        "snapshot",
        "args",
        "state",
        "post_snapshot",
        "state_written_after_invoke",
        "capture_failed",
    )

    def __init__(self, database: "Database") -> None:
        self.database = database
        self.invokes = 0
        self.snapshot: Optional[Dict[str, Any]] = None
        self.args: Optional[Tuple[Any, ...]] = None
        self.state: Optional[Dict[str, Any]] = None
        self.post_snapshot: Optional[Dict[str, Any]] = None
        self.state_written_after_invoke = False
        self.capture_failed = False

    def before_invoke(self, ctx: "SpecContext", args: Tuple[Any, ...]) -> None:
        self.invokes += 1
        if self.invokes != 1:
            return
        try:
            # Captured before the candidate runs, so the recording depends
            # only on the spec -- never on the program being evaluated.
            # State and args are copied jointly so objects shared between
            # them (e.g. a model both stashed and passed in) keep their
            # shared identity, here and again on every replay.
            self.snapshot = self.database.snapshot()
            self.state, self.args = copy.deepcopy((ctx.state, args))
        except Exception:  # noqa: BLE001 - uncopyable setups just opt out
            self.capture_failed = True

    def after_invoke(self, ctx: "SpecContext") -> None:
        if self.invokes == 1 and not self.capture_failed:
            self.post_snapshot = self.database.snapshot()

    def on_state_write(self, ctx: "SpecContext") -> None:
        if self.invokes:
            self.state_written_after_invoke = True


class StateManager:
    """Snapshot/restore service for one problem's spec evaluations.

    One instance lives on the :class:`~repro.synth.goal.SynthesisProblem`
    (lazily created by ``problem.state_manager()``), so the warm baseline and
    spec recordings are shared across every synthesis run on that
    problem -- including repeated benchmark-registry runs.
    """

    def __init__(self, database: "Database", verify_every: int = 0) -> None:
        self.database = database
        #: When > 0, every Nth replay of a recorded spec runs a verification
        #: pass instead (full reset+setup, diffed against the recording);
        #: set from ``SynthConfig.verify_recordings`` by the synthesizer.
        self.verify_every = verify_every
        self.stats = StateStats()
        self._baseline: Optional[Dict[str, Any]] = None
        self._recordings: Dict["Spec", SpecRecording] = {}
        self._unreplayable: Set["Spec"] = set()
        self._replay_counts: Dict["Spec", int] = {}
        self._query_seen = database.query_stats.copy()

    def sync_query_stats(self) -> None:
        """Pull the database's query-planner counters into :class:`StateStats`.

        The database counts index hits and scans continuously; this folds the
        counts accumulated since the last sync into ``stats`` so
        ``stats.since(before)`` deltas report them alongside restore counters.
        """

        current = self.database.query_stats
        delta = current.since(self._query_seen)
        self.stats.index_hits += delta.index_hits
        self.stats.index_scans += delta.scans
        self._query_seen = current.copy()

    # ------------------------------------------------------------------ lifecycle

    def invalidate(self) -> None:
        """Drop the baseline and every recording (the reset state changed)."""

        self._baseline = None
        self._recordings.clear()
        self._unreplayable.clear()
        self._replay_counts.clear()
        self.stats.invalidations += 1

    def recording_for(self, spec: "Spec") -> Optional[SpecRecording]:
        return self._recordings.get(spec)

    def is_unreplayable(self, spec: "Spec") -> bool:
        return spec in self._unreplayable

    # ------------------------------------------------------------------ baseline

    def restore_baseline(self, problem: "SynthesisProblem") -> None:
        """Bring the database to the problem's post-reset baseline.

        The reset closure runs once to produce the baseline; afterwards the
        snapshot is restored instead of replaying the closure.
        """

        if self._baseline is None:
            problem.run_reset()
            self._baseline = self.database.snapshot()
            self.stats.captures += 1
        else:
            self.database.restore(self._baseline)

    # ------------------------------------------------------------------ setup

    def begin(
        self, problem: "SynthesisProblem", spec: "Spec"
    ) -> Callable[["SpecContext"], None]:
        """Restore the database for one evaluation of ``spec``.

        This is the infrastructure half of an evaluation -- a failure here
        (broken reset closure, corrupt snapshot) is *not* a candidate
        failure and must propagate to the caller, so ``evaluate_spec`` runs
        it outside its candidate-crash handling.  Returns the setup step
        (replay, fallback or recording pass) to run against the context.
        """

        recording = self._recordings.get(spec)
        if recording is not None:
            if self.verify_every > 0:
                count = self._replay_counts.get(spec, 0) + 1
                self._replay_counts[spec] = count
                if count % self.verify_every == 0:
                    return self._verification_pass(problem, spec, recording)
            self.stats.restores += 1
            self.database.restore(recording.snapshot)
            # One joint deep copy so objects shared between the scratch
            # state and the invoke arguments (e.g. a model passed to both)
            # keep their shared identity, as in a real setup run.  Copied
            # here, in the infrastructure phase: a failing copy of our own
            # recording is not a candidate failure.
            state, args = copy.deepcopy((recording.state, recording.args))

            def replay(ctx: "SpecContext") -> None:
                ctx.state = state
                ctx.invoke(*args)

            return replay

        self.stats.rebuilds += 1
        self.restore_baseline(problem)
        if spec in self._unreplayable:
            return spec.setup

        def record(ctx: "SpecContext") -> None:
            recorder = _Recorder(self.database)
            ctx._recorder = recorder
            try:
                spec.setup(ctx)
            finally:
                ctx._recorder = None
            self._finalize(spec, ctx, recorder)

        return record

    def _verification_pass(
        self, problem: "SynthesisProblem", spec: "Spec", recording: SpecRecording
    ) -> Callable[["SpecContext"], None]:
        """A full reset+setup run diffed against the stored recording.

        The opt-in ``verify_recordings`` debug mode: instead of replaying,
        restore the baseline and run the real setup under a fresh recorder,
        then compare what it captured *before the invoke* (database
        snapshot, invoke args, scratch state -- all candidate-independent)
        with the recording.  A mismatch means the setup depends on state
        outside the baseline and raises
        :class:`NondeterministicSetupError`; replay would silently evaluate
        candidates against the wrong state.
        """

        self.stats.rebuilds += 1
        self.restore_baseline(problem)

        def verify(ctx: "SpecContext") -> None:
            recorder = _Recorder(self.database)
            ctx._recorder = recorder
            try:
                spec.setup(ctx)
            finally:
                ctx._recorder = None
            if recorder.capture_failed or recorder.invokes != 1:
                raise NondeterministicSetupError(
                    f"spec {spec.name!r}: setup was recorded as replayable but "
                    f"now invoked {recorder.invokes} time(s)"
                )
            if not _safely_equal(recorder.snapshot, recording.snapshot):
                raise NondeterministicSetupError(
                    f"spec {spec.name!r}: pre-invoke database state diverged "
                    "from its recording (nondeterministic setup)"
                )
            if not _safely_equal(recorder.args, recording.args):
                raise NondeterministicSetupError(
                    f"spec {spec.name!r}: invoke arguments diverged from their "
                    "recording (nondeterministic setup)"
                )
            if not _safely_equal(recorder.state, recording.state):
                raise NondeterministicSetupError(
                    f"spec {spec.name!r}: scratch state diverged from its "
                    "recording (nondeterministic setup)"
                )
            self.stats.verifications += 1

        return verify

    def _finalize(self, spec: "Spec", ctx: "SpecContext", recorder: _Recorder) -> None:
        """Decide whether the completed recording pass is replayable."""

        replayable = (
            recorder.invokes == 1
            and not recorder.capture_failed
            and not recorder.state_written_after_invoke
            and ctx.passed_asserts == 0
            and recorder.post_snapshot is not None
            # Any database work after the invoke returned belongs to the
            # setup, not the candidate; replay would skip it.
            and _safely_equal(self.database.snapshot(), recorder.post_snapshot)
            # Scratch state mutated in place after the invoke (appending to
            # a list, writing ctx.state directly) would be lost by replay;
            # the pre-invoke copy must still match.  (In-place mutations
            # that compare equal -- e.g. a model whose equality is id-based
            # -- fall under the documented determinism opt-in.)
            and _safely_equal(ctx.state, recorder.state)
        )
        if replayable:
            assert recorder.snapshot is not None  # invokes == 1 guarantees it
            self._recordings[spec] = SpecRecording(
                snapshot=recorder.snapshot,
                args=recorder.args or (),
                state=recorder.state or {},
            )
            self.stats.captures += 1
        else:
            self._unreplayable.add(spec)
            self.stats.unreplayable += 1
