"""Checkpoint sessions: a bounded snapshot chain with corruption fallback.

A :class:`CheckpointSession` owns one checkpoint directory and the
policy around it — how often to snapshot (``every``), how many published
snapshots to keep (``keep``), and what a resuming process may trust.

It also keeps the shard state of a checkpointed run for
:meth:`~repro.apps.BenchmarkApp.run_sharded`, which runs the shards in
waves of ``every``: :meth:`~CheckpointSession.open_shards` restores the
completed shard outputs and the :class:`~repro.faults.FaultPlan` replay
cursor (trigger counters + RNG state), and
:meth:`~CheckpointSession.commit_shards` snapshots both after each wave.
The wave barrier makes every cut crash-consistent — no shard is half-run
at a snapshot, so "resume" is "skip the shards the snapshot holds" — and
the restored cursor makes a resumed run fire the *remaining* fault
triggers exactly as the uninterrupted run would have.

Three rules make the whole stack crash-consistent:

* **Commit failures never kill the run.**  A snapshot that cannot be
  written (full disk, injected ``checkpoint_write:error``) is a
  :class:`RuntimeWarning` plus a counter — the run continues and the
  next cadence point tries again.  Checkpointing is an optimization of
  recovery, and an optimization must not introduce new failure modes.
* **Corrupt snapshots fall back, they do not fail.**  On resume, the
  newest snapshot is validated first; a corrupt one is warned about,
  counted (``ckpt_fallbacks``), and the next-older one is tried.  Only
  when the entire chain is exhausted does the run restart from step
  zero (which is exactly what it would have done without checkpoints).
* **Identity mismatches are errors.**  Resuming a chain written by a
  different run (other app/variant/params/shard-count/fault-plan, see
  :func:`run_identity`) would silently compute garbage; that raises
  :class:`~repro.errors.CheckpointError` instead.
"""

from __future__ import annotations

import os
import warnings
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from .. import trace
from ..digest import digest
from ..errors import CheckpointError, CorruptCheckpointError, ReproError
from . import format as fmt

__all__ = ["CheckpointSession", "run_identity"]


def run_identity(
    app, variant: str, params: Mapping[str, object], nshards: int
) -> Dict[str, Any]:
    """The resume-compatibility fingerprint recorded in every snapshot.

    Two runs may share a checkpoint chain only when they would compute
    the same shards in the same order: same app class, variant,
    parameter digest, shard count, and — because snapshots carry the
    fault-plan cursor — the same fault plan (seed + rules).  Parameters
    :func:`~repro.digest.digest` cannot fingerprint weaken the check to
    presence-only rather than blocking checkpointing.
    """
    from ..faults import active_plan

    plan = active_plan()
    return {
        "app": (type(app).__module__, type(app).__qualname__, app.name),
        "variant": variant,
        "params": digest(params),
        "nshards": int(nshards),
        "fault_plan": None
        if plan is None
        else (plan.seed, tuple(rule.key for rule in plan.rules)),
    }


class CheckpointSession:
    """Policy, chain management and sharded-run state for one directory.

    Hand one to :meth:`~repro.apps.BenchmarkApp.run_sharded` (or pass
    ``checkpoint_dir=`` to :func:`repro.apps.run`) to checkpoint a run;
    the executor calls :meth:`open_shards` once and
    :meth:`commit_shards` after every wave.
    """

    def __init__(
        self,
        directory: str,
        *,
        every: int = 1,
        keep: int = 3,
        on_commit: Optional[Callable[[int, str], None]] = None,
    ) -> None:
        if every < 1:
            raise CheckpointError(
                f"checkpoint_every must be >= 1, got {every}", path=directory
            )
        if keep < 1:
            raise CheckpointError(
                f"checkpoint keep must be >= 1, got {keep}", path=directory
            )
        self.directory = os.path.abspath(directory)
        if os.path.exists(self.directory) and not os.path.isdir(self.directory):
            raise CheckpointError(
                "checkpoint path exists and is not a directory",
                path=self.directory,
            )
        self.every = int(every)
        self.keep = int(keep)
        #: Test/ops hook called after each successful publication with
        #: ``(step, path)``.  Exceptions propagate — chaos tests use this
        #: to SIGKILL the process at a precise point in the chain.
        self.on_commit = on_commit
        self.stats: Dict[str, int] = {
            "writes": 0,
            "write_failures": 0,
            "fallbacks": 0,
            "resumed_step": -1,
            "steps_skipped": 0,
        }
        #: True once :meth:`begin` has opened the chain.  A re-entry on
        #: the same session (a resilient retry of the whole run body)
        #: must restore the latest snapshot even when the original call
        #: was a fresh run — the retry is a continuation, not a restart.
        self.began = False
        # The open sharded run (see open_shards): its identity, requested
        # shard count, and how many shards the last snapshot held.
        self._identity: Optional[Dict[str, Any]] = None
        self._nshards = 0
        self._committed = 0

    # --- writing ----------------------------------------------------------
    def commit(self, step: int, payload: Dict[str, Any]) -> Optional[str]:
        """Publish ``payload`` as step ``step`` and prune the chain.

        Returns the published path, or ``None`` when the write failed
        (warned + counted, never raised).
        """
        try:
            path = fmt.write_snapshot(self.directory, step, payload)
        except (ReproError, OSError) as exc:
            self.stats["write_failures"] += 1
            trace.count("ckpt_write_failures")
            warnings.warn(
                f"checkpoint write for step {step} failed ({exc}); "
                "continuing without it",
                RuntimeWarning,
                stacklevel=2,
            )
            return None
        self.stats["writes"] += 1
        self._prune()
        if self.on_commit is not None:
            self.on_commit(step, path)
        return path

    def _prune(self) -> None:
        """Drop the oldest published snapshots beyond ``keep``.

        Pruning runs *after* a successful publication, so the chain
        never shrinks below its newest valid member; unlink failures are
        ignored (a stale extra snapshot is harmless).
        """
        chain = fmt.list_snapshots(self.directory)
        for _, path in chain[: max(0, len(chain) - self.keep)]:
            try:
                os.unlink(path)
            except OSError:
                pass

    # --- reading ----------------------------------------------------------
    def load_latest(self) -> Optional[Tuple[int, Dict[str, Any]]]:
        """The newest *valid* snapshot, walking back through corruption.

        Returns ``(step, payload)`` or ``None`` when no snapshot in the
        chain validates.  Corrupt members are warned about and counted,
        never raised: an unreadable chain degrades to a from-scratch run.
        """
        for step, path in reversed(fmt.list_snapshots(self.directory)):
            try:
                return fmt.read_snapshot(path)
            except CorruptCheckpointError as exc:
                self.stats["fallbacks"] += 1
                trace.count("ckpt_fallbacks")
                warnings.warn(
                    f"snapshot {os.path.basename(path)} failed validation "
                    f"({exc}); falling back to an older snapshot",
                    RuntimeWarning,
                    stacklevel=2,
                )
        return None

    def begin(
        self, identity: Dict[str, Any], *, resume: bool = False
    ) -> Optional[Dict[str, Any]]:
        """Open the chain for a run with ``identity``; maybe restore state.

        With ``resume=True``, returns the newest valid snapshot's state
        after checking that its recorded identity matches — a mismatch
        raises :class:`CheckpointError`, because those snapshots belong
        to a different run.  With ``resume=False`` (a fresh run), any
        existing chain is deleted so stale snapshots can never be
        resumed into a later, different invocation by accident.
        """
        if not resume:
            self.began = True
            for _, path in fmt.list_snapshots(self.directory):
                try:
                    os.unlink(path)
                except OSError:
                    pass
            return None
        self.began = True
        loaded = self.load_latest()
        if loaded is None:
            return None
        step, payload = loaded
        recorded = payload.get("meta", {}).get("identity")
        if recorded != identity:
            raise CheckpointError(
                "refusing to resume: checkpoint chain was written by a "
                f"different run (recorded identity {recorded!r}, this run "
                f"{identity!r})",
                path=self.directory,
            )
        self.stats["resumed_step"] = step
        trace.count("ckpt_resumes")
        return payload

    # --- sharded runs -----------------------------------------------------
    def open_shards(
        self,
        app,
        variant: str,
        params: Mapping[str, object],
        nshards: int,
        *,
        resume: bool = False,
    ) -> Tuple[int, Dict[int, Any]]:
        """Open the chain for a sharded run; return ``(nshards, done)``.

        ``done`` maps shard index to the output a restored snapshot
        holds (empty for a fresh run), and a restore also rewinds the
        active fault plan to the snapshot's cursor.  On resume the shard
        count recorded in the chain wins over ``nshards``: it is part of
        the identity, and re-sharding would orphan the restored outputs.
        Re-entry on a begun session (a resilient ``run_to_completion``
        retry) always resumes, so a retry replays only the unfinished
        tail.
        """
        from ..faults import active_plan

        resume = resume or self.began
        if resume:
            # Peek first: identity must carry the recorded shard count.
            loaded = self.load_latest()
            if loaded is not None:
                recorded = loaded[1].get("meta", {}).get("identity", {})
                if isinstance(recorded, dict) and recorded.get("nshards"):
                    nshards = int(recorded["nshards"])
        self._identity = run_identity(app, variant, params, nshards)
        self._nshards = nshards
        restored = self.begin(self._identity, resume=resume)
        done: Dict[int, Any] = {}
        if restored is not None:
            state = restored["state"]
            done = {int(k): v for k, v in state["done"].items()}
            plan = active_plan()
            if plan is not None and state.get("fault_cursor") is not None:
                plan.restore_cursor(state["fault_cursor"])
            self.note_skipped(len(done))
        self._committed = len(done)
        return nshards, done

    def commit_shards(self, done: Mapping[int, Any], total: int) -> None:
        """Snapshot the completed shard outputs of the open sharded run.

        Called after every wave; a fully restored run calls it once with
        nothing new, re-publishing its terminal snapshot so ``--resume``
        of a finished run is idempotent.  ``total`` is the realized shard
        count: the snapshot is complete when ``done`` holds all of them.
        """
        from ..faults import active_plan

        executed = len(done) - self._committed
        self._committed = len(done)
        if executed:
            trace.count("ckpt_steps_executed", executed)
        plan = active_plan()
        cursor = None if plan is None else plan.snapshot_cursor()
        self.commit(len(done), {
            "meta": {"identity": self._identity, "nshards": self._nshards,
                     "complete": len(done) == total},
            "state": {"done": dict(done), "fault_cursor": cursor,
                      "next": len(done)},
        })

    # --- misc -------------------------------------------------------------
    def note_skipped(self, count: int) -> None:
        """Record that ``count`` completed steps were not re-executed."""
        if count:
            self.stats["steps_skipped"] += count
            trace.count("ckpt_steps_skipped", count)

    def summary(self) -> str:
        """One-line human rendering of the session's counters."""
        s = self.stats
        bits = [f"writes={s['writes']}"]
        if s["write_failures"]:
            bits.append(f"write_failures={s['write_failures']}")
        if s["fallbacks"]:
            bits.append(f"fallbacks={s['fallbacks']}")
        if s["resumed_step"] >= 0:
            bits.append(f"resumed_step={s['resumed_step']}")
            bits.append(f"steps_skipped={s['steps_skipped']}")
        return f"checkpoint[{self.directory}]: " + " ".join(bits)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CheckpointSession(dir={self.directory!r}, every={self.every}, "
            f"keep={self.keep})"
        )
