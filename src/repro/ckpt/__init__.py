"""repro.ckpt — crash-consistent checkpoint/restart with deterministic resume.

The durable-state layer under every recovery path in the stack:

* :mod:`~repro.ckpt.format` — the schema-versioned, digest-validated,
  atomically published snapshot file format (and its
  ``checkpoint_write``/``checkpoint_read`` fault-injection sites);
* :mod:`~repro.ckpt.session` — :class:`CheckpointSession`: cadence,
  bounded snapshot chains, fallback past corrupt snapshots, the
  resume-identity check (:func:`run_identity`), and the shard state of a
  checkpointed run — completed shard outputs plus the fault-plan replay
  cursor, so a resumed run is bit-identical to an uninterrupted one;
* :mod:`~repro.ckpt.journal` — :class:`SubmissionJournal`: the serving
  tier's accepted/done journal for effectively-once re-admission.

The execution itself is the apps' one sharded executor: hand a session
to :meth:`~repro.apps.BenchmarkApp.run_sharded` and it runs the shards
in waves of ``every`` with a snapshot after each.  Wired in through
``run(app, checkpoint_dir=...)`` /
``python -m repro.apps --checkpoint DIR [--resume]`` and
``KernelService(journal_dir=...)``.
"""

from .format import SCHEMA_VERSION, list_snapshots, read_snapshot, write_snapshot
from .journal import SubmissionJournal
from .session import CheckpointSession, run_identity

__all__ = [
    "SCHEMA_VERSION",
    "CheckpointSession",
    "SubmissionJournal",
    "run_identity",
    "list_snapshots",
    "read_snapshot",
    "write_snapshot",
]
