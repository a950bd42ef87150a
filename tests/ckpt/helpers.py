"""Module-level spawn targets for the checkpoint chaos suite.

The supervisor-kill tests need a *real* victim process: a spawn child
that drives a checkpointed cluster run and SIGKILLs itself (the cluster
supervisor) at a precise point in the snapshot chain.  Spawn targets
must live at module scope to pickle by reference.
"""

from __future__ import annotations

import os
import signal


def app_by_name(name):
    """Resolve a portfolio app instance from its CLI name."""
    from repro.apps import PORTFOLIO_APPS

    for cls in PORTFOLIO_APPS:
        if cls.name == name:
            return cls()
    raise LookupError(name)


def crashing_checkpointed_cluster_run(
    app_name, directory, kill_after, fault_spec=None
):
    """Run ``app_name`` checkpointed over a 2-worker cluster and SIGKILL
    the supervisor (this process) right after snapshot ``kill_after``
    is published.

    The kill happens inside the ``on_commit`` hook, so the published
    chain is exactly ``kill_after`` snapshots deep when the process
    dies — the most adversarial cut: the supervisor is mid-run with
    live workers, queued futures and an open fault plan.
    """
    from repro import faults
    from repro.ckpt import CheckpointSession
    from repro.cluster import cluster_pool

    app = app_by_name(app_name)
    params = app.functional_params()
    state = {"commits": 0}

    def hook(step, path):
        state["commits"] += 1
        if state["commits"] >= kill_after:
            os.kill(os.getpid(), signal.SIGKILL)

    session = CheckpointSession(directory, on_commit=hook)
    pool = cluster_pool(2)
    try:
        if fault_spec:
            with faults.inject(fault_spec):
                app.run_sharded(
                    "ompx", params, pool, session, shards=4
                )
        else:
            app.run_sharded("ompx", params, pool, session, shards=4)
    finally:
        pool.close()
    raise AssertionError("the supervisor was supposed to die mid-run")
