"""Checkpointing at a sane cadence must cost almost nothing.

The checkpoint layer's cheap-when-idle claim: snapshotting once per wave
adds one pickle + fsync + rename of the completed-shard outputs —
bounded bookkeeping, not a second execution.  Same methodology as the
resilience/trace overhead benchmarks: run the same sharded workload
plain and checkpointed and assert the checkpointed path stays within a
few percent of the plain path (<5% target; the assertion leaves CI-noise
headroom).

The comparison holds the shard *schedule* fixed: both paths run
pool-width shards in one parallel wave, so the measured delta is exactly
the checkpoint machinery (session setup, identity digest, one snapshot
publication) and not a different launch count.  Cadence is wave-sized —
the sane setting for a workload this shape; per-shard cadence (``
checkpoint_every=1``) deliberately serializes the waves and is priced as
recovery granularity, not hidden in this gate.
"""

from __future__ import annotations

import time

import pytest

from repro.apps import Adam, VersionLabel
from repro.ckpt import CheckpointSession
from repro.sched import DevicePool

ROUNDS = 6
WARMUP = 2
POOL = 3


def _time_plain(app, params, pool, rounds: int) -> float:
    start = time.perf_counter()
    for _ in range(rounds):
        app.run_sharded(VersionLabel.OMPX, params, pool)
    return time.perf_counter() - start


def _time_checkpointed(app, params, pool, directory, rounds: int) -> float:
    start = time.perf_counter()
    for index in range(rounds):
        # A fresh session per round (fresh run, chain cleared); one
        # pool-width wave, snapshotted when it completes.
        session = CheckpointSession(str(directory / f"r{index}"), every=POOL)
        app.run_sharded(VersionLabel.OMPX, params, pool, session, shards=POOL)
    return time.perf_counter() - start


@pytest.mark.slow
@pytest.mark.ckpt
def test_checkpoint_overhead_at_sane_cadence_is_small(tmp_path, bench_record):
    app = Adam()
    # Scaled up from the tiny functional defaults so the per-run
    # snapshot cost (~1 ms) is priced against real work rather than
    # dominating a microsecond-scale run.
    params = dict(app.functional_params(), n=3000, steps=200, repeat=4)

    with DevicePool(POOL) as pool:
        _time_plain(app, params, pool, WARMUP)
        plain_s = _time_plain(app, params, pool, ROUNDS)

        _time_checkpointed(app, params, pool, tmp_path / "warm", WARMUP)
        ckpt_s = _time_checkpointed(app, params, pool, tmp_path, ROUNDS)

    # Target <5% overhead; assert 25% + 5ms absolute so loaded CI
    # machines cannot flake it while an accidental heavy path (pickling
    # the whole problem per shard, a sync chain rescan per submit) still
    # trips the gate.
    assert ckpt_s <= plain_s * 1.25 + 5e-3, (
        f"checkpointed run cost {ckpt_s:.4f}s vs {plain_s:.4f}s plain over "
        f"{ROUNDS} rounds — checkpoint overhead at wave cadence is too high"
    )
    overhead_pct = (ckpt_s / plain_s - 1) * 100 if plain_s else 0.0
    bench_record(
        "ckpt/overhead",
        plain_ms_per_run=plain_s / ROUNDS * 1e3,
        ckpt_ms_per_run=ckpt_s / ROUNDS * 1e3,
        overhead_pct=overhead_pct,
    )
    print(
        f"\nplain: {plain_s / ROUNDS * 1e3:.1f} ms/run, "
        f"checkpointed: {ckpt_s / ROUNDS * 1e3:.1f} ms/run "
        f"({overhead_pct:+.1f}%)"
    )
