"""Crash recovery: base snapshot + delta chain + committed WAL replay.

The recovery invariant (DESIGN.md §15): after a crash at *any* instant,
recovery reconstructs **exactly the committed prefix** — every operation
whose WAL record was committed (or already folded into a committed
delta) is present; every operation past the commit point is absent; and
queries against the recovered state rank identically to a database
rebuilt from scratch by re-applying those same operations.

The pipeline, in order:

1. load the base snapshot (``base/`` is a :class:`repro.store.Store`,
   with its own verify/fallback machinery);
2. apply the committed delta chain in manifest order
   (:meth:`~repro.ingest.compact.Compactor.apply_deltas`), noting the
   manifest's ``wal_through`` watermark;
3. quarantine and truncate any WAL bytes past the commit marker (a torn
   tail is *expected* debris, not corruption);
4. replay committed WAL records, skipping sequences at or below the
   watermark (already folded into a delta — this makes replay
   idempotent), applying the rest through the same
   :func:`repro.ingest.ops.apply` path the live ingester uses.

Recovery never deletes bytes: tails and damaged records move to
``quarantine/``.  Damage *inside* the committed prefix — a CRC failure,
a record that will not decode or apply — is unrecoverable-by-truncation
and surfaces as a typed error naming the quarantined bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.errors import IngestError, WALCorruptionError
from repro.ingest import ops
from repro.ingest.compact import Compactor
from repro.ingest.layout import IngestLayout, PathLike
from repro.ingest.wal import WriteAheadLog
from repro.model.database import VideoDatabase
from repro.store import Store


@dataclass
class RecoveredState:
    """Everything recovery reconstructed, plus its provenance."""

    database: VideoDatabase
    wal: WriteAheadLog
    snapshot_id: str
    verified: bool
    #: highest WAL sequence already folded into a committed delta
    wal_through: int = 0
    #: committed deltas applied, in manifest order
    deltas: Tuple[str, ...] = ()
    #: WAL records applied live (sequence above the watermark)
    replayed: int = 0
    #: committed records skipped as already folded into a delta
    skipped: int = 0
    #: videos whose WAL records are not yet in any delta — the next
    #: checkpoint must cover exactly these
    dirty: Tuple[str, ...] = ()
    #: quarantine paths recovery created (torn tail, if any)
    quarantined: Tuple[str, ...] = ()
    #: human-readable recovery narration
    actions: List[str] = field(default_factory=list)


def recover(
    root: PathLike,
    verify: bool = True,
    fsync: bool = True,
    keep: int = 2,
) -> RecoveredState:
    """Reconstruct the committed state of one ingest directory.

    Idempotent: its only disk mutation (tail quarantine + truncate) is
    a no-op on re-run, so a crash *during* recovery loses nothing —
    running it again converges to the same state.  The returned
    :class:`RecoveredState` carries an open WAL positioned for appends.
    """
    layout = IngestLayout(root)
    actions: List[str] = []

    loaded = Store(layout.base_dir, keep=keep, fsync=fsync).load(
        verify=verify
    )
    database = loaded.database
    if loaded.actions:
        actions.extend(
            f"base: {action.kind} {action.artifact}"
            for action in loaded.actions
        )
    actions.append(
        f"loaded base {loaded.snapshot_id}: {len(database)} video(s)"
    )

    compactor = Compactor(layout, fsync=fsync)
    delta_load = compactor.apply_deltas(database, verify=verify)
    if delta_load.applied:
        actions.append(
            f"applied {len(delta_load.applied)} delta(s) covering "
            f"{len(delta_load.videos)} video(s), wal_through "
            f"{delta_load.wal_through}"
        )

    wal = WriteAheadLog(root, fsync=fsync)
    quarantined: List[str] = []
    try:
        tail = wal.truncate_tail()
        if tail is not None:
            quarantined.append(tail)
            actions.append(f"quarantined torn WAL tail to {tail}")

        replayed = 0
        skipped = 0
        dirty: List[str] = []
        for sequence, op_document in wal.committed():
            if sequence <= delta_load.wal_through:
                skipped += 1
                continue
            op = ops.decode_op(op_document)
            try:
                name = ops.apply(op, database)
            except IngestError as error:
                # A committed record that validates against replayed
                # state but fails here means the log and the state
                # disagree — surface it as corruption, don't guess.
                raise WALCorruptionError(
                    f"committed WAL record {sequence} does not apply: "
                    f"{error}",
                    path=layout.wal_log_path,
                    record=sequence,
                ) from error
            replayed += 1
            if name not in dirty:
                dirty.append(name)
        if replayed or skipped:
            actions.append(
                f"replayed {replayed} WAL record(s), skipped {skipped} "
                "already folded into deltas"
            )
    except BaseException:
        wal.close()
        raise

    return RecoveredState(
        database=database,
        wal=wal,
        snapshot_id=loaded.snapshot_id,
        verified=loaded.verified,
        wal_through=delta_load.wal_through,
        deltas=tuple(delta_load.applied),
        replayed=replayed,
        skipped=skipped,
        dirty=tuple(dirty),
        quarantined=tuple(quarantined),
        actions=actions,
    )
