"""Durable-store save/load wall-clock and the cost of verification.

Not a paper table — this measures the crash-safe snapshot store
(DESIGN.md §9).  Two questions:

1. What do a snapshot save and a load cost at the paper's performance
   scale (the sparse 5k-segment configuration of Tables 5–6)?
2. What does integrity checking cost?  A verified load re-hashes every
   artifact against the manifest chain; the acceptance gate is that the
   verified load stays within 25% of the unverified read — SHA-256 over
   a few MB must never dominate JSON parsing and model rebuilding.

Emits ``BENCH_store.json`` in the current working directory.  Set
``BENCH_QUICK=1`` for a seconds-scale run (CI) with a relaxed gate —
millisecond-scale timings make a 25% ratio gate pure noise there.
"""

import os
import random
import time

from repro.bench.harness import best_of
from repro.bench.reporting import write_report_json
from repro.model.database import VideoDatabase
from repro.model.hierarchy import flat_video
from repro.model.serialize import database_to_dict
from repro.store import Store
from repro.workloads.synthetic import random_similarity_list

from benchmarks.bench_atom_tables import build_segments

QUICK = bool(os.environ.get("BENCH_QUICK"))
N_SEGMENTS = 500 if QUICK else 5_000
DENSITY = 0.02
N_ATOMICS = 4
#: SHA-256 over a sub-MB snapshot is sub-millisecond; the measured gap
#: between verified and raw loads is small, so enough repeats are
#: needed for the min to converge below the gate's noise floor.
REPEAT = 3 if QUICK else 7
#: Full mode gates verification overhead at <= 25% over the unverified
#: read; quick mode only smoke-tests that verification does not multiply
#: the load time.
VERIFY_OVERHEAD_LIMIT = 2.0 if QUICK else 0.25

RESULTS_PATH = "BENCH_store.json"


def build_database():
    rng = random.Random(20260806)
    database = VideoDatabase()
    video = flat_video(
        "store-bench", build_segments(N_SEGMENTS, DENSITY, rng)
    )
    database.add(video)
    for position in range(N_ATOMICS):
        database.register_atomic(
            f"P{position + 1}",
            video.name,
            random_similarity_list(N_SEGMENTS, rng=rng),
        )
    return database


def test_store_save_load(tmp_path, report):
    database = build_database()
    reference = database_to_dict(database)

    save_store = Store(tmp_path / "save-bench", keep=1)
    save_seconds, info = best_of(lambda: save_store.save(database), REPEAT)

    read_store = Store(tmp_path / "read-bench", keep=1)
    read_store.save(database)
    unverified_seconds, unverified = best_of(
        lambda: read_store.load(verify=False),
        REPEAT,
    )
    verified_seconds, verified = best_of(lambda: read_store.load(), REPEAT)

    # Durability must not change the data: both loads rebuild the
    # reference database exactly, and neither takes a recovery action.
    assert database_to_dict(verified.database) == reference
    assert database_to_dict(unverified.database) == reference
    assert not verified.recovered and not unverified.recovered
    assert verified.verified and not unverified.verified

    total_bytes = sum(
        entry["bytes"] for entry in info.artifacts.values()
    )
    overhead = verified_seconds / unverified_seconds - 1.0
    assert overhead <= VERIFY_OVERHEAD_LIMIT, (
        f"verified load is {overhead:.0%} slower than the unverified "
        f"read (gate {VERIFY_OVERHEAD_LIMIT:.0%}): "
        f"{verified_seconds:.4f}s vs {unverified_seconds:.4f}s"
    )

    report(
        "Durable store, sparse configuration (seconds)",
        {
            "Segments": N_SEGMENTS,
            "Save": f"{save_seconds:.4f}",
            "Load (verified)": f"{verified_seconds:.4f}",
            "Load (raw)": f"{unverified_seconds:.4f}",
            "Verify overhead": f"{overhead:.1%}",
            "Snapshot MB": f"{total_bytes / 1e6:.2f}",
        },
    )
    write_report_json(
        RESULTS_PATH,
        {
            "quick": QUICK,
            "n_segments": N_SEGMENTS,
            "density": DENSITY,
            "n_atomics": N_ATOMICS,
            "snapshot_bytes": total_bytes,
            "save_seconds": save_seconds,
            "load_verified_seconds": verified_seconds,
            "load_unverified_seconds": unverified_seconds,
            "verify_overhead": overhead,
            "verify_overhead_limit": VERIFY_OVERHEAD_LIMIT,
        },
    )
