"""The three workloads: corpus, request mix, reference path and writes.

Each workload is driven by one seeded generator and one client thread in
a closed loop.  Requests carry query *text*; the client parses it, so
``repro.htl.parse`` is part of every request.  Only public entry points
of the program are used: ``repro.htl.parse``,
``repro.core.topk.top_k_across_videos``, ``repro.store.Store``,
``repro.ingest.Ingester`` and ``repro.serve.RetrievalServer`` /
``EnginePool``.  Nothing here imports ``repro.bench``, which pulls in the
SQL baseline at import.

Modules of ``repro`` are imported inside functions: the worker times set
up from process start, imports included.
"""

import json
import os
import random

K = 25
#: Durable writes: one batch of appended segments plus a commit, and a
#: checkpoint on every CHECKPOINT_EVERY-th commit.  At one in five the
#: checkpoint writes own the top fifth of the write latencies, so
#: ``write_p90_ms`` lands inside their own spread, not on the step up to
#: them.
CHECKPOINT_EVERY = 5
#: Writes should cost what the program does, not what the disk does.  The
#: program's default is fsync=True, which costs ~0 on tmpfs but 0.2 ms with
#: 7 ms spikes on a disk; the benchmark may write only inside its checkout,
#: wherever that is, so it turns fsync off instead.
FSYNC = False

#: Distinct objects per annotated video.
N_OBJECTS = 6


# ---------------------------------------------------------------------------
# corpus generators (seeded; the program receives only their output)
# ---------------------------------------------------------------------------
def annotated_segments(n_segments, density, rng):
    """Synthetic annotations: each object in ~``density`` of the segments,
    ~30% of its appearances holding a gun, and a ``kind`` attribute on
    ~``density`` of the segments."""
    from repro.model.metadata import Relationship, SegmentMetadata, make_object

    slots = [([], [], {}) for __ in range(n_segments)]
    appearances = max(1, int(n_segments * density))
    for position in range(N_OBJECTS):
        object_id = f"o{position}"
        type_name = "person" if position % 2 else "plane"
        for index in rng.sample(range(n_segments), appearances):
            objects, relationships, __ = slots[index]
            objects.append(
                make_object(
                    object_id,
                    type_name,
                    confidence=rng.choice([1.0, 0.5]),
                    height=rng.choice([50, 100, 300]),
                )
            )
            if rng.random() < 0.3:
                relationships.append(
                    Relationship("holds_gun", (object_id,), confidence=1.0)
                )
    for index in rng.sample(range(n_segments), appearances):
        slots[index][2]["kind"] = "battle"
    return [
        SegmentMetadata(
            attributes=attributes, objects=objects, relationships=relationships
        )
        for objects, relationships, attributes in slots
    ]


def random_signature(rng, bins=16):
    weights = [rng.random() ** 2 for __ in range(bins)]
    total = sum(weights)
    return tuple(weight / total for weight in weights)


def signature_segments(n_segments, rng):
    """Segments that each carry a distinct content signature."""
    from repro.model.metadata import SegmentMetadata

    return [
        SegmentMetadata(attributes={"shot": position}, signature=random_signature(rng))
        for position in range(n_segments)
    ]


def atom_list(n_segments, high, rng, maximum=20.0):
    """A registered atom list with exactly one run per 40-segment slot.

    Runs are 1-7 segments long (mean 4, ~10% of segments satisfied, the
    paper's selectivity) with actual values uniform in
    ``(0.05 * maximum, high]``.  A fixed run count keeps the list-algebra
    work of a request nearly the same from seed to seed.  When ``high`` is
    the maximum, one run reaches it exactly, so the video's pruning bound
    is the largest possible and the video is never pruned.
    """
    from repro.core.simlist import SimilarityList

    slot = 40
    entries = []
    for start in range(1, n_segments - slot + 2, slot):
        length = rng.randint(1, 7)
        first = start + rng.randrange(slot - length)
        entries.append(((first, first + length - 1), rng.uniform(0.05 * maximum, high)))
    if high >= maximum:
        position = rng.randrange(len(entries))
        entries[position] = (entries[position][0], maximum)
    return SimilarityList.from_entries(entries, maximum)


def plain_segments(n_segments):
    from repro.model.metadata import SegmentMetadata

    return [SegmentMetadata() for __ in range(n_segments)]


def deck(templates, rng):
    """One shuffled cycle of the mix: template names repeated by weight."""
    cards = [name for name, (__, weight) in templates.items() for __ in range(weight)]
    rng.shuffle(cards)
    return cards


def ranking(result):
    """A ranking as plain comparable data."""
    return [
        (segment.video, segment.segment_id, segment.actual, segment.maximum)
        for segment in result
    ]


# ---------------------------------------------------------------------------
# the write path shared by all workloads
# ---------------------------------------------------------------------------
class Writer:
    """Durable writes through ``Ingester``: append one batch, commit, and
    checkpoint on every CHECKPOINT_EVERY-th commit.  Videos take turns,
    ``writes_per_video`` consecutive commits each.

    ``kind`` of each write is ``append`` or ``checkpoint``.  Bytes written
    to the WAL and delta files are measured from the directory, and user
    bytes are the encoded size of the submitted operations.
    """

    def __init__(self, ingester, videos, make_batch, rng, writes_per_video):
        self.ingester = ingester
        self.videos = list(videos)
        self.writes_per_video = writes_per_video
        self.make_batch = make_batch
        self.rng = rng
        self.commits = 0
        self.user_bytes = 0
        self.bytes_written = 0

    def next_kind(self):
        return (
            "checkpoint"
            if (self.commits + 1) % CHECKPOINT_EVERY == 0
            else "append"
        )

    def prepare(self):
        """Draw the next batch (outside the timed region); returns
        (video, batch, encoded size of the operation in bytes)."""
        from repro.ingest.ops import AppendSegments, encode_op

        turn = self.commits // self.writes_per_video
        video = self.videos[turn % len(self.videos)]
        batch = self.make_batch(self.rng)
        op = AppendSegments(video=video, segments=tuple(batch))
        encoded = json.dumps(encode_op(op), separators=(",", ":")).encode()
        return video, batch, len(encoded)

    def write(self, video, batch):
        """One durable write (the timed operation)."""
        self.ingester.append_segments(video, batch)
        self.ingester.commit()
        self.commits += 1
        if self.commits % CHECKPOINT_EVERY == 0:
            self.ingester.checkpoint()

    def file_sizes(self):
        layout = self.ingester.layout
        sizes = {}
        for top, __, files in os.walk(layout.root):
            if os.path.commonpath([top, layout.base_dir]) == layout.base_dir:
                continue
            for name in files:
                path = os.path.join(top, name)
                try:
                    sizes[path] = os.path.getsize(path)
                except FileNotFoundError:
                    continue
        return sizes

    def account(self, before, after, user_bytes):
        """Add the bytes one write put into the WAL and delta files, and
        the encoded bytes of the operation it carried."""
        self.user_bytes += user_bytes
        for path, size in after.items():
            grown = size - before.get(path, 0)
            if grown > 0:
                self.bytes_written += grown


# ---------------------------------------------------------------------------
# lists: §4 set-up, precomputed atom lists, cold list algebra
# ---------------------------------------------------------------------------
class Lists:
    """16 flat videos x 5,000 segments with registered P1..P3 lists.

    Every request runs on a fresh ``RetrievalEngine()``: cold context
    set-up and list algebra, no picture atoms and no ``exists``.  Relevance
    is skewed: even-numbered videos hold strong matches (values up to the
    maximum), odd-numbered ones only weak matches (at most half of it).
    Once the first video fills the top 25, every weak video's bound falls
    below the floor, so exactly half the videos are pruned on every seed;
    with uniformly drawn values which videos pruning skips was a coin
    toss that moved latency by a third from seed to seed.
    """

    name = "lists"
    #: Pause before each timed operation's calibration slice (seconds).
    settle_s = 0.0
    #: Segments per write.  Thirty annotated segments make a write mostly
    #: interpreter work, which the calibration corrects; with two or ten,
    #: file system calls weighed more and write_p50_ms moved ~10% between
    #: runs.
    write_batch = 30
    #: Consecutive commits to one video: every checkpoint folds exactly
    #: one write-phase video.
    writes_per_video = CHECKPOINT_EVERY
    n_videos = 16
    n_segments = 5_000
    #: name -> (query text, weight in the mix).
    templates = {
        "and-ev": ("$P1 and eventually $P2", 4),
        "until": ("$P1 until $P2", 3),
        "next-and": ("next $P1 and $P3", 2),
        "ev-nested": ("eventually ($P2 and next $P3)", 1),
    }

    def batch(self, rng):
        """One write batch: annotated segments."""
        return annotated_segments(self.write_batch, 0.3, rng)

    def write_database(self, rng):
        """The seed corpus of the write phase: 32 annotated videos of 200
        segments.  A checkpoint rewrites the whole video it folds, so
        spreading the writes keeps every checkpoint the same size; on one
        growing video the median checkpoint sat on a ramp (23 to 86 ms)
        and moved 10% between runs."""
        from repro.model.database import VideoDatabase
        from repro.model.hierarchy import flat_video

        database = VideoDatabase()
        for position in range(32):
            database.add(
                flat_video(f"w{position:02d}", annotated_segments(200, 0.05, rng))
            )
        return database

    def prepare(self, directory, seed):
        """Nothing to write ahead: the corpus is built during set-up."""

    def setup(self, directory, seed):
        from repro.model.database import VideoDatabase
        from repro.model.hierarchy import flat_video

        rng = random.Random(seed)
        database = VideoDatabase()
        for position in range(self.n_videos):
            video = flat_video(
                f"v{position:02d}", plain_segments(self.n_segments)
            )
            database.add(video)
            high = 20.0 if position % 2 == 0 else 10.0
            for name in ("P1", "P2", "P3"):
                database.register_atomic(
                    name, video.name, atom_list(self.n_segments, high, rng)
                )
        self.database = database

    def query(self, formula):
        """One cold request; returns (ranking result, engine used)."""
        from repro.core.engine import RetrievalEngine
        from repro.core.topk import top_k_across_videos

        engine = RetrievalEngine()
        return top_k_across_videos(engine, formula, self.database, K), engine

    def resolve(self, formula):
        return formula

    def planner_stats(self):
        """Stats of a planner that outlives one request (None: each
        request plans on a fresh engine)."""
        return None

    def reference(self, formula):
        """Serial scan with pruning off: the rankings the fast path must
        reproduce exactly."""
        from repro.core.engine import RetrievalEngine
        from repro.core.topk import top_k_across_videos

        return top_k_across_videos(
            RetrievalEngine(), formula, self.database, K, prune=False
        )

    def pictures(self):
        return []

    def close(self):
        pass


# ---------------------------------------------------------------------------
# metadata: atom scoring over annotated corpora loaded from a snapshot
# ---------------------------------------------------------------------------
class Metadata(Lists):
    """Annotated flat videos at object densities 0.02, 0.05 and 0.5, plus
    one video of distinct content signatures queried with looks_like.

    The corpus loads through ``Store.load`` from a snapshot written before
    timing starts; picture indexes are warmed during set-up.  Each request
    runs on a fresh engine (a one-shot front end), so plans are rebuilt
    every request.
    """

    name = "metadata"
    densities = (0.02, 0.05, 0.5)
    videos_per_density = 2
    n_segments = 800
    signatures = True
    templates = {
        "person": ("exists x . present(x) and type(x) = 'person'", 2),
        "gun-ev-plane": (
            "(exists x . present(x) and holds_gun(x)) and eventually "
            "(exists y . present(y) and type(y) = 'plane')",
            2,
        ),
        "battle-next": (
            "kind() = 'battle' and next (exists x . present(x) and height(x) > 100)",
            2,
        ),
        "looks-like": ("looks_like('probe', 0.8)", 2),
        "plane-until": (
            "(exists x . present(x) and type(x) = 'plane') until kind() = 'battle'",
            3,
        ),
    }

    def build(self, seed):
        from repro.model.database import VideoDatabase
        from repro.model.hierarchy import flat_video

        rng = random.Random(seed)
        database = VideoDatabase()
        for density in self.densities:
            for copy in range(self.videos_per_density):
                database.add(
                    flat_video(
                        f"d{density}-{copy}",
                        annotated_segments(self.n_segments, density, rng),
                    )
                )
        if self.signatures:
            database.add(
                flat_video("signatures", signature_segments(self.n_segments, rng))
            )
        return database

    def prepare(self, directory, seed):
        from repro.store import Store

        Store(os.path.join(directory, "store")).save(self.build(seed))

    def setup(self, directory, seed):
        from repro.pictures.signature import clip_from_segments
        from repro.store import Store

        database = Store(os.path.join(directory, "store")).load().database
        for video in database.videos():
            video.root.pictures_at_level(2)
        self.database = database
        # Query by example: three stored shots form the probe clip.
        shots = database.get("signatures").nodes_at_level(2)
        rng = random.Random(seed + 1)
        self.clips = {
            "probe": clip_from_segments(
                [node.metadata for node in rng.sample(shots, 3)]
            )
        }

    def resolve(self, formula):
        from repro.pictures.signature import resolve_clips

        return resolve_clips(formula, self.clips)

    def reference(self, formula):
        """The naive full-scan atom path, serial and unpruned."""
        from repro.core.engine import EngineConfig, RetrievalEngine
        from repro.core.topk import top_k_across_videos

        return top_k_across_videos(
            RetrievalEngine(EngineConfig(naive_atoms=True)),
            formula,
            self.database,
            K,
            prune=False,
        )

    def pictures(self):
        return [
            video.root.pictures_at_level(2) for video in self.database.videos()
        ]


# ---------------------------------------------------------------------------
# live: served reads beside durable writes
# ---------------------------------------------------------------------------
class Live(Metadata):
    """Reads through ``RetrievalServer`` beside ``Ingester`` writes.

    The corpus opens through ``Ingester`` (recovery counts in set-up):
    a base snapshot, one checkpointed delta and a committed WAL tail.
    One pool worker serves the ``batch`` SLA class with a long-lived
    planner cache; ``EnginePool.refresh`` is the commit listener.
    """

    name = "live"
    settle_s = 0.002
    #: Small batches keep the served corpus growing by under 15% a run.
    write_batch = 2
    #: The videos differ in density, so each checkpoint folds all three
    #: (one commit each) rather than one of three sizes in turn.
    writes_per_video = 1
    videos_per_density = 1
    n_segments = 1_000
    signatures = False
    #: Queries per durable write in the interleaved loop.
    reads_per_write = 2
    templates = {
        "person": ("exists x . present(x) and type(x) = 'person'", 2),
        "gun-ev-plane": (
            "(exists x . present(x) and holds_gun(x)) and eventually "
            "(exists y . present(y) and type(y) = 'plane')",
            1,
        ),
        "plane-until": (
            "(exists x . present(x) and type(x) = 'plane') until kind() = 'battle'",
            2,
        ),
    }
    #: One sampled commit epoch in this many is checked against the
    #: reference path.
    check_every = 6

    def prepare(self, directory, seed):
        from repro.ingest import Ingester, initialise

        root = os.path.join(directory, "ingest")
        rng = random.Random(seed + 2)
        initialise(root, self.build(seed), fsync=FSYNC).close()
        with Ingester(root, fsync=FSYNC) as ingester:
            names = list(ingester.database.names())
            for round_ in range(8):
                ingester.append_segments(names[round_ % len(names)], self.batch(rng))
                ingester.commit()
                if round_ == 3:
                    ingester.checkpoint()

    def setup(self, directory, seed):
        from repro.ingest import Ingester
        from repro.serve import EnginePool, RetrievalServer

        self.ingester = Ingester(os.path.join(directory, "ingest"), fsync=FSYNC)
        self.database = self.ingester.database
        self.pool = EnginePool.from_database(self.database, 1)
        self.server = RetrievalServer(self.pool).start(warm=True)
        self.ingester.add_listener(self.pool.refresh)
        self.clips = {}

    def query(self, formula):
        return (
            self.server.query(formula, K, sla="batch"),
            self.pool.workers[0].engine,
        )

    def planner_stats(self):
        return self.pool.workers[0].engine.planner.stats

    def close(self):
        self.server.close()
        self.ingester.close()


WORKLOADS = {cls.name: cls for cls in (Lists, Metadata, Live)}
