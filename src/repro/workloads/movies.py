"""Narrative synthetic videos mirroring the paper's running examples.

Two hand-built hierarchies straight out of §2.1/§2.4 — a western in which
John Wayne shoots a bandit (formula (B)) and a Gulf-war news broadcast
(the bombing sub-plots, formula (A) and the airplane-altitude formula (C))
— plus a seeded random movie generator for bulk tests.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.errors import WorkloadError
from repro.model.database import VideoDatabase
from repro.model.hierarchy import Video, VideoNode, standard_level_names
from repro.model.metadata import (
    ObjectInstance,
    Relationship,
    SegmentMetadata,
    make_object,
)


def _frame(objects=(), relationships=(), **attributes) -> VideoNode:
    return VideoNode(
        metadata=SegmentMetadata(
            attributes=attributes,
            objects=objects,
            relationships=relationships,
        )
    )


def _group(metadata: SegmentMetadata, children: List[VideoNode]) -> VideoNode:
    node = VideoNode(metadata=metadata)
    for child in children:
        node.add_child(child)
    return node


def _john_wayne():
    return make_object("jw", "person", name="John Wayne")


def _bandit(identifier: str = "bandit_1"):
    # A person whose analysed role overrides the type attribute: queries
    # such as formula (B) test `type(y) = 'bandit'`.
    return ObjectInstance(
        identifier, "person", attributes={"type": "bandit", "name": "Scar"}
    )


def western_video() -> Video:
    """A 4-level western: video → scenes → shots → frames.

    Scene 2 realises formula (B): a frame with John Wayne and the bandit
    both holding guns, later a frame where he fires at that bandit, later
    a frame with the bandit on the floor.
    """
    # Scene 1: bandits approach the village on horses.
    scene1 = _group(
        SegmentMetadata(attributes={"synopsis": "bandits approach"}),
        [
            _group(
                SegmentMetadata(attributes={"camera": "wide"}),
                [
                    _frame(
                        objects=[
                            _bandit(),
                            make_object("horse_1", "horse"),
                        ],
                        relationships=[
                            Relationship("rides", ("bandit_1", "horse_1"))
                        ],
                        time_of_day="noon",
                    ),
                    _frame(
                        objects=[_bandit()],
                        time_of_day="noon",
                    ),
                ],
            )
        ],
    )
    # Scene 2: the shoot-out (formula B's witness).
    shootout_frames = [
        _frame(
            objects=[_john_wayne(), _bandit()],
            relationships=[
                Relationship("holds_gun", ("jw",)),
                Relationship("holds_gun", ("bandit_1",)),
            ],
        ),
        _frame(
            objects=[_john_wayne(), _bandit()],
            relationships=[Relationship("fires_at", ("jw", "bandit_1"))],
        ),
        _frame(
            objects=[_bandit()],
            relationships=[Relationship("on_floor", ("bandit_1",))],
        ),
    ]
    scene2 = _group(
        SegmentMetadata(attributes={"synopsis": "shoot-out"}),
        [
            _group(
                SegmentMetadata(attributes={"camera": "close"}),
                shootout_frames,
            )
        ],
    )
    # Scene 3: John Wayne reunites with his people.
    scene3 = _group(
        SegmentMetadata(attributes={"synopsis": "reunion"}),
        [
            _group(
                SegmentMetadata(attributes={"camera": "wide"}),
                [
                    _frame(
                        objects=[
                            _john_wayne(),
                            make_object("mary", "person", name="Mary"),
                        ],
                        relationships=[Relationship("embraces", ("jw", "mary"))],
                    )
                ],
            )
        ],
    )
    root = _group(
        SegmentMetadata(
            attributes={
                "type": "western",
                "title": "Rio Bravo Reproduction",
                "length_minutes": 90,
            },
            objects=[_john_wayne()],
        ),
        [scene1, scene2, scene3],
    )
    return Video(
        name="western",
        root=root,
        level_names={1: "video", 2: "scene", 3: "shot", 4: "frame"},
    )


def gulf_war_video() -> Video:
    """The §2.1 news hierarchy: bombing → ground war → surrender.

    The bombing sub-plot's first scene carries the airplane frames used by
    formula (C): a plane on the ground, then the same plane in the air at
    increasing heights (captured altitudes 0 → 300 → 900).
    """
    plane = lambda height: make_object(  # noqa: E731 - tiny local factory
        "plane_7", "airplane", height=height
    )
    takeoff_shot = _group(
        SegmentMetadata(attributes={"action": "take-off"}),
        [
            _frame(objects=[plane(0)], location="airbase"),
            _frame(objects=[plane(300)], location="airbase"),
            _frame(objects=[plane(900)], location="sky"),
        ],
    )
    strike_shot = _group(
        SegmentMetadata(attributes={"action": "strike"}),
        [
            _frame(
                objects=[
                    plane(700),
                    make_object("target_c2", "building", role="command"),
                ],
                relationships=[Relationship("bombs", ("plane_7", "target_c2"))],
            ),
            _frame(
                objects=[make_object("target_c2", "building", role="command")],
                relationships=[
                    Relationship("destroyed", ("target_c2",), confidence=0.9)
                ],
            ),
        ],
    )
    return_shot = _group(
        SegmentMetadata(attributes={"action": "return"}),
        [_frame(objects=[plane(400)], location="sky")],
    )
    bombing_scene = _group(
        SegmentMetadata(attributes={"synopsis": "bombing command centers"}),
        [takeoff_shot, strike_shot, return_shot],
    )
    airfield_scene = _group(
        SegmentMetadata(attributes={"synopsis": "bombing airfields"}),
        [
            _group(
                SegmentMetadata(attributes={"action": "strike"}),
                [
                    _frame(
                        objects=[
                            make_object("plane_9", "airplane", height=800),
                            make_object("runway_1", "runway"),
                        ],
                        relationships=[
                            Relationship("bombs", ("plane_9", "runway_1"))
                        ],
                    )
                ],
            )
        ],
    )
    bombing_subplot = _group(
        SegmentMetadata(attributes={"phase": "air campaign"}),
        [bombing_scene, airfield_scene],
    )
    ground_subplot = _group(
        SegmentMetadata(attributes={"phase": "ground war"}),
        [
            _group(
                SegmentMetadata(attributes={"synopsis": "allied advance"}),
                [
                    _group(
                        SegmentMetadata(attributes={"action": "advance"}),
                        [
                            _frame(
                                objects=[make_object("tank_3", "tank")],
                                location="desert",
                            )
                        ],
                    )
                ],
            )
        ],
    )
    surrender_subplot = _group(
        SegmentMetadata(attributes={"phase": "surrender"}),
        [
            _group(
                SegmentMetadata(attributes={"synopsis": "troops surrender"}),
                [
                    _group(
                        SegmentMetadata(attributes={"action": "surrender"}),
                        [
                            _frame(
                                objects=[
                                    make_object("soldiers_1", "crowd"),
                                ],
                                relationships=[
                                    Relationship("surrenders", ("soldiers_1",))
                                ],
                            )
                        ],
                    )
                ],
            )
        ],
    )
    root = _group(
        SegmentMetadata(
            attributes={
                "type": "news",
                "title": "Gulf War Broadcast",
            }
        ),
        [bombing_subplot, ground_subplot, surrender_subplot],
    )
    return Video(
        name="gulf-war",
        root=root,
        level_names=standard_level_names(5),
    )


def random_movie(
    name: str,
    n_scenes: int = 5,
    shots_per_scene: int = 4,
    frames_per_shot: int = 6,
    seed: Optional[int] = None,
    movie_type: str = "western",
) -> Video:
    """A seeded random movie with a plausible object cast and hierarchy."""
    if min(n_scenes, shots_per_scene, frames_per_shot) < 1:
        raise WorkloadError("hierarchy dimensions must be positive")
    rng = random.Random(seed)
    cast = [
        make_object(f"actor_{index}", "person", name=f"Actor {index}")
        for index in range(1, 5)
    ]
    props = [
        make_object("horse_1", "horse"),
        make_object("train_1", "train"),
        make_object("gun_1", "gun"),
    ]
    scenes = []
    for scene_index in range(n_scenes):
        shots = []
        for __ in range(shots_per_scene):
            frames = []
            for __ in range(frames_per_shot):
                population = rng.sample(cast + props, k=rng.randint(1, 3))
                relationships = []
                people = [
                    instance
                    for instance in population
                    if instance.type == "person"
                ]
                if len(people) >= 2 and rng.random() < 0.4:
                    relationships.append(
                        Relationship(
                            "talks_to",
                            (people[0].object_id, people[1].object_id),
                            confidence=rng.choice([1.0, 0.8, 0.6]),
                        )
                    )
                frames.append(
                    _frame(
                        objects=population,
                        relationships=relationships,
                        brightness=rng.randint(10, 90),
                    )
                )
            shots.append(
                _group(
                    SegmentMetadata(
                        attributes={"camera": rng.choice(["wide", "close"])}
                    ),
                    frames,
                )
            )
        scenes.append(
            _group(
                SegmentMetadata(
                    attributes={"synopsis": f"scene {scene_index + 1}"}
                ),
                shots,
            )
        )
    root = _group(
        SegmentMetadata(attributes={"type": movie_type, "title": name}),
        scenes,
    )
    return Video(
        name=name,
        root=root,
        level_names={1: "video", 2: "scene", 3: "shot", 4: "frame"},
    )


def example_database() -> VideoDatabase:
    """The two narrative videos plus a couple of random ones."""
    database = VideoDatabase()
    database.add(western_video())
    database.add(gulf_war_video())
    database.add(random_movie("prairie-dust", seed=7))
    database.add(random_movie("night-train", seed=11, movie_type="noir"))
    return database
