"""Hypothesis strategies for random videos and evaluable HTL formulas.

The formula generator stays inside the class the retrieval engine supports
(extended conjunctive skeleton) and inside the documented semantic
conventions (consistent attribute-variable typing, integer captures for
integer-compared variables), so the engine in outer-join mode must agree
with the definitional oracle exactly.
"""

from hypothesis import strategies as st

from repro.htl import ast
from repro.model.hierarchy import Video, VideoNode, flat_video
from repro.model.metadata import (
    Fact,
    Relationship,
    SegmentMetadata,
    make_object,
)

OBJECT_IDS = ["o1", "o2", "o3"]
TYPES = ["plane", "person"]
HEIGHTS = [50, 100, 300]
KINDS = ["action", "talk"]
CONFIDENCES = [1.0, 0.5]


@st.composite
def segment_metadata(draw, full_confidence=False):
    objects = []
    for object_id in OBJECT_IDS:
        if not draw(st.booleans()):
            continue
        confidence = 1.0 if full_confidence else draw(st.sampled_from(CONFIDENCES))
        attributes = {}
        if draw(st.booleans()):
            attributes["height"] = Fact(
                draw(st.sampled_from(HEIGHTS)),
                1.0 if full_confidence else draw(st.sampled_from(CONFIDENCES)),
            )
        objects.append(
            make_object(
                object_id,
                draw(st.sampled_from(TYPES)),
                confidence=confidence,
                **attributes,
            )
        )
    relationships = []
    present = [instance.object_id for instance in objects]
    if len(present) >= 2 and draw(st.booleans()):
        relationships.append(
            Relationship(
                "near",
                (present[0], present[1]),
                confidence=1.0
                if full_confidence
                else draw(st.sampled_from(CONFIDENCES)),
            )
        )
    attributes = {}
    if draw(st.booleans()):
        attributes["kind"] = draw(st.sampled_from(KINDS))
    return SegmentMetadata(
        attributes=attributes, objects=objects, relationships=relationships
    )


@st.composite
def flat_videos(draw, min_segments=1, max_segments=7, full_confidence=False):
    n = draw(st.integers(min_segments, max_segments))
    segments = [
        draw(segment_metadata(full_confidence=full_confidence))
        for __ in range(n)
    ]
    return flat_video("random", segments)


def flat_videos_with_objects(**kwargs):
    """Flat videos whose object universe is non-empty."""
    return flat_videos(**kwargs).filter(lambda video: video.object_universe())


@st.composite
def deep_videos(draw, full_confidence=False):
    """Three-level videos (video → scenes → shots) for level operators."""
    n_scenes = draw(st.integers(1, 3))
    root = VideoNode(metadata=draw(segment_metadata(full_confidence=full_confidence)))
    for __ in range(n_scenes):
        scene = root.add_child(
            VideoNode(metadata=draw(segment_metadata(full_confidence=full_confidence)))
        )
        for __ in range(draw(st.integers(1, 3))):
            scene.add_child(
                VideoNode(
                    metadata=draw(
                        segment_metadata(full_confidence=full_confidence)
                    )
                )
            )
    return Video(
        name="deep",
        root=root,
        level_names={1: "video", 2: "scene", 3: "shot"},
    )


# ---------------------------------------------------------------------------
# formulas
# ---------------------------------------------------------------------------
def _atom_conditions(var_names):
    """Atomic conditions over the given free object variables."""
    options = []
    for name in var_names:
        var = ast.ObjectVar(name)
        options.extend(
            [
                st.just(ast.Present(var)),
                st.sampled_from(TYPES).map(
                    lambda t, v=var: ast.Compare(
                        "=", ast.AttrFunc("type", (v,)), ast.Const(t)
                    )
                ),
                st.sampled_from(HEIGHTS).map(
                    lambda h, v=var: ast.Compare(
                        ">", ast.AttrFunc("height", (v,)), ast.Const(h)
                    )
                ),
            ]
        )
    if len(var_names) >= 2:
        options.append(
            st.just(
                ast.Rel(
                    "near",
                    (ast.ObjectVar(var_names[0]), ast.ObjectVar(var_names[1])),
                )
            )
        )
    options.append(
        st.sampled_from(KINDS).map(
            lambda k: ast.Compare("=", ast.AttrFunc("kind", ()), ast.Const(k))
        )
    )
    return st.one_of(options)


@st.composite
def closed_atoms(draw):
    """Closed non-temporal formulas (each its own ∃ when needed)."""
    n_vars = draw(st.integers(0, 2))
    names = OBJECT_IDS[:0]  # empty
    names = ["x", "y"][:n_vars]
    n_conds = draw(st.integers(1, 3))
    conds = [draw(_atom_conditions(names or ["x"]))] if not names else [
        draw(_atom_conditions(names)) for __ in range(n_conds)
    ]
    if not names:
        # Only variable-free conditions allowed.
        cond = draw(
            st.sampled_from(KINDS).map(
                lambda k: ast.Compare(
                    "=", ast.AttrFunc("kind", ()), ast.Const(k)
                )
            )
        )
        return cond
    formula = conds[0]
    for cond in conds[1:]:
        formula = ast.And(formula, cond)
    return ast.Exists(tuple(names), formula)


def _combine(children):
    return st.one_of(
        st.tuples(children, children).map(lambda pair: ast.And(*pair)),
        st.tuples(children, children).map(lambda pair: ast.Until(*pair)),
        children.map(ast.Next),
        children.map(ast.Eventually),
    )


def type1_formulas():
    """Closed type (1) formulas: closed atoms + temporal skeleton."""
    return st.recursive(closed_atoms(), _combine, max_leaves=5)


def segment_conditions():
    """∃-free closed atoms: conjunctions of segment-attribute comparisons."""
    return st.lists(_atom_conditions([]), min_size=1, max_size=2).map(_conj)


def exists_free_formulas():
    """Closed formulas with no ∃: segment conditions + temporal skeleton."""
    return st.recursive(segment_conditions(), _combine, max_leaves=5)


@st.composite
def type2_formulas(draw):
    """Prefix-∃ formulas whose atoms share the quantified variables."""
    n_vars = draw(st.integers(1, 2))
    names = ["x", "y"][:n_vars]

    def open_atom():
        return st.lists(
            _atom_conditions(names), min_size=1, max_size=2
        ).map(lambda conds: _conj(conds))

    body = draw(st.recursive(open_atom(), _combine, max_leaves=4))
    return ast.Exists(tuple(names), body)


@st.composite
def conjunctive_formulas(draw):
    """Prefix-∃ plus a freeze capturing an integer attribute."""
    names = ["x"]
    var = ast.ObjectVar("x")

    def open_atom(allow_h):
        conds = [
            st.just(ast.Present(var)),
            st.sampled_from(HEIGHTS).map(
                lambda h: ast.Compare(
                    ">", ast.AttrFunc("height", (var,)), ast.Const(h)
                )
            ),
        ]
        if allow_h:
            conds.append(
                st.sampled_from([">", ">=", "<", "<=", "="]).map(
                    lambda op: ast.Compare(
                        op, ast.AttrFunc("height", (var,)), ast.AttrVar("h")
                    )
                )
            )
        return st.lists(st.one_of(conds), min_size=1, max_size=2).map(_conj)

    inner = draw(st.recursive(open_atom(True), _combine, max_leaves=3))
    frozen = ast.Freeze("h", ast.AttrFunc("height", (var,)), inner)
    prefix_body = draw(
        st.one_of(
            st.just(frozen),
            st.tuples(st.recursive(open_atom(False), _combine, max_leaves=2)).map(
                lambda single: ast.And(single[0], frozen)
            ),
        )
    )
    return ast.Exists(tuple(names), prefix_body)


@st.composite
def extended_formulas(draw):
    """Formulas with one level modal operator over a type (1)/(2) body."""
    body = draw(st.one_of(type1_formulas(), type2_formulas()))
    operator = draw(
        st.sampled_from(
            [
                ast.AtNextLevel,
                lambda sub: ast.AtLevel(3, sub),
                lambda sub: ast.AtNamedLevel("shot", sub),
            ]
        )
    )
    wrapped = operator(body)
    outer = draw(st.one_of(type1_formulas(), closed_atoms()))
    shape = draw(st.integers(0, 2))
    if shape == 0:
        return wrapped
    if shape == 1:
        return ast.And(outer, wrapped)
    return ast.Eventually(wrapped)


def _conj(conds):
    formula = conds[0]
    for cond in conds[1:]:
        formula = ast.And(formula, cond)
    return formula
