"""Synthetic frame features for the cut-detection substrate.

The paper's pipeline segments video into shots "using a method called
cut-detection [21, 11]" over low-level frame features.  We have no video
files, so this module synthesises the same signal: a stream of per-frame
colour histograms where frames within one shot are small perturbations of
a shot signature, and shot boundaries jump to a fresh signature — exactly
the structure histogram-difference cut detectors rely on.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.errors import WorkloadError

#: Number of histogram bins (coarse colour quantisation, as in early
#: cut-detection work).
N_BINS = 16


@dataclass(frozen=True)
class Frame:
    """One synthetic frame: a normalised colour histogram."""

    histogram: tuple

    def __post_init__(self) -> None:
        if len(self.histogram) != N_BINS:
            raise WorkloadError(
                f"frames carry {N_BINS}-bin histograms, got "
                f"{len(self.histogram)}"
            )
        for position, bin_value in enumerate(self.histogram):
            if not isinstance(bin_value, (int, float)) or isinstance(
                bin_value, bool
            ):
                raise WorkloadError(
                    f"histogram bin {position} must be a number, got "
                    f"{bin_value!r}"
                )
            if not math.isfinite(bin_value):
                raise WorkloadError(
                    f"histogram bin {position} must be finite, got "
                    f"{bin_value!r}"
                )
            if bin_value < 0:
                raise WorkloadError(
                    f"histogram bin {position} must be non-negative, got "
                    f"{bin_value!r}"
                )


@dataclass(frozen=True)
class ShotSpec:
    """Ground truth for one synthetic shot."""

    length: int
    label: str = ""


@dataclass
class FrameStream:
    """A synthetic frame sequence with its ground-truth shot boundaries."""

    frames: List[Frame]
    boundaries: List[int]  # first frame index (0-based) of each shot
    labels: List[str]

    def __len__(self) -> int:
        return len(self.frames)


def _signature(rng: random.Random) -> List[float]:
    weights = [rng.random() ** 2 for __ in range(N_BINS)]
    total = sum(weights)
    if total <= 0.0:
        raise WorkloadError(
            "degenerate shot signature: weight vector sums to zero"
        )
    return [weight / total for weight in weights]


def _perturb(
    signature: Sequence[float], rng: random.Random, noise: float
) -> tuple:
    noisy = [
        max(bin_value + rng.uniform(-noise, noise), 0.0)
        for bin_value in signature
    ]
    total = sum(noisy) or 1.0
    return tuple(bin_value / total for bin_value in noisy)


def synthesize_stream(
    shots: Sequence[ShotSpec],
    noise: float = 0.01,
    seed: Optional[int] = None,
) -> FrameStream:
    """Generate frames for the given shots.

    ``noise`` is the within-shot histogram jitter; shot signatures are
    drawn independently, so boundary jumps dwarf the jitter.
    """
    if not shots:
        raise WorkloadError("a stream needs at least one shot")
    if any(shot.length < 1 for shot in shots):
        raise WorkloadError("every shot needs at least one frame")
    rng = random.Random(seed)
    frames: List[Frame] = []
    boundaries: List[int] = []
    labels: List[str] = []
    for shot in shots:
        signature = _signature(rng)
        boundaries.append(len(frames))
        labels.append(shot.label)
        for __ in range(shot.length):
            frames.append(Frame(_perturb(signature, rng, noise)))
    return FrameStream(frames=frames, boundaries=boundaries, labels=labels)


def histogram_difference(first: Frame, second: Frame) -> float:
    """L1 distance between histograms, in ``[0, 2]`` — the classic
    cut-detection dissimilarity.

    Both histograms must carry nonzero total weight: a zero-total
    histogram is not a colour distribution, and comparing against one
    yields a score that is NaN-free but meaningless (two blank frames
    would look "identical" to any query).  Such frames are rejected with
    a typed :class:`~repro.errors.WorkloadError` at the comparison site
    rather than silently scored.
    """
    for which, frame in (("first", first), ("second", second)):
        if sum(frame.histogram) <= 0.0:
            raise WorkloadError(
                f"{which} frame has a zero-total histogram; "
                "cannot compute a histogram difference"
            )
    return sum(
        abs(a - b) for a, b in zip(first.histogram, second.histogram)
    )
