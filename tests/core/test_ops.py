"""Tests for the type (1) list algorithms, including the paper's Figure 2.

Every operator is cross-checked against a naive per-segment computation of
the paper's §2.5 definitions (the property tests), and the worked UNTIL
example of Figure 2 is reproduced entry for entry.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.intervals import Interval
from repro.core.ops import (
    always_list,
    and_lists,
    eventually_list,
    max_merge_lists,
    next_list,
    threshold_runs,
    until_lists,
    until_runs,
)
from repro.core.simlist import SIM_EPS, SimEntry, SimilarityList
from repro.errors import SimilarityListInvariantError

from tests.core.test_simlist import similarity_lists


def naive_and(left, right, horizon):
    return {
        i: left.actual_at(i) + right.actual_at(i)
        for i in range(1, horizon + 1)
    }


def naive_until(left, right, horizon, threshold):
    values = {}
    for position in range(1, horizon + 1):
        best = 0.0
        for witness in range(position, horizon + 1):
            best = max(best, right.actual_at(witness))
            if left.fraction_at(witness) + SIM_EPS < threshold:
                break
        values[position] = best
    return values


class TestAnd:
    def test_overlap_sums(self):
        left = SimilarityList.from_entries([((1, 10), 2.0)], 5.0)
        right = SimilarityList.from_entries([((5, 15), 3.0)], 7.0)
        result = and_lists(left, right)
        assert result.maximum == pytest.approx(12.0)
        assert result.actual_at(3) == pytest.approx(2.0)
        assert result.actual_at(7) == pytest.approx(5.0)
        assert result.actual_at(12) == pytest.approx(3.0)
        assert result.actual_at(16) == 0.0

    def test_one_side_empty_passes_through(self):
        left = SimilarityList.from_entries([((2, 4), 1.0)], 2.0)
        right = SimilarityList.empty(3.0)
        result = and_lists(left, right)
        assert result.maximum == pytest.approx(5.0)
        assert result.actual_at(3) == pytest.approx(1.0)

    def test_partial_satisfaction_kept(self):
        """Paper: 'even if one of a1 and a2 is zero ... f may be partially
        satisfied' — segments on only one list stay in the output."""
        left = SimilarityList.from_entries([((1, 1), 1.0)], 2.0)
        right = SimilarityList.from_entries([((9, 9), 1.5)], 2.0)
        result = and_lists(left, right)
        assert result.to_segment_values() == {
            1: pytest.approx(1.0),
            9: pytest.approx(1.5),
        }

    @given(similarity_lists(), similarity_lists())
    def test_matches_naive(self, left, right):
        result = and_lists(left, right)
        horizon = max(left.last_id(), right.last_id()) + 2
        naive = naive_and(left, right, horizon)
        for i in range(1, horizon + 1):
            assert result.actual_at(i) == pytest.approx(naive[i])

    @given(similarity_lists(), similarity_lists())
    def test_commutative(self, left, right):
        assert and_lists(left, right) == and_lists(right, left)

    @given(similarity_lists(), similarity_lists(), similarity_lists())
    @settings(max_examples=30)
    def test_associative(self, a, b, c):
        left_first = and_lists(and_lists(a, b), c)
        right_first = and_lists(a, and_lists(b, c))
        assert left_first == right_first


class TestNext:
    def test_shift(self):
        sim = SimilarityList.from_entries([((3, 5), 2.0)], 4.0)
        assert next_list(sim).to_segment_values() == {
            2: pytest.approx(2.0),
            3: pytest.approx(2.0),
            4: pytest.approx(2.0),
        }

    def test_entry_at_first_segment_clamped(self):
        sim = SimilarityList.from_entries([((1, 2), 2.0)], 4.0)
        assert next_list(sim).to_segment_values() == {1: pytest.approx(2.0)}

    def test_single_first_segment_disappears(self):
        sim = SimilarityList.from_entries([((1, 1), 2.0)], 4.0)
        assert not next_list(sim)

    @given(similarity_lists())
    def test_matches_naive(self, sim):
        shifted = next_list(sim)
        for i in range(1, sim.last_id() + 2):
            assert shifted.actual_at(i) == pytest.approx(sim.actual_at(i + 1))


class TestThresholdRuns:
    def test_filters_and_coalesces(self):
        sim = SimilarityList.from_entries(
            [((1, 4), 1.0), ((5, 9), 8.0), ((10, 12), 9.0), ((20, 22), 8.0)],
            maximum=10.0,
        )
        runs = threshold_runs(sim, 0.5)
        assert runs == [Interval(5, 12), Interval(20, 22)]

    def test_threshold_inclusive(self):
        sim = SimilarityList.from_entries([((1, 2), 5.0)], 10.0)
        assert threshold_runs(sim, 0.5) == [Interval(1, 2)]

    def test_zero_threshold_keeps_all(self):
        sim = SimilarityList.from_entries([((1, 2), 0.1)], 10.0)
        assert threshold_runs(sim, 0.0) == [Interval(1, 2)]


class TestUntilFigure2:
    """The paper's worked example, Figure 2, reproduced exactly."""

    L1_RUNS = [Interval(25, 100), Interval(200, 250)]
    L2 = SimilarityList.from_entries(
        [((10, 50), 10.0), ((55, 60), 15.0), ((90, 110), 12.0), ((125, 175), 10.0)],
        maximum=20.0,
    )
    EXPECTED = SimilarityList.from_entries(
        [((10, 24), 10.0), ((25, 60), 15.0), ((61, 110), 12.0), ((125, 175), 10.0)],
        maximum=20.0,
    )

    def test_paper_example(self):
        assert until_runs(self.L1_RUNS, self.L2) == self.EXPECTED

    def test_paper_example_via_thresholded_lists(self):
        left = SimilarityList.from_entries(
            [((25, 100), 18.0), ((120, 124), 2.0), ((200, 250), 18.0)],
            maximum=20.0,
        )
        assert until_lists(left, self.L2, threshold=0.5) == self.EXPECTED


class TestUntil:
    def test_h_only_segments_keep_direct_value(self):
        result = until_runs([], SimilarityList.from_entries([((3, 5), 2.0)], 4.0))
        assert result.to_segment_values() == {
            3: pytest.approx(2.0),
            4: pytest.approx(2.0),
            5: pytest.approx(2.0),
        }

    def test_h_entry_starting_just_past_run_is_reachable(self):
        """The off-by-one the paper's informal property misses: g holding
        on [u, u''-1] lets the witness sit one past the run's end."""
        runs = [Interval(1, 10)]
        right = SimilarityList.from_entries([((11, 11), 3.0)], 4.0)
        result = until_runs(runs, right)
        assert result.actual_at(1) == pytest.approx(3.0)
        assert result.actual_at(10) == pytest.approx(3.0)
        assert result.actual_at(11) == pytest.approx(3.0)
        assert result.actual_at(12) == 0.0

    def test_h_entry_past_gap_not_reachable(self):
        runs = [Interval(1, 10)]
        right = SimilarityList.from_entries([((12, 12), 3.0)], 4.0)
        result = until_runs(runs, right)
        assert result.actual_at(5) == 0.0
        assert result.actual_at(12) == pytest.approx(3.0)

    def test_later_better_witness_wins(self):
        runs = [Interval(1, 20)]
        right = SimilarityList.from_entries(
            [((2, 2), 1.0), ((9, 9), 4.0)], 4.0
        )
        result = until_runs(runs, right)
        assert result.actual_at(1) == pytest.approx(4.0)
        assert result.actual_at(5) == pytest.approx(4.0)
        assert result.actual_at(9) == pytest.approx(4.0)
        assert result.actual_at(10) == 0.0

    @given(similarity_lists(), similarity_lists())
    @settings(max_examples=60)
    def test_matches_naive(self, left, right):
        threshold = 0.5
        result = until_lists(left, right, threshold)
        horizon = max(left.last_id(), right.last_id()) + 2
        naive = naive_until(left, right, horizon, threshold)
        for i in range(1, horizon + 1):
            assert result.actual_at(i) == pytest.approx(naive[i]), f"at {i}"

    def test_zero_threshold_rejected(self):
        left = SimilarityList.from_entries([((1, 2), 1.0)], 2.0)
        right = SimilarityList.from_entries([((3, 3), 1.0)], 2.0)
        with pytest.raises(SimilarityListInvariantError):
            until_lists(left, right, threshold=0.0)

    @given(similarity_lists(), similarity_lists(), st.floats(0.01, 1.0))
    @settings(max_examples=40)
    def test_matches_naive_any_threshold(self, left, right, threshold):
        result = until_lists(left, right, threshold)
        horizon = max(left.last_id(), right.last_id()) + 2
        naive = naive_until(left, right, horizon, threshold)
        for i in range(1, horizon + 1):
            assert result.actual_at(i) == pytest.approx(naive[i]), f"at {i}"


class TestEventually:
    def test_suffix_max(self):
        sim = SimilarityList.from_entries(
            [((3, 5), 2.0), ((9, 9), 4.0), ((12, 14), 1.0)], 4.0
        )
        result = eventually_list(sim)
        assert result.actual_at(1) == pytest.approx(4.0)
        assert result.actual_at(9) == pytest.approx(4.0)
        assert result.actual_at(10) == pytest.approx(1.0)
        assert result.actual_at(14) == pytest.approx(1.0)
        assert result.actual_at(15) == 0.0

    def test_empty(self):
        assert not eventually_list(SimilarityList.empty(4.0))

    @given(similarity_lists())
    def test_matches_naive(self, sim):
        result = eventually_list(sim)
        horizon = sim.last_id() + 2
        for i in range(1, horizon + 1):
            expected = max(
                (sim.actual_at(j) for j in range(i, horizon + 1)), default=0.0
            )
            assert result.actual_at(i) == pytest.approx(expected)

    @given(similarity_lists())
    def test_equals_true_until(self, sim):
        """eventually g ≡ true until g."""
        horizon = max(sim.last_id(), 1)
        true_list = SimilarityList.from_entries([((1, horizon), 1.0)], 1.0)
        assert until_lists(true_list, sim, 0.5) == eventually_list(sim)

    @given(similarity_lists())
    def test_idempotent(self, sim):
        once = eventually_list(sim)
        assert eventually_list(once) == once


class TestAlways:
    def test_trailing_block_minimum(self):
        sim = SimilarityList.from_entries(
            [((1, 3), 4.0), ((6, 8), 3.0), ((9, 10), 2.0)], 4.0
        )
        result = always_list(sim, axis_end=10)
        assert result.actual_at(10) == pytest.approx(2.0)
        assert result.actual_at(9) == pytest.approx(2.0)
        assert result.actual_at(6) == pytest.approx(2.0)
        assert result.actual_at(5) == 0.0  # gap at 4..5
        assert result.actual_at(1) == 0.0

    def test_uncovered_axis_end_all_zero(self):
        sim = SimilarityList.from_entries([((1, 5), 4.0)], 4.0)
        assert not always_list(sim, axis_end=6)

    def test_full_coverage(self):
        sim = SimilarityList.from_entries([((1, 6), 2.5)], 4.0)
        result = always_list(sim, axis_end=6)
        assert result.actual_at(1) == pytest.approx(2.5)

    @given(similarity_lists(max_id=30), st.integers(1, 35))
    def test_matches_naive(self, sim, axis_end):
        result = always_list(sim, axis_end)
        for i in range(1, axis_end + 1):
            expected = min(
                sim.actual_at(j) for j in range(i, axis_end + 1)
            )
            assert result.actual_at(i) == pytest.approx(expected)


class TestMaxMerge:
    def test_pointwise_max(self):
        a = SimilarityList.from_entries([((1, 10), 2.0)], 5.0)
        b = SimilarityList.from_entries([((5, 15), 3.0)], 5.0)
        c = SimilarityList.from_entries([((8, 8), 1.0)], 5.0)
        merged = max_merge_lists([a, b, c])
        assert merged.actual_at(3) == pytest.approx(2.0)
        assert merged.actual_at(7) == pytest.approx(3.0)
        assert merged.actual_at(8) == pytest.approx(3.0)
        assert merged.actual_at(12) == pytest.approx(3.0)
        assert merged.actual_at(16) == 0.0

    def test_single_list_identity(self):
        a = SimilarityList.from_entries([((1, 3), 2.0)], 5.0)
        assert max_merge_lists([a]) is a

    def test_mismatched_maxima_rejected(self):
        a = SimilarityList.from_entries([((1, 3), 2.0)], 5.0)
        b = SimilarityList.from_entries([((1, 3), 2.0)], 6.0)
        with pytest.raises(SimilarityListInvariantError):
            max_merge_lists([a, b])

    def test_no_lists_rejected(self):
        with pytest.raises(SimilarityListInvariantError):
            max_merge_lists([])

    @given(st.lists(similarity_lists(), min_size=1, max_size=5))
    @settings(max_examples=50)
    def test_matches_naive(self, lists):
        merged = max_merge_lists(lists)
        horizon = max((sim.last_id() for sim in lists), default=0) + 2
        for i in range(1, horizon + 1):
            expected = max(sim.actual_at(i) for sim in lists)
            assert merged.actual_at(i) == pytest.approx(expected)


class TestAndSweepExact:
    """The flat-column AND sweep is bit-identical to the per-segment sum."""

    @staticmethod
    def per_segment(left, right):
        horizon = max(left.last_id(), right.last_id())
        return SimilarityList.from_segment_values(
            {
                i: left.actual_at(i) + right.actual_at(i)
                for i in range(1, horizon + 1)
            },
            left.maximum + right.maximum,
        )

    @given(similarity_lists(), similarity_lists())
    @settings(max_examples=200)
    def test_matches_per_segment_sum_exactly(self, left, right):
        result = and_lists(left, right)
        assert result.entries == self.per_segment(left, right).entries
        assert result.maximum == left.maximum + right.maximum

    @given(similarity_lists())
    def test_one_sided_exactly(self, sim):
        empty = SimilarityList.empty(2.0)
        for left, right in ((sim, empty), (empty, sim)):
            assert and_lists(left, right).entries == sim.entries

    def test_empty_lists(self):
        empty = SimilarityList.empty(1.0)
        assert and_lists(empty, empty).entries == ()
        assert and_lists(empty, empty).maximum == 2.0

    def test_adjacent_pieces_with_equal_sums_coalesce(self):
        left = SimilarityList.from_entries([((1, 2), 1.0), ((3, 4), 2.0)], 2.0)
        right = SimilarityList.from_entries([((1, 2), 1.0)], 2.0)
        assert and_lists(left, right).entries == (
            SimEntry(Interval(1, 4), 2.0),
        )
