import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tgne.events import (
    EventList,
    EventParseError,
    IntervalPartition,
    interval_counts,
    node_degree,
    normalize_times,
    parse_events,
    sample_negative_pairs,
    split_edges,
)

from conftest import random_events


def _parse(text: str, **kw) -> EventList:
    return parse_events(io.StringIO(text), **kw)


class TestParseEvents:
    def test_minmax_normalization_endpoints(self):
        ev = _parse("source,dest,timestamp\na,b,10\nb,c,20\na,c,30\n")
        assert np.allclose(sorted(ev.time), [0.0, 0.5, 1.0])
        assert ev.time_range == (10.0, 30.0)

    def test_self_loop_dropped_with_count(self):
        ev = _parse("source,dest,timestamp\na,a,5.0\na,b,1.0\nb,c,2.0\n")
        assert ev.dropped_self_loops == 1
        assert ev.m == 2

    def test_label_mapping_first_appearance(self):
        ev = _parse("source,dest,timestamp\nzz,aa,1\naa,mm,2\n")
        assert ev.node_labels == ["zz", "aa", "mm"]
        assert ev.n == 3

    def test_undirected_canonicalization(self):
        ev = _parse("source,dest,timestamp\nb,a,1\nc,a,2\n")
        assert np.all(ev.src <= ev.dst)

    def test_directed_keeps_orientation(self):
        ev = _parse("source,dest,timestamp\nb,a,1\na,b,2\n", directed=True)
        assert ev.unique_pairs() == {(0, 1), (1, 0)}

    def test_wrong_arity_reports_line(self):
        with pytest.raises(EventParseError, match="line 3"):
            _parse("source,dest,timestamp\na,b,1\na,b\n")

    def test_non_numeric_time_reports_line(self):
        with pytest.raises(EventParseError, match="line 2.*non-numeric"):
            _parse("source,dest,timestamp\na,b,xyz\n")

    def test_negative_time_rejected(self):
        with pytest.raises(EventParseError, match="non-negative"):
            _parse("source,dest,timestamp\na,b,-1\n")

    def test_empty_input_rejected(self):
        with pytest.raises(EventParseError):
            _parse("")
        with pytest.raises(EventParseError):
            _parse("source,dest,timestamp\n")

    def test_normalization_idempotent(self):
        ev = _parse("source,dest,timestamp\na,b,10\nb,c,20\na,c,35\n")
        again = normalize_times(ev)
        assert np.array_equal(ev.time, again.time)

    def test_write_parse_round_trip(self, tmp_path, sbm_sample):
        from tgne.events import write_events_csv

        def label_rows(e):
            # canonical storage orders by internal id, which ingest remaps;
            # compare pairs as unordered label sets
            return [
                frozenset((e.node_labels[a], e.node_labels[b]))
                for a, b in zip(e.src.tolist(), e.dst.tolist())
            ]

        ev = sbm_sample.events
        path = tmp_path / "events.csv"
        write_events_csv(ev, path)
        once = parse_events(path)
        # ingest re-normalizes times onto [0,1]; pairs and order are preserved
        assert once.m == ev.m and once.n == ev.n
        assert label_rows(once) == label_rows(ev)
        span = ev.time.max() - ev.time.min()
        assert np.allclose(once.time, (ev.time - ev.time.min()) / span, atol=1e-12)
        # a second round trip is exact: times already span [0, 1]
        write_events_csv(once, path)
        twice = parse_events(path)
        assert np.array_equal(twice.time, once.time)
        assert label_rows(twice) == label_rows(once)

    def test_degenerate_span_maps_to_zero(self):
        ev = _parse("source,dest,timestamp\na,b,5\nb,c,5\n")
        assert np.all(ev.time == 0.0)

    @pytest.mark.skipif(
        not __import__("pathlib").Path(__file__).resolve().parent.parent.joinpath(
            "data/highschool.csv"
        ).exists(),
        reason="prepared HighSchool dataset not present (see README)",
    )
    def test_highschool_statistics(self):
        from pathlib import Path

        path = Path(__file__).resolve().parent.parent / "data/highschool.csv"
        ev = parse_events(path)
        assert ev.n == 180
        assert ev.m == 9957
        assert len(ev.unique_pairs()) == 758


class TestIntervalPartition:
    def test_uniform_cut_points(self):
        part = IntervalPartition.uniform(15)
        assert np.array_equal(part.cut_points, np.arange(16) / 15)
        assert part.K == 15

    def test_left_boundary_in_interval_one(self):
        part = IntervalPartition.uniform(15)
        assert part.interval_of(0.0) == 1

    def test_right_closure(self):
        part = IntervalPartition.uniform(15)
        assert part.interval_of(1.0) == 15

    def test_internal_cut_point_goes_right(self):
        part = IntervalPartition.uniform(4)
        assert part.interval_of(0.25) == 2

    def test_invalid_partitions_rejected(self):
        with pytest.raises(ValueError):
            IntervalPartition(np.array([0.0, 0.5, 0.5, 1.0]))
        with pytest.raises(ValueError):
            IntervalPartition(np.array([0.1, 1.0]))

    def test_out_of_range_time_rejected(self):
        part = IntervalPartition.uniform(3)
        with pytest.raises(ValueError):
            part.interval_of(1.5)

    @settings(max_examples=50, deadline=None)
    @given(
        t=st.floats(0.0, 1.0),
        K=st.integers(1, 12),
    )
    def test_local_coord_reconstructs_time(self, t, K):
        part = IntervalPartition.uniform(K)
        k, s = part.local_coord(t)
        assert 1 <= k <= K
        assert 0.0 <= s <= 1.0
        a, b = part.bounds(k)
        assert np.isclose((1 - s) * a + s * b, t, atol=1e-12)
        assert a <= t <= b


class TestIntervalCounts:
    def test_sbm_counts_match_generator_draws(self, sbm_sample):
        part = IntervalPartition(np.array([0.0, 1 / 3, 2 / 3, 1.0]))
        counts = interval_counts(sbm_sample.events, part)
        expected = {
            (i, j, s + 1): c for (i, j, s), c in sbm_sample.segment_counts.items()
        }
        assert counts.counts == expected

    def test_counts_partition_events(self, sbm_sample):
        part = IntervalPartition.uniform(15)
        counts = interval_counts(sbm_sample.events, part)
        assert counts.total() == sbm_sample.events.m

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), K=st.integers(1, 9))
    def test_counts_partition_events_property(self, seed, K):
        ev = random_events(n=6, m=25, seed=seed)
        counts = interval_counts(ev, IntervalPartition.uniform(K))
        assert counts.total() == ev.m


class TestNodeDegree:
    def test_isolated_node_zero(self, sbm_sample):
        part = IntervalPartition.uniform(3)
        ev = random_events(n=5, m=10, seed=1)
        counts = interval_counts(ev, part)
        isolated = EventList(
            src=ev.src, dst=ev.dst, time=ev.time, n=6, directed=False
        )
        counts6 = interval_counts(isolated, part)
        assert all(node_degree(counts6, 5, k) == 0 for k in (1, 2, 3))

    def test_additivity(self):
        part = IntervalPartition.uniform(1)
        ev = EventList(
            src=np.array([0, 0, 0, 0, 0]),
            dst=np.array([1, 1, 5, 5, 5]),
            time=np.linspace(0, 1, 5),
            n=6,
        )
        counts = interval_counts(ev, part)
        assert node_degree(counts, 0, 1) == 5

    def test_handshake_identity(self, sbm_sample):
        part = IntervalPartition.uniform(6)
        counts = interval_counts(sbm_sample.events, part)
        for k in range(1, 7):
            total_deg = sum(node_degree(counts, i, k) for i in range(counts.n))
            in_k = sum(c for (_i, _j, kk), c in counts.counts.items() if kk == k)
            assert total_deg == 2 * in_k


class TestSplitEdges:
    def test_sizes_floor(self, sbm_sample):
        ev = sbm_sample.events
        n_pairs = len(ev.unique_pairs())
        split = split_edges(ev, 0.1, 0.0, seed=0)
        assert len(split.test) == int(n_pairs * 0.1)
        assert len(split.train) == n_pairs - len(split.test)

    def test_zero_test_frac_all_train(self, ten_node_events):
        split = split_edges(ten_node_events, 0.0, 0.0, seed=0)
        assert split.test == frozenset() and split.val == frozenset()
        assert split.train == frozenset(ten_node_events.unique_pairs())

    def test_deterministic(self, sbm_sample):
        a = split_edges(sbm_sample.events, 0.2, 0.1, seed=42)
        b = split_edges(sbm_sample.events, 0.2, 0.1, seed=42)
        assert a == b

    def test_too_few_pairs_rejected(self):
        ev = EventList(
            src=np.array([0, 0]), dst=np.array([1, 1]), time=np.array([0.0, 1.0]), n=2
        )
        with pytest.raises(ValueError, match="at least 3"):
            split_edges(ev, 0.5, 0.0, seed=0)

    def test_bad_fractions_rejected(self, ten_node_events):
        with pytest.raises(ValueError):
            split_edges(ten_node_events, 0.8, 0.2, seed=0)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        test_frac=st.floats(0.0, 0.5),
        val_frac=st.floats(0.0, 0.4),
    )
    def test_partition_property(self, ten_node_events, seed, test_frac, val_frac):
        split = split_edges(ten_node_events, test_frac, val_frac, seed=seed)
        pairs = frozenset(ten_node_events.unique_pairs())
        assert split.train | split.val | split.test == pairs
        assert not (split.train & split.val)
        assert not (split.train & split.test)
        assert not (split.val & split.test)


class TestSampleNegativePairs:
    def test_fully_connected_node_has_no_pool(self):
        ev = EventList(
            src=np.array([0, 0, 0]),
            dst=np.array([1, 2, 3]),
            time=np.array([0.1, 0.2, 0.3]),
            n=4,
        )
        pairs, pool = sample_negative_pairs(ev, 0, count=5, seed=0)
        assert pairs == set() and pool == 0

    def test_pool_smaller_than_count(self):
        ev = EventList(
            src=np.array([0]), dst=np.array([1]), time=np.array([0.5]), n=5
        )
        pairs, pool = sample_negative_pairs(ev, 0, count=10, seed=0)
        assert pairs == {(0, 2), (0, 3), (0, 4)}
        assert pool == 3

    def test_excluded_pairs_respected(self, ten_node_events):
        excluded = {(0, 3), (4, 0)}
        pairs, _pool = sample_negative_pairs(
            ten_node_events, 0, count=50, excluded=excluded, seed=1
        )
        partners = ten_node_events.partners(0)
        for i, j in pairs:
            assert i == 0 and j != 0
            assert j not in partners
            assert j not in (3, 4)

    def test_never_returns_event_pairs(self, ten_node_events):
        for seed in range(20):
            pairs, _ = sample_negative_pairs(ten_node_events, 2, count=4, seed=seed)
            history = ten_node_events.unique_pairs()
            for i, j in pairs:
                assert (min(i, j), max(i, j)) not in history

    def test_reweighting_unbiased(self, ten_node_events):
        """(pool/S) * sum over a sample estimates the full-pool sum."""
        ev = ten_node_events
        rng = np.random.default_rng(0)
        f = rng.random(ev.n)  # arbitrary per-partner values
        i = 0
        full_pairs, pool = sample_negative_pairs(ev, i, count=ev.n, seed=0)
        assert pool == len(full_pairs)
        exact = sum(f[j] for _, j in full_pairs)
        draws = 10_000
        take = 3
        estimates = np.empty(draws)
        for s in range(draws):
            pairs, pool_s = sample_negative_pairs(ev, i, count=take, seed=s)
            estimates[s] = (pool_s / len(pairs)) * sum(f[j] for _, j in pairs)
        se = estimates.std(ddof=1) / np.sqrt(draws)
        assert abs(estimates.mean() - exact) < 3 * se


def _count_tensor_cases():
    """(undirected, directed) count tensors with repeated pair-interval keys."""
    part = IntervalPartition.uniform(3)
    return [
        interval_counts(random_events(n=7, m=40, seed=11), part),
        interval_counts(random_events(n=7, m=40, seed=12, directed=True), part),
    ]


class TestCountIndex:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(2, 8),
        K=st.integers(1, 5),
        directed=st.booleans(),
        extra=st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(0, 6)), max_size=30
        ),
    )
    def test_counts_of_matches_count(self, seed, n, K, directed, extra):
        ev = random_events(n=n, m=20, seed=seed, directed=directed)
        counts = interval_counts(ev, IntervalPartition.uniform(K))
        # stored keys, their reversed orientation, and arbitrary (often absent) triplets
        triplets = [key for key in counts.counts]
        triplets += [(j, i, k) for i, j, k in counts.counts]
        triplets += [(i % n, j % n, k) for i, j, k in extra]
        if not triplets:
            return
        ii, jj, kk = (np.asarray(col) for col in zip(*triplets))
        got = counts.counts_of(ii, jj, kk)
        assert got.dtype == np.int64
        assert got.tolist() == [counts.count(i, j, k) for i, j, k in triplets]

    def test_counts_of_empty_tensor_and_broadcast_interval(self):
        part = IntervalPartition.uniform(2)
        empty = interval_counts(
            EventList(src=np.empty(0), dst=np.empty(0), time=np.empty(0), n=3), part
        )
        assert empty.counts_of(np.array([0, 1]), np.array([1, 2]), 1).tolist() == [0, 0]
        counts = _count_tensor_cases()[0]
        ii, jj = np.array([0, 1, 2]), np.array([3, 4, 5])
        assert counts.counts_of(ii, jj, 2).tolist() == [
            counts.count(i, j, 2) for i, j in zip(ii.tolist(), jj.tolist())
        ]

    @pytest.mark.parametrize("case", [0, 1], ids=["undirected", "directed"])
    def test_degrees_match_key_loop(self, case):
        counts = _count_tensor_cases()[case]
        ref = np.zeros((counts.n, counts.K), dtype=np.int64)
        for (i, j, k), c in counts.counts.items():
            ref[i, k - 1] += c
            ref[j, k - 1] += c
        assert np.array_equal(counts.degrees, ref)
        assert counts.degree(3, 2) == ref[3, 1]

    @pytest.mark.parametrize("case", [0, 1], ids=["undirected", "directed"])
    def test_neighbors_match_scan(self, case):
        counts = _count_tensor_cases()[case]
        for i in range(counts.n):
            for k in range(1, counts.K + 1):
                scan = [j for j in range(counts.n) if j != i and counts.count(i, j, k) >= 1]
                assert counts.neighbors(i, k).tolist() == scan

    def test_neighbors_rejects_out_of_range(self):
        counts = _count_tensor_cases()[0]
        for i, k in [(0, 0), (0, counts.K + 1), (-1, 1), (counts.n, 1)]:
            with pytest.raises(ValueError):
                counts.neighbors(i, k)
