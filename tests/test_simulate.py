import csv

import numpy as np
import pytest
from scipy.stats import kstest

from tgne.simulate import SbmSpec, sbm_generate, write_labels_csv

THIRDS = ((0.0, 1.0 / 3.0), (1.0 / 3.0, 2.0 / 3.0), (2.0 / 3.0, 1.0))


def expected_total_events(spec: SbmSpec) -> float:
    """Closed-form expectation of the generated event count."""
    labels = sbm_generate(spec).labels
    total = 0.0
    for s in range(labels.shape[1]):
        for i in range(spec.n):
            for j in range(i + 1, spec.n):
                same = labels[i, s] == labels[j, s]
                total += spec.intra_rate if same else spec.inter_rate
    return total


def reference_draw(spec: SbmSpec):
    """The documented scenario drawn pair by pair from the generator's stream:
    per third, one ``rng.poisson`` over the pairs in (i, j) order, then one
    ``rng.random`` for the timestamps of those pairs' events in that order."""

    def cluster(i, s):
        if i == 0:
            return (0, 2, 1)[s]
        return 0 if i < spec.n // 2 else 1

    rng = np.random.default_rng(spec.seed)
    pairs = [(i, j) for i in range(spec.n) for j in range(i + 1, spec.n)]
    src, dst, t, counts = [], [], [], {}
    for s, (start, end) in enumerate(THIRDS):
        rates = [
            spec.intra_rate if cluster(i, s) == cluster(j, s) else spec.inter_rate
            for i, j in pairs
        ]
        drawn = rng.poisson(rates).tolist()
        u = iter(rng.random(sum(drawn)).tolist())
        for (i, j), c in zip(pairs, drawn):
            if c:
                counts[(i, j, s)] = c
            for _ in range(c):
                src.append(i)
                dst.append(j)
                t.append(start + next(u) * (end - start))
    order = np.argsort(np.asarray(t, dtype=np.float64), kind="stable")
    return (np.asarray(src, dtype=np.int64)[order], np.asarray(dst, dtype=np.int64)[order],
            np.asarray(t, dtype=np.float64)[order], counts)


class TestSbmGenerate:
    def test_zero_rates_give_empty_network(self):
        spec = SbmSpec(n=10, intra_rate=0.0, inter_rate=0.0, seed=0)
        sample = sbm_generate(spec)
        assert sample.events.m == 0
        assert sample.segment_counts == {}

    def test_single_pair_poisson_mean(self):
        """At n = 2 the one pair is apart (clusters 0, 1 and then 2, 1) in the
        first two thirds and together (1, 1) in the last."""
        draws = 10_000
        counts = np.zeros((draws, 3))
        for seed in range(draws):
            sample = sbm_generate(SbmSpec(n=2, intra_rate=5.0, inter_rate=2.0, seed=seed))
            for (_, _, s), c in sample.segment_counts.items():
                counts[seed, s] = c
        for s, rate in enumerate((2.0, 2.0, 5.0)):
            se = np.sqrt(rate / draws)
            assert abs(counts[:, s].mean() - rate) < 3 * se

    def test_total_events_match_closed_form_expectation(self):
        expected = expected_total_events(SbmSpec(seed=0))
        runs = 150
        totals = np.empty(runs)
        for seed in range(runs):
            totals[seed] = sbm_generate(SbmSpec(seed=seed)).events.m
        se = np.sqrt(expected / runs)  # Poisson sum: variance = mean
        assert abs(totals.mean() - expected) < 3 * se

    def test_counts_are_recorded_exactly(self, sbm_sample):
        by_pair = {}
        for a, b, t in zip(
            sbm_sample.events.src.tolist(),
            sbm_sample.events.dst.tolist(),
            sbm_sample.events.time.tolist(),
        ):
            s = min(2, int(3 * t))
            key = (a, b, s)
            by_pair[key] = by_pair.get(key, 0) + 1
        assert by_pair == sbm_sample.segment_counts

    def test_timestamps_strictly_inside_segments(self, sbm_sample):
        t = sbm_sample.events.time
        for boundary in (0.0, 1 / 3, 2 / 3, 1.0):
            assert not np.any(t == boundary)

    def test_events_sorted(self, sbm_sample):
        assert np.all(np.diff(sbm_sample.events.time) >= 0)

    def test_switching_node_labels(self):
        sample = sbm_generate(SbmSpec(seed=3))
        assert sample.labels[0].tolist() == [0, 2, 1]
        assert sample.labels[5].tolist() == [0, 0, 0]
        assert sample.labels[45].tolist() == [1, 1, 1]

    def test_deterministic_under_seed(self):
        a = sbm_generate(SbmSpec(seed=9))
        b = sbm_generate(SbmSpec(seed=9))
        assert np.array_equal(a.events.time, b.events.time)
        assert np.array_equal(a.events.src, b.events.src)

    def test_timestamps_uniform_within_segment(self):
        sample = sbm_generate(SbmSpec(n=2, intra_rate=10_000.0, inter_rate=5_000.0, seed=11))
        t = sample.events.time
        for start, end in THIRDS:
            within = (t[(t > start) & (t < end)] - start) / (end - start)
            assert within.size > 4000
            assert kstest(within, "uniform").pvalue > 0.01

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError, match="rates must be finite and >= 0"):
            SbmSpec(n=3, intra_rate=-1.0)

    @pytest.mark.parametrize("kwargs", [
        {"n": 1}, {"inter_rate": -0.5}, {"intra_rate": float("nan")}, {"inter_rate": float("inf")},
    ])
    def test_invalid_spec_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SbmSpec(**kwargs)

    @pytest.mark.parametrize("n, intra, inter, seed", [
        (60, 8.0, 0.3, 0), (60, 8.0, 0.3, 1), (7, 8.0, 0.3, 2), (2, 5.0, 5.0, 3),
        (10, 0.0, 0.0, 0), (3, 0.0, 1.0, 9),
    ])
    def test_random_stream_is_pinned(self, n, intra, inter, seed):
        """Counts and times are exactly those of ``reference_draw``."""
        spec = SbmSpec(n=n, intra_rate=intra, inter_rate=inter, seed=seed)
        sample = sbm_generate(spec)
        src, dst, t, counts = reference_draw(spec)
        ev = sample.events
        for got, want in ((ev.src, src), (ev.dst, dst), (ev.time, t)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert sample.segment_counts == counts


def test_labels_file_matches_csv_writer(tmp_path):
    sample = sbm_generate(SbmSpec(n=7, seed=2))
    write_labels_csv(sample, tmp_path / "labels.csv")
    with open(tmp_path / "ref.csv", "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["node", "segment", "cluster"])
        n, n_seg = sample.labels.shape
        writer.writerows(
            [i, s + 1, int(sample.labels[i, s])] for i in range(n) for s in range(n_seg)
        )
    assert (tmp_path / "labels.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
