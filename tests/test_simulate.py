import csv

import numpy as np
import pytest
from scipy.stats import kstest

from tgne.simulate import SbmSpec, default_sbm_spec, sbm_generate, write_labels_csv


def expected_total_events(spec: SbmSpec) -> float:
    """Closed-form expectation of the generated event count."""
    total = 0.0
    for s in range(spec.n_segments):
        labels = [spec.membership(i, s) for i in range(spec.n)]
        for i in range(spec.n):
            for j in range(i + 1, spec.n):
                total += spec.rate(labels[i], labels[j])
    return total


class TestSbmGenerate:
    def test_zero_rates_give_empty_network(self):
        spec = default_sbm_spec(n=10, intra_rate=0.0, inter_rate=0.0, seed=0)
        sample = sbm_generate(spec)
        assert sample.events.m == 0
        assert sample.segment_counts == {}

    def test_single_pair_poisson_mean(self):
        spec = SbmSpec(
            n=2,
            segments=((0.0, 1.0),),
            membership=lambda i, s: 0,
            rate=lambda a, b: 5.0,
        )
        draws = 10_000
        counts = np.empty(draws)
        for seed in range(draws):
            spec.seed = seed
            counts[seed] = sbm_generate(spec).events.m
        se = np.sqrt(5.0 / draws)
        assert abs(counts.mean() - 5.0) < 3 * se

    def test_total_events_match_closed_form_expectation(self):
        spec = default_sbm_spec(seed=0)
        expected = expected_total_events(spec)
        runs = 150
        totals = np.empty(runs)
        for seed in range(runs):
            totals[seed] = sbm_generate(default_sbm_spec(seed=seed)).events.m
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
        sample = sbm_generate(default_sbm_spec(seed=3))
        assert sample.labels[0].tolist() == [0, 2, 1]
        assert sample.labels[5].tolist() == [0, 0, 0]
        assert sample.labels[45].tolist() == [1, 1, 1]

    def test_deterministic_under_seed(self):
        a = sbm_generate(default_sbm_spec(seed=9))
        b = sbm_generate(default_sbm_spec(seed=9))
        assert np.array_equal(a.events.time, b.events.time)
        assert np.array_equal(a.events.src, b.events.src)

    def test_timestamps_uniform_within_segment(self):
        spec = SbmSpec(
            n=2,
            segments=((0.0, 0.25), (0.25, 1.0)),
            membership=lambda i, s: 0,
            rate=lambda a, b: 10_000.0,
            seed=11,
        )
        sample = sbm_generate(spec)
        t = sample.events.time
        seg1 = t[t < 0.25] / 0.25
        seg2 = (t[t >= 0.25] - 0.25) / 0.75
        assert seg1.size > 5000 and seg2.size > 5000
        assert kstest(seg1, "uniform").pvalue > 0.01
        assert kstest(seg2, "uniform").pvalue > 0.01

    def test_invalid_segments_rejected(self):
        with pytest.raises(ValueError):
            SbmSpec(
                n=4,
                segments=((0.0, 0.5), (0.6, 1.0)),
                membership=lambda i, s: 0,
                rate=lambda a, b: 1.0,
            )
        with pytest.raises(ValueError):
            SbmSpec(
                n=4,
                segments=((0.0, 0.5),),
                membership=lambda i, s: 0,
                rate=lambda a, b: 1.0,
            )

    def test_negative_rate_rejected(self):
        spec = SbmSpec(
            n=3,
            segments=((0.0, 1.0),),
            membership=lambda i, s: 0,
            rate=lambda a, b: -1.0,
        )
        with pytest.raises(ValueError):
            sbm_generate(spec)


def test_labels_file_matches_csv_writer(tmp_path):
    sample = sbm_generate(default_sbm_spec(n=7, seed=2))
    write_labels_csv(sample, tmp_path / "labels.csv")
    with open(tmp_path / "ref.csv", "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["node", "segment", "cluster"])
        n, n_seg = sample.labels.shape
        writer.writerows(
            [i, s + 1, int(sample.labels[i, s])] for i in range(n) for s in range(n_seg)
        )
    assert (tmp_path / "labels.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
