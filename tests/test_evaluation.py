import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import minimize
from scipy.special import expit
from scipy.stats import rankdata

from tgne import evaluation, events, expectations
from tgne.events import (
    CSV_CHUNK_ROWS,
    EventList,
    IntervalPartition,
    interval_counts,
    pair_codes,
    split_edges,
    write_csv_chunks,
)
from tgne.evaluation import (
    InstanceTable,
    LsdmModel,
    LsdmOpts,
    _lambda_batch,
    _average_ranks,
    _rejection_sample,
    _swapped_destinations,
    auc,
    auc_from_scores,
    build_instances,
    edge_table,
    fit_lsdm,
    fit_lsdm_intervals,
    lsdm_score,
    neighbor_distance,
    node_table,
    node_uncertainty,
    rate_vs_uncertainty_table,
    regression_slope_from_points,
    restrict_counts,
    score_instances,
    uncertainty_regression,
)
from tgne.expectations import _exact_lambda_moments, _exact_rate_std
from tgne.inference import FittedModel, Hyperparams, VariationalState, empirical_beta, fit
from tgne.model import DOT, EUCLIDEAN, SamplingPlan, realize_plan

from conftest import (
    canonical_pair,
    counts_dict,
    cumulative_rate_riemann,
    lsdm_nll_grad,
    pair_times,
    posterior_draws,
    random_events,
)


@pytest.fixture(scope="module")
def fitted_sbm(sbm_sample):
    """A moderately trained model on the full fixture, shared by this module."""
    return fit(sbm_sample.events, Hyperparams(tau=1.0, epochs=300, seed=0))


def static_model(mu_points, sigma=0.1, beta=0.0, K=15, d=2):
    """FittedModel with constant-in-time means at the given points."""
    n = len(mu_points)
    part = IntervalPartition.uniform(K)
    mu = np.zeros((n, K + 1, d))
    for i, p in enumerate(mu_points):
        mu[i, :, :] = p
    state = VariationalState(
        mu=mu, log_sigma=np.full((n, K + 1), np.log(sigma)), beta=beta
    )
    return FittedModel(
        state=state,
        hyper=Hyperparams(d=d, K=K),
        part=part,
        loss_trace=np.empty(0),
        node_labels=[str(i) for i in range(n)],
    )


class TestBuildInstances:
    def test_one_to_one_ratio(self, ten_node_events):
        part = IntervalPartition.uniform(4)
        counts = interval_counts(ten_node_events, part)
        pairs = set(ten_node_events.unique_pairs())
        instances, shortfall = build_instances(counts, pairs, part, seed=0)
        assert shortfall == {}
        for k in range(1, 5):
            in_k = instances.k == k
            assert (in_k & (instances.label == 1)).sum() == (in_k & (instances.label == 0)).sum()

    def test_exhausted_negatives_shortfall(self):
        # two nodes, single pair, active in the only interval: no negatives exist
        ev = random_events(n=2, m=6, seed=0)
        part = IntervalPartition.uniform(1)
        counts = interval_counts(ev, part)
        instances, shortfall = build_instances(counts, {(0, 1)}, part, seed=0)
        assert (instances.label == 1).all()
        assert shortfall == {1: 1}

    def test_labels_match_event_recomputation(self, sbm_sample):
        ev = sbm_sample.events
        part = IntervalPartition.uniform(15)
        counts = interval_counts(ev, part)
        split = split_edges(ev, 0.2, 0.0, seed=1)
        instances, _ = build_instances(counts, split.test, part, seed=2)
        rows = zip(*(col[:300].tolist() for col in (instances.i, instances.j, instances.k,
                                                      instances.label)))
        for i, j, k, label in rows:
            times = pair_times(ev, i, j)
            a, b = part.bounds(k)
            active = np.any((times >= a) & ((times < b) | ((k == 15) & (times <= b))))
            assert label == int(active)

    def test_negatives_inactive_and_unique_per_interval(self, sbm_sample):
        ev = sbm_sample.events
        part = IntervalPartition.uniform(15)
        counts = interval_counts(ev, part)
        split = split_edges(ev, 0.1, 0.0, seed=3)
        instances, _ = build_instances(counts, split.test, part, seed=4)
        neg = instances.label == 0
        ii, jj, kk = instances.i[neg], instances.j[neg], instances.k[neg]
        assert (counts.counts_of(ii, jj, kk) == 0).all()
        assert len(set(zip(ii.tolist(), jj.tolist(), kk.tolist()))) == neg.sum()

    def test_deterministic(self, ten_node_events):
        part = IntervalPartition.uniform(3)
        counts = interval_counts(ten_node_events, part)
        pairs = set(ten_node_events.unique_pairs())
        a, short_a = build_instances(counts, pairs, part, seed=9)
        b, short_b = build_instances(counts, pairs, part, seed=9)
        for col in ("i", "j", "k", "label"):
            assert np.array_equal(getattr(a, col), getattr(b, col))
        assert short_a == short_b

    def test_directed_universe_including_dense_intervals(self):
        # dense: 3 nodes, nearly every ordered pair active in the one interval
        ev = random_events(n=3, m=30, seed=4, directed=True)
        part = IntervalPartition.uniform(1)
        counts = interval_counts(ev, part)
        instances, _short = build_instances(
            counts, ev.unique_pairs(), part, seed=0
        )
        neg = instances.label == 0
        assert (counts.counts_of(instances.i[neg], instances.j[neg], 1) == 0).all()
        # sparse: the rejection path on a larger directed graph
        ev2 = random_events(n=12, m=10, seed=5, directed=True)
        counts2 = interval_counts(ev2, IntervalPartition.uniform(2))
        inst2, _ = build_instances(counts2, ev2.unique_pairs(), IntervalPartition.uniform(2), seed=1)
        n_pos = inst2.label.sum()
        assert n_pos and len(inst2) == 2 * n_pos

    @pytest.mark.parametrize("pairs", [{(4, 67)}, [(0, 1), (-1, 3), (2, 60)]])
    def test_pair_outside_the_nodes_rejected(self, sbm_sample, pairs):
        # (4, 67) has the code 4 * 60 + 67 of the active pair (5, 7)
        part = IntervalPartition.uniform(15)
        counts = interval_counts(sbm_sample.events, part)
        first = next(p for p in pairs if not all(0 <= v < 60 for v in p))
        with pytest.raises(ValueError, match=rf"pair \({first[0]}, {first[1]}\)"):
            build_instances(counts, pairs, part, seed=0)


def _build_instances_loop(counts, pairs, part, seed):
    """The per-row form of build_instances: dict keys, pair sets, rows."""
    n = counts.n
    universe = n * (n - 1) if counts.directed else n * (n - 1) // 2
    active_by_k = {k: set() for k in range(1, part.K + 1)}
    for a, b, k in counts_dict(counts):
        active_by_k[k].add((a, b))
    canon = sorted({canonical_pair(a, b, counts.directed) for a, b in pairs})
    rng = np.random.default_rng(seed)
    rows, shortfall = [], {}
    for k in range(1, part.K + 1):
        positives = [(i, j) for i, j in canon if (i, j) in active_by_k[k]]
        rows += [(i, j, k, 1) for i, j in positives]
        active = active_by_k[k]
        n_inactive = universe - len(active)
        take = min(len(positives), n_inactive)
        if take < len(positives):
            shortfall[k] = len(positives) - take
        if take and n_inactive <= 4 * take:
            inactive = [
                (i, j)
                for i in range(n)
                for j in (range(n) if counts.directed else range(i + 1, n))
                if i != j and (i, j) not in active
            ]
            picks = rng.choice(len(inactive), size=take, replace=False)
            chosen = {inactive[c] for c in picks.tolist()}
        else:
            chosen = _rejection_loop(rng, n, counts.directed, active, take)
        rows += [(i, j, k, 0) for i, j in sorted(chosen)]
    return rows, shortfall


def _rejection_loop(rng, n, directed, active, take):
    """The scalar loop that ``_rejection_sample`` reproduces draw for draw."""
    chosen = set()
    while len(chosen) < take:
        i = int(rng.integers(n))
        j = int(rng.integers(n))
        if i == j:
            continue
        p = canonical_pair(i, j, directed)
        if p in active or p in chosen:
            continue
        chosen.add(p)
    return sorted(chosen)


def _check_rejection_sample(rng_seed, n, directed, intervals):
    """``intervals``: (active pairs, take) drawn in sequence from one generator each."""
    loop_rng, batch_rng = np.random.default_rng(rng_seed), np.random.default_rng(rng_seed)
    for active, take in intervals:
        expected = _rejection_loop(loop_rng, n, directed, active, take)
        codes = np.sort(np.asarray([a * n + b for a, b in active], dtype=np.int64))
        got = _rejection_sample(batch_rng, n, directed, codes, take)
        assert got.tolist() == [a * n + b for a, b in expected]
        assert batch_rng.bit_generator.state == loop_rng.bit_generator.state


class TestRejectionSample:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1), n=st.integers(3, 12), directed=st.booleans(),
        fractions=st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=1, max_size=4),
    )
    def test_matches_scalar_loop(self, seed, n, directed, fractions):
        # small n: self pairs, active pairs and repeats are frequent rejections
        universe = [(a, b) for a in range(n) for b in range(n) if a != b and (directed or a < b)]
        pick = np.random.default_rng(seed + 1)
        intervals = []
        for active_frac, take_frac in fractions:
            mask = pick.random(len(universe)) < active_frac
            active = {p for p, hit in zip(universe, mask.tolist()) if hit}
            take = int(take_frac * (len(universe) - len(active)))
            intervals.append((active, take))
        _check_rejection_sample(seed, n, directed, intervals)

    @pytest.mark.parametrize("n", [750, 2**31 + 5])
    @pytest.mark.parametrize("directed", [False, True])
    def test_large_n(self, n, directed):
        pick = np.random.default_rng(n)
        active = set()
        while len(active) < 40:
            a, b = pick.integers(n, size=2).tolist()
            if a != b:
                active.add(canonical_pair(a, b, directed))
        _check_rejection_sample(3, n, directed, [(active, 200), (set(), 1), (active, 0)])


class TestInstanceTable:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000), n=st.integers(3, 9), m=st.integers(1, 60),
        K=st.integers(1, 4), directed=st.booleans(), frac=st.floats(0.1, 1.0),
    )
    def test_matches_row_loop(self, seed, n, m, K, directed, frac):
        # small n and many events make the dense (enumerating) branch common
        ev = random_events(n=n, m=m, seed=seed, directed=directed)
        part = IntervalPartition.uniform(K)
        counts = interval_counts(ev, part)
        pairs = sorted(ev.unique_pairs())
        pairs = pairs[: max(1, int(len(pairs) * frac))]
        table, shortfall = build_instances(counts, pairs, part, seed=seed)
        rows, ref_shortfall = _build_instances_loop(counts, pairs, part, seed)
        columns = (table.i, table.j, table.k, table.label)
        assert list(zip(*(col.tolist() for col in columns))) == rows
        assert shortfall == ref_shortfall
        assert table.i.dtype == table.j.dtype == table.k.dtype == np.int64


class TestRestrictCounts:
    @pytest.mark.parametrize("directed", [False, True])
    def test_matches_key_filter(self, directed):
        ev = random_events(n=8, m=50, seed=21, directed=directed)
        counts = interval_counts(ev, IntervalPartition.uniform(3))
        pairs = sorted(ev.unique_pairs())[::2]
        # reversed orientation and never-active pairs too
        given_pairs = [(j, i) for i, j in pairs[:3]] + pairs[3:] + [(0, 7)]
        keep = {canonical_pair(a, b, directed) for a, b in given_pairs}
        ref = {key: c for key, c in counts_dict(counts).items() if (key[0], key[1]) in keep}
        sub = restrict_counts(counts, given_pairs)
        assert counts_dict(sub) == ref
        assert sub.codes.tolist() == sorted(sub.codes.tolist())
        for bad in ((0, 8), (-1, 2)):
            with pytest.raises(ValueError, match="names a node outside"):
                restrict_counts(counts, given_pairs + [bad])


PAIR_SET_ENTRY_POINTS = ("restrict_counts", "build_instances", "fit_lsdm_intervals",
                         "empirical_beta", "realize_plan")


def read_pair_set(entry, ev, part, counts, pairs):
    """What the entry point makes of the pair set ``pairs``: its arrays as
    bytes, and its other results as they are."""
    if entry == "restrict_counts":
        sub = restrict_counts(counts, pairs)
        out = [sub.codes, sub.values]
    elif entry == "build_instances":
        table, shortfall = build_instances(counts, pairs, part, seed=3)
        out = [table.i, table.j, table.k, table.label, shortfall]
    elif entry == "fit_lsdm_intervals":
        fits = fit_lsdm_intervals(counts, pairs, 2, LsdmOpts(iters=10, seed=1))
        out = [x for m in fits.values() for x in (m.z, m.beta, m.nll_trace)]
    elif entry == "empirical_beta":
        out = [empirical_beta(ev, pairs)]
    else:
        plan = SamplingPlan(negatives_per_node=3, seed=4, excluded_pairs=pairs)
        terms = realize_plan(ev, part, plan)
        out = [getattr(terms, f.name) for f in dataclasses.fields(terms)
               if f.name != "pair_incidence"]
    return [x.tobytes() if isinstance(x, np.ndarray) else x for x in out]


class TestPairArguments:
    """A pair argument may be a frozenset of tuples or any other form of the
    same set that ``pair_codes`` reads, with bit-equal results; a pair naming
    a node outside 0..n-1 raises one message from every entry point."""

    @staticmethod
    def forms(pairs):
        pairs = sorted(pairs)
        return frozenset(pairs), np.asarray(pairs, dtype=np.int64).reshape(-1, 2)

    @staticmethod
    def split_case(directed):
        ev = random_events(n=12, m=90, seed=8, directed=directed)
        part = IntervalPartition.uniform(3)
        return ev, part, interval_counts(ev, part), split_edges(ev, 0.2, 0.1, seed=2)

    @pytest.mark.parametrize("directed", [False, True])
    def test_restrict_counts(self, directed):
        ev, _part, counts, split = self.split_case(directed)
        # reversed and never-active pairs are in the argument too
        given = set(split.train) | {(b, a) for a, b in split.test} | {(5, 5)}
        for pairs in (given, set(split.train), set()):
            as_set, as_array = self.forms(pairs)
            a, b = restrict_counts(counts, as_set), restrict_counts(counts, as_array)
            assert a.codes.tobytes() == b.codes.tobytes()
            assert a.values.tobytes() == b.values.tobytes()
        for bad in ((0, 12), (-1, 3)):
            for form in self.forms(given | {bad}):
                with pytest.raises(ValueError, match="names a node outside"):
                    restrict_counts(counts, form)

    @pytest.mark.parametrize("directed", [False, True])
    def test_build_instances(self, directed):
        _ev, part, counts, split = self.split_case(directed)
        for pairs in (split.train, split.test, frozenset()):
            as_set, as_array = self.forms(pairs)
            a, short_a = build_instances(counts, as_set, part, seed=3)
            b, short_b = build_instances(counts, as_array, part, seed=3)
            for col in ("i", "j", "k", "label"):
                assert getattr(a, col).tobytes() == getattr(b, col).tobytes()
            assert short_a == short_b

    @pytest.mark.parametrize("directed", [False, True])
    def test_fit_lsdm_intervals(self, directed):
        _ev, _part, counts, split = self.split_case(directed)
        train_counts = restrict_counts(counts, split.train)
        opts = LsdmOpts(iters=25, seed=1)
        as_set, as_array = self.forms(split.train)
        a = fit_lsdm_intervals(train_counts, as_set, 2, opts)
        b = fit_lsdm_intervals(train_counts, as_array, 2, opts)
        for k in a:
            assert a[k].z.tobytes() == b[k].z.tobytes() and a[k].beta == b[k].beta
            assert a[k].nll_trace.tobytes() == b[k].nll_trace.tobytes()
        for empty in self.forms(()):
            with pytest.raises(ValueError, match="at least one training pair"):
                fit_lsdm_intervals(train_counts, empty, 2, opts)

    @pytest.mark.parametrize("directed", [False, True])
    def test_empirical_beta(self, directed):
        ev, _part, _counts, split = self.split_case(directed)
        for pairs in (split.held_out(), split.train, frozenset()):
            as_set, as_array = self.forms(pairs)
            assert empirical_beta(ev, as_set) == empirical_beta(ev, as_array)
        held_out = events.pair_rows(split.held_out_codes, ev.n)
        assert empirical_beta(ev, held_out) == empirical_beta(ev, split.held_out())

    @staticmethod
    def other_forms(pairs, directed):
        """The pair set ``pairs`` in every form but the frozenset."""
        rows = sorted(pairs)
        forms = {
            "list": rows[::-1],
            "generator": (p for p in rows),
            "int32": np.asarray(rows, dtype=np.int32).reshape(-1, 2),
            "duplicated": np.asarray(rows + rows[::2], dtype=np.int64).reshape(-1, 2),
        }
        if not directed:
            forms["reversed"] = [(b, a) for a, b in rows]
        return forms

    @pytest.mark.parametrize("entry", PAIR_SET_ENTRY_POINTS)
    def test_every_form_reads_as_the_frozenset(self, entry):
        for directed in (False, True):
            ev, part, counts, split = self.split_case(directed)
            want = read_pair_set(entry, ev, part, counts, split.train)
            for name, pairs in self.other_forms(split.train, directed).items():
                assert read_pair_set(entry, ev, part, counts, pairs) == want, name
            rows = sorted(split.train)
            bad = rows[:3] + [(3, 12)] + rows[3:] + [(-1, 0)]
            for pairs in (bad, frozenset(bad) - {(-1, 0)}, np.asarray(bad, dtype=np.int32)):
                with pytest.raises(ValueError, match=r"pair \(3, 12\) names a node outside 0\.\.11"):
                    read_pair_set(entry, ev, part, counts, pairs)



def scored_table(scores, labels) -> InstanceTable:
    """Instances of one pair and interval with the given scores and labels."""
    zeros = np.zeros(len(scores), dtype=np.int64)
    return InstanceTable(i=zeros, j=zeros + 1, k=zeros + 1, score=np.asarray(scores, float),
                         label=np.asarray(labels))


class TestAuc:
    def test_perfect_separation(self):
        assert auc(scored_table([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])) == 1.0

    def test_all_ties_half(self):
        assert auc(scored_table([0.5] * 4, [1, 1, 0, 0])) == 0.5

    def test_hand_example_three_quarters(self):
        scores = np.array([0.1, 0.4, 0.35, 0.8])
        labels = np.array([0, 0, 1, 1])
        # brute-force pair counting oracle
        correct = sum(
            (1.0 if sp > sn else 0.5 if sp == sn else 0.0)
            for sp in scores[labels == 1]
            for sn in scores[labels == 0]
        )
        assert correct / 4 == 0.75
        assert auc_from_scores(scores, labels) == 0.75

    def test_matches_pair_counting_with_ties(self):
        rng = np.random.default_rng(0)
        scores = rng.integers(0, 5, size=60).astype(float)
        labels = rng.integers(0, 2, size=60)
        if labels.sum() in (0, 60):
            labels[0] = 1 - labels[0]
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        brute = np.mean([(p > n) + 0.5 * (p == n) for p in pos for n in neg])
        assert np.isclose(auc_from_scores(scores, labels), brute, rtol=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            auc_from_scores(np.array([0.1, 0.2]), np.array([1, 1]))

    # few distinct values, so most draws hold ties; -0.0 ties with 0.0
    tie_prone = st.sampled_from([-np.inf, -1.5, -0.0, 0.0, 0.25, 1.0, np.inf])

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.one_of(
            st.lists(tie_prone, min_size=1, max_size=60),
            st.lists(st.floats(allow_nan=False), min_size=1, max_size=60),
            st.lists(st.integers(-3, 3), min_size=1, max_size=60),
            st.lists(st.integers(-(2**62), 2**62), min_size=1, max_size=60),
        )
    )
    def test_average_ranks_are_rankdata_bit_for_bit(self, values):
        x = np.asarray(values)
        ranks = _average_ranks(x)
        expected = rankdata(x)
        assert ranks.dtype == expected.dtype == np.float64
        assert ranks.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("kind", ["tie_heavy", "infinite"])
    def test_average_ranks_need_no_stable_sort(self, kind):
        """Ranks and AUC are bit-identical to the ranks from a stable sort on
        20k scores whose default sort leaves tie groups in another order."""
        rng = np.random.default_rng(7)
        values = [-1.5, -0.0, 0.0, 0.25, 1.0] if kind == "tie_heavy" else [-np.inf, 0.5, np.inf]
        x = rng.choice(np.array(values), 20_000)
        order = np.argsort(x, kind="stable")
        xs = x[order]
        first = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
        last = np.r_[first[1:], xs.size]
        stable = np.empty(xs.size)
        stable[order] = np.repeat(0.5 * (first + last + 1), last - first)
        assert not np.array_equal(np.argsort(x), order)
        assert _average_ranks(x).tobytes() == stable.tobytes() == rankdata(x).tobytes()
        labels = rng.integers(0, 2, x.size)
        pos, neg = labels.sum(), x.size - labels.sum()
        by_stable = (stable[labels == 1].sum() - pos * (pos + 1) / 2.0) / (pos * neg)
        assert auc_from_scores(x, labels) == by_stable

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.lists(st.tuples(tie_prone, st.integers(0, 1)), min_size=2, max_size=60).filter(
            lambda rows: len({label for _, label in rows}) == 2
        )
    )
    def test_equals_pair_counting_exactly(self, data):
        scores = np.array([s for s, _ in data])
        labels = np.array([label for _, label in data])
        pos, neg = scores[labels == 1], scores[labels == 0]
        # a half-integer count over the same denominator: exact on both sides
        count = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
        assert auc_from_scores(scores, labels) == count / (pos.size * neg.size)

    def test_infinite_scores_rank_as_extremes(self):
        scores = np.array([np.inf, 0.3, -np.inf, 0.1])
        assert auc_from_scores(scores, np.array([1, 1, 0, 0])) == 1.0
        assert auc_from_scores(scores, np.array([0, 1, 1, 0])) == 0.25

    def test_nan_score_rejected(self):
        with pytest.raises(ValueError, match="NaN score at position 2"):
            auc_from_scores(np.array([0.1, 0.2, np.nan, 0.4]), np.array([1, 0, 1, 0]))

    def test_label_outside_zero_one_rejected(self):
        # ranked as a third class, this returned 1.0 where the 0/1 rows give 0.5
        with pytest.raises(ValueError, match="labels must be 0 or 1, got 2 at position 1"):
            auc_from_scores(np.array([0.5, 0.1, 0.9, 0.2]), np.array([1, 2, 0, 0]))

    @pytest.mark.parametrize(
        "scores, labels",
        [
            (np.array([0.1, 0.2, 0.3]), np.array([1, 0])),
            (np.array([[0.1, 0.2], [0.3, 0.4]]), np.array([[1, 0], [0, 1]])),
        ],
    )
    def test_shape_mismatch_rejected(self, scores, labels):
        with pytest.raises(ValueError, match="1-D scores and labels of one length"):
            auc_from_scores(scores, labels)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 1000),
        a=st.floats(0.1, 10),
        b=st.floats(-5, 5),
    )
    def test_monotone_transform_invariance(self, seed, a, b):
        rng = np.random.default_rng(seed)
        scores = rng.standard_normal(40)
        labels = np.r_[np.ones(20, dtype=int), np.zeros(20, dtype=int)]
        base = auc_from_scores(scores, labels)
        assert np.isclose(auc_from_scores(a * scores + b, labels), base, rtol=1e-12)
        assert np.isclose(auc_from_scores(np.exp(scores), labels), base, rtol=1e-12)


def model_scores(fm, ii, jj, kk, scorer="tgne"):
    """``score_instances``' column for triplet lists under a model scorer."""
    ii, jj, kk = (np.asarray(x) for x in (ii, jj, kk))
    table = InstanceTable(ii, jj, kk, np.full(ii.size, np.nan), np.zeros(ii.size, np.int64))
    return score_instances(table, scorer, fm=fm).score


class TestScoreTgne:
    @pytest.mark.parametrize(
        "i, j, k", [(0, 1, 0), (-1, 1, 1), (0, 1, 5), (0, 3, 1), (3, 0, 2)]
    )
    def test_out_of_range_triplet_rejected(self, i, j, k):
        fm = static_model([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], K=4)
        with pytest.raises(ValueError, match=r"triplet 1: .* out of range"):
            model_scores(fm, [0, i], [1, j], [1, k])
        with pytest.raises(ValueError, match="triplet 0: .* out of range"):
            model_scores(fm, [i], [j], [k])

    @pytest.mark.parametrize("scorer", ["tgne", "tgne_predictive"])
    @pytest.mark.parametrize("i, j, k", [(0, -1, 2), (0, 1, 0), (0, 1, 5), (0, 3, 1)])
    def test_model_scorers_share_one_range_policy(self, scorer, i, j, k):
        # n = 3 and K = 4: a negative id, k = 0, k = K + 1 and id n. Unchecked,
        # tgne_predictive reads another node's or interval's rows for the first
        # two and raises IndexError for the last two
        fm = static_model([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], K=4)
        with pytest.raises(ValueError, match="is out of range"):
            model_scores(fm, [i], [j], [k], scorer)

    def test_coincident_static_means(self):
        fm = static_model([(0.0, 0.0), (0.0, 0.0)], beta=0.0, K=15)
        assert np.isclose(model_scores(fm, [0], [1], [3])[0], 1 / 15, rtol=1e-12)

    def test_monotone_decreasing_in_separation(self):
        seps = np.linspace(0, 3, 12)
        fm = static_model([(0.0, 0.0)] + [(s, 0.0) for s in seps], K=5)
        scores = model_scores(fm, np.zeros(12, int), np.arange(1, 13), np.full(12, 2))
        assert all(a > b for a, b in zip(scores, scores[1:]))

    def test_structural_sanity_on_fixture(self, sbm_sample, fitted_sbm):
        # first-segment intervals: intra pairs should outscore inter pairs
        labels = sbm_sample.labels[:, 0]
        rng = np.random.default_rng(0)
        nodes = np.arange(sbm_sample.events.n)
        triplets = []
        for _ in range(300):
            i, j = rng.choice(nodes, size=2, replace=False)
            triplets.append((i, j, rng.integers(1, 6)))
        ii, jj, kk = np.asarray(triplets).T
        scores = model_scores(fitted_sbm, ii, jj, kk)
        intra = labels[ii] == labels[jj]
        assert np.median(scores[intra]) > np.median(scores[~intra])

    def test_predictive_variant_close_to_plugin_at_small_sigma(self):
        fm = static_model([(0.0, 0.0), (1.0, 0.0)], sigma=1e-6, K=5)
        table = InstanceTable(i=np.array([0]), j=np.array([1]), k=np.array([1]),
                              score=np.array([np.nan]), label=np.array([1]))
        plug = score_instances(table, "tgne", fm=fm).score
        pred = score_instances(table, "tgne_predictive", fm=fm).score
        assert np.isclose(plug, pred, rtol=1e-6)

    def test_dot_model_scoring_matches_riemann(self):
        from tgne.model import LatentConfiguration, RateModel

        fm = static_model([(0.5, 0.2), (0.3, -0.4)], K=4)
        fm.state.mu[1, 3] = (-1.2, 0.9)  # interval 3 moves, so its rate varies
        fm.hyper.rate_model = DOT
        cfg = LatentConfiguration(fm.state.mu, fm.part)
        for k in (2, 3):
            ref = cumulative_rate_riemann(cfg, RateModel(DOT, 0.0), 0, 1, k, 1_000_000)
            assert np.isclose(model_scores(fm, [0], [1], [k])[0], ref, rtol=1e-6)


def reference_lsdm_fit(counts, ii, jj, k, d, opts):
    """Oracle: one interval's LSDM fit as a single minimize(jac=True) call on
    ``_lsdm_objective``; returns scipy's result and the objective trace."""
    n = counts.n
    rng = np.random.default_rng(opts.seed)
    x0 = np.append(evaluation.LSDM_INIT_SCALE * rng.standard_normal((n, d)).T, 0.0)
    index = np.concatenate([ii, jj]) + n * np.arange(d)[:, None]
    sign = 1.0 - 2.0 * (counts.counts_of(ii, jj, k) >= 1)
    trace = []

    def objective(x):
        nll, grad = evaluation._lsdm_objective(x, index, sign)
        if not trace:
            trace.append(nll)
        return nll, grad

    res = minimize(
        objective, x0, jac=True, method="L-BFGS-B",
        callback=lambda intermediate_result: trace.append(float(intermediate_result.fun)),
        options={"maxiter": opts.iters, "maxfun": opts.iters, "gtol": evaluation.LSDM_GRAD_TOL,
                 "ftol": 0.0},
    )
    return res, trace


class TestLsdm:
    @pytest.mark.parametrize("iters", [5, 800])
    def test_bits_match_one_minimize_call(self, sbm_sample, iters):
        ev = sbm_sample.events
        part = IntervalPartition.uniform(15)
        split = split_edges(ev, 0.1, 0.0, seed=0)
        train_counts = restrict_counts(interval_counts(ev, part), split.train)
        opts = LsdmOpts(iters=iters, seed=0)
        ii, jj = np.divmod(pair_codes(split.train, ev.n, False), ev.n)
        for k, model in fit_lsdm_intervals(train_counts, split.train, 2, opts).items():
            res, trace = reference_lsdm_fit(train_counts, ii, jj, k, 2, opts)
            assert model.z.tobytes() == res.x[:-1].reshape(2, ev.n).T.tobytes()
            assert model.beta == res.x[-1]
            assert model.nll_trace.tobytes() == np.asarray(trace).tobytes()
            assert (model.iterations, model.evaluations) == (res.nit, res.nfev)
            assert model.grad_inf == np.abs(res.jac).max()
            assert model.converged == (model.grad_inf < evaluation.LSDM_GRAD_TOL)

    @pytest.mark.parametrize("fit", ["one", "all"])
    def test_pair_outside_the_nodes_rejected(self, sbm_sample, fit):
        counts = interval_counts(sbm_sample.events, IntervalPartition.uniform(2))
        with pytest.raises(ValueError, match=r"pair \(0, 60\) names a node outside 0\.\.59"):
            if fit == "one":
                fit_lsdm(counts, {(0, 1), (0, 60)}, 1, 2)
            else:
                fit_lsdm_intervals(counts, {(0, 1), (0, 60)}, 2)

    def test_separable_pair_drives_probability_to_one(self):
        ev = random_events(n=2, m=8, seed=1)
        part = IntervalPartition.uniform(2)
        counts = interval_counts(ev, part)
        k = int(next(iter(counts_dict(counts)))[2])
        model = fit_lsdm(counts, {(0, 1)}, k, d=2, opts=LsdmOpts(iters=400, seed=0))
        assert lsdm_score(model, 0, 1) > 0.99
        third = len(model.nll_trace) // 3
        assert model.nll_trace[-1] < model.nll_trace[third] < model.nll_trace[0]

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        n, d, P = 6, 2, 9
        z = rng.standard_normal((n, d))
        beta = 0.3
        ii = rng.integers(0, n, P)
        jj = (ii + 1 + rng.integers(0, n - 1, P)) % n
        y = rng.integers(0, 2, P).astype(float)
        _nll, g_z, g_b = lsdm_nll_grad(z, beta, ii, jj, y)
        h = 1e-6
        for _ in range(10):
            a, c = rng.integers(n), rng.integers(d)
            zp = z.copy(); zp[a, c] += h
            zm = z.copy(); zm[a, c] -= h
            fd = (lsdm_nll_grad(zp, beta, ii, jj, y)[0] - lsdm_nll_grad(zm, beta, ii, jj, y)[0]) / (2 * h)
            assert abs(g_z[a, c] - fd) <= 1e-4 * max(abs(fd), 1e-8)
        fd_b = (
            lsdm_nll_grad(z, beta + h, ii, jj, y)[0]
            - lsdm_nll_grad(z, beta - h, ii, jj, y)[0]
        ) / (2 * h)
        assert abs(g_b - fd_b) <= 1e-4 * max(abs(fd_b), 1e-8)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 9), d=st.integers(1, 4),
           P=st.integers(1, 40))
    def test_gradient_matches_add_at_scatter(self, seed, n, d, P):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((n, d))
        ii = rng.integers(0, n, P)
        jj = (ii + 1 + rng.integers(0, n - 1, P)) % n
        y = rng.integers(0, 2, P).astype(float)
        beta = float(rng.standard_normal())
        _nll, g_z, _g_b = lsdm_nll_grad(z, beta, ii, jj, y)
        # reference: the per-pair gradient scattered by two np.add.at passes,
        # with the kernel's residual (1 - 2y) sigma(u) written out
        diff = z[ii] - z[jj]
        sign = 1.0 - 2.0 * y
        u = sign * (beta - sum(diff[:, c] * diff[:, c] for c in range(d)))
        e = np.exp(-np.minimum(np.abs(u), 600.0))
        resid = sign * (np.maximum(e, u >= 0.0) / (1.0 + e))
        g_pair = -2.0 * resid[:, None] * diff
        ref = np.zeros_like(z)
        np.add.at(ref, ii, g_pair)
        np.add.at(ref, jj, -g_pair)
        assert np.array_equal(g_z, ref)

    @pytest.mark.parametrize("label", [0, 1])
    @pytest.mark.parametrize("logit", [-800.0, -40.0, 40.0, 800.0])
    def test_value_exact_at_large_logits(self, label, logit):
        """Each term is softplus((1 - 2y) logit): no cap, and it agrees with the gradient."""
        z = np.zeros((2, 1))
        ii, jj, y = np.array([0]), np.array([1]), np.array([float(label)])
        nll, _g_z, g_b = lsdm_nll_grad(z, logit, ii, jj, y)
        sign = 1.0 - 2.0 * label
        # a term below e^-600 is floored there (about 3e-261)
        assert nll == pytest.approx(np.logaddexp(0.0, sign * logit), rel=1e-15, abs=1e-260)
        # the residual p - y, written so that it keeps its digits when p rounds to 1
        assert g_b == pytest.approx(sign * expit(sign * logit), rel=1e-15, abs=1e-260)

    @pytest.mark.parametrize("logit", [-720.0, -740.0])
    def test_residual_never_subnormal(self, logit):
        """|u| is floored at 600, so no residual falls in the slow subnormal range."""
        z = np.zeros((2, 1))
        _nll, _g_z, g_b = lsdm_nll_grad(z, logit, np.array([0]), np.array([1]), np.array([0.0]))
        assert np.finfo(float).tiny <= g_b < 1e-260

    def test_value_matches_logaddexp_over_wide_logits(self):
        rng = np.random.default_rng(5)
        n, P = 12, 60
        z = 6.0 * rng.standard_normal((n, 3))
        ii = rng.integers(0, n, P)
        jj = (ii + 1 + rng.integers(0, n - 1, P)) % n
        y = rng.integers(0, 2, P).astype(float)
        beta = 60.0
        nll, _g_z, g_b = lsdm_nll_grad(z, beta, ii, jj, y)
        diff = z[ii] - z[jj]
        logits = beta - (diff * diff).sum(axis=1)
        assert logits.min() < -100 and logits.max() > 20
        assert nll == pytest.approx(np.logaddexp(0.0, (1 - 2 * y) * logits).sum(), rel=1e-13)
        assert g_b == pytest.approx((expit(logits) - y).sum(), rel=1e-12)

    @pytest.fixture(scope="class")
    def sbm_lsdm_fits(self, sbm_sample):
        """Every interval of the SBM graph, fit at the CLI's default settings."""
        from tgne.cli import _EVAL_DEFAULTS

        ev = sbm_sample.events
        part = IntervalPartition.uniform(15)
        split = split_edges(ev, 0.1, 0.0, seed=0)
        train_counts = restrict_counts(interval_counts(ev, part), split.train)
        opts = LsdmOpts(iters=_EVAL_DEFAULTS["lsdm_iters"], seed=_EVAL_DEFAULTS["seed"])
        models = {k: fit_lsdm(train_counts, split.train, k, 2, opts) for k in range(1, 16)}
        return train_counts, split.train, models

    def test_every_sbm_interval_converges_at_cli_defaults(self, sbm_lsdm_fits):
        train_counts, train_pairs, models = sbm_lsdm_fits
        ii, jj = np.divmod(pair_codes(train_pairs, train_counts.n, False), train_counts.n)
        for k, model in models.items():
            assert model.converged, (k, model.grad_inf, model.iterations)
            assert model.iterations < 800 and model.evaluations >= model.iterations
            # the reported figures are those of the returned (z, beta)
            y = (train_counts.counts_of(ii, jj, k) >= 1).astype(float)
            nll, g_z, g_b = lsdm_nll_grad(model.z, model.beta, ii, jj, y)
            assert model.nll_trace[-1] == nll
            assert model.grad_inf == max(np.abs(g_z).max(), abs(g_b)) < 1e-4

    def test_sort_once_matches_fit_per_interval(self, sbm_lsdm_fits):
        from tgne.cli import _EVAL_DEFAULTS

        train_counts, train_pairs, models = sbm_lsdm_fits
        opts = LsdmOpts(iters=_EVAL_DEFAULTS["lsdm_iters"], seed=_EVAL_DEFAULTS["seed"])
        once = fit_lsdm_intervals(train_counts, train_pairs, 2, opts)
        assert once.keys() == models.keys()
        for k, model in models.items():
            got = once[k]
            assert np.array_equal(got.z, model.z) and got.beta == model.beta
            assert np.array_equal(got.nll_trace, model.nll_trace)
            assert (got.converged, got.iterations, got.evaluations, got.grad_inf) == (
                model.converged, model.iterations, model.evaluations, model.grad_inf
            )

    def test_nll_trace_non_increasing(self, sbm_lsdm_fits):
        for model in sbm_lsdm_fits[2].values():
            assert len(model.nll_trace) == model.iterations + 1
            assert np.all(np.diff(model.nll_trace) <= 0.0)
            assert model.nll_trace[-1] < model.nll_trace[0]

    def test_iteration_cap_reports_unconverged(self, sbm_sample):
        ev = sbm_sample.events
        split = split_edges(ev, 0.1, 0.0, seed=0)
        counts = restrict_counts(interval_counts(ev, IntervalPartition.uniform(15)), split.train)
        model = fit_lsdm(counts, split.train, 4, d=2, opts=LsdmOpts(iters=5, seed=0))
        assert model.iterations <= 5
        assert not model.converged and model.grad_inf >= 1e-4
        assert len(model.nll_trace) == model.iterations + 1

    def test_overfits_training_interval(self, sbm_sample):
        ev = sbm_sample.events
        part = IntervalPartition.uniform(15)
        counts = interval_counts(ev, part)
        split = split_edges(ev, 0.1, 0.0, seed=0)
        train_counts = restrict_counts(counts, split.train)
        model = fit_lsdm(train_counts, split.train, 2, d=2, opts=LsdmOpts(iters=500, seed=0))
        pairs = sorted(split.train)
        scores = np.asarray([lsdm_score(model, i, j) for i, j in pairs])
        ii, jj = np.asarray(pairs).T
        labels = (counts.counts_of(ii, jj, 2) >= 1).astype(int)
        assert auc_from_scores(scores, labels) > 0.9


class TestScorePaAndRandom:
    def test_isolated_node_zero(self, ten_node_events):
        part = IntervalPartition.uniform(2)
        counts = interval_counts(ten_node_events, part)
        ql = [p for p in range(ten_node_events.n) if counts.degree(p, 1) == 0]
        if ql:
            table = scored_table([np.nan], [1])
            table.i[0], table.j[0] = ql[0], 0
            assert score_instances(table, "pa", train_counts=counts).score[0] == 0.0

    def test_degree_product(self):
        ev = random_events(n=4, m=0, seed=0)
        part = IntervalPartition.uniform(1)
        import numpy as np
        from tgne.events import EventList

        ev = EventList(
            src=np.array([0, 0, 0, 1, 1, 2, 2]),
            dst=np.array([1, 2, 3, 2, 3, 3, 3]),
            time=np.linspace(0, 1, 7),
            n=4,
        )
        counts = interval_counts(ev, part)
        pa = score_instances(scored_table([np.nan], [1]), "pa", train_counts=counts)
        assert pa.score[0] == counts.degree(0, 1) * counts.degree(1, 1)

    def test_pa_never_sees_test_counts(self, sbm_sample):
        ev = sbm_sample.events
        part = IntervalPartition.uniform(5)
        counts = interval_counts(ev, part)
        split = split_edges(ev, 0.3, 0.0, seed=0)
        train_counts = restrict_counts(counts, split.train)
        active = train_counts.active_pairs()
        assert set(zip(*(x.tolist() for x in active))) == set(split.train)
        assert train_counts.values.sum() < counts.values.sum()

    def test_random_uniform_and_deterministic(self):
        table = scored_table(np.full(100_000, np.nan), np.zeros(100_000, int))
        draws = score_instances(table, "random", seed=5).score
        from scipy.stats import kstest

        assert kstest(draws, "uniform").pvalue > 0.01
        again = score_instances(table, "random", seed=5).score
        assert np.array_equal(draws, again)

    def test_random_auc_near_half(self):
        rng = np.random.default_rng(6)
        scores = rng.random(4000)
        labels = np.r_[np.ones(2000, dtype=int), np.zeros(2000, dtype=int)]
        assert abs(auc_from_scores(scores, labels) - 0.5) < 0.03


class TestNodeUncertainty:
    def test_mean_of_endpoints(self):
        vs = VariationalState(
            mu=np.zeros((1, 3, 2)),
            log_sigma=np.log(np.array([[0.2, 0.4, 0.1]])),
            beta=0.0,
        )
        assert np.isclose(node_uncertainty(vs, 0, 1), 0.3)
        assert np.isclose(node_uncertainty(vs, 0, 2), 0.25)

    def test_constant_sigma(self):
        vs = VariationalState(
            mu=np.zeros((2, 4, 2)), log_sigma=np.full((2, 4), np.log(0.7)), beta=0.0
        )
        for k in (1, 2, 3):
            assert np.isclose(node_uncertainty(vs, 1, k), 0.7)

    def test_interval_bounds_checked(self):
        vs = VariationalState(mu=np.zeros((1, 3, 2)), log_sigma=np.zeros((1, 3)), beta=0.0)
        with pytest.raises(ValueError):
            node_uncertainty(vs, 0, 3)


def _neighbor_distance_scan(fm, counts, i, k):
    """Reference: scan every node for interval-k neighbors."""
    others = np.asarray([j for j in range(counts.n) if j != i])
    neighbors = others[counts.counts_of(i, others, k) >= 1]
    if not neighbors.size:
        return None
    mid = 0.5 * (fm.state.mu[:, k - 1, :] + fm.state.mu[:, k, :])
    return float(np.linalg.norm(mid[neighbors] - mid[i], axis=1).mean())


class TestNodeTable:
    # m = 40 leaves nodes without neighbors; m = 300 gives nodes 8 to 12, the
    # counts at which ndarray.mean() sums with 8 accumulators
    @pytest.mark.parametrize("m", [40, 300])
    @pytest.mark.parametrize("d", [1, 2, 3, 9])
    @pytest.mark.parametrize("directed", [False, True])
    def test_matches_brute_force_scan(self, m, d, directed):
        n, K = 14, 4
        rng = np.random.default_rng(d)
        fm = static_model(np.zeros((n, d)), K=K, d=d)
        fm.state.mu = rng.standard_normal((n, K + 1, d))
        fm.state.log_sigma = rng.standard_normal((n, K + 1))
        ev = random_events(n=n, m=m, seed=d, directed=directed)
        counts = interval_counts(ev, fm.part)
        u, nd, deg = node_table(fm, counts)
        for i in range(n):
            for k in range(1, K + 1):
                ref = _neighbor_distance_scan(fm, counts, i, k)
                got = None if np.isnan(nd[i, k - 1]) else float(nd[i, k - 1])
                assert got == ref
                assert neighbor_distance(fm, counts, i, k) == ref
                assert float(u[i, k - 1]) == node_uncertainty(fm.state, i, k)
                assert deg[i, k - 1] == counts.degree(i, k)


class TestNeighborDistance:
    def test_single_coincident_neighbor(self):
        fm = static_model([(1.0, 1.0), (1.0, 1.0)], K=3)
        ev = random_events(n=2, m=5, seed=3)
        counts = interval_counts(ev, fm.part)
        k = next(iter(counts_dict(counts)))[2]
        assert neighbor_distance(fm, counts, 0, k) == 0.0

    def test_mean_of_two_neighbors(self):
        fm = static_model([(0.0, 0.0), (1.0, 0.0), (3.0, 0.0)], K=2)
        from tgne.events import EventList

        ev = EventList(
            src=np.array([0, 0]), dst=np.array([1, 2]), time=np.array([0.1, 0.2]), n=3
        )
        counts = interval_counts(ev, fm.part)
        assert np.isclose(neighbor_distance(fm, counts, 0, 1), 2.0)

    def test_undefined_without_neighbors(self):
        fm = static_model([(0.0, 0.0), (1.0, 0.0)], K=2)
        from tgne.events import EventList

        ev = EventList(
            src=np.array([0]), dst=np.array([1]), time=np.array([0.1]), n=2
        )
        counts = interval_counts(ev, fm.part)
        assert neighbor_distance(fm, counts, 0, 2) is None


class TestEdgeUncertainty:
    def test_degenerate_posterior_matches_plugin(self):
        fm = static_model([(0.0, 0.0), (0.8, 0.0)], sigma=1e-9, K=5)
        ii, jj, kk = np.array([0]), np.array([1]), np.array([2])
        mean, std = _exact_lambda_moments(fm.state, fm.part, ii, jj, kk - 1, kind=EUCLIDEAN)
        assert std[0] < 1e-7
        assert np.isclose(mean[0], model_scores(fm, ii, jj, kk)[0], rtol=1e-6)

    def test_deterministic_under_seed(self):
        fm = static_model([(0.0, 0.0), (0.8, 0.0)], sigma=0.3, K=4)
        ii, jj, kk0 = np.array([0]), np.array([1]), np.array([0])
        for kind in (EUCLIDEAN, DOT):
            a = _exact_lambda_moments(fm.state, fm.part, ii, jj, kk0, kind=kind)
            b = _exact_lambda_moments(fm.state, fm.part, ii, jj, kk0, kind=kind)
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("kind", [EUCLIDEAN, DOT])
    def test_edge_table_rows(self, kind):
        rng = np.random.default_rng(2)
        fm = static_model(rng.standard_normal((12, 2)) * 0.5, sigma=0.2, K=3)
        ev = random_events(n=12, m=60, seed=8)
        counts = interval_counts(ev, fm.part)
        pairs = sorted(ev.unique_pairs())[::2]
        train = restrict_counts(counts, pairs)
        batches = list(edge_table(fm.state, train, kind, fm.part))
        assert len(batches) == 1
        ii, jj, kk, n_events, mean, std = batches[0]
        want = [(i, j, k) for i, j in pairs for k in (1, 2, 3)]
        assert list(zip(ii.tolist(), jj.tolist(), kk.tolist())) == want
        # a restricted tensor holds the full counts of its pairs
        assert np.array_equal(n_events, counts.counts_of(ii, jj, kk))
        assert np.array_equal(n_events, train.counts_of(ii, jj, kk))
        moments = _exact_lambda_moments(fm.state, fm.part, ii, jj, kk - 1, kind=kind)
        assert np.array_equal(mean, moments[0]) and np.array_equal(std, moments[1])
        assert uncertainty_regression(fm.state, train, kind, fm.part) == (
            regression_slope_from_points(n_events, std)
        )

    @pytest.mark.parametrize("kind, hub", [(EUCLIDEAN, False), (DOT, False), (DOT, True)])
    def test_batches_match_one_whole_table_call(self, kind, hub):
        # 40 nodes and K = 15 give over CSV_CHUNK_ROWS rows, and 8,192 = 546 * 15 + 2,
        # so the first batch ends inside the rows of active pair 546
        vs, part = dot_state(0, n=40, K=15)
        if hub:  # 4 v_3 v_17 > 1: the dot moments of pair (3, 17) are inf
            vs.log_sigma[[3, 17]] = np.log(0.9)
        counts = interval_counts(random_events(40, 3000, seed=0), part)
        batches = list(edge_table(vs, counts, kind, part))
        assert [b[0].size for b in batches[:-1]] == [CSV_CHUNK_ROWS]
        assert CSV_CHUNK_ROWS % part.K
        ii, jj, kk, n_events, mean, std = map(np.concatenate, zip(*batches))
        pi, pj = counts.active_pairs()
        assert np.array_equal(ii, pi.repeat(part.K)) and np.array_equal(jj, pj.repeat(part.K))
        assert np.array_equal(kk, np.tile(np.arange(1, part.K + 1), pi.size))
        assert np.array_equal(n_events, counts.counts_of(ii, jj, kk))
        want_mean, want_std = _exact_lambda_moments(vs, part, ii, jj, kk - 1, kind=kind)
        if not hub:
            assert np.array_equal(mean, want_mean) and np.array_equal(std, want_std)
        else:
            # the finite dot rows fill 512-row moment chunks within each batch,
            # not across the table, so they may differ in the last bits
            assert np.isinf(mean).sum() == part.K
            np.testing.assert_allclose(mean, want_mean, rtol=1e-14)
            np.testing.assert_allclose(std, want_std, rtol=1e-14)

    def test_csv_batches_hold_whole_moment_chunks(self):
        assert CSV_CHUNK_ROWS % expectations.MOMENT_ROWS == 0

    def test_edge_table_needs_an_active_pair(self, tmp_path):
        fm = static_model([(0.0, 0.0), (0.8, 0.0)], K=3)
        empty = restrict_counts(interval_counts(random_events(2, 5, seed=0), fm.part), [])
        with pytest.raises(ValueError, match="no active pairs"):
            edge_table(fm.state, empty, EUCLIDEAN, fm.part)
        # the call raises, so the file the CLI streams into is never opened
        path = tmp_path / "uncertainty_edges.csv"
        with pytest.raises(ValueError, match="no active pairs"):
            write_csv_chunks(path, EDGE_HEADER, edge_table(fm.state, empty, EUCLIDEAN, fm.part))
        assert not path.exists()

    def test_writing_the_table_holds_one_batch(self, tmp_path):
        """The traced peak of writing the table at R and at 4R rows (R = 4
        batches) differs by less than one batch of six 8-byte columns."""
        n, K = 130, 16
        rng = np.random.default_rng(0)
        vs = VariationalState(
            mu=rng.standard_normal((n, K + 1, 2)), log_sigma=np.full((n, K + 1), -1.0), beta=0.0
        )
        part = IntervalPartition.uniform(K)
        src, dst = np.triu_indices(n, 1)

        def peak(rows):
            pairs = rows // K  # each pair active in one interval
            ev = EventList(src=src[:pairs], dst=dst[:pairs], time=np.sort(rng.random(pairs)), n=n)
            counts = interval_counts(ev, part)
            tracemalloc.start()
            try:
                write_csv_chunks(tmp_path / "e.csv", EDGE_HEADER,
                                 edge_table(vs, counts, EUCLIDEAN, part))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        rows = 4 * CSV_CHUNK_ROWS
        small, large = peak(rows), peak(4 * rows)
        assert abs(large - small) < CSV_CHUNK_ROWS * 6 * 8


EDGE_HEADER = ["i", "j", "k", "N", "lambda_mean", "lambda_std"]


class PairMoments:
    """Posterior moments of one pair's lambda(s), written out in Python floats.

    Delta(s) = (1-s) Delta_a + s Delta_b with Delta_a ~ N(m_a, v_a I_d) and
    Delta_b ~ N(m_b, v_b I_d) independent; lambda = exp(beta - |Delta|^2).
    ``sigmas`` are (sigma_ia, sigma_ib, sigma_ja, sigma_jb).
    """

    def __init__(self, m_a, m_b, sigmas, beta):
        self.m_a = [float(x) for x in m_a]
        self.m_b = [float(x) for x in m_b]
        s_ia, s_ib, s_ja, s_jb = (float(x) for x in sigmas)
        self.v_a, self.v_b = s_ia**2 + s_ja**2, s_ib**2 + s_jb**2
        self.beta, self.d = float(beta), len(self.m_a)

    def m(self, s):
        return [(1 - s) * a + s * b for a, b in zip(self.m_a, self.m_b)]

    def v(self, s):
        return (1 - s) ** 2 * self.v_a + s * s * self.v_b

    def c(self, s, t):
        return (1 - s) * (1 - t) * self.v_a + s * t * self.v_b

    def mean(self, s):
        p, ms = 1 + 2 * self.v(s), self.m(s)
        return math.exp(self.beta - _dot(ms, ms) / p - 0.5 * self.d * math.log(p))

    def cov(self, s, t):
        """Cov(lambda(s), lambda(t)) and the scale of the terms it is made of."""
        p, q, c = 1 + 2 * self.v(s), 1 + 2 * self.v(t), self.c(s, t)
        ms, mt = self.m(s), self.m(t)
        D = p * q - 4 * c * c
        parts = [4 * c / D * _dot(ms, mt), 4 * c * c / D * (_dot(ms, ms) / p + _dot(mt, mt) / q),
                 0.5 * self.d * math.log1p(-4 * c * c / (p * q))]
        ee = self.mean(s) * self.mean(t)
        return ee * math.expm1(parts[0] - parts[1] - parts[2]), ee * sum(map(abs, parts))

    def naive_cov(self, mp, s, t):
        """E[lambda(s) lambda(t)] - E[lambda(s)] E[lambda(t)] at 60 digits of ``mp``.

        Per dimension (Delta(s), Delta(t)) is bivariate normal with covariance
        Sigma, and E[exp(-x'x)] = det(I + 2 Sigma)^(-1/2) exp(-mu'(I + 2 Sigma)^(-1) mu).
        """
        with mp.workdps(60):
            s, t = mp.mpf(s), mp.mpf(t)
            vs_, vt_, c = (self.v_a * (1 - s) ** 2 + self.v_b * s * s,
                           self.v_a * (1 - t) ** 2 + self.v_b * t * t,
                           self.v_a * (1 - s) * (1 - t) + self.v_b * s * t)
            M = mp.matrix([[1 + 2 * vs_, 2 * c], [2 * c, 1 + 2 * vt_]])
            Minv = M**-1
            quad, ms2, mt2 = mp.mpf(0), mp.mpf(0), mp.mpf(0)
            for a, b in zip(self.m_a, self.m_b):
                x = (1 - s) * a + s * b
                y = (1 - t) * a + t * b
                quad += Minv[0, 0] * x * x + 2 * Minv[0, 1] * x * y + Minv[1, 1] * y * y
                ms2 += x * x
                mt2 += y * y
            d, beta = self.d, mp.mpf(self.beta)
            joint = mp.exp(2 * beta - quad) * mp.det(M) ** (-mp.mpf(d) / 2)
            e_s = mp.exp(beta - ms2 / (1 + 2 * vs_)) * (1 + 2 * vs_) ** (-mp.mpf(d) / 2)
            e_t = mp.exp(beta - mt2 / (1 + 2 * vt_)) * (1 + 2 * vt_) ** (-mp.mpf(d) / 2)
            return float(joint - e_s * e_t)

    def crossing(self):
        """Local coordinate where |m(s)| is least, when inside (0, 1)."""
        dm = [b - a for a, b in zip(self.m_a, self.m_b)]
        if _dot(dm, dm) == 0:
            return None
        s0 = -_dot(self.m_a, dm) / _dot(dm, dm)
        return [s0] if 0 < s0 < 1 else None

    def interval_moments(self, length, tol=1e-10):
        """|I| * quad of E[lambda] and |I| * sqrt(nested quad of the covariance)."""
        from scipy.integrate import quad

        pts = self.crossing()
        opts = dict(points=pts, epsabs=0.0, epsrel=tol, limit=200)
        mean = quad(self.mean, 0, 1, **opts)[0]
        var = quad(lambda s: quad(lambda t: self.cov(s, t)[0], 0, 1, **opts)[0], 0, 1, **opts)[0]
        return length * mean, length * math.sqrt(var)


def _dot(x, y):
    return sum(a * b for a, b in zip(x, y))


@st.composite
def pair_rows(draw):
    """(m_a, m_b, sigmas, beta): generic pairs and pairs crossing at |dm| <= 12."""
    d = draw(st.integers(1, 3))
    sigmas = [10.0 ** draw(st.floats(-9, 0)) for _ in range(4)]
    beta = draw(st.floats(-2, 2))
    coord = st.floats(-1, 1)
    if draw(st.booleans()):
        u = np.asarray([draw(coord) for _ in range(d)])
        u = u / np.linalg.norm(u) if np.linalg.norm(u) > 0.1 else np.eye(d)[0]
        perp = np.asarray([draw(coord) for _ in range(d)]) * draw(st.floats(0, 0.5))
        perp -= (perp @ u) * u
        dm, s0 = draw(st.floats(0, 12)), draw(st.floats(0, 1))
        m_a, m_b = -s0 * dm * u + perp, (1 - s0) * dm * u + perp
    else:
        m_a = np.asarray([3 * draw(coord) for _ in range(d)])
        m_b = np.asarray([3 * draw(coord) for _ in range(d)])
    return m_a, m_b, sigmas, beta


def pair_state(m_a, m_b, sigmas, beta):
    """Two nodes on cut-points [0, 0.4, 1]: interval 2 holds the pair's row.

    Node 0 moves from m_a to m_b over interval 2 and node 1 sits at 0, so the
    mean difference is (m_a, m_b); interval 1 holds filler values.
    """
    d = len(m_a)
    mu = np.zeros((2, 3, d))
    mu[0, 0], mu[0, 1], mu[0, 2] = 0.5, m_a, m_b
    s_ia, s_ib, s_ja, s_jb = sigmas
    log_sigma = np.log([[0.3, s_ia, s_ib], [0.2, s_ja, s_jb]])
    part = IntervalPartition(np.asarray([0.0, 0.4, 1.0]))
    return VariationalState(mu=mu, log_sigma=log_sigma, beta=beta), part


ONE = (np.asarray([0]), np.asarray([1]), np.asarray([1]))  # pair (0, 1) in interval 2


class TestExactMoments:
    @settings(max_examples=30, deadline=None)
    @given(pair_rows())
    @example(([-4.0, 0.1], [8.0, 0.1], [1e-9] * 4, 0.5))  # crossing, tiny variance
    @example(([0.3], [-0.7], [1e-9, 2e-9, 1e-9, 3e-9], -1.0))
    @example(([1.0, -2.0, 0.5], [-1.0, 2.0, 0.4], [1.0] * 4, 0.0))  # d = 3, wide
    def test_interval_moments_match_quadrature(self, row):
        vs, part = pair_state(*row)
        mean, std = _exact_lambda_moments(vs, part, *ONE)
        ref_mean, ref_std = PairMoments(*row).interval_moments(length=0.6)
        assert mean[0] == pytest.approx(ref_mean, rel=1e-8, abs=0.0)
        assert std[0] == pytest.approx(ref_std, rel=1e-8, abs=0.0)

    @settings(max_examples=40, deadline=None)
    @given(pair_rows(), st.floats(0, 1), st.floats(0, 1))
    def test_pointwise_moments_match_high_precision(self, row, s, t):
        mp = pytest.importorskip("mpmath")
        pm = PairMoments(*row)
        for a, b in ((s, s), (s, t)):
            cov, scale = pm.cov(a, b)
            # naive_cov subtracts at 60 digits and keeps ~1e-60 of the product of
            # the means; at (a, b) = (0, 1) the covariance is exactly 0 and scale 0
            oracle_noise = 1e-50 * pm.mean(a) * pm.mean(b)
            bound = 1e-10 * abs(cov) + 1e-14 * scale + oracle_noise
            assert abs(cov - pm.naive_cov(mp, a, b)) <= bound
        # the rate table's closed form at s
        vs, _ = pair_state(*row)
        got = _exact_rate_std(vs, *ONE, np.asarray([s]))[0]
        assert got == pytest.approx(math.sqrt(pm.naive_cov(mp, s, s)), rel=1e-9, abs=0.0)

    def test_rate_table_std_is_the_closed_form(self, ten_node_events):
        fm = static_model([(float(i), 0.1 * i) for i in range(10)], sigma=0.2, K=4)
        fm.state.log_sigma[:, 2] = np.log(0.4)
        table = rate_vs_uncertainty_table(ten_node_events, fm.state, EUCLIDEAN, fm.part)
        _, s = fm.part.local_coord(table.t)
        ref = _exact_rate_std(fm.state, table.i, table.j, table.k - 1, s)
        assert np.array_equal(table.rate_std, ref)
        # the swapped negatives are drawn from the seed first, as with draws
        rng = np.random.default_rng(0)
        m = ten_node_events.m
        neg = _swapped_destinations(ten_node_events.src, ten_node_events.dst, 10, rng)
        assert np.array_equal(table.j[m:], neg)

    def test_within_three_se_of_draws(self):
        # generic pairs, a crossing pair and a wide posterior
        rng = np.random.default_rng(11)
        mu = rng.standard_normal((6, 4, 2))
        mu[5, :, :] = mu[4, :, :] + np.linspace(-1.5, 1.5, 4)[:, None] * [1.0, 0.0]
        log_sigma = np.log(rng.uniform(0.05, 0.4, size=(6, 4)))
        log_sigma[3] = np.log(0.8)
        vs = VariationalState(mu=mu, log_sigma=log_sigma, beta=0.4)
        part = IntervalPartition.uniform(3)
        ii, jj, kk0 = np.asarray([0, 1, 2, 4, 3]), np.asarray([1, 2, 0, 5, 0]), np.asarray([0, 1, 2, 1, 2])
        mean, std = _exact_lambda_moments(vs, part, ii, jj, kk0)
        B = 2000

        def values_at(z):  # Lambda and its squared deviation from the exact mean
            lam = _lambda_batch(z, vs.beta, EUCLIDEAN, part, ii, jj, kk0)
            return np.concatenate([lam, (lam - mean) ** 2])

        m_draw, s_draw = posterior_draws(vs, np.random.default_rng(5), B, 2 * ii.size, values_at)
        r = ii.size
        assert np.all(np.abs(m_draw[:r] - mean) < 3 * s_draw[:r] / np.sqrt(B))
        assert np.all(np.abs(m_draw[r:] - std**2) < 3 * s_draw[r:] / np.sqrt(B))

    def test_many_rows_match_rows_one_at_a_time(self, monkeypatch):
        # more rows than one chunk, with steep crossings that need more panels
        rng = np.random.default_rng(3)
        n, K = 40, 3
        mu = rng.standard_normal((n, K + 1, 2))
        mu[:8, 1] = mu[8:16, 1] - 6.0
        mu[:8, 2] = mu[8:16, 2] + 6.0
        log_sigma = np.log(10.0 ** rng.uniform(-9, 0, size=(n, K + 1)))
        vs = VariationalState(mu=mu, log_sigma=log_sigma, beta=0.1)
        part = IntervalPartition.uniform(K)
        ii, jj = (a.repeat(K) for a in np.triu_indices(n, 1))
        kk0 = np.tile(np.arange(K), ii.size // K)
        sizes = []
        real = expectations._interval_variance
        monkeypatch.setattr(
            expectations, "_interval_variance",
            lambda S, *a: sizes.append(a[3].w.size) or real(S, *a),
        )
        mean, std = _exact_lambda_moments(vs, part, ii, jj, kk0)
        assert ii.size > expectations.MOMENT_ROWS and len(set(sizes)) > 1
        pick = np.flatnonzero((ii < 8) & (jj >= 8) & (jj < 16))[:5].tolist() + [0, 700, 2000]
        for r in pick:
            m1, s1 = _exact_lambda_moments(vs, part, ii[r : r + 1], jj[r : r + 1], kk0[r : r + 1])
            assert m1[0] == pytest.approx(mean[r], rel=1e-14)
            assert s1[0] == pytest.approx(std[r], rel=1e-13)
        no_std = _exact_lambda_moments(vs, part, ii, jj, kk0, want_std=False)
        assert np.array_equal(no_std[0], mean) and no_std[1] is None

    def test_steep_crossing_warns_and_keeps_its_mean(self):
        # |m_b - m_a| = 60 is past the ~45 that MAX_PANELS resolve: the row
        # warns, and its finest mean still matches adaptive quadrature
        s0, dm = 0.37, 60.0
        row = ([-s0 * dm, 0.2], [(1 - s0) * dm, 0.2], [1e-3, 2e-3, 1e-3, 1e-3], 0.5)
        vs, part = pair_state(*row)
        with pytest.warns(RuntimeWarning, match="did not settle"):
            mean, _ = _exact_lambda_moments(vs, part, *ONE)
        ref_mean, _ = PairMoments(*row).interval_moments(length=0.6)
        assert mean[0] == pytest.approx(ref_mean, rel=1e-9, abs=0.0)

    def test_unsettled_rows_warn(self):
        # a crossing far steeper than MAX_PANELS resolve, its bump between the
        # nodes of the one- and two-panel rules: both means underflow to 0 and
        # agree, which must not count as settled
        s0, dm = 0.16135, 2000.0
        vs, part = pair_state([-s0 * dm], [(1 - s0) * dm], [1e-6] * 4, 0.0)
        with pytest.warns(RuntimeWarning, match="did not settle"):
            mean, _ = _exact_lambda_moments(vs, part, *ONE)
        assert mean[0] > 0.0


def dot_state(seed, n=6, K=3, sigma=(0.05, 0.3)):
    """A posterior for the dot model whose every row is finite."""
    rng = np.random.default_rng(seed)
    mu = 0.8 * rng.standard_normal((n, K + 1, 2))
    log_sigma = np.log(rng.uniform(*sigma, size=(n, K + 1)))
    return VariationalState(mu=mu, log_sigma=log_sigma, beta=0.3), IntervalPartition.uniform(K)


class TestDotMoments:
    def test_within_four_se_of_draws(self, ten_node_events):
        vs, part = dot_state(12, n=10, K=4)
        ii, jj = np.asarray([0, 1, 2, 4, 3, 7]), np.asarray([1, 2, 0, 5, 9, 8])
        kk0 = np.asarray([0, 1, 2, 1, 3, 2])
        mean, std = _exact_lambda_moments(vs, part, ii, jj, kk0, kind=DOT)
        # the rate table's std at each event, with its exact mean from the same forms
        ev = ten_node_events
        table = rate_vs_uncertainty_table(ev, vs, DOT, part, seed=2)
        k1, s = part.local_coord(table.t)
        S = expectations._dot_scalars(vs, table.i, table.j, k1 - 1)
        rate_mean = expectations._dot_mean(S, s, vs.beta)
        r, m = ii.size, len(table)

        def values_at(z):
            lam = _lambda_batch(z, vs.beta, DOT, part, ii, jj, kk0)
            pi = (1 - s)[:, None] * z[table.i, k1 - 1] + s[:, None] * z[table.i, k1]
            pj = (1 - s)[:, None] * z[table.j, k1 - 1] + s[:, None] * z[table.j, k1]
            rate = np.exp(vs.beta + np.einsum("md,md->m", pi, pj))
            return np.concatenate([lam, (lam - mean) ** 2, rate, (rate - rate_mean) ** 2])

        B = 20_000
        got = np.concatenate([mean, std**2, rate_mean, table.rate_std**2])
        m_draw, s_draw = posterior_draws(vs, np.random.default_rng(5), B, 2 * (r + m), values_at)
        assert np.all(np.abs(m_draw - got) < 4 * s_draw / np.sqrt(B))

    @pytest.mark.parametrize("s, t", [(0.2, 0.7), (0.45, 0.45), (0.0, 1.0)])
    def test_log_cov_matches_gauss_hermite(self, s, t):
        # d = 1: E[lambda(s) lambda(t)] over the four endpoint positions by a
        # 30-point Gauss-Hermite rule each, against E_s E_t exp(g)
        vs, part = dot_state(3, n=2, K=1, sigma=(0.2, 0.45))
        vs.mu = vs.mu[:, :, :1].copy()
        S = expectations._dot_scalars(vs, np.asarray([0]), np.asarray([1]), np.asarray([0]))
        x, w = np.polynomial.hermite_e.hermegauss(30)
        w = w / w.sum()
        sig = vs.sigma
        za, zb, ya, yb = np.meshgrid(*(vs.mu[i, k, 0] + sig[i, k] * x for i, k in
                                       ((0, 0), (0, 1), (1, 0), (1, 1))), indexing="ij")
        weight = np.einsum("a,b,c,e->abce", w, w, w, w)

        def lam(u):
            return np.exp(vs.beta + ((1 - u) * za + u * zb) * ((1 - u) * ya + u * yb))

        want = (weight * lam(s) * lam(t)).sum()
        e_s, e_t = (expectations._dot_mean(S, np.asarray([u]), vs.beta)[0] for u in (s, t))
        g = expectations._dot_log_cov(S, np.asarray([s]), np.asarray([t]))[0]
        assert e_s * e_t * np.exp(g) == pytest.approx(want, rel=1e-10)
        assert e_s == pytest.approx((weight * lam(s)).sum(), rel=1e-12)

    def test_rows_past_the_bound_are_inf(self, ten_node_events):
        # a hub with sigma = 6: v_hub(s) >= 18 and every v_j(s) >= 0.02, so
        # each of its rows has 4 v_hub v_j > 1; the others stay below
        vs, part = dot_state(4, n=10, K=4, sigma=(0.2, 0.3))
        hub = int(ten_node_events.src[0])
        other = (hub + 1) % 10
        vs.log_sigma[hub] = np.log(6.0)
        ii, jj = np.asarray([hub, other, other]), np.asarray([other, hub, (hub + 2) % 10])
        kk0 = np.asarray([1, 2, 1])
        mean, std = _exact_lambda_moments(vs, part, ii, jj, kk0, kind=DOT)
        assert np.all(np.isinf(mean[:2])) and np.all(np.isinf(std[:2]))
        assert np.isfinite(mean[2]) and np.isfinite(std[2])
        alone, _ = _exact_lambda_moments(vs, part, ii, jj, kk0, want_std=False, kind=DOT)
        assert np.array_equal(alone, mean)
        table = rate_vs_uncertainty_table(ten_node_events, vs, DOT, part, seed=0)
        past = (table.i == hub) | (table.j == hub)
        assert past.any() and not past.all()
        assert np.all(np.isinf(table.rate_std[past]))
        assert np.all(np.isfinite(table.rate_std[~past]))


class TestUncertaintyRegression:
    def test_exact_linear_input(self):
        n_values = np.repeat(np.arange(11), 3)
        stds = 2.0 - 0.1 * n_values
        assert np.isclose(regression_slope_from_points(n_values, stds), -0.1, rtol=1e-10)

    def test_constant_input_zero_slope(self):
        n_values = np.asarray([0, 1, 2, 3, 0, 1])
        stds = np.full(6, 0.7)
        assert abs(regression_slope_from_points(n_values, stds)) < 1e-12

    def test_unique_averaging(self):
        n_values = np.asarray([0, 0, 1, 1])
        stds = np.asarray([1.0, 3.0, 0.0, 1.0])
        # unique means: (2.0 at N=0, 0.5 at N=1) -> slope -1.5
        assert np.isclose(regression_slope_from_points(n_values, stds), -1.5)

    def test_degenerate_design_rejected(self):
        with pytest.raises(ValueError):
            regression_slope_from_points(np.ones(5), np.arange(5.0))


class TestRateVsUncertaintyTable:
    def test_row_count_and_negative_constraints(self, ten_node_events):
        fm = static_model([(float(i), 0.0) for i in range(10)], K=4)
        records = rate_vs_uncertainty_table(
            ten_node_events, fm.state, EUCLIDEAN, fm.part, B=20, seed=0
        )
        assert len(records) == 2 * ten_node_events.m
        neg = records.is_negative
        assert neg.sum() == (~neg).sum()
        assert np.array_equal(records.i[neg], records.i[~neg])
        assert np.array_equal(records.t[neg], records.t[~neg])
        assert (records.j[neg] != records.j[~neg]).all()
        assert (records.j[neg] != records.i[neg]).all()

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_shifted_draw_matches_candidate_list(self, n):
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j] * 20
        src = np.asarray([p[0] for p in pairs])
        dst = np.asarray([p[1] for p in pairs])
        got = _swapped_destinations(src, dst, n, np.random.default_rng(17))
        rng = np.random.default_rng(17)
        ref = []
        for i, j in pairs:
            choices = [x for x in range(n) if x not in (i, j)]
            ref.append(choices[int(rng.integers(len(choices)))])
        assert got.tolist() == ref

    def test_two_nodes_rejected(self):
        ev = random_events(n=2, m=5, seed=0)
        fm = static_model([(0.0, 0.0), (1.0, 0.0)], K=2)
        with pytest.raises(ValueError, match="n >= 3"):
            rate_vs_uncertainty_table(ev, fm.state, EUCLIDEAN, fm.part, B=2, seed=0)

    def test_degenerate_posterior_zero_std(self, ten_node_events):
        fm = static_model([(float(i), 0.0) for i in range(10)], sigma=1e-9, K=4)
        records = rate_vs_uncertainty_table(
            ten_node_events, fm.state, EUCLIDEAN, fm.part, B=20, seed=0
        )
        assert (records.rate_std < 1e-7).all()

    def test_events_then_their_negatives(self, ten_node_events):
        fm = static_model([(float(i), 0.0) for i in range(10)], K=4)
        table = rate_vs_uncertainty_table(
            ten_node_events, fm.state, EUCLIDEAN, fm.part, B=5, seed=1
        )
        m = ten_node_events.m
        assert len(table) == 2 * m
        assert np.array_equal(table.t, np.tile(ten_node_events.time, 2))
        assert table.is_negative.tolist() == [False] * m + [True] * m
        assert np.array_equal(table.i, np.tile(ten_node_events.src, 2))
        assert np.array_equal(table.j[:m], ten_node_events.dst)


class TestScoreInstances:
    @pytest.fixture(scope="class")
    def setup(self):
        ev = random_events(n=12, m=60, seed=8)
        part = IntervalPartition.uniform(3)
        counts = interval_counts(ev, part)
        instances, _ = build_instances(counts, ev.unique_pairs(), part, seed=1)
        rng = np.random.default_rng(3)
        models = {
            k: LsdmModel(z=rng.standard_normal((12, 2)), beta=float(rng.standard_normal()),
                         nll_trace=np.empty(0), converged=False, iterations=0,
                         evaluations=0, grad_inf=math.inf)
            for k in range(1, 4)
        }
        return counts, instances, models

    def test_lsdm_and_pa_match_scalar_scorers(self, setup):
        counts, instances, models = setup
        lsdm = score_instances(instances, "lsdm", lsdm_models=models)
        pa = score_instances(instances, "pa", train_counts=counts)
        for col in ("i", "j", "k", "label"):
            assert np.array_equal(getattr(lsdm, col), getattr(instances, col))
        rows = zip(*(col.tolist() for col in (instances.i, instances.j, instances.k)))
        for (i, j, k), a, b in zip(rows, lsdm.score.tolist(), pa.score.tolist()):
            assert a == lsdm_score(models[k], i, j)
            assert b == counts.degree(i, k) * counts.degree(j, k)
        assert np.isnan(instances.score).all()

    @pytest.mark.parametrize(
        "scorer, missing",
        [("tgne", "fm"), ("tgne_predictive", "fm"), ("lsdm", "lsdm_models"),
         ("pa", "train_counts")],
    )
    def test_missing_input_named(self, setup, scorer, missing):
        _counts, instances, _models = setup
        with pytest.raises(ValueError, match=missing):
            score_instances(instances, scorer)
