import csv
import io
import math
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import assume, given, settings, strategies as st

from tgne.events import (
    CSV_CHUNK_ROWS,
    EventList,
    EventParseError,
    IntervalPartition,
    _event_list,
    _fast_columns,
    _loop_columns,
    csv_field,
    distinct_sorted,
    float_text,
    interval_counts,
    parse_events,
    split_edges,
    unique_codes,
    write_csv_chunks,
    write_csv_columns,
    write_events_csv,
    write_nodes_csv,
)

from conftest import canonical_pair, counts_dict, random_events, tuple_list_split


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
        again = _event_list(ev.src, ev.dst, ev.time, ev.node_labels, 0, directed=False)
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
        assert counts_dict(counts) == expected

    def test_counts_partition_events(self, sbm_sample):
        part = IntervalPartition.uniform(15)
        counts = interval_counts(sbm_sample.events, part)
        assert counts.values.sum() == sbm_sample.events.m

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), K=st.integers(1, 9))
    def test_counts_partition_events_property(self, seed, K):
        ev = random_events(n=6, m=25, seed=seed)
        counts = interval_counts(ev, IntervalPartition.uniform(K))
        assert counts.values.sum() == ev.m


class TestNodeDegree:
    def test_isolated_node_zero(self, sbm_sample):
        part = IntervalPartition.uniform(3)
        ev = random_events(n=5, m=10, seed=1)
        counts = interval_counts(ev, part)
        isolated = EventList(
            src=ev.src, dst=ev.dst, time=ev.time, n=6, directed=False
        )
        counts6 = interval_counts(isolated, part)
        assert all(counts6.degree(5, k) == 0 for k in (1, 2, 3))

    def test_additivity(self):
        part = IntervalPartition.uniform(1)
        ev = EventList(
            src=np.array([0, 0, 0, 0, 0]),
            dst=np.array([1, 1, 5, 5, 5]),
            time=np.linspace(0, 1, 5),
            n=6,
        )
        counts = interval_counts(ev, part)
        assert counts.degree(0, 1) == 5

    def test_handshake_identity(self, sbm_sample):
        part = IntervalPartition.uniform(6)
        counts = interval_counts(sbm_sample.events, part)
        for k in range(1, 7):
            total_deg = sum(counts.degree(i, k) for i in range(counts.n))
            in_k = sum(c for (_i, _j, kk), c in counts_dict(counts).items() if kk == k)
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
        assert a == b and hash(a) == hash(b)
        assert a != split_edges(sbm_sample.events, 0.2, 0.1, seed=43)

    def test_too_few_pairs_rejected(self):
        ev = EventList(
            src=np.array([0, 0]), dst=np.array([1, 1]), time=np.array([0.0, 1.0]), n=2
        )
        with pytest.raises(ValueError, match="at least 3"):
            split_edges(ev, 0.5, 0.0, seed=0)

    def test_bad_fractions_rejected(self, ten_node_events):
        with pytest.raises(ValueError):
            split_edges(ten_node_events, 0.8, 0.2, seed=0)

    @settings(max_examples=60, deadline=None)
    @given(
        events_seed=st.integers(0, 10_000),
        n=st.integers(3, 12),
        directed=st.booleans(),
        test_frac=st.floats(0.0, 0.6),
        val_frac=st.floats(0.0, 0.39),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_tuple_list_split(self, events_seed, n, directed, test_frac, val_frac, seed):
        ev = random_events(n=n, m=30, seed=events_seed, directed=directed)
        assume(len(ev.unique_pairs()) >= 3)
        generators = []
        real = np.random.default_rng

        def spy(seed):
            generators.append(real(seed))
            return generators[-1]

        with mock.patch.object(np.random, "default_rng", spy):
            split = split_edges(ev, test_frac, val_frac, seed=seed)
        train, val, test, state = tuple_list_split(ev, test_frac, val_frac, seed)
        assert (split.train, split.val, split.test) == (train, val, test)
        assert split.held_out() == val | test
        assert len(generators) == 1 and generators[0].bit_generator.state == state
        for codes, part in ((split.train_codes, train), (split.val_codes, val),
                            (split.test_codes, test), (split.held_out_codes, val | test)):
            assert codes.dtype == np.int64
            assert codes.tolist() == sorted(i * n + j for i, j in part)
        assert split == split_edges(ev, test_frac, val_frac, seed=seed)

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
        stored = counts_dict(counts)
        triplets = list(stored)
        triplets += [(j, i, k) for i, j, k in stored]
        triplets += [(i % n, j % n, k) for i, j, k in extra]
        if not triplets:
            return
        ii, jj, kk = (np.asarray(col) for col in zip(*triplets))
        got = counts.counts_of(ii, jj, kk)
        assert got.dtype == np.int64
        assert got.tolist() == [
            stored.get((*canonical_pair(i, j, directed), k), 0) for i, j, k in triplets
        ]

    def test_counts_of_empty_tensor_and_broadcast_interval(self):
        part = IntervalPartition.uniform(2)
        empty = interval_counts(
            EventList(src=np.empty(0), dst=np.empty(0), time=np.empty(0), n=3), part
        )
        assert empty.counts_of(np.array([0, 1]), np.array([1, 2]), 1).tolist() == [0, 0]
        counts = _count_tensor_cases()[0]
        ii, jj = np.array([0, 1, 2]), np.array([3, 4, 5])
        stored = counts_dict(counts)
        assert counts.counts_of(ii, jj, 2).tolist() == [
            stored.get((i, j, 2), 0) for i, j in zip(ii.tolist(), jj.tolist())
        ]

    @pytest.mark.parametrize("case", [0, 1], ids=["undirected", "directed"])
    def test_degrees_match_key_loop(self, case):
        counts = _count_tensor_cases()[case]
        ref = np.zeros((counts.n, counts.K), dtype=np.int64)
        for (i, j, k), c in counts_dict(counts).items():
            ref[i, k - 1] += c
            ref[j, k - 1] += c
        assert np.array_equal(counts.degrees, ref)
        assert counts.degree(3, 2) == ref[3, 1]

    @pytest.mark.parametrize("case", [0, 1], ids=["undirected", "directed"])
    def test_neighbors_match_scan(self, case):
        counts = _count_tensor_cases()[case]
        stored = counts_dict(counts)
        for i in range(counts.n):
            for k in range(1, counts.K + 1):
                scan = [
                    j for j in range(counts.n)
                    if j != i and (*canonical_pair(i, j, counts.directed), k) in stored
                ]
                assert counts.neighbors(i, k).tolist() == scan

    def test_neighbors_rejects_out_of_range(self):
        counts = _count_tensor_cases()[0]
        for i, k in [(0, 0), (0, counts.K + 1), (-1, 1), (counts.n, 1)]:
            with pytest.raises(ValueError):
                counts.neighbors(i, k)


# labels and timestamps the one-pass reader takes, and ones it must hand to the loop
_CLEAN_LABELS = ["a", "b", "c", "10", "2", "01", "1.0", "x y", "\u00e9"]
_ODD_LABELS = [
    "", " a", "b ", "\u00a0c", "d\x1c", '"a,b"', '"q""x"', '"a', "z\x00", "a\rb",
]
_CLEAN_TIMES = [
    "1", "2.5", "1e3", ".5", "1_0", "0", "-0.0", "7", " 3", "4 ", "\u0661", "1.", "01", "+1",
    "1E+05", "-0", "0e0",
    "1.234567890123456789012345",  # 25-digit mantissa
    "123456789012345678901",  # 21-digit integer
    "1.00000000000000011102230246251565404236316680908203125",  # halfway: 1 + 2**-53
]
_ODD_TIMES = [
    "nan", "inf", "-1", "-2.5e-3", "-inf", "", "x", "1e400", "\x1c2", "1__0", '"5"', "1\r2",
]
_ODD_LINES = ["a,b", "a,b,1,x", "", "  ", "header"]


@st.composite
def _event_csv(draw):
    """CSV text for parse_events: well formed, or with one kind of defect.

    A defect is one odd label, timestamp, line, header or line ending, so
    that the one-pass reader's checks meet them one at a time; "many"
    mixes odd fields and lines anywhere.
    """
    kinds = ["none"] * 3 + ["label", "time", "line", "header", "ending", "many", "loop"]
    defect = draw(st.sampled_from(kinds))

    def pick(clean, odd):
        rare = defect == "many" and draw(st.integers(0, 7)) == 0
        return draw(st.sampled_from(odd if rare else clean))

    lines = [pick(["source,dest,timestamp", "s,d,t"], _ODD_LINES)]
    for _ in range(draw(st.integers(0, 8))):
        a = pick(_CLEAN_LABELS, _ODD_LABELS)
        b = a if draw(st.integers(0, 5)) == 0 else pick(_CLEAN_LABELS, _ODD_LABELS)
        t = pick(_CLEAN_TIMES + [repr(draw(st.floats(0, 1e6)))], _ODD_TIMES)
        lines.append(pick([f"{a},{b},{t}"], _ODD_LINES))
    if defect == "header":
        lines[0] = draw(st.sampled_from(_ODD_LINES))
    elif defect == "loop":  # a self-loop on a label no other row has
        solo = draw(st.sampled_from(["", " solo", "solo "]))
        lines.insert(draw(st.integers(1, len(lines))), f"{solo},{solo},1")
    elif defect in ("label", "time", "line") and len(lines) > 1:
        row = draw(st.integers(1, len(lines) - 1))
        fields = lines[row].split(",")
        if defect == "line":
            lines[row] = draw(st.sampled_from(_ODD_LINES))
        elif defect == "label":
            fields[draw(st.integers(0, 1))] = draw(st.sampled_from(_ODD_LABELS))
            lines[row] = ",".join(fields)
        else:
            lines[row] = ",".join(fields[:2] + [draw(st.sampled_from(_ODD_TIMES))])
    odd_ends = defect in ("ending", "many")
    style = draw(st.sampled_from(["\n", "\r\n"] + ["mixed"] * odd_ends))
    ends = [
        draw(st.sampled_from(["\n", "\r\n", "\r"])) if style == "mixed" else style
        for _ in lines
    ]
    if not draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


def _outcome(read):
    try:
        ev = read()
    except EventParseError as exc:
        return ("error", str(exc))
    return (
        "ok", ev.src.tolist(), ev.dst.tolist(), ev.time.tobytes(), ev.n, ev.node_labels,
        ev.time_range, ev.dropped_self_loops,
    )


class TestFastParse:
    @settings(max_examples=300, deadline=None)
    @given(text=_event_csv(), directed=st.booleans())
    def test_matches_line_loop(self, text, directed):
        fast = _fast_columns(text)
        if fast is not None:
            src, dst, times, labels, dropped = _loop_columns(io.StringIO(text, newline=""))
            assert fast[0].tolist() == src.tolist() and fast[1].tolist() == dst.tolist()
            assert fast[2].tobytes() == times.tobytes()
            assert (fast[3], fast[4]) == (labels, dropped)
        got = _outcome(lambda: parse_events(io.StringIO(text, newline=""), directed=directed))
        ref = _outcome(
            lambda: _event_list(*_loop_columns(io.StringIO(text, newline="")), directed=directed)
        )
        assert got == ref

    @pytest.mark.parametrize("end", ["\n", "\r\n"])
    def test_plain_input_takes_one_pass(self, end):
        rows = ["source,dest,timestamp", "a,b,1e3", "b,b,.5", "10,a,1_0", "c,10, 3", "a,c,0"]
        text = end.join(rows) + end
        src, dst, times, labels, dropped = _fast_columns(text)
        assert labels == ["a", "b", "10", "c"] and dropped == 1
        assert src.tolist() == [0, 2, 3, 0] and dst.tolist() == [1, 0, 2, 3]
        assert times.tolist() == [1000.0, 10.0, 3.0, 0.0]

    @pytest.mark.parametrize(
        "times, loads_calls",
        [
            (["1e3", "2.5", "0", "1E+05", "3.0e-2"], 1),
            (["1e3", "2.5", "-0", "1", "3"], 0),  # JSON reads -0 as the integer 0
            (["1e3", "2.5", "1.", "1", "3"], 1),  # not JSON: float reads the column
        ],
    )
    def test_json_timestamps(self, monkeypatch, times, loads_calls):
        calls = []
        loads = orjson.loads
        monkeypatch.setattr(orjson, "loads", lambda text: calls.append(text) or loads(text))
        rows = [f"{a},{b},{t}" for a, b, t in zip("abcaa", "bcdcd", times)]
        text = "\n".join(["source,dest,timestamp"] + rows) + "\n"
        got = _fast_columns(text)[2]
        assert len(calls) == loads_calls
        assert got.tobytes() == np.array([float(t) for t in times]).tobytes()

    @pytest.mark.parametrize(
        "text",
        [
            'source,dest,timestamp\n"a,b",c,1\n',
            "source,dest,timestamp\na,b,1\n\nb,c,2\n",
            "source,dest,timestamp\ra,b,1\r",
            "source,dest,timestamp\na\rb,c,1\n",
            "source,dest,timestamp\na,b,1\r2\n",
            "source,dest,timestamp\na ,b,1\n",
            "source,dest,timestamp\na,b,nan\n",
            "source,dest,timestamp\n,b,1\n",
            "source,dest,timestamp\na,b\n",
            "source,dest,timestamp\n1,2,3,4\n5,6\n",  # two commas a line on average only
            "source,dest,timestamp\n1,2\n3,4,5,6\n",
            "source,dest,timestamp\na,a,1\n",
            "source,dest,timestamp\na,b,1\n,,2\n",
            "source,dest,timestamp\na,b,1\n solo, solo,2\n",
        ],
    )
    def test_unsure_input_goes_to_the_loop(self, text):
        assert _fast_columns(text) is None


def _csv_writer_bytes(header, rows) -> bytes:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


_SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e300, 0.1, -2.5]


class TestCsvColumns:
    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.integers(-(2**63), 2**63 - 1),
                st.one_of(st.sampled_from(_SPECIAL_FLOATS), st.floats()),
                st.one_of(st.just(math.nan), st.floats(allow_nan=False)),
                st.text(alphabet=list('ab ,"\r\n\t\u00e9'), max_size=5),
                st.booleans(),
            ),
            max_size=12,
        ),
    )
    def test_matches_csv_writer(self, tmp_path_factory, rows):
        header = ["n", "x", "maybe", "text", "flag"]
        cols = list(zip(*rows)) or [()] * 5
        path = tmp_path_factory.mktemp("cols") / "t.csv"
        write_csv_columns(
            path, header,
            [
                np.asarray(cols[0], dtype=np.int64),
                np.asarray(cols[1], dtype=np.float64),
                ["" if math.isnan(x) else repr(x) for x in cols[2]],
                [csv_field(x) for x in cols[3]],
                np.asarray(cols[4], dtype=bool),
            ],
        )
        ref = [[n, x, "" if math.isnan(m) else m, t, f] for n, x, m, t, f in rows]
        assert path.read_bytes() == _csv_writer_bytes(header, ref)

    @pytest.mark.parametrize("size", [0, 1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1])
    def test_chunk_edges(self, tmp_path, size):
        rng = np.random.default_rng(size)
        ints, floats = rng.integers(-50, 50, size), rng.standard_normal(size) * 1e3
        write_csv_columns(tmp_path / "t.csv", ["i", "x"], [ints, floats])
        ref = zip(ints.tolist(), floats.tolist())
        assert (tmp_path / "t.csv").read_bytes() == _csv_writer_bytes(["i", "x"], ref)

    @pytest.mark.parametrize("size", [0, 1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1])
    def test_int_lookup_matches_csv_writer(self, tmp_path, size):
        rng = np.random.default_rng(size)
        # int8 values over -100..100 span more than int8 holds: no lookup
        wide_int8 = np.resize(np.array([-100, 100, 0], dtype=np.int8), size)
        columns = [
            rng.integers(-7, 3, size),  # negative lo
            rng.integers(0, 256, size).astype(np.uint8),
            rng.integers(-40, 40, size).astype(np.int32),
            np.full(size, 2**62, dtype=np.int64),
            rng.random(size) < 0.5,
            rng.integers(-(2**40), 2**40, size),  # range exceeds length
            wide_int8,
            rng.standard_normal(size),
        ]
        header = [f"c{c}" for c in range(len(columns))]
        write_csv_columns(tmp_path / "t.csv", header, columns)
        ref = zip(*(col.tolist() for col in columns))
        assert (tmp_path / "t.csv").read_bytes() == _csv_writer_bytes(header, ref)

    def test_chunks_match_one_write_of_their_concatenation(self, tmp_path):
        rng = np.random.default_rng(4)
        chunks = []
        for at, size in enumerate([5, 0, CSV_CHUNK_ROWS + 3, 40]):
            wide = 2**40 if at in (0, 3) else 3
            chunks.append([
                # 0..9 spans more than 5 rows but fewer than the other chunks'
                rng.integers(0, 10, size),
                # a range past the length in chunks 0 and 3 only
                rng.integers(-wide, wide, size),
                rng.standard_normal(size),
                rng.random(size) < 0.5,
                [csv_field(f"r{at},{x}") for x in range(size)],
            ])
        header = ["a", "b", "x", "flag", "text"]
        write_csv_chunks(tmp_path / "chunks.csv", header, iter(chunks))
        whole = [np.concatenate(c) for c in list(zip(*chunks))[:4]]
        whole.append([field for chunk in chunks for field in chunk[4]])
        write_csv_columns(tmp_path / "whole.csv", header, whole)
        assert (tmp_path / "chunks.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()

    def test_events_file_matches_csv_writer(self, tmp_path):
        labels = ["a,b", 'q"x', "plain", " sp", "line\nbreak", "cr\r", ""]
        ev = EventList(
            src=np.array([0, 1, 2, 0, 3]), dst=np.array([1, 4, 5, 6, 6]),
            time=np.array([0.0, 0.1, 1 / 3, 0.5, 1.0]), n=7, node_labels=labels,
        )
        write_events_csv(ev, tmp_path / "events.csv")
        ref = [
            [labels[a], labels[b], repr(t)]
            for a, b, t in zip(ev.src.tolist(), ev.dst.tolist(), ev.time.tolist())
        ]
        expected = _csv_writer_bytes(["source", "dest", "timestamp"], ref)
        assert (tmp_path / "events.csv").read_bytes() == expected

    def test_nodes_file_matches_csv_writer(self, tmp_path):
        labels = ["a,b", 'q"x', "plain", " sp", "line\nbreak", "cr\r", ""]
        ev = EventList(src=np.array([0]), dst=np.array([1]), time=np.array([0.5]), n=7,
                       node_labels=labels)
        write_nodes_csv(ev, tmp_path / "nodes.csv")
        expected = _csv_writer_bytes(["label", "id"], [[x, i] for i, x in enumerate(labels)])
        assert (tmp_path / "nodes.csv").read_bytes() == expected


def _repr_text(x: np.ndarray) -> list[str]:
    return list(map(repr, x.tolist()))


class TestFloatText:
    def test_random_bit_patterns(self):
        # every exponent: subnormals, both signs, nan and inf payloads
        bits = np.random.default_rng(0).integers(0, 2**64, size=200_000, dtype=np.uint64)
        x = bits.view(np.float64)
        assert float_text(x) == _repr_text(x)

    def test_fixed_notation_range(self):
        # the values orjson renders itself: 1e-4 <= |x| < 1e16
        rng = np.random.default_rng(1)
        mag = 10.0 ** rng.uniform(-5, 17, 200_000)
        x = np.concatenate([
            mag * rng.choice([-1.0, 1.0], mag.size), np.round(mag), rng.random(50_000),
            rng.standard_normal(50_000) * 1e-3,
        ])
        assert float_text(x) == _repr_text(x)

    @pytest.mark.parametrize("edge", [1e-4, 1e16])
    def test_notation_edges(self, edge):
        below, above = edge, edge
        values = [edge]
        for _ in range(4):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
            values += [below, above]
        x = np.array(values + [-v for v in values])
        assert float_text(x) == _repr_text(x)

    def test_special_values(self):
        x = np.array([0.0, -0.0, 5e-324, -5e-324, np.finfo(np.float64).max,
                      -np.finfo(np.float64).max, np.nan, np.inf, -np.inf])
        assert float_text(x) == _repr_text(x)

    def test_empty(self):
        assert float_text(np.empty(0)) == []

    def test_strided_slice(self):
        x = np.random.default_rng(2).standard_normal(101)[::3]
        assert not x.flags.c_contiguous
        assert float_text(x) == _repr_text(x)

    def test_float32_written_as_its_double(self):
        x = np.array([0.1, 1e-5, 3.4e38, np.nan, 2.5], dtype=np.float32)
        assert float_text(x) == _repr_text(x.astype(np.float64))
        assert float_text(x)[0] == "0.10000000149011612"

    def test_big_endian(self):
        x = np.random.default_rng(3).standard_normal(64).astype(">f8")
        assert float_text(x) == _repr_text(x)


class TestUniqueCodes:
    @pytest.mark.parametrize("codes", [
        [], [7], [3, 3, 3, 3], [-5, 2, -5, -1, 0, 2, -(2**62)], [2**62, -1, 2**62],
    ])
    def test_equals_np_unique(self, codes):
        codes = np.asarray(codes, dtype=np.int64)
        want = np.unique(codes)
        for got in (unique_codes(codes), distinct_sorted(np.sort(codes))):
            assert got.dtype == want.dtype and got.tolist() == want.tolist()

    def test_random_codes(self):
        rng = np.random.default_rng(0)
        for size, high in ((1, 3), (50, 10), (10_000, 500), (10_000, 2**40)):
            codes = rng.integers(-high, high, size)
            assert np.array_equal(unique_codes(codes), np.unique(codes))
        assert unique_codes(codes).dtype == np.int64


class TestCodeStorage:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000), n=st.integers(2, 8), K=st.integers(1, 5),
        directed=st.booleans(),
    )
    def test_matches_key_dict(self, seed, n, K, directed):
        ev = random_events(n=n, m=25, seed=seed, directed=directed)
        part = IntervalPartition.uniform(K)
        counts = interval_counts(ev, part)
        ref: dict = {}
        for a, b, k in zip(ev.src.tolist(), ev.dst.tolist(), part.interval_of(ev.time).tolist()):
            ref[(a, b, k)] = ref.get((a, b, k), 0) + 1
        assert counts_dict(counts) == ref
        assert counts.codes.tolist() == sorted(counts.codes.tolist())
        assert counts.values.sum() == ev.m
        active = counts.active_pairs()
        assert list(zip(*(x.tolist() for x in active))) == sorted({(a, b) for a, b, _k in ref})
        for k in range(1, K + 1):
            assert counts.pairs_active_in(k) == {(a, b) for a, b, kk in ref if kk == k}

    @pytest.mark.parametrize("directed", [False, True])
    def test_split_matches_sorted_pair_list(self, directed):
        ev = random_events(n=9, m=60, seed=3, directed=directed)
        for seed in range(5):
            pairs = sorted(ev.unique_pairs())
            order = np.random.default_rng(seed).permutation(len(pairs))
            shuffled = [pairs[i] for i in order]
            n_test, n_val = int(len(pairs) * 0.2), int(len(pairs) * 0.1)
            split = split_edges(ev, 0.2, 0.1, seed=seed)
            assert split.test == frozenset(shuffled[:n_test])
            assert split.val == frozenset(shuffled[n_test : n_test + n_val])
            assert split.train == frozenset(shuffled[n_test + n_val :])
