import _strptime
import datetime
import io
import logging
import pickle
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from domepilot import weather
from domepilot.controller import read_frames_csv
from domepilot.weather import (
    _DATE_FORMATS,
    FEATURE_NAMES,
    CleaningReport,
    ConditionTable,
    LabeledSample,
    SplitSpec,
    WeatherObservation,
    derive_state,
    filter_city,
    normalize_condition,
    parse_dataset,
    permutation,
    read_labeled_csv,
    split,
    to_samples,
    write_labeled_csv,
)

from conftest import EXPECTED_TABLE1

RAW_HEADER = "city,date,time,temp,wind,humidity,barometer,visibility,weather\n"


def raw_csv(*rows):
    return io.StringIO(RAW_HEADER + "".join(row + "\n" for row in rows))


CELL_MEMOS = (weather._parse_date, weather._parse_hour, weather._parse_number,
              weather.normalize_condition)


@pytest.fixture
def cold_cell_memos():
    """Empty per-cell parse memos, so the test parses every cell afresh."""
    for memo in CELL_MEMOS:
        memo.cache_clear()


# ---------------------------------------------------------------- condition table

def test_builtin_table_matches_frozen_copy_exhaustively():
    table = ConditionTable.builtin()
    assert len(table) == 36
    for condition, flag in EXPECTED_TABLE1:
        assert table.flag(condition) == flag, condition


def test_lookup_is_case_insensitive_and_whitespace_collapsed():
    table = ConditionTable.builtin()
    assert table.flag("rain  passing   clouds") == 0
    assert table.flag("CLEAR") == 1
    assert table.flag("  duststorm ") == 0
    assert normalize_condition("  Rain   Passing Clouds ") == "rain passing clouds"


def test_unknown_condition_raises_carrying_the_string():
    table = ConditionTable.builtin()
    with pytest.raises(LookupError) as err:
        table.flag("Frogs falling")
    assert str(err.value) == "unmapped weather condition: 'Frogs falling'"


def test_table_rejects_duplicates_and_bad_flags():
    with pytest.raises(ValueError):
        ConditionTable([("Clear", 1), ("clear ", 0)])
    with pytest.raises(ValueError):
        ConditionTable([("Clear", 2)])
    with pytest.raises(ValueError):
        ConditionTable([])


@pytest.mark.parametrize("flag", [0.5, 1.9, "1"])
def test_table_rejects_a_flag_that_is_not_0_or_1_instead_of_truncating(flag):
    with pytest.raises(ValueError, match=f"entry 2: flag must be 0 or 1, got {flag!r}"):
        ConditionTable([("Clear", 1), ("Fog", flag)])


def test_table_from_csv_supports_header_and_any_size():
    stream = io.StringIO("condition,flag\nClear,1\nMud rain,0\n")
    table = ConditionTable.from_csv(stream)
    assert len(table) == 2
    assert table.flag("mud rain") == 0
    with pytest.raises(ValueError):
        ConditionTable.from_csv(io.StringIO("Clear,banana\n"))


# ---------------------------------------------------------------- temperature gate

@pytest.mark.parametrize("flag,temp,state", [
    (1, 21, 1),
    (1, 30, 0),
    (0, 20, 0),
    (1, 16, 0),
    (1, 27, 0),
    (1, 16.5, 1),
    (1, 26.5, 1),
])
def test_derive_state_examples(flag, temp, state):
    assert derive_state(flag, temp) == state


def test_derive_state_equals_flag_times_indicator_over_sweep():
    # 0.5-degree sweep of [-10, 50]; halves are exact in binary floats.
    for flag in (0, 1):
        temp = -10.0
        while temp <= 50.0:
            expected = flag * (1 if 16.0 < temp < 27.0 else 0)
            assert derive_state(flag, temp) == expected, (flag, temp)
            temp += 0.5


# ---------------------------------------------------------------- parsing

def test_parse_table_style_row():
    observations, report = parse_dataset(raw_csv(
        "Al Madina,2017-01-01,00:00,21,0,33%,1020.0,16,Clear"))
    assert report.as_dict() == {"rows_read": 1, "kept": 1, "rejected": 0, "reasons": {}}
    (obs,) = observations
    assert obs.city == "Al Madina"
    assert (obs.temp, obs.wind, obs.humidity) == (21.0, 0.0, 0.33)
    assert (obs.hour, obs.visibility, obs.barometer) == (0, 16.0, 1020.0)
    assert obs.condition == "Clear"
    assert obs.date.isoformat() == "2017-01-01"


def test_parse_header_only_gives_empty_list():
    observations, report = parse_dataset(raw_csv())
    assert observations == []
    assert report.rejected == 0


def test_unparsable_numeric_rejects_only_that_row():
    observations, report = parse_dataset(raw_csv(
        "A,2018-02-03,01:00,20,5,40%,1015,10,Clear",
        "A,2018-02-03,02:00,abc,5,40%,1015,10,Clear",
        "A,2018-02-03,03:00,22,5,40%,1015,10,Clear"))
    assert len(observations) == 2
    assert report.rejected == 1
    assert report.reasons == {"bad_temp": 1}
    assert [o.hour for o in observations] == [1, 3]


def test_missing_column_is_a_schema_error_naming_it():
    stream = io.StringIO("city,date,time,temp,wind,humidity,barometer,weather\n")
    with pytest.raises(ValueError, match="missing required column.*visibility"):
        parse_dataset(stream)


def test_unit_suffixes_and_percent_are_normalized():
    observations, _ = parse_dataset(raw_csv(
        "A,03-01-2018,11:00 pm,21 °c,7 km/h,55 %,1011 mbar,16 km,Haze",
        "A,2018-01-03,24:00,19,No wind,0.4,1010,14,Clear"))
    first, second = observations
    assert (first.temp, first.wind, first.humidity) == (21.0, 7.0, 0.55)
    assert first.hour == 23
    assert second.hour == 0  # 24:00 canonicalized
    assert second.wind == 0.0
    assert second.humidity == 0.4


def test_out_of_range_values_are_rejected_not_fatal():
    observations, report = parse_dataset(raw_csv(
        "A,2018-01-01,26:00,20,0,40%,1015,10,Clear",   # bad hour
        "A,2018-01-01,01:00,20,0,40%,-3,10,Clear",     # bad barometer
        "A,2018-01-01,02:00,20,0,40%,1015,10,Clear"))
    assert len(observations) == 1
    assert report.rejected == 2
    assert report.reasons == {"bad_time": 1, "invalid_values": 1}


@pytest.mark.parametrize("cell", ["24:30", "24:59", "24:00:01", "7:99", "7:05:60"])
def test_minutes_or_seconds_past_the_hour_reject_the_row(tmp_path, cell):
    row = f"A,2018-01-01,{cell},20,0,40%,1015,10,Clear"
    observations, report = parse_dataset(raw_csv(row))
    assert observations == [] and report.reasons == {"bad_time": 1}
    frames, report = read_frames_csv(write_frames(tmp_path / "frames.csv", [row + ",0"]))
    assert frames == [] and report.reasons == {"bad_time": 1}


def test_midnight_and_full_clock_times_read_their_hour():
    observations, report = parse_dataset(raw_csv(
        *(f"A,2018-01-01,{cell},20,0,40%,1015,10,Clear"
          for cell in ("24:00", "24:00:00", "7:59:59", "12:30 am"))))
    assert report.rejected == 0
    assert [obs.hour for obs in observations] == [0, 0, 7, 0]


def test_column_order_is_free_and_header_case_insensitive():
    stream = io.StringIO(
        "Weather,CITY,date,time,temp,wind,humidity,barometer,visibility\n"
        "Clear,B,2019-06-01,05:00,25,3,20%,1008,16\n")
    observations, _ = parse_dataset(stream)
    assert observations[0].city == "B"
    assert observations[0].condition == "Clear"


# ---------------------------------------------------------------- dates

def strptime_date(cell):
    """Reference: the first of _DATE_FORMATS that strptime accepts, else None."""
    for fmt in _DATE_FORMATS:
        try:
            return datetime.datetime.strptime(cell.strip(), fmt).date()
        except ValueError:
            continue
    return None


def parsed_date(cell):
    observations, _ = parse_dataset(raw_csv(f'A,"{cell}",01:00,20,0,40%,1015,10,Clear'))
    return observations[0].date if observations else None


_DIGIT_SETS = ("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669",
               "\uff10\uff11\uff12\uff13\uff14\uff15\uff16\uff17\uff18\uff19")


@st.composite
def date_cells(draw):
    def field(value, widths):
        text = str(value).zfill(draw(st.sampled_from(widths)))
        digits = draw(st.sampled_from(_DIGIT_SETS))
        return "".join(digits[int(c)] for c in text)

    year = field(draw(st.integers(0, 10_000)), (0, 4))
    month = field(draw(st.integers(0, 13)), (0, 2))
    day = draw(st.one_of(st.integers(0, 32).map(lambda d: field(d, (0, 2))),
                         st.integers(0, 9).map(lambda d: f" {d}")))
    order = draw(st.sampled_from([(year, month, day), (day, month, year),
                                  (month, day, year), (year, day, month)]))
    cell = draw(st.sampled_from("-/. ")).join(order)
    return (draw(st.sampled_from(["", " ", "x", "0"])) + cell
            + draw(st.sampled_from(["", " ", "x", "0", "/1"])))


@pytest.mark.parametrize("cell,expected", [
    ("2017-02-01", datetime.date(2017, 2, 1)),
    ("01-02-2017", datetime.date(2017, 2, 1)),
    ("01/02/2017", datetime.date(2017, 2, 1)),    # slash dates read day first
    ("02/13/2017", datetime.date(2017, 2, 13)),   # month first where day first fails
    ("2017/2/1", datetime.date(2017, 2, 1)),
    ("1.2.2017", datetime.date(2017, 2, 1)),
    ("29/02/2016", datetime.date(2016, 2, 29)),
    ("2017-02- 1", datetime.date(2017, 2, 1)),    # space-padded day
    (" 01/02/2017 ", datetime.date(2017, 2, 1)),
    ("\u0662\u0660\u0661\u0667-02-1\u0665", datetime.date(2017, 2, 15)),
    ("30/02/2017", None),
    ("29/02/2017", None),
    ("0000-01-01", None),
    ("2017-01-01x", None),
    ("2017-13-01", None),
    ("17-01-01", None),
    ("", None),
])
def test_date_formats_and_their_order(cell, expected):
    assert strptime_date(cell) == expected
    assert parsed_date(cell) == expected


@settings(deadline=None, max_examples=300)
@given(st.one_of(date_cells(), st.text(alphabet="0123456789-/. x\u0663", max_size=12)))
@example("01/02/2017")
@example("02/13/2017")
@example("30/02/2017")
@example("29/02/2016")
@example("29/02/2017")
@example("\u0662\u0660\u0661\u0667-\u0660\u0661-\u0660\u0662")
@example("1/ 2/2017")
@example("0000-01-01")
@example("2017-01-01 junk")
def test_date_parsing_matches_the_strptime_cascade(cell):
    assert parsed_date(cell) == strptime_date(cell)


def test_dates_parse_without_strptime(monkeypatch, tmp_path, cold_cell_memos):
    # Every datetime.strptime and time.strptime call goes through these two
    # functions; parsing must not reach them, whatever the date format.
    def no_strptime(*args):
        raise AssertionError("strptime called")

    monkeypatch.setattr(_strptime, "_strptime_datetime", no_strptime)
    monkeypatch.setattr(_strptime, "_strptime_time", no_strptime)
    cells = ["2017-02-01", "01-02-2017", "01/02/2017", "02/13/2017", "2017/02/01",
             "01.02.2017"]
    expected = [datetime.date(2017, 2, 1)] * 3 + [datetime.date(2017, 2, 13),
                                                  datetime.date(2017, 2, 1),
                                                  datetime.date(2017, 2, 1)]
    rows = [f"A,{cell},0{i}:00,20,0,40%,1015,10,Clear" for i, cell in enumerate(cells)]
    observations, report = parse_dataset(raw_csv(*rows))
    assert report.rejected == 0
    assert [o.date for o in observations] == expected
    frames_csv = tmp_path / "frames.csv"
    frames_csv.write_text(RAW_HEADER.replace("\n", ",rain\n")
                          + "".join(row + ",0\n" for row in rows))
    frames, report = read_frames_csv(frames_csv)
    assert report.rejected == 0
    assert [f.observation.date for f in frames] == expected


# ---------------------------------------------------------------- cell memos

def write_frames(path, rows):
    path.write_text(RAW_HEADER.replace("\n", ",rain\n") + "".join(row + "\n" for row in rows))
    return path


def test_cell_memos_are_bounded():
    for memo in CELL_MEMOS:
        maxsize = memo.cache_info().maxsize
        assert isinstance(maxsize, int) and 0 < maxsize < 1_000_000, memo


def test_repeated_bad_cells_are_rejected_every_time(tmp_path, cold_cell_memos):
    good = "A,2017-02-01,01:00,20,3,40%,1015,10,Clear,0"
    rows = [good, "A,2017-02-01,01:00,hot,3,40%,1015,10,Clear,0",
            "A,31/02/2017,01:00,20,3,40%,1015,10,Clear,0", good,
            "A,2017-02-01,01:00,hot,3,40%,1015,10,Clear,0",
            "A,2017-02-01,25:00,20,3,40%,1015,10,Clear,0",
            "A,31/02/2017,01:00,20,3,40%,1015,10,Clear,0",
            "A,2017-02-01,25:00,20,3,40%,1015,10,Clear,0"]
    path = write_frames(tmp_path / "frames.csv", rows)
    for _ in range(2):  # the second read meets every cell in the memos
        frames, report = read_frames_csv(path)
        assert len(frames) == 2 and [f.tick for f in frames] == [0, 1]
        assert report.as_dict() == {"rows_read": 8, "kept": 2, "rejected": 6,
                                    "reasons": {"bad_date": 2, "bad_temp": 2,
                                                "bad_time": 2}}


def test_cold_and_warm_memos_parse_equal_frames(tmp_path, cold_cell_memos):
    rows = [f"Al Madina,{day}/0{1 + i % 9}/2017,{i % 12 + 1}:00 {'pm' if i % 2 else 'am'},"
            f"{15 + i % 13} °c,{i % 4} km/h,{30 + i % 50}%,{1000 + i % 20}mbar,{i % 16},"
            f"{'Clear' if i % 3 else 'Rain Partly sunny'},{i % 2}"
            for i, day in enumerate([1, 2, 3, 12, 28] * 8)]
    path = write_frames(tmp_path / "frames.csv", rows)
    cold = read_frames_csv(path)
    hits = [memo.cache_info().hits for memo in CELL_MEMOS[:3]]
    warm = read_frames_csv(path)
    assert all(memo.cache_info().hits > before
               for memo, before in zip(CELL_MEMOS, hits))
    assert cold[0] == warm[0] and len(cold[0]) == len(rows)
    assert cold[1].as_dict() == warm[1].as_dict()
    observations = parse_dataset(raw_csv(*(row.rsplit(",", 1)[0] for row in rows)))[0]
    assert [f.observation for f in cold[0]] == observations


# ---------------------------------------------------------------- city filter

def observation(city="Al Madina", temp=20.0, condition="Clear", hour=0):
    import datetime
    return WeatherObservation(city=city, date=datetime.date(2018, 1, 1), hour=hour,
                              temp=temp, wind=0.0, humidity=0.4,
                              barometer=1015.0, visibility=16.0, condition=condition)


@pytest.mark.parametrize("field,value", [("hour", 24), ("humidity", 1.5), ("barometer", 0.0),
                                         ("visibility", -1.0), ("condition", " ")])
def test_observation_is_a_checked_record(field, value):
    """A WeatherObservation is a read-only tuple checked when built or unpickled.

    ``_replace`` and ``_make`` build the tuple without ``__new__`` and so skip
    the checks; nothing in src/ calls them.
    """
    obs = observation()
    assert repr(obs) == (
        "WeatherObservation(city='Al Madina', date=datetime.date(2018, 1, 1), hour=0, "
        "temp=20.0, wind=0.0, humidity=0.4, barometer=1015.0, visibility=16.0, "
        "condition='Clear')")
    assert pickle.loads(pickle.dumps(obs)) == obs
    with pytest.raises(AttributeError):
        setattr(obs, field, value)
    with pytest.raises(ValueError):
        WeatherObservation(**{**obs._asdict(), field: value})
    unchecked = obs._replace(**{field: value})
    with pytest.raises(ValueError):
        pickle.loads(pickle.dumps(unchecked))


def test_the_package_never_builds_records_unchecked():
    src = Path(weather.__file__).parent
    for path in src.glob("*.py"):
        text = path.read_text(encoding="utf-8")
        assert "._replace(" not in text and "._make(" not in text, path


def test_filter_city_matches_case_insensitively_preserving_order():
    rows = [observation(city="Riyadh"), observation(city="al madina", hour=1),
            observation(city="AL MADINA", hour=2)]
    got = filter_city(rows, "Al Madina")
    assert [o.hour for o in got] == [1, 2]


def test_filter_city_no_match_warns_and_returns_empty(caplog):
    with caplog.at_level(logging.WARNING):
        assert filter_city([observation()], "Jeddah") == []
    assert any("Jeddah" in record.message for record in caplog.records)


def test_filter_city_is_idempotent():
    rows = [observation(hour=h) for h in range(3)]
    once = filter_city(rows, "Al Madina")
    assert filter_city(once, "Al Madina") == once == rows


def test_filter_city_requires_a_name():
    with pytest.raises(ValueError):
        filter_city([], "  ")


# ---------------------------------------------------------------- labeling

def test_to_samples_table_row():
    table = ConditionTable.builtin()
    samples, report = to_samples([observation(temp=21.0, condition="Clear")], table)
    assert samples == [LabeledSample((21.0, 0.0, 0.4, 0.0, 16.0, 1015.0), 1)]
    assert report.rejected == 0


def test_to_samples_sandstorm_closes_despite_good_temp():
    samples, _ = to_samples([observation(temp=20.0, condition="Sandstorm")],
                            ConditionTable.builtin())
    assert samples[0].label == 0


def test_to_samples_empty_input():
    samples, report = to_samples([], ConditionTable.builtin())
    assert samples == [] and report.rows_read == 0


def test_to_samples_counts_are_preserved():
    rows = [observation(condition="Clear", hour=1),
            observation(condition="Martian fog", hour=2),
            observation(condition="Hail", hour=3),
            observation(condition="also unknown", hour=4)]
    samples, report = to_samples(rows, ConditionTable.builtin())
    assert len(samples) + report.rejected == len(rows)
    assert report.reasons == {"unmapped_condition": 2}


# ---------------------------------------------------------------- split

def test_split_sizes_match_rounding():
    train, test = split(list(range(100)), SplitSpec(0.33, 324))
    assert (len(train), len(test)) == (67, 33)


def test_split_is_deterministic():
    samples = list(range(10))
    a = split(samples, SplitSpec(0.30, 101))
    b = split(samples, SplitSpec(0.30, 101))
    assert a == b


def test_split_seeds_101_and_102_differ_by_direct_computation():
    # Independent SplitMix64 + Fisher-Yates oracle, written from the
    # published constants rather than the package implementation.
    def oracle_permutation(n, seed):
        mask = (1 << 64) - 1
        state = seed & mask

        def next_u64():
            nonlocal state
            state = (state + 0x9E3779B97F4A7C15) & mask
            z = state
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            return z ^ (z >> 31)

        order = list(range(n))
        for i in range(n - 1, 0, -1):
            j = next_u64() % (i + 1)
            order[i], order[j] = order[j], order[i]
        return order

    assert permutation(10, 101) == oracle_permutation(10, 101)
    assert permutation(10, 102) == oracle_permutation(10, 102)
    assert oracle_permutation(10, 101) != oracle_permutation(10, 102)
    a = split(list(range(10)), SplitSpec(0.30, 101))
    b = split(list(range(10)), SplitSpec(0.30, 102))
    assert a != b


def test_split_rejects_tiny_inputs():
    with pytest.raises(ValueError):
        split([1], SplitSpec(0.3, 1))


@given(n=st.integers(2, 1000), fraction=st.floats(0.01, 0.99),
       seed=st.integers(0, 2**64 - 1))
@settings(max_examples=60, deadline=None)
def test_split_partitions_the_input(n, fraction, seed):
    samples = list(range(n))
    train, test = split(samples, SplitSpec(fraction, seed))
    assert len(test) == round(n * fraction)
    assert sorted(train + test) == samples


def test_split_spec_validation():
    with pytest.raises(ValueError):
        SplitSpec(0.0, 1)
    with pytest.raises(ValueError):
        SplitSpec(1.0, 1)
    with pytest.raises(ValueError):
        SplitSpec(0.3, -1)


# ---------------------------------------------------------------- labeled CSV

def test_labeled_csv_round_trip(tmp_path):
    table = ConditionTable.builtin()
    samples, _ = to_samples(
        [observation(temp=t, condition=c, hour=h)
         for h, (t, c) in enumerate([(21.5, "Clear"), (30.0, "Clear"),
                                     (20.0, "Hail"), (18.25, "Overcast")])],
        table)
    path = tmp_path / "labeled.csv"
    write_labeled_csv(samples, path)
    assert read_labeled_csv(path) == samples
    header = path.read_text().splitlines()[0]
    assert header == "temp,wind,humidity,hour,visibility,barometer,state"


def test_labeled_csv_prints_each_float_as_its_repr():
    samples = [LabeledSample((0.1, 1e-05, 1015.0, -0.0, 5e-324, 1.7976931348623157e+308), 1),
               LabeledSample((21.0, 0.0, 0.4, 23.0, 16.0, 1012.5), 0)]
    out = io.StringIO()
    write_labeled_csv(samples, out)
    assert out.getvalue() == (
        "temp,wind,humidity,hour,visibility,barometer,state\r\n"
        "0.1,1e-05,1015.0,-0.0,5e-324,1.7976931348623157e+308,1\r\n"
        "21.0,0.0,0.4,23.0,16.0,1012.5,0\r\n")
    assert read_labeled_csv(io.StringIO(out.getvalue())) == samples


def test_labeled_csv_missing_column_is_schema_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("temp,wind,humidity,hour,visibility,state\n")
    with pytest.raises(ValueError, match="missing required column.*barometer"):
        read_labeled_csv(path)


LABELED_HEADER = "temp,wind,humidity,hour,visibility,barometer,state\n"
GOOD_ROW = "21.0,3.0,0.4,12.0,16.0,1012.0,1\n"


@pytest.mark.parametrize("row", ["nan,3.0,0.4,12.0,16.0,1012.0,1\n",
                                 "21.0,inf,0.4,12.0,16.0,1012.0,1\n",
                                 "21.0,3.0,0.4,12.0,16.0,-Infinity,0\n",
                                 "21.0,3.0,abc,12.0,16.0,1012.0,1\n",
                                 "21.0,3.0,0.4,12.0,16.0,1012.0,7\n",
                                 "21.0,3.0,0.4,12.0\n"])
def test_labeled_csv_bad_cells_name_their_line(row):
    stream = io.StringIO(LABELED_HEADER + GOOD_ROW + "\n" + row)
    with pytest.raises(ValueError, match="line 4"):
        read_labeled_csv(stream)


def test_labeled_csv_header_is_case_insensitive_and_order_free():
    stream = io.StringIO("State, BAROMETER,temp,wind,humidity,hour,visibility\n"
                         "1,1012.0,21.0,3.0,0.4,12.0,16.0\n")
    assert read_labeled_csv(stream) == [
        LabeledSample((21.0, 3.0, 0.4, 12.0, 16.0, 1012.0), 1)]


def test_sample_validation():
    """A LabeledSample is a read-only tuple checked when built or unpickled.

    ``_replace`` and ``_make`` build the tuple without ``__new__`` and so skip
    the checks; nothing in src/ calls them.
    """
    with pytest.raises(ValueError):
        LabeledSample((1.0, 2.0), 1)
    with pytest.raises(ValueError):
        LabeledSample((1.0,) * 6, 2)
    sample = LabeledSample(features=(1.0,) * 6, label=1)
    assert repr(sample) == "LabeledSample(features=(1.0, 1.0, 1.0, 1.0, 1.0, 1.0), label=1)"
    assert sample == ((1.0,) * 6, 1) and pickle.loads(pickle.dumps(sample)) == sample
    with pytest.raises(AttributeError):
        sample.label = 0
    unchecked = sample._replace(label=2)
    assert unchecked.label == 2
    with pytest.raises(ValueError, match="label must be 0 or 1"):
        pickle.loads(pickle.dumps(unchecked))
    assert FEATURE_NAMES == ("temp", "wind", "humidity", "hour", "visibility", "barometer")
