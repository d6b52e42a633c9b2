import datetime
import errno
import io
import json
import math
import pickle
import socket
import socketserver
import struct
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from domepilot import controller
from domepilot.controller import (
    CAUSE_MODEL,
    CAUSE_MODEL_ERROR,
    CAUSE_RAIN,
    CAUSE_TEMP,
    CAUSE_UNMAPPED,
    CAUSES,
    DecisionLog,
    DomeCommand,
    LogEntry,
    SensorFrame,
    SignalDeliveryError,
    decide,
    emit_signal,
    open_sink,
    read_frames_csv,
    replay,
)
from domepilot.weather import (
    ConditionTable,
    WeatherObservation,
    derive_state,
)


def observation(temp=20.0, condition="Clear", hour=0):
    return WeatherObservation(city="Al Madina", date=datetime.date(2019, 5, 1),
                              hour=hour, temp=temp, wind=2.0, humidity=0.4,
                              barometer=1015.0, visibility=16.0, condition=condition)


def frame(temp=20.0, rain=False, condition="Clear", tick=0):
    return SensorFrame(observation=observation(temp=temp, condition=condition,
                                               hour=tick % 24),
                       rain_detected=rain, tick=tick)


def constant_model(prediction):
    return lambda features: prediction


def failing_model(features):
    raise RuntimeError("model fault")


def decide_with(model, rain=False, temp=20.0):
    """decide() on the features of one observation at ``temp``; the gate reads
    the temperature from those features."""
    return decide(model, observation(temp=temp).features(), rain)


def command_for(prediction, rain=False, temp=20.0):
    """The command decide() gives under a model that always returns ``prediction``."""
    return decide_with(constant_model(prediction), rain, temp)[0]


# ---------------------------------------------------------------- decide

def test_rain_overrides_an_open_prediction():
    command = command_for(1, rain=True)
    assert (command.dome, command.ac, command.cause) == (0, 1, CAUSE_RAIN)


def test_model_opens_when_gates_allow():
    command = command_for(1)
    assert (command.dome, command.ac, command.cause) == (1, 0, CAUSE_MODEL)


def test_temp_gate_closes_despite_open_prediction():
    command = command_for(1, temp=30.0)
    assert (command.dome, command.ac, command.cause) == (0, 1, CAUSE_TEMP)


def test_model_close_keeps_model_cause():
    command = command_for(0)
    assert (command.dome, command.cause) == (0, CAUSE_MODEL)


def test_decide_rejects_non_binary_predictions():
    # A model returning 2 fails closed instead of driving the dome.
    command, prediction, fault = decide_with(constant_model(2))
    assert (command.dome, command.ac, command.cause) == (0, 1, CAUSE_MODEL_ERROR)
    assert prediction is None
    assert isinstance(fault, ValueError) and "returned 2" in str(fault)


def test_exhaustive_safety_cube():
    temps = (10.0, 16.0, 16.5, 20.0, 26.9, 27.0, 30.0, math.nan, math.inf, -math.inf)
    models = {0: constant_model(0), 1: constant_model(1), 2: constant_model(2),
              None: constant_model(None), "raises": failing_model}
    for output, model in models.items():
        faulty = output not in (0, 1)
        for rain in (True, False):
            for temp in temps:
                command, prediction, fault = decide_with(model, rain, temp)
                if faulty:
                    assert command.dome == 0 and prediction is None and fault is not None
                    assert command.cause == (CAUSE_RAIN if rain else CAUSE_MODEL_ERROR)
                elif rain:
                    assert command.dome == 0 and command.cause == CAUSE_RAIN
                elif not 16.0 < temp < 27.0:
                    assert command.dome == 0 and command.cause == CAUSE_TEMP
                else:
                    assert command.dome == output
                    assert command.cause == CAUSE_MODEL
                if not faulty:
                    assert (prediction, fault) == (output, None)
                if not math.isfinite(temp):
                    assert command.dome == 0
                assert command.ac == 1 - command.dome
                line = emit_signal(command, io.StringIO())
                assert line == f"D:{command.dome} A:{command.ac}\n"


def test_decide_hands_out_shared_commands():
    assert command_for(1) is command_for(1)
    assert command_for(0, rain=True) is command_for(1, rain=True)
    assert decide_with(failing_model)[0] is decide_with(constant_model(2))[0]


def test_interlock_is_unconstructible_otherwise():
    for dome in (0, 1):
        command = DomeCommand(dome, CAUSE_MODEL)
        assert command.ac == 1 - dome
        with pytest.raises(AttributeError):
            command.ac = dome
    with pytest.raises(TypeError):
        DomeCommand(dome=1, ac=1, cause=CAUSE_MODEL)
    for dome in (2, 1.0, True):  # the dome bit indexes the wire lines
        with pytest.raises(ValueError):
            DomeCommand(dome=dome, cause=CAUSE_MODEL)
    with pytest.raises(ValueError):
        DomeCommand(dome=1, cause="gremlins")


# ---------------------------------------------------------------- wire protocol

def test_emit_writes_exact_bytes():
    sink = io.StringIO()
    emit_signal(command_for(1), sink)
    emit_signal(command_for(0), sink)
    assert sink.getvalue() == "D:1 A:0\nD:0 A:1\n"


def test_parse_round_trips_both_constructible_commands():
    for prediction, line in ((0, "D:0 A:1\n"), (1, "D:1 A:0\n")):
        command = command_for(prediction)
        assert emit_signal(command, io.StringIO()) == line
        assert line == f"D:{command.dome} A:{command.ac}\n"


def test_failing_sink_raises_retriable_error_then_recovers():
    class Broken:
        def write(self, line):
            raise OSError("wire cut")

    command = command_for(1)
    with pytest.raises(SignalDeliveryError):
        emit_signal(command, Broken())
    closed = io.StringIO()
    closed.close()
    with pytest.raises(SignalDeliveryError):
        emit_signal(command, closed)
    good = io.StringIO()
    assert emit_signal(command, good) == "D:1 A:0\n"


# ---------------------------------------------------------------- replay

def test_replay_three_clear_frames_open():
    frames = [frame(tick=t) for t in range(3)]
    log = replay(constant_model(1), frames)
    assert [e.command.dome for e in log] == [1, 1, 1]
    assert [e.prediction for e in log] == [1, 1, 1]


def test_rain_override_is_stateless_per_frame():
    frames = [frame(tick=0), frame(tick=1, rain=True), frame(tick=2)]
    log = replay(constant_model(1), frames)
    assert [e.command.dome for e in log] == [1, 0, 1]
    assert log[1].command.cause == CAUSE_RAIN


def test_unmapped_condition_frame_fails_safe():
    frames = [frame(tick=0), frame(tick=1, condition="Volcanic ash"), frame(tick=2)]
    log = replay(constant_model(1), frames)
    middle = log[1]
    assert middle.command.dome == 0
    assert middle.command.cause == CAUSE_UNMAPPED
    assert middle.prediction is None


@pytest.mark.parametrize("model", [failing_model, constant_model(2),
                                   constant_model(None), constant_model(0.5)],
                         ids=["raises", "returns-2", "returns-None", "returns-0.5"])
def test_model_fault_closes_the_frame_and_the_replay_goes_on(model, caplog):
    frames = [frame(tick=0), frame(tick=1, rain=True), frame(tick=2, temp=30.0),
              frame(tick=3, condition="Volcanic ash")]
    sink = io.StringIO()
    log = replay(model, frames, sink=sink)
    assert [(e.command.dome, e.command.ac, e.command.cause) for e in log] == [
        (0, 1, CAUSE_MODEL_ERROR), (0, 1, CAUSE_RAIN), (0, 1, CAUSE_MODEL_ERROR),
        (0, 1, CAUSE_UNMAPPED)]
    assert [e.prediction for e in log] == [None] * 4
    assert sink.getvalue() == "D:0 A:1\n" * 4
    warnings = [r for r in caplog.records if r.name == "domepilot.controller"]
    assert len(warnings) == 1 and "3 of 4 frames" in warnings[0].getMessage()


def test_a_model_fault_on_one_frame_spares_the_others():
    def flaky(features):
        if features[3] == 1.0:  # the hour of tick 1
            raise RuntimeError("model fault")
        return 1

    log = replay(flaky, [frame(tick=t) for t in range(3)])
    assert [e.command.cause for e in log] == [CAUSE_MODEL, CAUSE_MODEL_ERROR, CAUSE_MODEL]
    assert [e.prediction for e in log] == [1, None, 1]


@pytest.mark.parametrize("rain,cause", [(False, CAUSE_MODEL_ERROR), (True, CAUSE_RAIN)])
def test_decide_closes_on_a_model_fault(rain, cause):
    command, prediction, fault = decide_with(failing_model, rain)
    assert (command.dome, command.ac, command.cause) == (0, 1, cause)
    assert prediction is None and str(fault) == "model fault"
    command, prediction, fault = decide_with(constant_model(1), rain)
    assert command == (DomeCommand(0, CAUSE_RAIN) if rain else DomeCommand(1, CAUSE_MODEL))
    assert (prediction, fault) == (1, None)


def test_a_failing_sink_is_counted_and_the_replay_goes_on(caplog):
    class Flaky:  # fails on the second and third frame only
        def __init__(self):
            self.calls, self.lines = 0, []

        def write(self, line):
            self.calls += 1
            if self.calls in (2, 3):
                raise OSError("wire cut")
            self.lines.append(line)

    frames = [frame(tick=t, rain=(t == 3)) for t in range(5)]
    sink = Flaky()
    log = replay(constant_model(1), frames, sink=sink)
    assert log == replay(constant_model(1), frames)
    assert log.undelivered == 2
    assert sink.lines == ["D:1 A:0\n", "D:0 A:1\n", "D:1 A:0\n"]
    warnings = [r for r in caplog.records if r.name == "domepilot.controller"]
    assert len(warnings) == 1
    assert "2 of 5 frames" in warnings[0].getMessage()
    assert "wire cut" in warnings[0].getMessage()


def test_day_sweep_matches_the_labeling_rule():
    # Temp ramp 10 -> 35 over 24 frames under an always-open model: the
    # controller must open exactly where the temperature gate allows.
    temps = [10.0 + 25.0 * t / 23.0 for t in range(24)]
    frames = [frame(temp=temps[t], tick=t) for t in range(24)]
    log = replay(constant_model(1), frames)
    for temp, entry in zip(temps, log):
        assert entry.command.dome == derive_state(1, temp)


def test_replay_is_chunking_invariant():
    frames = [frame(temp=10 + t, rain=(t % 5 == 0), tick=t) for t in range(20)]
    whole = replay(constant_model(1), frames)
    pieces = (replay(constant_model(1), frames[:7])
              + replay(constant_model(1), frames[7:12])
              + replay(constant_model(1), frames[12:]))
    assert whole == pieces


def test_replay_requires_frames():
    with pytest.raises(ValueError):
        replay(constant_model(1), [])


def test_replay_rejects_non_monotonic_ticks():
    with pytest.raises(ValueError, match="strictly increasing"):
        replay(constant_model(1), [frame(tick=3), frame(tick=3)])


def test_replay_emits_to_sink_and_logs_jsonl(tmp_path):
    frames = [frame(tick=0), frame(tick=1, rain=True)]
    sink = io.StringIO()
    log = replay(constant_model(1), frames, sink=sink)
    assert sink.getvalue() == "D:1 A:0\nD:0 A:1\n"
    path = tmp_path / "log.jsonl"
    log.to_jsonl(path)
    text = path.read_text()
    assert text == "".join(json.dumps(e.as_dict(), sort_keys=True) + "\n" for e in log)
    records = [json.loads(line) for line in text.splitlines()]
    assert [r["tick"] for r in records] == [0, 1]
    assert records[0] == {"tick": 0, "features": [20.0, 2.0, 0.4, 0.0, 16.0, 1015.0],
                          "prediction": 1, "dome": 1, "ac": 0, "cause": "model"}


def test_replay_with_custom_table():
    table = ConditionTable([("Clear", 1)])
    frames = [frame(tick=0), frame(tick=1, condition="Haze")]
    log = replay(constant_model(1), frames, table=table)
    assert log[0].command.cause == CAUSE_MODEL
    assert log[1].command.cause == CAUSE_UNMAPPED


def test_replay_decides_membership_per_raw_spelling_and_per_table():
    spellings = [" Clear ", "Volcanic ash", "clear", "Volcanic  ash", "CLEAR"]
    frames = [frame(tick=t, condition=spellings[t % len(spellings)]) for t in range(10)]
    for table in (ConditionTable.builtin(), ConditionTable([("volcanic ash", 1)])):
        causes = [e.command.cause for e in replay(constant_model(1), frames, table=table)]
        assert causes == [CAUSE_MODEL if f.observation.condition in table else CAUSE_UNMAPPED
                          for f in frames]
        assert set(causes) == {CAUSE_MODEL, CAUSE_UNMAPPED}


def test_sensor_frames_are_immutable_records():
    """A SensorFrame is a read-only tuple; its observation is checked when the
    frame is built or unpickled.

    ``_replace`` and ``_make`` build a tuple without ``__new__`` and so skip
    the observation's checks; nothing in src/ calls them.
    """
    f = frame(tick=3)
    assert repr(f) == f"SensorFrame(observation={f.observation!r}, rain_detected=False, tick=3)"
    assert f == (f.observation, False, 3) and pickle.loads(pickle.dumps(f)) == f
    with pytest.raises(AttributeError):
        f.tick = 4
    with pytest.raises(AttributeError):
        f.observation.temp = 30.0
    with pytest.raises(ValueError, match="hour out of range"):
        SensorFrame(observation(hour=24), False, 3)
    unchecked = f._replace(observation=f.observation._replace(humidity=2.0))
    with pytest.raises(ValueError, match="humidity out of range"):
        pickle.loads(pickle.dumps(unchecked))


def test_log_entries_are_immutable_records():
    log = replay(constant_model(1), [frame(tick=0), frame(tick=1, rain=True)])
    entry = log[1]
    assert type(entry) is LogEntry
    assert entry.command.cause == CAUSE_RAIN  # what bench/tracing.py counts
    assert entry == LogEntry(frame=entry.frame, command=entry.command,
                             prediction=entry.prediction)
    with pytest.raises(AttributeError):
        entry.prediction = 0


def test_the_decision_log_is_a_list_of_its_entries(monkeypatch):
    frames = [frame(tick=0), frame(tick=1, rain=True)]
    log = replay(constant_model(1), frames, sink=io.StringIO())
    assert isinstance(log, list) and type(log) is DecisionLog
    assert log.undelivered == 0  # the sink took every line
    entries = list(log)
    assert DecisionLog(entries) == entries == log
    assert DecisionLog(entries).undelivered == 0
    # bench/tracing.py rebinds to_jsonl on the class; every log must see that.
    written = []
    monkeypatch.setattr(DecisionLog, "to_jsonl", lambda self, sink: written.append(sink))
    log.to_jsonl("decisions.jsonl")
    assert written == ["decisions.jsonl"]


# ---------------------------------------------------------------- frames CSV

FRAME_HEADER = "city,date,time,temp,wind,humidity,barometer,visibility,weather,rain\n"


def test_read_frames_csv_parses_and_ticks(tmp_path):
    path = tmp_path / "frames.csv"
    path.write_text(FRAME_HEADER
                    + "A,2019-01-01,00:00,20,1,40%,1015,16,Clear,0\n"
                    + "A,2019-01-01,03:00,22,1,43%,1015,16,Clear,maybe\n"
                    + "A,2019-01-01,02:00,oops,1,42%,1015,16,Clear,0\n"
                    + "A,2019-01-01,01:00,21,1,41%,1015,16,Clear,true\n")
    frames, report = read_frames_csv(path)
    # Rejected rows in between take no tick.
    assert [f.tick for f in frames] == [0, 1]
    assert [f.rain_detected for f in frames] == [False, True]
    assert report.rejected == 2
    assert report.reasons == {"bad_temp": 1, "bad_rain": 1}


def test_pickled_frames_replay_like_parsed_frames(tmp_path):
    # bench/child.py parses the frames once and replays unpickled copies.
    path = tmp_path / "frames.csv"
    path.write_text(FRAME_HEADER
                    + "A,2019-01-01,00:00,20,1,40%,1015,16,Clear,0\n"
                    + "A,2019-01-01,01:00,21,3,41%,1015,16, clear ,0\n"
                    + "A,2019-01-01,02:00,22,3,42%,1015,16,Clear,1\n"
                    + "A,2019-01-01,03:00,30,3,43%,1015,16,Clear,0\n"
                    + "A,2019-01-01,04:00,20,3,44%,1015,16,Volcanic ash,0\n")
    parsed, _ = read_frames_csv(path)
    unpickled = pickle.loads(pickle.dumps(parsed, pickle.HIGHEST_PROTOCOL))
    logs, wires = [], []
    for frames in (parsed, unpickled):
        sink = io.StringIO()
        logs.append(replay(lambda features: int(features[1] > 2), frames, sink=sink))
        wires.append(sink.getvalue())
    assert logs[0] == logs[1]
    assert written_jsonl(logs[0]) == written_jsonl(logs[1])
    assert wires[0] == wires[1] == "D:0 A:1\nD:1 A:0\n" + "D:0 A:1\n" * 3


def test_read_frames_csv_requires_rain_column(tmp_path):
    path = tmp_path / "frames.csv"
    path.write_text("city,date,time,temp,wind,humidity,barometer,visibility,weather\n")
    with pytest.raises(ValueError, match="missing required column.*rain"):
        read_frames_csv(path)


# ---------------------------------------------------------------- sinks

def test_file_sink_receives_lines(tmp_path):
    path = tmp_path / "wire.txt"
    with open_sink(str(path)) as sink:
        emit_signal(command_for(1), sink)
    assert path.read_text() == "D:1 A:0\n"


def test_stdout_sink(capsys):
    with open_sink("-") as sink:
        emit_signal(command_for(0, temp=30.0), sink)
    assert capsys.readouterr().out == "D:0 A:1\n"


def test_tcp_sink_delivers_lines():
    received = []
    done = threading.Event()

    class Handler(socketserver.StreamRequestHandler):
        def handle(self):
            for raw in self.rfile:
                received.append(raw.decode("ascii"))
            done.set()

    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), Handler)
    port = server.server_address[1]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        with open_sink(f"tcp:127.0.0.1:{port}") as sink:
            emit_signal(command_for(1), sink)
            emit_signal(command_for(1, rain=True), sink)
        assert done.wait(timeout=5.0)
        assert received == ["D:1 A:0\n", "D:0 A:1\n"]
    finally:
        server.shutdown()
        server.server_close()


def test_a_stalled_tcp_peer_gets_no_undelivered_line(monkeypatch, caplog):
    monkeypatch.setattr(controller, "TCP_TIMEOUT_S", 0.5)
    # The peer is accepted but reads nothing until the sink is closed: once
    # the socket buffers are full, a send waits out the timeout.
    with socket.socket() as listener:
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]
        frames = [frame(tick=t) for t in range(3)]
        with open_sink(f"tcp:127.0.0.1:{port}") as sink:
            peer, _ = listener.accept()
            delivered = 0
            with pytest.raises(SignalDeliveryError):
                for _ in range(1 << 23):  # at most 64 MiB
                    emit_signal(command_for(0, rain=True), sink)
                    delivered += 1
            start = time.monotonic()
            log = replay(constant_model(1), frames, sink=sink)
            elapsed = time.monotonic() - start
        with peer:
            peer.settimeout(5.0)
            received = b"".join(iter(lambda: peer.recv(1 << 16), b""))
    assert log.undelivered == 3 and len(log) == 3
    assert elapsed < 0.5  # the dropped connection fails without a wait
    assert "actuator sink failed on 3 of 3 frames" in caplog.text
    # Every line sent before the timeout arrives, whole and in order; the
    # timed-out close and the three opens after it never do.
    assert received == b"D:0 A:1\n" * delivered


def test_a_partial_tcp_send_resets_the_connection():
    class PartialConn:
        sent = []
        options = []
        closed = False

        def send(self, data):
            self.sent.append(data)
            return 3

        def setsockopt(self, *option):
            self.options.append(option)

        def close(self):
            self.closed = True

    conn = PartialConn()
    sink = controller._TcpSink(conn)
    with pytest.raises(SignalDeliveryError, match="only 3 of 8 bytes"):
        emit_signal(command_for(1), sink)
    assert conn.closed
    assert conn.options == [(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))]
    with pytest.raises(SignalDeliveryError, match="dropped"):
        emit_signal(command_for(0, rain=True), sink)
    assert conn.sent == [b"D:1 A:0\n"]


def test_bad_tcp_spec_is_rejected():
    with pytest.raises(ValueError):
        with open_sink("tcp:nowhere"):
            pass


@pytest.mark.parametrize("port", ["0", "65536", "\u00b2"])
def test_a_tcp_port_that_is_not_1_to_65535_is_a_bad_spec(port):
    with pytest.raises(ValueError, match="bad tcp sink spec"):
        with open_sink(f"tcp:127.0.0.1:{port}"):
            pass


def test_a_tcp_port_above_65535_does_not_wrap_around():
    # The OS takes a port modulo 65536, so p + 65536 would reach a listener on p.
    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]
        with pytest.raises(ValueError, match="bad tcp sink spec"):
            with open_sink(f"tcp:127.0.0.1:{port + 65536}"):
                pass
        listener.setblocking(False)
        with pytest.raises(BlockingIOError):
            listener.accept()  # nothing connected


def test_a_file_sink_write_that_fails_drops_its_line(tmp_path, monkeypatch):
    writes = 0

    class FullOnSecondWrite(io.FileIO):
        def write(self, data):
            nonlocal writes
            writes += 1
            if writes == 2:
                raise OSError(errno.ENOSPC, "No space left on device")
            return super().write(data)

    def open_with_full_raw(file, mode="r", buffering=-1, **text_args):
        # The layers the builtin open would stack for mode and buffering,
        # over a raw file whose second write fails.
        raw = FullOnSecondWrite(file, mode.replace("b", "").replace("t", ""))
        if buffering == 0:
            return raw
        buffered = io.BufferedWriter(raw)
        return buffered if "b" in mode else io.TextIOWrapper(buffered, **text_args)

    monkeypatch.setattr(controller, "open", open_with_full_raw, raising=False)
    path = tmp_path / "wire.txt"
    frames = [frame(tick=0), frame(tick=1, rain=True), frame(tick=2), frame(tick=3)]
    with open_sink(str(path)) as sink:
        log = replay(constant_model(1), frames, sink=sink)
    assert [entry.command.dome for entry in log] == [1, 0, 1, 1]
    assert log.undelivered == 1
    # The rain frame's close line never reaches the file, not even late.
    assert path.read_bytes() == b"D:1 A:0\n" * 3


def test_a_short_file_sink_write_is_undelivered():
    class Short:
        def write(self, data):
            return None if data.startswith(b"D:0") else 3

    sink = controller._FileSink(Short())
    # A write that took nothing leaves the sink usable, so it goes first.
    with pytest.raises(SignalDeliveryError, match="only 0 of 8 bytes"):
        emit_signal(command_for(0, rain=True), sink)
    with pytest.raises(SignalDeliveryError, match="only 3 of 8 bytes"):
        emit_signal(command_for(1), sink)


def test_a_partial_file_sink_write_fails_every_later_line(tmp_path, monkeypatch):
    writes = 0

    class ShortOnSecondWrite(io.FileIO):
        def write(self, data):
            nonlocal writes
            writes += 1
            return super().write(data[:3] if writes == 2 else data)

    monkeypatch.setattr(controller, "open",
                        lambda file, mode, buffering: ShortOnSecondWrite(file, "w"),
                        raising=False)
    path = tmp_path / "wire.txt"
    frames = [frame(tick=t) for t in range(4)]
    with open_sink(str(path)) as sink:
        log = replay(constant_model(1), frames, sink=sink)
    assert [entry.command.dome for entry in log] == [1, 1, 1, 1]
    assert log.undelivered == 3 and writes == 2
    # Nothing is glued onto the fragment of the second line.
    assert path.read_bytes() == b"D:1 A:0\nD:1"


# ---------------------------------------------------------------- log writer

def reference_jsonl(entries):
    """The log as the generic JSON encoder writes it."""
    return "".join(json.dumps(entry.as_dict(), sort_keys=True) + "\n" for entry in entries)


def written_jsonl(entries):
    buffer = io.StringIO()
    DecisionLog(entries).to_jsonl(buffer)
    return buffer.getvalue()


def log_entry(temp=20.0, wind=2.0, humidity=0.4, hour=0, visibility=16.0,
              barometer=1015.0, dome=0, cause=CAUSE_MODEL, prediction=0, tick=0):
    obs = WeatherObservation(city="Al Madina", date=datetime.date(2019, 5, 1), hour=hour,
                             temp=temp, wind=wind, humidity=humidity,
                             barometer=barometer, visibility=visibility, condition="Clear")
    return LogEntry(frame=SensorFrame(observation=obs, rain_detected=False, tick=tick),
                    command=DomeCommand(dome, cause), prediction=prediction)


_any_number = st.one_of(st.floats(), st.floats().map(np.float64),
                        st.integers(-10**30, 10**30), st.booleans())


@st.composite
def log_entries(draw):
    return log_entry(temp=draw(_any_number), wind=draw(_any_number),
                     humidity=draw(st.floats(0.0, 1.0)), hour=draw(st.integers(0, 23)),
                     visibility=draw(st.floats(min_value=0.0)),
                     barometer=draw(st.floats(min_value=0.0, exclude_min=True)),
                     dome=draw(st.sampled_from([0, 1])), cause=draw(st.sampled_from(CAUSES)),
                     prediction=draw(st.sampled_from([None, 0, 1, True, False])),
                     tick=draw(st.integers(0, 10**12)))


@settings(deadline=None, max_examples=300)
@given(st.lists(log_entries(), max_size=5))
@example([log_entry(temp=math.inf), log_entry(temp=-math.inf), log_entry(wind=math.nan),
          log_entry(visibility=math.inf), log_entry(barometer=math.inf)])
@example([log_entry(temp=-0.0), log_entry(wind=1e16), log_entry(temp=1e-7),
          log_entry(barometer=1.7976931348623157e308)])
@example([log_entry(temp=21), log_entry(wind=np.float64(2.5)), log_entry(temp=True),
          log_entry(prediction=True), log_entry(prediction=False)])
@example([log_entry(dome=0, cause=cause, prediction=None) for cause in CAUSES]
         + [log_entry(dome=1, cause=CAUSE_MODEL, prediction=1)])
def test_log_writer_matches_the_json_encoder(entries):
    assert written_jsonl(entries) == reference_jsonl(entries)


def test_replayed_log_matches_the_json_encoder():
    frames = [frame(temp=t, rain=t % 3 == 0, condition=c, tick=i)
              for i, (t, c) in enumerate([(20.0, "Clear"), (15.5, "Clear"), (21.0, "Hail"),
                                          (-0.0, "Fog"), (22.0, "Nowhere"), (math.inf, "Clear")])]
    for model in (constant_model(1), constant_model(0), failing_model):
        log = replay(model, frames)
        assert written_jsonl(log) == reference_jsonl(log)
