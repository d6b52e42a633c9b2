"""Dome controller: ``decide``, ``replay``, the decision log and the actuator sinks.

Each frame goes sense -> predict -> gate -> override -> actuate; the frames
CSV is read by ``domepilot.raw``. The rain sensor is a hard, stateless
override: any positive forces the dome closed for that frame, whatever the
model does. A model that raises or returns anything but 0 or 1 closes the
dome for that frame. The temperature gate is re-checked at decision time as
defense in depth even though the model was trained on gated labels. A
command stores only the dome bit; the air conditioning bit is derived from
it, so the AC runs exactly when the dome is closed.

Actuator wire protocol: one newline-delimited ASCII line per decision,
``D:<0|1> A:<0|1>`` (dome, ac).
"""

from __future__ import annotations

import json
import math
import os
import sys
from collections import namedtuple
from contextlib import contextmanager
from typing import IO, Callable, NamedTuple, Optional, Sequence

from . import _warn
from .raw import (
    ConditionTable,
    SensorFrame,
    read_frames_csv,  # noqa: F401  re-exported: bench/child.py parses frames through here
)
from .weather import TEMP_OPEN_HIGH, TEMP_OPEN_LOW

CAUSE_MODEL = "model"
CAUSE_RAIN = "rain_override"
CAUSE_TEMP = "temp_gate"
CAUSE_UNMAPPED = "unmapped_condition"
CAUSE_MODEL_ERROR = "model_error"
CAUSES = (CAUSE_MODEL, CAUSE_RAIN, CAUSE_TEMP, CAUSE_UNMAPPED, CAUSE_MODEL_ERROR)

#: Seconds a path or ``tcp:`` sink may wait for its reader to take one wire
#: line, and a ``tcp:`` one to connect; a reader that stops reading then cuts
#: the sink off instead of blocking the loop.
SINK_TIMEOUT_S = 5.0


class SignalDeliveryError(RuntimeError):
    """Writing to the actuator sink failed; safe to retry next frame."""


class DomeCommand(namedtuple("DomeCommand", "dome cause")):
    """One decision (``dome``: 1 = open, 0 = close); a tuple whose construction
    and unpickling check it."""

    __slots__ = ()

    def __new__(cls, dome: int, cause: str):
        if type(dome) is not int or dome not in (0, 1):
            raise ValueError(f"dome must be the int 0 or 1, got {dome!r}")
        if cause not in CAUSES:
            raise ValueError(f"unknown cause {cause!r}")
        return tuple.__new__(cls, (dome, cause))

    @property
    def ac(self) -> int:
        """1 = on, 0 = off: the AC runs exactly when the dome is closed."""
        return 1 - self.dome


# Commands are frozen, so decide hands out these shared instances.
_CLOSED = {cause: DomeCommand(0, cause) for cause in CAUSES}
_OPEN = DomeCommand(1, CAUSE_MODEL)


def decide(model_predict_fn: Callable[[Sequence[float]], int],
           features: Sequence[float], rain_detected: bool
           ) -> tuple[DomeCommand, Optional[int], Optional[Exception]]:
    """(command, prediction, fault) for one set of sensor inputs.

    The model is always asked first. If it raises or returns anything but 0
    or 1, the dome closes with cause ``rain_override`` if it is raining,
    else ``model_error``; the prediction is then None and ``fault`` holds
    the failure. Otherwise rain closes the dome, then a temperature
    ``features[0]`` (FEATURE_NAMES order) outside the open interval
    (TEMP_OPEN_LOW, TEMP_OPEN_HIGH) does, and only then does the model's
    prediction drive it.
    """
    try:
        output = model_predict_fn(features)
        if output not in (0, 1):
            raise ValueError(f"model returned {output!r}, not 0 or 1")
    except Exception as exc:  # any model fault closes the dome
        return _CLOSED[CAUSE_RAIN if rain_detected else CAUSE_MODEL_ERROR], None, exc
    prediction = int(output)
    if rain_detected:
        command = _CLOSED[CAUSE_RAIN]
    elif not TEMP_OPEN_LOW < features[0] < TEMP_OPEN_HIGH:
        command = _CLOSED[CAUSE_TEMP]
    else:
        command = _OPEN if prediction else _CLOSED[CAUSE_MODEL]
    return command, prediction, None


#: The wire line of each dome bit, ``D:<dome> A:<ac>`` with ``ac = 1 - dome``.
_WIRE_LINES = ("D:0 A:1\n", "D:1 A:0\n")


def emit_signal(command: DomeCommand, sink: IO[str]) -> str:
    """Write exactly one wire line for the command; returns the line sent.

    A failing sink raises SignalDeliveryError; nothing else changes, so the
    caller may simply try again on the next frame (a sink cut off by a
    timeout or a partial line fails every later frame too).
    """
    line = _WIRE_LINES[command.dome]
    try:
        sink.write(line)
        flush = getattr(sink, "flush", None)
        if flush is not None:
            flush()
    except (OSError, ValueError) as exc:  # closed files raise ValueError
        raise SignalDeliveryError(f"actuator sink write failed: {exc}") from exc
    return line


class LogEntry(NamedTuple):
    frame: SensorFrame
    command: DomeCommand
    prediction: Optional[int]  # None when the condition is unmapped or the model failed

    def as_dict(self) -> dict:
        return {"tick": self.frame.tick,
                "features": list(self.frame.observation.features()),
                "prediction": self.prediction,
                "dome": self.command.dome,
                "ac": self.command.ac,
                "cause": self.command.cause}


#: Each command's log line up to its features (``ac`` is DomeCommand.ac).
_LOG_HEADS = {(dome, cause): (f'{{"ac": {1 - dome}, "cause": "{cause}", '
                              f'"dome": {dome}, "features": [')
              for dome in (0, 1) for cause in CAUSES}


def _jsonl_line(entry: LogEntry) -> str:
    """``json.dumps(entry.as_dict(), sort_keys=True)`` plus a newline.

    Entries whose fields all print the same through ``repr`` as through
    json (int tick, 0/1/None prediction, finite plain floats) are
    formatted directly; any other goes through ``json.dumps``. A sum of
    finite features that overflows takes that path too, with the same bytes.
    """
    (observation, _, tick), command, prediction = entry
    t, w, h, hr, v, b = observation.features()
    if (type(tick) is int
            and (prediction is None or (type(prediction) is int and prediction in (0, 1)))
            and type(t) is type(w) is type(h) is type(hr) is type(v) is type(b) is float
            and math.isfinite(t + w + h + hr + v + b)):
        return (f'{_LOG_HEADS[command]}{t!r}, {w!r}, {h!r}, {hr!r}, {v!r}, {b!r}], '
                f'"prediction": {"null" if prediction is None else prediction}, '
                f'"tick": {tick}}}\n')
    return json.dumps(entry.as_dict(), sort_keys=True) + "\n"


class DecisionLog(list):
    """The LogEntry of each input frame, in input order; logs compare by entries.

    ``undelivered`` counts the frames whose wire line the sink failed to take.
    """

    undelivered = 0

    def to_jsonl(self, stream: IO[str]) -> None:
        stream.writelines(map(_jsonl_line, self))


def replay(model_predict_fn: Callable[[Sequence[float]], int],
           frames: Sequence[SensorFrame],
           table: Optional[ConditionTable] = None,
           sink: Optional[IO[str]] = None) -> DecisionLog:
    """Run the decision loop over recorded frames.

    Frames whose condition is missing from the table are decided closed with
    cause ``unmapped_condition`` (fail-safe) and keep a null prediction. A
    model fault closes its frame as decide says, and the replay goes on;
    so does a sink that raises SignalDeliveryError, whose frames the log
    counts as ``undelivered``. Each kind of failure is reported by one
    warning with its count and its first occurrence.

    Pure given its inputs: chunking the frame stream and concatenating the
    logs yields the same entries.
    """
    if len(frames) == 0:
        raise ValueError("no frames to replay")
    if table is None:
        table = ConditionTable.builtin()
    mapped = table.__contains__
    log = DecisionLog()
    # tuple.__new__ skips the Python-level __new__ of the NamedTuple.
    new_entry = tuple.__new__
    last_tick = None
    faults = undelivered = 0
    first_fault: Optional[Exception] = None
    first_undelivered: Optional[SignalDeliveryError] = None
    # Each frame is unpacked once: CPython does not specialize reads of
    # NamedTuple fields by name.
    for frame in frames:
        observation, rain_detected, tick = frame
        if last_tick is not None and tick <= last_tick:
            raise ValueError(f"frame ticks must be strictly increasing, "
                             f"got {tick} after {last_tick}")
        last_tick = tick
        if not mapped(observation.condition):
            command, prediction = _CLOSED[CAUSE_UNMAPPED], None
        else:
            command, prediction, fault = decide(
                model_predict_fn, observation.features(), rain_detected)
            if fault is not None:
                faults += 1
                first_fault = first_fault or fault
        if sink is not None:
            try:
                emit_signal(command, sink)
            except SignalDeliveryError as exc:
                undelivered += 1
                first_undelivered = first_undelivered or exc
        log.append(new_entry(LogEntry, (frame, command, prediction)))
    if faults:
        _warn(__name__, "model failed on %d of %d frames, which were closed; "
              "first failure: %s", faults, len(frames), first_fault)
    if undelivered:
        _warn(__name__, "actuator sink failed on %d of %d frames; first failure: %s",
              undelivered, len(frames), first_undelivered)
    log.undelivered = undelivered
    return log


class _Sink:
    """A path or ``tcp:`` actuator sink: each wire line is one ``os.write`` to a
    non-blocking descriptor, and nothing is buffered.

    A write that raises drops its line for good: no later write sends it, late
    and out of order. A reader that takes no line within SINK_TIMEOUT_S, or only
    part of one, cuts the sink off: that line and every later one fail at once,
    so the loop waits no more and no line is glued onto a fragment. A ``tcp:``
    sink cut off by a partial send resets its connection, which discards what
    is still queued for the peer; after a timeout it closes normally, so the
    lines sent before still arrive, then EOF.
    """

    def __init__(self, fd: int, reset: Optional[Callable[[], object]] = None):
        self._fd: Optional[int] = fd  # None once cut off
        self._reset = reset  # a tcp: sink's, run when a partial line cuts it off

    def write(self, text: str) -> int:
        fd, data = self._fd, text.encode("ascii")
        if fd is None:
            raise OSError("cut off after an earlier timeout or partial line")
        try:
            written = os.write(fd, data)
        except BlockingIOError:  # the reader is behind: wait for it, once
            import select  # here, so that a sink that never fills never loads it
            poll = select.poll()
            poll.register(fd, select.POLLOUT)
            if not poll.poll(SINK_TIMEOUT_S * 1000):
                self._fd = None
                raise TimeoutError(f"no wire line taken within {SINK_TIMEOUT_S} s") from None
            written = os.write(fd, data)
        if written < len(data):
            self._fd = None
            if self._reset is not None:
                self._reset()
            raise OSError(f"took only {written} of {len(data)} bytes")
        return written


@contextmanager
def open_sink(spec: str):
    """Open an actuator sink: a file path, ``tcp:host:port``, or ``-`` (stdout)."""
    if spec == "-":
        if sys.stdout is None:  # the process was started with its stdout closed
            raise OSError("actuator sink -: stdout is closed")
        yield sys.stdout
        return
    reset = None
    try:
        if spec.startswith("tcp:"):
            _, _, rest = spec.partition(":")
            host, sep, port = rest.rpartition(":")
            # The OS would take a port above 65535 modulo 65536: another port.
            if not sep or not host or not port.isdecimal() or not 0 < int(port) < 65536:
                raise ValueError(f"bad tcp sink spec {spec!r}; expected tcp:host:port "
                                 f"with a port from 1 to 65535")
            import socket  # here, so that no other sink pays for its import
            import struct
            resource = socket.create_connection((host, int(port)), timeout=SINK_TIMEOUT_S)
            resource.setblocking(False)
            linger = struct.pack("ii", 1, 0)  # on, 0 s: close resets the connection
            reset = lambda: resource.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, linger)
        else:  # the file object only owns the descriptor; a FIFO with no reader fails here
            resource = open(os.open(spec, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_NONBLOCK,
                                    0o666), "wb", buffering=0)
    except OSError as exc:  # opening or connecting; errors in the block pass as they are
        raise OSError(f"actuator sink {spec}: {exc}") from None
    with resource:
        yield _Sink(resource.fileno(), reset)
