"""Benchmark code that runs in child processes, beside the domepilot package.

    python3 bench/child.py cli ARGS...             domepilot ARGS under tracing
    python3 bench/child.py frames FRAMES OUT        parse the frames for replay
    python3 bench/child.py replay MODEL PARSED OUT  per-frame decision latency
    python3 bench/child.py predict MODEL QUERIES OUT  predictions for the oracle

``cli`` and ``replay`` record spans when BENCH_SPANS names a file, and write
them there when the child is done; ``replay`` then replays once. ``cli``
also records ``cli.startup``, from BENCH_SPAWN_NS (the parent's monotonic
clock just before it spawned the child, after its speed probe) to the entry
into ``domepilot.cli.main``.
"""

from __future__ import annotations

import gc
import json
import os
import pickle
import sys
import time

from layers import percentile
from speed import CHUNK_S, calibrate, scale
from tracing import Tracer, install

#: The frames are replayed once, and again while the replays took less
#: than REPLAY_S, up to MAX_REPLAYS times. Short probe processes let more
#: of them fit in a run; per-frame times shift by ~10 % from one process to
#: the next, so the median over processes gets steadier.
MAX_REPLAYS = 10
REPLAY_S = 1.0


class StampSink:
    """Actuator sink that times each wire line against the previous one.

    Every CHUNK_S it probes the machine speed (see ``speed.py``) between two
    frames, restarts the clock after the probe, and scales the stretch's
    latencies by the probes on either side of it. The frame after a probe
    runs with the caches the probe left and is not counted.
    """

    def __init__(self):
        self.lines: list[str] = []
        self.latencies_ns: list[float] = []
        self._stretch: list[int] = []
        self._probe = calibrate()
        self._counted = False
        self._last = self._start = time.perf_counter_ns()

    def write(self, line: str) -> None:
        now = time.perf_counter_ns()
        self.lines.append(line)
        if self._counted:
            self._stretch.append(now - self._last)
        self._counted = True
        self._last = now
        if now - self._start >= CHUNK_S * 1e9:
            self.close()

    def close(self) -> None:
        probe = calibrate()
        factor = scale([self._probe, probe])
        self.latencies_ns += [latency * factor for latency in self._stretch]
        self._stretch, self._probe, self._counted = [], probe, False
        self._last = self._start = time.perf_counter_ns()


def _tracer():
    path = os.environ.get("BENCH_SPANS")
    if not path:
        return None, None
    tracer = Tracer(os.environ.get("BENCH_RUN_ID", ""))
    install(tracer)
    return tracer, path


def run_cli(argv: list[str]) -> int:
    from domepilot import cli

    tracer, path = _tracer()
    if tracer is not None:
        tracer.record("cli.startup", int(os.environ["BENCH_SPAWN_NS"]), time.monotonic_ns())
    try:
        return cli.main(argv)
    finally:
        if tracer is not None:
            tracer.dump(path)


def run_frames(frames_path: str, out_path: str) -> int:
    """Parse the frames once, as ``simulate`` does, and pickle them.

    Every replay probe of a run loads them from there, so a probe process
    spends its time replaying rather than parsing.
    """
    from domepilot import controller

    with open(out_path, "wb") as out:
        pickle.dump(controller.read_frames_csv(frames_path)[0], out, pickle.HIGHEST_PROTOCOL)
    return 0


def run_replay(model_path: str, parsed_path: str, out_path: str) -> int:
    """Closed loop, one client: frame i+1 is decided after line i is written.

    Frame i's latency is the gap between the stamps of lines i-1 and i, so
    the first frame gives no sample. Writes the p50 and p99 of the samples
    of all replays, in reference microseconds, and their count.
    """
    from domepilot import cli, controller

    tracer, path = _tracer()
    model = cli.load_model(model_path)
    with open(parsed_path, "rb") as stream:
        frames = pickle.load(stream)
    latencies, replays, spent = [], 0, 0.0
    while not replays or (replays < MAX_REPLAYS and spent < REPLAY_S):
        gc.collect()
        sink = StampSink()
        start = time.perf_counter()
        controller.replay(model.predict, frames, sink=sink)
        spent += time.perf_counter() - start
        sink.close()
        latencies += sink.latencies_ns
        replays += 1
        if tracer is not None:
            break
    with open(out_path, "w", encoding="utf-8") as out:
        json.dump({"p50_us": percentile(latencies, 50) / 1e3,
                   "p99_us": percentile(latencies, 99) / 1e3,
                   "samples": len(latencies), "wire": "".join(sink.lines)}, out)
    if tracer is not None:
        tracer.dump(path)
    return 0


def run_predict(model_path: str, queries_path: str, out_path: str) -> int:
    from domepilot import cli

    model = cli.load_model(model_path)
    with open(queries_path, encoding="utf-8") as stream:
        queries = json.load(stream)
    with open(out_path, "w", encoding="utf-8") as out:
        json.dump([int(model.predict(q)) for q in queries], out)
    return 0


if __name__ == "__main__":
    mode, args = sys.argv[1], sys.argv[2:]
    if mode == "cli":
        sys.exit(run_cli(args))
    sys.exit({"frames": run_frames, "replay": run_replay, "predict": run_predict}[mode](*args))
