"""domepilot benchmark: the README's reference run, timed and checked.

    python3 bench/run.py --workload replay-knn --seed 1 --seconds 20 --trace 0

Run it from the repository root. It generates seeded inputs, runs every
``domepilot`` command as a child process (``python -m domepilot ...``) the
way a user does, checks every output against the independent oracles in
``oracles.py`` and prints one metric per line, then a JSON summary as the
last line. ``--trace 0`` reports the end-to-end metrics, timed with no
instrumentation. ``--trace 1`` also runs each command once under tracing
and reports the per-layer metrics from the spans (see ``layers.py``) plus
the tracing overhead, traced minus untraced, of each end-to-end metric.

Every workload runs the same six commands and the in-process replay; the
workloads differ in input size and in the model the controller replays (see
WORKLOADS). Commands run in rounds until ``--seconds`` have passed and each
command has MIN_SAMPLES samples; a command takes part in later rounds only
while its runs add up to less than REPEAT_S, so short commands get several
samples spread over the run and long ones, which average over their own
length, run once. Each metric is the median of its samples. Times are
reference seconds (see ``speed.py``).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import gen
import oracles
from layers import PER_LAYER, per_layer, read_spans
from speed import calibrate, pin_to_one_cpu, run_timed, scale

HERE = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Workload:
    rows: int
    frames: int
    replay_model: str


#: Every workload reports every end-to-end metric, so each runs all commands.
#: replay-dt: a 4,000-row pipeline, where interpreter start and CSV handling
#:   dominate each command, and 50,000 frames through the tree, where frame
#:   parsing, the controller loop and the wire and log writes dominate. The
#:   replay makes no k-NN call, so simulate_s and decision_p50_us here are the
#:   bypass for k-NN changes; the pipeline metrics still run k-NN (its
#:   evaluate is ~0.8 s of the ~2.5 s pipeline_s).
#: replay-knn: the paper-size pipeline (20,000 raw rows, k-NN on the ~13,700
#:   training rows with k = 117, whose evaluate is ~3/4 of pipeline_s) and
#:   3,000 frames through that k-NN one query at a time, so a change that
#:   speeds batch evaluate but slows single queries shows.
WORKLOADS = {
    "replay-dt": Workload(rows=4_000, frames=50_000, replay_model="dt"),
    "replay-knn": Workload(rows=20_000, frames=3_000, replay_model="knn"),
}

#: End-to-end metrics and their units; lower is better for all of them.
END_TO_END = {
    "setup_s": "s", "pipeline_s": "s", "prepare_s": "s", "train_dt_s": "s",
    "evaluate_dt_s": "s", "train_knn_s": "s", "evaluate_knn_s": "s",
    "simulate_s": "s", "decision_p50_us": "us", "peak_rss_mb": "MB",
}
#: Setup runs no package code, so tracing cannot change it.
OVERHEAD = tuple(f"overhead.{name}" for name in END_TO_END if name != "setup_s")

PIPELINE = (
    ("prepare_s", ("prepare", "--data", "raw.csv", "--out", "labeled.csv")),
    ("train_dt_s", ("train", "--data", "labeled.csv", "--model", "dt", "--out", "dt.json")),
    ("evaluate_dt_s", ("evaluate", "--model", "dt.json", "--data", "labeled.csv",
                       "--report", "dt-report.json")),
    ("train_knn_s", ("train", "--data", "labeled.csv", "--model", "knn", "--k", "auto",
                     "--out", "knn.json")),
    ("evaluate_knn_s", ("evaluate", "--model", "knn.json", "--data", "labeled.csv",
                        "--report", "knn-report.json")),
)
SETUP_REPEATS = 3
#: Reference seconds after which a command is not run again. The replay
#: probe gets more: its per-frame times shift by ~10 % from one process to
#: the next, so a median over several processes is steadier.
REPEAT_S = defaultdict(lambda: 4.0, decision=12.0)
MIN_SAMPLES = 6
CHILD_TIMEOUT_S = 150


class Tally:
    """Operations attempted and failed; failures are reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, errors: list[str], operations: int = 1, failed: int | None = None) -> None:
        """Count ``operations`` attempted; if ``errors``, ``failed`` of them
        (all by default) failed."""
        self.attempted += operations
        if errors:
            self.failed += operations if failed is None else failed
            for message in errors[:5]:
                print(f"bench: FAILED {message}", file=sys.stderr)

    @contextlib.contextmanager
    def guard(self, what: str, operations: int = 1):
        """Count an output that cannot be read, or that a failed command did
        not write, as ``operations`` failures and skip the rest of the block."""
        try:
            yield
        except (OSError, ValueError, LookupError, TypeError) as error:
            self.check([f"{what}: {error!r}"], operations)


@dataclass
class Inputs:
    raw: list
    frames: list
    labeled: list
    dt_split: tuple
    knn_split: tuple


@dataclass
class Measurement:
    """Samples of one measuring phase, and where its outputs are."""

    where: Path
    times: dict = field(default_factory=lambda: defaultdict(list))
    p50_us: list = field(default_factory=list)
    p99_us: list = field(default_factory=list)
    rss_mb: list = field(default_factory=list)
    span_files: list = field(default_factory=list)
    prepare_summary: dict = field(default_factory=dict)
    replay_wire: str = ""

    def values(self) -> dict:
        values = {metric: statistics.median(samples) for metric, samples in self.times.items()}
        values["pipeline_s"] = sum(values[metric] for metric, _ in PIPELINE)
        # A probe that failed every time leaves no sample; that failure is counted.
        values["decision_p50_us"] = statistics.median(self.p50_us or [0.0])
        values["decision_p99_us"] = statistics.median(self.p99_us or [0.0])
        values["peak_rss_mb"] = max(self.rss_mb)
        return values


def setup(work: Path, workload: Workload, seed: int) -> tuple[list[float], Inputs]:
    """Write the inputs SETUP_REPEATS times; returns the timings and the truth."""
    times = []
    for _ in range(SETUP_REPEATS):
        before = calibrate()
        start = time.perf_counter()
        raw_text, raw = gen.raw_dataset(seed, workload.rows)
        frames_text, frames = gen.frames(seed, workload.frames)
        (work / "raw.csv").write_text(raw_text, encoding="utf-8")
        (work / "frames.csv").write_text(frames_text, encoding="utf-8")
        elapsed = time.perf_counter() - start
        times.append(elapsed * scale([before, calibrate()]))
    labeled = oracles.labeled_rows(raw)
    return times, Inputs(raw, frames, labeled, oracles.split(labeled, oracles.DT_SPLIT),
                         oracles.split(labeled, oracles.KNN_SPLIT))


class Runner:
    def __init__(self, root: Path, work: Path, workload: Workload, seed: int,
                 inputs: Inputs, tally: Tally):
        self.work, self.workload, self.seed = work, workload, seed
        self.inputs, self.tally = inputs, tally
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")

    def spawn(self, argv: list[str], cwd: Path, spans: Path | None = None,
              run_id: str = "", chunked: bool = False) -> tuple[float, float, list]:
        """Run a child to completion: (reference seconds, max RSS in MB, pauses)."""
        env = dict(self.env)
        if spans is not None:
            env.update(BENCH_SPANS=str(spans), BENCH_RUN_ID=run_id)
        with open(cwd / "stdout.txt", "wb") as out, open(cwd / "stderr.txt", "ab") as err:
            elapsed, status, usage, pauses = run_timed(
                argv, CHILD_TIMEOUT_S, chunked, stamp="BENCH_SPAWN_NS" if spans else None,
                cwd=cwd, env=env, stdout=out, stderr=err)
        code = os.waitstatus_to_exitcode(status)
        self.tally.check([f"{' '.join(argv[1:])} exited {code}"] if code else [])
        return elapsed, usage.ru_maxrss / 1024, pauses

    def commands(self) -> list[tuple[str, list[str]]]:
        """(metric, argv) of each timed child; ``decision`` is the replay probe."""
        kind = self.workload.replay_model
        domepilot = [sys.executable, "-m", "domepilot"]
        return [*((metric, [*domepilot, *args]) for metric, args in PIPELINE),
                ("simulate_s", [*domepilot, "simulate", "--model", f"{kind}.json",
                                "--frames", "frames.csv", "--log", "decisions.jsonl",
                                "--sink", "wire.txt"]),
                ("decision", [sys.executable, str(HERE / "child.py"), "replay",
                              f"{kind}.json", "frames.pickle", "replay.json"])]

    def measure(self, name: str, seconds: float, traced: bool) -> Measurement:
        """Rounds of the commands until ``seconds`` pass; traced runs each once."""
        where = self.work / name
        where.mkdir()
        for file in ("raw.csv", "frames.csv"):
            os.link(self.work / file, where / file)
        m = Measurement(where)
        # Untimed: the frames the replay probes load, parsed once.
        self.spawn([sys.executable, str(HERE / "child.py"), "frames", "frames.csv",
                    "frames.pickle"], where)
        walls, runs = defaultdict(float), defaultdict(int)
        start = time.perf_counter()
        while True:
            ran = False
            for metric, argv in self.commands():
                if runs[metric] and (traced or walls[metric] >= REPEAT_S[metric]):
                    continue
                ran = True
                runs[metric] += 1
                spans = None
                if traced:
                    spans = where / f"{metric}.spans"
                    if metric != "decision":
                        argv = [sys.executable, str(HERE / "child.py"), "cli", *argv[3:]]
                # The probe times its own frames, so it must not be paused.
                elapsed, mb, pauses = self.spawn(argv, where, spans, f"{name}:{metric}",
                                                 chunked=metric != "decision")
                if traced and metric != "decision":
                    if spans.is_file():
                        m.span_files.append((spans, pauses))
                    else:
                        self.tally.check([f"{metric}: traced child wrote no spans"])
                walls[metric] += elapsed
                m.rss_mb.append(mb)
                if metric == "prepare_s":
                    with self.tally.guard("prepare summary"):
                        m.prepare_summary = json.loads(
                            (where / "stdout.txt").read_text().splitlines()[-1])
                if metric != "decision":
                    m.times[metric].append(elapsed)
                    continue
                with self.tally.guard("replay probe result"):
                    replayed = json.loads((where / "replay.json").read_text())
                    m.p50_us.append(replayed["p50_us"])
                    m.p99_us.append(replayed["p99_us"])
                    m.replay_wire = replayed["wire"]
            short_of_samples = any(walls[metric] < REPEAT_S[metric] and runs[metric] < MIN_SAMPLES
                                   for metric in runs)
            if not ran or (time.perf_counter() - start >= seconds and not short_of_samples):
                break
        self.check_outputs(m)
        return m

    def check_outputs(self, m: Measurement) -> None:
        """Every output against the oracles. An output that is missing or
        unreadable fails its own check and those that depend on it."""
        inputs, tally, where = self.inputs, self.tally, m.where
        tally.check(oracles.check_prepare(m.prepare_summary, inputs.raw))
        with tally.guard("labeled CSV"):
            tally.check(oracles.check_labeled_csv(where / "labeled.csv", inputs.labeled))

        tree = knn = None
        dt_train, dt_test = inputs.dt_split
        with tally.guard("dt model and report"):
            dt_doc = json.loads((where / "dt.json").read_text())
            tally.check(oracles.check_tree(dt_doc, dt_train))
            tree = oracles.tree_predictor(dt_doc)
            tally.check(oracles.check_report(json.loads((where / "dt-report.json").read_text()),
                                             len(dt_test), oracles.confusion_of(tree, dt_test)))

        knn_train, knn_test = inputs.knn_split
        with tally.guard("knn model and report"):
            knn_doc = json.loads((where / "knn.json").read_text())
            tally.check(oracles.check_knn_model(knn_doc, knn_train))
            tally.check(oracles.check_report(json.loads((where / "knn-report.json").read_text()),
                                             len(knn_test)))
            knn = oracles.knn_arrays(knn_doc)

        with tally.guard("knn model predictions", oracles.KNN_SAMPLE):
            X, y, k = knn
            queries = [knn_test[i][0] for i in oracles.knn_sample(
                [f for f, _ in knn_test], self.seed)]
            (where / "queries.json").write_text(json.dumps(queries))
            self.spawn([sys.executable, str(HERE / "child.py"), "predict", "knn.json",
                        "queries.json", "predicted.json"], where)
            got = json.loads((where / "predicted.json").read_text())
            expected = oracles.knn_oracle(X, y, k, oracles.np.asarray(queries)).tolist()
            mismatches = oracles.check_predictions(got, expected, "knn model predictions")
            tally.check(mismatches, len(queries), sum(g != e for g, e in zip(got, expected))
                        if len(got) == len(expected) else len(queries))

        accepted = [row for row in inputs.frames if row.kind != "malformed"]
        with tally.guard("decision log and wire", len(accepted)):
            mapped = [i for i, row in enumerate(accepted) if row.kind == "ok"]
            if self.workload.replay_model == "dt":
                predictions = {i: tree(accepted[i].features) for i in mapped}
            else:
                X, y, k = knn
                picked = [mapped[i] for i in oracles.knn_sample(
                    [accepted[i].features for i in mapped], self.seed + 1)]
                frames = oracles.np.asarray([accepted[i].features for i in picked])
                predictions = dict(zip(picked, oracles.knn_oracle(X, y, k, frames).tolist()))
            errors, bad = oracles.check_decisions(where / "decisions.jsonl", where / "wire.txt",
                                                  inputs.frames, predictions)
            tally.check(errors, len(accepted), bad)
            sim_wire = (where / "wire.txt").read_text(encoding="ascii")
            tally.check([] if m.replay_wire == sim_wire else
                        ["in-process replay wire lines differ from simulate's"], len(accepted))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="domepilot benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "domepilot" / "cli.py").is_file():
        print("bench: src/domepilot not found; run from the repository root",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    pin_to_one_cpu()
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    tally = Tally()
    try:
        setup_times, inputs = setup(work, workload, args.seed)
        runner = Runner(root, work, workload, args.seed, inputs, tally)
        # Compile the package's bytecode once, as any installed copy already has.
        runner.spawn([sys.executable, "-c", "import domepilot.cli"], work)
        plain = runner.measure("plain", args.seconds, traced=False)
        values = {"setup_s": statistics.median(setup_times), **plain.values()}
        if args.trace:
            traced = runner.measure("traced", 0, traced=True)
            metrics, lines = traced_metrics(values, traced, args)
        else:
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END.items()}
            lines = [f"{name:<16} {m['value']:>14.6f} {m['unit']}"
                     for name, m in metrics.items()]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    samples = {metric: len(times) for metric, times in plain.times.items()}
    samples["decision"] = len(plain.p50_us)
    print(f"# {args.workload} seed={args.seed} rows={workload.rows} "
          f"frames={workload.frames} samples={samples}")
    print("\n".join(lines))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if tally.failed == 0 else 1


def traced_metrics(plain: dict, traced: Measurement, args) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced run, and the tracing overhead."""
    layers = per_layer([(read_spans(path), pauses) for path, pauses in traced.span_files],
                       plain["decision_p99_us"])
    spans_out = Path.cwd() / ".bench_work" / f"spans-{args.workload}-{args.seed}.jsonl"
    with open(spans_out, "w", encoding="utf-8") as out:
        for path in (*(path for path, _ in traced.span_files), traced.where / "decision.spans"):
            if path.is_file():
                out.write(path.read_text(encoding="utf-8"))
    timed = traced.values()
    metrics, lines = {}, []
    for name, unit, maps_to in PER_LAYER:
        metrics[name] = {"value": layers[name], "unit": unit}
        lines.append(f"{name:<38} {layers[name]:>14.6f} {unit:<6} -> {maps_to}")
    for name in OVERHEAD:
        base = name.split(".", 1)[1]
        metrics[name] = {"value": timed[base] - plain[base], "unit": END_TO_END[base]}
        lines.append(f"{name:<38} {metrics[name]['value']:>14.6f} {END_TO_END[base]:<6} "
                     f"(traced {timed[base]:.6f} - untraced {plain[base]:.6f})")
    lines.append(f"# spans: {spans_out}")
    return metrics, lines


if __name__ == "__main__":
    sys.exit(main())
