#!/usr/bin/env python3
"""Benchmark of nagatag's train, tag and eval paths, end to end and per layer.

    python3 bench/run.py --workload train-synth700 --seed 0 --seconds 35 --trace 0
    python3 bench/run.py --seed 3        # every workload, each in a fresh process

A run imports the program from src/, generates its workload's inputs from
--seed, sets up several times, then repeats the workload's nagatag commands
in-process through nagatag.cli.main until --seconds have passed. It checks
every output, prints each metric with its unit and sample count, and ends
with one JSON line {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 they are the
per-layer figures of a traced run. The exit code is 1 when a correctness
check fails. bench/README.md gives each workload's reason and the map from
layer metrics to the end-to-end metrics they move.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
NPROC = len(os.sched_getaffinity(0))
# One client, one process: numpy/BLAS threads are the only extra threads,
# capped at the CPUs this process may use. Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, str(NPROC))

from tracing import Tracer, median_metrics, patched, rep_layer_metrics  # noqa: E402

C1 = C2 = 0.1
SETUP_REPEATS = 3
# A repetition repeats `tag` until it has tagged this long: on a shared host
# speed drifts over seconds, so throughput is tokens over the whole span.
TAG_SECONDS = 8.0
# held-out accuracy of the seed commit on this synthetic data
ACCURACY_FLOOR = 1.0
OBJECTIVE_RTOL = 1e-6
REFERENCE = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))

nagatag = None  # the program package, imported from src/ by load_program


@dataclass(frozen=True)
class Inputs:
    train: object  # TaggedCorpus the model is trained on
    gold: object  # TaggedCorpus whose words go through `tag`, and itself through `eval`
    max_iter: int
    accuracy_floor: float | None


def train_synth700(seed: int, tiny: bool) -> Inputs:
    config = nagatag.datagen.SynthConfig(seed=7 + seed, n_sentences=60 if tiny else 1000)
    train, held_out = nagatag.corpus.split_corpus(nagatag.datagen.generate(config), 0.7, seed)
    return Inputs(train, held_out, 3 if tiny else 30, None if tiny else ACCURACY_FLOOR)


def train_wide(seed: int, tiny: bool) -> Inputs:
    n, held = (40, 20) if tiny else (2000, 300)
    config = nagatag.datagen.SynthConfig(
        seed=11 + seed, n_sentences=n + held, min_len=19, max_len=19
    )
    sentences = nagatag.datagen.generate(config).sentences
    corpus = nagatag.corpus.TaggedCorpus
    # three iterations are far from convergence: accuracy is recorded, not gated
    return Inputs(corpus(sentences[:n]), corpus(sentences[n:]), 2 if tiny else 3, None)


# A third workload, tag-bulk, is left out so that runs are long enough to be
# steady on a noisy 2-CPU machine; see bench/README.md.
WORKLOADS = {"train-synth700": train_synth700, "train-wide": train_wide}


def load_program() -> float:
    """Import the program from this checkout's src/; returns the import time."""
    global nagatag
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import nagatag.cli  # noqa: F401  (imports crf, corpus, datagen, numpy, scipy)

    elapsed = time.perf_counter() - start
    if Path(nagatag.__file__).resolve().parent != ROOT / "src" / "nagatag":
        raise SystemExit(f"bench: nagatag imported from {nagatag.__file__}, not from src/")
    return elapsed


def blas_threads() -> int | None:
    """Threads of numpy's bundled OpenBLAS, when it is the one in use."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def machine_facts() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    return {
        "nproc": NPROC,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
    }


def computed_counts(train) -> dict[str, int]:
    """Work counts of one objective call, from the training corpus alone."""
    K = len(nagatag.corpus.TagSet())
    A = len(nagatag.crf.build_attribute_index(train))
    groups = Counter(len(sentence) for sentence in train)  # length -> sentences
    return {
        "crf.attributes": A,
        "crf.parameters": A * K + K * K + 2 * K,
        "crf.recursion_steps_per_call": 2 * sum(groups),
        "crf.lattice_cells_per_call": sum(B * T * K * K for T, B in groups.items()),
        "crf.pairwise_bytes_max": max(B * (T - 1) * K * K * 8 for T, B in groups.items()),
    }


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def __call__(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"bench: check failed: {what}", file=sys.stderr)
        return ok


class Run:
    """One workload at one seed: set-ups, measured repetitions, checks."""

    def __init__(self, workload: str, seed: int, tiny: bool, trace: bool, workdir: Path):
        self.workload, self.seed, self.tiny, self.workdir = workload, seed, tiny, workdir
        # one tag pass per repetition when traced, so per-layer counts repeat exactly
        self.tag_seconds = 0.0 if tiny or trace else TAG_SECONDS
        self.checks = Checks()
        self.tracer: Tracer | None = None
        self.last_saved = None  # the model most recently handed to save_model
        self.objectives: list[float] = []
        self.accuracies: list[float] = []
        self.reference = None if tiny else REFERENCE.get(workload, {}).get(str(seed))

    def traced(self):
        return patched(self.tracer.replacements()) if self.tracer else contextlib.nullcontext()

    def capture_saves(self):
        """Keep the model last handed to save_model, to compare with what reloads."""

        def wrap(save):
            def capture(*args, **kwargs):
                self.last_saved = args[1] if len(args) > 1 else kwargs["model"]
                return save(*args, **kwargs)

            return capture

        return patched({("nagatag.crf", "save_model"): wrap})

    def cli(self, *argv) -> tuple[bool, float]:
        """One nagatag command in this process; returns (succeeded, wall seconds)."""
        argv = [str(a) for a in argv]
        span = self.tracer.span("cli") if self.tracer else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with span:
                rc = nagatag.cli.main(argv)
        except Exception:  # a crash is a failed operation; the run goes on
            traceback.print_exc()
            rc = "exception"
        wall = time.perf_counter() - start
        return self.checks(rc == 0, f"nagatag {argv[0]} exits 0 (got {rc})"), wall

    def train(self, files: dict, inputs: Inputs) -> float:
        self.last_saved = None
        _, wall = self.cli(
            "train", files["train"], "--model", files["model"],
            "--c1", C1, "--c2", C2, "--max-iter", inputs.max_iter,
        )
        return wall

    def check_saved_model(self, path: Path, max_iter: int):
        """Checks on the model the last `train` saved, made outside its timing."""
        import numpy

        model, self.last_saved = self.last_saved, None
        if not self.checks(model is not None, "train saves its model"):
            return
        meta = model.training
        self.checks(1 <= meta.iterations <= max_iter, f"{meta.iterations} iterations within the cap {max_iter}")
        expected = self.reference if self.reference is not None else (self.objectives or [None])[0]
        self.objectives.append(meta.final_objective)
        if expected is not None:
            self.checks(
                math.isclose(meta.final_objective, expected, rel_tol=OBJECTIVE_RTOL),
                f"final objective {meta.final_objective!r} matches {expected!r}",
            )
        loaded, _ = nagatag.crf.load_model(str(path))
        same = (
            loaded.tagset == model.tagset
            and loaded.attribute_index == model.attribute_index
            and all(
                numpy.array_equal(getattr(loaded, f), getattr(model, f))
                for f in ("state_weights", "transition_weights", "begin_weights", "end_weights")
            )
        )
        self.checks(same, "saved model reloads to identical weights")

    def check_tagged(self, path: Path, gold, floor: float | None):
        lines = [line for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]
        self.checks(len(lines) == len(gold), f"tag writes {len(lines)} sentences for {len(gold)}")
        tagset = nagatag.corpus.TagSet()
        right = same_words = 0
        for line, sentence in zip(lines, gold):
            pairs = [token.rsplit("/", 1) for token in line.split()]
            same_words += [p[0] for p in pairs] == list(sentence.words())
            right += sum(
                len(p) == 2 and p[1] == tagset.name(t)
                for p, t in zip(pairs, sentence.tags())
            )
        self.checks(same_words == len(gold), "tag output keeps every sentence's words")
        if floor is not None:
            accuracy = right / gold.token_count
            self.checks(accuracy >= floor, f"tag accuracy {accuracy} >= {floor}")

    def check_eval(self, path: Path, gold, floor: float | None):
        report = json.loads(path.read_text(encoding="utf-8"))
        self.checks(report["total"] == gold.token_count, "eval counts every gold token")
        self.accuracies.append(report["accuracy"])
        if floor is not None:
            self.checks(report["accuracy"] >= floor, f"eval accuracy {report['accuracy']} >= {floor}")

    def set_up(self, index: int) -> tuple[dict, Inputs]:
        """Generate the inputs and write them to files."""
        directory = self.workdir / f"setup{index}"
        directory.mkdir()
        files = {name: directory / f"{name}.txt" for name in ("train", "gold", "raw", "tagged", "eval")}
        files["model"] = directory / "model.json"
        with self.traced():
            inputs = WORKLOADS[self.workload](self.seed, self.tiny)
            tagset = nagatag.corpus.TagSet()
            nagatag.corpus.write_corpus(str(files["train"]), inputs.train, tagset)
            nagatag.corpus.write_corpus(str(files["gold"]), inputs.gold, tagset)
            files["raw"].write_text(
                "".join(" ".join(s.words()) + "\n" for s in inputs.gold), encoding="utf-8"
            )
        return files, inputs

    def repetition(self, files: dict, inputs: Inputs) -> dict:
        """The workload's measured commands, then the checks of their outputs."""
        rep = {}
        with self.traced():
            rep["train_s"] = self.train(files, inputs)
            rep["tag_s"] = []
            while not rep["tag_s"] or sum(rep["tag_s"]) < self.tag_seconds:
                _, wall = self.cli(
                    "tag", files["raw"], "--model", files["model"], "--output", files["tagged"]
                )
                rep["tag_s"].append(wall)
            _, rep["eval_s"] = self.cli(
                "eval", files["gold"], "--model", files["model"],
                "--format", "json", "--output", files["eval"],
            )
        rep["wall_s"] = rep["train_s"] + sum(rep["tag_s"]) + rep["eval_s"]
        self.check_saved_model(files["model"], inputs.max_iter)
        self.check_tagged(files["tagged"], inputs.gold, inputs.accuracy_floor)
        self.check_eval(files["eval"], inputs.gold, inputs.accuracy_floor)
        if self.tracer:
            rep["layers"] = rep_layer_metrics(self.tracer, rep["train_s"])
        return rep


def measure(run: Run, seconds: float, trace: bool, import_s: float) -> tuple[dict, dict]:
    """Returns metrics as {name: (value, unit, samples)} and facts for the info line."""
    setup_tracer = Tracer() if trace else None
    setups = []
    for index in range(1 if trace else SETUP_REPEATS):
        run.tracer = setup_tracer
        start = time.perf_counter()
        files, inputs = run.set_up(index)
        setups.append(time.perf_counter() - start)
    run.tracer = None
    counts = computed_counts(inputs.train)
    tokens = inputs.gold.token_count

    baseline = run.repetition(files, inputs)["wall_s"] if trace else None
    reps = []
    window = time.perf_counter()
    while not reps or time.perf_counter() - window < seconds:
        run.tracer = Tracer() if trace else None
        reps.append(run.repetition(files, inputs))
    run.tracer = None

    info = {"computed": counts, "tag_tokens": tokens, "tag_passes": [len(r["tag_s"]) for r in reps],
            "import_s": import_s, "setup_runs_s": setups}
    if trace:
        layers = median_metrics([r["layers"] for r in reps])
        layers.update(counts)
        layers["crf.model_bytes"] = files["model"].stat().st_size
        layers["datagen.generate_s"] = setup_tracer.total("datagen.generate")
        layers["corpus.write_s"] = setup_tracer.total("corpus.write")
        layers["trace.overhead_s"] = statistics.median(r["wall_s"] for r in reps) - baseline
        return {name: (value, PER_LAYER_UNITS[name], len(reps)) for name, value in layers.items()}, info
    train = [r["train_s"] for r in reps]
    tag = [tokens * len(r["tag_s"]) / sum(r["tag_s"]) for r in reps]
    metrics = {
        "setup_s": (import_s + statistics.median(setups), "s", len(setups)),
        "train_s": (statistics.median(train), "s", len(train)),
        "tag_tokens_per_s": (statistics.median(tag), "tokens/s", len(tag)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB", 1),
    }
    return metrics, info


def _units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


PER_LAYER_UNITS = _units()


def run_one(args) -> int:
    import_s = load_program()
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH) as tmp:
        run = Run(args.workload, args.seed, args.tiny, bool(args.trace), Path(tmp))
        with run.capture_saves():
            metrics, info = measure(run, args.seconds, bool(args.trace), import_s)
    info.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        tiny=args.tiny, machine=machine_facts(), final_objective=run.objectives,
        reference_objective=run.reference, eval_accuracy=run.accuracies,
    )
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for name, (value, unit, samples) in metrics.items():
        print(f"{name:<40} {value:>16.6f} {unit:<9} median of {samples}")
    print(f"checks: {run.checks.attempted} attempted, {run.checks.failed} failed")
    print(json.dumps({"info": info}))
    correct = run.checks.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.checks.attempted,
        "failed": run.checks.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in turn, each in a fresh process so peak RSS is its own."""
    failed = []
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if subprocess.run(argv + (["--tiny"] if args.tiny else [])).returncode != 0:
            failed.append(name)
    if failed:
        print(f"bench: failed workloads: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every input to a few dozen sentences (smoke check)")
    args = parser.parse_args()
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
