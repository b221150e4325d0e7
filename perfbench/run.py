"""catunet benchmark: train and score through the operator's CLI, in-process.

    python3 perfbench/run.py --workload train-48 --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`. Each workload is one closed loop with one client:

  train-48   `catunet train` on the acceptance recipe (48 px, depth 2,
             base 6, batch 8) over 100 synthesized positives
  train-256  `catunet train` on the paper's default model (256 px,
             depth 3, base 16) at batch 2 over 8 positives
  score-48   `catunet evaluate --masks` over a synthesized labeled corpus,
             with the checked-in reference model and its thresholds

and each operation ends with single-image `catunet diagnose --mask-out`
calls.

`--seed` is the corpus seed; the program sees only the generated files.
With `--trace 0` the last stdout line is a JSON object holding the
end-to-end metrics; with `--trace 1` it holds the per-layer metrics of
an outside-in trace (see tracing.py) and the tracing overhead. Every
operation's outputs are checked, and a failed check counts the
operation as failed. See README.md in this directory for the metrics.
"""

import argparse
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NPROC = len(os.sched_getaffinity(0))

# BLAS must not run more threads than the cores this process may use.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    try:
        _threads = int(os.environ.get(_var, NPROC))
    except ValueError:
        _threads = NPROC
    os.environ[_var] = str(max(1, min(_threads, NPROC)))

import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

from tracing import Tracer, percentile  # noqa: E402

SRC = os.path.join(ROOT, "src")
if not os.path.isdir(os.path.join(SRC, "catunet")):
    sys.exit(f"error: no catunet sources under {SRC}; run from the root of a source checkout")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

from catunet import cli  # noqa: E402
from catunet import data_io as dio  # noqa: E402
from catunet import training as tr  # noqa: E402
from catunet.model import load_checkpoint  # noqa: E402
from catunet.rng import Rng  # noqa: E402

REFERENCE_DIR = os.path.join(HERE, "reference")
# sha256 of the checked-in reference artifacts (see make_reference.py)
REFERENCE_SHA256 = {
    "model.catu": "90664fd9e01889b57623497771ecf85a7076119d01bb126670d6265e256739b6",
    "thresholds.json": "2dd17dea71b52fc1bec1450688c91f4e85822e4dc4cc0e574f4c84a3412ef283",
}
TRAIN_SEED = 11
SETUP_REPEATS = 3
# acceptance-gate levels the reference model must reach on score-48
GATES = {"accuracy": 0.90, "sensitivity": 0.90, "mean_dice": 0.70}

# The closed-loop operation of each workload. Train workloads run
# `catunet train` and then diagnose a few of their positives with the
# model just trained; score-48 runs one `catunet evaluate --masks` and
# then single-image `catunet diagnose` calls with the reference model.
WORKLOADS = {
    "train-48": dict(kind="train", size=48, depth=2, base=6, dropout=0.5,
                     batch=8, lr=0.02, n_pos=100, val_fraction=0.2, epochs=2, diagnose=10),
    "train-256": dict(kind="train", size=256, depth=3, base=16, dropout=0.5,
                      batch=2, lr=0.01, n_pos=8, val_fraction=0.25, epochs=1, diagnose=4),
    "score-48": dict(kind="score", size=48, n_pos=100, n_neg=100, diagnose=50),
}

END_TO_END_UNITS = {
    "setup_s": "s", "images_per_s": "img/s", "diagnose_ms_p50": "ms",
    "diagnose_ms_p95": "ms", "recon_mse": "mse", "peak_rss_mb": "MB",
    "success_rate": "ratio",
}


# ---------------------------------------------------------------------------
# machine facts


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if unknown."""
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_facts():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    ram_mb = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2 ** 20
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "nproc": NPROC,
        "ram_mb": round(ram_mb),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# running CLI commands in-process


def run_cli(argv, tracer=None):
    """Run one catunet command in-process; returns (exit code, stdout, seconds)."""
    out = io.StringIO()
    span = tracer.span(f"cli.command.{argv[0]}") if tracer else contextlib.nullcontext()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), span:
        try:
            code = cli.main(argv)
        except Exception:  # noqa: BLE001 - an escaped exception is a failed operation
            traceback.print_exc()
            code = None
    return code, out.getvalue(), time.perf_counter() - t0


def synthesize(root, size, n_pos, n_neg, seed):
    dio.synthesize(dio.SynthConfig(image_size=size, n_positive=n_pos,
                                   n_negative=n_neg, seed=seed), root)


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """One closed loop: set up, then run operations until time is up.

    An operation is one main command (train or evaluate) followed by
    single-image diagnose calls; each command counts as attempted, and
    as failed when it exits non-zero or its outputs fail a check.
    """

    def __init__(self, cfg, seed, work):
        self.cfg = cfg
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.records = []      # per operation: (exit code, output dir, seconds, diagnose calls)
        self.diagnose_ms = {}  # operation index -> latencies of its passing diagnose calls

    def setup_once(self, root):
        """Build the workload's inputs under root; timed as set-up."""
        raise NotImplementedError

    def use(self, root):
        """Point the workload at the inputs one set-up built."""
        raise NotImplementedError

    def operation(self, index, tracer):
        """Run one operation; returns its wall seconds."""
        raise NotImplementedError

    def check(self, index):
        """Check operation `index`'s main command; returns a list of problems."""
        raise NotImplementedError

    def _diagnose(self, model, images, out, tracer, extra=()):
        calls = []
        for j, image in enumerate(images):
            argv = ["diagnose", "--model", model, "--image", image,
                    "--mask-out", os.path.join(out, f"mask{j}.pgm"), *extra]
            code, stdout, seconds = run_cli(argv, tracer)
            calls.append((image, code, stdout, seconds))
        return calls

    def _check_diagnose(self, index, calls, expected):
        """Count and check one operation's diagnose calls.

        `expected` maps image id to the (score, label) the call must
        print, or is None. Returns that map for the calls that printed one.
        """
        self.attempted += len(calls)
        self.diagnose_ms[index] = []
        seen = {}
        for image, code, stdout, seconds in calls:
            problem = None
            if code != 0:
                problem = f"diagnose exited {code} on {image}"
            else:
                payload = json.loads(stdout)
                got = (payload["score"], payload["label"])
                mask = dio.read_pgm(payload["mask_path"])
                if not math.isfinite(got[0]) or got[1] not in ("Positive", "Negative"):
                    problem = f"diagnose gives {got} for {image}"
                elif mask.shape != (self.cfg["size"],) * 2 or not np.isin(mask, (0, 255)).all():
                    problem = f"diagnose mask for {image} is malformed"
                elif expected is not None and expected.get(payload["id"]) != got:
                    problem = (f"diagnose gives {got} for {payload['id']}, "
                               f"expected {expected.get(payload['id'])}")
                seen[payload["id"]] = got
            if problem:
                self.failed += 1
                self.problems.append(problem)
            else:
                self.diagnose_ms[index].append(1e3 * seconds)
        return seen

    def end_to_end(self, timed):
        """End-to-end metrics over the timed operations' indices."""
        diagnose_ms = [ms for i in timed for ms in self.diagnose_ms[i]]
        self.diagnose_samples = len(diagnose_ms)
        command_s = statistics.median(self.records[i][2] for i in timed)
        return {"images_per_s": self.images_per_op / command_s,
                "diagnose_ms_p50": percentile(diagnose_ms, 50),
                "diagnose_ms_p95": percentile(diagnose_ms, 95),
                "recon_mse": self.recon_mse}


class TrainWorkload(Workload):
    def setup_once(self, root):
        c = self.cfg
        synthesize(os.path.join(root, "corpus"), c["size"], c["n_pos"], 0, self.seed)
        with open(os.path.join(root, "train.json"), "w") as fh:
            json.dump({"training": {"validation_fraction": c["val_fraction"]}}, fh)

    def use(self, root):
        self.corpus = os.path.join(root, "corpus")
        self.config = os.path.join(root, "train.json")
        self.images = [os.path.join(self.corpus, "positive", f"pos_{k:03d}.pgm")
                       for k in range(self.cfg["diagnose"])]
        n_train = self.cfg["n_pos"] - int(self.cfg["n_pos"] * self.cfg["val_fraction"])
        self.images_per_op = self.cfg["epochs"] * n_train
        self.units_per_op = self.cfg["epochs"] * math.ceil(n_train / self.cfg["batch"])

    def operation(self, index, tracer):
        c = self.cfg
        out = os.path.join(self.work, f"train{index}")
        model = os.path.join(out, "model.catu")
        argv = ["train", "--data", self.corpus, "--config", self.config, "--out", model,
                "--epochs", str(c["epochs"]), "--batch", str(c["batch"]),
                "--lr", str(c["lr"]), "--seed", str(TRAIN_SEED), "--size", str(c["size"]),
                "--depth", str(c["depth"]), "--base", str(c["base"]),
                "--dropout", str(c["dropout"])]
        code, _, seconds = run_cli(argv, tracer)
        calls = self._diagnose(model, self.images, out, tracer)
        self.records.append((code, out, seconds, calls))
        return seconds + sum(call[3] for call in calls)

    def _validation_stack(self):
        positives, _, _ = dio.load_dataset(self.corpus)
        data = np.stack([dio.preprocess(s, self.cfg["size"], 1).pixels for s in positives])
        # train() draws its split first from the shuffle stream
        _, val_idx = tr.split(np.arange(len(data)), self.cfg["val_fraction"],
                              Rng(TRAIN_SEED).stream("shuffle"))
        return data[val_idx]

    def check(self, index):
        code, out, _, calls = self.records[index]
        if code != 0:
            problems = [f"train exited {code}"]
        else:
            problems = self._check_train_outputs(index, out)
        # every operation trains the same model, so diagnose scores repeat
        scores = self._check_diagnose(index, calls, None if index == 0 else self.scores)
        if index == 0:
            self.scores = scores
        shutil.rmtree(out, ignore_errors=True)
        return problems

    def _check_train_outputs(self, index, out):
        with open(os.path.join(out, "model.train.csv"), "rb") as fh:
            csv = fh.read()
        rows = [line.split(",") for line in csv.decode().strip().splitlines()[1:]]
        problems = []
        if len(rows) != self.cfg["epochs"]:
            problems.append(f"train CSV has {len(rows)} epochs, expected {self.cfg['epochs']}")
        if not all(math.isfinite(float(v)) for r in rows for v in r[1:3]):
            problems.append("non-finite loss in train CSV")
        if index == 0:
            self.csv = csv
            self.recon_mse = float(rows[-1][2])
            self.val_x = self._validation_stack()
        elif csv != self.csv:
            problems.append("train CSV differs from the run's first train command")
        # the best checkpoint must reproduce its validation MSE bit-exactly
        best_val = min(float(r[2]) for r in rows)
        again = tr.evaluate_mse(load_checkpoint(os.path.join(out, "model.catu")),
                                self.val_x, self.cfg["batch"])
        if again != best_val:
            problems.append(f"reloaded checkpoint gives val MSE {again!r}, "
                            f"train CSV recorded {best_val!r}")
        return problems

    def quality(self):
        return {"accuracy": 0.0, "sensitivity": 0.0, "mean_dice": 0.0}


class ScoreWorkload(Workload):
    def setup_once(self, root):
        c = self.cfg
        synthesize(os.path.join(root, "corpus"), c["size"], c["n_pos"], c["n_neg"], self.seed)
        staged = os.path.join(root, "model")
        os.makedirs(staged)
        for name, digest in REFERENCE_SHA256.items():
            shutil.copyfile(os.path.join(REFERENCE_DIR, name), os.path.join(staged, name))
            if sha256(os.path.join(staged, name)) != digest:
                raise RuntimeError(f"reference artifact {name} does not match its sha256")

    def use(self, root):
        c = self.cfg
        self.corpus = os.path.join(root, "corpus")
        self.model = os.path.join(root, "model", "model.catu")
        self.config = os.path.join(root, "model", "thresholds.json")
        with open(self.config) as fh:
            self.threshold = json.load(fh)["threshold"]["sample_threshold"]
        pos = [os.path.join(self.corpus, "positive", f"pos_{k:03d}.pgm")
               for k in range(c["n_pos"])]
        neg = [os.path.join(self.corpus, "negative", f"neg_{k:03d}.pgm")
               for k in range(c["n_neg"])]
        # alternate classes so every operation diagnoses both
        self.images = [p for pair in zip(pos, neg) for p in pair]
        self.images_per_op = c["n_pos"] + c["n_neg"]
        self.units_per_op = self.images_per_op + c["diagnose"]

    def operation(self, index, tracer):
        out = os.path.join(self.work, f"score{index}")
        argv = ["evaluate", "--model", self.model, "--data", self.corpus,
                "--config", self.config, "--report", os.path.join(out, "metrics.json"),
                "--masks"]
        code, _, seconds = run_cli(argv, tracer)
        n = self.cfg["diagnose"]
        images = [self.images[(index * n + j) % len(self.images)] for j in range(n)]
        # diagnose has no --config; its sample threshold is passed as a flag
        calls = self._diagnose(self.model, images, out, tracer,
                               ("--threshold", repr(self.threshold)))
        self.records.append((code, out, seconds, calls))
        return seconds + sum(call[3] for call in calls)

    def check(self, index):
        code, out, _, calls = self.records[index]
        problems = []
        scores = {}
        if code != 0:
            problems.append(f"evaluate exited {code}")
        else:
            problems, scores = self._check_evaluate_outputs(index, out)
        # diagnose must agree with evaluate on every image they share
        self._check_diagnose(index, calls, scores)
        shutil.rmtree(out, ignore_errors=True)
        return problems

    def _check_evaluate_outputs(self, index, out):
        with open(os.path.join(out, "metrics.json"), "rb") as fh:
            raw = fh.read()
        report = json.loads(raw)
        problems = []
        counted = sum(report[k] for k in ("tp", "fp", "tn", "fn"))
        if counted != self.images_per_op:
            problems.append(f"confusion counts sum to {counted}, scored {self.images_per_op}")
        scores = {}
        with open(os.path.join(out, "metrics.samples.jsonl")) as fh:
            for line in fh:
                entry = json.loads(line)
                if "error" in entry or not math.isfinite(entry["score"]):
                    problems.append(f"sample {entry['id']} failed: {entry.get('error')}")
                scores[entry["id"]] = (entry["score"], entry["label"])
        if len(scores) != self.images_per_op:
            problems.append(f"samples file holds {len(scores)} entries, "
                            f"scored {self.images_per_op}")
        if index == 0:
            self.metrics_json = raw
            # mean per-image MSE: evaluate reports one minus it
            self.recon_mse = 1.0 - report["reconstruction_accuracy"]
            self.gates = {"accuracy": report["accuracy"],
                          "sensitivity": report["sensitivity"], "mean_dice": report["dice"]}
            for name, level in GATES.items():
                if not self.gates[name] >= level:
                    problems.append(f"{name} {self.gates[name]} below the gate level {level}")
        elif raw != self.metrics_json:
            problems.append("metrics JSON differs from the run's first evaluate")
        return problems, scores

    def quality(self):
        return self.gates


# ---------------------------------------------------------------------------


def measure(workload, seconds, tracer):
    """Run operations while the next one is expected to end within `seconds`.

    Operation 0 warms the process (BLAS threads, allocator arenas): it is
    checked but not timed. In traced runs the timed operations alternate
    between untraced and traced, so their difference is the tracing
    overhead. Returns {index: wall seconds} for untraced and traced ones.
    """
    t0 = time.perf_counter()
    plain, traced = {}, {}
    index = 0
    while True:
        on = tracer is not None and index > 0 and index % 2 == 0
        if tracer is not None:
            tracer.enabled = on
        try:
            seconds_op = workload.operation(index, tracer if on else None)
        finally:
            if tracer is not None:
                tracer.enabled = False
        if index > 0:
            (traced if on else plain)[index] = seconds_op
        workload.attempted += 1
        problems = workload.check(index)
        if problems:
            workload.failed += 1
            workload.problems.extend(problems)
        index += 1
        timed = list(plain.values()) + list(traced.values())
        if (index >= (3 if tracer is not None else 2)
                and time.perf_counter() - t0 + statistics.median(timed) > seconds):
            return plain, traced


def import_seconds():
    """Wall time for a fresh interpreter to start and import the CLI."""
    code = f"import sys; sys.path.insert(0, {SRC!r}); import catunet.cli"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return time.perf_counter() - t0


def main(argv=None):
    parser = argparse.ArgumentParser(description="catunet benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="corpus seed")
    parser.add_argument("--seconds", type=float, required=True,
                        help="measurement time budget")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    facts = machine_facts()
    if facts["blas_threads"] is not None and facts["blas_threads"] > NPROC:
        raise SystemExit(f"error: BLAS runs {facts['blas_threads']} threads on {NPROC} cores")

    cfg = WORKLOADS[args.workload]
    base = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(base, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base)
    try:
        kind = TrainWorkload if cfg["kind"] == "train" else ScoreWorkload
        workload = kind(cfg, args.seed, work)
        setups = []
        for k in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.setup_once(os.path.join(work, f"setup{k}"))
            setups.append(time.perf_counter() - t0)
            if k:
                shutil.rmtree(os.path.join(work, f"setup{k}"))
        workload.use(os.path.join(work, "setup0"))
        imports = [import_seconds() for _ in range(SETUP_REPEATS)]

        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
        try:
            plain, traced = measure(workload, args.seconds, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(base)  # only when no other run is using it

    if tracer is None:
        metrics = {"setup_s": statistics.median(imports) + statistics.median(setups),
                   **workload.end_to_end(plain),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                   "success_rate": 1 - workload.failed / workload.attempted}
    else:
        per_op = workload.units_per_op
        metrics = tracer.per_layer(per_op * len(traced))
        metrics.update({f"metrics.{k}": v for k, v in workload.quality().items()})
        metrics["data_io.synthesize_s"] = statistics.median(setups)
        plain_unit = statistics.median(plain.values()) / per_op
        traced_unit = statistics.median(traced.values()) / per_op
        metrics["trace.overhead_ms"] = 1e3 * (traced_unit - plain_unit)
        metrics["trace.overhead_share"] = traced_unit / plain_unit - 1

    print("machine " + json.dumps(facts, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced operations after one warm-up, "
          f"{workload.attempted} commands attempted, {workload.failed} failed")
    print("setup seconds: imports " + " ".join(f"{t:.3f}" for t in imports)
          + ", corpus and model " + " ".join(f"{t:.3f}" for t in setups))
    print("operation seconds: untraced " + " ".join(f"{t:.3f}" for t in plain.values())
          + "; traced " + " ".join(f"{t:.3f}" for t in traced.values()))
    if tracer is None:
        print(f"diagnose samples {workload.diagnose_samples}")
    for problem in workload.problems:
        print(f"check failed: {problem}")
    result = {}
    for name, value in metrics.items():
        unit = END_TO_END_UNITS[name] if tracer is None else _layer_unit(name)
        result[name] = {"value": value, "unit": unit}
        print(f"  {name:<40} {value:.6g} {unit}")
    print(json.dumps({"correct": workload.failed == 0, "attempted": workload.attempted,
                      "failed": workload.failed, "metrics": result}))
    return 0


def _layer_unit(name):
    if name.endswith("gflop_per_s"):
        return "GFLOP/s"
    if name.endswith("_ms") or "_ms_" in name:
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("gflop"):
        return "GFLOP"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(".calls"):
        return "count"
    return "ratio"


if __name__ == "__main__":
    sys.exit(main())
