"""Train the reference model that the score-48 workload scores with.

The recipe is the acceptance recipe of tests/test_acceptance.py
(`_end_to_end`), called through the same Python API: corpus seed 7,
init seed 1, training seed 11, 300 epochs, then the sample threshold is
placed a 1.35 margin above the worst validation score and the pixel
threshold is calibrated on the validation masks. The CLI cannot express
this recipe (its --seed sets init and training seed together, and it
does not calibrate), which is why this script exists.

Writes `reference/model.catu` and `reference/thresholds.json` (a
`--config` file with a `threshold` section) next to this script.

    python3 perfbench/make_reference.py            # regenerate in place
    python3 perfbench/make_reference.py --check    # regenerate elsewhere, compare bytes

Training takes about five minutes on a 2-core x86 box.
"""

import argparse
import contextlib
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from catunet import data_io as dio  # noqa: E402
from catunet import diagnosis as dx  # noqa: E402
from catunet import training as tr  # noqa: E402
from catunet.model import CatUNetConfig, build, save_checkpoint  # noqa: E402
from catunet.rng import Rng  # noqa: E402

REFERENCE_DIR = os.path.join(HERE, "reference")
ARTIFACTS = ("model.catu", "thresholds.json")

RECIPE = {
    "corpus": dict(image_size=48, n_positive=125, n_negative=25, seed=7),
    "model": dict(input_channels=1, input_size=48, depth=2,
                  base_channels=6, dropout_rate=0.5),
    "init_seed": 1,
    "training": dict(learning_rate=0.02, epochs=300, batch_size=8,
                     validation_fraction=0.2, seed=11),
    "margin": 1.35,
}


def make_reference(out_dir: str, work_dir: str) -> None:
    """Train the recipe on a corpus under work_dir; write the artifacts to out_dir."""
    corpus = os.path.join(work_dir, "corpus")
    dio.synthesize(dio.SynthConfig(**RECIPE["corpus"]), corpus)
    positives, _, _ = dio.load_dataset(corpus)
    train_pool = positives[:100]

    model = build(CatUNetConfig(**RECIPE["model"]), Rng(RECIPE["init_seed"]))
    t_cfg = tr.TrainingConfig(**RECIPE["training"])
    model, _ = tr.train(model, np.stack([s.pixels for s in train_pool]), t_cfg)

    # train() draws its split first from the shuffle stream; replaying
    # that draw on indices recovers the validation samples.
    _, val_idx = tr.split(np.arange(len(train_pool)), t_cfg.validation_fraction,
                          Rng(t_cfg.seed).stream("shuffle"))
    val = [train_pool[i] for i in val_idx]
    recons = [dx.reconstruct(model, s.pixels) for s in val]
    sample_threshold = dx.calibrate_from_positives(
        [dx.score_from_pair(s.pixels, r) for s, r in zip(val, recons)],
        margin=RECIPE["margin"])
    pixel_threshold = dx.calibrate_pixel_threshold(
        [(255.0 * (s.pixels[0] - r[0])) ** 2 for s, r in zip(val, recons)],
        [s.truth_mask for s in val])

    os.makedirs(out_dir, exist_ok=True)
    save_checkpoint(model, os.path.join(out_dir, "model.catu"))
    with open(os.path.join(out_dir, "thresholds.json"), "w", newline="") as fh:
        json.dump({"threshold": {"sample_threshold": sample_threshold,
                                 "pixel_threshold": pixel_threshold}},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="regenerate into a scratch directory and compare "
                             "bytes with the checked-in artifacts")
    args = parser.parse_args()
    scratch = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix="make_reference-", dir=scratch)
    try:
        if not args.check:
            make_reference(REFERENCE_DIR, work)
            print(f"wrote {', '.join(ARTIFACTS)} to {REFERENCE_DIR}")
            return 0
        fresh = os.path.join(work, "fresh")
        make_reference(fresh, work)
        differ = []
        for name in ARTIFACTS:
            with open(os.path.join(REFERENCE_DIR, name), "rb") as a, \
                    open(os.path.join(fresh, name), "rb") as b:
                if a.read() != b.read():
                    differ.append(name)
        if differ:
            print(f"regenerated artifacts differ: {', '.join(differ)}", file=sys.stderr)
            return 1
        print(f"regenerated {', '.join(ARTIFACTS)}: identical bytes")
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(scratch)  # only when nothing else is using it


if __name__ == "__main__":
    sys.exit(main())
