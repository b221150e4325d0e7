"""Positives-only reconstruction training.

The loop treats every input as its own target, runs plain SGD over the
MSE objective and reduces the learning rate on validation-loss plateaus.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import tensor as T
from .artifacts import write_atomic
# feature_norm is not called here: perfbench/tracing.py:191 wraps the name
# training.feature_norm, so it stays until ROADMAP item 3a retires that hook
from .model import CatUNetModel, feature_norm, save_checkpoint
from .rng import Rng

logger = logging.getLogger("catunet.training")

# Absolute improvement a validation loss must beat the best by to count.
IMPROVEMENT_TOL = 1e-6


@dataclass
class TrainingConfig:
    learning_rate: float = 0.01
    epochs: int = 50
    batch_size: int = 8
    decay_rate: float = 0.1
    patience: int = 10
    validation_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        # bool is an int subclass; refuse True as a count or a rate
        values = vars(self)
        problems = [f"{k} must be an integer, got {values[k]!r}"
                    for k in ("epochs", "batch_size", "patience", "seed")
                    if type(values[k]) is not int]
        problems += [f"{k} must be a number, got {values[k]!r}"
                     for k in ("learning_rate", "decay_rate", "validation_fraction")
                     if isinstance(values[k], bool) or not isinstance(values[k], (int, float))]
        if problems:
            raise ValueError("invalid training config: " + "; ".join(problems))
        if not 0.0 < self.decay_rate < 1.0:
            problems.append(f"decay_rate must be in (0, 1), got {self.decay_rate}")
        if self.patience < 1:
            problems.append(f"patience must be >= 1, got {self.patience}")
        if self.batch_size < 1:
            problems.append(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 <= self.validation_fraction < 1.0:
            problems.append("validation_fraction must be in [0, 1), "
                            f"got {self.validation_fraction}")
        if self.epochs < 0:
            problems.append(f"epochs must be >= 0, got {self.epochs}")
        if self.seed < 0:
            problems.append(f"seed must be >= 0, got {self.seed}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            problems.append(f"learning_rate must be positive and finite, "
                            f"got {self.learning_rate}")
        if problems:
            raise ValueError("invalid training config: " + "; ".join(problems))


@dataclass(frozen=True)
class SchedulerState:
    """Learning-rate controller state."""

    current_lr: float
    best_val_loss: float = math.inf
    epochs_since_improvement: int = 0
    reductions_applied: int = 0


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float
    lr: float


@dataclass
class TrainReport:
    records: list[EpochRecord] = field(default_factory=list)
    best_epoch: int | None = None
    best_val_loss: float = math.inf

    CSV_HEADER = "epoch,train_loss,val_loss,lr"

    def to_csv(self, path: str) -> None:
        # repr() gives the shortest round-trip decimal form, so two runs
        # that produce identical floats produce identical bytes.
        write_atomic(path, "".join(
            [self.CSV_HEADER + "\n"]
            + [f"{r.epoch},{r.train_loss!r},{r.val_loss!r},{r.lr!r}\n"
               for r in self.records]))


def split(dataset: np.ndarray, validation_fraction: float,
          rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Shuffle and cut a sample stack into (train, validation) parts.

    The validation part takes floor(n * fraction) samples, so the train
    side is never empty for any fraction below 1.
    """
    data = np.asarray(dataset)
    n = data.shape[0]
    if n == 0:
        raise ValueError("cannot split an empty dataset")
    if not 0.0 <= validation_fraction < 1.0:
        raise ValueError(f"validation_fraction must be in [0, 1), got {validation_fraction}")
    order = rng.permutation(n)
    n_val = int(n * validation_fraction)
    if n - n_val <= 0:
        raise ValueError("split would leave the training set empty")
    return data[order[: n - n_val]], data[order[n - n_val:]]


def loss(model: CatUNetModel, batch: T.Tensor, training: bool = False,
         dropout_rng=None) -> T.Tensor:
    """Reconstruction objective: MSE of the batch against itself."""
    out = model.forward(batch, training=training, dropout_rng=dropout_rng)
    return T.mse(out, batch)


def sgd_step(model: CatUNetModel, lr: float) -> None:
    """In-place update: theta <- theta - lr * grad, for every parameter.

    Every parameter must hold a gradient; otherwise none is updated.
    """
    missing = [name for name, p in model.parameters.items() if p.grad is None]
    if missing:
        raise ValueError(f"parameter '{missing[0]}' has no gradient; run backward first")
    for p in model.parameters.values():
        p.data -= (lr * p.grad).astype(p.data.dtype, copy=False)


def schedule_update(state: SchedulerState, val_loss: float,
                    config: TrainingConfig) -> SchedulerState:
    """Advance the learning-rate controller by one epoch's validation loss."""
    if not math.isfinite(val_loss):
        raise ValueError(f"validation loss must be finite, got {val_loss}")
    if val_loss < state.best_val_loss - IMPROVEMENT_TOL:
        return replace(state, best_val_loss=val_loss, epochs_since_improvement=0)
    counter = state.epochs_since_improvement + 1
    if counter >= config.patience:
        r = state.reductions_applied + 1
        # Recompute from the base rate so current_lr is exactly
        # learning_rate * decay_rate ** reductions_applied.
        return replace(state, epochs_since_improvement=0, reductions_applied=r,
                       current_lr=config.learning_rate * config.decay_rate ** r)
    return replace(state, epochs_since_improvement=counter)


def evaluate_mse(model: CatUNetModel, data: np.ndarray, batch_size: int) -> float:
    """Mean reconstruction MSE over a sample stack, inference mode."""
    total = 0.0
    with T.no_grad():
        for start in range(0, data.shape[0], batch_size):
            xb = T.Tensor(data[start: start + batch_size])
            total += float(T.mse(model.forward(xb), xb).data) * xb.shape[0]
    return total / data.shape[0]


def train(model: CatUNetModel, dataset: np.ndarray, config: TrainingConfig,
          checkpoint_path: str | None = None) -> tuple[CatUNetModel, TrainReport]:
    """Fit the model to reconstruct the given (positives-only) samples.

    Returns the trained model and a per-epoch report. When
    checkpoint_path is given, the parameters at the best validation
    loss seen so far are saved there (ties go to the earliest epoch).
    """
    data = np.asarray(dataset, dtype=np.float32)
    if data.ndim != 4:
        raise ValueError(f"dataset must be a 4-d sample stack, got shape {data.shape}")
    if data.shape[0] == 0:
        raise ValueError("training dataset is empty")

    rng = Rng(config.seed)
    shuffle = rng.stream("shuffle")
    dropout = rng.stream("dropout") if model.config.dropout_rate > 0 else None

    train_x, val_x = split(data, config.validation_fraction, shuffle)
    if val_x.shape[0] == 0:
        logger.info("validation split is empty; plateau scheduling will "
                    "follow the training loss instead")

    state = SchedulerState(current_lr=config.learning_rate)
    report = TrainReport()
    n_train = train_x.shape[0]

    for epoch in range(1, config.epochs + 1):
        order = shuffle.permutation(n_train)
        mse_sum = 0.0
        seen = 0
        for start in range(0, n_train, config.batch_size):
            idx = order[start: start + config.batch_size]
            xb = T.Tensor(train_x[idx])
            loss_t = loss(model, xb, training=True, dropout_rng=dropout)
            lv = float(loss_t.data)
            if not math.isfinite(lv):
                raise RuntimeError(
                    f"training loss became non-finite at epoch {epoch}, "
                    f"batch {start // config.batch_size + 1}")
            model.zero_grad()
            T.backward(loss_t)
            sgd_step(model, state.current_lr)
            mse_sum += lv * idx.size
            seen += idx.size

        train_loss = mse_sum / seen
        if val_x.shape[0]:
            val_loss = evaluate_mse(model, val_x, config.batch_size)
        else:
            val_loss = train_loss

        report.records.append(EpochRecord(
            epoch=epoch, train_loss=train_loss, val_loss=val_loss, lr=state.current_lr))

        if val_loss < report.best_val_loss:
            report.best_val_loss = val_loss
            report.best_epoch = epoch
            if checkpoint_path is not None:
                save_checkpoint(model, checkpoint_path)

        state = schedule_update(state, val_loss, config)
        logger.debug("epoch %d train %.6g val %.6g lr %.3g",
                     epoch, train_loss, val_loss, state.current_lr)

    return model, report
