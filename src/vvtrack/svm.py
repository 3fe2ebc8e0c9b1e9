"""Cubic-kernel SVM trained by SMO, one-vs-one multiclass, CV evaluation."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

KKT_TOL = 1e-3  # SMO stops once the largest KKT violation is at most this
MAX_STEPS = 1_000_000  # SMO pair updates before training gives up as not converged
DEFAULT_C = 5.0  # box constraint; 1.0 underfits L1-normalized histograms
DEFAULT_C_OFFSET = 1.0  # kernel offset c of (x.y + c)^3


class SvmError(Exception):
    pass


def gram_matrix(xs: np.ndarray, ys: np.ndarray | None = None, c=DEFAULT_C_OFFSET):
    """Cubic kernel (x.y + c)^3 of every row x of xs with every row y of ys (or xs)."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = xs if ys is None else np.asarray(ys, dtype=np.float64)
    return (xs @ ys.T + c) ** 3


@dataclass
class BinaryMachine:
    """One trained binary SVM: support vectors, dual coefficients alpha*y, bias."""

    support_vectors: np.ndarray
    dual_coef: np.ndarray  # alpha_i * y_i
    bias: float


def _smo(x: np.ndarray, y: np.ndarray, C: float, c_offset: float) -> BinaryMachine:
    """SMO on the maximal violating pair, second-order working-set selection.

    Minimizes f = 1/2 a'Qa - sum(a), Q = yy'K, over 0 <= a <= C with y'a = 0,
    keeping the gradient G = Qa - 1 current.  Each step moves the most
    violating i of I_up and the j of I_low that lowers f most (Fan, Chen and
    Lin 2005) to the clipped minimum on their line; training stops once the
    KKT gap max_up(-yG) - min_low(-yG) is at most KKT_TOL.  f is asserted
    not to increase.
    """
    K = gram_matrix(x, c=c_offset)
    alpha = np.zeros(len(y))
    grad = -np.ones(len(y))
    obj = 0.0
    for _ in range(MAX_STEPS):
        s = -y * grad
        room_up = np.where(y > 0, C - alpha, alpha)  # how far alpha_t may move by +y_t
        room_low = np.where(y > 0, alpha, C - alpha)  # ... and by -y_t
        i = int(np.where(room_up > 0, s, -np.inf).argmax())
        s_max, s_min = s[i], np.where(room_low > 0, s, np.inf).min()
        if s_max - s_min <= KKT_TOL:
            break
        eta = np.maximum(K[i, i] + K.diagonal() - 2.0 * K[i], 1e-12)
        j = int(np.where((room_low > 0) & (s < s_max), (s_max - s) ** 2 / eta,
                         -1.0).argmax())
        t = min((s_max - s[j]) / eta[j], room_up[i], room_low[j])
        # A variable that reaches its bound is set to it exactly.
        alpha[i] = alpha[i] + y[i] * t if t < room_up[i] else C * (y[i] > 0)
        alpha[j] = alpha[j] - y[j] * t if t < room_low[j] else C * (y[j] < 0)
        grad += t * y * (K[:, i] - K[:, j])
        new_obj = 0.5 * alpha @ (grad - 1.0)
        assert new_obj <= obj + 1e-9 * abs(obj), "SMO objective increased"
        obj = new_obj
    else:
        raise SvmError(f"SMO did not converge within {MAX_STEPS} steps")

    if not (alpha.min() >= -1e-9 and alpha.max() <= C + 1e-9):
        raise SvmError("box constraint violated after training")
    if abs((alpha * y).sum()) > 1e-8:
        raise SvmError("sum alpha_i y_i != 0 after training")
    free = (alpha > 0) & (alpha < C)
    b = s[free].mean() if free.any() else 0.5 * (s_max + s_min)
    sv = alpha > 0
    return BinaryMachine(support_vectors=x[sv].copy(), dual_coef=(alpha * y)[sv],
                         bias=float(b))


@dataclass
class SvmModel:
    """One-vs-one multiclass model; machine (i, j) scores class i positive."""

    classes: list
    machines: dict = field(default_factory=dict)  # (i, j) -> BinaryMachine
    C: float = DEFAULT_C
    c_offset: float = DEFAULT_C_OFFSET  # the kernel offset of every machine

    def __post_init__(self):
        if len(set(self.classes)) != len(self.classes):
            raise SvmError(f"repeated class names in {self.classes!r}")
        if not self.C > 0:
            raise SvmError(f"C must be > 0, got {self.C!r}")
        if not self.c_offset >= 0:
            raise SvmError(f"kernel offset must be >= 0, got {self.c_offset!r}")


def train_svm(samples, labels, C: float = DEFAULT_C,
              c_offset: float = DEFAULT_C_OFFSET) -> SvmModel:
    """Train one-vs-one cubic-kernel machines over all class pairs.

    Each machine runs SMO to KKT_TOL; one that needs more than
    MAX_STEPS steps raises SvmError.
    """
    x = np.asarray(samples, dtype=np.float64)
    labels = list(labels)
    classes = sorted(set(labels))
    if len(classes) < 2:
        raise SvmError("need at least two classes")
    model = SvmModel(classes=classes, C=C, c_offset=c_offset)
    rows = [np.flatnonzero([l == cl for l in labels]) for cl in classes]
    for a, b in itertools.combinations(range(len(classes)), 2):
        ys = np.repeat([1.0, -1.0], [len(rows[a]), len(rows[b])])
        model.machines[(a, b)] = _smo(x[np.concatenate([rows[a], rows[b]])], ys,
                                      C, c_offset)
    return model


def _pairwise(model: SvmModel, x):
    """Per-class votes and summed signed margins over the one-vs-one machines."""
    x = np.asarray(x, dtype=np.float64)
    dims = {m.support_vectors.shape[1] for m in model.machines.values()}
    if x.ndim != 1 or dims != {x.size}:
        raise SvmError(f"model takes {sorted(dims)}-bin histograms, got shape {x.shape}")
    votes = np.zeros(len(model.classes))
    margins = np.zeros(len(model.classes))
    for (a, b), m in model.machines.items():
        k = gram_matrix(m.support_vectors, np.atleast_2d(x), model.c_offset)[:, 0]
        f = float(m.dual_coef @ k + m.bias)
        votes[a if f >= 0 else b] += 1
        margins[a] += f
        margins[b] -= f
    return votes, margins


def _winner(votes, margins) -> int:
    """Class index with the most votes; ties by summed margin, then class index."""
    return min(range(len(votes)), key=lambda i: (-votes[i], -margins[i], i))


def predict(model: SvmModel, x) -> tuple:
    """Majority vote over pairs (see _winner). Returns (label, per-class votes)."""
    votes, margins = _pairwise(model, x)
    return model.classes[_winner(votes, margins)], votes


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

@dataclass
class EvalReport:
    classes: list
    confusion: np.ndarray
    accuracy: float
    roc: dict  # class -> list of (fpr, tpr)
    auc: dict  # class -> float


def roc_curve(scores: np.ndarray, positives: np.ndarray):
    """Monotone staircase from (0, 0) to (1, 1), scores descending."""
    pos = np.asarray(positives, bool)[np.argsort(-scores, kind="stable")]
    tpr = np.cumsum(pos) / max(int(pos.sum()), 1)
    fpr = np.cumsum(~pos) / max(int((~pos).sum()), 1)
    points = [(0.0, 0.0), *zip(fpr.tolist(), tpr.tolist())]
    if points[-1] != (1.0, 1.0):
        points.append((1.0, 1.0))
    x, y = np.asarray(points).T
    # cumsum adds the trapezoids left to right (np.sum would pair them up).
    auc = float(np.cumsum(np.diff(x) * 0.5 * (y[:-1] + y[1:]))[-1])
    return points, auc


def stratified_folds(labels, n_folds: int) -> list[int]:
    """Fold index per sample, round-robin in input order within each class."""
    fold = np.zeros(len(labels), dtype=int)
    for cl in sorted(set(labels)):
        idx = np.flatnonzero([l == cl for l in labels])
        if len(idx) < n_folds:
            raise SvmError(f"class {cl!r} has fewer samples than folds")
        fold[idx] = np.arange(len(idx)) % n_folds
    return fold.tolist()


def cross_validate(samples, labels, n_folds: int = 5, C: float = DEFAULT_C,
                   c_offset: float = DEFAULT_C_OFFSET) -> EvalReport:
    """Stratified k-fold CV: confusion over held-out folds, per-class ROC."""
    if n_folds < 2:
        raise SvmError("need at least two folds")
    x = np.asarray(samples, dtype=np.float64)
    labels = list(labels)
    classes = sorted(set(labels))
    folds = np.asarray(stratified_folds(labels, n_folds))
    n_cl = len(classes)
    cindex = {cl: i for i, cl in enumerate(classes)}
    truth, predicted, scores = [], [], []
    for f in range(n_folds):
        train, test = np.flatnonzero(folds != f), np.flatnonzero(folds == f)
        model = train_svm(x[train], [labels[i] for i in train],
                          C=C, c_offset=c_offset)
        for i in test:
            votes, margins = _pairwise(model, x[i])
            truth.append(cindex[labels[i]])
            predicted.append(_winner(votes, margins))
            scores.append(margins)
    confusion = np.zeros((n_cl, n_cl), dtype=int)
    np.add.at(confusion, (truth, predicted), 1)
    scores = np.asarray(scores)
    truth = np.asarray(truth)
    roc, auc = {}, {}
    for ci, cl in enumerate(classes):
        roc[cl], auc[cl] = roc_curve(scores[:, ci], truth == ci)
    accuracy = float(np.trace(confusion)) / max(confusion.sum(), 1)
    return EvalReport(classes=classes, confusion=confusion, accuracy=accuracy,
                      roc=roc, auc=auc)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

# The model file's arrays in order, each as (type, ndim): the class names,
# [C, c_offset], the support-vector count of each machine in combinations
# order, then every machine's support vectors, dual coefficients and bias.
MODEL_ARRAYS = ((np.str_, 1), (np.float64, 1), (np.int64, 1), (np.float64, 2),
                (np.float64, 1), (np.float64, 1))


def save_model(path, model: SvmModel) -> None:
    """Write the MODEL_ARRAYS as .npy arrays back to back, at path as given."""
    names = np.array(model.classes, dtype=np.str_)
    if names.tolist() != list(model.classes):
        raise SvmError(f"class names must read back equal to be saved: {model.classes!r}")
    machines = [model.machines[p] for p in itertools.combinations(range(len(names)), 2)]
    arrays = (names, [model.C, model.c_offset], [len(m.dual_coef) for m in machines],
              np.concatenate([m.support_vectors for m in machines]),
              np.concatenate([m.dual_coef for m in machines]), [m.bias for m in machines])
    with open(path, "wb") as fh:
        for array, (kind, _) in zip(arrays, MODEL_ARRAYS):
            np.save(fh, np.asarray(array, dtype=kind))


def load_model(path) -> SvmModel:
    """Read the MODEL_ARRAYS that save_model writes, checking their types and counts."""
    with open(path, "rb") as fh:
        try:  # a header claiming more than memory holds raises MemoryError at once
            arrays = [np.lib.format.read_array(fh, allow_pickle=False) for _ in MODEL_ARRAYS]
            classes, params, counts, vectors, coefs, biases = arrays
            pairs = list(itertools.combinations(range(classes.size), 2))
            if (fh.read(1) or [(a.dtype.type, a.ndim) for a in arrays] != list(MODEL_ARRAYS)
                    or not pairs or params.size != 2
                    or not counts.size == biases.size == len(pairs) or counts.min() < 0
                    or not vectors.shape[0] == coefs.size == counts.sum()
                    or not vectors.shape[1]):
                raise ValueError(f"{len(pairs)} class pairs need [C, c_offset], a count and "
                                 f"a bias each, the support vectors and coefficients the "
                                 f"counts sum to and nothing after, got "
                                 f"{[(a.dtype.name, a.shape) for a in arrays]}")
            if not all(np.isfinite(a).all() for a in arrays[1:]):
                raise ValueError("non-finite values")
            bounds = np.cumsum(counts)[:-1]
            machines = map(BinaryMachine, np.split(vectors, bounds), np.split(coefs, bounds),
                           biases.tolist())
            return SvmModel(classes.tolist(), dict(zip(pairs, machines)), *params.tolist())
        except (ValueError, MemoryError, SvmError) as exc:
            raise SvmError(f"{path}: not a vvtrack model: {exc}") from None
