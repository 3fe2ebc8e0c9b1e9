import tracemalloc

import numpy as np
import pytest

from vvtrack import svm as sv
from vvtrack.svm import (SvmError, cross_validate, gram_matrix, predict,
                         roc_curve, stratified_folds, train_svm)


# Scalar oracle of gram_matrix: one kernel value evaluated directly.
def cubic_kernel(x: np.ndarray, y: np.ndarray, c: float = 1.0) -> float:
    """Degree-3 polynomial kernel (x.y + c)^3."""
    return float((np.asarray(x, dtype=np.float64) @ np.asarray(y, dtype=np.float64)
                  + c) ** 3)


class TestCubicKernel:
    def test_hand_computed_value(self):
        x = np.array([1.0, 2.0])
        y = np.array([0.5, -1.0])
        # (0.5 - 2 + 1)^3 = (-0.5)^3
        assert cubic_kernel(x, y, c=1.0) == pytest.approx(-0.125)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            x, y = rng.random(6), rng.random(6)
            assert cubic_kernel(x, y) == pytest.approx(cubic_kernel(y, x))

    def test_gram_matches_pairwise(self):
        rng = np.random.default_rng(1)
        xs = rng.random((5, 4))
        G = gram_matrix(xs, c=0.7)
        for i in range(5):
            for j in range(5):
                assert G[i, j] == pytest.approx(cubic_kernel(xs[i], xs[j], 0.7))

    def test_gram_psd(self):
        rng = np.random.default_rng(2)
        xs = rng.random((10, 3))
        eig = np.linalg.eigvalsh(gram_matrix(xs))
        assert eig.min() > -1e-8

    def test_dimension_mismatch_errors(self):
        model = train_svm(*_two_blob_data(seed=0, n=5))
        with pytest.raises(SvmError, match=r"model takes \[2\]-bin histograms"):
            predict(model, np.zeros(3))

    def test_negative_offset_errors(self):
        # Without the check this trains a machine on a non-PSD Gram matrix.
        with pytest.raises(SvmError, match="offset must be >= 0"):
            train_svm(*_two_blob_data(seed=0, n=5), c_offset=-1.0)

    @pytest.mark.parametrize("C", [0.0, -1.0])
    def test_non_positive_C_errors(self, C):
        with pytest.raises(SvmError, match="C must be > 0"):
            train_svm(*_two_blob_data(seed=0, n=5), C=C)


def _two_blob_data(seed=0, n=30, sep=3.0):
    rng = np.random.default_rng(seed)
    a = rng.normal((0, 0), 0.5, (n, 2))
    b = rng.normal((sep, sep), 0.5, (n, 2))
    x = np.vstack([a, b])
    labels = ["a"] * n + ["b"] * n
    return x, labels


class TestTraining:
    def test_separable_blobs_perfect_on_train(self):
        x, labels = _two_blob_data(seed=3)
        model = train_svm(x, labels, C=10.0)
        pred = [predict(model, xi)[0] for xi in x]
        assert pred == labels

    def test_training_that_runs_out_of_steps_raises(self, monkeypatch):
        x, labels = _two_blob_data(seed=3)
        train_svm(x, labels, C=10.0)  # converges given its steps
        monkeypatch.setattr(sv, "MAX_STEPS", 1)
        with pytest.raises(SvmError, match="SMO did not converge within 1 steps"):
            train_svm(x, labels, C=10.0)

    def test_deterministic(self, tmp_path):
        x, labels = _two_blob_data(seed=4)
        sv.save_model(tmp_path / "m1.txt", train_svm(x, labels))
        sv.save_model(tmp_path / "m2.txt", train_svm(x, labels))
        assert (tmp_path / "m1.txt").read_bytes() == (tmp_path / "m2.txt").read_bytes()

    def test_support_vectors_subset_of_train(self):
        x, labels = _two_blob_data(seed=6)
        model = train_svm(x, labels, C=1.0)
        m = model.machines[(0, 1)]
        rows = {tuple(r) for r in x}
        assert all(tuple(r) in rows for r in m.support_vectors)
        assert np.abs(m.dual_coef).max() <= 1.0 + 1e-9  # |alpha*y| <= C

    def test_three_class_ovo(self):
        rng = np.random.default_rng(7)
        centers = [(0, 0), (4, 0), (0, 4)]
        x = np.vstack([rng.normal(c, 0.4, (20, 2)) for c in centers])
        labels = ["p"] * 20 + ["q"] * 20 + ["r"] * 20
        model = train_svm(x, labels, C=5.0)
        assert sorted(model.machines) == [(0, 1), (0, 2), (1, 2)]
        pred = [predict(model, xi)[0] for xi in x]
        acc = np.mean([p == t for p, t in zip(pred, labels)])
        assert acc >= 0.95

    def test_single_class_errors(self):
        with pytest.raises(SvmError):
            train_svm(np.zeros((4, 2)), ["a"] * 4)


def _alpha_y(machine, x):
    """alpha_t * y_t of each distinct training row (0 where it is no support vector)."""
    ay = np.zeros(len(x))
    for v, c in zip(machine.support_vectors, machine.dual_coef):
        ay[(x == v).all(axis=1)] = c
    return ay


def _overlapping_machines(seed, n=12):
    """The binary problems of an overlapping three-class set: (x, y, machine)."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(3 * n, 2)) + np.repeat(np.eye(3, 2) * 0.5, n, axis=0)
    model = train_svm(x, np.repeat(["p", "q", "r"], n), C=1.0)
    for (a, b), machine in model.machines.items():
        rows = np.r_[a * n:(a + 1) * n, b * n:(b + 1) * n]
        yield x[rows], np.repeat([1.0, -1.0], n), machine


class TestOptimality:
    def test_dual_matches_an_independent_qp_solver(self):
        from scipy.optimize import minimize
        problems = 0
        for seed in range(3):
            for x, y, machine in _overlapping_machines(seed):
                Q = np.outer(y, y) * gram_matrix(x)
                f = lambda a: 0.5 * a @ Q @ a - a.sum()
                oracle = minimize(
                    f, np.zeros(len(y)), jac=lambda a: Q @ a - 1, method="SLSQP",
                    bounds=[(0, 1.0)] * len(y), options={"ftol": 1e-12, "maxiter": 1000},
                    constraints=[{"type": "eq", "fun": lambda a: a @ y,
                                  "jac": lambda a: y}])
                assert oracle.success
                assert f(_alpha_y(machine, x) * y) == pytest.approx(oracle.fun, rel=1e-6)
                problems += 1
        assert problems == 9

    def test_training_points_meet_kkt(self):
        for seed in range(3):
            for x, y, machine in _overlapping_machines(seed):
                alpha = _alpha_y(machine, x) * y
                yf = y * (gram_matrix(x, machine.support_vectors) @ machine.dual_coef
                          + machine.bias)
                violation = np.where(alpha == 0, 1 - yf,
                                     np.where(alpha == 1.0, yf - 1, np.abs(yf - 1)))
                assert (alpha == 1.0).any() and ((0 < alpha) & (alpha < 1.0)).any()
                assert violation.max() <= sv.KKT_TOL + 1e-9

    def test_identical_points_with_opposite_labels_reach_the_box(self):
        # The dual optimum puts both at C; the decision value is then 0 everywhere.
        model = train_svm([[0.5, 0.5], [0.5, 0.5]], ["a", "b"], C=3.0)
        machine = model.machines[(0, 1)]
        assert machine.dual_coef.tolist() == [3.0, -3.0]
        assert machine.bias == 0.0

    def test_large_C_on_histograms_trains(self):
        # Objectives near 3e4 round by 1e-8 per step: the objective check must scale.
        for seed in range(40):
            rng = np.random.default_rng(seed)
            x = np.abs(rng.normal(size=(40, 3)))
            x /= x.sum(axis=1, keepdims=True)
            model = train_svm(x, ["a"] * 20 + ["b"] * 20, C=1000.0)
            assert np.abs(model.machines[(0, 1)].dual_coef).max() <= 1000.0


class TestPredict:
    def test_scores_antisymmetric_pairwise(self):
        x, labels = _two_blob_data(seed=8)
        model = train_svm(x, labels)
        s = sv._pairwise(model, x[0])[1]
        # binary case: the two class scores are exact negatives
        assert s[0] == pytest.approx(-s[1])

    def test_votes_shape(self):
        x, labels = _two_blob_data(seed=9)
        model = train_svm(x, labels)
        _, votes = predict(model, x[0])
        assert votes.shape == (2,) and votes.sum() == 1


class TestRocCurve:
    def test_perfect_separation_auc_one(self):
        scores = np.array([3.0, 2.0, 1.0, -1.0, -2.0])
        positives = np.array([True, True, True, False, False])
        points, auc = roc_curve(scores, positives)
        assert auc == pytest.approx(1.0)
        assert points[0] == (0.0, 0.0) and points[-1] == (1.0, 1.0)

    def test_reversed_scores_auc_zero(self):
        scores = np.array([1.0, 2.0, 3.0, 4.0])
        positives = np.array([True, True, False, False])
        _, auc = roc_curve(scores, positives)
        assert auc == pytest.approx(0.0)

    def test_random_auc_matches_pair_count(self):
        # AUC equals fraction of (pos, neg) pairs ranked correctly
        # (ties counted half) -- check against direct enumeration
        rng = np.random.default_rng(10)
        scores = rng.random(20)
        positives = rng.random(20) > 0.5
        _, auc = roc_curve(scores, positives)
        pos = scores[positives]
        neg = scores[~positives]
        correct = sum((p > q) + 0.5 * (p == q) for p in pos for q in neg)
        assert auc == pytest.approx(correct / (len(pos) * len(neg)))

    def test_monotone_staircase(self):
        rng = np.random.default_rng(11)
        points, _ = roc_curve(rng.random(15), rng.random(15) > 0.4)
        for (x0, y0), (x1, y1) in zip(points, points[1:]):
            assert x1 >= x0 and y1 >= y0


class TestStratifiedFolds:
    def test_class_balance_per_fold(self):
        labels = ["a"] * 10 + ["b"] * 15
        folds = stratified_folds(labels, 5)
        for f in range(5):
            idx = [i for i, k in enumerate(folds) if k == f]
            assert sum(labels[i] == "a" for i in idx) == 2
            assert sum(labels[i] == "b" for i in idx) == 3

    def test_deterministic(self):
        labels = ["a", "b"] * 10
        assert stratified_folds(labels, 4) == stratified_folds(labels, 4)

    def test_too_few_samples_errors(self):
        with pytest.raises(SvmError):
            stratified_folds(["a", "a", "b"], 2)


class TestCrossValidate:
    def test_separable_high_accuracy(self):
        x, labels = _two_blob_data(seed=12, n=20)
        report = cross_validate(x, labels, n_folds=4, C=5.0)
        assert report.accuracy >= 0.9
        assert report.confusion.sum() == len(labels)
        for cl in report.classes:
            assert report.auc[cl] >= 0.9

    def test_confusion_rows_are_true_classes(self):
        x, labels = _two_blob_data(seed=13, n=12)
        report = cross_validate(x, labels, n_folds=3)
        assert report.confusion[0].sum() == 12
        assert report.confusion[1].sum() == 12

    def test_bad_fold_count_errors(self):
        with pytest.raises(SvmError):
            cross_validate(np.zeros((4, 2)), ["a", "a", "b", "b"], n_folds=1)


def test_model_roundtrip(tmp_path):
    x, labels = _two_blob_data(seed=14, n=15)
    model = train_svm(x, labels, C=2.0, c_offset=0.5)
    sv.save_model(tmp_path / "m.txt", model)
    loaded = sv.load_model(tmp_path / "m.txt")
    assert loaded.classes == model.classes
    assert (loaded.C, loaded.c_offset) == (2.0, 0.5)
    for xi in x:
        assert predict(loaded, xi)[0] == predict(model, xi)[0]
        assert np.allclose(sv._pairwise(loaded, xi)[1], sv._pairwise(model, xi)[1])


@pytest.mark.parametrize("text, match", [
    ("garbage\n", "bad model header 'garbage'"),
    ("vvtrack-svm v1\na b\n1.0 1.0 1\n0 1 2\n", "not enough values to unpack"),
    ("vvtrack-svm v1\na b\n1.0 1.0 1\n0 1 1 2 0.0\n1.0\nnan 0.5\n", "non-finite values"),
    ("vvtrack-svm v1\na b\n1.0 1.0 1\n0 1 1 2 inf\n1.0\n0.5 0.5\n", "non-finite values"),
    ("vvtrack-svm v1\na b\n1.0 1.0 1\n0 1 1 2 0.0\n-inf\n0.5 0.5\n", "non-finite values"),
    ("vvtrack-svm v1\na b\nnan 1.0 1\n0 1 1 2 0.0\n1.0\n0.5 0.5\n", "C must be > 0, got nan"),
    ("vvtrack-svm v1\na b\n1.0 1.0 1\n0 5 1 2 0.0\n1.0\n0.5 0.5\n",
     r"machine \(0, 5\) is a repeat or not a class pair"),
    ("vvtrack-svm v1\na b\n1.0 1.0 1\n1 0 1 2 0.0\n1.0\n0.5 0.5\n",
     r"machine \(1, 0\) is a repeat or not a class pair"),
    ("vvtrack-svm v1\na b c\n1.0 1.0 0\n", "3 classes need one machine per pair, not 0"),
    ("vvtrack-svm v1\na b c\n1.0 1.0 3\n" + "0 1 1 2 0.0\n1.0\n0.5 0.5\n" * 2
     + "1 2 1 2 0.0\n1.0\n0.5 0.5\n", r"machine \(0, 1\) is a repeat or not a class pair"),
    ("vvtrack-svm v1\na\n1.0 1.0 0\n", "1 classes need one machine per pair"),
    ("vvtrack-svm v1\na b\n1.0 1.0 1\n0 1 -1 2 0.0\n\n", "has -1 vectors of size 2"),
    ("vvtrack-svm v1\na b\n1.0 1.0 1\n0 1 1 -1 0.0\n1.0\n0.5 0.5\n",
     "has 1 vectors of size -1"),
    ("vvtrack-svm v1\na b\n1.0 1.0 1\n0 1 2 2 0.0\n1.0 1.0\n0.5 0.5\n\n",
     r"support vectors need shape \(2, 2\), got \(1, 2\)"),
    ("vvtrack-svm v1\na b\n1.0 1.0 1\n0 1 0 2 0.0\n1.0\n",
     r"dual coefficients need shape \(0, 0\), got \(1, 1\)"),
    ("vvtrack-svm v1\na b\n1.0 1.0 1\n0 1 1 2 0.0\n1.0\n0.5 0.5 0.5\n",
     r"support vectors need shape \(1, 2\), got \(1, 3\)"),
    ("vvtrack-svm v1\na b\n1.0 1.0 1\n0 1 3 2 0.0\n1.0 1.0 -2.0\n0.5 0.5\n0.1 0.2\n",
     r"machine \(0, 1\): support vectors need shape \(3, 2\), got \(2, 2\)"),
    ("vvtrack-svm v1\na b\n1.0 1.0 1\n0 1 4 2 0.0\n1.0 1.0 1.0 -3.0\n0.5 0.5\n",
     r"machine \(0, 1\): support vectors need shape \(4, 2\), got \(1, 2\)"),
    ("vvtrack-svm v1\na b\n1.0 1.0 1\n0 1 2 2 0.0\n1.0\n0.5 0.5\n0.1 0.2\n",
     r"machine \(0, 1\): dual coefficients need shape \(1, 2\), got \(1, 1\)"),
], ids=["header", "short-machine-line", "nan-support-vector", "inf-bias",
        "inf-coefficient", "nan-C", "class-out-of-range", "pair-reversed",
        "no-machines", "repeated-pair", "one-class", "negative-count", "negative-size",
        "blank-support-vector-row", "coefficient-of-no-vector", "long-row",
        "missing-last-row", "count-past-the-end", "short-coefficient-line"])
def test_model_bad_header_errors(tmp_path, text, match):
    (tmp_path / "m.txt").write_text(text)
    with pytest.raises(SvmError, match=match):
        sv.load_model(tmp_path / "m.txt")


def test_load_model_refuses_content_after_the_last_machine(tmp_path):
    model = train_svm(*_two_blob_data(seed=16, n=5))
    sv.save_model(tmp_path / "m.txt", model)
    with open(tmp_path / "m.txt", "a") as fh:
        fh.write("garbage here\n")
    with pytest.raises(SvmError, match="content after the last machine"):
        sv.load_model(tmp_path / "m.txt")


def test_model_claiming_more_support_vectors_than_it_holds_is_refused_cheaply(tmp_path):
    # a machine that claims 10^9 support vectors is refused at the end of the
    # file, not after a billion reads
    (tmp_path / "m.txt").write_text("vvtrack-svm v1\na b\n1.0 1.0 1\n"
                                    "0 1 1000000000 2 0.0\n1.0\n0.5 0.5\n")
    tracemalloc.start()
    try:
        with pytest.raises(SvmError, match="malformed model"):
            sv.load_model(tmp_path / "m.txt")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_model_with_no_support_vectors_roundtrips(tmp_path):
    machine = sv.BinaryMachine(support_vectors=np.empty((0, 2)), dual_coef=np.empty(0),
                               bias=0.0)
    model = sv.SvmModel(classes=["a", "b"], machines={(0, 1): machine})
    sv.save_model(tmp_path / "m.txt", model)
    assert (tmp_path / "m.txt").read_text().endswith("\n0 1 0 2 0.0\n\n")
    loaded = sv.load_model(tmp_path / "m.txt")
    machine = loaded.machines[(0, 1)]
    assert machine.support_vectors.shape == (0, 2) and machine.dual_coef.shape == (0,)
    assert predict(loaded, [0.5, 0.5])[0] == predict(model, [0.5, 0.5])[0]


@pytest.mark.parametrize("line, match", [
    ("a a\n1.0 1.0 1", "repeated class names"),
    ("a b\n0.0 1.0 1", "C must be > 0"),
    ("a b\n-3.0 1.0 1", "C must be > 0"),
    ("a b\n1.0 -1.0 1", "kernel offset must be >= 0"),
], ids=["repeated-class", "zero-C", "negative-C", "negative-offset"])
def test_load_model_rejects_what_training_never_writes(tmp_path, line, match):
    (tmp_path / "m.txt").write_text(f"vvtrack-svm v1\n{line}\n0 1 1 2 0.0\n1.0\n0.5 0.5\n")
    with pytest.raises(SvmError, match=f"m.txt: malformed model: {match}"):
        sv.load_model(tmp_path / "m.txt")


@pytest.mark.parametrize("classes", [["red car", "bus"], ["", "bus"], [0, 1]],
                         ids=["space", "empty", "not-str"])
def test_save_model_rejects_class_names_that_do_not_read_back(tmp_path, classes):
    model = train_svm(*_two_blob_data(seed=15, n=5))
    model.classes = classes
    with pytest.raises(SvmError, match="class names"):
        sv.save_model(tmp_path / "m.txt", model)
    assert not (tmp_path / "m.txt").exists()


# ---------------------------------------------------------------------------
# Bit-identity with the per-item loops that roc_curve and cross_validate replace
# ---------------------------------------------------------------------------

def _loop_roc_curve(scores, positives):
    order = np.argsort(-scores, kind="stable")
    pos = positives[order]
    n_pos = int(pos.sum())
    n_neg = len(pos) - n_pos
    points = [(0.0, 0.0)]
    tp = fp = 0
    for p in pos:
        if p:
            tp += 1
        else:
            fp += 1
        points.append((fp / max(n_neg, 1), tp / max(n_pos, 1)))
    if points[-1] != (1.0, 1.0):
        points.append((1.0, 1.0))
    auc = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        auc += (x1 - x0) * 0.5 * (y0 + y1)
    return points, auc


def _loop_cross_validate(x, labels, n_folds):
    classes = sorted(set(labels))
    folds = stratified_folds(labels, n_folds)
    confusion = np.zeros((len(classes), len(classes)), dtype=int)
    scores, true = [], []
    for f in range(n_folds):
        train = [i for i in range(len(labels)) if folds[i] != f]
        model = train_svm(x[train], [labels[i] for i in train])
        for i in (i for i in range(len(labels)) if folds[i] == f):
            label, _ = predict(model, x[i])
            confusion[classes.index(labels[i]), classes.index(label)] += 1
            scores.append(sv._pairwise(model, x[i])[1])
            true.append(classes.index(labels[i]))
    scores, true = np.asarray(scores), np.asarray(true)
    roc = {cl: _loop_roc_curve(scores[:, ci], true == ci)
           for ci, cl in enumerate(classes)}
    return confusion, float(np.trace(confusion)) / confusion.sum(), roc


def _loop_stratified_folds(labels, n_folds):
    fold = [0] * len(labels)
    for cl in sorted(set(labels)):
        idx = [i for i, l in enumerate(labels) if l == cl]
        for pos, i in enumerate(idx):
            fold[i] = pos % n_folds
    return fold


def _three_class_data(seed, n=10):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(3 * n, 4)) + np.repeat(np.eye(3, 4) * 1.5, n, axis=0)
    return x, [cl for cl in ("p", "q", "r") for _ in range(n)]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_roc_curve_is_bit_identical_to_the_loop(seed):
    rng = np.random.default_rng(seed)
    scores = rng.integers(0, 4, 40).astype(float)  # many tied scores
    positives = rng.random(40) > 0.5
    for pos in (positives, np.ones(40, bool), np.zeros(40, bool)):
        assert roc_curve(scores, pos) == _loop_roc_curve(scores, pos)
    scores = rng.normal(size=25)
    assert roc_curve(scores, scores > 0.3) == _loop_roc_curve(scores, scores > 0.3)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stratified_folds_is_bit_identical_to_the_loop(seed):
    labels = list(np.random.default_rng(seed).choice(["p", "q", "r"], 40))
    for n_folds in (2, 3, 5):
        assert stratified_folds(labels, n_folds) == _loop_stratified_folds(labels, n_folds)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cross_validate_is_bit_identical_to_the_loop(seed, monkeypatch):
    x, labels = _three_class_data(seed)
    confusion, accuracy, roc = _loop_cross_validate(x, labels, 3)
    calls = []
    pairwise = sv._pairwise
    monkeypatch.setattr(sv, "_pairwise", lambda *a: calls.append(1) or pairwise(*a))
    report = cross_validate(x, labels, n_folds=3)
    assert len(calls) == len(labels)  # one scoring pass per held-out sample
    assert np.array_equal(report.confusion, confusion)
    assert report.accuracy == accuracy
    assert report.roc == {cl: points for cl, (points, _) in roc.items()}
    assert report.auc == {cl: auc for cl, (_, auc) in roc.items()}
