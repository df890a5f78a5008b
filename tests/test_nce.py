import math

import numpy as np
import pytest

from cate_ebm import (
    EbmModel,
    Mlp,
    TrainConfig,
    ae_fit,
    build_candidates,
    corrupt,
    kmeans_fit,
    make_rng,
    nce_loss,
    random_orthogonal,
    train_ebm,
    train_ebms,
)
from cate_ebm.dgp import gen_dgp, sample
from cate_ebm import nce
from cate_ebm.errors import (
    ConfigError,
    DimensionError,
    IllConditionedError,
    TooFewSamplesError,
    TrainingDivergedError,
)
from cate_ebm.nce import CandidateSet, _scores, _stratified_batches


def _toy_model(d=2, k=2, hidden=(3,), net_seed=3, b_seed=42, n=30):
    x = make_rng(1).standard_normal((n, d))
    net = Mlp([d, *hidden, k], rng=make_rng(net_seed))
    b = random_orthogonal(k, make_rng(b_seed))
    return EbmModel(net=net, b_matrix=b), x


def _toy_labels(model, x):
    """Each row's subset in a k-means partition of the toy's rows x."""
    return kmeans_fit(x, model.k, make_rng(2)).labels


class TestCorrupt:
    def test_tiny_rho_keeps_vector(self):
        x = np.array([1.0, 2.0, 3.0])
        out = corrupt(x, 1e-15, make_rng(0))
        assert np.array_equal(out, x)
        rows = np.arange(12.0).reshape(2, 2, 3)
        assert np.array_equal(corrupt(rows, 1e-15, make_rng(0)), rows)

    def test_continuous_standard_normal_moments(self):
        deltas = corrupt(np.full((100_000, 1), 5.0), 1.0, make_rng(2))[:, 0] - 5.0
        assert abs(deltas.mean()) < 0.02
        assert abs(deltas.var() - 1.0) < 0.02

    @pytest.mark.parametrize("rho", [math.nan, 0.0, 1.5])
    def test_rho_outside_unit_interval_rejected(self, rho):
        # a NaN rho selected no feature, and rho > 1 every feature, without a word
        with pytest.raises(ConfigError, match=r"need rho in \(0, 1\]"):
            corrupt(np.zeros((4, 2)), rho, make_rng(0))

    def test_invalid_spec(self):
        # build_candidates checks rho (through corrupt) and b for library callers,
        # as TrainConfig does
        with pytest.raises(ConfigError):
            _rows(np.zeros((2, 1)), 0.0, 1, 0)
        with pytest.raises(ConfigError):
            _rows(np.zeros((2, 1)), 0.5, 0, 0)


def _rows(x, rho, b, seed, labels=None):
    labels = np.zeros(len(x), dtype=int) if labels is None else labels
    return build_candidates(x, labels, rho, b, make_rng(seed))


class TestBuildCandidates:
    def test_no_corruption_gives_identical_candidates(self):
        cs = _rows(np.array([[1.0, -1.0], [2.0, 0.5]]), 1e-15, 3, 4)
        assert np.abs(cs.values - cs.values[:, :1]).max() == 0.0

    def test_candidate_count(self):
        cs = _rows(np.zeros((3, 2)), 0.5, 3, 5, labels=np.array([1, 0, 1]))
        assert cs.values.shape == (3, 4, 2)
        assert cs.subset.tolist() == [1, 0, 1]
        assert len(cs) == 3 and len(cs[1:]) == 2 and cs[1:].subset.tolist() == [0, 1]

    def test_clean_row_in_slot_0(self):
        x = make_rng(6).standard_normal((50, 3))
        cs = _rows(x, 1.0, 4, 7)
        assert np.array_equal(cs.values[:, 0], x)
        # at rho = 1 every feature of every decoy is moved
        assert not np.any(np.all(cs.values[:, 1:] == x[:, None, :], axis=2))

    def test_beyond_index_range_rejected(self):
        # 96 * (1e17 + 1) * 8 entries: numpy's "iterator is too large"; nothing is allocated
        with pytest.raises(ConfigError, match="exceed numpy's index range"):
            _rows(np.zeros((96, 8)), 0.5, 10**17, 8)


def _reference_build_candidates(rows, labels, rho, b, rng):
    """build_candidates with the corruption written as x + selected * noise:
    corrupt every copy, then stack the clean row in front."""
    rows = np.asarray(rows, dtype=float)
    m, d = rows.shape
    x = np.broadcast_to(rows[:, None, :], (m, b, d))
    selected = rng.random(x.shape) < rho
    corrupted = x + selected * rng.standard_normal(x.shape)
    return CandidateSet(values=np.concatenate([rows[:, None, :], corrupted], axis=1),
                        subset=np.asarray(labels, dtype=int))


_SPECS = {"continuous": (0.4, 5), "b1-every-cell": (1.0, 1)}  # (rho, b)


class TestBuildCandidatesMatchesReference:
    @pytest.mark.parametrize("spec", list(_SPECS), ids=list(_SPECS))
    @pytest.mark.parametrize("seed", range(5))
    def test_same_sets_and_stream(self, spec, seed):
        spec = _SPECS[spec]
        x = make_rng(100 + seed).standard_normal((37, 5))
        labels = make_rng(200 + seed).integers(0, 3, size=37)
        rng, ref_rng = make_rng(seed), make_rng(seed)
        got = build_candidates(x, labels, *spec, rng)
        ref = _reference_build_candidates(x, labels, *spec, ref_rng)
        assert np.array_equal(got.values, ref.values)
        assert np.array_equal(got.subset, ref.subset)
        assert rng.random() == ref_rng.random()  # same number of draws


def _reference_stratified_batches(labels, batch_size, rng):
    """Per-element list form: each batch grows by list.extend, then sorts."""
    n_batches = max(1, -(-len(labels) // batch_size))
    batches = [[] for _ in range(n_batches)]
    for j in np.unique(labels):
        members = np.flatnonzero(labels == j)
        members = members[rng.permutation(len(members))]
        per = -(-len(members) // n_batches)
        for t in range(n_batches):
            batches[t].extend(members[t * per : (t + 1) * per])
    return [np.sort(b) for b in batches if b]


@pytest.mark.parametrize("seed", range(6))
def test_stratified_batches_match_reference(seed):
    r = make_rng(300 + seed)
    labels = r.integers(0, int(r.integers(1, 6)), size=int(r.integers(1, 300)))
    batch_size = int(r.integers(1, 80))
    got = _stratified_batches(labels, batch_size, make_rng(seed))
    ref = _reference_stratified_batches(labels, batch_size, make_rng(seed))
    assert len(got) == len(ref)
    for a, b in zip(got, ref):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_stratified_batches_drop_empty_batches():
    # two subsets of 5 in 4 batches: 2 + 2 + 1 + 0 rows of each, so the
    # fourth batch is empty and left out
    labels = np.repeat([0, 1], 5)
    got = _stratified_batches(labels, 3, make_rng(0))
    ref = _reference_stratified_batches(labels, 3, make_rng(0))
    assert [len(b) for b in got] == [len(b) for b in ref] == [4, 4, 2]
    assert all(np.array_equal(a, b) for a, b in zip(got, ref))


class TestSubsetLabels:
    """A subset label must be an integer in [0, k): B has one column per subset."""

    def test_fractional_label_rejected(self):
        with pytest.raises(DimensionError):
            _rows(np.zeros((3, 2)), 0.5, 1, 0, labels=np.array([0.0, 0.7, 1.0]))
        with pytest.raises(DimensionError):
            _rows(np.zeros((3, 2)), 0.5, 1, 0, labels=np.array([0.0, np.nan, 1.0]))

    def test_integral_floats_and_length(self):
        cs = _rows(np.zeros((3, 2)), 0.5, 1, 0, labels=np.array([1.0, 0.0, 1.0]))
        assert cs.subset.dtype.kind == "i" and cs.subset.tolist() == [1, 0, 1]
        with pytest.raises(DimensionError):
            _rows(np.zeros((3, 2)), 0.5, 1, 0, labels=np.array([1, 0]))

    @pytest.mark.parametrize("label", [-1, 2])
    def test_label_outside_k_rejected(self, label):
        model, x = _toy_model(k=2)
        labels = _toy_labels(model, x)[:6]
        labels[3] = label
        batch = _rows(x[:6], 0.5, 2, 0, labels=labels)
        with pytest.raises(DimensionError):
            nce_loss(model, batch)
        with pytest.raises(DimensionError):
            nce_loss(model, batch, with_grads=False)


def _posterior(model, batch):
    """Softmax over each set's candidate scores, max-subtracted for overflow
    safety; one row of probabilities per set. Reference for nce_loss."""
    s = _scores(model, model.net.forward(batch.values.reshape(-1, model.d)), batch.subset)
    e = np.exp(s - s.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


class TestPosterior:
    def test_zero_net_uniform(self):
        model, x = _toy_model()
        model.net = Mlp(model.net.widths)
        p = _posterior(model, _rows(x, 0.5, 3, 6))
        assert p.shape == (x.shape[0], 4)
        assert np.abs(p - 0.25).max() < 1e-15

    def test_two_class_softmax_identity(self):
        # scores (s, s + ln 3) must give probabilities (0.25, 0.75)
        net = Mlp([1, 1])
        net.params[0][...] = 1.0
        model = EbmModel(net=net, b_matrix=np.array([[1.0]]))
        s = 0.7
        cs = CandidateSet(values=np.array([[[s], [s + math.log(3.0)]]]), subset=np.array([0]))
        p = _posterior(model, cs)
        assert np.abs(p[0] - np.array([0.25, 0.75])).max() < 1e-12

    def test_matches_high_precision_oracle(self):
        model, x = _toy_model(net_seed=11)
        cs = _rows(x[:8], 0.5, 2, 11, labels=_toy_labels(model, x)[:8])
        p = _posterior(model, cs)
        for i in range(8):
            # per candidate: B column of its subset against the net output
            scores = np.array([model.b_matrix[:, cs.subset[i]] @ model.net.forward(v[None])[0]
                               for v in cs.values[i]], dtype=np.longdouble)
            exps = np.exp(scores - scores.max())
            oracle = (exps / exps.sum()).astype(float)
            assert np.abs(p[i] - oracle).max() < 1e-12

    def test_sums_to_one_and_permutation_equivariant(self):
        model, x = _toy_model(net_seed=13)
        cs = _rows(x[:10], 0.5, 4, 0)
        p = _posterior(model, cs)
        assert np.abs(p.sum(axis=1) - 1.0).max() <= 1e-12
        perm = np.stack([make_rng(seed + 50).permutation(5) for seed in range(10)])
        cs2 = CandidateSet(values=np.take_along_axis(cs.values, perm[:, :, None], axis=1),
                           subset=cs.subset)
        assert np.abs(_posterior(model, cs2) - np.take_along_axis(p, perm, axis=1)).max() < 1e-14


def _batch(model, x, rho, b, seed=13):
    return build_candidates(x, _toy_labels(model, x), rho, b, make_rng(seed))


class TestNceLoss:
    def test_zero_net_chance_level(self):
        model, x = _toy_model()
        model.net = Mlp(model.net.widths)
        loss = nce_loss(model, _batch(model, x, 0.5, 3), with_grads=False)
        assert abs(loss - math.log(4.0)) <= 1e-12

    def test_perfect_separator_loss_vanishes(self):
        net = Mlp([1, 1])
        net.params[0][...] = 1.0
        model = EbmModel(net=net, b_matrix=np.array([[1.0]]))
        # true candidate leads every decoy by a score gap of 50
        cs = CandidateSet(values=np.array([[[50.0], [0.0], [0.0]]]), subset=np.array([0]))
        loss = nce_loss(model, cs, with_grads=False)
        assert loss < 1e-20

    def test_gradient_matches_finite_differences(self):
        model, x = _toy_model(net_seed=3, n=32)
        batch = _batch(model, x, 0.5, 2, seed=13)

        def loss_fn(theta):
            return nce_loss(model, batch)

        from cate_ebm import grad_check
        assert grad_check(loss_fn, model.net.flat, h=1e-4) < 1e-4

    def test_subset_weighting_matches_hand_formula(self):
        model, x = _toy_model(net_seed=17, n=20)
        batch = _batch(model, x, 0.5, 2, seed=29)
        loss = nce_loss(model, batch, with_grads=False)
        # independent recomputation straight from per-set posteriors
        per_subset = {}
        for i in range(len(batch)):
            p = _posterior(model, batch[i : i + 1])[0]
            per_subset.setdefault(batch.subset[i], []).append(math.log(p[0]))
        expected = -np.mean([np.mean(v) for _, v in sorted(per_subset.items())])
        assert abs(loss - expected) < 1e-10

    def test_batched_matches_per_row_reference(self):
        """One forward/backward over a mixed-subset batch equals the sum of
        per-set terms, each with its own forward, backward and weight."""
        x = make_rng(41).standard_normal((90, 4))
        model = EbmModel(net=Mlp([4, 7, 5, 3], rng=make_rng(43)),
                         b_matrix=random_orthogonal(3, make_rng(44)))
        labels = np.repeat([2, 0, 1], [5, 12, 23])  # unequal subset sizes
        batch = build_candidates(x[:40], labels, 0.5, 3, make_rng(45))
        loss, grad = nce_loss(model, batch)

        sizes = {j: int(np.sum(labels == j)) for j in range(3)}
        ref_loss = 0.0
        ref_grad = np.zeros_like(model.net.flat)
        for i in range(len(batch)):
            j = int(batch.subset[i])
            weight = 1.0 / (sizes[j] * len(sizes))
            p = _posterior(model, batch[i : i + 1])[0]
            ref_loss -= weight * math.log(p[0])
            dscores = p.copy()
            dscores[0] -= 1.0
            _, cache = model.net.forward_cache(batch.values[i])
            g, _ = model.net.backward(cache, weight * np.outer(dscores, model.b_matrix[:, j]))
            ref_grad += g
        assert abs(loss - ref_loss) < 1e-12
        assert np.abs(grad - ref_grad).max() < 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_clean_slot_does_not_matter(self, seed):
        """Why the candidates need no shuffle: with the clean candidate moved
        to a random slot of each set and -log softmax read at that slot, the
        loss and gradient are nce_loss's up to round-off."""
        x = make_rng(60 + seed).standard_normal((30, 4))
        model = EbmModel(net=Mlp([4, 6, 3], rng=make_rng(61 + seed)),
                         b_matrix=random_orthogonal(3, make_rng(62 + seed)))
        labels = kmeans_fit(x, 3, make_rng(63 + seed)).labels
        batch = build_candidates(x, labels, 0.5, 4, make_rng(64 + seed))
        loss, grad = nce_loss(model, batch)

        counts = np.bincount(batch.subset)
        slots = make_rng(65 + seed).integers(0, 5, size=len(batch))
        ref_loss = 0.0
        ref_grad = np.zeros_like(model.net.flat)
        for i, t in enumerate(slots):
            j = int(batch.subset[i])
            weight = 1.0 / (counts[j] * np.count_nonzero(counts))
            values = np.roll(batch.values[i], t, axis=0)  # the clean row now sits in slot t
            out, cache = model.net.forward_cache(values)
            s = out @ model.b_matrix[:, j]
            p = np.exp(s - s.max())
            p /= p.sum()
            ref_loss -= weight * math.log(p[t])
            p[t] -= 1.0
            g, _ = model.net.backward(cache, weight * np.outer(p, model.b_matrix[:, j]))
            ref_grad += g
        assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
        assert np.abs(grad - ref_grad).max() <= 1e-12 * np.abs(ref_grad).max()

    def test_absent_subset_not_counted(self):
        """Only the subsets present in a batch share the average: with labels
        {0, 2} out of k=3, each set weighs 1 / (m_j * 2)."""
        x = make_rng(51).standard_normal((40, 3))
        model = EbmModel(net=Mlp([3, 6, 3], rng=make_rng(52)),
                         b_matrix=random_orthogonal(3, make_rng(53)))
        batch = build_candidates(x, np.repeat([2, 0], [9, 31]), 0.5, 2, make_rng(55))
        p = _posterior(model, batch)
        logp = np.log(p[:, 0])
        expected = -(logp[:9].mean() + logp[9:].mean()) / 2.0
        assert abs(nce_loss(model, batch, with_grads=False) - expected) < 1e-12

    def test_empty_batch_rejected(self):
        model, x = _toy_model()
        with pytest.raises(ValueError):
            nce_loss(model, _batch(model, x, 0.5, 1)[:0])


class TestTrainEbm:
    def test_zero_epochs_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(k=2, epochs=0)

    @pytest.mark.parametrize("kwargs", [
        dict(k=0), dict(b=0), dict(rho=0.0), dict(rho=1.5), dict(rho=math.nan), dict(epochs=0),
        dict(batch_size=0), dict(lr=0.0), dict(lr=-1.0), dict(lr=math.nan), dict(lr=math.inf),
        dict(seed=-1), dict(init_seed=-1), dict(hidden=(0,)), dict(hidden=(8, -1)),
        dict(patience=0), dict(patience=-1),
    ])
    def test_invalid_settings_rejected(self, kwargs):
        # TrainConfig checks its fields; the trainer checks the init seed
        kwargs = {"k": 2, **kwargs}
        init_seed = kwargs.pop("init_seed", None)
        with pytest.raises(ConfigError):
            train_ebm(make_rng(0).standard_normal((40, 3)), TrainConfig(**kwargs),
                      init_seed=init_seed)

    def test_too_few_samples(self):
        cfg = TrainConfig(k=4, epochs=1)
        with pytest.raises(TooFewSamplesError):
            train_ebm(make_rng(0).standard_normal((6, 3)), cfg)

    def test_more_subsets_than_covariates_rejected(self):
        # as ae_fit and pca_fit do: a k-dimensional representation of d < k covariates
        with pytest.raises(DimensionError, match=r"^k=3 > d=2$"):
            train_ebm(make_rng(0).standard_normal((40, 2)), TrainConfig(k=3, epochs=1))

    def test_split_leaves_no_training_row(self):
        # the one row is held out (at least one always is); the AE has no 2k-row floor
        with pytest.raises(TooFewSamplesError, match="leaves none to train on"):
            ae_fit(make_rng(0).standard_normal((1, 3)), TrainConfig(k=1, epochs=1), [0])

    @pytest.mark.parametrize("scale, trains", [(1e15, True), (1e16, False)])
    def test_covariates_beyond_the_noise_rejected(self, scale, trains):
        # at |x| >= 2**52 N(0, 1) corruption cannot move a value in float64
        x = make_rng(0).standard_normal((60, 3))
        x[:, 0] *= scale
        cfg = TrainConfig(k=2, b=2, hidden=(4,), epochs=3)
        if trains:
            assert len(train_ebms(x, cfg, [1])[0].history) == 3
        else:
            with pytest.raises(IllConditionedError, match="scale the covariates"):
                train_ebms(x, cfg, [1])

    def test_beats_chance_on_synthetic(self):
        dgp = gen_dgp(21, d=10)
        ds = sample(dgp, 1000, 22)
        cfg = TrainConfig(k=3, b=4, epochs=40, hidden=(16, 16), seed=21, lr=3e-3)
        model = train_ebm(ds.x, cfg)
        assert model.best_val_loss < math.log(cfg.b + 1)

    def test_deterministic_model_files(self, tmp_path):
        from cate_ebm import save_model
        x = make_rng(31).standard_normal((80, 5))
        cfg = TrainConfig(k=2, b=3, epochs=8, hidden=(8,), seed=31)
        p1 = tmp_path / "a.preb"
        p2 = tmp_path / "b.preb"
        save_model(train_ebm(x, cfg), p1)
        save_model(train_ebm(x, cfg), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_best_epoch_restored(self):
        """Early stopping keeps the best epoch's parameters: retraining for
        exactly best_epoch + 1 epochs ends on the same network."""
        x = sample(gen_dgp(0, d=5), 200, 1).x
        cfg = TrainConfig(k=2, b=3, hidden=(8, 8), epochs=60, patience=5, seed=3)
        stopped = train_ebm(x, cfg)
        assert (len(stopped.history), stopped.best_epoch) == (14, 8)
        again = train_ebm(x, TrainConfig(k=2, b=3, hidden=(8, 8), epochs=9,
                                          patience=5, seed=3))
        assert again.best_epoch == 8
        assert np.array_equal(stopped.net.flat, again.net.flat)
        assert all(np.array_equal(p, q) for p, q in zip(stopped.net.params, again.net.params))
        assert np.array_equal(stopped.repr_mean, again.repr_mean)
        assert np.array_equal(stopped.repr_std, again.repr_std)

    def test_records_history(self):
        x = make_rng(33).standard_normal((60, 4))
        cfg = TrainConfig(k=2, b=2, epochs=5, hidden=(6,), seed=33)
        model = train_ebm(x, cfg)
        assert len(model.history) == 5
        assert all(len(row) == 3 for row in model.history)

    def test_fingerprint_tracks_b(self):
        x = make_rng(35).standard_normal((60, 4))
        b = random_orthogonal(2, make_rng(77))
        cfg1 = TrainConfig(k=2, b=2, epochs=3, hidden=(6,), seed=1)
        cfg2 = TrainConfig(k=2, b=2, epochs=3, hidden=(6,), seed=2)
        m1 = train_ebm(x, cfg1, b_matrix=b)
        m2 = train_ebm(x, cfg2, b_matrix=b)
        # mcc compares models by d and B: a given B is kept exactly, a drawn one
        # follows config.seed
        assert m1.d == m2.d == 4
        assert np.array_equal(m1.b_matrix, b) and np.array_equal(m2.b_matrix, b)
        drawn1, drawn2 = train_ebm(x, cfg1), train_ebm(x, cfg2)
        assert np.array_equal(drawn1.b_matrix, train_ebm(x, cfg1, init_seed=9).b_matrix)
        assert not np.array_equal(drawn1.b_matrix, drawn2.b_matrix)


class TestTrainEbms:
    X = sample(gen_dgp(0, d=5), 200, 1).x
    CFG = TrainConfig(k=2, b=3, hidden=(8, 8), epochs=20, patience=5, seed=3)
    SEEDS = [4, 3, 5, 6]

    @staticmethod
    def _assert_same(model, want):
        assert np.array_equal(model.net.flat, want.net.flat)
        assert np.array_equal(np.array(model.history), np.array(want.history))
        assert model.best_epoch == want.best_epoch
        assert model.best_val_loss == want.best_val_loss
        assert np.array_equal(model.repr_mean, want.repr_mean)
        assert np.array_equal(model.repr_std, want.repr_std)

    def test_matches_separate_trainings(self):
        b = random_orthogonal(2, make_rng(42))
        models = train_ebms(self.X, self.CFG, self.SEEDS, b_matrix=b)
        # patience 5 freezes three runs at different epochs; one runs to the cap
        assert [len(m.history) for m in models] == [15, 13, 20, 12]
        for seed, model in zip(self.SEEDS, models):
            want = train_ebm(self.X, self.CFG, b_matrix=b, init_seed=seed)
            self._assert_same(model, want)

    def test_one_seed_is_train_ebm(self):
        (model,) = train_ebms(self.X, self.CFG, [self.CFG.seed + 1])
        self._assert_same(model, train_ebm(self.X, self.CFG))

    @pytest.mark.parametrize("seeds", [[], [4, -1]])
    def test_bad_seed_lists_rejected(self, seeds):
        with pytest.raises(ConfigError):
            train_ebms(self.X, self.CFG, seeds)

    def test_divergence_names_the_run(self, monkeypatch):
        made = []

        def mlp(widths, rng=None):
            net = Mlp(widths, rng=rng)
            made.append(net)
            if len(made) == 2:  # the second run's net, init seed 3
                net.flat[:] = np.nan
            return net

        monkeypatch.setattr(nce, "Mlp", mlp)
        with pytest.raises(TrainingDivergedError,
                           match=r"^run with init seed 3 diverged at epoch 0: non-finite"):
            train_ebms(self.X, self.CFG, self.SEEDS)


@pytest.mark.slow
def test_validation_loss_non_increasing_in_n():
    """Desk-scale consistency trend: best validation loss should not get
    worse as the sample size grows, averaged over seeds."""
    sizes = (200, 500, 2000)
    means = []
    for n in sizes:
        vals = []
        for seed in range(5):
            dgp = gen_dgp(100 + seed, d=10)
            ds = sample(dgp, n, 200 + seed)
            cfg = TrainConfig(k=3, b=4, epochs=60, hidden=(16, 16),
                              seed=300 + seed, lr=3e-3)
            vals.append(train_ebm(ds.x, cfg).best_val_loss)
        means.append(np.mean(vals))
    assert means[1] <= means[0] + 1e-9 or means[2] <= means[1] + 1e-9
    assert means[2] <= means[0] + 1e-9
