"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line for its criterion (visible with
pytest -s or in captured output on failure) and then asserts it.
"""

import dataclasses
import itertools
import math
import os

import numpy as np
import pytest

from cate_ebm import (
    BaseSpec,
    Dataset,
    EbmModel,
    Mlp,
    TrainConfig,
    ae_fit,
    build_candidates,
    dr_pseudo_outcome,
    effect_predictions,
    fit_learner,
    gen_dgp,
    grad_check,
    kmeans_fit,
    make_rng,
    mcc,
    nce_loss,
    pehe,
    random_orthogonal,
    sample,
    train_ebm,
    train_ebms,
)
from cate_ebm.cate import fit_base
from cate_ebm.cli import main as cli_main

pytestmark = pytest.mark.acceptance


def _report(num, name, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name}")
    assert ok, f"criterion {num} ({name}) failed"


# ---------------------------------------------------------------------------

def test_criterion_01_orthogonality():
    worst = 0.0
    for k in range(1, 17):
        for seed in range(20):
            b = random_orthogonal(k, make_rng(seed))
            worst = max(worst, float(np.abs(b @ b.T - np.eye(k)).max()))
    _report(1, f"random matrix orthogonality (worst {worst:.2e})", worst <= 1e-8)


def test_criterion_02_nce_gradient():
    x = make_rng(1).standard_normal((32, 2))
    part = kmeans_fit(x, 2, make_rng(2))
    net = Mlp([2, 3, 2], rng=make_rng(3))
    b = random_orthogonal(2, make_rng(42))
    model = EbmModel(net=net, b_matrix=b)
    labels = part.assign(x)
    rng = make_rng(13)
    batch = build_candidates(x, labels, 0.5, 2, rng)

    def loss_fn(theta):
        return nce_loss(model, batch)

    err = grad_check(loss_fn, model.net.flat, h=1e-4)
    _report(2, f"ranking-loss gradient vs finite differences (rel {err:.2e})",
            err < 1e-4)


def test_criterion_03_chance_level():
    x = make_rng(1).standard_normal((40, 3))
    part = kmeans_fit(x, 2, make_rng(2))
    bmat = random_orthogonal(2, make_rng(42))
    worst = 0.0
    for b in (1, 3, 10):
        model = EbmModel(net=Mlp([3, 4, 2]), b_matrix=bmat)
        labels = part.assign(x)
        rng = make_rng(b)
        batch = build_candidates(x, labels, 0.5, b, rng)
        loss = nce_loss(model, batch, with_grads=False)
        worst = max(worst, abs(loss - math.log(b + 1)))
    _report(3, f"zero-parameter loss equals ln(b+1) (worst dev {worst:.1e})",
            worst <= 1e-12)


def test_criterion_04_bias_shift_invariance():
    dgp = gen_dgp(41, d=20)
    train = sample(dgp, 500, 42)
    test = sample(dgp, 200, 43)
    cfg = TrainConfig(k=3, b=5, rho=0.5, hidden=(20, 20), epochs=30, seed=41)
    model = train_ebm(train.x, cfg)

    shifted_net = model.net.copy()
    shifted_net.params[-1] += np.array([3.0, -1.5, 0.25])
    raw = shifted_net.forward(train.x)
    shifted = EbmModel(net=shifted_net, b_matrix=model.b_matrix,
                       repr_mean=raw.mean(axis=0), repr_std=raw.std(axis=0))

    z1_tr, z1_te = model.represent(train.x), model.represent(test.x)
    z2_tr, z2_te = shifted.represent(train.x), shifted.represent(test.x)
    rep_gap = max(np.abs(z1_tr - z2_tr).max(), np.abs(z1_te - z2_te).max())

    spec = BaseSpec(kind="kernel", cv=True)
    tau_gap = 0.0
    for kind in ("t", "x", "dr", "r"):
        m1 = fit_learner(kind, Dataset(x=z1_tr, a=train.a, y=train.y), spec)
        m2 = fit_learner(kind, Dataset(x=z2_tr, a=train.a, y=train.y), spec)
        tau_gap = max(tau_gap, float(np.abs(m1.predict(z1_te) - m2.predict(z2_te)).max()))
    _report(4, f"bias-shift invariance (repr gap {rep_gap:.1e}, tau gap {tau_gap:.1e})",
            rep_gap <= 1e-10 and tau_gap <= 1e-8)


def _mean_mcc(n, data_seed, cfg, b_matrix, n_init=5):
    dgp = gen_dgp(data_seed, d=20)
    train = sample(dgp, n, data_seed + 1)
    test = sample(dgp, 2000, data_seed + 2)
    models = train_ebms(train.x, cfg, [1000 + i for i in range(n_init)], b_matrix=b_matrix)
    reps = [m.represent(test.x) for m in models]
    return float(np.mean([mcc(a, b) for a, b in itertools.combinations(reps, 2)]))


@pytest.mark.slow  # statistical: trains many models
def test_criterion_05_identifiability_trend():
    cfg = TrainConfig(k=3, b=5, rho=0.5, hidden=(64, 64), epochs=300,
                      lr=1e-3, batch_size=64, seed=0, patience=60)
    b = random_orthogonal(3, make_rng(42))
    big, small = [], []
    for data_seed in (11, 12, 13):
        big.append(_mean_mcc(2000, data_seed, cfg, b))
        small.append(_mean_mcc(200, data_seed, cfg, b))
    m_big, m_small = float(np.mean(big)), float(np.mean(small))
    _report(5, f"representation agreement grows with n "
               f"(mcc n=2000: {m_big:.3f}, n=200: {m_small:.3f})",
            m_big >= 0.9 and m_big > m_small)


@pytest.mark.slow  # statistical: trains many models
def test_criterion_06_pehe_ordering():
    cfg = TrainConfig(k=4, b=10, rho=0.5, hidden=(20, 20, 20), epochs=300,
                      lr=3e-3, batch_size=64, patience=80)
    spec = BaseSpec(kind="ridge", cv=True)
    b = random_orthogonal(4, make_rng(42))
    vals = {"t": {"raw": [], "ebm": []}, "r": {"raw": [], "ebm": []}}
    for run in range(10):
        dgp = gen_dgp(500 + run, d=100)
        train = sample(dgp, 250, 600 + run)
        test = sample(dgp, 1000, 700 + run)
        c = dataclasses.replace(cfg, seed=run)
        model = train_ebm(train.x, c, b_matrix=b, init_seed=run)
        features = {"raw": [(train.x, test.x)],
                    "ebm": [(model.represent(train.x), model.represent(test.x))]}
        for name, [run] in effect_predictions(features, train, ("t", "r"), spec).items():
            for kind, tau_hat in run.items():
                vals[kind][name].append(pehe(tau_hat, test.tau))
    means = {k: (float(np.mean(v["ebm"])), float(np.mean(v["raw"])))
             for k, v in vals.items()}
    ok = all(ebm < raw for ebm, raw in means.values())
    _report(6, "reduced representations beat raw covariates on effect risk "
               f"(T: {means['t'][0]:.3f} vs {means['t'][1]:.3f}; "
               f"R: {means['r'][0]:.3f} vs {means['r'][1]:.3f})", ok)


@pytest.mark.slow  # statistical: trains many models
def test_criterion_07_cate_variance_ordering():
    dgp = gen_dgp(900, d=20)
    train = sample(dgp, 2000, 901)
    test = sample(dgp, 500, 902)
    cfg = TrainConfig(k=3, b=5, rho=0.5, hidden=(64, 64), epochs=300,
                      lr=1e-3, batch_size=64, seed=900, patience=60)
    spec = BaseSpec(kind="kernel", cv=False, lam=1e-2)
    b = random_orthogonal(3, make_rng(42))
    seeds = [1000 * r for r in range(10)]

    def spread(encoders):
        # mean over test rows of the std across runs of each row's R estimate
        reps = [(enc.represent(train.x), enc.represent(test.x)) for enc in encoders]
        runs = effect_predictions({"runs": reps}, train, ("r",), spec)["runs"]
        return float(np.stack([run["r"] for run in runs]).std(axis=0).mean())

    ebm_std = spread(train_ebms(train.x, cfg, seeds, b_matrix=b))
    ae_std = spread(ae_fit(train.x, cfg, seeds))
    _report(7, f"R-learner estimate spread (ebm {ebm_std:.4f} < ae {ae_std:.4f})",
            ebm_std < ae_std)


def _project_simplex(v):
    """Euclidean projection of each row onto the probability simplex (sort-based)."""
    u = np.sort(v, axis=-1)[..., ::-1]
    css = np.cumsum(u, axis=-1)
    positive = u + (1.0 - css) / np.arange(1, v.shape[-1] + 1) > 0
    rho = v.shape[-1] - 1 - np.argmax(positive[..., ::-1], axis=-1)  # last positive index
    theta = (1.0 - np.take_along_axis(css, rho[..., None], axis=-1)) / (rho[..., None] + 1)
    return np.maximum(v + theta, 0.0)


def test_criterion_08_weighted_log_maximizer():
    # one row per seed; the projection acts on each row alone
    w = np.empty((10, 4))
    for seed in range(10):
        w[seed] = make_rng(seed).gamma(2.0, size=4)
        w[seed] /= w[seed].sum()
    wt = np.full((10, 4), 0.25)
    # constant small step keeps the iterate interior; a large step lets a
    # coordinate hit the boundary where the gradient w/wt blows up
    for _ in range(100_000):
        wt = _project_simplex(wt + 1e-3 * w / np.maximum(wt, 1e-9))
    worst = float(np.abs(wt - w).max())
    _report(8, f"simplex-constrained weighted log score peaks at the weights "
               f"(worst gap {worst:.1e})", worst <= 1e-4)


def test_project_simplex_rows_match_one_row_reference():
    """The row-wise projection equals the one-vector form, bit for bit."""
    def one_row(v):
        u = np.sort(v)[::-1]
        css = np.cumsum(u)
        rho = np.nonzero(u + (1.0 - css) / np.arange(1, len(v) + 1) > 0)[0][-1]
        return np.maximum(v + (1.0 - css[rho]) / (rho + 1), 0.0)

    scale = np.repeat([0.1, 1.0, 10.0, 100.0], 50)[:, None]  # interior to mostly clipped
    v = make_rng(8).standard_normal((200, 4)) * scale
    assert np.array_equal(_project_simplex(v), np.array([one_row(row) for row in v]))


def _linear_dgp_sample(n, seed):
    rng = make_rng(seed)
    x = rng.standard_normal((n, 5))
    w0 = np.array([1.0, -1.0, 0.5, 0.0, 0.25])
    w1 = np.array([0.5, 0.5, -0.5, 1.0, 0.0])
    mu0 = x @ w0
    mu1 = x @ w1 + 1.0
    pi = 1.0 / (1.0 + np.exp(-(x @ np.array([0.8, 0.0, -0.4, 0.2, 0.0]))))
    a = (rng.random(n) < pi).astype(int)
    y = a * mu1 + (1 - a) * mu0 + rng.standard_normal(n)
    ds = Dataset(x=x, a=a, y=y)
    return ds, mu0, mu1, pi, mu1 - mu0


def test_criterion_09_dr_consistency():
    spec = BaseSpec(kind="ridge", lam=1e-3, cv=False)
    risks = {}
    for n in (500, 4000):
        vals = []
        for seed in range(5):
            ds, mu0, mu1, pi, tau = _linear_dgp_sample(n, 80 + seed)
            test_x = make_rng(90 + seed).standard_normal((1000, 5))
            test_tau = test_x @ (np.array([0.5, 0.5, -0.5, 1.0, 0.0])
                                 - np.array([1.0, -1.0, 0.5, 0.0, 0.25])) + 1.0
            phi = dr_pseudo_outcome(ds.a, ds.y, mu0, mu1, pi)
            final = fit_base(ds.x, phi, spec)
            vals.append(pehe(final.predict(test_x), test_tau))
        risks[n] = float(np.mean(vals))
    _report(9, f"doubly robust risk shrinks with n "
               f"(n=4000: {risks[4000]:.4f} < n=500: {risks[500]:.4f})",
            risks[4000] < risks[500])


def test_criterion_10_kmeans_oracle():
    import itertools as it
    pts = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
    best_cost = np.inf
    best_labels = None
    for labels in it.product([0, 1], repeat=4):
        labels = np.array(labels)
        if labels.min() == labels.max():
            continue
        cost = sum(((pts[labels == j] - pts[labels == j].mean(axis=0)) ** 2).sum()
                   for j in (0, 1))
        if cost < best_cost:
            best_cost, best_labels = cost, labels
    model = kmeans_fit(pts, 2, make_rng(3))
    got = model.assign(pts)
    exact = (np.array_equal(got, best_labels)
             or np.array_equal(got, 1 - best_labels))
    monotone = True
    for seed in range(10):
        x = make_rng(seed).standard_normal((100, 4))
        hist = kmeans_fit(x, 3, make_rng(seed + 50)).history
        monotone &= all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))
    _report(10, "clustering fixture optimal and inertia monotone",
            exact and monotone)


def test_criterion_11_pipeline_determinism(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(
        "[dgp]\nd = 20\nn = 300\nseed = 7\ntest_size = 150\n"
        "[ebm]\nk = 3\nb = 5\nrho = 0.5\nhidden = 20,20\nepochs = 10\n"
        "[learners]\nkinds = t,r\nbase = kernel\n"
        "[eval]\nruns = 2\n"
        f"[io]\nout_dir = {tmp_path / 'results'}\n"
    )
    assert cli_main(["pipeline", "--config", str(cfg)]) == 0
    exp_dir = next((tmp_path / "results").iterdir())
    before = {p.name: p.read_bytes() for p in exp_dir.iterdir()}
    assert cli_main(["pipeline", "--config", str(cfg)]) == 0
    after = {p.name: p.read_bytes() for p in exp_dir.iterdir()}
    identical = before == after and len(before) > 0
    _report(11, f"pipeline rerun byte-identical ({len(before)} artifacts)",
            identical)
