import numpy as np
import pytest

from cate_ebm import (
    Adam,
    BaseSpec,
    CandidateSet,
    Dataset,
    EbmModel,
    Encoder,
    KernelRidge,
    Mlp,
    Ridge,
    build_candidates,
    dr_pseudo_outcome,
    fit_learner,
    gen_dgp,
    grad_check,
    kmeans_fit,
    make_rng,
    mcc,
    median_gamma,
    nce_loss,
    pca_fit,
    propensity_fit,
    random_orthogonal,
    sample,
)
from cate_ebm import cate, numerics
from cate_ebm.errors import (CateEbmError, ConfigError, DegenerateColumnError, DimensionError,
                             TooFewSamplesError, TrainingDivergedError, UntrainedModelError)


def _one_line_sq_dists(xa, xb):
    """sq_dists without row blocks: the norm sums in one full-size buffer."""
    d2 = -2.0 * (xa @ xb.T) + np.add.outer(np.sum(xa * xa, axis=1), np.sum(xb * xb, axis=1))
    return np.maximum(d2, 0.0)


class TestSqDists:
    # (rows of xa, rows of xb): empty on either side, one row, and shapes whose
    # last row block is ragged at the small block sizes
    SHAPES = [(0, 3), (3, 0), (0, 0), (1, 1), (7, 3), (13, 5), (40, 40), (200, 1)]

    @pytest.mark.parametrize("block", [1, 7, 64, None])
    @pytest.mark.parametrize("n, m", SHAPES)
    def test_matches_one_line_form(self, monkeypatch, block, n, m):
        if block is not None:
            monkeypatch.setattr(numerics, "_DIST_BLOCK", block)
        rng = make_rng(n * 100 + m)
        scale = 10.0 ** rng.uniform(-3, 3, size=(1, 6))
        xa = rng.standard_normal((n, 6)) * scale + 2.0
        shared = min(n, m // 2)  # rows of xb equal to rows of xa: distances near 0
        xb = np.vstack([xa[:shared], rng.standard_normal((m - shared, 6)) * scale])
        d2 = numerics.sq_dists(xa, xb)
        assert d2.shape == (n, m)
        assert np.array_equal(d2, _one_line_sq_dists(xa, xb))

    def test_never_negative(self):
        # far from the origin the norm sums cancel, and their round-off goes below 0
        x = make_rng(0).standard_normal((50, 3)) + 1e4
        assert (numerics.sq_dists(x, x) >= 0.0).all()


class TestRandomOrthogonal:
    def test_k1_is_sign(self):
        b = random_orthogonal(1, make_rng(0))
        assert b.shape == (1, 1)
        assert abs(abs(b[0, 0]) - 1.0) < 1e-12
        assert abs((b @ b.T)[0, 0] - 1.0) < 1e-12

    def test_k3_seed42_orthogonal(self):
        b = random_orthogonal(3, make_rng(42))
        assert np.abs(b @ b.T - np.eye(3)).max() < 1e-10

    def test_k5_seed7_unit_columns(self):
        b = random_orthogonal(5, make_rng(7))
        norms = np.linalg.norm(b, axis=0)
        assert np.abs(norms - 1.0).max() < 1e-12

    def test_grid_orthogonality_and_det(self):
        for k in range(1, 17):
            for seed in range(20):
                b = random_orthogonal(k, make_rng(seed))
                assert np.abs(b @ b.T - np.eye(k)).max() <= 1e-8
                assert abs(abs(np.linalg.det(b)) - 1.0) < 1e-6

    def test_k0_rejected(self):
        with pytest.raises(DimensionError):
            random_orthogonal(0, make_rng(0))

    def test_deterministic(self):
        b1 = random_orthogonal(4, make_rng(5))
        b2 = random_orthogonal(4, make_rng(5))
        assert np.array_equal(b1, b2)


class TestMlpForward:
    def test_zero_net_maps_to_zero(self):
        net = Mlp([3, 4, 2])
        out = net.forward(np.array([[1.0, -2.0, 5.0]]))
        assert np.array_equal(out, np.zeros((1, 2)))

    def test_identity_single_layer(self):
        net = Mlp([2, 2])
        net.params[0][...] = np.eye(2)
        out = net.forward(np.array([[1.0, -2.0]]))
        assert np.array_equal(out, np.array([[1.0, -2.0]]))

    def test_matches_manual_layer_by_layer(self):
        net = Mlp([2, 4, 2], rng=make_rng(3))
        x = np.array([1.0, 1.0])
        w0, b0, w1, b1 = net.params
        # independent hand evaluation, scalar loops only
        hidden = []
        for j in range(4):
            z = b0[j]
            for i in range(2):
                z += x[i] * w0[i, j]
            hidden.append(max(z, 0.0))
        expected = []
        for j in range(2):
            z = b1[j]
            for i in range(4):
                z += hidden[i] * w1[i, j]
            expected.append(z)
        assert np.allclose(net.forward(x[None, :])[0], expected, atol=1e-12, rtol=0)

    @pytest.mark.parametrize("widths", [[3, 2], [20, 64, 64, 3], [4, 7, 5, 2]])
    def test_matches_reference_layer_loop(self, widths):
        net = Mlp(widths)
        net.flat[:] = make_rng(5).standard_normal(net.flat.size) * 0.3  # biases too
        x = make_rng(6).standard_normal((50, widths[0]))
        h, ref_cache = x, [x]
        for layer in range(len(widths) - 1):
            h = h @ net.params[2 * layer] + net.params[2 * layer + 1]
            if layer < len(widths) - 2:
                h = np.maximum(h, 0.0)
            ref_cache.append(h)
        assert np.array_equal(net.forward(x), h)
        out, cache = net.forward_cache(x)
        assert np.array_equal(out, h)
        assert len(cache) == len(ref_cache)
        assert all(np.array_equal(a, b) for a, b in zip(cache, ref_cache))

    def test_shape_mismatch_raises(self):
        net = Mlp([3, 2])
        with pytest.raises(DimensionError):
            net.forward(np.zeros((1, 4)))

    @pytest.mark.parametrize("shape", [(3,), (2, 1, 3), ()])
    def test_only_matrices_accepted(self, shape):
        # one sample is a (1, d) matrix; a bare vector is not promoted
        net = Mlp([3, 2])
        with pytest.raises(DimensionError):
            net.forward(np.zeros(shape))
        with pytest.raises(DimensionError):
            net.forward_cache(np.zeros(shape))
        _, cache = net.forward_cache(np.zeros((1, 3)))
        with pytest.raises(DimensionError):
            net.backward(cache, np.zeros(2))

_FLAT = np.zeros(6)  # 1-D: no column axis at all


@pytest.mark.parametrize("call", [
    lambda: numerics.as_matrix(np.zeros((3, 0))),
    lambda: mcc(np.zeros((3, 0)), np.zeros((3, 0))),
    lambda: pca_fit(np.zeros((5, 0)), 0),
    lambda: Dataset(x=np.zeros((3, 0)), a=np.array([0, 1, 0]), y=np.zeros(3)),
    lambda: kmeans_fit(np.zeros((3, 0)), 1, make_rng(0)),
    lambda: Encoder(Mlp([3, 0])).standardize_on(np.zeros((3, 3))),
    lambda: Ridge(0.1).fit(_FLAT, _FLAT),
    lambda: KernelRidge(0.1, 1.0).fit(_FLAT, _FLAT),
    lambda: propensity_fit(_FLAT, np.arange(6) % 2),
    lambda: median_gamma(_FLAT),
    lambda: cate.KernelRows(_FLAT),
    lambda: cate.fit_base(_FLAT, _FLAT, BaseSpec()),
    lambda: build_candidates(_FLAT, np.zeros(6), 0.5, 2, make_rng(0)),
], ids=["as_matrix", "mcc", "pca_fit", "Dataset", "kmeans_fit", "Encoder.standardize_on",
        "Ridge.fit", "KernelRidge.fit", "PropensityModel.fit", "median_gamma", "KernelRows",
        "fit_base", "build_candidates"])
def test_matrix_without_columns_rejected(call):
    with pytest.raises(DimensionError, match=r"\(n, d\) matrix, d >= 1"):
        call()


_X20 = make_rng(0).standard_normal((20, 2))
_A20, _Y20 = np.arange(20) % 2, np.zeros(20)
_SHORT = np.zeros(19)  # one entry short of x's 20 rows


@pytest.mark.parametrize("call", [
    lambda: Dataset(x=_X20, a=_SHORT, y=_Y20),
    lambda: Dataset(x=_X20, a=_A20, y=_SHORT),
    lambda: propensity_fit(_X20, _SHORT),
    lambda: cate.fit_base(_X20, _SHORT, BaseSpec(kind="kernel")),
    lambda: cate.fit_base(_X20, _SHORT, BaseSpec(kind="ridge")),
    lambda: Ridge(0.1).fit(_X20, _SHORT),
    lambda: Ridge(0.1).fit(_X20, _Y20, weights=_SHORT),
    lambda: KernelRidge(0.1, 1.0).fit(_X20, _SHORT),
    lambda: KernelRidge(0.1, 1.0).fit(_X20, _Y20, weights=_SHORT),
    lambda: dr_pseudo_outcome(_A20, _SHORT, _Y20, _Y20, _Y20 + 0.5),
    lambda: build_candidates(_X20, _SHORT, 0.5, 2, make_rng(0)),
], ids=["Dataset-a", "Dataset-y", "PropensityModel.fit", "fit_base-kernel", "fit_base-ridge",
        "Ridge.fit-y", "Ridge.fit-weights", "KernelRidge.fit-y", "KernelRidge.fit-weights",
        "dr_pseudo_outcome", "build_candidates"])
def test_vector_of_another_length_rejected(call):
    with pytest.raises(DimensionError, match=r"of shape \(19,\) is not an \(n,\) vector "
                                             r"with n=20$"):
        call()


@pytest.mark.parametrize("call, what", [
    (lambda: Ridge(0.1).fit(_X20, ["a"] * 20), "y"),
    (lambda: Dataset(x=[[1.0, 2.0], [3.0]], a=[0, 1], y=[0, 0]), "x"),
    (lambda: numerics.as_vector({"a": 1.0}, "weights"), "weights"),
], ids=["Ridge.fit-strings", "Dataset-ragged", "as_vector-dict"])
def test_non_numeric_input_rejected(call, what):
    with pytest.raises(DimensionError, match=rf"^{what} is not an array of numbers: ") as exc:
        call()
    assert exc.value.exit_code == 2


@pytest.fixture(scope="module")
def fitted_on_3():
    """One fitted object of each kind that takes x, all on 3 covariates."""
    x = make_rng(0).standard_normal((40, 3))
    a = np.arange(40) % 2
    y = x[:, 0] + a
    return dict(ridge=Ridge(0.1).fit(x, y), kernel=KernelRidge(0.1, 1.0).fit(x, y),
                propensity=propensity_fit(x, a), net=Mlp([3, 4, 2], rng=make_rng(1)),
                encoder=pca_fit(x, 2),
                cate=fit_learner("t", Dataset(x=x, a=a, y=y), BaseSpec(cv=False)))


_WIDE = np.zeros((5, 2))  # two columns where 3 are due


@pytest.mark.parametrize("call", [
    lambda f: f["ridge"].predict(_WIDE),
    lambda f: f["kernel"].predict(_WIDE),
    lambda f: f["propensity"].predict_proba(_WIDE),
    lambda f: f["net"].forward(_WIDE),
    lambda f: f["net"].forward_cache(_WIDE),
    lambda f: f["encoder"].represent(_WIDE),
    lambda f: f["cate"].predict(_WIDE),
    lambda f: f["cate"].predict(_FLAT),
], ids=["Ridge.predict", "KernelRidge.predict", "PropensityModel.predict_proba", "Mlp.forward",
        "Mlp.forward_cache", "Encoder.represent", "CateModel.predict", "CateModel.predict-1d"])
def test_x_of_another_width_rejected(fitted_on_3, call):
    # a fitted object names the width it was fitted on
    with pytest.raises(DimensionError, match=r"\(n, 3\) matrix$"):
        call(fitted_on_3)


@pytest.mark.parametrize("call", [
    lambda: Ridge(0.1).predict(np.zeros((2, 2))),
    lambda: KernelRidge(0.1, 1.0).predict(np.zeros((2, 2))),
    lambda: cate.PropensityModel().predict_proba(np.zeros((2, 2))),
], ids=["Ridge.predict", "KernelRidge.predict", "PropensityModel.predict_proba"])
def test_unfitted_model_rejected(call):
    with pytest.raises(UntrainedModelError, match="is not fitted") as exc:
        call()
    assert exc.value.exit_code == 2


def _ebm(**kwargs):
    return EbmModel(net=Mlp([2, 3, 2]), b_matrix=np.eye(2), **kwargs)


@pytest.mark.parametrize("call, error", [
    (lambda: kmeans_fit(np.zeros((3, 2)), 0, make_rng(0)), ConfigError),
    (lambda: grad_check(lambda t: (0.0, t), np.zeros(2), h=0.0), ConfigError),
    (lambda: _ebm(repr_std=np.array([1.0, 0.0])), ConfigError),
    (lambda: _ebm(repr_mean=[0.0, 0.0], repr_std=[np.nan, 1.0]), ConfigError),
    (lambda: _ebm(repr_mean=[np.inf, 0.0]), ConfigError),
    (lambda: _ebm(repr_mean=[0.0]), ConfigError),
    (lambda: _ebm(repr_std=[1.0]), ConfigError),
    (lambda: sample(gen_dgp(8, d=2), 1, 0), TooFewSamplesError),
    (lambda: nce_loss(_ebm(), CandidateSet(np.zeros((0, 2, 2)), np.zeros(0, dtype=int))),
     TooFewSamplesError),
    (lambda: cate.fit_base(_X20.copy(), _Y20, BaseSpec(), cate.KernelRows(_X20)), DimensionError),
], ids=["kmeans_fit-k0", "grad_check-h0", "EbmModel-repr_std", "EbmModel-repr_std-nan",
        "EbmModel-repr_mean-inf", "EbmModel-repr_mean-1", "EbmModel-repr_std-1", "sample-n1",
        "nce_loss-empty", "fit_base-other-rows"])
def test_input_errors_are_package_errors(call, error):
    # a caller that catches CateEbmError (as cli.main does) must catch these too
    with pytest.raises(error) as exc:
        call()
    assert isinstance(exc.value, CateEbmError) and exc.value.exit_code == 2


class TestMlpBackward:
    def test_zero_upstream_gives_zero_grads(self):
        net = Mlp([2, 4, 2], rng=make_rng(1))
        x = make_rng(2).standard_normal((5, 2))
        _, cache = net.forward_cache(x)
        grad, _ = net.backward(cache, np.zeros((5, 2)))
        assert np.array_equal(grad, np.zeros_like(net.flat))

    def test_linear_layer_closed_form(self):
        net = Mlp([3, 2], rng=make_rng(4))
        x = make_rng(5).standard_normal((1, 3))
        g = make_rng(6).standard_normal((1, 2))
        _, cache = net.forward_cache(x)
        grad, _ = net.backward(cache, g)
        assert np.allclose(grad[:6].reshape(3, 2), x.T @ g, atol=1e-14)
        assert np.allclose(grad[6:], g[0], atol=1e-14)

    def test_sum_loss_matches_finite_differences(self):
        net = Mlp([2, 4, 2], rng=make_rng(7))
        x = make_rng(8).standard_normal((6, 2))

        def loss_fn(theta):
            out, cache = net.forward_cache(x)
            grad, _ = net.backward(cache, np.ones_like(out))
            return float(out.sum()), grad

        assert grad_check(loss_fn, net.flat, h=1e-5) < 1e-5

    @pytest.mark.parametrize("widths", [[3, 5, 2], [3, 5, 5, 2], [3, 5, 5, 5, 2]])
    def test_deeper_nets_match_finite_differences(self, widths):
        # seed chosen so no pre-activation sits within h of a ReLU kink,
        # which would make the one-sided slopes disagree by construction
        net = Mlp(widths, rng=make_rng(24))
        x = make_rng(11).standard_normal((4, widths[0]))

        def loss_fn(theta):
            out, cache = net.forward_cache(x)
            grad, _ = net.backward(cache, np.ones_like(out))
            return float(out.sum()), grad

        assert grad_check(loss_fn, net.flat, h=1e-4) < 1e-4

    @pytest.mark.parametrize("widths", [[3, 2], [20, 64, 64, 3], [4, 7, 5, 2]])
    def test_skipping_input_grad_keeps_param_grad(self, widths):
        net = Mlp(widths, rng=make_rng(12))
        x = make_rng(13).standard_normal((40, widths[0]))
        upstream = make_rng(14).standard_normal((40, widths[-1]))
        _, cache = net.forward_cache(x)
        full, gx = net.backward(cache, upstream)
        lean, none = net.backward(cache, upstream, input_grad=False)
        assert gx.shape == x.shape and none is None
        assert np.array_equal(lean, full)

    def test_upstream_left_unchanged(self):
        net = Mlp([3, 6, 6, 2], rng=make_rng(15))
        _, cache = net.forward_cache(make_rng(16).standard_normal((9, 3)))
        upstream = make_rng(17).standard_normal((9, 2))
        kept = upstream.copy()
        net.backward(cache, upstream)
        net.backward(cache, upstream, input_grad=False)
        assert np.array_equal(upstream, kept)

    def test_upstream_shape_mismatch(self):
        net = Mlp([2, 2])
        _, cache = net.forward_cache(np.zeros((3, 2)))
        with pytest.raises(DimensionError):
            net.backward(cache, np.zeros((2, 2)))


def _reference_adam_scalar(w0, grad_fn, lr, steps, beta1=0.9, beta2=0.999, eps=1e-8):
    # independent hand-stepped recurrence
    w, m, v = w0, 0.0, 0.0
    for t in range(1, steps + 1):
        g = grad_fn(w)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        w = w - lr * (m / (1 - beta1**t)) / (np.sqrt(v / (1 - beta2**t)) + eps)
    return w


class TestAdam:
    def test_zero_gradients_leave_params(self):
        p = np.array([1.0, 2.0])
        opt = Adam(p, lr=0.1)
        opt.step(p, np.zeros(2))
        assert np.array_equal(p, np.array([1.0, 2.0]))

    def test_descends_on_quadratic(self):
        p = np.array([1.0])
        opt = Adam(p, lr=0.1)
        opt.step(p, 2.0 * p)
        assert p[0] < 1.0

    def test_matches_reference_recurrence(self):
        p = np.array([0.0])
        opt = Adam(p, lr=0.3)
        for _ in range(10):
            opt.step(p, 2.0 * (p - 3.0))
        ref = _reference_adam_scalar(0.0, lambda w: 2.0 * (w - 3.0), lr=0.3, steps=10)
        assert abs(p[0] - ref) < 1e-12
        assert abs(p[0] - 3.0) < abs(0.0 - 3.0)

    def test_nonfinite_gradient_raises(self):
        p = np.array([1.0])
        opt = Adam(p, lr=0.1)
        with pytest.raises(TrainingDivergedError):
            opt.step(p, np.array([np.nan]))


class _PerArrayAdam:
    """The former list-of-arrays Adam, kept as the reference for the flat one."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, params, grads):
        for g in grads:
            if not np.all(np.isfinite(g)):
                raise TrainingDivergedError("non-finite gradient in Adam step")
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


class TestFlatAdamMatchesPerArray:
    STEPS = 500

    def _gradients(self, shapes, seed):
        rng = make_rng(seed)
        for _ in range(self.STEPS):
            # scales spread over decades so eps and the bias correction both matter
            yield [rng.standard_normal(s) * 10.0 ** rng.uniform(-6, 2) for s in shapes]

    def test_one_net(self):
        net = Mlp([20, 64, 64, 3], rng=make_rng(0))
        ref = [p.copy() for p in net.params]
        flat_opt, ref_opt = Adam(net.flat, lr=1e-3), _PerArrayAdam(ref, lr=1e-3)
        for grads in self._gradients([p.shape for p in ref], seed=1):
            flat_opt.step(net.flat, np.concatenate([g.ravel() for g in grads]))
            ref_opt.step(ref, grads)
        assert flat_opt.t == ref_opt.t == self.STEPS
        assert all(np.array_equal(p, r) for p, r in zip(net.params, ref))
        assert np.array_equal(flat_opt.v, np.concatenate([v.ravel() for v in ref_opt.v]))

    def test_two_nets_match_one_optimizer_over_both(self):
        enc = Mlp([20, 64, 64, 3], rng=make_rng(2))
        dec = Mlp([3, 64, 64, 20], rng=make_rng(3))
        ref = [p.copy() for p in enc.params + dec.params]
        enc_opt, dec_opt = Adam(enc.flat, lr=3e-3), Adam(dec.flat, lr=3e-3)
        ref_opt = _PerArrayAdam(ref, lr=3e-3)
        n_enc = len(enc.params)
        for grads in self._gradients([p.shape for p in ref], seed=4):
            enc_opt.step(enc.flat, np.concatenate([g.ravel() for g in grads[:n_enc]]))
            dec_opt.step(dec.flat, np.concatenate([g.ravel() for g in grads[n_enc:]]))
            ref_opt.step(ref, grads)
        assert all(np.array_equal(p, r) for p, r in zip(enc.params + dec.params, ref))


class TestMlpFlatLayout:
    def test_params_are_views_of_flat(self):
        net = Mlp([3, 4, 2], rng=make_rng(5))
        assert net.flat.shape == (3 * 4 + 4 + 4 * 2 + 2,)
        assert all(np.shares_memory(p, net.flat) for p in net.params)
        assert np.array_equal(np.concatenate([p.ravel() for p in net.params]), net.flat)
        net.flat[:] = 0.0
        assert np.array_equal(net.forward(np.ones((1, 3))), np.zeros((1, 2)))

    def test_copy_owns_its_buffer(self):
        net = Mlp([3, 4, 2], rng=make_rng(6))
        clone = Mlp(net.widths)
        clone.flat[:] = net.flat
        assert np.array_equal(clone.flat, net.flat)
        clone.params[0][0, 0] += 1.0
        assert clone.flat[0] == net.flat[0] + 1.0

    def test_forward_matches_forward_cache(self):
        net = Mlp([3, 5, 5, 2], rng=make_rng(7))
        x = make_rng(8).standard_normal((6, 3))
        out, cache = net.forward_cache(x)
        assert np.array_equal(net.forward(x), out)
        assert len(cache) == 4 and cache[-1] is out


    def test_forward_cache_without_output_bias(self):
        net = Mlp([3, 5, 5, 2], rng=make_rng(7))
        net.params[-1][:] = [0.5, -2.0]
        x = make_rng(8).standard_normal((6, 3))
        out, cache = net.forward_cache(x, out_bias=False)
        full, full_cache = net.forward_cache(x)
        assert cache[-1] is out and np.array_equal(out, cache[-2] @ net.params[-2])
        assert np.allclose(out + net.params[-1], full)
        upstream = make_rng(9).standard_normal(out.shape)
        assert np.array_equal(net.backward(cache, upstream)[0],
                              net.backward(full_cache, upstream)[0])


class TestGradCheck:
    def test_quadratic_is_exact(self):
        theta = np.array([1.0, -2.0, 0.5])

        def loss_fn(p):
            return float(p @ p), 2.0 * p

        assert grad_check(loss_fn, theta, h=1e-5) < 1e-8

    def test_detects_corrupted_gradient(self):
        theta = np.array([1.0, -2.0, 0.5])

        def loss_fn(p):
            g = 2.0 * p
            g[0] *= 2.0  # fault injection
            return float(p @ p), g

        assert grad_check(loss_fn, theta, h=1e-5) > 0.1

    def test_subsample_is_seeded_and_restores_theta(self):
        theta = make_rng(9).standard_normal(50)
        before = theta.copy()
        seen = []

        def loss_fn(p):
            seen.append(int(np.flatnonzero(p != before)[0]) if np.any(p != before) else -1)
            return float(p @ p), 2.0 * p

        grad_check(loss_fn, theta, max_entries=5, seed=3)
        picked = sorted(make_rng(3).choice(50, size=5, replace=False))
        assert seen == [-1] + [j for j in picked for _ in range(2)]
        assert np.array_equal(theta, before)


def _standardize(m):
    """(z, means, stds) of m's columns from Encoder.standardize_on on an identity network."""
    m = np.asarray(m, dtype=float)
    net = Mlp([m.shape[1], m.shape[1]])
    net.params[0][...] = np.eye(m.shape[1])
    enc = Encoder(net).standardize_on(m)
    return enc.represent(m), enc.repr_mean, enc.repr_std


class TestStandardize:
    def test_two_point_case(self):
        z, mean, std = _standardize(np.array([[1.0], [3.0]]))
        assert np.array_equal(z, np.array([[-1.0], [1.0]]))
        assert mean[0] == 2.0 and std[0] == 1.0

    def test_idempotent(self):
        m = make_rng(9).standard_normal((50, 3))
        z1, _, _ = _standardize(m)
        z2, _, _ = _standardize(z1)
        assert np.abs(z1 - z2).max() < 1e-9

    def test_gaussian_sample_centered(self):
        m = make_rng(9).standard_normal((100, 3)) * 5.0 + 2.0
        z, _, _ = _standardize(m)
        assert np.abs(z.mean(axis=0)).max() < 1e-10
        assert np.abs(z.var(axis=0) - 1.0).max() < 1e-8

    def test_zero_variance_column_named(self):
        m = np.array([[1.0, 5.0], [2.0, 5.0]])
        with pytest.raises(DegenerateColumnError) as exc:
            _standardize(m)
        assert exc.value.column == 1

    def test_one_row_is_too_few(self):
        with pytest.raises(TooFewSamplesError, match="at least 2 rows"):
            _standardize(np.array([[1.0, 5.0]]))
