import numpy as np
import pytest

from cate_ebm import Dataset, gen_dgp, load_csv, make_rng, sample, save_csv
from cate_ebm.errors import CsvFormatError, DimensionError


class TestGenDgp:
    def test_deterministic(self):
        d1 = gen_dgp(0, d=8)
        d2 = gen_dgp(0, d=8)
        assert np.array_equal(d1.mu0_w, d2.mu0_w)
        assert all(np.array_equal(p, q) for p, q in zip(d1.g.params, d2.g.params))

    def test_overlap_holds(self):
        for seed in range(5):
            dgp = gen_dgp(seed, d=10)
            u = np.random.default_rng(999).standard_normal((20_000, dgp.latent_dim))
            m = dgp.pi(u).mean()
            assert 0.03 < m < 0.97

    def test_outcome_surfaces_positive(self):
        dgp = gen_dgp(3, d=6)
        u = np.random.default_rng(1).standard_normal((500, dgp.latent_dim))
        assert dgp.mu0(u).min() > 0.0
        assert dgp.mu1(u).min() > 0.0

    def test_tau_is_difference(self):
        dgp = gen_dgp(4, d=6)
        ds = sample(dgp, 100, 2)
        assert np.array_equal(ds.tau, dgp.mu1(ds.u) - dgp.mu0(ds.u))

    def test_bad_dimension(self):
        with pytest.raises(DimensionError):
            gen_dgp(0, d=0)


class TestSample:
    def test_shapes_and_oracle(self):
        dgp = gen_dgp(1, d=12)
        ds = sample(dgp, 300, 2)
        assert ds.x.shape == (300, 12)
        assert ds.a.shape == (300,)
        assert ds.tau is not None
        assert np.allclose(ds.tau, ds.mu1 - ds.mu0, atol=0, rtol=0)

    def test_outcome_mean_uses_treated_surface(self):
        dgp = gen_dgp(1, d=12)
        ds = sample(dgp, 500, 3)
        # replay the seed's stream (both arms come out on the first attempt):
        # u, the covariate noise, the treatment uniforms, then the outcome noise
        rng = make_rng(3)
        assert np.array_equal(rng.standard_normal((500, dgp.latent_dim)), ds.u)
        rng.standard_normal((500, dgp.d))
        rng.random(500)
        eps = rng.standard_normal(500)
        expected = ds.a * ds.mu1 + (1 - ds.a) * ds.mu0
        assert np.abs((ds.y - eps) - expected).max() < 1e-12

    def test_noise_is_standard_normal(self):
        dgp = gen_dgp(5, d=8)
        ds = sample(dgp, 50_000, 6)
        eps = ds.y - (ds.a * ds.mu1 + (1 - ds.a) * ds.mu0)
        assert abs(eps.mean()) < 0.02
        assert abs(eps.var() - 1.0) < 0.02

    def test_both_arms_present(self):
        dgp = gen_dgp(7, d=8)
        for seed in range(10):
            ds = sample(dgp, 50, seed)
            assert ds.a.min() == 0 and ds.a.max() == 1

    def test_deterministic(self):
        dgp = gen_dgp(8, d=8)
        d1 = sample(dgp, 100, 9)
        d2 = sample(dgp, 100, 9)
        assert np.array_equal(d1.x, d2.x)
        assert np.array_equal(d1.y, d2.y)

    def test_tiny_n_rejected(self):
        dgp = gen_dgp(8, d=8)
        with pytest.raises(ValueError):
            sample(dgp, 1, 0)


class TestDatasetValidation:
    def test_non_binary_treatment(self):
        with pytest.raises(ValueError):
            Dataset(x=np.zeros((3, 2)), a=np.array([0, 1, 2]), y=np.zeros(3))

    def test_row_mismatch(self):
        with pytest.raises(DimensionError):
            Dataset(x=np.zeros((3, 2)), a=np.array([0, 1]), y=np.zeros(3))


class TestCsv:
    def test_round_trip_exact(self, tmp_path):
        dgp = gen_dgp(11, d=5)
        ds = sample(dgp, 40, 12)
        path = tmp_path / "d.csv"
        save_csv(ds, path)
        back = load_csv(path)
        # %.17g round-trips IEEE doubles exactly
        assert np.array_equal(back.x, ds.x)
        assert np.array_equal(back.a, ds.a)
        assert np.array_equal(back.y, ds.y)
        assert np.array_equal(back.tau, ds.tau)
        assert np.array_equal(back.pi, ds.pi)
        assert np.array_equal(back.u, ds.u)

    def test_round_trip_without_oracle(self, tmp_path):
        ds = Dataset(x=np.array([[1.5, -2.0], [0.0, 3.25]]),
                     a=np.array([0, 1]), y=np.array([0.5, -1.0]))
        path = tmp_path / "d.csv"
        save_csv(ds, path)
        back = load_csv(path)
        assert back.tau is None
        assert np.array_equal(back.x, ds.x)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("")
        with pytest.raises(CsvFormatError):
            load_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("x0,a,y\n")
        with pytest.raises(CsvFormatError):
            load_csv(path)

    def test_missing_treatment_column(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("x0,y\n1.0,2.0\n")
        with pytest.raises(CsvFormatError) as exc:
            load_csv(path)
        assert "'a'" in str(exc.value)

    def test_non_binary_treatment_cell(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("x0,a,y\n1.0,2,3.0\n")
        with pytest.raises(CsvFormatError) as exc:
            load_csv(path)
        assert "row 2" in str(exc.value)

    def test_non_numeric_cell_names_location(self, tmp_path):
        path = tmp_path / "n.csv"
        path.write_text("x0,a,y\n1.0,0,2.0\nfoo,1,3.0\n")
        with pytest.raises(CsvFormatError) as exc:
            load_csv(path)
        msg = str(exc.value)
        assert "row 3" in msg and "x0" in msg

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("x0,a,y\n1.0,0,2.0\n1.0,0\n")
        with pytest.raises(CsvFormatError) as exc:
            load_csv(path)
        assert "row 3" in str(exc.value)

    def test_crlf_line_ends_load_identically(self, tmp_path):
        ds = sample(gen_dgp(11, d=5), 40, 12)
        lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
        save_csv(ds, lf)
        assert b"\r" not in lf.read_bytes()
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        a, b = load_csv(lf), load_csv(crlf)
        for name in ("x", "a", "y", "tau", "mu0", "mu1", "pi", "u"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
            assert np.array_equal(getattr(b, name), getattr(ds, name))

    def test_byte_order_mark_skipped(self, tmp_path):
        # Excel's "CSV UTF-8" starts the file with a UTF-8 BOM
        ds = sample(gen_dgp(11, d=5), 40, 12)
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        save_csv(ds, plain)
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        a, b = load_csv(plain), load_csv(bom)
        for name in ("x", "a", "y", "tau", "mu0", "mu1", "pi", "u"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_columns_outside_schema_ignored(self, tmp_path):
        path = tmp_path / "i.csv"
        path.write_text("id,x0,a,note,y\nr1,1.5,0,first,2.0\nr2,-3.0,1,,4.5\n")
        ds = load_csv(path)
        assert np.array_equal(ds.x, [[1.5], [-3.0]])
        assert np.array_equal(ds.a, [0, 1])
        assert np.array_equal(ds.y, [2.0, 4.5])
        assert ds.tau is None

    def test_first_bad_row_named(self, tmp_path):
        path = tmp_path / "n.csv"
        path.write_text("x0,a,y\n1.0,0,2.0\n1.0,1,oops\n1.0,0,2.0\nnan,1,3.0\n")
        with pytest.raises(CsvFormatError) as exc:
            load_csv(path)
        assert str(exc.value) == f"{path}: non-numeric cell 'oops' at row 3, column 'y'"

    def test_repeated_column_rejected(self, tmp_path):
        # read by name, a repeated column would silently take its last copy
        path = tmp_path / "r.csv"
        path.write_text("x0,a,y,a\n1.0,0,2.0,1\n")
        with pytest.raises(CsvFormatError, match="column 'a' appears more than once"):
            load_csv(path)

    def test_partial_oracle_block(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("x0,a,y,tau\n1.0,0,2.0,0.5\n")
        with pytest.raises(CsvFormatError):
            load_csv(path)

    def test_latent_block_with_gap(self, tmp_path):
        path = tmp_path / "u.csv"
        path.write_text("x0,a,y,tau,mu0,mu1,pi,u1\n1.0,0,2.0,0.5,1.0,1.5,0.4,0.3\n")
        with pytest.raises(CsvFormatError, match="missing latent column u0"):
            load_csv(path)
