"""Config parsing, experiment drivers, CLI artifacts, and determinism."""

import json
import os

import numpy as np
import pytest

from hybridkernel import cli, experiments, koopman, simplex_qp, thermo_vle
from hybridkernel.hybrid_static import HybridModel, family_features
from hybridkernel.errors import ConfigError, DimensionMismatch, MalformedModel
from hybridkernel.kernels import KernelSpec


def run_cli(args):
    return cli.main(args)


class TestConfigParsing:
    def test_empty_config_file_gives_defaults(self, tmp_path):
        cfg_file = tmp_path / "empty.cfg"
        cfg_file.write_text("# nothing but a comment\n")
        config = cli.parse_config("setting1", _namespace(config=cfg_file))
        assert config.seed == 0
        assert config.n == 50
        assert config.lambda_grid == tuple(experiments.DEFAULT_LAMBDA_GRID)

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("bogus=1\n")
        with pytest.raises(ConfigError, match="bogus"):
            cli.parse_config("setting1", _namespace(config=cfg_file))

    def test_lambda_flag_round_trip(self):
        config = cli.parse_config("setting1", _namespace(lambda_grid="1e-2,1e0"))
        assert config.lambda_grid == (0.01, 1.0)

    def test_flags_override_file(self, tmp_path):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("seed=5\nn=20\n")
        config = cli.parse_config("setting1", _namespace(config=cfg_file, seed=9))
        assert config.seed == 9
        assert config.n == 20

    def test_invalid_lambda_grid(self):
        with pytest.raises(ConfigError):
            cli.parse_config("setting1", _namespace(lambda_grid="abc"))
        with pytest.raises(ConfigError):
            cli.parse_config("setting1", _namespace(lambda_grid="-1.0"))

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError):
            cli.ExperimentConfig(experiment="nope")

    def test_dynamic_experiments_get_their_own_defaults(self):
        config = cli.parse_config("koopman", _namespace())
        assert config.n == 200
        assert config.lambda_grid == tuple(experiments.DEFAULT_LAMBDA_R_GRID)


class TestCliRuns:
    def test_vle_data_artifacts(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli(["vle-data", "--n", "10", "--seed", "3",
                        "--out", str(out)]) == 0
        rows = (out / "data.csv").read_text().strip().splitlines()
        assert rows[0] == "x,y,T,gex_rt"
        assert len(rows) == 11
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 3
        assert "data_seed" in manifest["seeds"]

    def test_setting1_row_count_matches_grid(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli(["setting1", "--n", "12", "--lambda", "1e-3,1e0,1e2",
                        "--out", str(out)]) == 0
        rows = (out / "summary.csv").read_text().strip().splitlines()
        assert len(rows) == 4  # header + one per grid point

    def test_exit_code_2_on_config_error(self, tmp_path, capsys):
        assert run_cli(["setting1", "--lambda", "not-a-number",
                        "--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("call", [("control", "--n", "30", "--m", "5"),
                                      ("setting3", "--n", "12", "--m", "5")])
    def test_exit_code_3_on_unconverged_qp(self, tmp_path, capsys, monkeypatch, call):
        monkeypatch.setattr(simplex_qp.solve, "__defaults__", (simplex_qp.DEFAULT_TOL, 2))
        with pytest.warns(RuntimeWarning, match="max_iter=2"):
            assert run_cli(list(call) + ["--lambda", "1", "--out", str(tmp_path)]) == 3
        assert "did not converge" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("experiment, path_args", [
        ("setting1", lambda tmp: ["--config", tmp / "missing.cfg", "--out", tmp / "out"]),
        ("setting1", lambda tmp: ["--config", tmp, "--out", tmp / "out"]),
        ("setting1", lambda tmp: ["--config", _file(tmp / "c.cfg", b"seed=1\n\xff\n"),
                                  "--out", tmp / "out"]),
        ("vle-data", lambda tmp: ["--out", _file(tmp / "f", b"")]),
        ("vle-data", lambda tmp: ["--out", _file(tmp / "f", b"") / "out"]),
    ], ids=["config-missing", "config-directory", "config-undecodable", "out-file",
            "out-under-file"])
    def test_exit_code_2_on_unusable_path(self, tmp_path, capsys, experiment, path_args):
        args = [experiment, "--n", "5", *map(str, path_args(tmp_path))]
        assert run_cli(args) == 2
        assert "config error" in capsys.readouterr().err
        assert not list(tmp_path.rglob("manifest.json"))

    @pytest.mark.parametrize("experiment, seed, via_config", [("setting1", "-1", False),
                                                              ("control", "-3", False),
                                                              ("setting1", "-1", True)])
    def test_exit_code_2_on_negative_seed(self, tmp_path, capsys, experiment, seed, via_config):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"seed={seed}\n")
        args = ["--config", str(cfg)] if via_config else ["--seed", seed]
        assert run_cli([experiment, *args, "--n", "12", "--out", str(tmp_path / "out")]) == 2
        assert "config error: seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("grid", ["nan", "inf", "1,nan"])
    def test_exit_code_2_on_non_finite_lambda(self, tmp_path, capsys, grid):
        assert run_cli(["setting1", "--n", "12", "--lambda", grid,
                        "--out", str(tmp_path / "out")]) == 2
        assert "config error: lambda grid entries must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("call", [("vle-data", "--n", "5"),
                                      ("setting1", "--n", "12"),
                                      ("setting2", "--n", "12"),
                                      ("setting3", "--n", "12", "--m", "3"),
                                      ("koopman", "--n", "30", "--m", "3"),
                                      ("control", "--n", "30", "--m", "3")])
    def test_manifest_lists_every_file_written(self, tmp_path, call):
        out = tmp_path / "out"
        assert run_cli(list(call) + ["--lambda", "0.1,1", "--out", str(out)]) == 0
        listed = json.loads((out / "manifest.json").read_text())["files"]
        written = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
        assert len(listed) == len(set(listed))
        assert set(listed) == written - {"manifest.json"}

    def test_exit_code_2_on_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("mystery=1\n")
        assert run_cli(["setting1", "--config", str(cfg)]) == 2
        assert "mystery" in capsys.readouterr().err

    def test_determinism_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run_cli(["setting1", "--n", "12", "--seed", "1",
                            "--lambda", "1e-2,1e0", "--out", str(out)]) == 0
        for name in ("train.csv", "val.csv", "summary.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        for m in (m1, m2):  # only the timestamp and target directory may differ
            m.pop("generated_at")
            m["config"].pop("out")
        assert m1 == m2


class TestExperiments:
    @pytest.mark.parametrize("setting", ["setting2", "setting3"])
    def test_each_composition_is_solved_once(self, monkeypatch, setting):
        # n training and n validation compositions: 2n bubble points, although
        # the datasets and the features both need the temperature at each x
        calls = []
        solve = thermo_vle.bubble_point
        monkeypatch.setattr(thermo_vle, "bubble_point",
                            lambda x, *a, **kw: calls.append(x) or solve(x, *a, **kw))
        experiments._vle_point.cache_clear()
        experiments.vle_points.cache_clear()
        run = getattr(experiments, f"run_{setting}")
        extra = {"m": 3} if setting == "setting3" else {}
        run(n=15, seed=4, lambda_grid=(0.1, 1.0), **extra)
        assert len(calls) == 30
        assert len(set(calls)) == 30

    @pytest.mark.parametrize("driver", ["koopman", "control"])
    def test_koopman_design_is_built_once_per_sweep(self, monkeypatch, driver):
        # Dpsi and the family velocities do not depend on lambda_R, so a sweep
        # evaluates them as often on a 3-point grid as on a 1-point grid
        counts = {"jacobian": 0, "family": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(koopman.MonomialBasis, "jacobian",
                            counted("jacobian", koopman.MonomialBasis.jacobian))
        monkeypatch.setattr(koopman, "cstr_f0_family",
                            counted("family", koopman.cstr_f0_family))
        seen = []
        for grid in ((1.0,), (1e-2, 1.0, 1e2)):
            counts.update(jacobian=0, family=0)
            if driver == "koopman":
                experiments.run_koopman(n=30, m=5, lambda_grid=grid)
            else:
                experiments.run_control(n=30, m=5, lambda_grid=grid, n_states=1,
                                        horizon=0.1)
            seen.append(dict(counts))
        assert seen[0] == seen[1]
        if driver == "koopman":  # one design per sample: training and validation
            assert seen[0] == {"jacobian": 2, "family": 2 * 5}

    def test_setting1_rows_deterministic(self):
        grid = (1e-2, 1e0)
        r1 = experiments.run_setting1(n=12, seed=0, lambda_grid=grid)
        r2 = experiments.run_setting1(n=12, seed=0, lambda_grid=grid)
        assert r1 == r2
        assert [row["lambda"] for row in r1] == [0.01, 1.0]

    def test_setting3_rows_have_weights_on_simplex(self):
        rows = experiments.run_setting3(n=12, seed=0, m=5, lambda_grid=(1.0,))
        (row,) = rows
        assert abs(row["weights"].sum() - 1.0) <= 1e-10
        assert row["theta_samples"].shape == (5, 2)

    def test_gex_reference_finite_on_interior(self):
        vals = experiments.gex_reference(np.linspace(0.05, 0.95, 7))
        assert np.all(np.isfinite(vals))


class TestModelJson:
    """Every model JSON the CLI writes loads back to the sweep's model."""

    GRID = (0.1, 1.0)
    XS = np.linspace(0.02, 0.98, 25)

    def _cli(self, out, *args):
        assert run_cli(list(args) + ["--lambda", "0.1,1", "--out", str(out)]) == 0

    def test_margules_model(self, tmp_path):
        self._cli(tmp_path, "setting2", "--n", "12")
        model = experiments.run_setting2(n=12, seed=0, lambda_grid=self.GRID)["margules"][-1]["model"]
        loaded = HybridModel.from_json((tmp_path / "margules_model.json").read_text(),
                                       thermo_vle.margules_features)
        np.testing.assert_allclose(loaded.predict(self.XS), model.predict(self.XS),
                                   rtol=1e-12, atol=1e-12)

    def test_mixture_model(self, tmp_path):
        self._cli(tmp_path, "setting3", "--n", "12", "--m", "5")
        rows = experiments.run_setting3(n=12, seed=0, m=5, lambda_grid=self.GRID)
        for i, row in enumerate(rows):
            text = (tmp_path / f"mixture_model_{i:02d}.json").read_text()
            thetas = np.array(json.loads(text)["theta_samples"])
            loaded = HybridModel.from_json(
                text, family_features(experiments.wilson_family, thetas))
            np.testing.assert_allclose(loaded.predict(self.XS), row["model"].predict(self.XS),
                                       rtol=1e-12, atol=1e-12)

    def test_koopman_model(self, tmp_path):
        self._cli(tmp_path, "koopman", "--n", "30", "--m", "5")
        rows = experiments.run_koopman(n=30, seed=0, m=5, lambda_grid=self.GRID)
        states = koopman.sample_states(20, seed=3)
        for i, model in enumerate(experiments.koopman_models(rows)):
            loaded = koopman.KoopmanHybridModel.from_json(
                (tmp_path / f"koopman_model_{i:02d}.json").read_text())
            for x in states:
                z = loaded.basis.eval(x)
                np.testing.assert_allclose(loaded.rhs(z, 0.3), model.rhs(z, 0.3),
                                           rtol=1e-12, atol=1e-12)


def _hybrid_model_json() -> str:
    return HybridModel(features=None, weights=np.array([1.0]), anchors=np.array([[0.1], [0.5]]),
                       coeffs=np.array([0.2, -0.3]), kernel=KernelSpec(gamma=2.0)).to_json()


def _koopman_model_json() -> str:
    return koopman.KoopmanHybridModel(koopman.MonomialBasis(q=1), np.ones(1), np.eye(2),
                                      np.ones((1, 2, 2)), np.ones(2), np.eye(2)).to_json()


def _edited(text: str, **blocks) -> str:
    """The JSON document with the given blocks replaced; None drops a block."""
    doc = json.loads(text)
    doc.update(blocks)
    return json.dumps({k: v for k, v in doc.items() if v is not None})


class TestMalformedModelJson:
    """Each loader turns a bad document into a package error, never a bare
    JSONDecodeError, KeyError or ValueError."""

    @pytest.mark.parametrize("edit, error", [
        (lambda t: t[:-2], MalformedModel),
        (lambda t: _edited(t, coeffs=None), MalformedModel),
        (lambda t: _edited(t, anchors=[[0.1], [0.2, 0.3]]), MalformedModel),
        (lambda t: _edited(t, kernel={"family": "gaussian", "gamma": 0.0}), MalformedModel),
        (lambda t: _edited(t, kernel={"family": "gaussian", "gamma": -1.0}), MalformedModel),
        (lambda t: _edited(t, kernel={"family": "laplacian", "gamma": 2.0}), MalformedModel),
        (lambda t: _edited(t, coeffs=[0.2, -0.3, 0.4]), DimensionMismatch),
    ], ids=["not-json", "missing-block", "ragged", "gamma-0", "gamma-negative",
            "family-laplacian", "coeffs-per-anchor"])
    def test_hybrid_model(self, edit, error):
        features = thermo_vle.margules_features
        HybridModel.from_json(_hybrid_model_json(), features)  # the unedited one loads
        with pytest.raises(error):
            HybridModel.from_json(edit(_hybrid_model_json()), features)

    @pytest.mark.parametrize("edit", [
        lambda t: t[:-2],
        lambda t: _edited(t, residual=None),
        lambda t: _edited(t, input_gamma=[[1.0, 0.0], [0.0]]),
        lambda t: _edited(t, q="one"),
    ], ids=["not-json", "missing-block", "ragged", "bad-q"])
    def test_koopman_model(self, edit):
        koopman.KoopmanHybridModel.from_json(_koopman_model_json())
        with pytest.raises(MalformedModel):
            koopman.KoopmanHybridModel.from_json(edit(_koopman_model_json()))


def _file(path, data: bytes):
    path.write_bytes(data)
    return path


def _namespace(config=None, seed=None, out=None, lambda_grid=None, m=None, n=None):
    import argparse
    return argparse.Namespace(config=config, seed=seed, out=out,
                              lambda_grid=lambda_grid, m=m, n=n)
