"""Config parsing, experiment drivers, CLI artifacts, and determinism."""

import json
import math
import os
from functools import partial

import numpy as np
import pytest

import oracles
from hybridkernel import cli, control, experiments, koopman, simplex_qp, thermo_vle
from hybridkernel.hybrid_static import HybridModel
from hybridkernel.errors import (ConfigError, DimensionMismatch, DomainError, GridMismatch,
                                 MalformedModel)
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
        # vle-data writes one dataset and draws no validation or theta seed
        assert manifest["seeds"] == {"data_seed": 3}
        lapack = np.__config__.CONFIG["Build Dependencies"]["lapack"]
        assert manifest["numpy_version"] == np.__version__
        assert manifest["numpy_lapack"] == f"{lapack['name']} {lapack['version']}"

    @pytest.mark.parametrize("call", [("setting1", "--n", "5", "--lambda", "1e-200"),
                                      ("setting3", "--n", "5", "--m", "3", "--lambda", "1e-200"),
                                      ("setting1", "--n", "2", "--lambda", "1e-320")])
    def test_tiny_lambda_writes_finite_rmses(self, tmp_path, call):
        # at small n the Gram factor is exact, and the low-rank shifted solve
        # would scale its rounding by 1/lambda; pytest turns the RuntimeWarning
        # an overflow gives into an error
        assert run_cli(list(call) + ["--out", str(tmp_path)]) == 0
        (row,) = (tmp_path / "summary.csv").read_text().splitlines()[1:]
        assert all(math.isfinite(float(cell)) for cell in row.split(",")[:3])

    def test_huge_lambda_writes_finite_rmses(self, tmp_path):
        # -2 lambda_r alone is -inf above about 9e307: the mixture QP's linear
        # term scales F'Ay by lambda_r first
        assert run_cli(["setting3", "--n", "12", "--m", "3", "--lambda", "1e308",
                        "--out", str(tmp_path)]) == 0
        (row,) = (tmp_path / "summary.csv").read_text().splitlines()[1:]
        assert all(math.isfinite(float(cell)) for cell in row.split(",")[:3])

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
        monkeypatch.setattr(simplex_qp, "MAX_STEPS_PER_WEIGHT", 0)
        assert run_cli(list(call) + ["--lambda", "1", "--out", str(tmp_path)]) == 3
        assert "did not converge" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("replacement, message", [
        (lambda x1, x2: (math.inf, 0.0, 0.0, 0.0), "state became non-finite"),
        (lambda x1, x2: _raise(DomainError("drift undefined")), "drift undefined"),
    ], ids=["non-finite-velocity", "domain-error"])
    def test_exit_code_3_on_closed_loop_failure(self, tmp_path, capsys, monkeypatch,
                                                replacement, message):
        # the fields fail on the closed loop's floats only: on arrays the
        # Koopman fit runs as usual, so the failure comes from simulate
        fields = koopman.cstr_fields
        monkeypatch.setattr(koopman, "cstr_fields", lambda x1, x2: (
            replacement(x1, x2) if type(x1) is float else fields(x1, x2)))
        assert run_cli(["control", "--n", "30", "--m", "5", "--lambda", "1",
                        "--out", str(tmp_path)]) == 3
        assert f"numerical failure: {message}" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    def test_exit_code_3_on_out_of_memory(self, tmp_path, capsys, monkeypatch):
        # the driver raises as numpy does when an allocation fails; nothing
        # large is allocated
        def out_of_memory(**kwargs):
            raise MemoryError("Unable to allocate 37.3 GiB for an array")

        monkeypatch.setattr(experiments, "run_setting1", out_of_memory)
        assert run_cli(["setting1", "--n", "20", "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: out of memory (Unable to allocate 37.3 GiB")
        assert err.count("\n") == 1
        assert not (tmp_path / "manifest.json").exists()

    def test_exit_code_3_when_lambda_is_below_rounding(self, tmp_path, capsys):
        # G + 1e-300 I rounds to G, whose Cholesky needs jitter: a jittered
        # factor would report lambda = 1e-300 for the RMSEs of lambda = 1e-12
        assert run_cli(["setting1", "--n", "50", "--lambda", "1e-300",
                        "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and "lambda=1e-300" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("experiment, path_args", [
        ("setting1", lambda tmp: ["--config", tmp / "missing.cfg", "--out", tmp / "out"]),
        ("setting1", lambda tmp: ["--config", tmp, "--out", tmp / "out"]),
        ("setting1", lambda tmp: ["--config", _file(tmp / "c.cfg", b"seed=1\n\xff\n"),
                                  "--out", tmp / "out"]),
        ("vle-data", lambda tmp: ["--out", _file(tmp / "f", b"")]),
        ("vle-data", lambda tmp: ["--out", _file(tmp / "f", b"") / "out"]),
        ("vle-data", lambda tmp: ["--out", _dir(tmp / "out" / "data.csv").parent]),
        ("control", lambda tmp: ["--out", _file(_dir(tmp / "out") / "trajectories", b"").parent,
                                 "--n", "20", "--m", "3", "--lambda", "1"]),
    ], ids=["config-missing", "config-directory", "config-undecodable", "out-file",
            "out-under-file", "data-file-is-directory", "trajectories-is-file"])
    def test_exit_code_2_on_unusable_path(self, tmp_path, capsys, experiment, path_args):
        args = [experiment, "--n", "5", *map(str, path_args(tmp_path))]
        assert run_cli(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert not list(tmp_path.rglob("manifest.json"))

    def test_exit_code_2_on_empty_out_flag(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run_cli(["vle-data", "--n", "3", "--out", ""]) == 2
        assert "config error: output directory is empty" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_exit_code_2_on_empty_out_config_key(self, tmp_path, monkeypatch, capsys):
        cfg = _file(tmp_path / "c.cfg", b"out=\n")
        monkeypatch.chdir(tmp_path)
        assert run_cli(["vle-data", "--n", "3", "--config", str(cfg)]) == 2
        assert "config error: output directory is empty" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]

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

    @pytest.mark.parametrize("call, via_config", [
        (("setting1", "n"), False), (("vle-data", "n"), False), (("koopman", "n"), False),
        (("setting3", "m"), False), (("control", "m"), False), (("setting1", "n"), True),
    ], ids=["setting1-n", "vle-data-n", "koopman-n", "setting3-m", "control-m",
            "setting1-n-config"])
    def test_exit_code_2_on_size_beyond_the_index_range(self, tmp_path, capsys, call,
                                                        via_config):
        # numpy rejects such a size before it allocates; the config rejects it
        # before the run starts
        (experiment, key), size = call, "99999999999999999999"
        cfg = _file(tmp_path / "c.cfg", f"{key}={size}\n".encode())
        args = ["--config", str(cfg)] if via_config else [f"--{key}", size]
        assert run_cli([experiment, *args, "--out", str(tmp_path / "out")]) == 2
        assert "config error: n and m must be at most" in capsys.readouterr().err
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

    def test_control_trajectory_files(self, tmp_path):
        # one truth file per initial state, which its rows share, and one
        # model file per row; each file holds the text of its trajectory with
        # the time column formatted for it alone
        grid = (1e-2, 1.0)
        assert run_cli(["control", "--n", "30", "--m", "5", "--lambda", "0.01,1",
                        "--out", str(tmp_path)]) == 0
        rows = experiments.run_control(n=30, m=5, lambda_grid=grid)
        states = {row["x0_index"]: row["trajectory_truth"] for row in rows}
        trajectories = tmp_path / "trajectories"
        assert len(list(trajectories.iterdir())) == len(states) + len(rows)
        for k, truth in states.items():
            assert (trajectories / f"truth_x{k}.csv").read_bytes() == \
                oracles.trajectory_csv(truth).encode()
        for i, row in enumerate(rows):
            assert (trajectories / f"run{i:03d}_x{row['x0_index']}_model.csv").read_bytes() == \
                oracles.trajectory_csv(row["trajectory_model"]).encode()

    def test_exit_code_3_on_trajectory_off_the_shared_grid(self, tmp_path, capsys,
                                                            monkeypatch):
        # the files share the first trajectory's time cells; a trajectory on
        # another grid is an error, not a file with the wrong times
        run_control = experiments.run_control

        def shifted_last(**kwargs):
            rows = run_control(**kwargs)
            traj = rows[-1]["trajectory_model"]
            rows[-1]["trajectory_model"] = control.Trajectory(
                times=traj.times + 1.0, states=traj.states, controls=traj.controls)
            return rows

        monkeypatch.setattr(experiments, "run_control", shifted_last)
        assert run_cli(["control", "--n", "30", "--m", "3", "--lambda", "1",
                        "--out", str(tmp_path)]) == 3
        assert "not on the shared time grid" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    def test_exit_code_2_on_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("mystery=1\n")
        assert run_cli(["setting1", "--config", str(cfg)]) == 2
        assert "mystery" in capsys.readouterr().err

    def test_exit_code_2_on_repeated_config_key(self, tmp_path, capsys):
        # a repeated key is an error, not a silent override of the first
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed=1\n# a comment\nn=12\nseed = 2\n")
        assert run_cli(["setting1", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert f"{cfg}:4: key 'seed' repeats line 1" in err
        assert not (tmp_path / "out").exists()

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
        experiments._vle_rows.cache_clear()
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
        # one design per sample (training and validation) and the closures:
        # the family's and the input channel's
        assert seen[0] == {"jacobian": 4, "family": 3}

    def test_control_rows_of_one_state_share_its_truth_trajectory(self):
        rows = experiments.run_control(n=30, m=5, lambda_grid=(1e-2, 1.0, 1e2), n_states=2,
                                       horizon=0.1)
        assert [row["x0_index"] for row in rows] == [0, 1] * 3
        for row in rows:
            assert row["trajectory_truth"] is rows[row["x0_index"]]["trajectory_truth"]

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
                text, partial(experiments.wilson_family, thetas=thetas))
            np.testing.assert_allclose(loaded.predict(self.XS), row["model"].predict(self.XS),
                                       rtol=1e-12, atol=1e-12)

    def test_koopman_model(self, tmp_path):
        self._cli(tmp_path, "koopman", "--n", "30", "--m", "5")
        rows = experiments.run_koopman(n=30, seed=0, m=5, lambda_grid=self.GRID)
        states = koopman.sample_states(20, seed=3)
        for i, model in enumerate(row["model"] for row in rows):
            loaded = koopman.KoopmanHybridModel.from_json(
                (tmp_path / f"koopman_model_{i:02d}.json").read_text())
            for x in states:
                z = loaded.basis.eval(x)
                np.testing.assert_allclose(oracles.lifted_rhs(loaded, z, 0.3),
                                           oracles.lifted_rhs(model, z, 0.3),
                                           rtol=1e-12, atol=1e-12)

    def test_control_drives_the_written_koopman_models(self, tmp_path, monkeypatch):
        # one fit path: the models the control comparison simulates are the
        # ones the koopman CLI writes, bit for bit
        self._cli(tmp_path, "koopman", "--n", "30", "--m", "5")
        driven, make = [], control.make_model_controller
        monkeypatch.setattr(control, "make_model_controller",
                            lambda model: driven.append(model) or make(model))
        experiments.run_control(n=30, m=5, lambda_grid=self.GRID, n_states=1, horizon=0.1)
        assert len(driven) == len(self.GRID)
        for i, model in enumerate(driven):
            doc = json.loads((tmp_path / f"koopman_model_{i:02d}.json").read_text())
            assert doc["q"] == model.basis.q
            for name in ("weights", "residual", "closure_A", "input_beta", "input_gamma",
                         "theta_samples"):
                assert np.array(doc[name]).tobytes() == getattr(model, name).tobytes(), name


def _hybrid_model_json() -> str:
    # the weights of the two Margules columns
    return HybridModel(features=None, weights=np.array([1.0, -0.5]),
                       anchors=np.array([[0.1], [0.5]]), coeffs=np.array([0.2, -0.3]),
                       kernel=KernelSpec(gamma=2.0)).to_json()


def _koopman_model_json() -> str:
    return koopman.KoopmanHybridModel(koopman.MonomialBasis(q=1), np.ones(1), np.eye(2),
                                      np.ones((1, 2, 2)), np.ones(2), np.eye(2),
                                      theta_samples=[[0.5, 0.5]]).to_json()


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
        (lambda t: _edited(t, kernel={"family": "gaussian", "gamma": np.inf}), MalformedModel),
        (lambda t: _edited(t, kernel={"family": "gaussian", "gamma": 2.0}).replace(
            '"gamma": 2.0', '"gamma": 1e400'), MalformedModel),
        (lambda t: _edited(t, kernel={"family": "gaussian", "gamma": np.nan}), MalformedModel),
        (lambda t: _edited(t, weights=[np.nan, -0.5]), MalformedModel),
        (lambda t: _edited(t, coeffs=[np.inf, -0.3]), MalformedModel),
        (lambda t: _edited(t, anchors=[[0.1], [-np.inf]]), MalformedModel),
        (lambda t: _edited(t, weights=[1.0, -0.5, 0.2]), DimensionMismatch),
        (lambda t: json.dumps({**json.loads(t), "kernel": None}), MalformedModel),
        (lambda t: _edited(t, kernel="gaussian"), MalformedModel),
        (lambda t: _edited(t, kernel=[1]), MalformedModel),
        (lambda t: _edited(t, kernel={"family": "gaussian", "gamma": True}), MalformedModel),
        (lambda t: _edited(t, kernel={"family": "gaussian", "gamma": "2"}), MalformedModel),
    ], ids=["not-json", "missing-block", "ragged", "gamma-0", "gamma-negative",
            "family-laplacian", "coeffs-per-anchor", "gamma-infinity", "gamma-1e400",
            "gamma-nan", "weights-nan", "coeffs-infinity", "anchors-infinity",
            "weights-per-feature-column", "kernel-null", "kernel-string", "kernel-list",
            "gamma-true", "gamma-string"])
    def test_hybrid_model(self, edit, error):
        features = thermo_vle.margules_features
        HybridModel.from_json(_hybrid_model_json(), features)  # the unedited one loads
        with pytest.raises(error):
            HybridModel.from_json(edit(_hybrid_model_json()), features)

    @pytest.mark.parametrize("edit, error", [
        (lambda t: t[:-2], MalformedModel),
        (lambda t: _edited(t, residual=None), MalformedModel),
        (lambda t: _edited(t, input_gamma=[[1.0, 0.0], [0.0]]), MalformedModel),
        (lambda t: _edited(t, q="one"), MalformedModel),
        (lambda t: _edited(t, q=1.5), MalformedModel),
        (lambda t: _edited(t, q=0), MalformedModel),
        (lambda t: _edited(t, weights=[np.nan]), MalformedModel),
        (lambda t: _edited(t, residual=[[np.inf, 0.0], [0.0, 1.0]]), MalformedModel),
        (lambda t: _edited(t, theta_samples=[[0.5, -np.inf]]), MalformedModel),
        (lambda t: _edited(t, theta_samples=[[0.1, 0.2, 0.3]]), DimensionMismatch),
    ], ids=["not-json", "missing-block", "ragged", "bad-q", "q-fraction", "q-zero",
            "weights-nan", "residual-infinity", "theta-samples-infinity",
            "theta-samples-shape"])
    def test_koopman_model(self, edit, error):
        koopman.KoopmanHybridModel.from_json(_koopman_model_json())
        with pytest.raises(error):
            koopman.KoopmanHybridModel.from_json(edit(_koopman_model_json()))


def _raise(error):
    raise error


def _file(path, data: bytes):
    path.write_bytes(data)
    return path


def _dir(path):
    path.mkdir(parents=True)
    return path


def _namespace(config=None, seed=None, out=None, lambda_grid=None, m=None, n=None):
    import argparse
    return argparse.Namespace(config=config, seed=seed, out=out,
                              lambda_grid=lambda_grid, m=m, n=n)


class TestTrajectoryCsv:
    TIMES = np.arange(11) * 0.01

    @pytest.mark.parametrize("times", [
        np.arange(11) * 0.02,                              # another step
        np.arange(12) * 0.01,                              # one step more
        np.nextafter(np.arange(11) * 0.01, 1.0),           # one ulp later
        np.concatenate([[-0.0], np.arange(1, 11) * 0.01]),  # equal, but repr differs
    ])
    def test_trajectory_on_another_grid_raises(self, times):
        traj = control.Trajectory(times=times, states=np.zeros((times.size, 2)),
                                  controls=np.zeros(times.size - 1))
        with pytest.raises(GridMismatch):
            cli.TimeColumn(self.TIMES).rows(traj)

    def test_off_grid_trajectory_leaves_no_file(self, tmp_path):
        # the grid check runs when the rows are asked for, before the file opens
        traj = control.Trajectory(times=self.TIMES * 2, states=np.zeros((11, 2)),
                                  controls=np.zeros(10))
        out = cli.RunOutput(tmp_path)
        with pytest.raises(GridMismatch):
            out.csv("traj.csv", cli.TRAJECTORY_COLUMNS, cli.TimeColumn(self.TIMES).rows(traj))
        assert out.written == []
        assert list(tmp_path.iterdir()) == []
