"""Command-line surface: records, exit codes, determinism, dumps."""

import json

import numpy as np
import pytest

from uhwt.cli import main
from uhwt.io import load_summary_grid, load_tensor, save_pgm, save_tensor
from uhwt.signals import blocks_1d


@pytest.fixture()
def small_pgm(tmp_path):
    rng = np.random.default_rng(0)
    img = np.clip(0.5 + 0.2 * rng.standard_normal((8, 8)), 0, 1)
    path = tmp_path / "img.pgm"
    save_pgm(path, img, maxval=255)
    return path


def run_record(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--output", str(out)])
    assert code == 0
    return json.loads(out.read_text())


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["denoise", "--definitely-not-a-flag"]) == 2

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2

    def test_missing_seed_on_stochastic_command(self):
        assert main(["boost", "--signal", "fig5", "--n", "10", "--stages", "1"]) == 2

    def test_missing_input_is_config_error(self, capsys):
        assert main(["denoise"]) == 2

    def test_runtime_failure(self, tmp_path, capsys):
        missing = tmp_path / "nope.pgm"
        assert main(["denoise", "--input", str(missing)]) == 1

    def test_non_finite_input_is_usage_error(self, tmp_path, capsys):
        img = np.zeros((4, 4))
        img[1, 2] = np.nan
        path = tmp_path / "nan.uhwt"
        save_tensor(path, img)
        assert main(["denoise", "--input", str(path)]) == 2
        assert "finite" in capsys.readouterr().err


class TestDenoise:
    def test_exact_reconstruction_record(self, small_pgm, tmp_path):
        record = run_record(
            ["denoise", "--input", str(small_pgm), "--a", "0", "--b", "0",
             "--max-depth", "20", "--seed", "1"],
            tmp_path,
        )
        assert record["command"] == "denoise"
        assert record["metrics"]["train_mse"] == pytest.approx(0.0, abs=1e-20)
        assert "runtime_s" in record["metrics"]

    def test_prediction_dump(self, small_pgm, tmp_path):
        dump = tmp_path / "fit.uhwt"
        run_record(
            ["denoise", "--input", str(small_pgm), "--a", "0.5", "--seed", "1",
             "--dump-prediction", str(dump)],
            tmp_path,
        )
        assert load_tensor(dump).shape == (8, 8)

    def test_determinism_byte_identical(self, small_pgm, tmp_path):
        records = []
        for name in ("a.json", "b.json"):
            record = run_record(
                ["denoise", "--input", str(small_pgm), "--a", "0.7", "--seed", "9"],
                tmp_path, name,
            )
            record["metrics"].pop("runtime_s")
            records.append(json.dumps(record, sort_keys=True))
        assert records[0] == records[1]


class TestTensorCommands:
    def test_fit_on_tensor(self, tmp_path):
        rng = np.random.default_rng(1)
        arr = blocks_1d(16).reshape(4, 4) + 0.1 * rng.standard_normal((4, 4))
        path = tmp_path / "grid.uhwt"
        save_tensor(path, arr)
        record = run_record(["fit", "--input", str(path), "--max-depth", "6"], tmp_path)
        assert record["metrics"]["train_mse"] == pytest.approx(0.0, abs=1e-18)


class TestSphereCommands:
    def test_bench_emits_checkpoints(self, tmp_path):
        record = run_record(
            ["bench", "--signal", "fig5", "--n", "60", "--stages", "4", "--lr", "0.2",
             "--seed", "1", "--test-n", "100", "--checkpoints", "2,4"],
            tmp_path,
        )
        assert "test_mse_2" in record["metrics"]
        assert "test_mse_4" in record["metrics"]

    def test_bench_determinism(self, tmp_path):
        records = []
        for name in ("x.json", "y.json"):
            record = run_record(
                ["bench", "--signal", "fig5", "--n", "50", "--stages", "3",
                 "--seed", "3", "--test-n", "80"], tmp_path, name,
            )
            record["metrics"].pop("runtime_s")
            records.append(json.dumps(record, sort_keys=True))
        assert records[0] == records[1]

    def test_boost_model_out_round_trips(self, tmp_path):
        model_path = tmp_path / "model.json"
        run_record(
            ["boost", "--signal", "fig5", "--n", "40", "--stages", "2", "--seed", "2",
             "--model-out", str(model_path)],
            tmp_path,
        )
        from uhwt import load_boost

        ens = load_boost(model_path)
        assert ens.stage_count == 2

    def test_rre_and_quantiles(self, tmp_path):
        record = run_record(
            ["rre", "--signal", "fig5", "--n", "50", "--members", "3", "--seed", "4",
             "--test-n", "60"],
            tmp_path,
        )
        assert "test_mse" in record["metrics"]
        dump = tmp_path / "q.csv"
        record = run_record(
            ["quantiles", "--signal", "fig5", "--n", "50", "--members", "5",
             "--seed", "4", "--test-n", "40", "--q", "0.1,0.9",
             "--dump-prediction", str(dump)],
            tmp_path,
        )
        assert "coverage" in record["metrics"]
        header = dump.read_text().splitlines()[0]
        assert header == "x,y,z,q0.1,q0.9"


class TestBayesCommands:
    def test_mcmc_record(self, small_pgm, tmp_path):
        record = run_record(
            ["mcmc", "--input", str(small_pgm), "--steps", "200", "--seed", "5",
             "--max-depth", "6"],
            tmp_path,
        )
        assert 0.0 <= record["metrics"]["accept_rate"] <= 1.0
        assert record["metrics"]["leaves"] >= 1

    def test_backfit_outputs(self, small_pgm, tmp_path):
        draws_path = tmp_path / "draws.jsonl"
        summary_path = tmp_path / "summary.uhws"
        record = run_record(
            ["backfit", "--input", str(small_pgm), "--trees", "3", "--sweeps", "6",
             "--burn-in", "2", "--seed", "6", "--draws-out", str(draws_path),
             "--summary-out", str(summary_path), "--max-depth", "5"],
            tmp_path,
        )
        assert record["metrics"]["draws"] >= 2
        lines = [json.loads(line) for line in draws_path.read_text().splitlines()]
        assert all({"sweep", "mu", "trees"} <= set(line) for line in lines)
        mean, sd, width = load_summary_grid(summary_path)
        assert mean.shape == (8, 8)
        assert np.all(width >= 0)

    def test_verify_record(self, tmp_path):
        record = run_record(
            ["verify", "--replicates", "10", "--seed", "7"], tmp_path,
        )
        assert 0.0 <= record["metrics"]["coverage"]["uh"] <= 1.0
        assert "sparse_medians" in record["metrics"]
