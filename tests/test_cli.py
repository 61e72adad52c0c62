import os
import warnings

import numpy as np
import pytest

from sparsesep import cli
from sparsesep.errors import SolverError, ValidationError
from sparsesep.grid import Grid2
from sparsesep.io import RG2_MAGIC, read_rg2, write_rg2


def run(args):
    return cli.run(list(args))


def test_phantom_writes_rg2(tmp_path):
    out = tmp_path / "p.rg2"
    assert run(["phantom", "--kind", "shepp_logan", "--d", "32", "--out", str(out)]) == 0
    assert out.read_bytes()[:4] == RG2_MAGIC
    assert read_rg2(str(out)).side == 32


def test_dict_info(capsys):
    assert run(["dict", "info", "haar2d:J=3"]) == 0
    out = capsys.readouterr().out
    assert "kind haar2d" in out and "n 64" in out and "m 64" in out


def test_dict_info_coherence(capsys):
    assert run(["dict", "info", "identity:n=256", "fourier1d:n=256"]) == 0
    out = capsys.readouterr().out
    assert "coherence 0.0625" in out


def test_dict_info_rejects_mismatched_sizes_before_printing(capsys):
    assert run(["dict", "info", "haar2d:J=3", "sinusoid2d:d=16,L=3"]) == 1
    captured = capsys.readouterr()
    assert "dimension mismatch" in captured.err and captured.out == ""


def test_dict_spec_errors():
    assert run(["dict", "info", "nosuch:J=3"]) == 1
    assert run(["dict", "info", "haar2d:J=x"]) == 1
    assert run(["dict", "info", "haar2d:d=3"]) == 1


@pytest.mark.parametrize("spec, name", [
    ("sinusoid2d:d=16,L=3,constant=7,extra=1", "'extra'"),
    ("haar2d:J=3,L=2", "'L'"),
    ("identity:n=8,d=8", "'d'"),
    ("fourier1d:n=8,n=16", "'n'"),
])
def test_dict_spec_rejects_leftover_or_repeated_parameter(capsys, spec, name):
    assert run(["dict", "info", spec]) == 1
    captured = capsys.readouterr()
    assert name in captured.err and captured.out == ""


def test_dict_info_large_haar_is_lazy(capsys):
    # 4**12 pixels: an eagerly built analysis matrix would take about 7 GB.
    assert run(["dict", "info", "haar2d:J=12"]) == 0
    out = capsys.readouterr().out
    assert f"n {4 ** 12}" in out and f"m {4 ** 12}" in out


def test_separate_outputs(tmp_path):
    d = 16
    rng = np.random.default_rng(0)
    paths = []
    for i in range(2):
        g = Grid2(rng.standard_normal((d, d)))
        path = tmp_path / f"h{i}.rg2"
        write_rg2(str(path), g)
        paths.append(str(path))
    out_dir = tmp_path / "sep"
    code = run(["separate", *paths, "--dict-f", "haar2d:J=4",
                "--dict-g", "sinusoid2d:d=16,L=3,constant=1",
                "--iterations", "40", "--out-dir", str(out_dir)])
    assert code == 0
    assert (out_dir / "f.rg2").exists()
    assert (out_dir / "g_1.rg2").exists() and (out_dir / "g_2.rg2").exists()
    lines = (out_dir / "residuals.csv").read_text().strip().splitlines()
    assert lines[0] == "iteration,residual"
    assert len(lines) >= 2
    # residual history is non-increasing
    vals = [float(l.split(",")[1]) for l in lines[1:]]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_diagnose_csv_schema(tmp_path):
    out = tmp_path / "report.csv"
    code = run(["diagnose", "--dict-f", "identity:n=64", "--dict-g", "fourier1d:n=64",
                "--kf", "4", "--lg", "3", "--n-probes", "4", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "probe_id,in_domain,lhs,rhs,margin"
    assert len(lines) == 1 + 8    # random + dictionary-aligned probes


@pytest.mark.parametrize("d_const", ["nan", "-1", "0"])
def test_diagnose_rejects_d_const_that_is_not_positive(tmp_path, capsys, d_const):
    out = tmp_path / "report.csv"
    code = run(["diagnose", "--dict-f", "identity:n=64", "--dict-g", "fourier1d:n=64",
                f"--d-const={d_const}", "--out", str(out)])
    assert code == 1
    assert "d_const must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


def test_solve_command(tmp_path):
    d = 17
    dpath, mpath, upath = (tmp_path / n for n in ("D.rg2", "mu.rg2", "u.rg2"))
    write_rg2(str(dpath), Grid2(np.ones((d, d))))
    write_rg2(str(mpath), Grid2(np.zeros((d, d))))
    code = run(["solve", "--diffusion", str(dpath), "--mu", str(mpath),
                "--boundary", "gamma1:1", "--out", str(upath)])
    assert code == 0
    u = read_rg2(str(upath))
    assert np.abs(u.values - 1.0).max() < 1e-9     # constant data, zero absorption


def test_tv_command(tmp_path):
    d = 16
    rng = np.random.default_rng(1)
    inp, out = tmp_path / "in.rg2", tmp_path / "out.rg2"
    write_rg2(str(inp), Grid2(rng.standard_normal((d, d))))
    assert run(["tv", "--in", str(inp), "--out", str(out), "--weight", "0.5"]) == 0
    assert out.exists()


def test_tv_rejects_infinite_weight(tmp_path, capsys):
    inp, out = tmp_path / "in.rg2", tmp_path / "out.rg2"
    write_rg2(str(inp), Grid2(np.random.default_rng(1).standard_normal((16, 16))))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(["tv", "--in", str(inp), "--out", str(out), "--weight", "inf"]) == 1
    assert "weight must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


def test_conversions_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    g = Grid2(rng.standard_normal((8, 8)))
    rg2, csvp, back, pgm = (tmp_path / n for n in ("a.rg2", "a.csv", "b.rg2", "a.pgm"))
    write_rg2(str(rg2), g)
    assert run(["rg2-to-csv", "--in", str(rg2), "--out", str(csvp)]) == 0
    assert run(["csv-to-rg2", "--in", str(csvp), "--out", str(back)]) == 0
    assert np.array_equal(read_rg2(str(back)).values, g.values)
    assert run(["export-pgm", "--in", str(rg2), "--out", str(pgm)]) == 0
    assert pgm.read_bytes().startswith(b"P5\n")
    assert (tmp_path / "a.pgm.scale.txt").exists()


def config_text(out_dir, **overrides):
    base = {
        "phantom_kind": "convex_inclusions",
        "d": 32,
        "L": 4,
        "n_measurements": 2,
        "noise_level": 0.1,
        "seed": 5,
        "omp_iterations": 60,
        "out_dir": out_dir,
    }
    base.update(overrides)
    return "# test config\n" + "\n".join(f"{k} = {v}" for k, v in base.items()) + "\n"


def test_qpat_gamma1_metrics(tmp_path):
    cfgp = tmp_path / "run.cfg"
    out_dir = tmp_path / "out"
    cfgp.write_text(config_text(str(out_dir)))
    assert run(["qpat-gamma1", "--config", str(cfgp)]) == 0
    lines = (out_dir / "metrics.csv").read_text().strip().splitlines()
    assert lines[0] == "stage,N,error,residual"
    assert len(lines) == 3                      # one row per N
    assert (out_dir / "mu.rg2").exists() and (out_dir / "u_1.rg2").exists()


def test_qpat_gamma1_deterministic(tmp_path):
    cfgp = tmp_path / "run.cfg"
    outs = []
    for name in ("o1", "o2"):
        out_dir = tmp_path / name
        cfgp.write_text(config_text(str(out_dir)))
        assert run(["qpat-gamma1", "--config", str(cfgp)]) == 0
        outs.append(out_dir)
    for fname in ("metrics.csv", "mu.rg2", "u_1.rg2"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_config_rejects_unknown_key(tmp_path):
    cfgp = tmp_path / "run.cfg"
    cfgp.write_text(config_text(str(tmp_path)) + "mystery_knob = 3\n")
    assert run(["qpat-gamma1", "--config", str(cfgp)]) == 1


@pytest.mark.parametrize("key", ["lambda1", "lambda2", "omp_iterations_step3"])
def test_config_rejects_removed_step3_keys(tmp_path, capsys, key):
    cfgp = tmp_path / "run.cfg"
    out_dir = tmp_path / "out"
    cfgp.write_text(config_text(str(out_dir), n_measurements=5, **{key: 1}))
    assert run(["qpat-gammavar", "--config", str(cfgp)]) == 1
    assert f"unknown config key {key!r}" in capsys.readouterr().err
    assert not out_dir.exists()


def test_config_validates_ranges(tmp_path):
    cfgp = tmp_path / "run.cfg"
    cfgp.write_text(config_text(str(tmp_path), d=100))
    assert run(["qpat-gamma1", "--config", str(cfgp)]) == 1
    cfgp.write_text(config_text(str(tmp_path), noise_level=-0.5))
    assert run(["qpat-gamma1", "--config", str(cfgp)]) == 1


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("key", ["noise_level", "epsilon", "tv_weight"])
def test_config_rejects_non_finite_floats(tmp_path, capsys, key, value):
    # NaN fails every comparison, so a range check alone lets it through.
    cfgp = tmp_path / "run.cfg"
    out_dir = tmp_path / "out"
    cfgp.write_text(config_text(str(out_dir), **{key: value}))
    assert run(["qpat-gamma1", "--config", str(cfgp)]) == 1
    assert f"{key} must be finite" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_separate_rejects_non_finite_epsilon(tmp_path, capsys, value):
    path = tmp_path / "h.rg2"
    write_rg2(str(path), Grid2(np.random.default_rng(0).standard_normal((16, 16))))
    out_dir = tmp_path / "sep"
    code = run(["separate", str(path), "--dict-f", "haar2d:J=4",
                "--dict-g", "sinusoid2d:d=16,L=3,constant=1",
                "--epsilon", value, "--out-dir", str(out_dir)])
    assert code == 1
    assert "epsilon must be finite" in capsys.readouterr().err
    assert not out_dir.exists()


def test_separate_rejects_negative_epsilon(tmp_path, capsys):
    path = tmp_path / "h.rg2"
    write_rg2(str(path), Grid2(np.random.default_rng(0).standard_normal((16, 16))))
    out_dir = tmp_path / "sep"
    code = run(["separate", str(path), "--dict-f", "haar2d:J=4",
                "--dict-g", "sinusoid2d:d=16,L=3,constant=1",
                "--epsilon", "-1", "--out-dir", str(out_dir)])
    assert code == 1
    err = capsys.readouterr().err
    assert "--epsilon must be nonnegative" in err and "residual_target" not in err
    assert not out_dir.exists()


def test_missing_file_is_validation_error(tmp_path):
    assert run(["tv", "--in", str(tmp_path / "absent.rg2"),
                "--out", str(tmp_path / "o.rg2"), "--weight", "1.0"]) == 1


def test_usage_error_maps_to_one():
    assert run(["separate"]) == 1
    assert run(["no-such-command"]) == 1


def test_numerical_failure_maps_to_two(tmp_path, monkeypatch):
    d = 17
    dpath, mpath = tmp_path / "D.rg2", tmp_path / "mu.rg2"
    write_rg2(str(dpath), Grid2(np.ones((d, d))))
    write_rg2(str(mpath), Grid2(np.zeros((d, d))))

    def exploding_solver(problem):
        raise SolverError("synthetic non-convergence, residual=1.0")

    monkeypatch.setattr(cli, "solve_diffusion", exploding_solver)
    code = run(["solve", "--diffusion", str(dpath), "--mu", str(mpath),
                "--boundary", "gamma1:1", "--out", str(tmp_path / "u.rg2")])
    assert code == 2


def _solve_argv(tmp_path, D, mu):
    dpath, mpath = tmp_path / "D.rg2", tmp_path / "mu.rg2"
    write_rg2(str(dpath), Grid2(D))
    write_rg2(str(mpath), Grid2(mu))
    return ["solve", "--diffusion", str(dpath), "--mu", str(mpath),
            "--boundary", "gamma1:1", "--out", str(tmp_path / "u.rg2")]


def test_solve_without_interior_is_validation_error(tmp_path, capsys):
    assert run(_solve_argv(tmp_path, np.ones((2, 2)), np.zeros((2, 2)))) == 1
    err = capsys.readouterr().err
    assert "no interior pixel" in err
    assert "Traceback" not in err
    assert not (tmp_path / "u.rg2").exists()


def test_solve_non_convergence_maps_to_two_without_output(tmp_path, capsys):
    # A 10^6 conductivity disc: the solver cannot reach its tolerance.
    d = 128
    ax = np.arange(d) / (d - 1.0)
    X1, X2 = np.meshgrid(ax, ax)
    D = np.where((X1 - 0.5) ** 2 + (X2 - 0.5) ** 2 < 0.2 ** 2, 1e6, 1.0)
    assert run(_solve_argv(tmp_path, D, np.ones((d, d)))) == 2
    assert capsys.readouterr().err.startswith("numerical failure:")
    assert not (tmp_path / "u.rg2").exists()


def _out_of_memory(*args, **kwargs):
    raise MemoryError("Unable to allocate 2.00 GiB for an array with shape (16384, 16384)")


@pytest.mark.parametrize("command", ["separate", "qpat-gamma1", "qpat-gammavar"])
def test_out_of_memory_maps_to_two_without_output(tmp_path, capsys, monkeypatch, command):
    out_dir = tmp_path / "out"
    if command == "separate":
        monkeypatch.setattr(cli, "omp_block", _out_of_memory)
        h = tmp_path / "h.rg2"
        write_rg2(str(h), Grid2(np.ones((16, 16))))
        argv = ["separate", str(h), "--dict-f", "haar2d:J=4", "--dict-g", "sinusoid2d:d=16,L=3",
                "--out-dir", str(out_dir)]
    else:
        monkeypatch.setattr(cli.qpat, command.replace("qpat-", "reconstruct_"), _out_of_memory)
        cfgp = tmp_path / "run.cfg"
        cfgp.write_text(config_text(str(out_dir), n_measurements=5))
        argv = [command, "--config", str(cfgp)]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: Unable to allocate 2.00 GiB")
    assert "Traceback" not in err
    assert not out_dir.exists()


def test_qpat_gammavar_rejects_too_few_measurements(tmp_path, capsys):
    # The pipeline separates measurements 0-2 and recovers D from 0, 3 and 4,
    # so three illuminations must be refused before anything is written.
    cfgp = tmp_path / "run.cfg"
    out_dir = tmp_path / "out"
    cfgp.write_text(config_text(str(out_dir), n_measurements=3, noise_level=0.0,
                                omp_iterations_step1=100, outer_iterations=1))
    assert run(["qpat-gammavar", "--config", str(cfgp)]) == 1
    assert "measurement index 3" in capsys.readouterr().err
    assert not list(out_dir.glob("u_*.rg2"))


def test_qpat_gammavar_writes_outputs_and_one_row_per_pass(tmp_path):
    cfgp = tmp_path / "run.cfg"
    out_dir = tmp_path / "out"
    cfgp.write_text(config_text(str(out_dir), n_measurements=5, noise_level=0.0,
                                omp_iterations_step1=100, outer_iterations=2))
    assert run(["qpat-gammavar", "--config", str(cfgp)]) == 0
    lines = (out_dir / "metrics.csv").read_text().strip().splitlines()
    assert lines[0] == "stage,N,error,residual"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["step1_mu", "iter1_mu", "iter2_mu", "final_D"]
    assert all(r[1] == "5" for r in rows)
    # only step 1 runs a pursuit, so only its row carries a residual
    assert float(rows[0][3]) > 0
    assert [r[3] for r in rows[1:]] == ["0.0", "0.0", "0.0"]
    names = ["mu", "mu_baseline", "D"] + [f"u_{i}" for i in range(1, 6)]
    for name in names:
        assert read_rg2(str(out_dir / f"{name}.rg2")).side == 32


@pytest.mark.parametrize("band", [-2, 16, 40])
def test_qpat_gammavar_rejects_bad_boundary_band(tmp_path, capsys, band):
    cfgp = tmp_path / "run.cfg"
    out_dir = tmp_path / "out"
    cfgp.write_text(config_text(str(out_dir), n_measurements=5, noise_level=0.0,
                                omp_iterations_step1=100, outer_iterations=1,
                                boundary_band=band))
    assert run(["qpat-gammavar", "--config", str(cfgp)]) == 1
    assert "boundary_band" in capsys.readouterr().err
    assert not out_dir.exists()
