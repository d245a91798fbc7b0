import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import longmem.bootstrap as bmod
import longmem.cli as cmod
from longmem import (
    ArfimaParams,
    BootstrapConfig,
    EstimatorSpec,
    bias_correct,
    estimate,
    simulate_gaussian,
)
from longmem.cli import main
from longmem.harness import _KEYS, load_design
from longmem.streams import generator_at

# One valid value per design key.
VALID = {
    "T": "64", "d": "0", "phi": "0.3", "R": "2", "B": "16",
    "estimators": "lpr0, lpr0-bba1", "mode": "parametric", "law": "gaussian",
    "seed": "3", "bandwidth_exp": "0.7", "max_iter": "10",
}

# A design line the run would change or could not run, and the message
# that names its key; every key has at least one.
EXIT_2_CASES = [
    ("T = 64.7", "T must be an integer"),
    ("T = 1e2", "T must be an integer"),
    ("T = 64, 100.0", "T must be an integer"),
    ("R = 2.0", "R must be an integer"),
    ("R = two", "R must be an integer"),
    ("B = 16.0", "B must be an integer"),
    ("seed = 1.5", "seed must be an integer"),
    ("max_iter = 1e9", "max_iter must be an integer"),
    ("T = 64, 64", "repeated T"),
    ("d = 0, 0.0", "repeated d"),
    ("phi = 0.3, 0.30", "repeated phi"),
    ("estimators = lpr0-bba1, lpr0, lpr0-bba1", "repeated task"),
    # Malformed text for every other key.
    ("d = 0.3x", "d must be a number, got '0.3x'"),
    ("phi = 0.3, 0.6x", "phi must be a number, got '0.6x'"),
    ("estimators = lprx", "estimators: missing correction order in 'lprx'"),
    ("mode = bogus", "mode must be one of"),
    ("law = bogus", "law must be"),
    ("bandwidth_exp = 0.7x", "bandwidth_exp must be a number, got '0.7x'"),
]


def run_cli(*args, env_extra=None, cwd=None):
    env = {**os.environ, **(env_extra or {})}
    return subprocess.run(
        [sys.executable, "-m", "longmem.cli", *args],
        capture_output=True, text=True, env=env, cwd=cwd,
    )


@pytest.fixture()
def series_file(tmp_path):
    path = tmp_path / "series.csv"
    proc = run_cli(
        "simulate", "--d", "0.2", "--phi", "0.3", "--T", "300",
        "--seed", "5", "--out", str(path),
    )
    assert proc.returncode == 0
    return path


class TestSimulate:
    def test_writes_one_column(self, series_file):
        data = np.loadtxt(series_file)
        assert data.shape == (300,)

    def test_seed_reproducible(self, tmp_path, series_file):
        other = tmp_path / "again.csv"
        run_cli("simulate", "--d", "0.2", "--phi", "0.3", "--T", "300",
                "--seed", "5", "--out", str(other))
        assert Path(series_file).read_text() == other.read_text()

    def test_environment_seed_ignored(self, tmp_path):
        # The output depends on the command line alone, so a seed in the
        # environment changes no byte.
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("T = 64\nd = 0, 0.3\nphi = 0.3\nR = 3\nestimators = lpr0\n")
        outputs = []
        for env in ({}, {"LONGMEM_SEED": "9"}):
            sim = tmp_path / f"sim{len(outputs)}.csv"
            mc = tmp_path / f"mc{len(outputs)}"
            assert run_cli("simulate", "--d", "0.2", "--phi", "0.3", "--T", "50",
                           "--out", str(sim), env_extra=env).returncode == 0
            assert run_cli("mc-run", "--config", str(cfg), "--out-dir", str(mc),
                           env_extra=env).returncode == 0
            outputs.append((sim.read_bytes(), (mc / "results.csv").read_bytes()))
        assert outputs[0] == outputs[1]

    def test_multiple_series_columns(self, tmp_path):
        path = tmp_path / "multi.csv"
        run_cli("simulate", "--d", "0.0", "--phi", "0.3", "--T", "50",
                "--n", "3", "--seed", "1", "--out", str(path))
        data = np.loadtxt(path, delimiter=",")
        assert data.shape == (50, 3)

    def test_columns_equal_one_row_draws(self, tmp_path):
        path = tmp_path / "multi.csv"
        assert main(["simulate", "--d", "0.3", "--phi", "0.6", "--T", "80",
                     "--n", "4", "--seed", "6", "--law", "student-t:7",
                     "--out", str(path)]) == 0
        params = ArfimaParams(d=0.3, phi=0.6, law="student-t:7")
        cols = [simulate_gaussian(params, 80, generator_at(6, i)) for i in range(4)]
        want = tmp_path / "want.csv"
        np.savetxt(want, np.column_stack(cols), fmt="%.17g", delimiter=",")
        assert path.read_bytes() == want.read_bytes()

    def test_student_t_law(self, tmp_path):
        path = tmp_path / "t.csv"
        proc = run_cli("simulate", "--d", "0.1", "--phi", "0.0", "--T", "50",
                       "--law", "student-t:6", "--seed", "2", "--out", str(path))
        assert proc.returncode == 0

    def test_bad_law_exit_2(self, tmp_path):
        out = tmp_path / "x.csv"
        for law in ("cauchy", "student-t7", "student-tx:3", "gaussian:3",
                    "student-t:inf"):
            proc = run_cli("simulate", "--d", "0.1", "--phi", "0.0", "--T", "50",
                           "--law", law, "--out", str(out))
            assert proc.returncode == 2
            assert not out.exists()


class TestEstimate:
    def test_prints_point_estimate(self, series_file):
        proc = run_cli("estimate", "--in", str(series_file),
                       "--family", "lpr", "--P", "0")
        assert proc.returncode == 0
        fields = dict(line.split() for line in proc.stdout.splitlines())
        assert set(fields) == {"d_hat", "asymptotic_sd", "N"}
        assert fields["N"] == "54"  # floor(300**0.7)
        assert abs(float(fields["d_hat"])) < 1.5

    def test_invalid_choice_exit_2(self, series_file):
        proc = run_cli("estimate", "--in", str(series_file), "--family", "ols")
        assert proc.returncode == 2

    def test_missing_file_exit_2(self):
        proc = run_cli("estimate", "--in", "no-such-file.csv", "--family", "lpr")
        assert proc.returncode == 2

    @pytest.mark.parametrize("command", [["estimate"], ["bias-correct", "--B", "20"]])
    def test_multi_column_input_exit_2(self, tmp_path, capsys, command):
        path = tmp_path / "multi.csv"
        assert main(["simulate", "--d", "0.2", "--phi", "0.3", "--T", "100",
                     "--n", "3", "--seed", "1", "--out", str(path)]) == 0
        assert main([*command, "--in", str(path), "--family", "lpr"]) == 2
        assert "3 columns" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["estimate"], ["bias-correct", "--B", "20"]])
    def test_empty_input_exit_2(self, tmp_path, command):
        path = tmp_path / "empty.csv"
        path.write_text("")
        proc = run_cli(*command, "--in", str(path), "--family", "lpr")
        assert proc.returncode == 2
        assert proc.stderr == f"error: {path} has no observations\n"

    def test_degenerate_input_exit_3(self, tmp_path):
        path = tmp_path / "const.csv"
        path.write_text("\n".join(["1.0"] * 100) + "\n")
        proc = run_cli("estimate", "--in", str(path), "--family", "lpr")
        assert proc.returncode == 3


class TestBiasCorrect:
    def test_one_shot_output(self, series_file):
        proc = run_cli("bias-correct", "--in", str(series_file),
                       "--family", "lpr", "--P", "1", "--B", "40",
                       "--mode", "parametric", "--seed", "3")
        assert proc.returncode == 0
        out = proc.stdout
        for key in ("d_hat", "d_tilde", "bias_hat", "hpd95"):
            assert key in out

    @pytest.mark.parametrize("mode", ["parametric", "nonparametric"])
    def test_one_shot_prints_bias_correct(self, series_file, capsys, mode):
        # The one-shot output is bias_correct pre-filtered by the estimate.
        assert main(["bias-correct", "--in", str(series_file), "--family", "splw",
                     "--P", "1", "--B", "40", "--mode", mode, "--seed", "3"]) == 0
        y = np.loadtxt(series_file)
        spec = EstimatorSpec("splw", 1)
        cfg = BootstrapConfig(B=40, innovation_mode=mode, rng_stream=3)
        out = bias_correct(y, spec, estimate(y, spec).d_hat, cfg)
        assert capsys.readouterr().out == (
            f"d_hat {out.d_hat:.10g}\n"
            f"d_tilde {out.d_tilde:.10g}\n"
            f"bias_hat {out.bias_hat:.10g}\n"
            f"hpd95 {out.hpd[0]:.10g} {out.hpd[1]:.10g}\n"
        )

    def test_iterate_prints_trace(self, series_file):
        proc = run_cli("bias-correct", "--in", str(series_file),
                       "--family", "splw", "--P", "0", "--B", "40",
                       "--iterate", "--max-iter", "3", "--seed", "3")
        assert proc.returncode == 0
        assert "stop_reason" in proc.stdout
        assert "iter 0" in proc.stdout

    def test_one_shot_estimates_data_once(self, series_file, monkeypatch, capsys):
        y = np.loadtxt(series_file)
        on_data = {"n": 0}
        real = cmod.estimate

        def counting(series, spec):
            on_data["n"] += np.array_equal(series, y)
            return real(series, spec)

        monkeypatch.setattr(cmod, "estimate", counting)
        monkeypatch.setattr(bmod, "estimate", counting)
        assert main(["bias-correct", "--in", str(series_file), "--family",
                     "splw", "--P", "1", "--B", "20", "--seed", "3"]) == 0
        assert on_data["n"] == 1
        assert "d_tilde" in capsys.readouterr().out

    @pytest.mark.parametrize("B", ["2", "5", "9"])
    @pytest.mark.parametrize("form", [[], ["--iterate"]])
    def test_too_few_draws_exit_2_before_any_estimate(self, series_file, monkeypatch,
                                                       capsys, form, B):
        def forbidden(*args):
            raise AssertionError("estimate called")

        for module, name in ((cmod, "estimate"), (bmod, "estimate"),
                             (bmod, "_ordinates")):
            monkeypatch.setattr(module, name, forbidden)
        assert main(["bias-correct", "--in", str(series_file), "--family", "lpr",
                     "--B", B, *form]) == 2
        assert "at least B = 10" in capsys.readouterr().err

    def test_zero_max_iter_exit_2_before_any_estimate(self, series_file, monkeypatch,
                                                      capsys):
        def forbidden(*args):
            raise AssertionError("estimate called")

        for module, name in ((cmod, "estimate"), (bmod, "estimate"),
                             (bmod, "_ordinates")):
            monkeypatch.setattr(module, name, forbidden)
        assert main(["bias-correct", "--in", str(series_file), "--family", "lpr",
                     "--B", "20", "--iterate", "--max-iter", "0"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "max_iter must be >= 1" in err

    def test_deterministic_given_seed(self, series_file):
        args = ("bias-correct", "--in", str(series_file), "--family", "lpr",
                "--P", "0", "--B", "40", "--seed", "9")
        assert run_cli(*args).stdout == run_cli(*args).stdout

    @pytest.mark.parametrize("form", [[], ["--iterate"]])
    @pytest.mark.parametrize(
        "shift, scale", [(1.0, 1), (10.0, 1), (1e3, 1), (-1e6, 1), (0, 1e-3), (0, 1e3)]
    )
    def test_level_and_scale_do_not_matter(self, series_file, tmp_path, capsys,
                                           form, shift, scale):
        y = np.loadtxt(series_file)
        moved = tmp_path / "moved.csv"
        np.savetxt(moved, y * scale + shift, fmt="%.17g")
        outputs = []
        for path in (series_file, moved):
            assert main(["bias-correct", "--in", str(path), "--family", "splw",
                         "--P", "1", "--B", "40", "--mode", "nonparametric",
                         "--seed", "3", *form]) == 0
            outputs.append(capsys.readouterr().out)
        if shift == 0:
            # Scaling rounds each value relative to itself; the printed
            # output does not change by a byte.
            assert outputs[0] == outputs[1]
            return
        # y + c rounds each value by up to |c| 2**-53; a printed number may
        # move by a thousand times that plus one unit of its last digit.
        want, got = (out.split() for out in outputs)
        assert len(got) == len(want)
        for a, b in zip(want, got):
            try:
                u, v = float(a), float(b)
            except ValueError:
                assert a == b
                continue
            digits = len(a.split("e")[0].lstrip("-").replace(".", "").lstrip("0"))
            assert abs(u - v) <= 1e-13 * (1 + abs(shift)) + abs(u) * 10.0 ** (1 - digits)


class TestMcRun:
    def test_writes_results_and_tables(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "T = 64\nd = 0.0, 0.2\nphi = 0.3\nR = 2\nB = 16\n"
            "estimators = lpr0, lpr0-bba1\nseed = 4\n"
        )
        out = tmp_path / "out"
        proc = run_cli("mc-run", "--config", str(cfg), "--out-dir", str(out),
                       "--threads", "2")
        assert proc.returncode == 0
        assert (out / "results.csv").exists()
        assert (out / "tables.txt").exists()
        header = (out / "results.csv").read_text().splitlines()[0]
        assert header == "T,d,phi,estimator,P,correction,K,statistic,value,R_effective,seed"

    def test_bad_config_exit_2(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        out = tmp_path / "o"
        boot = "T = 64\nd = 0\nphi = 0.3\nR = 2\nB = 16\nestimators = lpr0-ssr-hpd\n"
        for text in (
            "T = 64\nnope = 1\n",
            "T = 64\nd = 0\nphi = 0.3\nR = 2\nestimators = lpr0\nlaw = bogus\n",
            "T = 64\nd = 0\nphi = 0.3\nR = 2\nestimators = lpr0\nlaw = student-t7\n",
            "T = 64\nd = 0\nphi = 0.3\nR = 2\nestimators = lpr0\nseed = -1\n",
            boot.replace("lpr0-ssr-hpd", "splw0-bba2-ssr"),
            boot + "max_iter = 0\n",
            boot + "hpd_tails = 0.05, 0.05\n",
            "T = 64\nd = 0\nphi = 0.3\nR = 2\nB = 5\nestimators = lpr0-bba1\n",
        ):
            cfg.write_text(text)
            proc = run_cli("mc-run", "--config", str(cfg), "--out-dir", str(out))
            assert proc.returncode == 2
            assert not out.exists()

    @pytest.mark.parametrize("line, message", EXIT_2_CASES)
    def test_design_the_run_would_change_exit_2(self, tmp_path, capsys, line,
                                                 message):
        values = {"T": "64", "d": "0", "phi": "0.3", "R": "2", "B": "16",
                  "estimators": "lpr0, lpr0-bba1"}
        key, _, value = line.partition(" = ")
        values[key] = value
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        out = tmp_path / "o"
        assert main(["mc-run", "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_every_key_has_a_malformed_case(self):
        keys = {line.partition(" = ")[0] for line, _ in EXIT_2_CASES}
        assert keys == set(_KEYS)
        assert set(VALID) == set(_KEYS)

    @pytest.mark.parametrize("key", sorted(_KEYS))
    def test_repeated_key_exit_2(self, tmp_path, capsys, key):
        cfg = tmp_path / "cfg.txt"
        text = "".join(f"{k} = {v}\n" for k, v in VALID.items())
        cfg.write_text(text)
        load_design(cfg)  # valid until the key comes back
        cfg.write_text(text + f"{key} = {VALID[key]}\n")
        first = list(VALID).index(key) + 1
        out = tmp_path / "o"
        assert main(["mc-run", "--config", str(cfg), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}:{len(VALID) + 1}: key '{key}' repeated (first on line {first})" in err
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exit_2(self, tmp_path, threads):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("T = 64\nd = 0\nphi = 0.3\nR = 2\nestimators = lpr0\n")
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exit_info:
            main(["mc-run", "--config", str(cfg), "--out-dir", str(out),
                  "--threads", threads])
        assert exit_info.value.code == 2
        assert not out.exists()

    def test_missing_config_exit_2(self, tmp_path):
        proc = run_cli("mc-run", "--config", str(tmp_path / "none.txt"),
                       "--out-dir", str(tmp_path / "o"))
        assert proc.returncode == 2


class TestNumpyOnlyRuntime:
    def test_import_loads_no_scipy(self):
        code = (
            "import sys, longmem, longmem.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_commands_run_with_scipy_blocked(self, tmp_path):
        # None in sys.modules makes every import of scipy (or a submodule)
        # raise, so a lazy import anywhere on these paths would fail.
        code = f"""
import sys
sys.modules["scipy"] = None
import numpy as np
import longmem as lm
from longmem.cli import main

d = {str(tmp_path)!r}
assert main(["simulate", "--d", "0.2", "--phi", "0.3", "--T", "200",
             "--seed", "4", "--out", d + "/y.csv"]) == 0
assert main(["estimate", "--in", d + "/y.csv", "--family", "lpr", "--P", "1"]) == 0
assert main(["bias-correct", "--in", d + "/y.csv", "--family", "splw", "--P", "1",
             "--B", "20", "--iterate", "--max-iter", "2", "--seed", "3"]) == 0
with open(d + "/cfg.txt", "w") as fh:
    fh.write("T = 64\\nd = 0.2\\nphi = 0.3\\nR = 1\\nB = 12\\n"
             "estimators = lpr1-bba1\\nseed = 5\\n")
assert main(["mc-run", "--config", d + "/cfg.txt", "--out-dir", d + "/out",
             "--threads", "1"]) == 0
fit = lm.mle_fit(np.loadtxt(d + "/y.csv")[:60])
assert np.isfinite(fit.loglik) and fit.diagnostics["converged"]
print("numpy-only ok")
"""
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "numpy-only ok" in proc.stdout
