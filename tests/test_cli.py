import atexit
import gc
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

from statinv.cli import main
from statinv.errors import ConfigError
from statinv.harness import METHODS, build_study, choose, config_from_mapping, parse_config

BASE_CFG = """
operator.kind = integration
operator.n = 64
signal.kind = smooth
noise.kind = {noise}
delta_list = 0.1, 0.05
replicates = 3
seed = 7
method = {method}
study = mse
schedule.c2 = 0.0
schedule.n_max = 64
"""


def _cfg_file(tmp_path, noise="gaussian_white", method="oracle", extra=""):
    path = tmp_path / "run.cfg"
    path.write_text(BASE_CFG.format(noise=noise, method=method) + extra)
    return str(path)


def test_missing_config_exits_2(tmp_path, capsys):
    code = main(["converge", "--config", str(tmp_path / "missing.cfg")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_method_exits_2(tmp_path):
    cfg = _cfg_file(tmp_path)
    assert main(["choose", "--config", cfg, "--method", "lcurve"]) == 2


@pytest.mark.parametrize(
    "flags, extra",
    [
        (["--seed", "-1"], ""),
        ([], "seed = -3\n"),
        ([], "signal.kind = foo\n"),
        ([], "signal.kind = source\nsignal.nu = -1\n"),
        # delta^2 underflows: no alpha grid at the true delta
        ([], "delta_list = 1e-170\n"),
        (["--method", "lepskii_known_delta"], "delta_list = 1e-170\n"),
    ],
    ids=["seed_flag", "seed_key", "signal_kind", "source_nu", "tiny_delta", "tiny_delta_known"],
)
def test_invalid_config_exits_2_without_a_traceback(tmp_path, capsys, flags, extra):
    cfg = _cfg_file(tmp_path, extra=extra)
    assert main(["converge", "--config", cfg, "--out", str(tmp_path / "x.csv"), *flags]) == 2
    assert capsys.readouterr().err.startswith("config error")
    assert not (tmp_path / "x.csv").exists()


def test_tiny_delta_still_runs_the_estimated_delta_study(tmp_path):
    # the data-driven rule never reads the true delta's grid
    cfg = _cfg_file(tmp_path, method="lepskii_estimated_delta", extra="delta_list = 1e-170\n")
    assert main(["converge", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 0
    assert (tmp_path / "x.csv").read_text().splitlines()[1].startswith(format(1e-170, ".17g") + ",")


@pytest.mark.parametrize(
    "command, delta",
    [("converge", "1e154"), ("estimate-noise", "1e200")],
    ids=["converge", "estimate_noise"],
)
def test_overflowing_noise_level_estimate_exits_3(tmp_path, capsys, command, delta):
    # the squared differences of the data overflow: no estimate, not an infinite one
    cfg = _cfg_file(tmp_path, method="lepskii_estimated_delta", extra=f"delta_list = {delta}\n")
    out = tmp_path / "x.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("numerical failure: the noise-level estimate overflows")
    assert "delta_hat" not in captured.out
    assert not out.exists()


def test_simulate_is_deterministic(tmp_path):
    cfg = _cfg_file(tmp_path)
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--config", cfg, "--seed", "7", "--out", str(out_a)]) == 0
    assert main(["simulate", "--config", cfg, "--seed", "7", "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_simulate_without_out_exits_2(tmp_path):
    cfg = _cfg_file(tmp_path)
    assert main(["simulate", "--config", cfg]) == 2
    assert main(["simulate", "--config", cfg, "--out", ""]) == 2


def test_unwritable_out_exits_2(tmp_path, capsys):
    cfg = _cfg_file(tmp_path)
    code = main(["converge", "--config", cfg, "--out", str(tmp_path / "no" / "dir" / "x.csv")])
    assert code == 2
    assert "cannot write" in capsys.readouterr().err


def test_choose_discrepancy_rejects_white_noise(tmp_path, capsys):
    cfg = _cfg_file(tmp_path, noise="gaussian_white", method="discrepancy")
    code = main(["choose", "--config", cfg])
    assert code == 3
    assert "white-noise" in capsys.readouterr().err


def test_choose_discrepancy_on_dirac(tmp_path, capsys):
    cfg = _cfg_file(tmp_path, noise="dirac", method="discrepancy")
    assert main(["choose", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "method = discrepancy" in out
    assert "alpha" in out


def test_choose_lepskii_known(tmp_path, capsys):
    cfg = _cfg_file(tmp_path, method="lepskii_known_delta")
    assert main(["choose", "--config", cfg]) == 0
    assert "j_star" in capsys.readouterr().out


def _noise_for(method):
    # the discrepancy principle refuses white noise
    return "dirac" if method == "discrepancy" else "gaussian_white"


@pytest.mark.parametrize("method", METHODS)
def test_choose_writes_csv_row(tmp_path, capsys, method):
    cfg = _cfg_file(tmp_path, noise=_noise_for(method), method=method)
    out = tmp_path / "choice.csv"
    assert main(["choose", "--config", cfg, "--out", str(out)]) == 0
    assert f"method = {method}" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == "delta,delta_hat,j_star,alpha_star,error,flags"
    assert len(lines) == 2
    delta, delta_hat, j_star, alpha_star, error, _ = lines[1].split(",")
    assert delta == "0.10000000000000001"  # 0.1 at 17 digits
    assert (delta_hat != "") == (method == "lepskii_estimated_delta")
    assert (j_star != "") == method.startswith("lepskii")
    assert float(alpha_star) > 0 and float(error) >= 0


@pytest.mark.parametrize("method", METHODS)
def test_harness_and_cli_choose_same_alpha(tmp_path, capsys, method):
    path = _cfg_file(tmp_path, noise=_noise_for(method), method=method)
    out = tmp_path / "choice.csv"
    assert main(["choose", "--config", path, "--out", str(out)]) == 0
    capsys.readouterr()
    cli_alpha = float(out.read_text().splitlines()[1].split(",")[3])
    cfg = parse_config(path)
    study = build_study(cfg)
    # the first replicate of the first delta, as in run_mse_study
    chosen = choose(study, cfg.method, study.batch(0, [0]))
    assert chosen.alpha.tolist() == [cli_alpha]


@pytest.mark.parametrize(
    "extra",
    [
        "delta_list = nan\n",
        "method = lepskii_estimated_delta\nestimator.tau = nan\n",
        "lepskii.q = inf\n",
    ],
)
def test_non_finite_config_exits_2(tmp_path, capsys, extra):
    cfg = _cfg_file(tmp_path, extra=extra)
    assert main(["converge", "--config", cfg, "--out", str(tmp_path / "rows.csv")]) == 2
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra, message",
    [
        ("choice.tau_dp = 0.5\n", "choice.tau_dp must be > 1"),
        ("lepskii.q = 1.0\n", "lepskii.q must be > 1"),
        ("lepskii.C_psi = -1\n", "lepskii.C_psi must be positive"),
    ],
    ids=["tau_dp", "q", "C_psi"],
)
def test_invalid_rule_parameter_exits_2(tmp_path, capsys, extra, message):
    # the rules reject these too, but only once a batch reaches them
    cfg = _cfg_file(tmp_path, noise="dirac", method="discrepancy", extra=extra)
    assert main(["choose", "--config", cfg]) == 2
    assert f"config error: {message}" in capsys.readouterr().err


def test_prime_operator_n_exits_2(tmp_path, capsys):
    # levels are divisors of operator.n: a prime n would put every level on the fine grid
    with pytest.raises(ConfigError, match="1021"):
        config_from_mapping({"operator.n": "1021"})
    cfg = _cfg_file(tmp_path, extra="operator.n = 61\n")
    assert main(["converge", "--config", cfg, "--out", str(tmp_path / "rows.csv")]) == 2
    assert "operator.n = 61 has no level between its divisors 1 and 61" in capsys.readouterr().err
    assert not (tmp_path / "rows.csv").exists()


@pytest.mark.parametrize("n, gap", [(1018, "2 and 509"), (1022, "2 and 7")])
def test_twice_prime_operator_n_exits_2(tmp_path, capsys, n, gap):
    # n = 2p would put every level below n/2 on the single level p
    cfg = _cfg_file(tmp_path, extra=f"operator.n = {n}\n")
    assert main(["converge", "--config", cfg, "--out", str(tmp_path / "rows.csv")]) == 2
    assert f"operator.n = {n} has no level between its divisors {gap}" in capsys.readouterr().err
    assert not (tmp_path / "rows.csv").exists()


@pytest.mark.parametrize("n", [64, 96, 100, 256, 512, 1000, 1024, 2048])
def test_operator_n_with_a_dense_divisor_ladder_is_accepted(n):
    assert config_from_mapping({"operator.n": str(n)}).operator_n == n


@pytest.mark.parametrize("command", ["converge", "estimate-noise"])
def test_estimator_start_level_beyond_the_grid_exits_2(tmp_path, capsys, command):
    # the first estimator level would not exist: refinement would return delta_hat = 0
    with pytest.raises(ConfigError, match="estimator.n0 = 128 exceeds operator.n = 64"):
        config_from_mapping({"operator.n": "64", "estimator.n0": "128"})
    cfg = _cfg_file(tmp_path, method="lepskii_estimated_delta", extra="estimator.n0 = 128\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "rows.csv")]) == 2
    assert "estimator.n0 = 128 exceeds operator.n = 64" in capsys.readouterr().err
    assert not (tmp_path / "rows.csv").exists()
    assert config_from_mapping({"operator.n": "64", "estimator.n0": "64"}).estimator.n0 == 64


def test_estimate_noise(tmp_path, capsys):
    cfg = _cfg_file(tmp_path)
    assert main(["estimate-noise", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "delta_hat" in out
    assert "converged" in out


def test_converge_writes_csv(tmp_path):
    cfg = _cfg_file(tmp_path)
    out = tmp_path / "rows.csv"
    assert main(["converge", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("delta,method,mc_mse")
    assert len(lines) == 3  # header + two deltas


def test_converge_veto_study(tmp_path):
    path = tmp_path / "veto.cfg"
    path.write_text(
        BASE_CFG.format(noise="gaussian_white", method="lepskii_estimated_delta")
        + "study = veto\nsignal.kind = source\nsignal.amplitude = 10.0\n"
    )
    out = tmp_path / "veto.csv"
    assert main(["converge", "--config", str(path), "--out", str(out)]) == 0
    assert out.read_text().startswith("delta,mse_known,mse_estimated")


def test_no_subcommand_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


# Records every Lepskii j* while ``statinv converge`` runs, then prints them as JSON.
_RECORD_J_STAR = """
import json, sys
import statinv.harness as harness
from statinv.cli import main

seen = []
real_choose = harness.choose

def recording_choose(study, method, data):
    chosen = real_choose(study, method, data)
    seen.extend([method, v] for v in chosen.j_star.tolist())
    return chosen

harness.choose = recording_choose
code = main(sys.argv[1:])
print(json.dumps(seen))
sys.exit(code)
"""

VETO_SMALL_CFG = """
operator.kind = integration
operator.n = 256
signal.kind = source
signal.amplitude = 10.0
noise.kind = gaussian_white
delta_list = 0.1, 0.03, 0.01
replicates = 12
seed = 20260811
method = lepskii_estimated_delta
study = veto
schedule.c2 = 0.0
schedule.n_max = 256
"""


def test_converge_is_independent_of_the_blas_thread_count(tmp_path):
    # the stacked products must not pick a thread-dependent summation order
    cfg = tmp_path / "veto.cfg"
    cfg.write_text(VETO_SMALL_CFG)
    src = str(Path(__file__).resolve().parents[1] / "src")
    runs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        for attempt in ("a", "b"):
            out = tmp_path / f"veto_{threads}{attempt}.csv"
            proc = subprocess.run(
                [sys.executable, "-c", _RECORD_J_STAR, "converge", "--config", str(cfg), "--out", str(out)],
                env=env, capture_output=True, text=True, check=True,
            )
            runs[threads, attempt] = (out.read_bytes(), json.loads(proc.stdout.splitlines()[-1]))
    for threads in ("1", "2"):
        assert runs[threads, "a"] == runs[threads, "b"]  # reruns: identical bytes and j*
    one, two = runs["1", "a"], runs["2", "a"]
    assert one[1] == two[1]
    assert len(one[1]) == 2 * 3 * 12

    def columns(csv_bytes):
        header, *lines = csv_bytes.decode().splitlines()
        names = header.split(",")
        return [{k: v for k, v in zip(names, line.split(",")) if k in ("m", "hit_rate")} for line in lines]

    assert columns(one[0]) == columns(two[0])


_RECORD_ALPHA = _RECORD_J_STAR.replace("chosen.j_star", "chosen.alpha")


@pytest.mark.parametrize("noise, method", [("gaussian_white", "oracle"), ("dirac", "discrepancy")])
def test_min_kernel_choices_are_independent_of_the_blas_thread_count(tmp_path, noise, method):
    # the batched residual of a dense operator runs one BLAS product per row
    cfg = tmp_path / "min_kernel.cfg"
    cfg.write_text(BASE_CFG.format(noise=noise, method=method).replace("= integration", "= min_kernel"))
    src = str(Path(__file__).resolve().parents[1] / "src")
    runs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        for attempt in ("a", "b"):
            out = tmp_path / f"{method}_{threads}{attempt}.csv"
            proc = subprocess.run(
                [sys.executable, "-c", _RECORD_ALPHA, "converge", "--config", str(cfg), "--out", str(out)],
                env=env, capture_output=True, text=True, check=True,
            )
            runs[threads, attempt] = (out.read_bytes(), json.loads(proc.stdout.splitlines()[-1]))
    # reruns and thread counts: identical CSV bytes and chosen alphas
    assert runs["1", "a"] == runs["1", "b"] == runs["2", "a"] == runs["2", "b"]
    assert len(runs["1", "a"][1]) == 2 * 3


@pytest.mark.parametrize("cfg_text", [VETO_SMALL_CFG, BASE_CFG.format(noise="gaussian_white", method="oracle")])
def test_converge_does_not_import_numpy_ma(tmp_path, cfg_text):
    # the first np.unique imports numpy.ma, about 20 ms inside the timed study
    cfg = tmp_path / "study.cfg"
    cfg.write_text(cfg_text)
    script = (
        "import sys\nfrom statinv.cli import main\n"
        f"code = main(['converge', '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'out.csv')!r}])\n"
        "print('numpy.ma' in sys.modules)\nsys.exit(code)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "False"


# The exit hook: a process that ran ``main`` freezes the import graph at exit,
# so that the interpreter's last collection skips it.
CAPPED_VETO_CFG = VETO_SMALL_CFG.replace("schedule.c2 = 0.0", "schedule.c2 = 1.0").replace(
    "schedule.n_max = 256", "schedule.n_max = 64"
)
SRC = str(Path(__file__).resolve().parents[1] / "src")


def _run_python(args, **kwargs):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, **kwargs)


def test_converge_process_matches_in_process_run(tmp_path, capsys, caplog):
    # a capped study: its n_max warnings reach stderr through logging's last-resort handler
    cfg = tmp_path / "capped.cfg"
    cfg.write_text(CAPPED_VETO_CFG)
    sub_out, in_out = tmp_path / "sub.csv", tmp_path / "in.csv"
    proc = _run_python(["-m", "statinv.cli", "converge", "--config", str(cfg), "--out", str(sub_out)])
    assert proc.returncode == 0, proc.stderr
    with caplog.at_level(logging.WARNING):
        assert main(["converge", "--config", str(cfg), "--out", str(in_out)]) == 0
    assert sub_out.read_bytes() == in_out.read_bytes()
    assert proc.stdout.replace(str(sub_out), str(in_out)) == capsys.readouterr().out
    warnings = proc.stderr.splitlines()
    assert warnings == [record.getMessage() for record in caplog.records]
    assert len(warnings) > 0 and all("capping at n_max=64" in line for line in warnings)


# Registered before ``main`` runs, so atexit calls it after every handler ``main`` adds.
_FREEZE_COUNT_AT_EXIT = """
import atexit, gc, sys
atexit.register(lambda: print("freeze_count", gc.get_freeze_count()))
from statinv.cli import main
if sys.argv[1:]:
    sys.exit(main(sys.argv[1:]))
"""


def test_main_freezes_the_import_graph_at_exit_only(tmp_path):
    cfg = _cfg_file(tmp_path)
    ran = _run_python(["-c", _FREEZE_COUNT_AT_EXIT, "converge", "--config", cfg, "--out", str(tmp_path / "a.csv")])
    imported = _run_python(["-c", _FREEZE_COUNT_AT_EXIT])
    assert ran.returncode == imported.returncode == 0, ran.stderr + imported.stderr
    assert int(ran.stdout.splitlines()[-1].split()[1]) > 0
    # importing statinv.cli as a library leaves the interpreter's exit unchanged
    assert imported.stdout.splitlines() == ["freeze_count 0"]


def test_main_leaves_the_collector_alone_while_it_runs(tmp_path):
    cfg = _cfg_file(tmp_path)
    frozen, enabled, thresholds = gc.get_freeze_count(), gc.isenabled(), gc.get_threshold()
    assert main(["converge", "--config", cfg, "--out", str(tmp_path / "a.csv")]) == 0
    handlers = atexit._ncallbacks()
    assert main(["converge", "--config", cfg, "--out", str(tmp_path / "b.csv")]) == 0
    assert atexit._ncallbacks() == handlers  # CPython's handler count: the hook is registered once
    assert (gc.get_freeze_count(), gc.isenabled(), gc.get_threshold()) == (frozen, enabled, thresholds)
