"""CLI subcommands: file emission, reproducibility, evaluation output."""

import io
import os
import socket
import subprocess
import sys
import threading
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

import eegtd
from eegtd.cli import (
    _apply_config_defaults, _dataset_config, _metric_config, _train_config,
    build_parser, main,
)
from eegtd.core import (
    ClassId, Event, EventSchedule, Recording, load_recording, load_schedule,
    save_recording, save_schedule,
)
from eegtd.dataset import DatasetConfig
from eegtd.metrics import Detection, MetricConfig, write_detections_csv
from eegtd.model import NetConfig, TrainConfig, init_model, save_model
from eegtd.stream import OnlineConfig


def run_cli(args: list[str], capsys) -> tuple[int, str]:
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def subprocess_env() -> dict[str, str]:
    """The environment for a `python -m eegtd.cli` child: its PYTHONPATH
    starts with the directory this test imported eegtd from."""
    src = str(Path(eegtd.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_importing_eegtd_loads_no_scipy():
    # numpy is the only runtime dependency; scipy.signal alone took about a
    # second of every process's start.
    code = ("import sys, eegtd.cli, eegtd.experiment, eegtd.analysis, eegtd.stream; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=subprocess_env(), check=True)
    assert proc.stdout.strip() == "[]"


class TestGenerate:
    def test_emits_readable_files(self, tmp_path, capsys):
        prefix = tmp_path / "v2n"
        code, _ = run_cli(
            ["generate", "--profile", "video2n", "--seed", "7",
             "--out-prefix", str(prefix)],
            capsys,
        )
        assert code == 0
        rec = load_recording(f"{prefix}.eegr")
        sched = load_schedule(f"{prefix}.schedule.csv")
        assert rec.n_samples == 120000
        assert rec.n_channels == 32
        assert len(sched.targets) == 60
        assert sched.total_samples == rec.n_samples

    def test_reproducible_byte_identical(self, tmp_path, capsys):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for prefix in (a, b):
            code, _ = run_cli(
                ["generate", "--profile", "video1", "--seed", "9",
                 "--out-prefix", str(prefix)],
                capsys,
            )
            assert code == 0
        assert Path(f"{a}.eegr").read_bytes() == Path(f"{b}.eegr").read_bytes()
        assert Path(f"{a}.schedule.csv").read_text() == Path(f"{b}.schedule.csv").read_text()

    def test_different_seed_differs(self, tmp_path, capsys):
        a = tmp_path / "a"
        b = tmp_path / "b"
        run_cli(["generate", "--profile", "video1", "--seed", "1",
                 "--out-prefix", str(a)], capsys)
        run_cli(["generate", "--profile", "video1", "--seed", "2",
                 "--out-prefix", str(b)], capsys)
        assert Path(f"{a}.eegr").read_bytes() != Path(f"{b}.eegr").read_bytes()


class TestEvaluate:
    @pytest.fixture()
    def fixture_files(self, tmp_path):
        # two true-target events; one detection matching the first
        schedule = EventSchedule(
            75000, 250.0,
            [Event(1000, ClassId.TRUE_TARGET, 250), Event(3000, ClassId.TRUE_TARGET, 250)],
            [],
        )
        sched_path = tmp_path / "s.csv"
        save_schedule(schedule, sched_path)
        det_path = tmp_path / "d.csv"
        with open(det_path, "w", newline="") as fh:
            write_detections_csv([Detection(1100, ClassId.TRUE_TARGET, 0.9)], fh)
        return str(det_path), str(sched_path)

    def test_recall_weighted_form(self, fixture_files, capsys):
        det, sched = fixture_files
        code, out = run_cli(
            ["evaluate", "--detections", det, "--schedule", sched], capsys
        )
        assert code == 0
        # class 1: precision 1, recall 0.5 -> recall-weighted F2 = 0.555556
        assert "class TrueTarget precision=1.000000 recall=0.500000 f_beta=0.555556" in out

    def test_literal_form(self, fixture_files, capsys):
        det, sched = fixture_files
        code, out = run_cli(
            ["evaluate", "--detections", det, "--schedule", sched,
             "--fbeta-form", "literal"],
            capsys,
        )
        assert code == 0
        assert "f_beta=0.833333" in out

    def test_macro_line_present(self, fixture_files, capsys):
        det, sched = fixture_files
        _, out = run_cli(["evaluate", "--detections", det, "--schedule", sched], capsys)
        assert out.strip().splitlines()[-1].startswith("macro_f_beta ")

    def test_infinite_beta_is_one_line(self, fixture_files, capsys):
        det, sched = fixture_files
        code = main(["evaluate", "--detections", det, "--schedule", sched, "--beta", "inf"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.count("error:") == 1
        assert "error: beta must be finite and positive" in captured.err
        assert "nan" not in captured.out


class TestSelftest:
    def test_selftest_passes(self, capsys):
        code, out = run_cli(["selftest"], capsys)
        assert code == 0
        assert out.count("PASS") == 3
        assert "FAIL" not in out


class TestParser:
    def test_every_subcommand_has_help(self):
        parser = build_parser()
        sub_actions = parser._subparsers._group_actions[0]  # noqa: SLF001
        for name, sub in sub_actions.choices.items():
            text = sub.format_help()
            assert "--seed" in text or name == "selftest" and "--seed" in text

    def test_unknown_flag_is_error(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "eegtd.cli", "generate", "--profile", "video1",
             "--out-prefix", str(tmp_path / "x"), "--bogus-flag", "1"],
            capture_output=True,
            text=True,
            env=subprocess_env(),
        )
        assert proc.returncode != 0
        assert "bogus-flag" in proc.stderr

    def test_missing_file_is_clean_error(self, capsys):
        code, _ = run_cli(
            ["evaluate", "--detections", "/nonexistent.csv",
             "--schedule", "/nonexistent2.csv"],
            capsys,
        )
        assert code == 1


class TestFlagTypes:
    def test_numeric_flags_parse_to_numbers(self):
        args = build_parser().parse_args(
            ["generate", "--profile", "video1", "--out-prefix", "x",
             "--seed", "3", "--events-per-class", "4", "--confound-amp", "2"]
        )
        assert (args.seed, args.events_per_class, args.confound_amp) == (3, 4, 2.0)
        assert isinstance(args.confound_amp, float)

    def test_defaults_are_the_library_defaults(self):
        parser = build_parser()
        train = parser.parse_args(
            ["train", "--recording", "r", "--schedule", "s", "--out-model", "m"]
        )
        assert _dataset_config(train, train.window_len, train.stride) == DatasetConfig()
        assert _train_config(train, seed=0, epochs=train.epochs) == TrainConfig()
        online = parser.parse_args(["infer-online", "--connect", "h:1", "--model", "m"])
        assert (online.infer_stride, online.threshold, online.consecutive,
                online.refractory) == astuple(OnlineConfig())
        evaluate = parser.parse_args(["evaluate", "--detections", "d", "--schedule", "s"])
        assert _metric_config(evaluate) == MetricConfig()


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, tmp_path, capsys):
        cfg = tmp_path / "conf"
        cfg.write_text("seed=33\nprofile=video1\n")
        prefix = tmp_path / "fromcfg"
        code, _ = run_cli(
            ["generate", "--config", str(cfg), "--out-prefix", str(prefix),
             "--profile", "video1"],
            capsys,
        )
        assert code == 0
        direct = tmp_path / "direct"
        run_cli(
            ["generate", "--profile", "video1", "--seed", "33",
             "--out-prefix", str(direct)],
            capsys,
        )
        assert Path(f"{prefix}.eegr").read_bytes() == Path(f"{direct}.eegr").read_bytes()

    def test_unparsable_config_value_names_the_flag(self, tmp_path, capsys):
        cfg = tmp_path / "conf"
        cfg.write_text("epochs=many\n")
        with pytest.raises(SystemExit) as info:
            main(["train", "--config", str(cfg), "--recording", "r",
                  "--schedule", "s", "--out-model", "m"])
        assert info.value.code == 2
        assert "--epochs" in capsys.readouterr().err

    def test_config_stride_sets_only_the_training_stride(self, tmp_path):
        cfg = tmp_path / "conf"
        cfg.write_text("stride=50\nwindow_len=200\nthreshold=0.9\n")
        parser = build_parser()
        online = parser.parse_args(_apply_config_defaults(
            parser, ["infer-online", "--config", str(cfg), "--connect", "h:1",
                     "--model", "m"],
        ))
        train = parser.parse_args(
            ["train", "--recording", "r", "--schedule", "s", "--out-model", "m"]
        )
        assert online.infer_stride == OnlineConfig.infer_stride
        assert online.threshold == 0.9
        assert not hasattr(online, "stride")
        assert not hasattr(online, "window_len")
        assert train.stride == 50
        assert train.window_len == 200
        assert not hasattr(train, "threshold")

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "conf"
        cfg.write_text("not_a_real_key=1\n")
        code, _ = run_cli(
            ["generate", "--config", str(cfg), "--profile", "video1",
             "--out-prefix", str(tmp_path / "x")],
            capsys,
        )
        assert code == 1

    def test_config_value_satisfies_a_required_flag(self, small_session, capsys):
        tmp, prefix, _ = small_session
        cfg = tmp / "erp.conf"
        cfg.write_text(f"recording={prefix}.eegr\nschedule={prefix}.schedule.csv\n")
        out = tmp / "erp-from-config.csv"
        code, _ = run_cli(["analyze-erp", "--config", str(cfg), "--out", str(out)], capsys)
        assert code == 0
        assert out.read_text().startswith("class,channel,time_s,value_uv")

    def test_config_value_outside_choices_is_one_line(self, tmp_path, capsys):
        cfg = tmp_path / "conf"
        cfg.write_text("log-level=verbose\n")
        code = main(["generate", "--config", str(cfg), "--profile", "video1",
                     "--out-prefix", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1
        assert err.startswith("error: config key log_level: 'verbose'")


@pytest.fixture(scope="module")
def small_session(tmp_path_factory):
    """A fast miniature pipeline: tiny recording, few epochs."""
    tmp = tmp_path_factory.mktemp("mini")
    prefix = tmp / "mini"
    code = main(
        ["generate", "--profile", "video1", "--seed", "5",
         "--events-per-class", "3", "--out-prefix", str(prefix)]
    )
    assert code == 0
    model_path = tmp / "model.hmdl"
    trace_path = tmp / "trace.csv"
    code = main(
        ["train", "--recording", f"{prefix}.eegr",
         "--schedule", f"{prefix}.schedule.csv",
         "--out-model", str(model_path), "--loss-trace", str(trace_path),
         "--epochs", "2", "--seed", "5"]
    )
    assert code == 0
    return tmp, prefix, model_path


class TestTrainAndDownstream:
    def test_train_outputs(self, small_session):
        tmp, _, model_path = small_session
        from eegtd.model import load_model

        with open(model_path, "rb") as fh:
            model = load_model(fh)
        assert model.config.n_channels == 32
        trace = (tmp / "trace.csv").read_text().splitlines()
        assert trace[0] == "epoch,mean_loss"
        assert len(trace) == 3

    def test_calibrate_runs(self, small_session, capsys):
        tmp, prefix, model_path = small_session
        out_path = tmp / "calibrated.hmdl"
        code, _ = run_cli(
            ["calibrate", "--model", str(model_path),
             "--recording", f"{prefix}.eegr",
             "--schedule", f"{prefix}.schedule.csv",
             "--out-model", str(out_path),
             "--calibration-epochs", "1", "--seed", "6"],
            capsys,
        )
        assert code == 0
        assert out_path.exists()

    def test_analyze_saliency_outputs(self, small_session, capsys):
        tmp, prefix, model_path = small_session
        out = tmp / "saliency.csv"
        layout = tmp / "layout.csv"
        code, _ = run_cli(
            ["analyze-saliency", "--model", str(model_path),
             "--recording", f"{prefix}.eegr",
             "--schedule", f"{prefix}.schedule.csv",
             "--out", str(out), "--layout-out", str(layout), "--seed", "6"],
            capsys,
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "channel,occlusion_importance,gradient_saliency"
        assert len(lines) == 33
        layout_lines = layout.read_text().splitlines()
        assert layout_lines[0] == "channel,x,y"
        assert len(layout_lines) == 33

    def test_model_window_len_drives_calibrate_and_saliency(self, small_session, capsys):
        # Neither command has a window flag: both read the window length from
        # the model, here 200 samples rather than the default 250.
        tmp, prefix, _ = small_session
        data = ["--recording", f"{prefix}.eegr", "--schedule", f"{prefix}.schedule.csv"]
        model_path = tmp / "w200.hmdl"
        assert main(["train", *data, "--out-model", str(model_path),
                     "--window-len", "200", "--epochs", "1"]) == 0
        calibrated = tmp / "w200-calibrated.hmdl"
        code, _ = run_cli(["calibrate", "--model", str(model_path), *data,
                           "--out-model", str(calibrated), "--calibration-epochs", "1"],
                          capsys)
        assert code == 0
        from eegtd.model import load_model

        with open(calibrated, "rb") as fh:
            assert load_model(fh).config.window_len == 200
        out = tmp / "w200-saliency.csv"
        code, _ = run_cli(["analyze-saliency", "--model", str(model_path), *data,
                           "--out", str(out)], capsys)
        assert code == 0
        assert len(out.read_text().splitlines()) == 33

    def test_analyze_erp_outputs(self, small_session, capsys):
        tmp, prefix, _ = small_session
        out = tmp / "erp.csv"
        code, _ = run_cli(
            ["analyze-erp", "--recording", f"{prefix}.eegr",
             "--schedule", f"{prefix}.schedule.csv",
             "--out", str(out), "--seed", "6"],
            capsys,
        )
        assert code == 0
        assert out.read_text().startswith("class,channel,time_s,value_uv")

    def test_analyze_erp_horizon_past_recording_is_one_line(self, small_session, capsys):
        tmp, prefix, _ = small_session
        code = main(["analyze-erp", "--recording", f"{prefix}.eegr",
                     "--schedule", f"{prefix}.schedule.csv",
                     "--out", str(tmp / "erp-long.csv"), "--horizon-s", "1e7"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("error:") == 1
        assert "error: horizon must cover" in err
        assert "Traceback" not in err

    def test_analyze_erp_without_channels_is_one_line(self, small_session, capsys):
        tmp, prefix, _ = small_session
        code = main(["analyze-erp", "--recording", f"{prefix}.eegr",
                     "--schedule", f"{prefix}.schedule.csv",
                     "--out", str(tmp / "erp-none.csv"), "--channels", ","])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("error:") == 1
        assert "error: no channels requested" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, flags", [
        ("train", ["--learning-rate", "nan"]),
        ("train", ["--weight-decay", "inf"]),
        ("calibrate", ["--lr-scale", "nan"]),
    ])
    def test_non_finite_rate_is_one_line(self, small_session, capsys, command, flags):
        tmp, prefix, model_path = small_session
        args = [command, "--recording", f"{prefix}.eegr",
                "--schedule", f"{prefix}.schedule.csv",
                "--out-model", str(tmp / "never.hmdl"), *flags]
        if command == "calibrate":
            args += ["--model", str(model_path)]
        code = main(args)
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("error:") == 1
        assert "must be finite and >= 0" in err
        assert "Traceback" not in err
        assert not (tmp / "never.hmdl").exists()


class TestInferOnlineErrors:
    def test_protocol_error_is_one_line(self, tmp_path, capsys):
        model_path = tmp_path / "m.hmdl"
        net = NetConfig(n_channels=2, window_len=20, temporal_filters=2,
                        deep_filters=(2,), kernel_len=3, pool_len=2, dense_hidden=4)
        with open(model_path, "wb") as fh:
            save_model(init_model(net, seed=1), fh)
        listener = socket.create_server(("127.0.0.1", 0))
        host, port = listener.getsockname()[:2]

        def bad_magic():
            with listener:
                conn, _ = listener.accept()
                with conn:
                    conn.sendall(b"NOPE" + bytes(12))

        peer = threading.Thread(target=bad_magic, daemon=True)
        peer.start()
        code = main(["infer-online", "--connect", f"{host}:{port}",
                     "--model", str(model_path)])
        peer.join(10.0)
        err = capsys.readouterr().err
        assert code == 1
        assert "error: bad magic" in err
        assert "Traceback" not in err


class TestServeErrors:
    def test_serve_infinite_chunk_is_one_line(self, tmp_path, capsys):
        save_recording(Recording(250.0, ["Cz"], np.zeros((1, 250), dtype=np.float32)),
                       tmp_path / "r.eegr")
        save_schedule(EventSchedule(250, 250.0, [], []), tmp_path / "s.csv")
        code = main(["serve", "--recording", str(tmp_path / "r.eegr"),
                     "--schedule", str(tmp_path / "s.csv"), "--port", "0",
                     "--chunk-ms", "inf"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("error:") == 1
        assert "error: chunk_ms must be finite and positive, got inf" in err
        assert "Traceback" not in err

    def test_unreadable_start_is_one_line_before_listening(self, tmp_path):
        # 1,025 channels: more than the client accepts. A subprocess, so a
        # server that did listen would time out instead of hanging the suite.
        names = [f"c{i}" for i in range(1025)]
        save_recording(Recording(250.0, names, np.zeros((1025, 10))), tmp_path / "r.eegr")
        save_schedule(EventSchedule(10, 250.0, [], []), tmp_path / "s.csv")
        proc = subprocess.run(
            [sys.executable, "-m", "eegtd.cli", "serve", "--recording",
             str(tmp_path / "r.eegr"), "--schedule", str(tmp_path / "s.csv"), "--port", "0"],
            capture_output=True, text=True, env=subprocess_env(), timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stderr.count("error:") == 1
        assert "error: Start has 1025 channels, expected 1 to 1024" in proc.stderr
        assert "serving on" not in proc.stdout


class TestPortRange:
    def assert_one_line_error(self, code, capsys, port):
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: port must lie in 0 to 65535, got {port}\n"

    def test_serve_port_out_of_range(self, tmp_path, capsys):
        save_recording(Recording(250.0, ["Cz"], np.zeros((1, 250), dtype=np.float32)),
                       tmp_path / "r.eegr")
        save_schedule(EventSchedule(250, 250.0, [], []), tmp_path / "s.csv")
        code = main(["serve", "--recording", str(tmp_path / "r.eegr"),
                     "--schedule", str(tmp_path / "s.csv"), "--port", "70000"])
        self.assert_one_line_error(code, capsys, 70000)

    def test_connect_port_out_of_range(self, tmp_path, capsys):
        model_path = tmp_path / "m.hmdl"
        net = NetConfig(n_channels=2, window_len=20, temporal_filters=2,
                        deep_filters=(2,), kernel_len=3, pool_len=2, dense_hidden=4)
        with open(model_path, "wb") as fh:
            save_model(init_model(net, seed=1), fh)
        code = main(["infer-online", "--connect", "127.0.0.1:99999",
                     "--model", str(model_path)])
        self.assert_one_line_error(code, capsys, 99999)


class TestServeInferOnline:
    def test_end_to_end_over_subprocess(self, tmp_path):
        prefix = tmp_path / "tiny"
        assert main(
            ["generate", "--profile", "video1", "--seed", "11",
             "--events-per-class", "2", "--out-prefix", str(prefix)]
        ) == 0
        model_path = tmp_path / "m.hmdl"
        assert main(
            ["train", "--recording", f"{prefix}.eegr",
             "--schedule", f"{prefix}.schedule.csv",
             "--out-model", str(model_path), "--epochs", "1", "--seed", "5"]
        ) == 0

        server = subprocess.Popen(
            [sys.executable, "-m", "eegtd.cli", "serve",
             "--recording", f"{prefix}.eegr",
             "--schedule", f"{prefix}.schedule.csv",
             "--port", "0", "--speed", "inf"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=subprocess_env(),
        )
        try:
            banner = server.stdout.readline().strip()
            endpoint = banner.split()[-1]
            emit = tmp_path / "dets.csv"
            proc = subprocess.run(
                [sys.executable, "-m", "eegtd.cli", "infer-online",
                 "--connect", endpoint, "--model", str(model_path),
                 "--emit", str(emit)],
                capture_output=True,
                text=True,
                timeout=120,
                env=subprocess_env(),
            )
            assert proc.returncode == 0, proc.stderr
            assert "received 75000 frames" in proc.stdout
            assert emit.read_text().startswith("time,class,confidence")
        finally:
            server.wait(timeout=60)
