"""Command-line surface: exit codes, stream separation, round trips."""

import math
import random
import subprocess
import sys
import warnings

import numpy as np
import pytest

from nlroi import cli, errors, toytask
from nlroi.cli import main
from nlroi.operator import NlRoiConfig
from nlroi.rng import Prng
from nlroi.weights import load_weights, save_weights

FAST_TRAIN = "\n".join(
    [
        "d = 8",
        "d_f = 2",
        "d_mid = 2",
        "d_g = 2",
        "n = 4",
        "h = 2",
        "w = 2",
        "k_classes = 3",
        "steps = 12",
        "scenes_per_step = 2",
    ]
)

# the bench's operator at its smallest useful size, over the fewest N the slope fit takes
TINY_OP = NlRoiConfig(d=4, d_f=2, d_mid=2, d_g=2, h=2, w=2)
TINY_SWEEP = tuple((n, TINY_OP) for n in (2, 4, 6, 8))

# every exception class that nlroi.errors defines
ERROR_CLASSES = [
    c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, BaseException)
]

GRID_SMALL = "\n".join(["d = 6", "d_f = 3", "d_mid = 3", "d_g = 4", "h = 2", "w = 2", "n = 4"])


@pytest.fixture
def fast_config(tmp_path):
    p = tmp_path / "fast.cfg"
    p.write_text(FAST_TRAIN + "\n")
    return str(p)


@pytest.fixture
def grad_config(tmp_path):
    p = tmp_path / "grad.cfg"
    p.write_text(GRID_SMALL + "\n")
    return str(p)


class TestGradcheckCommand:
    def test_passes_and_prints_summary(self, capsys, grad_config):
        rc = main(["gradcheck", "--config", grad_config, "--seed", "3"])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.out.startswith("GRADCHECK pass=true max_rel_err=")
        # the per-tensor table goes to stderr, not stdout
        assert "w_phi" in captured.err
        assert "w_phi" not in captured.out


class TestOracleDiffCommand:
    def test_small_run(self, capsys, grad_config):
        rc = main(["oracle-diff", "--config", grad_config, "--seed", "1", "--count", "10"])
        captured = capsys.readouterr()
        assert rc == 0
        value = float(captured.out.strip())
        assert 0.0 <= value < 1e-9

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_rejects_count_below_one(self, capsys, count):
        # a run that checks no configuration must not report a pass
        rc = main(["oracle-diff", "--count", count])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error: count must be an integer >= 1")

    def test_worst_case_named_on_stderr(self, capsys):
        from nlroi.cli import _random_oracle_case
        from nlroi.operator import nlroi_forward, nlroi_reference
        from nlroi.rng import Prng

        rc = main(["oracle-diff", "--seed", "5", "--count", "12"])
        captured = capsys.readouterr()
        assert rc == 0
        worst = float(captured.out)  # stdout stays the one number
        line = captured.err.strip()
        assert line.startswith("worst case ") and "NlRoiConfig(" in line
        case = int(line.split()[2].rstrip(":"))
        at = tuple(int(v) for v in line.split("output index (")[1].rstrip(")").split(","))
        prng = Prng(5)
        cases = [_random_oracle_case(prng, i) for i in range(case + 1)]
        x, params, config = cases[case]
        assert f"n={x.shape[0]} {config}" in line
        diff = np.abs(nlroi_forward(x, params, config)[0] - nlroi_reference(x, params, config))
        assert diff[at] == diff.max() and f"{diff[at]:.6e}" == f"{worst:.6e}"


class TestBenchCommand:
    def test_csv_to_stdout(self, capsys, monkeypatch):
        # shrink the sweep so the test stays fast
        monkeypatch.setattr(cli, "DEFAULT_SWEEP", TINY_SWEEP)
        rc = main(["bench", "--seed", "0"])
        captured = capsys.readouterr()
        assert rc == 0
        lines = captured.out.splitlines()
        assert lines[0] == "n,d,d_f,d_g,h,w,reps,forward_ms,backward_ms"
        assert len(lines) == 5
        assert lines[1].startswith("2,4,2,2,2,2,5,")

    def test_csv_to_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "DEFAULT_SWEEP", TINY_SWEEP)
        out = tmp_path / "bench.csv"
        rc = main(["bench", "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.out == ""
        assert out.read_text().splitlines()[0].startswith("n,d,")

    def test_slope_on_stderr(self, capsys, monkeypatch):
        """The fitted slope goes to stderr; stdout is the CSV alone."""
        monkeypatch.setattr(cli, "DEFAULT_SWEEP", TINY_SWEEP)
        rc = main(["bench"])
        captured = capsys.readouterr()
        assert rc == 0
        assert len(captured.out.splitlines()) == 5
        (line,) = [s for s in captured.err.splitlines() if s.startswith("slope=")]
        assert math.isfinite(float(line.removeprefix("slope=")))

    def test_help_says_what_it_times_and_reads(self, capsys):
        with pytest.raises(SystemExit):
            main(["bench", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "DEFAULT_SWEEP" in text and "only the seed is read" in text

    def test_reps_floor(self, capsys):
        rc = main(["bench", "--reps", "2"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestTrainEval:
    def test_round_trip(self, tmp_path, capsys, fast_config):
        weights = str(tmp_path / "w.bin")
        rc = main(["train", "--variant", "nlroi", "--config", fast_config,
                   "--seed", "5", "--out", weights])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.out == ""  # progress goes to stderr only
        assert "saved nlroi weights" in captured.err

        rc = main(["eval", "--weights", weights, "--config", fast_config,
                   "--seed", "5", "--scenes", "20"])
        captured = capsys.readouterr()
        assert rc == 0
        line = captured.out.strip()
        assert line.startswith("ACCURACY ")
        acc = float(line.split()[1])
        assert 0.0 <= acc <= 1.0

    def test_train_deterministic(self, tmp_path, capsys, fast_config):
        a = tmp_path / "a.bin"
        b = tmp_path / "b.bin"
        for out in (a, b):
            assert main(["train", "--variant", "baseline", "--config", fast_config,
                         "--seed", "9", "--out", str(out)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_eval_ignores_an_old_files_psi_bias(self, tmp_path, capsys, fast_config):
        """Files written before psi lost its bias hold a b_psi tensor after
        w_psi; eval ignores it and reads the same accuracy."""
        new = tmp_path / "new.bin"
        assert main(["train", "--variant", "nlroi", "--config", fast_config,
                     "--seed", "5", "--out", str(new)]) == 0
        named = load_weights(new)
        assert list(named) == ["w_head", "b_head", "w_phi", "b_phi", "w_psi",
                               "w_g1", "b_g1", "w_g2", "b_g2"]
        old_layout = []
        for name, tensor in named.items():
            old_layout.append((name, tensor))
            if name == "w_psi":
                old_layout.append(("b_psi", Prng(6).normals(tensor.shape[0])))
        old = tmp_path / "old.bin"
        save_weights(old, old_layout)
        capsys.readouterr()
        lines = []
        for path in (new, old):
            assert main(["eval", "--weights", str(path), "--config", fast_config,
                         "--seed", "5", "--scenes", "200"]) == 0
            lines.append(capsys.readouterr().out)
        assert lines[0].startswith("ACCURACY ")
        assert lines[1] == lines[0]

    def test_eval_missing_weights(self, capsys, fast_config):
        rc = main(["eval", "--weights", "/nonexistent/w.bin", "--config", fast_config])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("scenes", ["0", "-1"])
    def test_eval_rejects_scenes_below_one(self, tmp_path, capsys, fast_config, scenes):
        weights = str(tmp_path / "w.bin")
        assert main(["init", "--config", fast_config, "--out", weights]) == 0
        capsys.readouterr()
        rc = main(["eval", "--weights", weights, "--config", fast_config, "--scenes", scenes])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith(f"error: scenes must be an integer >= 1, got {scenes}")

    def test_eval_reports_bad_weights_before_bad_scenes(self, capsys, fast_config):
        rc = main(["eval", "--weights", "/nonexistent/w.bin", "--config", fast_config,
                   "--scenes", "0"])
        err = capsys.readouterr().err
        assert rc == 1
        assert "/nonexistent/w.bin" in err and "scenes" not in err

    def test_eval_rejects_mismatched_head(self, tmp_path, capsys, fast_config):
        bad = tmp_path / "bad.bin"
        save_weights(bad, {"w_head": np.zeros((2, 2)), "b_head": np.zeros(2)})
        rc = main(["eval", "--weights", str(bad), "--config", fast_config])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["w_head", "b_head"])
    def test_eval_names_a_missing_head_tensor(self, tmp_path, capsys, fast_config, name):
        weights = tmp_path / "w.bin"
        assert main(["init", "--config", fast_config, "--out", str(weights)]) == 0
        named = load_weights(weights)
        del named[name]
        save_weights(weights, named)
        capsys.readouterr()
        rc = main(["eval", "--weights", str(weights), "--config", fast_config, "--scenes", "20"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith(f"error: missing tensor {name!r}")

    def test_eval_rejects_mismatched_operator_tensor(self, tmp_path, capsys, fast_config):
        """Building the model checks a weights file's tensors against the
        configuration and names the one that does not fit."""
        weights = tmp_path / "w.bin"
        assert main(["init", "--config", fast_config, "--out", str(weights)]) == 0
        named = load_weights(weights)
        named["w_g2"] = named["w_g2"][:, :-1]
        save_weights(weights, named)
        capsys.readouterr()
        rc = main(["eval", "--weights", str(weights), "--config", fast_config])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: w_g2 has shape")

    @pytest.mark.parametrize(
        "variant, name, index, value",
        [("baseline", "w_head", (0, 0), np.nan), ("nlroi", "w_g2", (1, 0, 2, 1), np.inf)],
    )
    def test_eval_rejects_non_finite_tensor(
        self, tmp_path, capsys, fast_config, variant, name, index, value
    ):
        weights = tmp_path / "w.bin"
        assert main(["init", "--variant", variant, "--config", fast_config,
                     "--out", str(weights)]) == 0
        named = load_weights(weights)
        named[name][index] = value
        save_weights(weights, named)
        capsys.readouterr()
        rc = main(["eval", "--weights", str(weights), "--config", fast_config, "--scenes", "20"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith(f"error: weights tensor {name!r} has a non-finite value")
        assert str(index) in captured.err

    def test_eval_operator_overflow_is_one_named_error(self, tmp_path, capsys, fast_config):
        """Finite weights so large that the g-branch overflows exit 1 with
        the operator's error and no NumPy warning before it."""
        weights = tmp_path / "w.bin"
        assert main(["init", "--config", fast_config, "--out", str(weights)]) == 0
        save_weights(weights, {k: v * 1e300 for k, v in load_weights(weights).items()})
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["eval", "--weights", str(weights), "--config", fast_config])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err.startswith("error: g-branch embedding has a non-finite value")
        assert len(captured.err.splitlines()) == 1

    def test_eval_rejects_a_non_finite_logit(self, tmp_path, capsys, monkeypatch, fast_config):
        """Finite weights whose logits overflow exit 1, with no NumPy warning,
        naming the scene (counted over the whole evaluation) and the RoI,
        whatever the chunking."""
        weights = tmp_path / "w.bin"
        assert main(["init", "--variant", "baseline", "--config", fast_config,
                     "--out", str(weights)]) == 0
        named = load_weights(weights)
        # logit 0 overflows where channel 0 exceeds 1.198: a class-0 RoI's noise past 2 sigma
        named["w_head"][0, 0] = 1.5e308
        save_weights(weights, named)
        capsys.readouterr()
        errs = []
        for budget in (toytask._EVAL_BUDGET, 1):  # one chunk, then one scene per chunk
            monkeypatch.setattr(toytask, "_EVAL_BUDGET", budget)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rc = main(["eval", "--weights", str(weights), "--config", fast_config,
                           "--scenes", "200"])
            captured = capsys.readouterr()
            assert rc == 1 and captured.out == ""
            errs.append(captured.err)
        assert errs == ["error: logit 0 of scene 14, RoI 1 is non-finite: inf\n"] * 2


class TestInitCommand:
    def test_train_and_init_write_weights_bin_by_default(self, tmp_path, capsys, monkeypatch,
                                                          fast_config):
        monkeypatch.chdir(tmp_path)
        for argv in (["init"], ["train", "--variant", "baseline"]):
            assert main(argv + ["--config", fast_config]) == 0
            assert load_weights(tmp_path / "weights.bin")
            (tmp_path / "weights.bin").unlink()
        assert "to weights.bin" in capsys.readouterr().err

    def test_writes_loadable_weights(self, tmp_path, capsys, fast_config):
        out = tmp_path / "fresh.bin"
        rc = main(["init", "--config", fast_config, "--seed", "2", "--out", str(out)])
        capsys.readouterr()
        assert rc == 0
        named = load_weights(out)
        assert "w_phi" in named and "w_head" in named
        assert np.array_equal(named["b_head"], np.zeros(3))

    def test_baseline_variant_head_only(self, tmp_path, capsys, fast_config):
        out = tmp_path / "fresh.bin"
        rc = main(["init", "--variant", "baseline", "--config", fast_config,
                   "--out", str(out)])
        capsys.readouterr()
        assert rc == 0
        named = load_weights(out)
        assert set(named) == {"w_head", "b_head"}


class TestErrorPaths:
    @pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda c: c.__name__)
    def test_every_package_error_exits_one(self, capsys, monkeypatch, cls):
        """The handler catches every class of nlroi.errors without naming it."""
        exc = cls(3, "boom") if cls is errors.DivergenceError else cls("boom")

        def fail(args, cfg):
            raise exc

        monkeypatch.setattr(cli, "_cmd_init", fail)
        assert main(["init"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {exc}\n"

    def test_failed_allocation_exits_one(self, capsys, monkeypatch):
        """Any command's failed allocation is a handled error with NumPy's
        message, not a traceback."""
        message = "Unable to allocate 7.45 GiB for an array with shape (100000000, 10)"

        def fail(args, cfg):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "_cmd_train", fail)
        assert main(["train", "--variant", "nlroi"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_other_errors_propagate(self, monkeypatch):
        def fail(args, cfg):
            raise KeyError("bug")

        monkeypatch.setattr(cli, "_cmd_init", fail)
        with pytest.raises(KeyError):
            main(["init"])

    def test_bad_config_path(self, capsys):
        rc = main(["gradcheck", "--config", "/nonexistent.cfg"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_config(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text("d = -3\n")
        rc = main(["gradcheck", "--config", str(p)])
        assert rc == 1
        assert "line 1" in capsys.readouterr().err

    def test_range_rule_of_a_constructor_names_the_line(self, tmp_path, capsys):
        """A rule that SceneSpec owns is checked when the file is read, and
        its error names the file's line."""
        p = tmp_path / "one_roi.cfg"
        p.write_text("n = 1\nsteps = 1\n")
        out = tmp_path / "w.bin"
        rc = main(["train", "--variant", "nlroi", "--config", str(p), "--out", str(out)])
        assert rc == 1
        assert "line 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text, line, key, value", [
        ("n = 99999999999999999999999\n", 1, "n", 99999999999999999999999),
        ("d = 8\nh = 99999999999999999999999\n", 2, "h", 99999999999999999999999),
        # each size fits in 31 bits, the blob's N*D*H*W values do not fit in 2**63 bytes
        ("n = 70000\nd = 64\nh = 50000\nw = 60000\n", 1, "n", 70000),
        # a RoI of 2**31 bytes or more has no NumPy void to sort it by
        ("d = 1024\nh = 512\nw = 512\n", 1, "d", 1024),
    ], ids=["n", "h", "blob", "roi_bytes"])
    def test_sizes_past_numpys_range_name_their_key(self, tmp_path, capsys, text, line, key, value):
        """A config whose arrays cannot exist fails when it is read, in every
        command that reads it: exit 1 with the largest size's line and key,
        nothing written and no traceback."""
        p, out = tmp_path / "big.cfg", tmp_path / "w.bin"
        p.write_text(text)
        for argv in (["init", "--out", str(out)], ["train", "--variant", "nlroi", "--out", str(out)],
                     ["gradcheck"], ["eval", "--weights", str(out), "--scenes", "1"]):
            assert main(argv + ["--config", str(p)]) == 1, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: line {line}: {key} = {value} is too large"), argv
            assert not out.exists()

    def test_damaged_config_bytes_exit_cleanly(self, tmp_path, capsys):
        """Each byte of a valid config replaced in turn by 0xff, by '9' and by
        NUL, and 20 seeded random byte strings: ``init`` exits 0, or exits 1
        with ``error:`` on stderr. No exception escapes ``main``."""
        blob = (FAST_TRAIN + "\nscaling = full_flatten  # note\n").encode()
        cases = [
            blob[:i] + bytes([b]) + blob[i + 1 :]
            for b in (0xFF, ord("9"), 0)
            for i in range(len(blob))
        ]
        rng = random.Random(0)
        cases += [rng.randbytes(rng.randrange(1, 200)) for _ in range(20)]
        p, out = tmp_path / "fuzz.cfg", tmp_path / "w.bin"
        for case in cases:
            p.write_bytes(case)
            rc = main(["init", "--config", str(p), "--out", str(out)])
            err = capsys.readouterr().err
            assert rc == 0 or (rc == 1 and err.startswith("error: ")), (case, rc, err)

    @pytest.mark.parametrize("seed", [2**64, -1])
    def test_seed_flag_outside_64_bits_exits_one(self, tmp_path, capsys, seed):
        out = tmp_path / "w.bin"
        assert main(["init", "--seed", str(seed), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: seed must fit in 64 bits (0 <= seed < 2**64), got {seed}\n"
        )
        assert not out.exists()

    def test_seed_flag_takes_the_files_seed_rule(self, tmp_path, capsys):
        """At the top of the 64-bit range and one past it, ``--seed`` and a
        file's ``seed`` give the same exit code; the top seed writes the
        same bytes either way."""
        p, by_file, by_flag = tmp_path / "seed.cfg", tmp_path / "a.bin", tmp_path / "b.bin"
        for seed in (2**64 - 1, 2**64):
            p.write_text(f"seed = {seed}\n")
            rc_file = main(["init", "--config", str(p), "--out", str(by_file)])
            rc_flag = main(["init", "--seed", str(seed), "--out", str(by_flag)])
            assert (rc_flag, rc_file) == ((0, 0) if seed < 2**64 else (1, 1))
        capsys.readouterr()
        assert by_flag.read_bytes() == by_file.read_bytes()

    def test_non_utf8_config_names_the_line(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_bytes(b"n = 8\r\nd = 8\xff\n")
        assert main(["init", "--config", str(p), "--out", str(tmp_path / "w.bin")]) == 1
        assert capsys.readouterr().err == (
            "error: line 2: byte 0xff is not UTF-8\n"
        )

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 2

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", "--frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["eval", "gradcheck", "oracle-diff"])
    def test_out_on_a_command_that_writes_nothing_exits_two(self, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--out", "x"])
        assert exc.value.code == 2

    def test_no_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestSubprocessEntry:
    def test_module_invocation(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(GRID_SMALL + "\n")
        proc = subprocess.run(
            [sys.executable, "-m", "nlroi", "oracle-diff", "--config", str(cfg),
             "--count", "5", "--seed", "4"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout.strip()) < 1e-9
