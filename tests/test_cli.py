"""End-to-end tests for the command-line interface."""

import csv
import io
import json
import resource
import subprocess
import sys

import pytest

from quditsim import Circuit, FrameSimulator, cli, serialize_sdim
from quditsim.errors import MemoryCapError

CLI = [sys.executable, "-m", "quditsim"]

GHZ_TEXT = "DIM 3\nQUDITS 2\nH 0\nCNOT 0 1\nM 0\nM 1\n"
DJ_IDENTITY = "DIM 3\nQUDITS 2\nH 0\nX 1\nH 1\nCNOT 0 1\nH_INV 0\nM 0\n"


def run_cli(*argv, env=None):
    return subprocess.run(CLI + list(argv), capture_output=True, text=True,
                          env=env)


@pytest.fixture
def ghz_file(tmp_path):
    path = tmp_path / "ghz.sdim"
    path.write_text(GHZ_TEXT)
    return str(path)


class TestRun:
    """quditsim run."""

    def test_json_output(self, ghz_file):
        proc = run_cli("run", ghz_file, "--shots", "20", "--seed", "5")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["dimension"] == 3
        assert doc["qudits"] == 2
        assert doc["shots"] == 20
        assert doc["seed"] == 5
        assert doc["method"] == "tableau"
        assert len(doc["records"]) == 20
        rec = doc["records"][0][0]
        assert set(rec) == {"qudit", "seq", "deterministic", "outcome"}
        assert sum(doc["counts"].values()) == 20
        assert set(doc["counts"]) <= {"00", "11", "22"}

    def test_byte_identical_reruns(self, ghz_file):
        a = run_cli("run", ghz_file, "--shots", "50", "--seed", "9")
        b = run_cli("run", ghz_file, "--shots", "50", "--seed", "9")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_timing_goes_to_stderr(self, ghz_file):
        proc = run_cli("run", ghz_file, "--shots", "1", "--seed", "0")
        assert "elapsed" in proc.stderr
        assert "elapsed" not in proc.stdout

    def test_counts_output(self, tmp_path):
        path = tmp_path / "dj.sdim"
        path.write_text(DJ_IDENTITY)
        proc = run_cli("run", str(path), "--shots", "100", "--seed", "1",
                       "--out", "counts")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "2 100"

    def test_csv_output(self, ghz_file):
        proc = run_cli("run", ghz_file, "--shots", "3", "--seed", "2",
                       "--out", "csv")
        rows = list(csv.DictReader(io.StringIO(proc.stdout)))
        assert len(rows) == 6
        assert set(rows[0]) == {"shot", "qudit", "seq", "deterministic",
                                "outcome"}

    def test_statevector_method(self, ghz_file):
        proc = run_cli("run", ghz_file, "--shots", "10", "--seed", "3",
                       "--method", "statevector")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["method"] == "statevector"

    def test_composite_dimension_served(self, tmp_path):
        path = tmp_path / "d4.sdim"
        path.write_text("DIM 4\nQUDITS 1\nH 0\nM 0\n")
        proc = run_cli("run", str(path), "--shots", "10", "--seed", "4")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["method"] == "tableau"

    # upper bounds on one record's text: qudit and seq below 1000, d <= 10,
    # shot numbers below 10**6
    RECORD_TEXT = {"json": 128, "csv": 24}

    @pytest.mark.parametrize("out", ["json", "csv"])
    def test_writes_stay_within_the_record_bound(self, tmp_path, monkeypatch,
                                                 out):
        """200 slots over several shards: no single write to stdout carries
        more than PIECE_RECORDS records' text, and the writes join into the
        whole output."""
        circuit = Circuit(200, 3)
        for q in range(200):
            circuit.add_gate("F", q)
            circuit.add_gate("N1", q, noise_channel="d", prob=0.05)
            circuit.add_gate("M", q)
        shots = 3 * FrameSimulator(circuit).shard_size + 5
        path = tmp_path / "wide.sdim"
        path.write_text(serialize_sdim(circuit))
        writes = []

        class Recorder:
            def write(self, text):
                writes.append(text)

        monkeypatch.setattr(sys, "stdout", Recorder())
        assert cli.main(["run", str(path), "--shots", str(shots), "--seed",
                         "1", "--out", out]) == 0
        monkeypatch.undo()
        bound = cli.PIECE_RECORDS * self.RECORD_TEXT[out]
        assert max(len(text) for text in writes) <= bound
        text = "".join(writes)
        if out == "json":
            doc = json.loads(text)
            assert len(doc["records"]) == shots
            assert sum(doc["counts"].values()) == shots
        else:
            assert len(text.splitlines()) == 1 + 200 * shots


class TestExitCodes:
    """Every failure path is distinct."""

    def test_parse_error_is_2(self, tmp_path):
        path = tmp_path / "bad.sdim"
        path.write_text("DIM 3\nQUDITS 1\nBOGUS 0\n")
        proc = run_cli("run", str(path), "--shots", "1", "--seed", "0")
        assert proc.returncode == 2
        assert "line 3" in proc.stderr

    def test_dimension_above_bound_is_2(self, tmp_path):
        """A DIM too wide for int64 phase sums is a parse error at its
        value."""
        path = tmp_path / "wide.sdim"
        path.write_text("DIM 1048577\nQUDITS 1\nM 0\n")
        proc = run_cli("run", str(path), "--shots", "1", "--seed", "0")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == ("parse error at line 1, column 5: dimension "
                               "must lie in [2, 1048576], got 1048577\n")

    @pytest.mark.parametrize("text, message", [
        (b"DIM 3\nQUDITS 1\nM 0\n\xff",
         "line 4, column 1: invalid UTF-8 byte 0xff"),
        # columns count characters, as parse_sdim's do
        (b"DIM 3\r\nQUDITS 1\n# \xc3\xa9 \xfe\nM 0\n",
         "line 3, column 5: invalid UTF-8 byte 0xfe"),
    ])
    def test_non_utf8_file_is_2(self, tmp_path, text, message):
        path = tmp_path / "bad.sdim"
        path.write_bytes(text)
        proc = run_cli("run", str(path), "--shots", "1", "--seed", "1")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"parse error at {message}\n"

    def test_frames_on_composite_is_0(self, tmp_path):
        """frames runs on every d, as the same sampler as tableau."""
        path = tmp_path / "d4.sdim"
        path.write_text("DIM 4\nQUDITS 2\nF 0\nSUM 0 1\nM 0\nM 1\n")
        procs = [run_cli("run", str(path), "--shots", "50", "--seed", "0",
                         "--method", method, "--out", "csv")
                 for method in ("frames", "tableau")]
        assert [proc.returncode for proc in procs] == [0, 0]
        assert procs[0].stdout == procs[1].stdout
        proc = run_cli("rb", "--d", "4", "--depths", "0,2", "--circuits", "2",
                       "--shots", "100", "--p", "0.1", "--seed", "1")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["method"] == "frames"

    @pytest.mark.parametrize("method", ["tableau", "statevector"])
    def test_huge_shots_are_6(self, ghz_file, method):
        """10**12 shots exceed the outcome cap before anything is built;
        the child's address space is capped so that a missing check fails
        the test instead of exhausting memory."""
        cap = 1 << 31
        proc = subprocess.run(
            CLI + ["run", ghz_file, "--shots", str(10**12), "--seed", "1",
                   "--method", method],
            capture_output=True, text=True, timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                                  (cap, cap)))
        assert proc.returncode == 6
        assert proc.stdout == ""
        assert "outcome cap" in proc.stderr

    def test_usage_error_is_4(self, ghz_file):
        assert run_cli("run", ghz_file, "--shots", "1").returncode == 4
        assert run_cli("frobnicate").returncode == 4
        assert run_cli("run", ghz_file, "--shots", "1", "--seed", "0",
                       "--method", "warp").returncode == 4

    @pytest.mark.parametrize("argv, option", [
        (["run", "GHZ", "--seed", "0", "--shots", "-5"], "--shots"),
        (["run", "GHZ", "--seed", "0", "--threads", "-3"], "--threads"),
        (["validate", "--seed", "0", "--shots", "0"], "--shots"),
        (["rb", "--p", "0.1", "--seed", "0", "--threads", "0"], "--threads"),
        (["lrbd", "--p", "0.1", "--seed", "0", "--shots", "0"], "--shots"),
    ])
    def test_nonpositive_counts_are_4(self, ghz_file, argv, option):
        argv = [ghz_file if a == "GHZ" else a for a in argv]
        proc = run_cli(*argv)
        assert proc.returncode == 4
        assert proc.stdout == ""
        assert option in proc.stderr and len(proc.stderr.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ["run", "GHZ"], ["validate"], ["rb", "--p", "0.1"],
        ["lrbd", "--p", "0.1"],
        ["gen", "random", "--n", "2", "--d", "3", "--depth", "2"],
        ["gen", "local", "--n", "3", "--d", "3", "--depth", "2"],
    ])
    def test_negative_seed_is_4(self, ghz_file, argv):
        argv = [ghz_file if a == "GHZ" else a for a in argv]
        proc = run_cli(*argv, "--seed", "-1")
        assert proc.returncode == 4
        assert proc.stdout == ""
        assert proc.stderr == "quditsim: error: --seed must be >= 0, got -1\n"

    @pytest.mark.parametrize("command", [
        ["rb", "--p", "0.1"], ["lrbd", "--p", "0.1"], ["validate"]])
    @pytest.mark.parametrize("circuits", ["0", "-2"])
    def test_empty_corpus_is_4(self, command, circuits):
        proc = run_cli(*command, "--seed", "0", "--circuits", circuits)
        assert proc.returncode == 4
        assert proc.stdout == ""
        assert proc.stderr == (f"quditsim: error: --circuits must be >= 1, "
                               f"got {circuits}\n")

    @pytest.mark.parametrize("argv, message", [
        (["rb", "--p", "1.5"], "--p must lie in [0, 1], got 1.5"),
        (["lrbd", "--p", "-0.1"], "--p must lie in [0, 1], got -0.1"),
        (["rb", "--p", "0.1", "--depths=-1,2"],
         "--depths must be >= 0, got -1,2"),
        (["lrbd", "--p", "0.1", "--depths", "3,-4"],
         "--depths must be >= 0, got 3,-4"),
        (["validate", "--max-qudits", "0"],
         "--max-qudits must be >= 1, got 0"),
        (["validate", "--max-depth", "0"], "--max-depth must be >= 1, got 0"),
        (["validate", "--noise-prob", "2"],
         "--noise-prob must lie in [0, 1], got 2.0"),
        (["gen", "random", "--n", "2", "--d", "3", "--depth", "2",
          "--noise-prob", "1.5"], "--noise-prob must lie in [0, 1], got 1.5"),
        (["validate", "--threshold", "-1"],
         "--threshold must lie in (0, 1], got -1.0"),
        (["validate", "--threshold", "0"],
         "--threshold must lie in (0, 1], got 0.0"),
        (["validate", "--threshold", "1.5"],
         "--threshold must lie in (0, 1], got 1.5"),
        (["validate", "--threshold", "nan"],
         "--threshold must lie in (0, 1], got nan"),
    ])
    def test_out_of_range_values_are_4(self, argv, message):
        proc = run_cli(*argv, "--seed", "0")
        assert proc.returncode == 4
        assert proc.stdout == ""
        assert proc.stderr == f"quditsim: error: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        (["gen", "ghz", "--n", "0", "--d", "3"], "--n must be >= 1, got 0"),
        (["gen", "random", "--n", "0", "--d", "3", "--depth", "3",
          "--seed", "1"], "--n must be >= 1, got 0"),
        (["gen", "dj", "--d", "3", "--value", "7"],
         "--value must lie in [0, 3), got 7"),
        (["gen", "random", "--n", "2", "--d", "3", "--depth", "-1",
          "--seed", "1"], "--depth must be >= 0, got -1"),
        (["gen", "local", "--n", "3", "--d", "3", "--depth", "-1",
          "--seed", "1"], "--depth must be >= 0, got -1"),
        (["gen", "bv", "--d", "3", "--secret", ""],
         "--secret must be a string of digits below d=3, got ''"),
    ])
    def test_bad_gen_values_are_4(self, argv, message):
        proc = run_cli(*argv)
        assert proc.returncode == 4
        assert proc.stdout == ""
        assert proc.stderr == f"quditsim: error: {message}\n"

    @pytest.mark.parametrize("argv", [
        ["rb", "--d", "1", "--p", "0.1", "--seed", "1"],
        ["gen", "ghz", "--n", "2", "--d", "1"],
        ["gen", "bv", "--d", "0", "--secret", "0"],
    ])
    def test_dimension_below_two_is_4(self, argv):
        """A bad --d is a usage error."""
        proc = run_cli(*argv)
        assert proc.returncode == 4
        assert proc.stdout == ""
        assert proc.stderr == (f"quditsim: error: --d must be >= 2, "
                               f"got {argv[argv.index('--d') + 1]}\n")

    @pytest.mark.parametrize("argv, message", [
        (["rb", "--d", "1048577", "--p", "0.1", "--seed", "1"],
         "quditsim: error: --d must be <= 1048576, got 1048577"),
        (["gen", "ghz", "--n", "2", "--d", "1048577"],
         "quditsim: error: --d must be <= 1048576, got 1048577"),
        (["gen", "random", "--n", "2", "--d", "4294967311", "--depth", "5",
          "--seed", "1"],
         "quditsim: error: --d must be <= 1048576, got 4294967311"),
        (["validate", "--pairs", "tableau,statevector", "--d", "3,1048577",
          "--seed", "1"],
         "quditsim validate: error: argument --d: dimensions must lie in "
         "[2, 1048576]"),
    ])
    def test_dimension_above_bound_is_4(self, argv, message):
        """A --d too wide for int64 phase sums is a usage error."""
        proc = run_cli(*argv)
        assert proc.returncode == 4
        assert proc.stdout == ""
        assert proc.stderr.endswith(message + "\n")

    def test_missing_file_is_5(self):
        proc = run_cli("run", "/nonexistent/x.sdim", "--shots", "1",
                       "--seed", "0")
        assert proc.returncode == 5

    def test_help_is_0(self):
        assert run_cli("--help").returncode == 0
        assert run_cli("run", "--help").returncode == 0


class TestGen:
    """quditsim gen."""

    def test_dj_round_trips(self, tmp_path):
        proc = run_cli("gen", "dj", "--d", "3", "--oracle", "identity")
        assert proc.returncode == 0
        path = tmp_path / "dj.sdim"
        path.write_text(proc.stdout)
        run_proc = run_cli("run", str(path), "--shots", "30", "--seed", "0",
                           "--out", "counts")
        assert run_proc.stdout.strip() == "2 30"

    def test_bv_recovers_secret(self, tmp_path):
        proc = run_cli("gen", "bv", "--d", "5", "--secret", "431")
        assert proc.returncode == 0
        path = tmp_path / "bv.sdim"
        path.write_text(proc.stdout)
        run_proc = run_cli("run", str(path), "--shots", "20", "--seed", "1",
                           "--out", "counts")
        assert run_proc.stdout.strip() == "431 20"

    def test_bv_secret_digit_range(self):
        assert run_cli("gen", "bv", "--d", "3", "--secret", "14").returncode == 4

    def test_bv_bad_secret_says_why(self):
        proc = run_cli("gen", "bv", "--d", "3", "--secret", "1x")
        assert proc.returncode == 4
        assert "--secret" in proc.stderr

    def test_ghz(self):
        proc = run_cli("gen", "ghz", "--n", "3", "--d", "3", "--measure")
        assert proc.returncode == 0
        assert "SUM 1 2" in proc.stdout

    def test_random_seeded(self):
        a = run_cli("gen", "random", "--n", "3", "--d", "5", "--depth", "20",
                    "--seed", "7")
        b = run_cli("gen", "random", "--n", "3", "--d", "5", "--depth", "20",
                    "--seed", "7")
        assert a.stdout == b.stdout


class TestValidate:
    """quditsim validate."""

    def test_small_validation(self, tmp_path):
        csv_path = tmp_path / "report.csv"
        proc = run_cli("validate", "--pairs", "tableau,statevector",
                       "--circuits", "4", "--shots", "400", "--d", "3",
                       "--max-qudits", "3", "--max-depth", "20",
                       "--seed", "3", "--csv", str(csv_path))
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["all_passed"]
        assert doc["circuits"] == 4
        with open(csv_path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert set(rows[0]) == {"index", "family", "dimension", "qudits",
                                "tvd", "passed"}

    @pytest.mark.parametrize("pair", ["tableau,frames", "frames,tableau",
                                      "statevector,statevector"])
    def test_one_sampler_pair_rejected(self, pair):
        proc = run_cli("validate", "--pairs", pair, "--circuits", "1",
                       "--seed", "3")
        assert proc.returncode == 4
        assert "compares one sampler with itself" in proc.stderr
        assert proc.stdout == ""

    def test_weyl_pair_rejected(self):
        """weyl is not a method; run_circuit's initial_tableau compiles on
        the Weyl tableau."""
        proc = run_cli("validate", "--pairs", "weyl,statevector",
                       "--seed", "1")
        assert proc.returncode == 4
        assert "expected two of" in proc.stderr
        assert proc.stdout == ""


class TestBenchmarkCommands:
    """quditsim rb / lrbd."""

    def test_rb_noiseless(self, tmp_path):
        manifest = tmp_path / "rb.json"
        proc = run_cli("rb", "--d", "3", "--depths", "0,2", "--circuits", "2",
                       "--shots", "300", "--p", "0", "--seed", "5",
                       "--manifest", str(manifest))
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["alpha"] == pytest.approx(1.0, abs=1e-6)
        assert json.loads(manifest.read_text())["experiment"] == "rb"

    def test_rb_files(self, tmp_path):
        """--csv holds a header and one row per depth; --manifest holds the
        report."""
        csv_path, manifest = tmp_path / "rb.csv", tmp_path / "rb.json"
        proc = run_cli("rb", "--d", "3", "--depths", "0,6,12", "--circuits",
                       "2", "--shots", "200", "--p", "0.1", "--seed", "14",
                       "--csv", str(csv_path), "--manifest", str(manifest))
        assert proc.returncode == 0
        with open(csv_path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["depth", "mean_fidelity", "stderr",
                           "survivor_fraction"]
        assert len(rows) == 4
        assert json.loads(manifest.read_text())["config"]["p"] == 0.1

    @pytest.mark.parametrize("argv", [
        ["rb", "--depths", "0,3", "--p", "0.05"],
        ["lrbd", "--depths", "0,4,10", "--p", "0.3", "--postselect", "x-only"],
    ])
    def test_manifest_is_stdout(self, tmp_path, argv):
        manifest = tmp_path / "report.json"
        proc = run_cli(*argv, "--circuits", "2", "--shots", "5", "--seed", "6",
                       "--manifest", str(manifest))
        assert proc.returncode == 0
        assert manifest.read_text() == proc.stdout

    @pytest.mark.parametrize("argv", [
        ["rb", "--p", "0.05", "--csv"],
        ["rb", "--p", "0.05", "--manifest"],
        ["lrbd", "--p", "0.05", "--manifest"],
        ["validate", "--d", "3", "--max-depth", "5", "--csv"],
    ])
    def test_unwritable_file_is_5(self, tmp_path, argv):
        path = tmp_path / "missing" / "out"
        *options, flag = argv
        proc = run_cli(*options, "--circuits", "1", "--shots", "20", "--seed",
                       "1", flag, str(path))
        assert proc.returncode == 5
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("file error:")

    def test_unwritable_path_fails_before_the_run(self, tmp_path,
                                                  monkeypatch, capsys):
        """An unwritable --csv exits 5 without running the experiment."""
        calls = []
        monkeypatch.setattr(cli, "run_rb", lambda *a, **k: calls.append(a))
        path = tmp_path / "missing" / "x.csv"
        assert cli.main(["rb", "--p", "0.05", "--seed", "1", "--csv",
                         str(path)]) == 5
        out, err = capsys.readouterr()
        assert calls == [] and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("file error:")

    def test_failed_run_leaves_files_and_a_run_replaces_them(
            self, tmp_path, monkeypatch, capsys):
        """A run that fails keeps an existing --csv and --manifest as they
        were; a run that succeeds replaces their contents."""
        table, saved = tmp_path / "x.csv", tmp_path / "x.json"
        argv = ["rb", "--p", "0.05", "--depths", "0,2", "--circuits", "1",
                "--shots", "20", "--seed", "1", "--csv", str(table),
                "--manifest", str(saved)]
        table.write_text("old table, much longer than the new one\n" * 50)
        saved.write_text("old manifest\n")

        def fail(*args, **kwargs):
            raise MemoryCapError("too big")

        with monkeypatch.context() as patch:
            patch.setattr(cli, "run_rb", fail)
            assert cli.main(argv) == 6
        assert table.read_text().startswith("old table")
        assert saved.read_text() == "old manifest\n"
        capsys.readouterr()
        assert cli.main(argv) == 0
        assert saved.read_text() == capsys.readouterr().out
        assert table.read_text().startswith("depth,")

    def test_allocation_failure_is_6_and_keeps_files(
            self, tmp_path, monkeypatch, capsys):
        """A MemoryError, even one with no message, exits 6 with a line on
        stderr, and leaves --csv and --manifest as they were."""
        table, saved = tmp_path / "x.csv", tmp_path / "x.json"
        table.write_text("old table\n")
        saved.write_text("old manifest\n")

        def fail(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(cli, "run_rb", fail)
        assert cli.main(["rb", "--p", "0.05", "--seed", "1", "--csv",
                         str(table), "--manifest", str(saved)]) == 6
        out, err = capsys.readouterr()
        assert out == "" and err == "out of memory\n"
        assert table.read_text() == "old table\n"
        assert saved.read_text() == "old manifest\n"

    def test_one_distinct_depth_is_not_fitted(self):
        """A depth list with one distinct depth gives a report, not a fit."""
        proc = run_cli("rb", "--d", "3", "--p", "0", "--depths", "0,0,0",
                       "--circuits", "2", "--shots", "200", "--seed", "5")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["fit_ok"] is False
        assert doc["alpha"] is None

    def test_lrbd_runs(self):
        proc = run_cli("lrbd", "--depths", "0", "--circuits", "2",
                       "--shots", "200", "--p", "0.02", "--seed", "6",
                       "--postselect", "x-only")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["postselect"] == "x_only"
        assert doc["per_depth"][0]["survivor_fraction"] > 0.5

    def test_lrbd_shots_past_the_outcome_cap(self):
        """lrbd draws each circuit's shots from its depth's law, so 3e7
        shots x 9 measurements, past frames.MAX_OUTCOME_ENTRIES, exit 0."""
        proc = run_cli("lrbd", "--depths", "0", "--circuits", "1", "--shots",
                       "30000000", "--p", "0.02", "--seed", "1")
        assert proc.returncode == 0
        assert 0 < json.loads(proc.stdout)["per_depth"][0][
            "survivor_fraction"] <= 1

    def test_lrbd_depth_past_int64_events_is_4(self):
        """A depth whose event count per noise location passes 2^63 is a
        usage error that names the depth, with no numpy warning."""
        proc = run_cli("lrbd", "--depths", "0,10000000000000000000",
                       "--circuits", "2", "--shots", "100", "--p", "0.02",
                       "--seed", "1")
        assert proc.returncode == 4
        assert proc.stdout == ""
        assert "depth 10000000000000000000" in proc.stderr
        assert "Warning" not in proc.stderr

    def test_lrbd_depth_1e7_in_bounded_memory(self):
        """Every depth's law comes from one pass over the depth-0 map, so
        depth 1e7 runs in a 2 GiB address space, where listing each noise
        location 1e7 + 1 times needs 3.7 GiB; the code state is then fully
        mixed: 1 of the 81 syndrome values is clean and the fidelity is 0."""
        cap = 1 << 31
        proc = subprocess.run(
            CLI + ["lrbd", "--depths", "0,10000000", "--circuits", "2",
                   "--shots", "100", "--p", "0.02", "--seed", "1"],
            capture_output=True, text=True, timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                                  (cap, cap)))
        assert proc.returncode == 0, proc.stderr
        row = json.loads(proc.stdout)["per_depth"][-1]
        assert row["depth"] == 10**7
        assert round(row["exact_survivor_fraction"], 6) == 0.012346
        assert row["exact_fidelity"] < 1e-9


class TestThreadsEnv:
    """SDIM_THREADS fallback."""

    def test_env_thread_count(self, ghz_file, monkeypatch):
        import os
        env = dict(os.environ, SDIM_THREADS="2")
        proc = run_cli("run", ghz_file, "--shots", "20", "--seed", "8",
                       "--method", "frames", env=env)
        assert proc.returncode == 0

    def test_bad_env_value_is_usage_error(self, ghz_file):
        import os
        env = dict(os.environ, SDIM_THREADS="lots")
        proc = run_cli("run", ghz_file, "--shots", "1", "--seed", "0",
                       env=env)
        assert proc.returncode == 4

    @pytest.mark.parametrize("value", ["lots", "0", "-2"])
    def test_bad_env_value_says_why(self, ghz_file, value):
        import os
        env = dict(os.environ, SDIM_THREADS=value)
        proc = run_cli("run", ghz_file, "--shots", "1", "--seed", "0",
                       env=env)
        assert proc.returncode == 4
        assert "SDIM_THREADS" in proc.stderr
