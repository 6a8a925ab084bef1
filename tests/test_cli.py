"""End-to-end tests for the ``python -m repro`` command line.

Everything goes through :func:`repro.__main__.main` with an explicit
argv, asserting exit codes, ``--jobs``/``--resume``/``--keep-going``
plumbing, and the human-readable output the CI smoke jobs grep for.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.__main__ as cli_module
from repro.__main__ import main as cli_main
from repro.runner import ResultCache, code_version, hashing, point_key
from repro.runner import sweep as sweep_module


def _sweep_argv(tmp_path, *extra):
    return [
        "sweep", "maxreuse", "--cache-dir", str(tmp_path), "--quiet", *extra
    ]


class TestExitCodes:
    def test_list_is_zero(self, capsys):
        assert cli_main([]) == 0
        out = capsys.readouterr().out
        assert "Available experiments" in out and "--jobs" in out

    def test_unknown_experiment_is_two(self, capsys):
        assert cli_main(["sweep", "nonsense"]) == 2
        assert "unknown experiment" in capsys.readouterr().out

    def test_removed_option_is_two(self, tmp_path, capsys):
        """Retired options are no options, whatever their value, and
        nothing is computed: ``--jobs`` alone selects the backend, and
        no ``--prescreen`` model-ranks the points first."""
        for option, value in (
            ("--backend", "quantum"), ("--backend", "serial"),
            ("--backend", "process"), ("--prescreen", "5"),
        ):
            assert cli_main(_sweep_argv(tmp_path, option, value)) == 2
            captured = capsys.readouterr()
            assert f"unrecognized arguments: {option}" in captured.err
            assert "Traceback" not in captured.err
        assert not list(tmp_path.rglob("*.jsonl"))

    def test_resume_without_cache_is_two(self, tmp_path, capsys):
        argv = _sweep_argv(tmp_path, "--resume", "--no-cache")
        assert cli_main(argv) == 2
        assert "--resume needs the cache" in capsys.readouterr().out

    @pytest.mark.parametrize("scale", ["0", "-2"])
    def test_non_positive_scale_is_two(self, tmp_path, capsys, scale):
        # Used to run silently at paper scale (scale applied only if > 1).
        argv = ["sweep", "fig10", "--cache-dir", str(tmp_path), "--quiet",
                "--scale", scale]
        assert cli_main(argv) == 2
        assert "bad arguments: --scale" in capsys.readouterr().out
        assert not list(tmp_path.rglob("*.jsonl"))

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_non_positive_jobs_is_two(self, tmp_path, capsys, jobs):
        assert cli_main(_sweep_argv(tmp_path, "--jobs", jobs)) == 2
        assert "bad arguments: --jobs" in capsys.readouterr().out
        assert not list(tmp_path.rglob("*.jsonl"))

    def test_sweep_help_is_zero(self, capsys):
        with pytest.MonkeyPatch.context():
            assert cli_main(["sweep", "--help"]) == 0
        assert "--jobs" in capsys.readouterr().out

    @pytest.mark.parametrize("below", [(), ("sub",)], ids=["file", "below"])
    @pytest.mark.parametrize(
        "argv",
        [["sweep", "table1", "--quiet"], ["cache", "info"],
         ["cache", "clear"], ["cache", "compact"]],
        ids=["sweep", "info", "clear", "compact"],
    )
    def test_cache_dir_naming_a_file_is_two(
        self, tmp_path, capsys, argv, below
    ):
        # sweep used to compute a point, then die with NotADirectoryError;
        # cache info used to report an empty cache.
        blocker = tmp_path / "file"
        blocker.write_text("not a cache")
        path = blocker.joinpath(*below)
        assert cli_main([*argv, "--cache-dir", str(path)]) == 2
        captured = capsys.readouterr()
        assert (
            f"bad arguments: --cache-dir {path} is not a directory"
            in captured.out
        )
        assert "Traceback" not in captured.err
        assert blocker.read_text() == "not a cache"

    def test_no_cache_ignores_a_file_cache_dir(self, tmp_path, capsys):
        path = tmp_path / "file"
        path.write_text("")
        argv = ["sweep", "maxreuse", "--quiet", "--no-cache",
                "--cache-dir", str(path)]
        assert cli_main(argv) == 0
        assert "(cache disabled)" in capsys.readouterr().out

    def test_bad_cache_action_is_two(self, tmp_path):
        assert cli_main(["cache", "explode", "--cache-dir", str(tmp_path)]) == 2


def _put_records(root, sweep):
    """Every put record in ``sweep``'s segments."""
    records = [
        json.loads(line)
        for segment in sorted((root / sweep).glob("*.jsonl"))
        for line in segment.read_text().splitlines()
        if line.strip()
    ]
    return [record for record in records if record["op"] == "put"]


class TestBackendPlumbing:
    def test_warm_rerun_is_fully_cached(self, tmp_path, capsys):
        argv = _sweep_argv(tmp_path, "--jobs", "2")
        assert cli_main(argv) == 0
        capsys.readouterr()
        # The pool that computed the point left no trace in its params.
        [record] = _put_records(tmp_path, "maxreuse")
        assert "backend" not in record["params"]
        assert cli_main(argv) == 0
        assert "maxreuse: 1 cached, 0 computed" in capsys.readouterr().out


class TestResume:
    def test_resume_recomputes_only_missing(self, tmp_path, capsys):
        """Simulate a killed run: drop one point's put record and
        ``--resume`` must recompute exactly that point."""
        argv = ["sweep", "bounds", "--cache-dir", str(tmp_path), "--quiet"]
        assert cli_main(argv) == 0
        cold = capsys.readouterr().out
        cache = ResultCache(tmp_path)
        keys = sorted(cache.manifest_keys("bounds"))
        assert len(keys) >= 2
        segment = tmp_path / "bounds" / f"{keys[0][:2]}.jsonl"
        segment.write_text("".join(
            line + "\n" for line in segment.read_text().splitlines()
            if keys[0] not in line
        ))

        assert cli_main([*argv, "--resume"]) == 0
        resumed = capsys.readouterr().out
        assert f"bounds: {len(keys) - 1} cached, 1 computed" in resumed
        # The published table is identical to the uninterrupted run's.
        strip = lambda out: [  # noqa: E731
            line for line in out.splitlines() if " in " not in line
        ]
        assert strip(resumed) == strip(cold)

    def test_resume_on_complete_cache_computes_nothing(self, tmp_path, capsys):
        argv = _sweep_argv(tmp_path)
        assert cli_main(argv) == 0
        capsys.readouterr()
        assert cli_main([*argv, "--resume"]) == 0
        assert "maxreuse: 1 cached, 0 computed" in capsys.readouterr().out


class TestCacheCommand:
    def test_info_reports_manifest_counts(self, tmp_path, capsys):
        ResultCache(tmp_path).put("s", "k", {}, 1)
        assert cli_main(["cache", "info", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries   : 1" in out and "sweeps    : s" in out

    def test_info_never_opens_entry_files(self, tmp_path, capsys, monkeypatch):
        """Acceptance: ``cache info`` folds the segments and never looks
        a result up."""
        cache = ResultCache(tmp_path)
        for i in range(5):
            cache.put("s", f"k{i}", {"i": i}, i)

        def forbidden(self, *a, **k):
            raise AssertionError("cache info looked a result up")

        monkeypatch.setattr(ResultCache, "get", forbidden)
        assert cli_main(["cache", "info", "--cache-dir", str(tmp_path)]) == 0
        assert "entries   : 5" in capsys.readouterr().out

    def test_clear(self, tmp_path, capsys):
        """Sweep directories go; a directory that holds no segment and is
        not empty (a source tree behind a mistyped ``--cache-dir``) stays."""
        ResultCache(tmp_path).put("s", "k", {}, 1)
        (tmp_path / "empty").mkdir()
        files = {"src/a.py": "x = 1\n", "docs/b.md": "# b\n", "README": "r"}
        for name, text in files.items():
            (tmp_path / name).parent.mkdir(exist_ok=True)
            (tmp_path / name).write_text(text)
        assert cli_main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert ResultCache(tmp_path).stats().entries == 0
        assert not (tmp_path / "s").exists()
        assert not (tmp_path / "empty").exists()
        for name, text in files.items():
            assert (tmp_path / name).read_text() == text

    def test_compact_folds_dead_history(self, tmp_path, capsys):
        cache = ResultCache(tmp_path)
        for _ in range(10):
            cache.put("s", "k", {}, 1)  # nine dead records
        assert cli_main(["cache", "compact", "--cache-dir", str(tmp_path)]) == 0
        assert "9 dead record(s) dropped" in capsys.readouterr().out
        segment = tmp_path / "s" / "k_.jsonl"  # 1-char key pads
        assert len(segment.read_text().splitlines()) == 1
        value, hit = cache.get("s", "k")
        assert hit and value == 1



class TestCacheFlagsScope:
    """--cache-dir/--no-cache govern every store access of a sweep:
    points reach the store only through the runner in this process, so
    nothing lands in the default store or under a side namespace."""

    def test_cache_dir_holds_only_the_sweep_namespace(
        self, tmp_path, capsys
    ):
        default_store = Path(os.environ["REPRO_CACHE_DIR"])  # conftest's
        argv = [
            "sweep", "robustness", "--scale", "8", "--scenario",
            "dropout:0.25", "--jobs", "2", "--cache-dir", str(tmp_path),
            "--quiet",
        ]
        assert cli_main(argv) == 0
        capsys.readouterr()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["robustness"]
        assert not any(default_store.iterdir())
        assert cli_main(["cache", "info", "--cache-dir", str(tmp_path)]) == 0
        assert "sweeps    : robustness\n" in capsys.readouterr().out

    def test_no_cache_writes_nothing_anywhere(self, tmp_path, capsys):
        default_store = Path(os.environ["REPRO_CACHE_DIR"])
        argv = [
            "sweep", "robustness", "--scale", "8", "--scenario",
            "dropout:0.25", "--cache-dir", str(tmp_path), "--no-cache",
            "--quiet",
        ]
        assert cli_main(argv) == 0
        capsys.readouterr()
        assert not any(tmp_path.iterdir())
        assert not any(default_store.iterdir())


class TestKeepGoing:
    def test_keep_going_reports_failures_and_exits_one(
        self, tmp_path, capsys, monkeypatch
    ):
        """A failing point under --keep-going yields the partial table,
        a failure count in the summary, and exit code 1."""
        import repro.experiments.bounds as bounds

        real_point = bounds._point

        def flaky(params):
            if params["m"] == bounds.DEFAULT_MEMORIES[1]:
                raise RuntimeError("injected failure")
            return real_point(params)

        monkeypatch.setattr(bounds, "_point", flaky)
        argv = [
            "sweep", "bounds", "--cache-dir", str(tmp_path), "--quiet",
            "--keep-going",
        ]
        assert cli_main(argv) == 1
        out = capsys.readouterr().out
        assert "(1 failed)" in out

    def test_default_aborts_with_exit_one(self, tmp_path, capsys, monkeypatch):
        import repro.experiments.bounds as bounds

        def always_fail(params):
            raise RuntimeError("injected failure")

        monkeypatch.setattr(bounds, "_point", always_fail)
        argv = ["sweep", "bounds", "--cache-dir", str(tmp_path), "--quiet"]
        assert cli_main(argv) == 1
        assert "sweep failed" in capsys.readouterr().err

    def test_keep_going_summary_lists_failing_params(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.experiments.bounds as bounds

        real_point = bounds._point

        def flaky(params):
            if params["m"] == bounds.DEFAULT_MEMORIES[1]:
                raise RuntimeError("injected failure")
            return real_point(params)

        monkeypatch.setattr(bounds, "_point", flaky)
        argv = [
            "sweep", "bounds", "--cache-dir", str(tmp_path), "--quiet",
            "--keep-going",
        ]
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert "did not produce results" in err
        assert f"'m': {bounds.DEFAULT_MEMORIES[1]}" in err
        assert "injected failure" in err


class TestFaultToleranceFlags:
    """--retries/--timeout/--max-failures/--chaos/--retry-quarantined."""

    @pytest.mark.parametrize(
        "spec",
        [
            "bogus=1", "hang=1,hang_s=nan", "hang=1,hang_s=inf", "drop=0.1",
            # "permanent" is a sticky count, not a seed.
            "seed=permanent", "fail=0.5,seed=permanent",
        ],
    )
    def test_bad_chaos_spec_is_two(self, tmp_path, capsys, spec):
        assert cli_main(_sweep_argv(tmp_path, "--chaos", spec)) == 2
        captured = capsys.readouterr()
        assert "bad --chaos" in captured.out
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "extra",
        [
            ("--retries", "-1"),
            ("--timeout", "nan"),
            # Used to crash in the pool with "timestamp out of range".
            ("--timeout", "inf", "--jobs", "2"),
        ],
        ids=["retries=-1", "timeout=nan", "timeout=inf"],
    )
    def test_bad_number_is_two(self, tmp_path, capsys, extra):
        assert cli_main(_sweep_argv(tmp_path, *extra)) == 2
        captured = capsys.readouterr()
        assert "bad arguments" in captured.out
        assert "Traceback" not in captured.err
        assert not list(tmp_path.rglob("*.jsonl"))

    def test_retry_quarantined_requires_resume(self, tmp_path, capsys):
        assert cli_main(_sweep_argv(tmp_path, "--retry-quarantined")) == 2
        assert "--retry-quarantined" in capsys.readouterr().out

    def test_transient_chaos_with_retries_matches_clean_run(
        self, tmp_path, capsys
    ):
        """Acceptance: seeded transient chaos plus retries produces the
        clean run's table, cache keys, and exit code."""
        clean_dir, chaos_dir = tmp_path / "clean", tmp_path / "chaos"
        argv = ["sweep", "bounds", "--quiet"]
        assert cli_main([*argv, "--cache-dir", str(clean_dir)]) == 0
        clean_out = capsys.readouterr().out
        assert cli_main(
            [*argv, "--cache-dir", str(chaos_dir),
             "--chaos", "fail=0.4,seed=5", "--retries", "2"]
        ) == 0
        chaos_out = capsys.readouterr().out
        strip = lambda out: [  # noqa: E731
            line for line in out.splitlines() if " in " not in line
        ]
        assert strip(chaos_out) == strip(clean_out)
        assert ResultCache(clean_dir).manifest_keys("bounds") == (
            ResultCache(chaos_dir).manifest_keys("bounds")
        )

    def test_permanent_chaos_trips_breaker_then_resume_skips(
        self, tmp_path, capsys
    ):
        """Acceptance: a permanent profile trips the breaker with the
        structured report and quarantines; --resume then skips the
        quarantined points (exit 1 both times, the run is incomplete)."""
        argv = [
            "sweep", "bounds", "--cache-dir", str(tmp_path), "--quiet",
            "--chaos", "fail=0.4,seed=5,sticky=permanent",
            "--retries", "1", "--max-failures", "1",
        ]
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert "circuit breaker opened" in err and "attempts=2" in err
        quarantined = ResultCache(tmp_path).quarantined("bounds")
        assert len(quarantined) == 1

        assert cli_main(
            ["cache", "info", "--cache-dir", str(tmp_path)]
        ) == 0
        assert "quarantined: 1 known-permanent" in capsys.readouterr().out

        resume_argv = [
            "sweep", "bounds", "--cache-dir", str(tmp_path), "--quiet",
            "--resume", "--keep-going",
        ]
        assert cli_main(resume_argv) == 1
        captured = capsys.readouterr()
        assert "(1 quarantined, skipped)" in captured.out
        assert "did not produce results" in captured.err

        # --retry-quarantined without chaos computes the point and clears
        assert cli_main([*resume_argv, "--retry-quarantined"]) == 0
        capsys.readouterr()
        assert ResultCache(tmp_path).quarantined("bounds") == {}

    def test_progress_shows_retry_and_failure_counts(
        self, tmp_path, capsys
    ):
        argv = [
            "sweep", "bounds", "--cache-dir", str(tmp_path),
            "--chaos", "fail=0.4,seed=5,sticky=permanent",
            "--retries", "1", "--keep-going",
        ]
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert "RETRYING" in err
        assert "FAILED" in err and "failed, 0 quarantined]" in err


class TestStartupCost:
    """A warm ``sweep`` is mostly start-up, so the CLI must not pay for
    what it does not run: no eager scipy, numpy or engine import, one
    code version per invocation."""

    @staticmethod
    def _python(script):
        """Run ``script`` in a fresh interpreter on this source tree."""
        src_dir = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, check=True,
        ).stdout

    def test_cli_import_loads_no_scipy(self):
        script = (
            "import sys, repro.__main__;"
            "print(sorted(m for m in sys.modules"
            " if m == 'scipy' or m.startswith('scipy.')))"
        )
        assert self._python(script).strip() == "[]"

    def _warm_sweep_modules(self, tmp_path, capsys, *extra):
        """Fill the cache with ``sweep fig10 --scale 8``, then build every
        campaign and re-run that sweep warm in a fresh interpreter; return
        the modules it loaded."""
        argv = ["sweep", "fig10", "--scale", "8", "--cache-dir",
                str(tmp_path), "--quiet", *extra]
        assert cli_main(argv) == 0
        assert "fig10: 0 cached, 21 computed" in capsys.readouterr().out
        script = (
            "import json, sys\n"
            "from repro.__main__ import main\n"
            "from repro.experiments import ALL_EXPERIMENTS, campaign_for\n"
            "for name in ALL_EXPERIMENTS:\n"
            "    campaign_for(name)\n"
            f"code = main({argv!r})\n"
            "print(json.dumps([code, sorted(sys.modules)]))\n"
        )
        out = self._python(script).splitlines()
        assert "fig10: 21 cached, 0 computed" in "\n".join(out)
        code, modules = json.loads(out[-1])
        assert code == 0
        return modules

    @staticmethod
    def _loaded(modules, packages):
        return [
            m for m in modules
            if m in packages or m.startswith(tuple(p + "." for p in packages))
        ]

    def test_warm_sweep_loads_no_simulation_stack(self, tmp_path, capsys):
        """Experiment modules import the simulation stack only inside
        their point functions: building every campaign and serving a
        sweep from the cache loads none of it."""
        heavy = (
            "numpy", "scipy", "repro.engine", "repro.sim", "repro.schedulers",
            "repro.scenarios", "repro.lu", "repro.analysis.metrics",
            "repro.blocks.matrix",
        )
        modules = self._warm_sweep_modules(tmp_path, capsys)
        assert self._loaded(modules, heavy) == []

    def test_warm_serial_sweep_loads_only_the_serial_backend(
        self, tmp_path, capsys
    ):
        """Backends load by name on first use, ``repro.core`` re-exports
        nothing and ``fig04`` builds its instances inside its point
        function: a warm ``--jobs 1`` sweep loads none of the pools,
        ``socket``, the LP code or ``repro.simple``."""
        unused = (
            "multiprocessing", "socket", "repro.runner.backends.process",
            "repro.runner.backends.chaos",
            "repro.core.bounds",
            "repro.core.homogeneous", "repro.core.heterogeneous",
            "repro.simple",
        )
        modules = self._warm_sweep_modules(tmp_path, capsys, "--jobs", "1")
        assert self._loaded(modules, unused) == []
        assert "repro.runner.backends.serial" in modules

    def test_warm_pool_sweep_starts_no_pool(self, tmp_path, capsys):
        """The process pool starts on the first point it computes: a
        warm ``--jobs 2`` sweep builds the backend but loads no
        ``multiprocessing`` and no ``queue``."""
        modules = self._warm_sweep_modules(tmp_path, capsys, "--jobs", "2")
        assert self._loaded(modules, ("multiprocessing", "queue")) == []
        assert "repro.runner.backends.process" in modules

    @pytest.fixture
    def counted_code_version(self, monkeypatch):
        """Restrict ``sweep all`` to three cheap campaigns and count
        every ``code_version`` call the runner and the CLI make."""
        monkeypatch.setattr(
            cli_module, "ALL_EXPERIMENTS",
            {n: cli_module.ALL_EXPERIMENTS[n]
             for n in ("bounds", "maxreuse", "table1")},
        )
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return code_version(*args, **kwargs)

        for module in (repro.runner, sweep_module, hashing):
            monkeypatch.setattr(module, "code_version", counting)
        return calls

    def test_cached_invocation_resolves_code_version_once(
        self, tmp_path, capsys, counted_code_version
    ):
        argv = ["sweep", "all", "--cache-dir", str(tmp_path), "--quiet"]
        for summary in ("bounds: 0 cached, 8 computed",  # cold
                        "bounds: 8 cached, 0 computed"):  # warm
            counted_code_version.clear()
            assert cli_main(argv) == 0
            assert summary in capsys.readouterr().out
            assert len(counted_code_version) == 1
        # Key derivation is unchanged: every stored key is the one a
        # library call against the same source tree would compute.
        version = code_version()
        for name in ("bounds", "maxreuse", "table1"):
            records = _put_records(tmp_path, name)
            assert records
            for record in records:
                assert record["key"] == point_key(
                    name, record["params"], version
                )

    def test_no_cache_never_resolves_code_version(
        self, tmp_path, capsys, counted_code_version
    ):
        argv = [
            "sweep", "all", "--cache-dir", str(tmp_path), "--no-cache",
            "--quiet",
        ]
        assert cli_main(argv) == 0
        assert "table1: 0 cached, 1 computed" in capsys.readouterr().out
        assert counted_code_version == []
