"""DSE checkpoint/resume: killed runs continue to the same trajectory.

The explorer's rng never consumes state between generations (children
are spawned by ``(iteration, candidate)`` key), so a run restored from
a checkpoint replays the exact remaining trajectory. These tests pin
that equality in-process and through a real ``kill -9`` of the CLI,
that a checkpoint written under different settings is refused, and
that a failed write never damages the previous checkpoint.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.adg import topologies
from repro.dse.checkpoint import load_checkpoint, save_checkpoint
from repro.dse.explorer import CHECKPOINT_VERSION, DesignSpaceExplorer
from repro.errors import DseError
from repro.utils.rng import DeterministicRng
from repro.workloads import kernel as make_kernel

SEED = 11
DSE_ITERS = 5
SCHED_ITERS = 15


def _make_explorer(seed=SEED, kernels=("mm",), **kwargs):
    kwargs.setdefault("sched_iters", SCHED_ITERS)
    return DesignSpaceExplorer(
        [make_kernel(name, 0.05) for name in kernels],
        topologies.dse_initial(),
        rng=DeterministicRng(seed),
        initial_sched_iters=SCHED_ITERS * 3,
        **kwargs,
    )


def _trajectory(result):
    return [
        (h.iteration, h.candidate, h.objective, h.accepted)
        for h in result.history
    ]


class TestCheckpointResume:
    def test_resumed_equals_uninterrupted(self, tmp_path):
        full = _make_explorer().run(max_iters=DSE_ITERS)

        path = str(tmp_path / "ck.json")
        _make_explorer().run(max_iters=2, checkpoint_path=path)
        assert os.path.exists(path)
        resumed = _make_explorer().run(
            max_iters=DSE_ITERS, checkpoint_path=path, resume=True,
        )

        assert resumed.best_objective == full.best_objective
        assert _trajectory(resumed) == _trajectory(full)
        assert resumed.final_area == full.final_area

    def test_checkpoint_file_shape(self, tmp_path):
        path = str(tmp_path / "ck.json")
        _make_explorer().run(
            max_iters=2, checkpoint_path=path, checkpoint_every=1,
        )
        with open(path) as handle:
            record = json.load(handle)
        assert record["version"] == CHECKPOINT_VERSION
        assert record["seed"] == repr(DeterministicRng(SEED).seed)
        assert record["iteration"] >= 1
        assert record["history"]
        assert record["baseline_cycles"]
        assert record["state_blob"]
        # No stale temp file survives the atomic rename.
        assert not os.path.exists(path + ".tmp")

    def test_resume_with_missing_checkpoint_starts_fresh(
        self, tmp_path
    ):
        path = str(tmp_path / "never-written.json")
        result = _make_explorer().run(
            max_iters=2, checkpoint_path=path, resume=True,
        )
        assert result.best_adg is not None
        assert os.path.exists(path)  # final checkpoint written anyway

    def test_resume_with_wrong_seed_refuses(self, tmp_path):
        path = str(tmp_path / "ck.json")
        _make_explorer(seed=SEED).run(max_iters=2, checkpoint_path=path)
        with pytest.raises(DseError):
            _make_explorer(seed=SEED + 1).run(
                max_iters=DSE_ITERS, checkpoint_path=path, resume=True,
            )

    def test_resume_of_finished_run_is_idempotent(self, tmp_path):
        path = str(tmp_path / "ck.json")
        first = _make_explorer().run(
            max_iters=DSE_ITERS, checkpoint_path=path,
        )
        again = _make_explorer().run(
            max_iters=DSE_ITERS, checkpoint_path=path, resume=True,
        )
        assert again.best_objective == first.best_objective
        assert _trajectory(again) == _trajectory(first)


@pytest.fixture(scope="module")
def pinned_checkpoint(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("pinned") / "ck.json")
    _make_explorer(fidelity="multi").run(max_iters=1, checkpoint_path=path)
    return path


class TestPinnedSettings:
    @pytest.mark.parametrize("key, changed", [
        ("seed", {"seed": SEED + 1}),
        ("fidelity", {"fidelity": "full"}),
        ("surrogate_top", {"surrogate_top": 2}),
        ("surrogate_widen", {"surrogate_widen": 3}),
        ("recalibrate_every", {"recalibrate_every": 5}),
        ("sched_iters", {"sched_iters": SCHED_ITERS * 2}),
        ("use_repair", {"use_repair": False}),
        ("area_budget_mm2", {"area_budget_mm2": 0.5}),
        ("power_budget_mw", {"power_budget_mw": 1000.0}),
        ("kernels", {"kernels": ("mm", "histogram")}),
    ])
    def test_resume_with_changed_setting_refuses(
        self, pinned_checkpoint, key, changed
    ):
        kwargs = {"fidelity": "multi", **changed}
        explorer = _make_explorer(**kwargs)
        with pytest.raises(DseError, match=f"{key}="):
            explorer.run(
                max_iters=DSE_ITERS, checkpoint_path=pinned_checkpoint,
                resume=True,
            )

    def test_unchanged_settings_resume(self, pinned_checkpoint, tmp_path):
        path = str(tmp_path / "ck.json")
        with open(pinned_checkpoint) as src, open(path, "w") as dst:
            dst.write(src.read())
        explorer = _make_explorer(fidelity="multi")
        explorer.run(max_iters=1, checkpoint_path=path, resume=True)
        assert explorer.telemetry.counters["dse_resumes"] == 1

    def test_older_version_refuses(self, pinned_checkpoint, tmp_path):
        with open(pinned_checkpoint) as handle:
            record = json.load(handle)
        record["version"] = 2
        path = str(tmp_path / "v2.json")
        with open(path, "w") as handle:
            json.dump(record, handle)
        with pytest.raises(DseError, match="version=2"):
            _make_explorer(fidelity="multi").run(
                max_iters=DSE_ITERS, checkpoint_path=path, resume=True,
            )


class TestAtomicWrite:
    """A write that fails at any step leaves no tempfile behind and the
    previous checkpoint readable."""

    def _write_first(self, tmp_path):
        path = str(tmp_path / "ck.json")
        save_checkpoint(path, 1, {"seed": "s"}, {"iteration": 1}, ["old"])
        return path

    def _assert_intact(self, tmp_path, path):
        assert os.listdir(tmp_path) == ["ck.json"]
        record, state = load_checkpoint(path, 1, {"seed": "s"})
        assert record["iteration"] == 1
        assert state == ["old"]

    @pytest.mark.parametrize("step", ["replace", "fsync"])
    def test_failed_os_step_keeps_previous(
        self, tmp_path, monkeypatch, step
    ):
        path = self._write_first(tmp_path)

        def boom(*args, **kwargs):
            raise OSError(f"injected {step} failure")

        monkeypatch.setattr(os, step, boom)
        with pytest.raises(OSError, match=step):
            save_checkpoint(
                path, 1, {"seed": "s"}, {"iteration": 2}, ["new"],
            )
        monkeypatch.undo()
        self._assert_intact(tmp_path, path)

    def test_unserializable_fields_keep_previous(self, tmp_path):
        path = self._write_first(tmp_path)
        with pytest.raises(TypeError):
            save_checkpoint(
                path, 1, {"seed": "s"}, {"iteration": object()}, ["new"],
            )
        self._assert_intact(tmp_path, path)


class TestKillNineResume:
    def test_kill_9_mid_run_resumes_to_same_objective(self, tmp_path):
        """SIGKILL the CLI mid-exploration; the resumed run must land on
        the uninterrupted trajectory's final objective."""
        path = str(tmp_path / "ck.json")
        cli = [
            sys.executable, "-m", "repro", "dse",
            "--workloads", "mm", "--initial", "dse_initial",
            "--iters", str(DSE_ITERS), "--scale", "0.05",
            "--sched-iters", str(SCHED_ITERS), "--seed", str(SEED),
            "--checkpoint", path,
        ]
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        # The uninterrupted reference, constructed exactly as cmd_dse
        # constructs its explorer (default initial budget).
        expected_cli = DesignSpaceExplorer(
            [make_kernel("mm", 0.05)],
            topologies.dse_initial(),
            rng=DeterministicRng(SEED),
            sched_iters=SCHED_ITERS,
        ).run(max_iters=DSE_ITERS)

        proc = subprocess.Popen(
            cli, env=env, cwd=os.path.dirname(os.path.dirname(
                os.path.abspath(__file__))),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        # Kill as soon as the first checkpoint lands (mid-run); if the
        # run finishes first the test still exercises resume-at-end.
        deadline = time.time() + 120
        while time.time() < deadline:
            if os.path.exists(path) or proc.poll() is not None:
                break
            time.sleep(0.05)
        if proc.poll() is None:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
            assert proc.returncode != 0
        assert os.path.exists(path), "no checkpoint before the kill"

        resume = subprocess.run(
            cli + ["--resume"], env=env,
            cwd=os.path.dirname(os.path.dirname(
                os.path.abspath(__file__))),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            timeout=300,
        )
        assert resume.returncode == 0, resume.stdout.decode()

        with open(path) as handle:
            final = json.load(handle)
        assert final["best_objective"] == pytest.approx(
            expected_cli.best_objective, rel=0, abs=0,
        )
        assert len(final["history"]) == len(expected_cli.history)
