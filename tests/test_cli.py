"""Tests for the ``python -m repro`` command-line interface."""

import numpy as np
import pytest

from repro.cli import main
from repro.datasets.io import save_points


@pytest.fixture
def points_file(tmp_path, rng):
    cluster = rng.normal(0.0, 0.3, size=(150, 2))
    outliers = np.array([[9.0, 9.0], [-8.0, 4.0]])
    path = tmp_path / "points.csv"
    save_points(np.vstack([cluster, outliers]), path)
    return path


class TestDetect:
    def test_prints_outlier_indices(self, points_file, capsys):
        code = main(
            ["detect", str(points_file), "--eps", "1.0", "--min-pts", "5"]
        )
        assert code == 0
        printed = capsys.readouterr().out.split()
        assert printed == ["150", "151"]

    def test_auto_eps(self, points_file, capsys):
        code = main(
            ["detect", str(points_file), "--auto-eps", "--min-pts", "5"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "estimated eps" in captured.err
        assert "150" in captured.out.split()

    def test_requires_eps_or_auto(self, points_file, capsys):
        code = main(["detect", str(points_file), "--min-pts", "5"])
        assert code == 2
        assert "provide --eps or --auto-eps" in capsys.readouterr().err

    def test_output_file(self, points_file, tmp_path, capsys):
        out = tmp_path / "outliers.txt"
        code = main(
            [
                "detect",
                str(points_file),
                "--eps",
                "1.0",
                "--min-pts",
                "5",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        assert out.read_text().split() == ["150", "151"]

    def test_distributed_engine(self, points_file, capsys):
        code = main(
            [
                "detect",
                str(points_file),
                "--eps",
                "1.0",
                "--min-pts",
                "5",
                "--engine",
                "distributed",
                "--num-partitions",
                "3",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.split() == ["150", "151"]

    @pytest.mark.parametrize("command", ["detect", "fit"])
    def test_distributed_engine_rejects_kernel(
        self, points_file, tmp_path, capsys, command
    ):
        # --kernel picks the vectorized engine's tier; the distributed
        # engine takes none, so an explicit one is a clean error.
        argv = [
            command, str(points_file), "--eps", "1.0", "--min-pts", "5",
            "--engine", "distributed", "--kernel", "c",
        ]
        if command == "fit":
            argv += ["--save-artifact", str(tmp_path / "model.npz")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the distributed engine does not take")
        assert "kernel" in err

    def test_stats_flag(self, points_file, capsys):
        code = main(
            [
                "detect",
                str(points_file),
                "--eps",
                "1.0",
                "--min-pts",
                "5",
                "--stats",
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "outliers: 2" in err
        assert "timings" in err

    def test_missing_file_is_clean_error(self, tmp_path, capsys):
        code = main(
            ["detect", str(tmp_path / "nope.csv"), "--eps", "1", "--min-pts", "5"]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_parameters_clean_error(self, points_file, capsys):
        code = main(
            ["detect", str(points_file), "--eps", "-1", "--min-pts", "5"]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_quality_flag_is_gone(self, points_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "detect", str(points_file), "--eps", "1.0",
                    "--min-pts", "5", "--quality", "fast",
                ]
            )
        assert excinfo.value.code == 2
        assert "--quality" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag",
        [
            ["--n-jobs", "2"],
            ["--pair-budget", "10"],
            ["--cell-planner", "tree"],
        ],
        ids=["n-jobs", "pair-budget", "cell-planner"],
    )
    def test_removed_speed_flags_are_gone(self, points_file, capsys, flag):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "detect", str(points_file), "--eps", "1.0",
                    "--min-pts", "5", *flag,
                ]
            )
        assert excinfo.value.code == 2
        assert flag[0] in capsys.readouterr().err


class TestEstimateEps:
    def test_prints_positive_float(self, points_file, capsys):
        code = main(["estimate-eps", str(points_file), "--min-pts", "5"])
        assert code == 0
        assert float(capsys.readouterr().out.strip()) > 0


class TestGenerate:
    @pytest.mark.parametrize("name", ["blobs", "osm", "geolife"])
    def test_generates_file(self, name, tmp_path, capsys):
        out = tmp_path / f"{name}.npy"
        code = main(
            ["generate", name, "--n", "500", "--seed", "1", "--output", str(out)]
        )
        assert code == 0
        data = np.load(out)
        assert data.shape[0] == 500

    def test_generated_file_feeds_detect(self, tmp_path, capsys):
        out = tmp_path / "blobs.csv"
        assert main(
            ["generate", "blobs", "--n", "400", "--output", str(out)]
        ) == 0
        code = main(
            ["detect", str(out), "--auto-eps", "--min-pts", "5"]
        )
        assert code == 0


class TestCompare:
    def test_default_detectors(self, points_file, capsys):
        code = main(["compare", str(points_file), "--min-pts", "5"])
        assert code == 0
        out = capsys.readouterr().out
        for name in ("dbscout", "lof", "iforest", "knn"):
            assert name in out

    def test_explicit_eps_and_subset(self, points_file, capsys):
        code = main(
            [
                "compare",
                str(points_file),
                "--min-pts",
                "5",
                "--eps",
                "1.0",
                "--detectors",
                "dbscout,dbscan",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "dbscan" in out
        # Exact pair must agree on the outlier count.
        rows = [
            line.split()
            for line in out.splitlines()
            if line.startswith(("dbscout", "dbscan"))
        ]
        assert rows[0][1] == rows[1][1]

    def test_unknown_detector(self, points_file, capsys):
        code = main(
            [
                "compare",
                str(points_file),
                "--min-pts",
                "5",
                "--detectors",
                "dbscout,magic",
            ]
        )
        assert code == 2
        assert "unknown detectors" in capsys.readouterr().err


class TestParser:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestFit:
    def test_fit_writes_artifact(self, points_file, tmp_path, capsys):
        artifact_path = tmp_path / "det.npz"
        code = main(
            [
                "fit",
                str(points_file),
                "--eps",
                "1.0",
                "--min-pts",
                "5",
                "--save-artifact",
                str(artifact_path),
            ]
        )
        assert code == 0
        assert artifact_path.exists()
        err = capsys.readouterr().err
        assert "artifact 'det' written" in err
        from repro.serve import load_artifact

        loaded = load_artifact(artifact_path)
        assert loaded.name == "det"
        assert loaded.model.eps == 1.0

    def test_fit_artifact_classifies_like_detect(
        self, points_file, tmp_path, capsys
    ):
        artifact_path = tmp_path / "det.npz"
        assert main(
            [
                "fit",
                str(points_file),
                "--eps",
                "1.0",
                "--min-pts",
                "5",
                "--save-artifact",
                str(artifact_path),
                "--name",
                "custom",
            ]
        ) == 0
        from repro.datasets.io import load_points
        from repro.serve import load_artifact

        artifact = load_artifact(artifact_path)
        assert artifact.name == "custom"
        points = load_points(points_file)
        labels = artifact.classify(points)
        assert sorted(np.flatnonzero(labels == 1)) == [150, 151]

    def test_fit_requires_eps_or_auto(self, points_file, tmp_path, capsys):
        code = main(
            [
                "fit",
                str(points_file),
                "--min-pts",
                "5",
                "--save-artifact",
                str(tmp_path / "x.npz"),
            ]
        )
        assert code == 2
        assert "provide --eps or --auto-eps" in capsys.readouterr().err


class TestQuery:
    def test_query_against_live_server(
        self, points_file, tmp_path, capsys
    ):
        import asyncio
        import threading

        from repro.datasets.io import load_points
        from repro.serve import OutlierServer, OutlierService, load_artifact

        artifact_path = tmp_path / "det.npz"
        assert main(
            [
                "fit",
                str(points_file),
                "--eps",
                "1.0",
                "--min-pts",
                "5",
                "--save-artifact",
                str(artifact_path),
            ]
        ) == 0
        service = OutlierService()
        service.register("det", load_artifact(artifact_path))
        server = OutlierServer(service, port=0)
        loop = asyncio.new_event_loop()
        started = threading.Event()

        def run() -> None:
            asyncio.set_event_loop(loop)
            loop.run_until_complete(server.start())
            started.set()
            loop.run_forever()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        assert started.wait(timeout=10)
        try:
            code = main(
                [
                    "query",
                    str(points_file),
                    "--detector",
                    "det",
                    "--port",
                    str(server.port),
                    "--stats",
                ]
            )
            assert code == 0
            captured = capsys.readouterr()
            assert captured.out.split() == ["150", "151"]
            assert "2 outliers in 152 points" in captured.err
            assert "serve.requests" in captured.err

            out = tmp_path / "outliers.txt"
            code = main(
                [
                    "query",
                    str(points_file),
                    "--detector",
                    "det",
                    "--port",
                    str(server.port),
                    "--output",
                    str(out),
                ]
            )
            assert code == 0
            assert out.read_text().split() == ["150", "151"]
        finally:
            asyncio.run_coroutine_threadsafe(server.aclose(), loop).result(
                timeout=10
            )
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=10)
            loop.close()
            service.close()

    def test_query_connection_refused_is_clean_error(
        self, points_file, capsys
    ):
        import socket

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        code = main(
            [
                "query",
                str(points_file),
                "--detector",
                "det",
                "--port",
                str(free_port),
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestStream:
    def test_stream_feeds_live_server(self, points_file, capsys):
        import asyncio
        import threading

        from repro.serve import OutlierServer, OutlierService
        from repro.stream import LiveDetector, StreamCoordinator

        service = OutlierService()
        live = LiveDetector(eps=1.0, min_pts=5, name="gps")
        coordinator = StreamCoordinator(
            live, service, name="gps", every_points=64
        )
        server = OutlierServer(service, port=0)
        server.attach_stream("gps", coordinator)
        loop = asyncio.new_event_loop()
        started = threading.Event()

        def run() -> None:
            asyncio.set_event_loop(loop)
            loop.run_until_complete(server.start())
            started.set()
            loop.run_forever()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        assert started.wait(timeout=10)
        try:
            code = main(
                [
                    "stream",
                    str(points_file),
                    "--connect",
                    f"127.0.0.1:{server.port}",
                    "--stream",
                    "gps",
                    "--batch-size",
                    "64",
                    "--status",
                ]
            )
            assert code == 0
            captured = capsys.readouterr()
            assert "ingested 152 points into 'gps'" in captured.err
            assert "swap -> version 1" in captured.err
            assert '"versions"' in captured.out
            assert live.window_points == 152
            # The swapped model is served: the planted outliers flag.
            labels = service.query(
                "gps", np.array([[9.0, 9.0], [0.0, 0.0]])
            )
            assert labels.tolist() == [1, 0]
        finally:
            asyncio.run_coroutine_threadsafe(server.aclose(), loop).result(
                timeout=10
            )
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=10)
            loop.close()
            service.close()

    def test_stream_bad_connect_is_clean_error(self, points_file, capsys):
        code = main(
            ["stream", str(points_file), "--connect", "nowhere"]
        )
        assert code == 2
        assert "HOST:PORT" in capsys.readouterr().err
