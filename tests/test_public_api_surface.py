"""Regression net for the public API surface.

Every name promised by the package ``__all__`` lists and the README /
docs must import and be callable-ish; a rename or accidental removal
fails here before any user notices.
"""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

EXPECTED_TOP_LEVEL = [
    "DBSCOUT",
    "CoreModel",
    "IncrementalDBSCOUT",
    "DistanceBasedDetector",
    "classify",
    "detect_outliers",
    "detect_with_scores",
    "detect_geographic",
    "nearest_core_distance",
    "estimate_eps",
    "k_distance_graph",
    "DetectionResult",
    "TimingBreakdown",
    "ReproError",
    "ParameterError",
    "DataValidationError",
    "NotFittedError",
    "SparkLiteError",
    "ArtifactError",
    "ServeError",
    "ServiceOverloadedError",
    "DeadlineExceededError",
    "UnknownDetectorError",
]

EXPECTED_BY_MODULE = {
    "repro.baselines": [
        "DBSCAN",
        "GridDBSCAN",
        "RPDBSCAN",
        "LocalOutlierFactor",
        "DDLOF",
        "IsolationForest",
        "OneClassSVM",
        "KNNOutlierDetector",
        "HBOS",
    ],
    "repro.sparklite": [
        "Context",
        "RDD",
        "HashPartitioner",
        "CellPartitioner",
        "Broadcast",
        "Accumulator",
        "EngineMetrics",
        "FailFirstAttempts",
        "RandomFailures",
        "ClusterConfig",
        "MemoryModel",
        "CONFIGURATION_1",
        "CONFIGURATION_2",
        "estimate_size",
    ],
    "repro.datasets": [
        "LabelledDataset",
        "make_blobs",
        "make_blobs_varying_density",
        "make_circles",
        "make_moons",
        "make_cluto_t4",
        "make_cluto_t5",
        "make_cluto_t7",
        "make_cluto_t8",
        "make_cure_t2",
        "make_geolife_like",
        "make_geolife_like_labeled",
        "make_openstreetmap_like",
        "enlarge_with_jitter",
        "sample_fraction",
        "project_to_meters",
        "unproject_to_degrees",
        "haversine_distance",
    ],
    "repro.metrics": [
        "f1_score",
        "precision_score",
        "recall_score",
        "confusion_counts",
        "compare_outlier_sets",
        "roc_auc_score",
        "average_precision_score",
        "precision_at_n",
    ],
    "repro.obs": [
        "Tracer",
        "Span",
        "SpanRecord",
        "span",
        "NOOP_SPAN",
        "enable_tracing",
        "disable_tracing",
        "tracing_enabled",
        "enable_profiling",
        "disable_profiling",
        "profiling_enabled",
        "current_tracer",
        "MetricsRegistry",
        "to_builtin",
        "peak_rss_bytes",
        "memory_snapshot",
        "SCHEMA_VERSION",
        "RunRecord",
        "RunRecorder",
        "JsonlSink",
        "InMemorySink",
        "add_sink",
        "remove_sink",
        "recording",
        "iter_jsonl",
        "RecordDiff",
        "DiffEntry",
        "diff_records",
        "format_diff",
        "format_record",
        "format_span_tree",
    ],
    "repro.core": [
        "CoreModel",
        "classify",
        "CellMap",
        "Grid",
        "NeighborStencil",
    ],
    "repro.serve": [
        "ARTIFACT_MAGIC",
        "ARTIFACT_SCHEMA_VERSION",
        "DetectorArtifact",
        "fit_artifact",
        "load_artifact",
        "save_artifact",
        "OutlierClient",
        "OutlierServer",
        "run_server",
        "OutlierService",
        "QueryOutcome",
    ],
    "repro.stream": [
        "LiveDetector",
        "IngestOutcome",
        "StreamSnapshot",
        "StreamCoordinator",
        "EvictionPolicy",
        "CountWindow",
        "TimeWindow",
        "KeepAll",
        "resolve_policy",
    ],
    "repro.experiments": [
        "run_timed",
        "Measurement",
        "format_table",
        "format_series",
        "ascii_scatter",
        "ascii_curve",
        "ascii_loglog",
        "save_experiment",
        "load_experiment",
        "sweep_grid",
        "stability_report",
    ],
}


def test_top_level_names_importable():
    package = importlib.import_module("repro")
    for name in EXPECTED_TOP_LEVEL:
        assert hasattr(package, name), name


def test_top_level_all_is_importable():
    package = importlib.import_module("repro")
    for name in package.__all__:
        assert getattr(package, name, None) is not None, name


@pytest.mark.parametrize("module_name", sorted(EXPECTED_BY_MODULE))
def test_module_surfaces(module_name):
    module = importlib.import_module(module_name)
    for name in EXPECTED_BY_MODULE[module_name]:
        assert hasattr(module, name), f"{module_name}.{name}"
    for name in getattr(module, "__all__", []):
        assert getattr(module, name, None) is not None, name


def test_version_string():
    package = importlib.import_module("repro")
    parts = package.__version__.split(".")
    assert len(parts) == 3 and all(part.isdigit() for part in parts)


def test_cli_module_has_main():
    cli = importlib.import_module("repro.cli")
    assert callable(cli.main)
    assert callable(cli.build_parser)


def test_entry_points_do_not_import_scipy():
    # scipy.spatial costs ~0.3 s to import; only k_distance_graph needs
    # it, so neither the package nor the CLI, serve and stream entry
    # points may load it (a fresh process is the only clean slate).
    import repro

    src = pathlib.Path(repro.__file__).resolve().parent.parent
    code = (
        "import sys, repro, repro.cli, repro.serve, repro.stream; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    completed = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=120, check=True, env=env,
    )
    assert completed.stdout.strip() == "[]"
