"""Smoke tests: every example script runs end-to-end at a tiny scale."""

import os
import subprocess
import sys

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "examples")
SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))

TINY_ENV = {
    "REPRO_SCALE": "0.08",
    "REPRO_EPOCHS": "2",
    "REPRO_SCALES": "0.05,0.08",
}


def run_example(name, extra_env=None, timeout=420):
    env = dict(os.environ)
    # pytest's `pythonpath` ini option only extends this process's
    # sys.path; the example subprocess needs src/ on PYTHONPATH itself.
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + existing if existing else "")
    env.update(TINY_ENV)
    if extra_env:
        env.update(extra_env)
    result = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES, name)],
        capture_output=True, text=True, env=env, timeout=timeout,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


def test_quickstart_runs():
    out = run_example("quickstart.py")
    assert "node anomaly detection" in out
    assert "edge anomaly detection" in out
    assert "top-10 suspicious nodes" in out


def test_streaming_service_runs():
    out = run_example("streaming_service.py",
                      {"REPRO_SCALE": "0.08", "REPRO_EVENTS": "8"})
    assert "published cora-detector v1" in out
    assert "rolling node AUC" in out
    assert "rescored" in out


def test_fraud_detection_runs():
    out = run_example("fraud_detection.py", {"REPRO_SCALE": "0.01"})
    assert "fraudster detection AUC" in out
    assert "review queue" in out


def test_citation_audit_runs():
    out = run_example("citation_audit.py")
    assert "BOURNE" in out and "CoLA" in out and "UGED" in out
    assert "ROC:" in out


def test_scalability_study_runs():
    out = run_example("scalability_study.py", {"REPRO_EPOCHS": "1"})
    assert "acceleration vs BOURNE" in out
    assert "SL-GAD" in out
