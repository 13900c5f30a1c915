"""Tests for the verification driver itself."""

import json
import math
import warnings

import pytest

from gbstates import resolution
from gbstates.verify import GROUPS, VerifyConfig, run_verification


def test_every_group_passes_at_default_bounds():
    report = run_verification(VerifyConfig(seed=123))
    assert sorted(g["name"] for g in report["groups"]) == sorted(GROUPS)
    assert report["all_passed"] is True


def test_overtight_tolerance_reports_failures_without_crash():
    report = run_verification(VerifyConfig(tolerance=1e-16, groups=("gbs", "algebra")))
    assert report["all_passed"] is False
    failed = [
        c["name"]
        for g in report["groups"]
        for c in g["checks"]
        if not c["passed"]
    ]
    assert failed


def test_group_filter_and_n_restriction():
    report = run_verification(VerifyConfig(groups=("completeness",), n=5))
    assert [g["name"] for g in report["groups"]] == ["completeness"]
    assert report["all_passed"] is True


@pytest.mark.parametrize("n", [100, 200, 500])
def test_delta_group_passes_at_large_n(n):
    # includes rotation-columns-match against the dense-expm rotation
    report = run_verification(VerifyConfig(n=n, groups=("delta",)))
    assert report["all_passed"] is True


def test_unknown_group_rejected():
    with pytest.raises(ValueError, match="unknown"):
        run_verification(VerifyConfig(groups=("bogus",)))


def test_diagnostic_check_never_gates():
    report = run_verification(VerifyConfig(groups=("appendix",), tolerance=1e-30))
    appendix = report["groups"][0]
    diag = [c for c in appendix["checks"] if c.get("diagnostic")]
    assert diag and all(c["passed"] for c in diag)


def test_diagnostic_without_bound_serialises_as_strict_json():
    report = run_verification(VerifyConfig(groups=("appendix",)))
    json.dumps(report, allow_nan=False)
    diag = [c for c in report["groups"][0]["checks"] if c.get("diagnostic")]
    assert diag and all(c["bound"] is None for c in diag)


@pytest.mark.parametrize("tolerance", [math.nan, math.inf, -1e-12])
def test_bad_tolerance_rejected_before_any_group_runs(tolerance):
    with pytest.raises(ValueError, match="tolerance"):
        run_verification(VerifyConfig(tolerance=tolerance, groups=("appendix",)))


def _warned_check(report):
    (check,) = [
        c for c in report["groups"][0]["checks"] if c["name"] == "under-resolved-grid-warned"
    ]
    return check


def test_under_resolved_warning_is_report_data():
    with warnings.catch_warnings(record=True) as leaked:
        warnings.simplefilter("always")
        report = run_verification(VerifyConfig(groups=("completeness",), n=3))
    assert leaked == []
    check = _warned_check(report)
    assert check["passed"] is True and check["value"] >= 1
    assert all("under-resolved for N=3" in msg for msg in check["warnings"])


def test_missing_under_resolved_warning_fails_the_check(monkeypatch):
    monkeypatch.setattr(resolution, "_warn_if_under_resolved", lambda N, quad: None)
    report = run_verification(VerifyConfig(groups=("completeness",), n=3))
    check = _warned_check(report)
    assert check["passed"] is False and check["warnings"] == []
