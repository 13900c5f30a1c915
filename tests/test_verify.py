"""Tests for the verification driver itself."""

import json
import math
import warnings

import pytest

from gbstates import hp_algebra, resolution
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


def _check(report, name):
    (check,) = [c for g in report["groups"] for c in g["checks"] if c["name"] == name]
    return check


@pytest.mark.parametrize("n", [None, 0, 1, 5])
def test_link_oracle_check_passes(n):
    report = run_verification(VerifyConfig(groups=("rotation",), n=n))
    check = _check(report, "link-vs-expm-oracle")
    assert check["passed"] is True and check["bound"] == 1e-12


def test_link_oracle_check_catches_a_sign_error(monkeypatch):
    # composing with alpha where alpha/2 belongs flips the sign of T at odd N
    link = hp_algebra.link_operator

    def flipped(N, a, b):
        return link(N, a, b) * (-1.0) ** N

    monkeypatch.setattr(hp_algebra, "link_operator", flipped)
    report = run_verification(VerifyConfig(groups=("rotation",), n=5))
    assert _check(report, "link-vs-expm-oracle")["passed"] is False


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_negative_n_rejected_before_any_group_runs(group):
    with pytest.raises(ValueError, match="non-negative integer"):
        run_verification(VerifyConfig(groups=(group,), n=-1))


def test_timings_add_only_a_seconds_field_per_group():
    cfg = VerifyConfig(groups=("gbs", "coherent"), n=3)
    plain = run_verification(cfg)
    timed = run_verification(VerifyConfig(groups=cfg.groups, n=3, timings=True))
    assert all("seconds" not in g for g in plain["groups"])
    assert all(g.pop("seconds") >= 0.0 for g in timed["groups"])
    assert timed == plain


def test_completeness_runs_at_n400():
    # A = p^(-N/2) <N,p,phi|psi> overflows a double here for small p; the
    # overlap-vs-series deviation is relative, so it is taken on A p^(N/2)
    report = run_verification(VerifyConfig(groups=("completeness",), n=400))
    checks = {c["name"]: c for c in report["groups"][0]["checks"]}
    assert len(checks) == 6
    assert checks["amplitude-overlap-vs-series"]["value"] <= 1e-10
    assert checks["amplitude-overlap-vs-series"]["passed"] is True
