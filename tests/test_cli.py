"""Tests for the command-line surface: formats, determinism, exit codes."""

import json
import math

import numpy as np
import pytest

from gbstates import cli
from gbstates.cli import main
from gbstates.gbs import GbsParams, gbs_state


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestState:
    def test_number_state_amplitudes(self, capsys):
        code, out, _ = run_cli(capsys, "state", "-N", "2", "-p", "1", "--phi", "0")
        assert code == 0
        data = json.loads(out)
        assert [a["re"] for a in data["amplitudes"]] == [0, 0, 1]

    def test_trivial_vacuum(self, capsys):
        code, out, _ = run_cli(capsys, "state", "-N", "0", "-p", "0.3")
        assert code == 0
        assert [a["re"] for a in json.loads(out)["amplitudes"]] == [1]

    def test_balanced_two_photon(self, capsys):
        _, out, _ = run_cli(capsys, "state", "-N", "2", "-p", "0.5", "--phi", "0")
        values = [a["re"] for a in json.loads(out)["amplitudes"]]
        np.testing.assert_allclose(values, [0.5, 0.7071067811865476, 0.5], atol=1e-15)

    def test_round_trip_parses_back_to_state(self, capsys):
        params = GbsParams(5, 0.42, 2.2)
        _, out, _ = run_cli(
            capsys, "state", "-N", "5", "-p", "0.42", "--phi", "2.2"
        )
        data = json.loads(out)
        amp = np.array([complex(a["re"], a["im"]) for a in data["amplitudes"]])
        assert np.abs(amp - gbs_state(params).amp).max() <= 1e-15

    def test_csv_format(self, capsys):
        _, out, _ = run_cli(capsys, "state", "-N", "1", "-p", "1", "--format", "csv")
        lines = out.strip().split("\n")
        assert lines[0] == "n,re,im"
        assert lines[1] == "0,0,0"
        assert lines[2] == "1,1,0"

    def test_degrees_flag(self, capsys):
        _, out_deg, _ = run_cli(
            capsys, "state", "-N", "1", "-p", "0.5", "--phi", "90", "--degrees"
        )
        _, out_rad, _ = run_cli(
            capsys, "state", "-N", "1", "-p", "0.5", "--phi", str(math.pi / 2)
        )
        assert json.loads(out_deg)["phi"] == pytest.approx(json.loads(out_rad)["phi"])

    def test_invalid_probability_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "state", "-N", "2", "-p", "1.5")
        assert code == 2
        assert "probability" in err

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "state", "-N", "7", "-p", "0.3", "--phi", "1.0")
        _, second, _ = run_cli(capsys, "state", "-N", "7", "-p", "0.3", "--phi", "1.0")
        assert first == second


class TestOverlapAndPartner:
    def test_partner_overlap_is_zero(self, capsys):
        _, out, _ = run_cli(capsys, "partner", "-N", "3", "-p", "0.3", "--phi", "0.2")
        partner = json.loads(out)
        _, out2, _ = run_cli(
            capsys,
            "overlap", "-N", "3", "-p", "0.3", "--phi", "0.2",
            "--p2", str(partner["p"]), "--phi2", str(partner["phi"]),
        )
        assert json.loads(out2)["abs"] <= 1e-12

    def test_partner_values(self, capsys):
        _, out, _ = run_cli(capsys, "partner", "-N", "3", "-p", "0.3", "--phi", "0.2")
        data = json.loads(out)
        assert data["p"] == pytest.approx(0.7)
        assert data["phi"] == pytest.approx(0.2 + math.pi)

    def test_partner_at_zero_photons_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "partner", "-N", "0", "-p", "0.3")
        assert code == 2
        assert out == ""
        assert "no orthogonal partner" in err

    def test_overlap_self_is_one(self, capsys):
        _, out, _ = run_cli(
            capsys, "overlap", "-N", "4", "-p", "0.6", "--phi", "1.0",
            "--p2", "0.6", "--phi2", "1.0",
        )
        assert json.loads(out)["abs"] == pytest.approx(1.0, abs=1e-12)


class TestBasis:
    def test_includes_two_photon_middle_state(self, capsys):
        p, phi = 0.3, 0.9
        _, out, _ = run_cli(capsys, "basis", "-N", "2", "-p", str(p), "--phi", str(phi))
        states = json.loads(out)["states"]
        mid = np.array([complex(a["re"], a["im"]) for a in states[1]])
        expected = np.array(
            [
                math.sqrt(2 * p * (1 - p)),
                (2 * p - 1) * np.exp(1j * phi),
                -math.sqrt(2 * p * (1 - p)) * np.exp(2j * phi),
            ]
        )
        np.testing.assert_allclose(mid, expected, atol=1e-12)

    @pytest.mark.parametrize(
        "argv", [("-N", "-1", "-p", "0.3"), ("-N", "3", "-p", "nan"), ("-N", "3", "-p", "1.5")]
    )
    def test_bad_input_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "basis", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_csv_rows(self, capsys):
        _, out, _ = run_cli(
            capsys, "basis", "-N", "1", "-p", "0.5", "--format", "csv"
        )
        lines = out.strip().split("\n")
        assert lines[0] == "m,n,re,im"
        assert len(lines) == 5  # 2 states x 2 amplitudes


class TestExpand:
    def test_round_trip_through_file(self, capsys, tmp_path):
        state_file = tmp_path / "state.json"
        code, out, _ = run_cli(
            capsys, "state", "-N", "4", "-p", "0.37", "--phi", "2.5"
        )
        state_file.write_text(out)
        code, out2, _ = run_cli(capsys, "expand", str(state_file))
        assert code == 0
        original = json.loads(out)["amplitudes"]
        expanded = json.loads(out2)["amplitudes"]
        for a, b in zip(original, expanded):
            assert abs(complex(a["re"], a["im"]) - complex(b["re"], b["im"])) <= 1e-10

    def test_malformed_json_diagnoses_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"amplitudes": [\n  {"re": 1.0,}\n]}')
        code, _, err = run_cli(capsys, "expand", str(bad))
        assert code == 2
        assert "line 2" in err

    def test_missing_field_diagnosed(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"amplitudes": [{"re": 1.0}]}')
        code, _, err = run_cli(capsys, "expand", str(bad))
        assert code == 2
        assert "amplitudes[0]" in err

    def test_non_finite_amplitude_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "nan.json"
        bad.write_text('{"amplitudes": [{"re": 1.0, "im": 0.0}, {"re": NaN, "im": 0.0}]}')
        code, out, err = run_cli(capsys, "expand", str(bad))
        assert code == 2
        assert out == ""
        assert "amplitudes[1] is not finite" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "expand", str(tmp_path / "none.json"))
        assert code == 2
        assert "cannot read" in err

    @pytest.mark.parametrize(
        "option, message",
        [("--theta-nodes", "at least one polar node"), ("--phi-nodes", "at least one azimuthal node")],
    )
    def test_zero_node_count_is_usage_error(self, capsys, tmp_path, option, message):
        state_file = tmp_path / "state.json"
        state_file.write_text('{"amplitudes": [{"re": 0.6, "im": 0.0}, {"re": 0.0, "im": 0.8}]}')
        code, out, err = run_cli(capsys, "expand", str(state_file), option, "0")
        assert code == 2
        assert out == ""
        assert err == f"error: need {message}\n"

    def test_n_above_state_dimension_names_both(self, capsys, tmp_path):
        state_file = tmp_path / "state.json"
        code, out, _ = run_cli(capsys, "state", "-N", "2", "-p", "0.3")
        state_file.write_text(out)
        code, out, err = run_cli(capsys, "expand", str(state_file), "-N", "5")
        assert code == 2
        assert out == ""
        assert err == "error: state dimension 3 too small for N=5: need N+1 = 6\n"


class TestNonFiniteAngles:
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_state_phi_rejected(self, capsys, value):
        code, out, err = run_cli(capsys, "state", "-N", "2", "-p", "0.5", f"--phi={value}")
        assert code == 2
        assert out == ""
        assert "finite" in err

    def test_overlap_phi2_nan_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, "overlap", "-N", "2", "-p", "0.5", "--p2", "0.2", "--phi2", "nan"
        )
        assert code == 2
        assert out == ""
        assert "finite" in err

    def test_degrees_do_not_hide_infinity(self, capsys):
        code, _, _ = run_cli(
            capsys, "partner", "-N", "2", "-p", "0.5", "--phi", "inf", "--degrees"
        )
        assert code == 2


class TestSqueezeScan:
    def test_header_and_ordering(self, capsys):
        code, out, _ = run_cli(
            capsys, "squeeze-scan", "-N", "2", "--p-steps", "3", "--phi-steps", "2"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "N,p,phi,S_X,S_P"
        assert len(lines) == 7
        p_column = [float(line.split(",")[1]) for line in lines[1:]]
        assert p_column == [0.0, 0.0, 0.5, 0.5, 1.0, 1.0]

    def test_number_state_rows(self, capsys):
        _, out, _ = run_cli(
            capsys, "squeeze-scan", "-N", "3", "--p-steps", "2", "--phi-steps", "2"
        )
        for line in out.strip().split("\n")[1:]:
            n, p, phi, s_x, s_p = line.split(",")
            if float(p) == 1.0:
                assert float(s_x) == -6.0 and float(s_p) == -6.0

    def test_squeezing_region_appears_and_exclusive(self, capsys):
        _, out, _ = run_cli(
            capsys, "squeeze-scan", "-N", "2", "--p-steps", "21", "--phi-steps", "21"
        )
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        s_x = np.array([float(r[3]) for r in rows])
        s_p = np.array([float(r[4]) for r in rows])
        assert s_x.max() > 0
        assert not np.any((s_x > 1e-12) & (s_p > 1e-12))

    def test_writes_file_deterministically(self, capsys, tmp_path):
        out_file = tmp_path / "scan.csv"
        run_cli(capsys, "squeeze-scan", "-N", "2", "--p-steps", "4", "--phi-steps", "3", "-o", str(out_file))
        first = out_file.read_bytes()
        run_cli(capsys, "squeeze-scan", "-N", "2", "--p-steps", "4", "--phi-steps", "3", "-o", str(out_file))
        assert out_file.read_bytes() == first

    def test_negative_photon_number_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "squeeze-scan", "-N", "-1", "--p-steps", "2", "--phi-steps", "2"
        )
        assert code == 2
        assert out == ""
        assert "non-negative integer" in err

    def test_step_minimum_enforced(self, capsys):
        code, _, err = run_cli(
            capsys, "squeeze-scan", "-N", "2", "--p-steps", "1", "--phi-steps", "4"
        )
        assert code == 2
        assert "at least 2 steps" in err

    def test_unwritable_output_path(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "squeeze-scan", "-N", "2", "--p-steps", "2", "--phi-steps", "2",
            "-o", str(tmp_path / "missing" / "scan.csv"),
        )
        assert code == 2
        assert "cannot write" in err


class TestVerify:
    def test_filtered_group_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--group", "completeness", "-N", "5")
        assert code == 0
        report = json.loads(out)
        assert [g["name"] for g in report["groups"]] == ["completeness"]
        assert report["all_passed"] is True

    def test_zero_photons_passes_every_group(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "-N", "0")
        assert code == 0
        report = json.loads(out)
        assert report["n"] == 0 and report["all_passed"] is True
        checks = {g["name"]: [c["name"] for c in g["checks"]] for g in report["groups"]}
        # no partner and no atom exist at N = 0: those checks are left out
        assert "phase-covariance" in checks["gbs"]
        assert not [name for name in checks["gbs"] if name.startswith("partner-")]
        assert checks["bijection"] == ["gbs-cas-coefficient-match"]

    @pytest.mark.parametrize("n", ["5", "12"])
    def test_single_n_passes_every_group(self, capsys, n):
        code, out, _ = run_cli(capsys, "verify", "-N", n)
        assert code == 0
        assert json.loads(out)["all_passed"] is True

    def test_completeness_runs_where_the_amplitude_overflows(self, capsys):
        # p^(-N/2) overflows for p below about 0.058 at N = 500; the routes are
        # compared on A p^(N/2), so the group reports instead of a usage error
        code, out, err = run_cli(capsys, "verify", "-N", "500", "--group", "completeness")
        assert err == ""
        report = json.loads(out)
        assert code == (0 if report["all_passed"] else 1)
        checks = {c["name"]: c for c in report["groups"][0]["checks"]}
        assert len(checks) == 6
        assert checks["amplitude-overlap-vs-series"]["passed"] is True
        # the Gauss-Legendre diagonal roundoff (1.1e-12 here) is the only known miss
        failed = {name for name, c in checks.items() if not c["passed"]}
        assert failed <= {"identity-resolution-exactness"}

    def test_overtight_tolerance_fails_cleanly(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--group", "gbs", "--tolerance", "1e-16"
        )
        assert code == 1
        report = json.loads(out)
        assert report["all_passed"] is False

    def test_env_var_sets_default_tolerance(self, capsys, monkeypatch):
        monkeypatch.setenv("GBSTATES_TOLERANCE", "1e-16")
        code, out, _ = run_cli(capsys, "verify", "--group", "gbs")
        assert code == 1
        assert json.loads(out)["tolerance"] == 1e-16

    @pytest.mark.parametrize("value", ["nan", "inf", "-1e-3"])
    def test_bad_tolerance_is_usage_error(self, capsys, value):
        code, out, err = run_cli(capsys, "verify", "--group", "gbs", f"--tolerance={value}")
        assert code == 2
        assert out == ""
        assert "tolerance" in err

    @pytest.mark.parametrize("value", ["nan", "-1"])
    def test_bad_env_tolerance_is_usage_error(self, capsys, monkeypatch, value):
        monkeypatch.setenv("GBSTATES_TOLERANCE", value)
        code, out, err = run_cli(capsys, "verify", "--group", "gbs")
        assert code == 2
        assert out == ""
        assert "tolerance" in err

    def test_zero_tolerance_is_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--group", "gbs", "--tolerance", "0")
        assert code in (0, 1)
        assert json.loads(out)["tolerance"] == 0.0

    def test_unknown_group_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--group", "nothing")
        assert code == 2
        assert "unknown" in err

    def test_fixed_seed_gives_byte_identical_report(self, capsys):
        args = ("verify", "--group", "rotation", "--seed", "99")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second


class TestOutOfMemory:
    """A size that does not fit in memory is a usage error naming N. The kernels
    are patched to raise, so nothing large is allocated."""

    @staticmethod
    def _no_memory(*args, **kwargs):
        raise MemoryError

    @pytest.mark.parametrize(
        "kernel, argv",
        [
            ("gbs_state", ("state", "-N", "100000000000", "-p", "0.5")),
            ("delta_basis", ("basis", "-N", "7", "-p", "0.5")),
            ("squeeze_scan", ("squeeze-scan", "-N", "9", "--p-steps", "2", "--phi-steps", "2")),
        ],
    )
    def test_exits_2_with_message(self, capsys, monkeypatch, kernel, argv):
        monkeypatch.setattr(cli, kernel, self._no_memory)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: not enough memory for N={argv[2]}\n"

    def test_expand_without_n_leaves_n_out(self, capsys, monkeypatch, tmp_path):
        state_file = tmp_path / "state.json"
        state_file.write_text('{"amplitudes": [{"re": 1.0, "im": 0.0}]}')
        monkeypatch.setattr(cli, "reconstruct", self._no_memory)
        code, out, err = run_cli(capsys, "expand", str(state_file))
        assert code == 2
        assert out == ""
        assert err == "error: not enough memory\n"


class TestVerifyTimings:
    ARGS = ("verify", "--group", "gbs", "--group", "coherent", "-N", "3")

    def test_default_bytes_carry_no_timings(self, capsys):
        _, plain, _ = run_cli(capsys, *self.ARGS)
        code, timed, _ = run_cli(capsys, *self.ARGS, "--timings")
        assert code == 0
        assert "seconds" not in plain
        report = json.loads(timed)
        assert all(g.pop("seconds") >= 0.0 for g in report["groups"])
        assert cli._json(report) == plain

    def test_negative_n_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "verify", "-N", "-1", "--group", "coherent")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "non-negative" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as excinfo:
        main(["state", "-N", "2"])  # missing -p
    assert excinfo.value.code == 2


def _amplitude_rows(amplitudes, *prefix):
    return [(*prefix, n, a["re"], a["im"]) for n, a in enumerate(amplitudes)]


# subcommand -> (arguments, CSV header, the CSV rows read off the JSON payload)
CSV_CASES = {
    "state": (
        ["state", "-N", "7", "-p", "0.41", "--phi", "2.2", "--dim", "9"],
        "n,re,im",
        lambda d: _amplitude_rows(d["amplitudes"]),
    ),
    "overlap": (
        ["overlap", "-N", "9", "-p", "0.3", "--phi", "0.4", "--p2", "0.8", "--phi2", "2"],
        "re,im,abs",
        lambda d: [(d["re"], d["im"], d["abs"])],
    ),
    "partner": (
        ["partner", "-N", "9", "-p", "0.25", "--phi", "1.3"],
        "N,p,phi",
        lambda d: [(d["N"], d["p"], d["phi"])],
    ),
    "basis": (
        ["basis", "-N", "4", "-p", "0.35", "--phi", "1.1"],
        "m,n,re,im",
        lambda d: [row for m, s in enumerate(d["states"]) for row in _amplitude_rows(s, m)],
    ),
    "expand": (
        ["expand", "STATE_FILE", "--theta-nodes", "5"],
        "n,re,im",
        lambda d: _amplitude_rows(d["amplitudes"]),
    ),
}


@pytest.mark.parametrize("command", sorted(CSV_CASES))
def test_csv_holds_the_numbers_of_the_json(capsys, tmp_path, command):
    argv, header, rows_of = CSV_CASES[command]
    state_file = tmp_path / "state.json"
    assert main(["state", "-N", "6", "-p", "0.6", "--phi", "0.7", "-o", str(state_file)]) == 0
    argv = [str(state_file) if a == "STATE_FILE" else a for a in argv]
    code_json, out_json, _ = run_cli(capsys, *argv)
    code_csv, out_csv, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code_json == code_csv == 0
    lines = out_csv.split("\n")
    assert lines[0] == header and lines[-1] == ""
    # 17 significant digits round-trip a double, so the numbers agree exactly
    got = [tuple(float(x) for x in line.split(",")) for line in lines[1:-1]]
    want = [tuple(float(x) for x in row) for row in rows_of(json.loads(out_json))]
    assert got == want and len(got) > 0
