import json
import math

import pytest

from sumlike import cli
from sumlike.cli import _emit, main


def run_cli(args, tmp_path, name="report.json"):
    out = tmp_path / name
    code = main([*args, "--out", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def grid_sample(tmp_path):
    values = [i / 10 for i in range(6)]
    return write(
        tmp_path,
        "grid.json",
        {
            "points": [repr(v) for v in values],
            "psi": [[abs(a - b) for b in values] for a in values],
        },
    )


@pytest.fixture
def power_fam(tmp_path):
    return write(
        tmp_path,
        "power.json",
        {"name": "power", "coords": [{"kind": "power", "p": 1.0, "domain": [0, 1]}] * 3},
    )


class TestCheck:
    def test_power_family_ok(self, tmp_path, power_fam):
        code, report = run_cli(["check", power_fam], tmp_path)
        assert code == 0
        assert report["result"]["equivalence_inducing"] is True
        assert report["result"]["coords"][0]["c_tri"] == pytest.approx(1.0, abs=1e-9)

    def test_asymmetric_zero_fails(self, tmp_path):
        fam = write(
            tmp_path,
            "asym.json",
            {"coords": [{"kind": "table", "points": ["a", "b"], "psi": [[0, 0], [0.5, 0]]}]},
        )
        code, report = run_cli(["check", fam], tmp_path)
        assert code == 1
        assert report["result"]["coords"][0]["c_sym"] == "INFINITE"

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code, report = run_cli(["check", str(bad)], tmp_path)
        assert code == 2 and report is None

    def test_unknown_field_rejected(self, tmp_path):
        fam = write(tmp_path, "extra.json", {"coords": [], "surprise": 1})
        code, _ = run_cli(["check", fam], tmp_path)
        assert code == 2

    def test_function_coordinate_sampled(self, tmp_path):
        fam = write(
            tmp_path,
            "f.json",
            {
                "coords": [
                    {
                        "kind": "f",
                        "f": {
                            "breakpoints": [0.25, 1 / 64],
                            "slopes": [2.0, 8.0],
                            "joins": [0.025],
                            "cap": 0.5,
                        },
                        "domain": [0, 1],
                    }
                ]
            },
        )
        code, report = run_cli(["check", fam, "--grid-points", "17"], tmp_path)
        assert code == 0
        coord = report["result"]["coords"][0]
        assert coord["kind"] == "f"
        assert coord["c_sym"] == pytest.approx(1.0)
        assert math.isfinite(coord["c_tri"])


class TestMetrize:
    def test_grid_certificate(self, tmp_path, grid_sample):
        code, report = run_cli(["metrize", grid_sample], tmp_path)
        assert code == 0
        result = report["result"]
        assert result["all_ok"] is True
        assert result["p"] == pytest.approx(math.log2(3.0), rel=1e-9)

    def test_single_point_vacuous(self, tmp_path):
        sample = write(tmp_path, "one.json", {"points": ["a"], "psi": [[0.0]]})
        code, report = run_cli(["metrize", sample], tmp_path)
        assert code == 0
        empty = {"checked": 0, "failed": 0, "worst": None, "violations": []}
        assert report["result"]["sandwich"] == empty
        assert report["result"]["threshold"] == empty

    def test_invalid_sample_exit_one(self, tmp_path):
        sample = write(tmp_path, "asym.json", {"points": ["a", "b"], "psi": [[0, 0], [0.5, 0]]})
        code, report = run_cli(["metrize", sample], tmp_path)
        assert code == 1 and report is None

    def test_csv_export(self, tmp_path, grid_sample):
        csv_path = tmp_path / "d.csv"
        code = main(["metrize", grid_sample, "--csv-out", str(csv_path), "--out", str(tmp_path / "r.json")])
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 7  # header plus six points


class TestClassify:
    def test_two_block_family(self, tmp_path):
        fam = write(
            tmp_path,
            "two.json",
            {"coords": [{"kind": "indicator", "blocks": [["u"], ["v"]]}] * 16},
        )
        code, report = run_cli(["classify", fam], tmp_path)
        assert code == 0
        assert report["result"]["branch"] == "E0_LIKE"

    def test_flag_overrides(self, tmp_path):
        fam = write(
            tmp_path,
            "one.json",
            {"coords": [{"kind": "indicator", "blocks": [["u", "v"]]}] * 8},
        )
        code, report = run_cli(
            ["classify", fam, "--c-grid", "0.5,0.25", "--target", "2.0", "--class-bound", "4"],
            tmp_path,
        )
        assert code == 0
        assert report["result"]["branch"] == "TRIVIAL"
        assert report["result"]["thresholds"]["class_growth_bound"] == 4


class TestReduce:
    def test_clamp_row(self, tmp_path):
        inp = write(tmp_path, "clamp.json", {"z": [2.5], "window": [-1, 4]})
        code, report = run_cli(["reduce", "clamp", inp], tmp_path)
        assert code == 0
        assert report["result"]["rows"][0] == [1.0, 1.0, 1.0, 0.5, 0.0, 0.0]

    def test_blocks_plan(self, tmp_path):
        inp = write(tmp_path, "blocks.json", {"levels": 1, "streams": [[0.3] * 8]})
        code, report = run_cli(["reduce", "blocks", inp], tmp_path)
        assert code == 0
        level = report["result"]["levels"][0]
        assert (level["start"], level["end"]) == (0, 3)

    def test_blocks_exhaustion_exit_one(self, tmp_path):
        inp = write(tmp_path, "short.json", {"levels": 1, "streams": [[0.1, 0.1]]})
        code, report = run_cli(["reduce", "blocks", inp], tmp_path)
        assert code == 1 and report is None

    def test_koch_points_and_csv(self, tmp_path):
        inp = write(tmp_path, "koch.json", {"rho": 0.75, "depth": 12, "values": [0.0, 0.25, 1.0]})
        csv_path = tmp_path / "curve.csv"
        out = tmp_path / "r.json"
        code = main(["reduce", "koch", inp, "--csv-out", str(csv_path), "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        pts = report["result"]["points"]
        assert pts[0] == [0.0, 0.0, 0.0]
        assert pts[2] == [1.0, 1.0, 0.0]
        assert csv_path.read_text().startswith("s,x,y\n")

    def test_koch_holder_pairs(self, tmp_path):
        inp = write(
            tmp_path,
            "holder.json",
            {"rho": 0.75, "depth": 12, "pairs": [[0.0, 0.25], [0.0, 1.0]], "q": 1.0},
        )
        code, report = run_cli(["reduce", "koch", inp], tmp_path)
        assert code == 0
        assert report["result"]["holder"]["norm_chain_ok"] is True


class TestExample4:
    def test_two_term_preset(self, tmp_path):
        code, report = run_cli(["example4", "--preset", "two-term"], tmp_path)
        assert code == 0
        result = report["result"]
        assert result["ratios"][0]["closed_form"] == 2.5
        assert result["continuity"]["continuous"] is True
        assert result["inequalities"]["ok"] is True

    def test_steep_preset_not_linear(self, tmp_path):
        # steep slope ratios break the construction's own group inequality
        # (see test_catalog for the exact-rational witness), so the verdict
        # fails while the payload still carries the full analysis
        code, report = run_cli(["example4", "--preset", "steep"], tmp_path)
        assert code == 1
        mo = report["result"]["mazur_orlicz"]
        assert mo["b_prime"]["status"] == "UNBOUNDED"
        assert mo["verdict"] == "NOT_LINEAR"
        assert report["result"]["inequalities"]["ok"] is False
        assert report["result"]["continuity"]["continuous"] is True

    def test_linear_preset(self, tmp_path):
        code, report = run_cli(["example4", "--preset", "linear"], tmp_path)
        assert code == 0
        assert report["result"]["mazur_orlicz"]["verdict"] == "LINEAR_LIKELY"

    def test_spec_file(self, tmp_path):
        spec = write(tmp_path, "spec.json", {"g": "sqrt", "a": [0.25, 1 / 64]})
        code, report = run_cli(["example4", spec], tmp_path)
        assert code == 0
        assert report["result"]["ratios"][0]["direct"] == pytest.approx(2.5, rel=1e-9)

    def test_unknown_preset(self, tmp_path):
        code, report = run_cli(["example4", "--preset", "nope"], tmp_path)
        assert code == 2 and report is None

    def test_missing_input(self, tmp_path):
        code, report = run_cli(["example4"], tmp_path)
        assert code == 2


class TestInputErrors:
    def test_infinite_tolerance_rejected(self, grid_sample, capsys):
        code = main(["metrize", grid_sample, "--tol-abs", "inf"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert "finite" in err

    def test_koch_tiny_q_is_an_input_error(self, tmp_path):
        spec = write(tmp_path, "koch.json", {"rho": 0.75, "pairs": [[0.1, 0.2]], "q": 1e-4})
        code, report = run_cli(["reduce", "koch", spec], tmp_path)
        assert code == 2 and report is None

    def test_koch_huge_q_is_an_input_error(self, tmp_path, capsys):
        # |K(0.1) - K(1.9)|**1000 overflows a float
        spec = write(tmp_path, "koch.json", {"rho": 0.75, "pairs": [[0.1, 1.9]], "q": 1000})
        code, report = run_cli(["reduce", "koch", spec], tmp_path)
        assert code == 2 and report is None
        err = capsys.readouterr().err
        assert err.startswith("input error") and "q = 1000" in err

    def test_non_finite_report_value_fails_loudly(self, tmp_path):
        out = tmp_path / "report.json"
        with pytest.raises(ValueError):
            _emit({"result": {"x": math.inf}}, str(out))
        assert not out.exists()

    @pytest.mark.parametrize("to_file", [False, True])
    def test_non_finite_report_is_an_input_error(self, tmp_path, power_fam, monkeypatch, capsys, to_file):
        monkeypatch.setitem(
            cli._DISPATCH, "check", lambda args, tol: ({"x": math.inf}, "v", "sha256:0", 0)
        )
        out = tmp_path / "report.json"
        code = main(["check", power_fam, *(["--out", str(out)] if to_file else [])])
        stdout, err = capsys.readouterr()
        assert code == 2 and stdout == "" and not out.exists()
        assert err.startswith("input error") and "JSON" in err

    def test_unwritable_out_is_an_input_error(self, tmp_path, grid_sample, capsys):
        out = tmp_path / "nodir" / "x.json"
        code = main(["metrize", grid_sample, "--out", str(out)])
        stdout, err = capsys.readouterr()
        assert code == 2 and stdout == "" and not out.exists()
        assert err.startswith("input error") and "nodir" in err


class TestEnvironment:
    def test_bad_threads_value(self, tmp_path, grid_sample, monkeypatch):
        monkeypatch.setenv("SUMLIKE_THREADS", "many")
        code, report = run_cli(["metrize", grid_sample], tmp_path)
        assert code == 2

    def test_threads_value_does_not_change_payload(self, tmp_path, grid_sample, monkeypatch):
        payloads = []
        for value in ("0", "4"):
            monkeypatch.setenv("SUMLIKE_THREADS", value)
            _, report = run_cli(["metrize", grid_sample], tmp_path, name=f"r{value}.json")
            payloads.append(json.dumps(report["result"], sort_keys=True))
        assert payloads[0] == payloads[1]
