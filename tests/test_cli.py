import contextlib
import io
import json
import os
import tempfile
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tffcomb import configmat, realize, render_tableaux, validate_config
from tffcomb.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDecide:
    def test_positive(self, capsys):
        code, out, _ = run(capsys, "decide", "--dim", "6", "--ranks", "4,2,2,2,1")
        assert code == 0
        assert "tight" in out

    def test_negative(self, capsys):
        code, out, _ = run(capsys, "decide", "--dim", "5", "--ranks", "3,3")
        assert code == 1
        assert "not tight" in out

    def test_json_payload(self, capsys):
        code, out, _ = run(
            capsys, "decide", "--dim", "6", "--ranks", "4,2,2,2,1", "--json"
        )
        data = json.loads(out)
        assert data["tight"] is True
        assert data["alpha"] == "11/6"
        assert data["certificate"]["dim"] == 6

    def test_unsorted_ranks_warn(self, capsys):
        code, out, err = run(capsys, "decide", "--dim", "4", "--ranks", "1,2,2,2")
        assert code == 0
        assert "warning" in err

    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "decide", "--dim", "4")
        assert exc.value.code == 2

    def test_bad_ranks_exit_usage(self, capsys):
        code, _, err = run(capsys, "decide", "--dim", "3", "--ranks", "4,1")
        assert code == 2
        assert "error" in err


class TestCountAndCertificate:
    def test_count(self, capsys):
        code, out, _ = run(capsys, "count", "--dim", "3", "--ranks", "2,2,1,1")
        assert code == 0 and out.strip() == "4"

    def test_count_json_large(self, capsys):
        # 1435 certificates in a 5 x 32 box, counted by meeting in the middle
        start = time.perf_counter()
        code, out, _ = run(
            capsys, "count", "--dim", "5", "--ranks", "4,4,4,4,4,4,4,4", "--json"
        )
        assert code == 0
        assert json.loads(out)["count"] == 1435
        assert time.perf_counter() - start < 1.0

    def test_certificate_json_round_trip(self, capsys, tmp_path):
        target = tmp_path / "cert.json"
        code, _, _ = run(
            capsys, "certificate", "--dim", "4", "--ranks", "2,2,2,1",
            "--json", "--out", str(target),
        )
        assert code == 0
        data = json.loads(target.read_text())
        assert data["ranks"] == [2, 2, 2, 1]
        code, out, _ = run(
            capsys, "tableau", "--in", str(target)
        )
        assert code == 0
        assert out.splitlines()[0].startswith("1:1")

    def test_certificate_absent(self, capsys):
        code, _, err = run(capsys, "certificate", "--dim", "5", "--ranks", "3,3")
        assert code == 1

    @pytest.mark.parametrize(
        "argv", [("--dim", "3"), ("--ranks", "2,1"), ()]
    )
    def test_tableau_without_source_is_usage_error(self, capsys, argv):
        code, _, err = run(capsys, "tableau", *argv)
        assert code == 2
        assert "need --ranks and --dim" in err

    @pytest.mark.parametrize("argv", [("--json",), ()], ids=["json", "text"])
    def test_tableau_validates_once(self, capsys, tmp_path, monkeypatch, argv):
        target = tmp_path / "cert.json"
        run(capsys, "certificate", "--dim", "4", "--ranks", "2,2,2,1",
            "--json", "--out", str(target))
        calls = []

        def counting(a):
            calls.append(a)
            return validate_config(a)

        monkeypatch.setattr(configmat, "validate_config", counting)
        code, out, _ = run(capsys, "tableau", "--in", str(target), *argv)
        assert code == 0 and len(calls) == 1
        if not argv:
            assert out == render_tableaux(calls[0]) + "\n"


class TestMaximal:
    def test_single_cell_json(self, capsys):
        code, out, _ = run(
            capsys, "maximal", "--alpha", "11/6", "--dim", "6", "--json"
        )
        data = json.loads(out)
        assert data["alpha"] == "11/6" and data["dim"] == 6
        assert sorted(map(tuple, data["maximal"])) == sorted(
            [(5, 1, 1, 1, 1, 1, 1), (4, 2, 2, 2, 1), (3, 3, 3, 2)]
        )

    def test_all_small(self, capsys):
        code, out, _ = run(capsys, "maximal", "--all", "--max-dim", "3", "--json")
        data = json.loads(out)
        cells = {(t["dim"], t["alpha"]): t["maximal"] for t in data["tables"]}
        assert cells[(3, "5/3")] == [[2, 1, 1, 1]]
        assert cells[(1, "2")] == [[1, 1]]

    def test_every_cell_records_its_seconds(self, capsys):
        _, out, _ = run(capsys, "maximal", "--all", "--max-dim", "3", "--json")
        tables = json.loads(out)["tables"]
        _, out, _ = run(capsys, "maximal", "--alpha", "5/3", "--dim", "3", "--json")
        cells = [*tables, json.loads(out)]
        assert len(cells) == 10
        for cell in cells:
            assert set(cell) == {"alpha", "dim", "maximal", "seconds"}
            assert isinstance(cell["seconds"], float) and cell["seconds"] >= 0

    def test_all_text_is_pinned(self, capsys):
        # the cell timings are JSON data only; the text table stays as it was
        code, out, _ = run(capsys, "maximal", "--all", "--max-dim", "3")
        assert code == 0
        assert out == (
            "dim 1  alpha 1: [1]\n"
            "dim 1  alpha 2: [1, 1]\n"
            "dim 2  alpha 1: [2]\n"
            "dim 2  alpha 3/2: [1, 1, 1]\n"
            "dim 2  alpha 2: [2, 2]\n"
            "dim 3  alpha 1: [3]\n"
            "dim 3  alpha 4/3: [1, 1, 1, 1]\n"
            "dim 3  alpha 5/3: [2, 1, 1, 1]\n"
            "dim 3  alpha 2: [3, 3]\n"
        )

    @pytest.mark.parametrize("max_dim", ["0", "-1"])
    def test_all_nonpositive_max_dim_is_usage_error(self, capsys, max_dim):
        code, out, _ = run(capsys, "maximal", "--all", "--max-dim", max_dim)
        assert code == 2 and out == ""

    def test_missing_args(self, capsys):
        code, _, err = run(capsys, "maximal", "--dim", "4")
        assert code == 2


class TestEnumerate:
    def test_alpha_one(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--alpha", "1", "--dim", "4", "--json")
        data = json.loads(out)
        assert [4] in data["sequences"] and [1, 1, 1, 1] in data["sequences"]


class TestDual:
    def test_spatial(self, capsys):
        code, out, _ = run(
            capsys, "dual", "--dim", "4", "--ranks", "2,2,2,1", "--spatial", "--json"
        )
        data = json.loads(out)
        assert data["ranks"] == [3, 2, 2, 2] and data["dim"] == 4
        assert data["dual"] == "spatial"
        assert data["source_ranks"] == [2, 2, 2, 1]

    def test_naimark(self, capsys):
        code, out, _ = run(
            capsys, "dual", "--dim", "4", "--ranks", "2,2,2,1", "--naimark", "--json"
        )
        data = json.loads(out)
        assert data["ranks"] == [2, 2, 2, 1] and data["dim"] == 3

    def test_alpha_reduce(self, capsys):
        code, out, _ = run(
            capsys, "dual", "--dim", "6", "--alpha", "11/6", "--alpha-reduce",
            "--json",
        )
        data = json.loads(out)
        assert data["alpha"] == "11/5" and data["dim"] == 5

    def test_strip(self, capsys):
        code, out, _ = run(
            capsys, "dual", "--dim", "6", "--ranks", "5,1,1,1,1,1,1", "--strip",
            "--json",
        )
        data = json.loads(out)
        assert data["ranks"] == [1, 1, 1, 1, 1, 1] and data["dim"] == 5

    def test_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "dual", "--dim", "4", "--ranks", "2,1",
                "--spatial", "--naimark")
        assert exc.value.code == 2

    @pytest.mark.parametrize("dim", ["0", "-4"])
    def test_alpha_reduce_nonpositive_dim_is_usage_error(self, capsys, dim):
        code, out, err = run(capsys, "dual", "--dim", dim, "--alpha", "3/2",
                             "--alpha-reduce")
        assert code == 2 and out == ""
        assert "dimension must be a positive integer" in err

    def test_degenerate_is_usage_error(self, capsys):
        code, _, err = run(capsys, "dual", "--dim", "4", "--ranks", "4,4",
                           "--spatial")
        assert code == 2 and "error" in err


class TestUsageErrors:
    # a subcommand that misses an option raises; main alone maps it to 2
    @pytest.mark.parametrize(
        "argv",
        [("tableau", "--dim", "3"),
         ("maximal", "--all", "--max-dim", "0"),
         ("maximal", "--dim", "4"),
         ("dual", "--dim", "6", "--alpha-reduce"),
         ("dual", "--dim", "4", "--spatial")],
        ids=["tableau", "maximal-max-dim", "maximal-alpha", "dual-alpha",
             "dual-ranks"],
    )
    def test_usage_error_goes_through_main(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ")

    def test_strip_at_alpha_one_is_usage_error(self, capsys):
        code, out, err = run(capsys, "dual", "--dim", "4", "--ranks", "2,2",
                             "--strip")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "not > 1" in err


class TestDualConfig:
    def test_round_trip_via_files(self, capsys, tmp_path):
        cert = tmp_path / "cert.json"
        run(capsys, "certificate", "--dim", "4", "--ranks", "2,2,2,1",
            "--json", "--out", str(cert))
        dual = tmp_path / "dual.json"
        code, _, _ = run(capsys, "dual-config", "--in", str(cert), "--naimark",
                         "--json", "--out", str(dual))
        assert code == 0
        data = json.loads(dual.read_text())
        assert data["dual"] == "naimark"
        assert data["dim"] == 3
        assert data["source_ranks"] == [2, 2, 2, 1]
        back = tmp_path / "back.json"
        code, _, _ = run(capsys, "dual-config", "--in", str(dual), "--naimark",
                         "--json", "--out", str(back))
        assert code == 0
        original = json.loads(cert.read_text())
        restored = json.loads(back.read_text())
        assert restored["entries"] == original["entries"]


class TestCheckBounds:
    def test_passing(self, capsys):
        code, out, _ = run(
            capsys, "check-bounds", "--dim", "6", "--ranks", "4,2,2,2,1"
        )
        assert code == 0 and "pass" in out

    def test_failing(self, capsys):
        code, out, _ = run(
            capsys, "check-bounds", "--dim", "6", "--ranks", "5,2,2,2",
        )
        assert code == 1 and "FAIL" in out

    def test_filters_not_applicable_at_two(self, capsys):
        code, out, _ = run(capsys, "check-bounds", "--dim", "3", "--ranks", "3,3")
        assert code == 0 and "n/a" in out

    def test_filters_not_applicable_below_one(self, capsys):
        # ranks summing below the dimension give no frame bound to check
        code, out, _ = run(capsys, "check-bounds", "--dim", "5", "--ranks", "2,1")
        assert code == 0
        assert "first3: n/a" in out and "k_block: n/a" in out

    @pytest.mark.parametrize("alpha", ["7/4", "1/2"])
    def test_malformed_alpha_is_usage_error(self, capsys, alpha):
        # 7/4 * 6 is not an integer, and a bound below 1 is not a frame bound
        code, out, _ = run(capsys, "check-bounds", "--dim", "6",
                           "--ranks", "4,2,2,2,1", "--alpha", alpha)
        assert code == 2 and out == ""

    def test_rank_above_dim_is_usage_error(self, capsys):
        code, out, err = run(capsys, "check-bounds", "--dim", "3", "--ranks", "4")
        assert code == 2 and out == ""
        assert "exceeds dimension" in err

    @pytest.mark.parametrize("dim", ["0", "-1"])
    def test_nonpositive_dim_is_usage_error(self, capsys, dim):
        code, _, err = run(capsys, "check-bounds", "--dim", dim, "--ranks", "1,1")
        assert code == 2
        assert "dimension must be positive" in err


class TestTwoProj:
    def test_valid_spectrum(self, capsys):
        code, out, _ = run(
            capsys, "two-proj", "--dim", "2", "--p", "1", "--q", "1",
            "--spectrum", "3/2:1,1/2:1", "--json",
        )
        data = json.loads(out)
        assert code == 0 and data["valid"] is True
        assert len(data["P"]) == 2

    def test_invalid_spectrum(self, capsys):
        code, out, _ = run(
            capsys, "two-proj", "--dim", "3", "--p", "2", "--q", "1",
            "--spectrum", "3/2:1,1/2:1,0:1",
        )
        assert code == 1

    def test_infeasible_spectrum_payload(self, capsys):
        code, out, _ = run(
            capsys, "two-proj", "--dim", "3", "--p", "2", "--q", "1",
            "--spectrum", "3/2:1,1/2:1,0:1", "--json",
        )
        assert code == 1 and json.loads(out)["valid"] is False

    def test_malformed_spectrum_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["two-proj", "--dim", "2", "--p", "1", "--q", "1",
                  "--spectrum", "3/2:1.5,1/2:1"])
        assert exc.value.code == 2
        assert "bad spectrum" in capsys.readouterr().err

    def test_spectrum_parsed_once(self, capsys, monkeypatch):
        calls = []
        parse = realize._spectrum

        def counted(*args):
            calls.append(args)
            return parse(*args)

        monkeypatch.setattr(realize, "_spectrum", counted)
        code, _, _ = run(
            capsys, "two-proj", "--dim", "2", "--p", "1", "--q", "1",
            "--spectrum", "3/2:1,1/2:1",
        )
        assert code == 0 and len(calls) == 1


class TestRealizeVerify:
    def test_realize_verify_round_trip(self, capsys, tmp_path):
        out_file = tmp_path / "frame.json"
        csv_file = tmp_path / "frame.csv"
        code, _, _ = run(
            capsys, "realize", "--dim", "4", "--ranks", "2,2,2,1",
            "--seed", "9", "--json", "--out", str(out_file),
            "--csv", str(csv_file),
        )
        assert code == 0
        assert len(csv_file.read_text().strip().splitlines()) == 4
        code, out, _ = run(capsys, "verify", "--in", str(out_file), "--json")
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_readme_realize_then_verify(self, capsys, tmp_path):
        # the README pair: --out writes ProjectionSet JSON without --json,
        # and stdout keeps the one-line summary
        frame = tmp_path / "frame.json"
        code, out, _ = run(
            capsys, "realize", "--dim", "6", "--ranks", "4,2,2,2,1",
            "--seed", "0", "--out", str(frame), "--csv", str(tmp_path / "f.csv"),
        )
        assert code == 0 and out.startswith("realized [4, 2, 2, 2, 1]")
        assert json.loads(frame.read_text())["dim"] == 6
        code, out, _ = run(capsys, "verify", "--in", str(frame), "--tol", "1e-8")
        assert code == 0 and out.strip().endswith("pass")

    @pytest.mark.parametrize("tol", ["-1", "nan"])
    def test_verify_bad_tolerance_exit_2(self, capsys, tmp_path, tol):
        frame = tmp_path / "frame.json"
        run(capsys, "realize", "--dim", "3", "--ranks", "2,1,1,1,1",
            "--seed", "0", "--out", str(frame))
        code, out, err = run(capsys, "verify", "--in", str(frame), "--tol", tol)
        assert code == 2 and out == ""
        assert "tolerance" in err

    @pytest.mark.parametrize("alpha", ["0", "-1", "1/2"])
    def test_verify_bad_alpha_exit_2(self, capsys, tmp_path, alpha):
        # a bound below 1 is a usage error, as in check-bounds, not a FAIL
        frame = tmp_path / "frame.json"
        run(capsys, "realize", "--dim", "3", "--ranks", "2,1,1,1,1",
            "--seed", "0", "--out", str(frame))
        code, out, err = run(capsys, "verify", "--in", str(frame),
                             "--alpha", alpha)
        assert code == 2 and out == ""
        assert "frame bound must be at least 1" in err

    def test_realize_not_tight(self, capsys):
        code, _, err = run(
            capsys, "realize", "--dim", "5", "--ranks", "3,3", "--seed", "1"
        )
        assert code == 1

    def test_seed_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "realize", "--dim", "4", "--ranks", "2,2,2,1")
        assert exc.value.code == 2

    def test_convergence_failure_exit_3(self, capsys):
        # an exact-zero tolerance is unreachable for a genuinely tilted frame
        code, _, err = run(
            capsys, "realize", "--dim", "2", "--ranks", "1,1,1",
            "--seed", "0", "--tol", "0", "--max-restarts", "1",
        )
        assert code == 3
        assert "residual" in err

    @pytest.mark.parametrize(
        "option", [("--max-restarts", "0"), ("--tol", "-1"), ("--seed", "-1")]
    )
    def test_bad_realizer_parameters_exit_2(self, capsys, option):
        code, _, err = run(
            capsys, "realize", "--dim", "6", "--ranks", "4,2,2,2,1",
            "--seed", "0", *option,
        )
        assert code == 2
        assert "residual" not in err

    @pytest.mark.parametrize(
        "text",
        ['{"dim": 3}',
         '{"ranks": [1, 1, 1], "entries": [[2, 1, 0], [0, 1, 2]]}',
         '{"dim": 2, "ranks": [1, 1, 1]}'],
        ids=["no-ranks", "no-dim", "no-entries"],
    )
    def test_malformed_certificate_file_exit_2(self, capsys, tmp_path, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        code, _, err = run(capsys, "dual-config", "--in", str(bad), "--spatial")
        assert code == 2
        assert "certificate JSON has no" in err

    @pytest.mark.parametrize(
        "argv",
        [("verify",), ("tableau",), ("dual-config", "--spatial")],
        ids=["verify", "tableau", "dual-config"],
    )
    def test_json_not_an_object_exit_2(self, capsys, tmp_path, argv):
        listed = tmp_path / "l.json"
        listed.write_text("[1, 2]")
        code, _, err = run(capsys, argv[0], "--in", str(listed), *argv[1:])
        assert code == 2
        assert "must be an object" in err

    @pytest.mark.parametrize(
        "data",
        [{"dim": 2, "blocks": [1]}, {"dim": 2, "blocks": 5},
         # truncated to dim 2 and two rank-1 blocks these form a tight frame
         {"dim": 2.5, "blocks": [{"rank": 1.9, "basis": [[1, 0]]},
                                 {"rank": 1.9, "basis": [[0, 1]]}]},
         {"dim": 2, "blocks": [{"rank": 1, "basis": [[{}, 0]]}]},
         {"dim": 2, "blocks": [{"rank": 1, "basis": [[None, 0]]}]},
         {"dim": 2, "blocks": [{"rank": 1, "basis": [["1", 0]]}]},
         {"dim": 2, "blocks": [{"rank": 1, "basis": [[float("inf"), 0]]}]},
         {"dim": 2, "blocks": [{"rank": 1}]},
         {"blocks": [{"rank": 1, "basis": [[1, 0]]}]},
         {"dim": 2},
         {"dim": 2, "blocks": [{"rank": 1, "basis": [[1, 0, 0]]}]},
         {"dim": 2, "blocks": [{"rank": 2, "basis": [[1, 0], [1]]}]}],
        ids=["block-not-object", "blocks-not-list", "non-integral",
             "object-entry", "null-entry", "string-entry", "infinite-entry",
             "no-basis", "no-dim", "no-blocks", "wrong-shape", "ragged"],
    )
    def test_malformed_projection_set_exit_2(self, capsys, tmp_path, data):
        bad = tmp_path / "p.json"
        bad.write_text(json.dumps(data))
        code, out, err = run(capsys, "verify", "--in", str(bad))
        assert code == 2 and out == ""
        assert "ProjectionSet" in err

    @pytest.mark.parametrize(
        "argv", [("tableau",), ("dual-config", "--spatial")],
        ids=["tableau", "dual-config"],
    )
    def test_non_integral_certificate_exit_2(self, capsys, tmp_path, argv):
        # integer parts of these entries form a certificate for (1,1,1)/2,
        # so truncating them would be accepted
        frac = tmp_path / "g.json"
        frac.write_text(json.dumps({
            "dim": 2.0, "ranks": [1, 1, 1],
            "entries": [[2.7, 1.7, 0.7], [0.7, 1.7, 2.7]],
        }))
        code, _, err = run(capsys, argv[0], "--in", str(frac), *argv[1:])
        assert code == 2
        assert "non-integral" in err
        whole = tmp_path / "w.json"
        whole.write_text(json.dumps({
            "dim": 2.0, "ranks": [1, 1, 1],
            "entries": [[2.0, 1.0, 0.0], [0.0, 1.0, 2.0]],
        }))
        code, _, _ = run(capsys, argv[0], "--in", str(whole), *argv[1:])
        assert code == 0

    def test_byte_identical_repeat(self, capsys):
        args = ["realize", "--dim", "4", "--ranks", "2,2,2,1",
                "--seed", "7", "--json"]
        code1 = main(list(args))
        first = capsys.readouterr().out
        code2 = main(list(args))
        second = capsys.readouterr().out
        assert code1 == code2 == 0
        assert first == second


CERT_DOC = {"dim": 2, "ranks": [1, 1, 1], "entries": [[2, 1, 0], [0, 1, 2]]}
FRAME_DOC = {"dim": 2, "blocks": [{"rank": 1, "basis": [[1.0, 0.0]]},
                                  {"rank": 1, "basis": [[0.0, 1.0]]}]}
# where a mistyped file replaces or deletes a value, leaves weighted up
DOC_PATHS = {
    "cert": [("dim",), ("ranks",), ("entries",), ("ranks", 0), ("entries", 0),
             ("entries", 0, 0), ("entries", 1, 2)],
    "frame": [("dim",), ("blocks",), ("blocks", 0), ("blocks", 0, "rank"),
              ("blocks", 0, "basis"), ("blocks", 0, "basis", 0),
              ("blocks", 0, "basis", 0, 0), ("blocks", 1, "basis", 0, 1)],
}
DELETE = object()
MISTYPED = [DELETE, None, {}, [], "x", 2.5, -1, 10 ** 400, float("inf")]
SMALL_DIMS = st.integers(-1, 5).map(str)
RANK_LISTS = st.lists(st.integers(-1, 6), max_size=5).map(
    lambda xs: ",".join(map(str, xs)))
ALPHAS = st.sampled_from(
    ["1", "3/2", "5/3", "2", "7/4", "5/2", "1/2", "0", "-1", "x"])


@st.composite
def input_files(draw, kind):
    """Text of a JSON ``--in`` file, mostly of the ``kind`` the command
    reads: valid, truncated, or with one value mistyped or deleted."""
    kind = draw(st.sampled_from([kind, kind, kind, *DOC_PATHS]))
    doc = json.loads(json.dumps(CERT_DOC if kind == "cert" else FRAME_DOC))
    form = draw(st.sampled_from(["valid", "truncated", "mistyped", "mistyped"]))
    if form == "mistyped":
        *route, last = draw(st.sampled_from(DOC_PATHS[kind]))
        node = doc
        for key in route:
            node = node[key]
        value = draw(st.sampled_from(MISTYPED))
        if value is DELETE:
            del node[last]
        else:
            node[last] = value
    text = json.dumps(doc)
    if form == "truncated":
        text = text[:draw(st.integers(0, len(text) - 1))]
    return text


def _opt(draw, flag, values):
    return [flag, draw(values)] if draw(st.booleans()) else []


@st.composite
def invocations(draw, command):
    """An argv for ``command`` with small bounded values, and the text of
    its ``--in`` file (None when it reads none)."""
    argv = [command]
    text = None
    if command in ("decide", "count", "certificate", "check-bounds"):
        argv += ["--dim", draw(SMALL_DIMS), "--ranks", draw(RANK_LISTS)]
        if command == "check-bounds":
            argv += _opt(draw, "--alpha", ALPHAS)
    elif command == "tableau":
        if draw(st.booleans()):
            text = draw(input_files("cert"))
        else:
            argv += _opt(draw, "--dim", SMALL_DIMS)
            argv += _opt(draw, "--ranks", RANK_LISTS)
    elif command == "maximal":
        if draw(st.booleans()):
            argv += ["--all", "--max-dim", str(draw(st.integers(-1, 4)))]
        else:
            argv += _opt(draw, "--alpha", ALPHAS) + _opt(draw, "--dim", SMALL_DIMS)
    elif command == "enumerate":
        argv += ["--alpha", draw(ALPHAS), "--dim", draw(SMALL_DIMS)]
    elif command == "dual":
        argv += ["--dim", draw(SMALL_DIMS), draw(st.sampled_from(
            ["--spatial", "--naimark", "--strip", "--alpha-reduce"]))]
        argv += _opt(draw, "--ranks", RANK_LISTS) + _opt(draw, "--alpha", ALPHAS)
    elif command == "dual-config":
        text = draw(input_files("cert"))
        argv += [draw(st.sampled_from(["--spatial", "--naimark"]))]
    elif command == "two-proj":
        argv += ["--dim", draw(SMALL_DIMS), "--p", str(draw(st.integers(-1, 4))),
                 "--q", str(draw(st.integers(-1, 4))),
                 "--spectrum", draw(st.sampled_from(
                     ["3/2:1,1/2:1", "1:2", "2:1,0:1", "1:-1", "3:1", "x"]))]
    elif command == "realize":
        argv += ["--dim", draw(SMALL_DIMS), "--ranks", draw(RANK_LISTS),
                 "--seed", str(draw(st.integers(0, 3))),
                 "--max-restarts", str(draw(st.integers(0, 2)))]
        argv += _opt(draw, "--tol", st.sampled_from(["1e-8", "1e-3", "-1", "nan"]))
    else:
        text = draw(input_files("frame"))
        argv += _opt(draw, "--alpha", ALPHAS)
        argv += _opt(draw, "--tol", st.sampled_from(["1e-8", "-1", "nan"]))
    if draw(st.booleans()):
        argv.append("--json")
    return argv, text


COMMANDS = ["decide", "count", "certificate", "tableau", "maximal", "enumerate",
            "dual", "dual-config", "check-bounds", "two-proj", "realize", "verify"]


class TestFuzz:
    @given(st.tuples(*map(invocations, COMMANDS)))
    @settings(max_examples=200, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    def test_every_subcommand_exits_0_to_3(self, runs):
        with tempfile.TemporaryDirectory() as tmp:
            infile = os.path.join(tmp, "in.json")
            for argv, text in runs:
                if text is not None:
                    with open(infile, "w", encoding="utf-8") as fh:
                        fh.write(text)
                    argv = [argv[0], "--in", infile, *argv[1:]]
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(err):
                    try:
                        code = main(argv)
                    except SystemExit as exc:  # argparse rejects the options
                        code = exc.code
                assert code in (0, 1, 2, 3), (argv, text, err.getvalue())
                assert "Traceback" not in err.getvalue()
