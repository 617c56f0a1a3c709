import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import pdg.cli
import pdg.verification as verification
from pdg import ParameterDomainError
from pdg.cli import main
from pdg.gallery import GALLERY_NAMES
from pdg.geodesics import MAX_GRID, sample_gallery
from pdg.verification import SUITES, run_suite

X_TEXT = '{"points": [[0, 10], [1, 9]]}'
Y_TEXT = '{"points": [[1, 11], [2, 10]]}'


@pytest.fixture()
def diagram_files(tmp_path):
    x = tmp_path / "x.json"
    y = tmp_path / "y.json"
    x.write_text(X_TEXT)
    y.write_text(Y_TEXT)
    return str(x), str(y)


def test_dist_json(diagram_files, capsys):
    x, y = diagram_files
    code = main(["dist", x, y, "--p", "1", "--q", "1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["p"] == 1.0
    assert payload["value"] == 4.0
    assert sorted(payload["assignment"]) == [0, 1, 2, 3]


def test_dist_inf_and_csv(diagram_files, capsys):
    x, y = diagram_files
    code = main(["dist", x, y, "--p", "inf", "--q", "inf", "--format", "csv"])
    assert code == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "key,value"
    row = dict(line.split(",", 1) for line in lines[1:])
    assert row["p"] == "inf"
    assert float(row["value"]) == 1.0


def test_geodesic_then_certify_and_classify(tmp_path, capsys):
    # classify reports the optimal matching the curve was sampled along in
    # the witness's own slots: on the second pair the witness [0, 3, 2, 1]
    # sends x_1 to the diagonal, and its copies follow the one copy rule
    pairs = [(X_TEXT, Y_TEXT), ('{"points": [[0, 10], [1, 1.5]]}', '{"points": [[1, 11], [3, 3.2]]}')]
    for x_text, y_text in pairs:
        x, y = tmp_path / "x.json", tmp_path / "y.json"
        x.write_text(x_text)
        y.write_text(y_text)
        out_path = tmp_path / "curve.json"
        code = main(["geodesic", str(x), str(y), "--p", "2", "--q", "2", "--grid", "9", "--out", str(out_path)])
        assert code == 0
        payload = json.loads(out_path.read_text())
        curve_path = tmp_path / "bare_curve.json"
        curve_path.write_text(json.dumps(payload["curve"]))

        code = main(["certify", str(curve_path), "--p", "2", "--q", "2"])
        assert code == 0
        cert = json.loads(capsys.readouterr().out)
        assert cert["ok"] is True
        assert cert["max_violation"] <= 1e-9

        code = main(["classify", str(curve_path), "--p", "2", "--q", "2"])
        assert code == 0
        outcome = json.loads(capsys.readouterr().out)
        assert outcome["kind"] == "convex-combination"
        assert outcome["regime"] == "characterized"
        assert outcome["matching"] == [list(pair) for pair in enumerate(payload["assignment"])]


def test_gallery_output_shape(capsys):
    code = main(["gallery", "omega_infty", "--grid", "5"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["name"] == "omega_infty"
    assert len(payload["curve"]["times"]) == 5
    assert payload["curve"]["frames"][0]["points"] == [[0.0, 10.0]]


def test_gallery_rejects_csv(diagram_files, capsys):
    code = main(["gallery", "mu_one", "--format", "csv"])
    assert code == 2
    assert "csv" in capsys.readouterr().err
    assert main(["geodesic", *diagram_files, "--format", "csv"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: curve output has no csv form; use --format json\n"


def test_missing_file_is_exit_2(capsys):
    code = main(["dist", "/nonexistent/x.json", "/nonexistent/y.json"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_bad_parameter_is_exit_2(diagram_files, capsys):
    x, y = diagram_files
    assert main(["dist", x, y, "--p", "0.5"]) == 2
    capsys.readouterr()
    assert main(["dist", x, y, "--p", "100"]) == 2
    capsys.readouterr()
    assert main(["gallery", "mu_infty", "--k", "inf", "--grid", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: requires a finite k > 3j (got k = inf, j = 3)\n"


def test_malformed_document_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"points": [[2, 1]]}')
    good = tmp_path / "good.json"
    good.write_text(X_TEXT)
    assert main(["dist", str(bad), str(good)]) == 2
    assert "row 0" in capsys.readouterr().err


DEEP_POINTS = '{"points": %s}' % ("[" * 100_000 + "]" * 100_000)


def test_nesting_too_deep_is_exit_2(tmp_path, diagram_files, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP_POINTS)
    for argv in (["dist", str(deep), diagram_files[1]], ["certify", str(deep)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: document is nested too deeply to decode\n"


GUARD_CURVE = json.dumps({  # 10 combined points, one more than the exhaustive guard allows
    "times": [0.0, 1.0],
    "frames": [{"points": [[float(i), i + 1.0] for i in range(5)]}] * 2,
})


@pytest.mark.parametrize("command, document, flags, code", [
    ("dist", None, [], 2),
    ("dist", b'{"points": [[0, 1]', [], 2),
    ("dist", DEEP_POINTS.encode(), [], 2),
    ("dist", b'{"points": [[0, 1]], "note": "\xff"}', [], 2),
    ("dist", X_TEXT.encode(), ["--p", "0.5"], 2),
    ("dist", X_TEXT.encode(), ["--p", "1e400"], 2),
    ("dist", X_TEXT.encode(), ["--q", "1e400"], 2),
    ("geodesic", X_TEXT.encode(), ["--format", "csv"], 2),
    ("classify", GUARD_CURVE.encode(), [], 3),
], ids=["missing-file", "bad-json", "deep-nesting", "not-utf8", "p-below-1", "p-overflows", "q-overflows",
        "csv-curve", "size-guard"])
def test_error_contract(tmp_path, command, document, flags, code):
    # every bad input exits with its documented code and one error line, no traceback
    path = tmp_path / "input.json"
    if document is not None:
        path.write_bytes(document)
    files = [str(path)] * (2 if command in ("dist", "geodesic") else 1)
    proc = subprocess.run(
        [sys.executable, "-m", "pdg", command, *files, *flags], capture_output=True, text=True,
    )
    assert proc.returncode == code
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert proc.stderr.endswith("\n") and "Traceback" not in proc.stderr


HUGE_INT = "1" + "0" * 400  # a JSON integer no float can hold


def test_huge_integer_point_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"points": [[0, %s]]}' % HUGE_INT)
    good = tmp_path / "good.json"
    good.write_text(X_TEXT)
    assert main(["dist", str(bad), str(good)]) == 2
    assert "row 0" in capsys.readouterr().err


def test_huge_integer_time_is_exit_2(tmp_path, capsys):
    path = tmp_path / "curve.json"
    path.write_text('{"times": [0, %s, 1], "frames": [%s, %s, %s]}' % (HUGE_INT, X_TEXT, X_TEXT, X_TEXT))
    assert main(["certify", str(path), "--p", "2", "--q", "2"]) == 2
    assert "sample times" in capsys.readouterr().err


def test_overflowing_pair_cost_is_exit_2(tmp_path, capsys):
    # the ground 1e200/sqrt(2) is finite, its square is not
    big = tmp_path / "big.json"
    big.write_text('{"points": [[0, 1e200]]}')
    empty = tmp_path / "empty.json"
    empty.write_text('{"points": []}')
    for q in ("1", "2", "inf"):
        assert main(["dist", str(big), str(empty), "--p", "2", "--q", q]) == 2
        assert "left slot 0 pairs with right slot 0" in capsys.readouterr().err


@pytest.mark.parametrize("q", ["2", "3"])
def test_overflowing_real_pair_ground_is_priced_out(tmp_path, capsys, q):
    # the real pair's l^q norm overflows, so the largest ground entry is inf;
    # the distance sends both points to the diagonal and is finite.  At p = 1
    # the printed pair costs, the grounds themselves, are finite too.
    x = tmp_path / "x.json"
    x.write_text('{"points": [[-9.5e307, -9.4e307]]}')
    y = tmp_path / "y.json"
    y.write_text('{"points": [[9.5e307, 9.8e307]]}')
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["dist", str(x), str(y), "--p", "1", "--q", q]) == 0
    payload = json.loads(capsys.readouterr().out)
    factor = 2.0 ** (1.0 / float(q) - 1.0)
    persistences = (-9.4e307 - -9.5e307, 9.8e307 - 9.5e307)
    assert payload["assignment"] == [1, 0]
    assert payload["pair_costs"] == [factor * pers for pers in persistences]
    assert payload["value"] == pytest.approx(factor * sum(persistences), rel=1e-15)


def test_unrepresentable_diagonal_distance_is_exit_2(tmp_path, capsys):
    # at q = 1 the diagonal distance is the persistence, here 2e308: one rule
    # and one message at every p, whichever side the point is on
    tall = tmp_path / "tall.json"
    tall.write_text('{"points": [[-1e308, 1e308]]}')
    empty = tmp_path / "empty.json"
    empty.write_text('{"points": []}')
    message = "the diagonal distance of point (-1e+308, 1e+308) at q = 1 exceeds the float range"
    for p in ("1", "1.5", "2", "inf"):
        for files in ((tall, empty), (empty, tall)):
            assert main(["dist", *map(str, files), "--p", p, "--q", "1"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {message}\n"


def test_overflowing_p_one_sum_is_exit_2(tmp_path, capsys):
    # each diagonal distance is 1e308 at q = 1, their sum is not a float
    wide = tmp_path / "wide.json"
    wide.write_text('{"points": [[-1e308, 0], [0, 1e308]]}')
    empty = tmp_path / "empty.json"
    empty.write_text('{"points": []}')
    for command in ("dist", "geodesic"):
        for files in ((wide, empty), (empty, wide)):
            assert main([command, *map(str, files), "--p", "1", "--q", "1"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: the distance at p = 1 exceeds the float range\n"


@pytest.mark.parametrize("flags", [
    ["--trials", "-1", "--draws", "-5"],
    ["--trials", "0"],
    ["--draws", "0"],
])
def test_verify_rejects_empty_trials_or_draws(flags, capsys):
    assert main(["verify", "metric", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be at least 1" in captured.err


def test_verify_rejects_a_negative_seed_by_name(capsys):
    # numpy's generator would refuse it as a bare ValueError naming no flag
    assert main(["verify", "metric", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed must be at least 0, got -1\n"
    with pytest.raises(ParameterDomainError, match=r"^seed must be at least 0, got -1$"):
        run_suite("metric", -1)


@pytest.mark.parametrize("suite", ["gallery", "all"])
@pytest.mark.parametrize("grid", ["2", "4"])
def test_verify_rejects_a_grid_that_misses_t_half(suite, grid, monkeypatch, capsys):
    # refused before any suite runs: a metric run would call None
    monkeypatch.setattr(verification, "metric_checks", None)
    assert main(["verify", suite, "--grid", grid]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--grid must be odd and at least 3, got {grid}" in captured.err


def test_every_suite_passes_at_the_benchmark_sizes():
    # the sizes of perfbench's verify workload, which counts a failed row as a failed operation
    for seed in (*range(8), 2**31 - 2):
        for name in SUITES[:-1]:
            failed = [c for c in run_suite(name, seed, trials=2, draws=10, grid=5) if not c["pass"]]
            assert failed == [], (name, seed)


def test_the_benchmark_tracer_sees_every_verify_layer(monkeypatch, capsys):
    # perfbench's tracer wraps functions by patching module attributes, so a
    # function held in a container built at import escapes it and its layer
    # reads 0; only parsing, which verify never does, may stay idle
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench"))
    import tracer

    spans = tracer.Tracer()
    spans.install()
    try:
        for suite in SUITES[:-1]:
            argv = ["verify", suite, "--trials", "2", "--draws", "10", "--grid", "5"]
            assert spans.run_op(lambda: pdg.cli.main(argv), suite) == 0
    finally:
        spans.uninstall()
    capsys.readouterr()
    assert tracer.layer_metrics(spans.spans)[1]["idle_layers"] == ["diagram.parse"]


def test_size_guard_is_exit_3(tmp_path, capsys, diagram_files):
    frame = {"points": [[float(i), float(i) + 1.0] for i in range(5)]}
    curve = {"times": [0.0, 1.0], "frames": [frame, frame]}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(curve))
    code = main(["classify", str(path), "--p", "2", "--q", "2"])
    assert code == 3
    assert "error" in capsys.readouterr().err
    # a grid above the bound is refused before any frame is built, and verify
    # refuses an odd one before its first suite runs
    for command, grid in ((["geodesic", *diagram_files], MAX_GRID + 1),
                          (["gallery", "mu_one"], MAX_GRID + 1),
                          (["verify", "all"], MAX_GRID + 2)):
        assert main([*command, "--grid", str(grid)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: a time grid of {grid} samples exceeds the bound of {MAX_GRID}\n"


def test_tol_reaches_certify_and_classify_only(tmp_path, capsys, diagram_files):
    omega = tmp_path / "omega.json"
    omega.write_text(json.dumps(sample_gallery("omega_infty", 33, k=10.0, j=3.0).to_dict()))
    mu = tmp_path / "mu.json"
    mu.write_text(json.dumps(sample_gallery("mu_one", 33, k=10.0).to_dict()))

    def run(*argv):
        assert main(list(argv)) == 0
        return json.loads(capsys.readouterr().out)

    outcome = run("classify", str(omega), "--p", "inf", "--q", "2")
    assert outcome["kind"] == "deviant"
    assert outcome["residual"] == pytest.approx(3.0 / math.sqrt(2.0))
    assert run("classify", str(omega), "--p", "inf", "--q", "2", "--tol", "10")["kind"] == "convex-combination"
    cert = run("certify", str(mu), "--p", "2", "--q", "2")
    assert not cert["ok"]
    assert cert["max_violation"] == pytest.approx(math.sqrt(2.0) - 1.0)
    assert cert["endpoint_distance"] == pytest.approx(2.0)
    assert run("certify", str(mu), "--p", "2", "--q", "2", "--tol", "1")["ok"]
    # no other command reads a tolerance, so none accepts one
    for argv in (["dist", *diagram_files], ["geodesic", *diagram_files], ["verify", "metric"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--tol", "1e300"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol" in capsys.readouterr().err


def test_verify_all_seed_0_stdout_is_pinned(capsys):
    # every suite at its default size, in both formats; a change to any
    # check's row, value or order changes the digests
    for fmt, pinned in (
        ("json", "ef123d0b37c03a369b45ade67fe68354d4b042cc3114d7d2018615a849403c43"),
        ("csv", "cc9c31423678666c7e45cff5aef446a607afe693817fe4d7a7447849e673cf16"),
    ):
        assert main(["verify", "all", "--seed", "0", "--format", fmt]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
        assert digest == pinned, fmt



@pytest.mark.parametrize("seed, pinned", [
    (1, "f78db21d77bf8eeb5413d29c54c80cfc0d93cfae85516fb130617bbe24b4d5ed"),
    (2, "dc1e818cac635050f25b9d3a3aa1c2dce42d5fe98c73a6661322bcfb4ba4dc9b"),
    (3, "4f6df9dff2fe7a9f6280fdce5806e3c0ed19383c0d82d0c2a223e69174a9d671"),
    (4, "ad01ab2050238b7b806a83e3778e3a1e895deaf6a342f9219218b5973ea967df"),
    (5, "477e4d2486b95afc9f0266ddb2ec8b784f9764186ae4ff51f0ac8a7c92f91295"),
])
def test_verify_inequalities_stdout_is_pinned_beyond_seed_0(seed, pinned, capsys):
    # the benchmark's draw count at more seeds: the batched draws must read
    # each seed's stream exactly as one draw per vector does
    assert main(["verify", "inequalities", "--seed", str(seed), "--draws", "10"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == pinned


VERIFY_PINS_BEYOND_SEED_0 = {
    ("metric", 1): ("b70b18285641debfd9af9b0ba85bd0ba57a29196b26e9ea9a1a93cea25709dcf",
                    "48c62b6acf612c6215654d126331521ad4a2ef91f715605d26194bf28e7b4692"),
    ("metric", 2): ("40f2a657c707072d82d7c0940b5c3f4b663c2e0035100ce6f8c2ce15efceaf4d",
                    "90e74cee99af122e51f9aa8fb761901cfb6042e123cfb3af1273440a00f4ae66"),
    ("metric", 3): ("e52e84dc9a62ce2fdb68bbebe573a9df96956274158080fdb08b3b3fa4932b23",
                    "97afd2f18185a801dcb1cf927408fcb89d4a42c9187f5b6cad370376ba22f23f"),
    ("ot", 1): ("4502b1277f091a105585d5866fdeadf87c58c59a329d1fbb51af1086ec96d31c",
                "ef94cd7f0508be8475e23df08ac194d533883149cfb9b6c27e9014f6bbac1dec"),
    ("ot", 2): ("c7de247d592b218c1f0378b0fc340208003c128175f9a516802bf04648afb650",
                "f51822b420944b5db06cbd323d197472e2b36d1331f8117788e97cf3121e166b"),
    ("ot", 3): ("cbd48397ada656c9d865a56c33adfed234f6dbcbf82cf66ba523c9f04c9f9904",
                "86f100672b63ca86d82e5bf7e1cf852e9915d1712af4d57fd15027040660525b"),
    ("gallery", 1): ("caa39846a45e1df89da782abf5f1e0de034356f515a747283c155232a4d2086a",
                     "07ae5ac5c6dad2197bcda3af92d99b2c985b93e93de425319694269c0b80a841"),
    ("gallery", 2): ("090c00363f8deddfd18801a676fc56664333fe50e50f534baf0a5b36d7a76c15",
                     "07ae5ac5c6dad2197bcda3af92d99b2c985b93e93de425319694269c0b80a841"),
    ("gallery", 3): ("2c813886ff9c3b2adab3eb246a852325305f3b86cf328e1aa990d86f0fdea3b8",
                     "07ae5ac5c6dad2197bcda3af92d99b2c985b93e93de425319694269c0b80a841"),
}


@pytest.mark.parametrize("suite, seed", sorted(VERIFY_PINS_BEYOND_SEED_0))
def test_verify_stdout_is_pinned_beyond_seed_0(suite, seed, capsys):
    # the benchmark's sizes, in both formats: every row's value, text and
    # order at three more seeds (the gallery's csv rows draw no seed-dependent
    # text, so its three csv digests agree)
    argv = ["verify", suite, "--seed", str(seed), "--trials", "2", "--draws", "10", "--grid", "5"]
    for fmt, pinned in zip(("json", "csv"), VERIFY_PINS_BEYOND_SEED_0[suite, seed]):
        assert main([*argv, "--format", fmt]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == pinned, fmt

def _points(n, salt):
    # a fixed diagram of n points, built by integer arithmetic so its text is stable
    return [[(i * 37 + salt) % 97 / 8, (i * 37 + salt) % 97 / 8 + 0.5 + (i * 53 + salt) % 61 / 16]
            for i in range(n)]


DIST_GRID_PAIRS = [
    (_points(15, 0), _points(16, 11)),  # the reduced solve, from 12 per side
    (_points(3, 5), _points(4, 7)),
    (_points(3, 5), []),
    ([[-9.5e307, -9.4e307]], [[9.5e307, 9.8e307]]),  # an overflowing real pair
    ([[0, 1e200]], []),  # a finite ground whose square is not a float
]


def _dist_grid(tmp_path, capsys, ps):
    """stdout and exit code of pdg dist over both argument orders of every
    grid pair, each p in ps, three q and both formats."""
    for k, pair in enumerate(DIST_GRID_PAIRS):
        files = []
        for side, points in zip("xy", pair):
            path = tmp_path / f"{side}{k}.json"
            path.write_text(json.dumps({"points": points}))
            files.append(str(path))
        for order in (files, files[::-1]):
            for p in ps:
                for q in ("1", "2", "3"):
                    for fmt in ("json", "csv"):
                        code = main(["dist", *order, "--p", p, "--q", q, "--format", fmt])
                        yield capsys.readouterr().out, code


def test_dist_stdout_grid_is_pinned(tmp_path, capsys):
    # finite p: a change to any value, witness or refusal changes the digest
    digest = hashlib.sha256()
    for out, code in _dist_grid(tmp_path, capsys, ("1", "1.5", "2")):
        digest.update(f"{out}exit {code}\n".encode("utf-8"))
    assert digest.hexdigest() == "57bdc93f60a9e5598e44af34279e0097d7d5c0e3cadb4161c8b0b1d08047e3f1"


def test_dist_bottleneck_values_are_pinned(tmp_path, capsys):
    # p = inf: the value and total lines and the exit codes alone, frozen from
    # the Kuhn threshold search; the bottleneck value does not depend on the
    # witness, so no change of witness may move this digest
    digest = hashlib.sha256()
    for out, code in _dist_grid(tmp_path, capsys, ("inf",)):
        lines = [line for line in out.splitlines(keepends=True)
                 if line.lstrip().startswith(('"value"', '"total"', "value,", "total,"))]
        digest.update(f"{''.join(lines)}exit {code}\n".encode("utf-8"))
    assert digest.hexdigest() == "5059a5a39fff324f4375e97794752dc767ed87b1279b8960ec706fbadd16e630"


def test_dist_bottleneck_stdout_is_pinned(tmp_path, capsys):
    # p = inf: the whole output, witnesses included
    digest = hashlib.sha256()
    for out, code in _dist_grid(tmp_path, capsys, ("inf",)):
        digest.update(f"{out}exit {code}\n".encode("utf-8"))
    assert digest.hexdigest() == "90b5058b2fa2f43f828c21d0c6a556ffce7d3142abee7a62363aaf921848bcba"


MID_TEXT = '{"points": [[0.5, 10.5], [1.5, 9.5]]}'
CURVE_TEXTS = [
    # the straight path from X to Y, and one that stalls at X until t = 1/2
    '{"times": [0, 0.5, 1], "frames": [%s, %s, %s]}' % (X_TEXT, MID_TEXT, Y_TEXT),
    '{"times": [0, 0.5, 1], "frames": [%s, %s, %s]}' % (X_TEXT, X_TEXT, Y_TEXT),
]


def _cli_grid(tmp_path, diagram_files):
    """argv lists for geodesic, certify and classify over p, q in {1, 2, inf}
    and both formats, every gallery curve, and a missing file."""
    curves = []
    for k, text in enumerate(CURVE_TEXTS):
        curves.append(tmp_path / f"curve{k}.json")
        curves[-1].write_text(text)
    for p in ("1", "2", "inf"):
        for q in ("1", "2", "inf"):
            for fmt in ("json", "csv"):
                flags = ["--p", p, "--q", q, "--format", fmt]
                yield ["geodesic", *diagram_files, "--grid", "5", *flags]
                for curve in curves:
                    yield ["certify", str(curve), *flags]
                    yield ["classify", str(curve), *flags]
    for name in GALLERY_NAMES:
        for fmt in ("json", "csv"):
            yield ["gallery", name, "--grid", "5", "--format", fmt]
    yield ["dist", "/nonexistent/x.json", diagram_files[1]]
    yield ["certify", "/nonexistent/curve.json"]


def test_cli_grid_output_is_pinned(tmp_path, diagram_files, capsys):
    # stdout, stderr and exit code of every command but dist and verify,
    # whose outputs have their own digests
    digest = hashlib.sha256()
    for argv in _cli_grid(tmp_path, diagram_files):
        code = main(argv)
        out, err = capsys.readouterr()
        digest.update(f"{argv[0]}\n{out}stderr {err}exit {code}\n".encode("utf-8"))
    assert digest.hexdigest() == "d9b5b1fb3374f81af8898b5ac6435667814d52f21429e8055f3758ce806cafdc"


def test_the_cached_parser_answers_like_a_fresh_one(tmp_path, diagram_files, monkeypatch, capsys):
    curve = tmp_path / "curve.json"
    curve.write_text(CURVE_TEXTS[0])
    runs = (
        ["dist", *diagram_files, "--format", "csv"],
        ["classify", str(curve), "--p", "inf"],
        ["dist", *diagram_files, "--tol", "1"],
        ["certify", str(curve), "--q", "1"],
        ["verify", "inequalities", "--draws", "3"],
    )

    def run(argv, fresh):
        if fresh:
            pdg.cli.build_parser.cache_clear()
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses a flag by exiting
            code = exc.code
        return (code, *capsys.readouterr())

    fresh = [run(argv, True) for argv in runs]
    assert [run(argv, False) for argv in runs] == fresh
    assert pdg.cli.build_parser() is pdg.cli.build_parser()
    # the parser exists; judges patched now are still the ones that run
    for name in ("certify_geodesic", "classify_curve"):
        result = SimpleNamespace(to_dict=lambda name=name: {"judge": name})
        monkeypatch.setattr(pdg.cli, name, lambda curve, params, result=result: result)
    assert [run(["certify", str(curve)], False), run(["classify", str(curve)], False)] == [
        (0, '{\n  "p": 2.0,\n  "q": 2.0,\n  "judge": "%s"\n}\n' % name, "")
        for name in ("certify_geodesic", "classify_curve")
    ]


def test_bottleneck_near_the_float_range_is_quiet(tmp_path, capsys):
    # twelve points a side spread over most of the float range: the search
    # brackets d* with a minimum-sum solve of the ground scaled by its largest
    # finite entry, so none of that solve's sums overflows
    paths = []
    for side, shift in (("x", (0.0, 6e307)), ("y", (5e306, 6.5e307))):
        points = [[k * 1e307 + shift[0], k * 1e307 + shift[1]] for k in range(-8, 4)]
        paths.append(tmp_path / f"{side}.json")
        paths[-1].write_text(json.dumps({"points": points}))
    for q, value in (("1", 1.0000000000000009e+307), ("2", 7.071067811865481e+306),
                     ("3", 6.299605249474372e+306)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["dist", *map(str, paths), "--p", "inf", "--q", q])
        out, err = capsys.readouterr()
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["value"] == payload["total"] == value


def test_run_suite_rejects_an_unknown_name():
    with pytest.raises(ValueError, match="unknown suite 'metrics'; valid suites: metric, ot"):
        run_suite("metrics")


def test_verify_suite_json(capsys):
    code = main(["verify", "ot", "--trials", "12"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["suite"] == "ot"
    assert payload["failures"] == 0
    assert all(check["pass"] for check in payload["checks"])


def test_verify_gallery_passes(capsys):
    # runs gallery.classify.mu_one_cross and gallery.classify.omega_deviant,
    # the suite's side of acceptance criterion 8
    assert main(["verify", "gallery"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["failures"] == 0


def test_verify_suite_csv_deterministic(capsys):
    code = main(["verify", "inequalities", "--draws", "40", "--format", "csv"])
    assert code == 0
    first = capsys.readouterr().out
    code = main(["verify", "inequalities", "--draws", "40", "--format", "csv"])
    assert code == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.splitlines()[0] == "name,params,measured,expected,pass"


def test_verify_seed_changes_draws(capsys):
    main(["verify", "inequalities", "--draws", "40", "--format", "csv"])
    first = capsys.readouterr().out
    main(["verify", "inequalities", "--draws", "40", "--seed", "1", "--format", "csv"])
    second = capsys.readouterr().out
    assert first != second


VERIFY_FAILURE_JSON = """{
  "suite": "metric",
  "seed": 0,
  "checks": [
    {
      "name": "fake.check",
      "params": "p=2",
      "measured": "1.0",
      "expected": "0.0",
      "pass": false
    }
  ],
  "failures": 1
}
"""


def test_verify_failure_is_exit_1(monkeypatch, capsys, tmp_path):
    # the payload is written in full before the one FAIL line, to stdout or --out
    def fake_suite(name, seed, **kwargs):
        return [{"name": "fake.check", "params": "p=2", "measured": "1.0", "expected": "0.0", "pass": False}]

    monkeypatch.setattr(pdg.cli, "run_suite", fake_suite)
    fail_line = "FAIL fake.check [p=2]: measured 1.0, expected 0.0\n"
    csv_text = "name,params,measured,expected,pass\nfake.check,p=2,1.0,0.0,fail\n"
    for argv, stdout in (
        ([], VERIFY_FAILURE_JSON),
        (["--format", "csv"], csv_text),
    ):
        assert main(["verify", "metric", *argv]) == 1
        assert capsys.readouterr() == (stdout, fail_line)
    out = tmp_path / "report.json"
    assert main(["verify", "metric", "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", fail_line)
    assert out.read_text(encoding="utf-8") == VERIFY_FAILURE_JSON


def test_dist_same_file_is_zero(tmp_path, capsys):
    x = tmp_path / "x.json"
    x.write_text(X_TEXT)
    assert main(["dist", str(x), str(x)]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 0.0


def test_dist_single_point_against_empty_bottleneck(tmp_path, capsys):
    x = tmp_path / "x.json"
    e = tmp_path / "empty.json"
    x.write_text('{"points": [[0, 4]]}')
    e.write_text('{"points": []}')
    assert main(["dist", str(x), str(e), "--p", "inf", "--q", "inf"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 2.0


def test_verify_metric_seed_42(capsys):
    assert main(["verify", "metric", "--seed", "42", "--trials", "10"]) == 0
    assert json.loads(capsys.readouterr().out)["failures"] == 0


def test_module_entry_subprocess(tmp_path):
    x = tmp_path / "x.json"
    y = tmp_path / "y.json"
    x.write_text(X_TEXT)
    y.write_text(Y_TEXT)
    proc = subprocess.run(
        [sys.executable, "-m", "pdg", "dist", str(x), str(y), "--p", "1", "--q", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == 4.0
