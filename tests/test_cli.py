"""CLI surface: determinism, schemas, exit codes, and the verify suites."""

import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from rsprod import analysis, bounds, codec, verify
from rsprod.cli import main
from rsprod.degrees import degree_profile
from rsprod.verify import check_field_axioms
from rsprod.field import FieldCtx
from rsprod.linearized import LinearizedPoly


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bounds_csv_schema_and_determinism(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "bounds", "--n", "32", "--r", "8", "--k", "1..64")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == (
        "k,partial_k,rs_degree_lower,lower_opt,lrc_upper,grid_upper,"
        "gridv2_upper,exact,witness_a,witness_b,witness_nr,witness_nc"
    )
    assert len(lines) == 65
    # k = 1 has no alternative upper bound: blank cell
    first = lines[1].split(",")
    assert first[0] == "1" and first[6] == ""
    code2, out2, _ = run_cli(capsys, "bounds", "--n", "32", "--r", "8", "--k", "1..64")
    assert out2 == out
    # rows respect the ordering invariant
    for line in lines[1:]:
        vals = line.split(",")
        rs, lo = int(vals[2]), int(vals[3])
        uppers = [int(vals[4]), int(vals[5])] + ([int(vals[6])] if vals[6] else [])
        assert rs <= lo <= min(uppers)


def test_bounds_reference_value(capsys):
    code, out, _ = run_cli(
        capsys, "bounds", "--n", "128", "--r", "64", "--k", "4032", "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["lower_opt"] == 4940


def test_bounds_exact_column_small_code(capsys):
    code, out, _ = run_cli(
        capsys, "bounds", "--n", "4", "--r", "2", "--k", "1..4", "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)
    assert [row["exact"] for row in rows] == [16, 15, 12, 9]


def test_profile_json_matches_library(capsys):
    code, out, _ = run_cli(capsys, "profile", "--n", "4", "--r", "3")
    assert code == 0
    payload = json.loads(out)
    prof = degree_profile(4, 3)
    assert payload["D"] == list(prof.D)
    assert [bp["k"] for bp in payload["breakpoints"]] == [3, 5, 7, 8, 9]
    assert payload["max_degree_exceeds_length"] is True  # 16 >= 16 at r = 3
    code, out, _ = run_cli(capsys, "profile", "--n", "4", "--r", "2")
    assert json.loads(out)["max_degree_exceeds_length"] is False


def test_build_and_encode_roundtrip(capsys, tmp_path):
    path = tmp_path / "gen.csv"
    code, _, _ = run_cli(
        capsys, "build", "--q-log", "2", "--r", "2", "--k", "3", "--out", str(path)
    )
    assert code == 0
    text = path.read_text()
    header = json.loads(text.split("\n", 1)[0][2:])
    assert header["q"] == 4 and header["k"] == 3
    rows = [
        [int(x, 16) for x in line.split(",")]
        for line in text.strip().split("\n")[1:]
    ]
    code, out, _ = run_cli(
        capsys, "encode", "--q-log", "2", "--r", "2", "--k", "3", "--msg", "1,0,0"
    )
    assert code == 0
    assert [int(x, 16) for x in out.strip().split(",")] == rows[0]


def test_distance_exhaustive_json(capsys):
    code, out, _ = run_cli(
        capsys, "distance", "--q-log", "2", "--r", "2", "--k", "4", "--spectrum"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "exhaustive"
    assert payload["distance"] == 9
    assert payload["equals_lower_bound"] is True
    assert payload["spectrum"]["0"] == 1
    assert sum(payload["spectrum"].values()) == 16**4


def test_distance_sampled_fallback(capsys):
    code, out, _ = run_cli(
        capsys,
        "distance",
        "--q-log",
        "2",
        "--r",
        "3",
        "--k",
        "9",
        "--budget",
        "65536",
        "--trials",
        "2000",
        "--seed",
        "7",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "sampled"
    assert payload["conclusive"] is False
    assert payload["upper_estimate"] >= payload["lower_bound"]


def test_distance_samples_when_the_budget_sizes_have_thousands_of_digits(capsys):
    # |F|^(n^2 - k) = 4096^3096 has over 11,000 digits, past what str()
    # of an int allows, so the budget messages give it as a power
    code, out, _ = run_cli(
        capsys, "distance", "--q-log", "6", "--r", "32", "--k", "1000", "--trials", "64"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "sampled" and payload["n"] == 64
    assert payload["upper_estimate"] >= payload["lower_bound"]


@pytest.mark.parametrize("k,d", [(9, 7), (10, 6)])
def test_distance_exact_on_the_dual_side(capsys, k, d):
    # |F|^k = 16^k is over the default 2^28 budget, the dual's 16^(16 - k)
    # is within it
    code, out, _ = run_cli(
        capsys, "distance", "--q-log", "2", "--r", "4", "--k", str(k), "--spectrum"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "exhaustive-dual"
    assert payload["conclusive"] is True
    assert payload["distance"] == d
    assert payload["equals_lower_bound"] is (d == payload["lower_bound"])
    spectrum = {int(w): c for w, c in payload["spectrum"].items()}
    assert spectrum[0] == 1 and min(w for w in spectrum if w) == d
    assert sum(spectrum.values()) == 16**k


def test_erasure_sim_models(capsys):
    code, out, _ = run_cli(
        capsys,
        "erasure-sim",
        "--q-log",
        "2",
        "--r",
        "2",
        "--k",
        "4",
        "--model",
        "random-t-cells",
        "--t",
        "0",
        "--trials",
        "10",
        "--seed",
        "3",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rate"] == 1.0  # no erasures: always recoverable
    # canonical block pattern with a*b >= r^2 - k + 1: never recoverable
    code, out, _ = run_cli(
        capsys,
        "erasure-sim",
        "--q-log",
        "2",
        "--r",
        "2",
        "--k",
        "4",
        "--model",
        "fig1",
        "--a",
        "1",
        "--b",
        "1",
    )
    payload = json.loads(out)
    assert payload["trials"] == 1 and payload["recoverable"] == 0


def test_erasure_sim_subcode_dominates(capsys):
    # same seed, same masks: the one-heavy-parity subcode recovers at
    # least as often as the full product code, across the whole p sweep
    for p in ("0.15", "0.25", "0.35", "0.45"):
        rates = {}
        for k in (9, 8):
            code, out, _ = run_cli(
                capsys,
                "erasure-sim",
                "--q-log", "3", "--r", "3", "--k", str(k),
                "--model", "uniform-p", "--p", p,
                "--trials", "40", "--seed", "11",
            )
            assert code == 0
            rates[k] = json.loads(out)["rate"]
        assert rates[8] >= rates[9]


def test_erasure_sim_determinism(capsys):
    argv = [
        "erasure-sim", "--q-log", "2", "--r", "2", "--k", "3",
        "--model", "uniform-p", "--p", "0.3", "--trials", "50", "--seed", "5",
    ]
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2


# Byte-exact erasure-sim stdout, recorded with the rank oracle on G[:, survivors]
# as the verdict: (flags, recoverable count, sha256 of stdout).  Covers both
# uniform-p benchmark sizes, random-t-cells, and both stopping-set figures on
# each side of the codimension.
ERASURE_SIM_GOLDENS = [
    pytest.param("--q-log 4 --r 12 --k 132 --model uniform-p --p 0.45 --trials 24 --seed 7", 14,
                 "07ceca701b0deceeeefa6e55c69caf65e2ce24a2051af0b99ee1ea9437adc08a",
                 id="uniform-n16"),
    pytest.param("--q-log 5 --r 16 --k 240 --model uniform-p --p 0.15 --trials 3 --seed 1", 3,
                 "6472ec52daabfa627f02fbaae56f47bf64d6bf73495a6a9f536e70fc4884de88",
                 id="uniform-n32"),
    # recorded from the solve on the dense parity checks H[:, E']
    pytest.param("--q-log 5 --r 24 --k 575 --model uniform-p --p 0.45 --trials 10 --seed 1", 3,
                 "611d911ff817ac934f8b0fd7403534daaa3ae73020764c441807fa95407e8426",
                 id="uniform-n32-dense"),
    pytest.param("--q-log 3 --r 5 --k 20 --model random-t-cells --t 44 --trials 40 --seed 4", 32,
                 "c09462d9d9026f680b5cab7b719ed308c4ca4f2e6290b4b21c762f709adddb82",
                 id="t-cells-n8"),
    pytest.param("--q-log 2 --r 3 --k 7 --model random-t-cells --t 8 --trials 60 --seed 4", 59,
                 "820b79a1b836a1b9bff9ab6d16539d3ed7722d52e78694bfdbbdb40b36bc7ab9",
                 id="t-cells-n4"),
    pytest.param("--q-log 4 --r 12 --k 132 --model fig1 --a 4 --b 4", 0,
                 "742bba5d395388955aa3d6cb776c473c25b43957d4445554a7f7de67082953cc",
                 id="fig1-a4b4"),
    pytest.param("--q-log 4 --r 12 --k 132 --model fig1 --a 1 --b 1", 1,
                 "ef882dde6e7848edc1011fbabe802e9a13748ddb0a55fc0bf61a0fe889390d85",
                 id="fig1-a1b1"),
    pytest.param("--q-log 4 --r 12 --k 132 --model fig2 --a 5 --b 6", 0,
                 "f599ad52e8ac09a6510b6aeb34c1fdef89af4da5a475fa184593751858983595",
                 id="fig2-a5b6"),
    pytest.param("--q-log 4 --r 12 --k 132 --model fig2 --a 1 --b 1", 1,
                 "9b4a9eed6e816b55567a66e272cde1eae7615bea2af3cdf11e97e8efab14f9c1",
                 id="fig2-a1b1"),
]


@pytest.mark.parametrize("flags,recoverable,digest", ERASURE_SIM_GOLDENS)
def test_erasure_sim_golden_stdout(capsys, flags, recoverable, digest):
    code, out, _ = run_cli(capsys, "erasure-sim", *flags.split())
    assert code == 0
    assert json.loads(out)["recoverable"] == recoverable
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# Byte-exact stdout of the commands that erasure-sim and build do not cover:
# sha256 of stdout, then the command line.  The 2^32 distance spectrum was
# recorded from a full enumeration of the message space, and the encodes as
# the product m G, the k = 80 one (k n^2 > 2^16) in several blocks.
CLI_GOLDENS = """
7dae421a73cf6404c99640c2687f16f2cfd6b4cce3b9023c9dd5ed7de7b98e62 bounds --n 32 --r 8 --k 1..64 --format csv
4fdf303d6882a943280265a519fa605761d0de1e1e43442e51599a17da76dba7 bounds --n 32 --r 8 --k 1..64 --format json
7ea68ad845b9f5e09da5f74a4bd5c8e5755ead4024d9c4a32f3a6f02186759d0 bounds --n 128 --r 64 --k 4032 --format csv
7456c588e4b1940d415df5e55aec2e1124cf6b4bdec9180b43c710d845536843 bounds --n 128 --r 64 --k 4032 --format json
b04e8a28cbcbb164db7ebb3ba4e715dc85697b67f17c25b38578a393581ce335 figure --name eg1
69a4ea00845bd0fc66441e926409efa8279ea02cdf2a12de8faf47a70826c4ef figure --name eg2a
81fbfc0c1b9ee95189f30548835955769a5f2e043e3df1c6c83f0ea865bedd87 figure --name eg2b
1f1c6323154c7f6cc801087b1a55cec90d0af71fee489d1bd89261ff3860a547 figure --name eg3
0cb97abc420dc37a2a1942a67ff56a27613ac29d4c45ed2be7de3c7455b52bb0 profile --n 4 --r 3
1a38a8d7e0f21100f17fa4c21f3f5aef6eb6b35f69500101d30e83c983708ec2 profile --n 32 --r 8
c7079781e2225ba3f7bdbb0cc13f4ac29fe7fb2b625c3c6f205fcc0b6078a5c2 encode --q-log 2 --r 2 --k 3 --msg 1,0,7
aa1b56953b35b36f9c83177fd53edaf9d52f94e89d088af502a27b2b63a1e9da encode --q-log 3 --r 5 --k 20 --msg 1,2,3,4,5,6,7,8,9,a,b,c,d,e,f,10,11,12,13,3f
7cf4988132592d61caec1b9d955d2b716e9849065c63d70ba2a605ac96f263e0 encode --q-log 5 --r 16 --k 80 --msg b,30,55,7a,9f,c4,e9,10e,133,158,17d,1a2,1c7,1ec,211,236,25b,280,2a5,2ca,2ef,314,339,35e,383,3a8,3cd,3f2,17,3c,61,86,ab,d0,f5,11a,13f,164,189,1ae,1d3,1f8,21d,242,267,28c,2b1,2d6,2fb,320,345,36a,38f,3b4,3d9,3fe,23,48,6d,92,b7,dc,101,126,14b,170,195,1ba,1df,204,229,24e,273,298,2bd,2e2,307,32c,351,376
c7b55e3639a27414e23d0b37d1a1dbb7090f1b0e30454ef759f464552a656efa distance --q-log 2 --r 2 --k 4 --spectrum
6859b91d24a44be72bf29853b3759274afcbeb1d21081fae667af98c8d2220e8 distance --q-log 2 --r 3 --k 8 --budget 4294967296 --spectrum
049d29eb53b771de80f4156049b4f28bb86adc18566dbcb926ad0fa58d5b0806 distance --q-log 3 --r 3 --k 4 --spectrum
296e208b0860d10d334c8c7f9da5e95c21f1017b5b0d220911b2c9b19fe851c1 distance --q-log 4 --r 2 --k 3 --spectrum
c185c1f7b6035535e33b8ecea73de9f06cac3ea26ce5cd5ef1a58747c88cef9f distance --q-log 5 --r 2 --k 2 --spectrum
8ed85626bc1b06739ab8fa2e91a601dbb0ab6a9bb62d25a2274e8393e6642c98 verify --level fast
""".strip().split("\n")


@pytest.mark.parametrize("digest,argv", [line.split(" ", 1) for line in CLI_GOLDENS],
                         ids=[line.split(" ", 1)[1] for line in CLI_GOLDENS])
def test_cli_golden_stdout(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_figure_output(capsys):
    code, out, _ = run_cli(capsys, "figure", "--name", "eg1")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,value,series"
    series = {line.split(",")[2] for line in lines[1:]}
    assert series == {"lower_opt", "grid_upper", "gridv2_upper"}
    # 64 points for two curves, 63 for the k >= 2 one
    assert len(lines) == 1 + 64 + 64 + 63


def test_usage_errors_exit_2(capsys):
    code, _, err = run_cli(capsys, "bounds", "--n", "4", "--r", "2", "--k", "1..9")
    assert code == 2 and "error" in err
    code, _, err = run_cli(capsys, "profile", "--n", "4", "--r", "9")
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--n", "4"])  # missing required flags
    assert exc.value.code == 2


def test_profile_out_of_envelope_exits_2(capsys, monkeypatch):
    # n < 1 is named as such, and r past the cap on r^2 is refused before
    # any of its degrees exist: a range in the degrees module would trip
    from rsprod import degrees

    code, out, err = run_cli(capsys, "profile", "--n", "-1", "--r", "1")
    assert code == 2 and out == "" and err == "error: need n >= 1, got n=-1\n"

    def fail(*args):
        raise AssertionError("the degree set must not be built")

    monkeypatch.setattr(degrees, "range", fail, raising=False)
    code, out, err = run_cli(capsys, "bounds", "--n", "100000", "--r", "50000", "--k", "1")
    assert code == 2 and out == ""
    assert err == f"error: degree profiles need r^2 <= {2**22}, got r=50000\n"
    monkeypatch.undo()
    monkeypatch.setattr(degrees, "PROFILE_MAX_DEGREES", 8)
    with pytest.raises(ValueError, match=r"need r\^2 <= 8, got r=3"):
        degree_profile(4, 3)
    monkeypatch.setattr(degrees, "PROFILE_MAX_DEGREES", 9)
    assert len(degree_profile(4, 3).D) == 9


def test_unwritable_out_exits_2(capsys, tmp_path):
    # a directory and a path under a missing directory are usage errors,
    # not tracebacks with the exit code of a verify failure
    missing = tmp_path / "missing" / "x.json"
    for argv in (
        ("profile", "--n", "3", "--r", "2", "--out", str(missing)),
        ("bounds", "--n", "3", "--r", "2", "--k", "1", "--out", str(tmp_path)),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write {argv[-1]}: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("q_log", ["0", "11", "12"])
def test_q_log_out_of_envelope_rejected_at_parsing(capsys, monkeypatch, q_log):
    # GF(2^(2e)) beyond the largest extension degree fails before any field
    # is built
    from rsprod import cli as cli_mod

    def fail(*args, **kwargs):
        raise AssertionError("instantiate_standard must not be called")

    monkeypatch.setattr(cli_mod, "instantiate_standard", fail)
    for command in ("build", "distance", "erasure-sim"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--q-log", q_log, "--r", "2", "--k", "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --q-log: must be in [1, 10]" in err and f"got {q_log}" in err


@pytest.mark.parametrize("msg", ["-1,0,0", "10,0,0", "10000000000000000,0,0"])
def test_encode_symbol_outside_the_field_exits_2(capsys, msg):
    # GF(2^4) holds 0..f: -1, 0x10 and 2^64 (past int64) are not symbols
    code, out, err = run_cli(
        capsys, "encode", "--q-log", "2", "--r", "2", "--k", "3", f"--msg={msg}"
    )
    assert code == 2 and out == ""
    assert err == "error: message symbols must be elements of GF(2^4), in [0, 16)\n"


FIELD_FLAGS = ("--q-log", "2", "--r", "2", "--k", "3")


@pytest.mark.parametrize(
    "argv",
    [
        ("distance", *FIELD_FLAGS, "--seed", "-1"),
        ("distance", *FIELD_FLAGS, "--trials", "0"),
        ("erasure-sim", *FIELD_FLAGS, "--model", "uniform-p", "--p", "0.3", "--trials", "0"),
        ("erasure-sim", *FIELD_FLAGS, "--model", "fig1", "--a", "1", "--b", "1", "--trials", "-1"),
        ("verify", "--seed", "-1"),
        ("distance", *FIELD_FLAGS, "--budget", "-1"),
        ("erasure-sim", *FIELD_FLAGS, "--model", "fig1", "--a", "1", "--b", "1", "--seed", "-1"),
    ],
)
def test_counts_below_one_rejected_at_parsing(capsys, argv):
    # counts must be at least 1, and a seed, which numpy takes, at least 0
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    flag, value = argv[-2:]
    least = 0 if flag == "--seed" else 1
    assert err.splitlines()[-1].endswith(
        f"error: argument {flag}: must be at least {least}, got {value}"
    )


def test_verify_fast_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--level", "fast")
    assert code == 0
    assert "checks passed" in out
    assert "FAIL" not in out


def test_verify_failure_exit_code(capsys, monkeypatch):
    from rsprod import cli as cli_mod
    from rsprod.verify import CheckResult

    monkeypatch.setattr(
        cli_mod.verify,
        "run_checks",
        lambda *a, **k: [CheckResult("injected", False, "expected 1 got 2")],
    )
    code, out, _ = run_cli(capsys, "verify")
    assert code == 1
    assert "FAIL" in out and "expected 1 got 2" in out


def test_verify_detects_corrupted_field():
    ctx = FieldCtx(4)
    ctx.reduction_poly = 0b10101  # reducible: breaks inverse roundtrip
    msg = check_field_axioms(ctx, np.random.default_rng(0))
    assert msg is not None and "field axiom" in msg


def _peel_check(trials):
    return lambda: verify._check_peel_consistency(((2, 2, 3),), np.random.default_rng(0), trials)


@pytest.mark.parametrize("case", verify.SMALL_DISTANCES + verify.HEAVY_PARITY_DISTANCES)
def test_verify_distance_cases_have_a_closed_form(case):
    e, r, k = case
    assert bounds.exact_distance(1 << e, r, k) is not None


def _flip_last(out):
    """A copy of an array with its last entry changed."""
    out = out.copy()
    out.flat[-1] ^= 1
    return out


def _diagram_check():
    return verify._check_diagram((1,), np.random.default_rng(0), per_r=1)


# (check, module and function to corrupt, corruption of its return value)
VERIFY_FAULTS = [
    pytest.param(lambda: verify._check_degree_oracle((1,)), verify, "ref_basis",
                 lambda out: out[:-1], id="degree-oracle"),
    pytest.param(_diagram_check, codec, "_grid_values", lambda out: out ^ 1, id="diagram"),
    # a GF(2)-linear bijection of the values: the root spaces, and so the
    # pair, stay as they are, while g and f are wrong at the points
    pytest.param(_diagram_check, LinearizedPoly, "eval", lambda out: out ^ (out >> 1),
                 id="diagram-eval"),
    # codec._powers takes its powers from pow_arr as well, so a fault that
    # changes every power alike passes both sides; one wrong entry does not
    pytest.param(_diagram_check, FieldCtx, "pow_arr", _flip_last, id="diagram-pow"),
    pytest.param(_peel_check(20), analysis, "erasure_recoverable", lambda out: not out,
                 id="peel-verdict"),
    pytest.param(_peel_check(20), analysis, "peel_decode",
                 lambda out: analysis.PeelResult(out.word ^ 1, None) if out.ok else out,
                 id="peel-decoder"),
    pytest.param(_peel_check(0), analysis, "erasure_recoverable", lambda out: True,
                 id="peel-stopping-set"),
    pytest.param(lambda: verify._check_distances("d", verify.SMALL_DISTANCES),
                 analysis, "exhaustive_distance", lambda out: (out[0] + 1, out[1]), id="distances"),
    pytest.param(lambda: verify._check_bound_ordering(((8, 4),)), bounds, "lower_opt",
                 lambda out: (out[0] + 1000, out[1]), id="bound-ordering"),
]


@pytest.mark.parametrize("check,module,attr,corrupt", VERIFY_FAULTS)
def test_verify_check_fails_on_injected_fault(monkeypatch, check, module, attr, corrupt):
    assert check().ok
    real = getattr(module, attr)
    monkeypatch.setattr(module, attr, lambda *a, **kw: corrupt(real(*a, **kw)))
    res = check()
    assert not res.ok and res.detail


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "rsprod.cli", "profile", "--n", "4", "--r", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["D"] == [0, 1, 4, 8]
