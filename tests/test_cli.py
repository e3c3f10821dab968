import json

import numpy as np
import pytest

from specrad.chains import CHAIN, ChainInputs, ChainSpec, Part
from specrad.cli import main
from specrad.matrices import FiniteMatrix
from specrad.registry import registry
from specrad.spectral import Bracket, spectral_radius


GOLDEN_PAIR = [
    {"rows": 2, "cols": 2, "entries": [1, 1, 0, 1]},
    {"rows": 2, "cols": 2, "entries": [1, 0, 1, 1]},
]


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def test_estimate_rho_permutation(tmp_path, capsys):
    path = _write(tmp_path, "perm2.json",
                  {"rows": 2, "cols": 2, "entries": [0, 1, 1, 0]})
    assert main(["estimate", "rho", "--input", path]) == 0
    out = capsys.readouterr().out
    assert "rho in [1, 1]" in out and "converged=True" in out


def test_estimate_rho_near_the_top_of_the_float_range(tmp_path, capsys):
    path = _write(tmp_path, "top.json",
                  {"rows": 2, "cols": 2, "entries": [1e308, 1e308, 1e-300, 0]})
    assert main(["estimate", "rho", "--input", path]) == 0
    assert "rho in [" in capsys.readouterr().out


@pytest.mark.parametrize("quantity", ["rho", "jsr"])
def test_estimate_beyond_the_float_range_exit_2(tmp_path, capsys, quantity):
    m = {"rows": 2, "cols": 2, "entries": [1e308] * 4}
    path = _write(tmp_path, "huge.json", m if quantity == "rho" else [m])
    assert main(["estimate", quantity, "--input", path, "--delta", "1e-2"]) == 2
    assert "spectral radius exceeds the float range" in capsys.readouterr().err


def test_estimate_gamma_identity(tmp_path, capsys):
    path = _write(tmp_path, "identity_family.json",
                  {"diagonal": {"kind": "constant", "c": 1.0}})
    assert main(["estimate", "gamma", "--input", path]) == 0
    out = capsys.readouterr().out
    assert "gamma in [1, 1]" in out


def test_estimate_gamma_without_bands_writes_floats(tmp_path, capsys):
    path = _write(tmp_path, "finite_rank.json",
                  {"finite_rank": {"rows": 1, "cols": 1, "entries": [2.0]}})
    out = tmp_path / "gamma.json"
    assert main(["estimate", "gamma", "--input", path, "--out", str(out)]) == 0
    assert "gamma in [0, 0]" in capsys.readouterr().out
    text = out.read_text()
    assert '"lo": 0.0' in text and '"hi": 0.0' in text
    run = json.loads(text)["runs"][0]
    assert type(run["lo"]) is float and type(run["hi"]) is float


@pytest.mark.parametrize("scalar", [3, "x", True, None])
def test_estimate_jsr_scalar_input_exit_2(tmp_path, capsys, scalar):
    path = _write(tmp_path, "scalar.json", scalar)
    assert main(["estimate", "jsr", "--input", path]) == 2
    assert "operator set must be a nonempty JSON list" in capsys.readouterr().err


def test_estimate_set_of_scalars_names_the_element_kind(tmp_path, capsys):
    path = _write(tmp_path, "scalars.json", [1, 2])
    assert main(["estimate", "jsr", "--input", path]) == 2
    err = capsys.readouterr().err
    assert "set element must be a matrix object or a family object, got number" in err


def test_estimate_gamma_misspelt_key_exit_2(tmp_path, capsys):
    """A misspelt key is refused, not read as a family with fewer bands."""
    matrix = _write(tmp_path, "matrix.json", {"rows": 2, "cols": 2, "entrys": [1, 1, 0, 1]})
    assert main(["estimate", "gamma", "--input", matrix]) == 2
    assert "family object has unexpected key 'rows'" in capsys.readouterr().err
    family = _write(tmp_path, "family.json", {
        "bands": [{"offset": 1, "weights": {"kind": "constant", "c": 1.0}}],
        "diagnal": {"kind": "constant", "c": 3.0}})
    assert main(["estimate", "gamma", "--input", family]) == 2
    assert "family object has unexpected key 'diagnal'" in capsys.readouterr().err


def test_estimate_gamma_repeated_band_offset_exit_2(tmp_path, capsys):
    path = _write(tmp_path, "twice.json", {"bands": [
        {"offset": 1, "weights": {"kind": "constant", "c": 1.0}},
        {"offset": 1, "weights": {"kind": "constant", "c": 2.0}}]})
    assert main(["estimate", "gamma", "--input", path]) == 2
    assert "family has two bands at offset 1" in capsys.readouterr().err


def test_estimate_jsr_refuses_an_object_around_the_set(tmp_path, capsys):
    """The set is the whole input: an object holding it is not read for its
    "set" key while its other keys are ignored."""
    path = _write(tmp_path, "wrapped.json", {"set": GOLDEN_PAIR, "delta": 0.5, "sett": 3})
    out = tmp_path / "jsr.json"
    assert main(["estimate", "jsr", "--input", path, "--out", str(out)]) == 2
    assert "operator set must be a nonempty JSON list" in capsys.readouterr().err
    assert not out.exists()


def test_estimate_rho_scalar_names_the_matrix_object(tmp_path, capsys):
    path = _write(tmp_path, "scalar.json", 3)
    assert main(["estimate", "rho", "--input", path]) == 2
    err = capsys.readouterr().err
    assert "matrix object must be a JSON object, got number" in err
    assert "subscriptable" not in err


def test_estimate_jsr_golden(tmp_path, capsys):
    path = _write(tmp_path, "golden_pair.json", GOLDEN_PAIR)
    assert main(["estimate", "jsr", "--input", path, "--delta", "1e-6"]) == 0
    out = capsys.readouterr().out
    assert "jsr in [1.618033" in out


def test_estimate_ess_warns_without_oracle(tmp_path, capsys):
    fam = {"diagonal": {"kind": "constant", "c": 1.0},
           "bands": [{"offset": 1, "weights": {"kind": "constant", "c": 1.0}}]}
    path = _write(tmp_path, "multiband.json", fam)
    assert main(["estimate", "ess", "--input", path]) == 0
    err = capsys.readouterr().err
    assert "no analytic oracle" in err


def test_check_explicit_pass(tmp_path, capsys):
    path = _write(tmp_path, "pair.json",
                  {"matrices": [{"rows": 2, "cols": 2, "entries": [1, 1, 1, 1]}] * 2})
    assert main(["check", "--id", "F1", "--input", path]) == 0
    assert "verdict=pass" in capsys.readouterr().out


def test_check_hypothesis_rejection_exit_2(tmp_path, capsys):
    path = _write(tmp_path, "badt.json",
                  {"matrices": [{"rows": 1, "cols": 1, "entries": [1.0]}],
                   "params": {"t": 0.5}})
    assert main(["check", "--id", "F10", "--input", path]) == 2
    assert "t >= 1" in capsys.readouterr().err


_M2 = {"rows": 2, "cols": 2, "entries": [1, 0.5, 0.25, 1]}
_DIAG_SET = [{"diagonal": {"kind": "constant", "c": 0.5}}]


@pytest.mark.parametrize("cid,bundle,message", [
    ("F8", {"matrices": [_M2, _M2], "params": {"k": 1.5, "m": 1, "alphas": [1.0]}},
     "integer k >= 1"),
    ("E19", {"family_sets": [_DIAG_SET, _DIAG_SET],
             "params": {"m": 2, "alpha": 0.5, "tau": 5, "nu": [0, 1]}},
     "tau: a permutation"),
    ("F9", {"matrices": [_M2], "params": {"m": 1, "alphas": ["x"], "t": 2.0}},
     "alphas: m positive weights"),
    ("F6", {"matrices": [_M2, _M2], "params": {"beta": "0.5"}}, "real beta in [0, 1]"),
    ("F9", {"matrices": [_M2] * 3, "params": {"m": 2, "alphas": [0.5, 0.5], "t": 2.0}},
     "exactly 2 matrices, got 3"),
    ("F1", {"matrices": [_M2, _M2], "params": [1]}, "params must be a JSON object"),
    ("F2", {"matrices": [_M2, _M2], "familes": []}, "input file has unexpected key 'familes'"),
    ("F2", {"matrices": [_M2, _M2], "params": {"t": 2.0}},
     "params has unexpected key 't'; expected keys: none"),
    ("F10", {"matrices": [_M2], "params": {"t": 2.0, "tt": 5}},
     "params has unexpected key 'tt'; expected keys: t"),
])
def test_check_malformed_params_exit_2(tmp_path, capsys, cid, bundle, message):
    """Malformed or undeclared params, undeclared bundle keys and wrong operand
    counts are input errors, not crashes."""
    path = _write(tmp_path, "bad.json", bundle)
    assert main(["check", "--id", cid, "--input", path]) == 2
    assert message in capsys.readouterr().err


def test_check_malformed_input_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["check", "--id", "F1", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line" in err
    missing = _write(tmp_path, "short.json",
                     {"matrices": [{"rows": 2, "cols": 2, "entries": [1, 2, 3]}]})
    assert main(["check", "--id", "F1", "--input", missing]) == 2
    capsys.readouterr()
    for name, family in (("scalar_diag.json", {"diagonal": 3}),
                         ("list_weights.json", {"bands": [{"offset": 1, "weights": [1]}]})):
        bad = _write(tmp_path, name, {"family_sets": [[family]]})
        assert main(["check", "--id", "E1", "--input", bad]) == 2
        assert "malformed family object" in capsys.readouterr().err
    bad = _write(tmp_path, "scalar_bands.json", {"family_sets": [[{"bands": 3}]]})
    assert main(["check", "--id", "E1", "--input", bad]) == 2
    assert "family bands must be a JSON array, got number" in capsys.readouterr().err
    weights = {"kind": "constant", "c": 0.5}
    for name, bundle in (
            ("float_offset.json",
             {"family_sets": [[{"bands": [{"offset": 1.5, "weights": weights}]}]]}),
            ("bool_offset.json",
             {"family_sets": [[{"bands": [{"offset": True, "weights": weights}]}]]}),
            ("float_rows.json",
             {"matrices": [{"rows": 1.5, "cols": 2, "entries": [1, 2]}] * 2}),
            ("string_cols.json",
             {"matrices": [{"rows": 1, "cols": "2", "entries": [1, 2]}] * 2})):
        cid = "E1" if "family_sets" in bundle else "F1"
        assert main(["check", "--id", cid, "--input", _write(tmp_path, name, bundle)]) == 2
        assert "must be a JSON integer" in capsys.readouterr().err
    for name, seq, message in (
            ("extra_seq_key.json", {"kind": "constant", "c": 1.0, "cc": 3},
             "constant weight sequence has unexpected key 'cc'"),
            ("misspelt_seq_key.json", {"kind": "eventually_constant", "prefix": [1], "tial": 3},
             "eventually_constant weight sequence has unexpected key 'tial'"),
            ("missing_seq_key.json", {"kind": "eventually_constant", "prefix": [1]},
             "eventually_constant weight sequence needs key 'tail'"),
            ("string_c.json", {"kind": "constant", "c": "1.5"},
             "constant weight sequence key 'c' must be a JSON number, got string"),
            ("bool_c.json", {"kind": "constant", "c": True},
             "constant weight sequence key 'c' must be a JSON number, got boolean"),
            ("word_c.json", {"kind": "constant", "c": "x"},
             "constant weight sequence key 'c' must be a JSON number, got string"),
            ("scalar_p.json", {"kind": "rational", "p": 3, "q": [1.0]},
             "rational weight sequence key 'p' must be a JSON array, got number")):
        bad = _write(tmp_path, name, {"family_sets": [[{"diagonal": seq}]]})
        assert main(["check", "--id", "E1", "--input", bad]) == 2
        assert message in capsys.readouterr().err


_HUGE = 10 ** 400  # a JSON integer beyond the float range


@pytest.mark.parametrize("argv,bundle,message", [
    (["estimate", "rho"], {"rows": 1, "cols": 1, "entries": [_HUGE]},
     "matrix entries must be JSON numbers, got integer too large for a float"),
    (["estimate", "gamma"], {"diagonal": {"kind": "constant", "c": _HUGE}},
     "constant weight sequence key 'c' must be a JSON number, "
     "got integer too large for a float"),
    (["check", "--id", "F10"],
     {"matrices": [{"rows": 1, "cols": 1, "entries": [1.0]}], "params": {"t": _HUGE}},
     "F10: needs real t >= 1, got 1000"),
    (["check", "--id", "F9"],
     {"matrices": [{"rows": 1, "cols": 1, "entries": [1.0]}],
      "params": {"m": 1, "alphas": [_HUGE], "t": 2.0}},
     "F9: needs alphas: m positive weights with sum >= 1, got (1000"),
    (["check", "--id", "E7"],
     {"family_sets": [[{"diagonal": {"kind": "constant", "c": 0.5}}]],
      "params": {"m": _HUGE, "n": 1, "alpha": 2.0}},
     "E7: needs integer m >= 2, got 1000"),
])
def test_integer_too_large_for_a_float_exit_2(tmp_path, capsys, argv, bundle, message):
    path = _write(tmp_path, "huge.json", bundle)
    assert main(argv + ["--input", path]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.fixture(scope="module")
def dumped_sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("dump") / "dump.json"
    main(["sweep", "--registry", "all", "--trials", "2", "--seed", "5",
          "--dump-inputs", "--out", str(out)])
    return {run["chain_id"]: run for run in json.loads(out.read_text(encoding="utf-8"))["runs"]}


@pytest.mark.parametrize("cid", [spec.id for spec in registry()])
def test_dumped_bundles_pass_check_input(tmp_path, capsys, dumped_sweep, cid):
    """Each ``sweep --dump-inputs`` bundle, fed back to ``check --input``,
    gets the sweep's input digest, verdict and parts."""
    run = dumped_sweep[cid]
    assert len(run["inputs"]) == len(run["reports"]) == 2
    for trial, (bundle, swept) in enumerate(zip(run["inputs"], run["reports"])):
        path = _write(tmp_path, f"{cid}-{trial}.json", bundle)
        out = tmp_path / f"{cid}-{trial}-report.json"
        code = main(["check", "--id", cid, "--input", path, "--quiet", "--out", str(out)])
        capsys.readouterr()
        assert code != 2
        (checked,) = json.loads(out.read_text(encoding="utf-8"))["runs"]
        for key in ("input_digest", "verdict", "parts", "params"):
            assert checked[key] == swept[key], (cid, trial, key)


def test_check_random_deterministic(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = ["check", "--id", "F2", "--seed", "1", "--trials", "3", "--quiet"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_exit_codes_with_broken_chain(monkeypatch, tmp_path):
    """A deliberately broken chain (test-only) must drive exit code 1."""

    def build_fail(inputs):
        return [Part("broken", CHAIN, [("hi", Bracket(2.0, 2.0, "fixed")),
                                       ("lo", Bracket(1.0, 1.0, "fixed"))])]

    def build_wide(inputs):
        return [Part("wide", CHAIN, [("wide", Bracket(0.0, 10.0, "wide")),
                                     ("tight", Bracket(0.0, 5.0, "fixed"))])]

    def fake_spec(cid, build):
        return ChainSpec(cid, cid, "finite", "test-only", {}, "none",
                         lambda rng, ens: ChainInputs(),
                         lambda inputs: None, build)

    import importlib

    registry_module = importlib.import_module("specrad.registry")
    specs = [fake_spec("X1", build_fail), fake_spec("X2", build_wide)]
    monkeypatch.setattr(registry_module, "_REGISTRY", tuple(specs))
    assert main(["check", "--id", "X1", "--quiet"]) == 1
    assert main(["check", "--id", "X2", "--quiet"]) == 3
    assert main(["sweep", "--registry", "all", "--trials", "2"]) == 1


def test_sweep_csv_format(tmp_path):
    out = tmp_path / "report.csv"
    assert main(["sweep", "--ids", "F1", "--trials", "2", "--seed", "3",
                 "--out", str(out), "--format", "csv"]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "chain_id,trial,term_index,term_label,lo,hi,slack,verdict"
    assert len(lines) == 1 + 2 * 2  # two terms per trial
    assert lines[1].startswith("F1,0,0,chain/rho(A o B),")


def test_sweep_json_report_embeds_config(tmp_path):
    out = tmp_path / "report.json"
    assert main(["sweep", "--ids", "E2", "--ensemble", "shift_family",
                 "--trials", "2", "--seed", "4", "--out", str(out),
                 "--dump-inputs"]) == 0
    doc = json.loads(out.read_text())
    assert doc["tool"] == "specrad" and doc["version"]
    assert doc["config"]["ensemble"]["seed"] == 4
    assert doc["config"]["set_m_max"] == 1
    assert list(doc["config"]) == ["finite_tol", "ess_tol", "rho_tol", "set_m_max", "space",
                                   "registry", "ids", "ensemble", "trials", "dump_inputs"]
    assert doc["runs"][0]["inputs"]
    assert doc["totals"]["fail"] == 0


def test_set_m_max_is_no_longer_a_flag(tmp_path, capsys):
    """The finite set-product depth is fixed: the flag is an unknown argument."""
    out = tmp_path / "r.json"
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--ids", "F1", "--trials", "1", "--set-m-max", "2",
              "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --set-m-max 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag,value,message", [
    ("--finite-tol", "nan", "finite_tol must be a finite number >= 0, got nan"),
    ("--finite-tol", "-1", "finite_tol must be a finite number >= 0, got -1.0"),
    ("--ess-tol", "inf", "ess_tol must be a finite number >= 0, got inf"),
    ("--seed", "-1", "ensemble seed must be an integer >= 0, got -1"),
])
def test_unusable_evaluation_settings_exit_2(tmp_path, capsys, flag, value, message):
    """A setting the evaluation cannot honour is an input error: no traceback,
    no certified verdict and no report."""
    out = tmp_path / "r.json"
    assert main(["check", "--id", "F1", flag, value, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    (["sweep", "--ids", "F1", "--seed", "-1"], "ensemble seed must be an integer >= 0, got -1"),
    (["estimate", "rho", "--tol", "nan"], "--tol must be a finite number >= 0, got nan"),
    (["estimate", "rho", "--tol", "inf"], "--tol must be a finite number >= 0, got inf"),
    (["estimate", "rho", "--tol", "-1"], "--tol must be a finite number >= 0, got -1.0"),
    (["estimate", "norm", "--tol", "nan"], "--tol must be a finite number >= 0, got nan"),
    (["estimate", "jsr", "--delta", "nan"], "--delta must be a finite number > 0, got nan"),
    (["estimate", "jsr", "--delta", "inf"], "--delta must be a finite number > 0, got inf"),
    (["estimate", "jsr", "--delta", "0"], "--delta must be a finite number > 0, got 0.0"),
    (["estimate", "jsr", "--budget", "-1"], "--budget must be an integer >= 0, got -1"),
])
def test_unusable_run_settings_exit_2(tmp_path, capsys, argv, message):
    """A seed, tolerance, gap or budget that no run can honour, or no report
    can record, is an input error: no traceback and no report."""
    if argv[0] == "estimate":
        operand = GOLDEN_PAIR if argv[1] == "jsr" else GOLDEN_PAIR[0]
        argv = argv + ["--input", _write(tmp_path, "in.json", operand)]
    out = tmp_path / "r.json"
    assert main(argv + ["--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_estimate_tol_zero_is_honoured(tmp_path, capsys):
    a = np.random.default_rng(0).random((3, 3))
    path = _write(tmp_path, "m.json", {"rows": 3, "cols": 3, "entries": a.ravel().tolist()})
    out = tmp_path / "r.json"
    assert main(["estimate", "rho", "--input", path, "--tol", "0", "--out", str(out)]) == 0
    b = spectral_radius(FiniteMatrix(a), 0.0)
    assert b != spectral_radius(FiniteMatrix(a))
    assert f"rho in [{b.lo:.12g}, {b.hi:.12g}] width={b.width:.3g}" in capsys.readouterr().out
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["config"]["tol"] == 0.0
    assert doc["runs"] == [{"lo": b.lo, "hi": b.hi, "method": b.method,
                            "converged": b.converged}]


def test_catalog_unwritable_out_exit_2(tmp_path, capsys):
    out = tmp_path / "missing_dir" / "catalog.json"
    assert main(["catalog", "--out", str(out)]) == 2
    assert "cannot write" in capsys.readouterr().err


def test_far_band_entry_sup_is_inconclusive(tmp_path, capsys):
    far = {"bands": [{"offset": 5000, "weights": {"kind": "constant", "c": 1.0}}]}
    path = _write(tmp_path, "far_band.json",
                  {"families": [far, far], "params": {"m": 1, "t": 2.0}})
    assert main(["check", "--id", "E1", "--input", path]) == 3
    out = capsys.readouterr().out
    assert "verdict=inconclusive" in out and "entry-sup truncation" in out


def test_check_power_beyond_the_float_range_exit_2(tmp_path, capsys):
    """(1e200)**2 leaves the float range: an input error, not a traceback or a fail."""
    big = {"bands": [{"offset": 1, "weights": {"kind": "constant", "c": 1e200}}]}
    path = _write(tmp_path, "big_band.json",
                  {"families": [big, big], "params": {"m": 1, "t": 2.0}})
    assert main(["check", "--id", "E1", "--input", path]) == 2
    assert "exceeds the float range" in capsys.readouterr().err


def test_catalog_command(tmp_path):
    out = tmp_path / "catalog.json"
    assert main(["catalog", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["chains"]) >= 37
    assert doc["chains"][0]["id"] == "F1"


def test_unknown_id_exit_2(capsys):
    assert main(["check", "--id", "F99"]) == 2
