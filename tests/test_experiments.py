"""Experiment drivers: config validation, deterministic reruns, report
files, and the command-line interface."""

import json
import os

import numpy as np
import pytest
import yaml

from hankellab.bilinear import BHTParams, bht_mu_fourier
from hankellab.cli import main
from hankellab.errors import ParameterError, SectionSizeError
from hankellab.experiments import (EXPERIMENT_NAMES, EXPERIMENTS,
                                   ExperimentConfig, _section_sweep,
                                   run_experiment)
from hankellab.hankel import TruncationSpec, matrix_section, section_weights
from hankellab.opnorm import section_norm_2_2
from hankellab.reporting import write_rows_csv
from hankellab.serialize import load_poly
from hankellab.spaces import (hardy_norm, lipschitz_norm, random_symbol,
                              reduce_symbol)
from hankellab.trigpoly import TrigPoly, flip, multiply, random_poly

TINY = {
    "identity_suite": {
        "seeds": 2, "max_degree": 6, "kl_pairs": [[1, 2]],
        "nu_grid": [0.5], "gamma_grid": [0.0],
    },
    "bht_consistency": {
        "grid": 256, "seeds": 1, "max_degree": 4, "kl_pairs": [[1, 2]],
        "cross_grid": 128, "cross_degree": 4,
    },
    "truncation_uniformity": {
        "section_size": 32, "seeds": 2, "max_block": 5,
        "beta_grid": [-2.0, 1.0], "gamma_min": -4, "gamma_max": 4,
        "beta_zero_gammas": [-2, 0, 2], "spot_points": [],
    },
    "log_growth": {
        "extremal_n_max": 2, "lebesgue_powers": [4, 5],
        "section_size": 32, "section_N_step": 16,
        "section_symbol_max_block": 5,
    },
    "constant_stability": {
        "seeds": 2, "f_degree": 8, "symbol_max_block": 4,
        # C has k + l < 0: the output lands on non-positive frequencies
        "bands": {"A": [[1, 1]], "B": [[-1, 2]], "C": [[-2, 1]]},
        "exploratory": [],
    },
    "lemma_lipschitz_sweep": {
        "N_grid": [8, 16], "M_factors": [0.0, 1.0], "seeds": 2,
        "alphas": [0.5], "symbol_max_block": 6,
    },
}


def tiny_config(name, seed=2026):
    return ExperimentConfig(name, seed=seed, params=dict(TINY[name]))


# -- configuration -------------------------------------------------------------

def test_default_configs_build_for_every_experiment():
    for name in EXPERIMENT_NAMES:
        cfg = ExperimentConfig(name)
        assert cfg.experiment == name and cfg.seed == 2026
        assert cfg.params        # defaults merged in
        assert ExperimentConfig.from_dict({"experiment": name}) == cfg


def test_unknown_experiment_rejected():
    with pytest.raises(ParameterError):
        ExperimentConfig("bogus_experiment")


def test_unknown_param_key_rejected():
    with pytest.raises(ParameterError):
        ExperimentConfig("identity_suite", params={"seeds": 2, "nope": 1})
    # the removed thread-count key is an unknown key like any other
    with pytest.raises(ParameterError):
        ExperimentConfig.from_dict({"experiment": "identity_suite",
                                    "threads": 2})


def test_beta_grid_exclusion_zones():
    for bad in (0.05, -0.02, -0.95, -1.05):
        with pytest.raises(ParameterError):
            ExperimentConfig("truncation_uniformity",
                             params={"beta_grid": [bad]})


def test_bad_kl_pairs_rejected():
    for name, params in [
        ("bht_consistency", {"kl_pairs": [[1, -1]]}),
        ("constant_stability", {"bands": {"A": [[2, 0]]}}),
        # exploratory pairs are checked before the corpus is drawn
        ("constant_stability", {"exploratory": [[1, -1]]}),
        ("identity_suite", {"kl_pairs": [[1, 2], [1, -1]]}),
        # the link identity needs a pair with k + l > 0
        ("identity_suite", {"kl_pairs": [[2, -3]]}),
        ("identity_suite", {"nu_grid": []}),
        ("identity_suite", {"gamma_grid": []}),
    ]:
        with pytest.raises(ParameterError):
            ExperimentConfig(name, params=params)
    # entries that are not a pair of integers, and containers that are not
    # lists, are config errors too
    for bad in ([[1]], [[1, 2, 3]], [1], [[1, "a"]], [[1, None]],
                [[1, float("inf")]], 5):
        for name, params in [
            ("bht_consistency", {"kl_pairs": bad}),
            ("identity_suite", {"kl_pairs": bad}),
            ("constant_stability", {"bands": {"A": bad}}),
            ("constant_stability", {"exploratory": bad}),
        ]:
            with pytest.raises(ParameterError):
                ExperimentConfig(name, params=params)
    with pytest.raises(ParameterError):
        ExperimentConfig("constant_stability", params={"bands": [[1, 1]]})


def test_config_values_must_have_the_default_type():
    for name, params in [
        ("identity_suite", {"seeds": "abc"}),
        ("identity_suite", {"seeds": True}),
        ("lemma_lipschitz_sweep", {"N_grid": [8, "x"]}),
        ("truncation_uniformity", {"section_size": 64.0}),
        ("truncation_uniformity", {"beta_grid": 1.0}),
        ("truncation_uniformity", {"spot_points": [[1.0, "a"]]}),
        ("constant_stability", {"bands": {"A": [[1, 1.5]]}}),
        ("bht_consistency", {"mu_policy": 1}),
    ]:
        with pytest.raises(ParameterError):
            ExperimentConfig(name, params=params)
    # a float key takes an int, element by element too, and stores a float;
    # an int key stores an int, and so does the seed
    cfg = ExperimentConfig("truncation_uniformity", seed=np.int64(-3),
                           params={"alpha": 1, "beta_grid": [-2, 1],
                                   "seeds": np.int64(2),
                                   "spot_points": [(1, np.float32(8))]})
    assert cfg.params["beta_grid"] == [-2.0, 1.0]
    assert type(cfg.seed) is int and cfg.seed == -3
    for key, kind in (("alpha", float), ("seeds", int)):
        assert type(cfg.params[key]) is kind
    assert all(type(v) is float for v in cfg.params["beta_grid"])
    assert [[type(v) for v in pt] for pt in cfg.params["spot_points"]] \
        == [[float, float]]
    with pytest.raises(ParameterError, match="seed"):
        ExperimentConfig("identity_suite", seed=True)
    # every default passes its own check
    for name in EXPERIMENT_NAMES:
        ExperimentConfig(name, params=dict(EXPERIMENTS[name].defaults))


# values the type check passes but the experiment cannot use, the faulty
# key first; the cases marked * are shrunk counterexamples of the config
# property test in test_properties.py
OUT_OF_RANGE = [
    ("log_growth", {"section_N_step": 0}),                      # *
    ("log_growth", {"lebesgue_powers": [0, 5]}),                # *
    ("log_growth", {"lebesgue_powers": [4, -1]}),
    ("lemma_lipschitz_sweep", {"N_grid": [0, 16]}),             # *
    ("lemma_lipschitz_sweep", {"N_grid": [0, 16],
                               "M_factors": [-1.0, 1.0]}),      # *
    ("identity_suite", {"max_degree": 0, "residual_tol": -1.0}),  # *
    ("bht_consistency", {"max_degree": 0, "rel_tol": -1.0}),    # *
    ("bht_consistency", {"max_degree": 3}),
    ("bht_consistency", {"cross_degree": -1}),
    ("constant_stability", {"f_degree": -1}),
]


@pytest.mark.parametrize("name,bad", OUT_OF_RANGE)
def test_out_of_range_values_are_config_errors(name, bad, tmp_path, capsys):
    with pytest.raises(ParameterError, match=next(iter(bad))):
        ExperimentConfig(name, params=dict(TINY[name], **bad))
    path = tmp_path / "c.yaml"
    path.write_text(yaml.safe_dump(dict(TINY[name], experiment=name, **bad)))
    assert main(["experiment", "run", "--config", str(path), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("name,params,seed,error", [
    # shrunk counterexamples of the config property test: two runs, and a
    # library error, which the CLI prints as an error line
    ("constant_stability", {"seeds": 1}, -1, None),
    ("log_growth", {"extremal_n_max": 0, "alpha": -1.0}, -1, None),
    ("truncation_uniformity", {"section_size": 0}, -1, SectionSizeError),
])
def test_property_counterexamples(name, params, seed, error):
    config = ExperimentConfig(name, seed=seed, params=dict(TINY[name],
                                                           **params))
    if error is None:
        assert run_experiment(config).rows == run_experiment(config).rows
    else:
        with pytest.raises(error):
            run_experiment(config)


@pytest.mark.parametrize("name,params,slope", [
    # one gamma, one |M| and one N: the trend lines are undetermined
    ("truncation_uniformity", {"gamma_min": 2, "gamma_max": 2},
     lambda s: s["per_beta"]["-2.0"]["slope"]),
    ("lemma_lipschitz_sweep", {"M_factors": [0.0]},
     lambda s: s["trend_slope_ln_M"]),
    ("lemma_lipschitz_sweep", {"N_grid": [16, 16]},
     lambda s: s["trend_slope_ln_N"]),
    ("log_growth", {"lebesgue_powers": [4, 4]},
     lambda s: s["lebesgue"]["fitted_slope"]),
])
def test_undetermined_trend_is_nan(name, params, slope):
    # a NaN slope fails its gate, if it has one, rather than ending the run
    rep = run_experiment(ExperimentConfig(name, params=dict(TINY[name],
                                                            **params)))
    assert np.isnan(slope(rep.summary))
    assert name == "log_growth" or not rep.passed


def test_empty_uniformity_sweeps_rejected():
    for params in ({"gamma_min": 3, "gamma_max": 1}, {"seeds": 0},
                   {"seeds": -1}):
        with pytest.raises(ParameterError):
            ExperimentConfig("truncation_uniformity", params=params)
    # one gamma is a sweep
    ExperimentConfig("truncation_uniformity",
                     params={"gamma_min": 2, "gamma_max": 2})


def test_config_dict_round_trip():
    cfg = tiny_config("identity_suite", seed=7)
    d = cfg.to_dict()
    back = ExperimentConfig.from_dict(d)
    assert back.experiment == cfg.experiment
    assert back.seed == 7
    assert back.params == cfg.params


def test_config_from_yaml(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(
        {"experiment": "lemma_lipschitz_sweep", "seed": 11,
         "N_grid": [8], "M_factors": [0.0], "seeds": 1, "alphas": [0.5]}))
    cfg = ExperimentConfig.from_yaml(path)
    assert cfg.experiment == "lemma_lipschitz_sweep"
    assert cfg.seed == 11 and cfg.params["N_grid"] == [8]
    with pytest.raises(ParameterError):
        ExperimentConfig.from_dict({"seed": 3})    # no experiment key


def test_config_from_yaml_e_notation_floats(tmp_path):
    # YAML 1.1 reads `1e-6` (no dot) as a string; float keys still take it
    path = tmp_path / "cfg.yaml"
    path.write_text("experiment: identity_suite\nresidual_tol: 1e-10\n"
                    "nu_grid: [5e-1, 1]\n")
    cfg = ExperimentConfig.from_yaml(path)
    assert cfg.params["residual_tol"] == 1e-10
    assert cfg.params["nu_grid"] == [0.5, 1]
    for bad in ("residual_tol: abc\n", "nu_grid: [1e-1, x]\n"):
        path.write_text("experiment: identity_suite\n" + bad)
        with pytest.raises(ParameterError):
            ExperimentConfig.from_yaml(path)


# -- deterministic reruns and summary recomputation ------------------------------

@pytest.mark.parametrize("name", sorted(TINY))
def test_rerun_determinism_and_summary_recompute(name):
    r1 = run_experiment(tiny_config(name))
    r2 = run_experiment(tiny_config(name))
    assert r1.rows == r2.rows                      # bitwise identical floats
    spec = EXPERIMENTS[name]
    assert all(len(row) == len(spec.columns) for row in r1.rows)
    summary, passed = spec.summarize(tiny_config(name).params, r1.rows)
    assert summary == r1.summary and passed == r1.passed


def _integral_floats_as_ints(value):
    """A config value with every integral float written as an int."""
    if isinstance(value, dict):
        return {k: _integral_floats_as_ints(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_integral_floats_as_ints(v) for v in value]
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


# float keys set to integral values, so each experiment has some to write
# as ints
INTEGRAL_FLOATS = {
    "identity_suite": {"nu_grid": [1.0, -2.0], "gamma_grid": [0.0, 3.0]},
    "bht_consistency": {"rel_tol": 1.0},
    "truncation_uniformity": {"alpha": 1.0, "spot_points": [[1.0, 8.0]],
                              "spot_degree": 4, "spot_samples": 4},
    "log_growth": {"alpha": 1.0, "section_symbol_alpha": 1.0},
    "constant_stability": {"alpha": 1.0, "q": 2.0, "p": 1.0},
    "lemma_lipschitz_sweep": {"alphas": [1.0], "M_factors": [0.0, 4.0]},
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_integers_for_float_keys_give_identical_reports(name, tmp_path):
    params = dict(TINY[name], **INTEGRAL_FLOATS[name])
    as_ints = _integral_floats_as_ints(params)
    assert repr(as_ints) != repr(params)
    for label, p in (("float", params), ("int", as_ints)):
        report = run_experiment(ExperimentConfig(name, params=p))
        report.wall_clock = 0.0
        report.write(tmp_path / label)
    for suffix in ("_rows.csv", "_summary.json"):
        files = [(tmp_path / label / (name + suffix)).read_bytes()
                 for label in ("float", "int")]
        assert files[0] == files[1], suffix


@pytest.mark.parametrize("name", sorted(TINY))
def test_negative_seed_runs_every_experiment(name):
    # run seeds are reduced mod 2^32, so -1 draws what 2^32 - 1 draws
    rows = [run_experiment(tiny_config(name, seed=seed)).rows
            for seed in (-1, -1, (1 << 32) - 1)]
    assert rows[0] and rows[0] == rows[1]
    assert list(map(repr, rows[0])) == list(map(repr, rows[2]))


def test_identity_suite_tiny_passes():
    rep = run_experiment(tiny_config("identity_suite"))
    assert rep.passed
    assert max(row[-1] for row in rep.rows) <= 1e-10


def test_bht_consistency_tiny_passes():
    rep = run_experiment(tiny_config("bht_consistency"))
    assert rep.passed
    kinds = {row[0] for row in rep.rows}
    assert "plain_kl" in kinds and "mu_form" in kinds
    assert "fft_vs_direct" in kinds
    mus = {row[3] for row in rep.rows if row[0] == "mu_form"}
    assert mus == {-2, -1, 0, 1, 2}                # all |mu| <= |l| for l=2


def test_identity_suite_gate_fails_on_nan_residual():
    # the built-in max drops a NaN in second position; the gate must not
    rep = run_experiment(tiny_config("identity_suite"))
    rows = rep.rows + [("link", 99, "k=1,l=2,gamma_l=0", float("nan"))]
    summary, passed = EXPERIMENTS["identity_suite"].summarize(
        tiny_config("identity_suite").params, rows)
    assert not passed
    assert np.isnan(summary["max_residual"])
    assert np.isnan(summary["per_identity"]["link"])


def test_uniformity_gate_fails_on_nan_beta_zero_ratio():
    # the built-in max drops a NaN in second position; the gate must not
    params = tiny_config("truncation_uniformity").params
    summarize = EXPERIMENTS["truncation_uniformity"].summarize
    flat = [("ratio", 1.0, g, 0, 1.0) for g in range(-4, 5)]
    rows = flat + [("beta_zero", 0.0, -2, 0, 1.0)]
    assert summarize(params, rows)[1]
    summary, passed = summarize(
        params, rows + [("beta_zero", 0.0, 0, 0, float("nan"))])
    assert not passed and not summary["beta_zero_passed"]
    assert np.isnan(summary["beta_zero_max_ratio"])


def test_bht_consistency_gate_fails_on_nan_error():
    rep = run_experiment(tiny_config("bht_consistency"))
    rows = list(rep.rows)
    i = next(i for i, row in enumerate(rows) if row[0] == "mu_form")
    rows[i] = rows[i][:-1] + (float("nan"),)
    summary, passed = EXPERIMENTS["bht_consistency"].summarize(
        tiny_config("bht_consistency").params, rows)
    assert not passed
    assert np.isnan(summary["max_rel_error"])
    assert np.isnan(summary["per_variant"]["mu_form"])


def test_uniformity_tiny_beta_zero_exact():
    rep = run_experiment(tiny_config("truncation_uniformity"))
    bz = [row for row in rep.rows if row[0] == "beta_zero"]
    assert bz and all(v <= 1.0 + 1e-10 for *_, v in bz)
    assert all(v == 1.0 for _, _, g, _, v in bz if g <= 0)
    assert rep.summary["beta_zero_passed"]


def test_log_growth_tiny_rows():
    rep = run_experiment(tiny_config("log_growth"))
    leb = [(N, v, extra) for kind, N, v, extra in rep.rows
           if kind == "lebesgue"]
    assert [N for N, _, _ in leb] == [16, 32]
    for N, v, extra in leb:
        assert abs(extra - v / np.log(N)) <= 1e-12
    pim = [(N, v) for kind, N, v, _ in rep.rows if kind == "pi_minus1"]
    assert pim and max(v for _, v in pim) <= 1.0 + 1e-9
    # Pi_{-1,0} keeps every entry: the ratio is 1 exactly, not iterated
    assert pim[0] == (0, 1.0)


@pytest.mark.parametrize("beta", [-3.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0,
                                  2.0])
def test_section_sweep_equals_masked_section(beta):
    S = 64
    H = matrix_section(random_symbol(0.005, 7, [2026, 31, 0]), None, S, S)
    buf = np.empty_like(H)
    for offsets in (list(range(-70, 71)),           # ascending
                    list(range(70, -71, -1)),       # descending
                    [-3, -3, 5, 5, 5, 2, 2, 90, -9, 7, 7],   # repeated
                    list(range(0, S + 1, 32)),      # stride 32
                    [-64, -32, -16, 0, 1, 4, 16, 32, 64]):
        got = 0
        for gamma, A in zip(offsets, _section_sweep(H, beta, offsets, buf)):
            W = section_weights(TruncationSpec((beta,), gamma), S, S)
            if W.all():
                assert A is None, (offsets, gamma)
            else:
                assert A is buf and np.array_equal(A, W * H), (offsets, gamma)
            got += 1
        assert got == len(offsets)


def _per_point_ratios(H, full, beta, offsets, tol, chain):
    """The per-point loop the sweeps replaced: a fresh section_weights * H
    at every offset, started from the last positive witness along a chain,
    or from full.witness at every point."""
    out, v = [], full.witness
    for gamma in offsets:
        W = section_weights(TruncationSpec((beta,), gamma), *H.shape)
        if W.all():
            out.append(1.0)
            continue
        est = section_norm_2_2(W * H, tol=tol, v0=v)
        out.append(est.value / full.value)
        if chain and est.value > 0:
            v = est.witness
    return out


def test_sweep_rows_match_per_point_loop():
    cfg = ExperimentConfig("truncation_uniformity", params=dict(
        TINY["truncation_uniformity"], gamma_min=-12, gamma_max=12,
        beta_zero_gammas=[4, -2, 0, 16, 2]))
    p = cfg.params
    S = p["section_size"]
    gammas = list(range(p["gamma_min"], p["gamma_max"] + 1))
    want = []
    for s in range(p["seeds"]):
        H = matrix_section(random_symbol(p["alpha"], p["max_block"],
                                         [cfg.seed, 31, s]), None, S, S)
        full = section_norm_2_2(H, tol=p["norm_tol"],
                                seed=[cfg.seed, 37, s])
        for beta in p["beta_grid"]:
            ratios = _per_point_ratios(H, full, beta, gammas,
                                       p["sweep_tol"], True)
            want += [("ratio", beta, g, s, r) for g, r in zip(gammas, ratios)]
        ratios = _per_point_ratios(H, full, 0.0, p["beta_zero_gammas"],
                                   p["norm_tol"], False)
        want += [("beta_zero", 0.0, g, s, r)
                 for g, r in zip(p["beta_zero_gammas"], ratios)]
    got = run_experiment(cfg).rows
    assert sorted(map(repr, got)) == sorted(map(repr, want))

    cfg = ExperimentConfig("log_growth", params=dict(
        TINY["log_growth"], section_N_step=4))
    p = cfg.params
    S = p["section_size"]
    H = matrix_section(random_symbol(p["section_symbol_alpha"],
                                     p["section_symbol_max_block"],
                                     [cfg.seed, 47]), None, S, S)
    full = section_norm_2_2(H, tol=1e-9, seed=[cfg.seed, 53])
    Ns = list(range(0, S + 1, p["section_N_step"]))
    ratios = _per_point_ratios(H, full, -1.0, Ns, 1e-9, True)
    got = [row for row in run_experiment(cfg).rows if row[0] == "pi_minus1"]
    assert list(map(repr, got)) == [repr(("pi_minus1", N, r, 0.0))
                                    for N, r in zip(Ns, ratios)]


def _dense_ratio(H, spec):
    """The oracle ||W * H|| / ||H|| by dense SVD."""
    W = section_weights(spec, *H.shape)
    return np.linalg.norm(W * H, 2) / np.linalg.norm(H, 2)


def test_section_sweep_rows_match_dense_svd():
    cfg = tiny_config("truncation_uniformity")
    p = cfg.params
    S = p["section_size"]
    sections = [matrix_section(random_symbol(p["alpha"], p["max_block"],
                                             [cfg.seed, 31, s]), None, S, S)
                for s in range(p["seeds"])]
    checked = 0
    for kind, beta, gamma, s, value in run_experiment(cfg).rows:
        if kind in ("ratio", "beta_zero"):
            ref = _dense_ratio(sections[s], TruncationSpec((beta,), gamma))
            assert abs(value - ref) <= 1e-6 * ref, (kind, beta, gamma, s)
            checked += 1
    assert checked == 2 * (2 * 9 + 3)     # seeds x (betas x gammas + 3)

    cfg = tiny_config("log_growth")
    p = cfg.params
    S = p["section_size"]
    H = matrix_section(random_symbol(p["section_symbol_alpha"],
                                     p["section_symbol_max_block"],
                                     [cfg.seed, 47]), None, S, S)
    pim = [(N, v) for kind, N, v, _ in run_experiment(cfg).rows
           if kind == "pi_minus1"]
    assert [N for N, _ in pim] == [0, 16, 32]
    for N, value in pim:
        ref = _dense_ratio(H, TruncationSpec((-1.0,), N))
        assert abs(value - ref) <= 1e-6 * ref, N


def test_constant_stability_tiny_structure():
    rep = run_experiment(tiny_config("constant_stability"))
    mus_a = sorted({row[3] for row in rep.rows if row[0] == "A"})
    mus_b = sorted({row[3] for row in rep.rows if row[0] == "B"})
    assert mus_a == [-1, 0, 1] and mus_b == [-2, -1, 0, 1, 2]
    assert all(row[-1] > 0 for row in rep.rows)
    assert set(rep.summary["per_kl"]) == {"A:k=1,l=1", "B:k=-1,l=2",
                                          "C:k=-2,l=1"}


@pytest.mark.parametrize("p", [2.0, 1.0])
def test_constant_stability_rows_match_per_call_loop(p, monkeypatch):
    # reference: one bht_mu_fourier call per (k, l, mu, seed); p = 1 takes
    # the grid path of hardy_norm, and blocks of two pairs split the corpus
    monkeypatch.setattr("hankellab.experiments._FAMILY_BLOCK", 2)
    params = dict(TINY["constant_stability"], seeds=5, p=p,
                  exploratory=[[-9, 8]])
    cfg = ExperimentConfig("constant_stability", seed=2026, params=params)
    rows = run_experiment(cfg).rows
    d = dict(EXPERIMENTS["constant_stability"].defaults, **params)
    corpus = []
    for s in range(d["seeds"]):
        b = random_symbol(d["alpha"], d["symbol_max_block"],
                          [cfg.seed, 61, s])
        f = random_poly(np.random.default_rng([cfg.seed, 67, s]),
                        d["f_degree"])
        corpus.append((b, f, hardy_norm(f, d["q"]).value))
    cases = [(band, k, l) for band, pairs in sorted(d["bands"].items())
             for k, l in pairs]
    cases += [("exploratory", k, l) for k, l in d["exploratory"]]
    ref = []
    for band, k, l in cases:
        for mu in range(-abs(l), abs(l) + 1):
            for s, (b, f, hardy_f) in enumerate(corpus):
                g = bht_mu_fourier(b, f, BHTParams(k, l, mu))
                if not g.is_analytic:
                    g = flip(g)
                num = hardy_norm(g, p).value if not g.is_zero else 0.0
                ref.append((band, k, l, mu, s, num / hardy_f))
    assert [repr(r) for r in rows] == [repr(r) for r in ref]


def test_lemma_tiny_ratios():
    # the tiny grid intentionally has too few points for the trend gates,
    # so only the row structure and summary bookkeeping are asserted here
    rep = run_experiment(tiny_config("lemma_lipschitz_sweep"))
    assert all(row[-1] > 0 for row in rep.rows)
    # M = 0 with N <= 16 keeps the symbol untouched: ratio exactly ~ 1
    base = [r for a, N, M, s, r in rep.rows if M == 0]
    assert max(abs(r - 1.0) for r in base) <= 1e-9
    assert rep.summary["sup_ratio"] == max(row[-1] for row in rep.rows)


def test_lemma_rows_match_per_pair_denominator():
    # reference: the ratio with lipschitz_norm(b) recomputed for every pair
    params = dict(TINY["lemma_lipschitz_sweep"], alphas=[0.5, 1.0],
                  M_factors=[0.0, 0.5, 1.0, 4.0])
    cfg = ExperimentConfig("lemma_lipschitz_sweep", seed=2026, params=params)
    rows = run_experiment(cfg).rows
    ref = []
    for alpha in params["alphas"]:
        symbols = [random_symbol(alpha, params["symbol_max_block"],
                                 [cfg.seed, 71, s])
                   for s in range(params["seeds"])]
        for N in params["N_grid"]:
            for fac in params["M_factors"]:
                M = int(round(fac * N))
                for s, b in enumerate(symbols):
                    shifted = multiply(reduce_symbol(b, N),
                                       TrigPoly.character(M))
                    num = lipschitz_norm(shifted, alpha).value
                    scale = (abs(M) / (N + 1.0) + 1.0) ** alpha
                    ref.append((alpha, N, M, s,
                                num / (scale * lipschitz_norm(b, alpha).value)))
    assert [repr(r) for r in rows] == [repr(r) for r in ref]


# -- report files ----------------------------------------------------------------

def test_report_write_files(tmp_path):
    rep = run_experiment(tiny_config("truncation_uniformity"))
    out = tmp_path / "reports"
    summary_path = rep.write(out)
    assert os.path.exists(summary_path)
    rows_csv = out / "truncation_uniformity_rows.csv"
    assert rows_csv.exists()
    with open(summary_path) as fh:
        payload = json.load(fh)
    assert payload["experiment"] == "truncation_uniformity"
    assert payload["passed"] == rep.passed
    assert payload["config"]["section_size"] == 32
    svgs = list(out.glob("truncation_uniformity_beta_*.svg"))
    assert len(svgs) == 2                           # one chart per beta


def test_csv_cells_are_plain_repr(tmp_path):
    path = tmp_path / "cells.csv"
    write_rows_csv(path, ("a", "b", "c", "d", "e"),
                   [(np.float64(0.5), float("nan"), 3, "x=1", -0.0)])
    assert path.read_bytes() == b"a,b,c,d,e\r\n0.5,nan,3,x=1,-0.0\r\n"


def test_report_csv_bytes_reproducible(tmp_path):
    a = run_experiment(tiny_config("log_growth"))
    b = run_experiment(tiny_config("log_growth"))
    a.write(tmp_path / "a")
    b.write(tmp_path / "b")
    fa = (tmp_path / "a" / "log_growth_rows.csv").read_bytes()
    fb = (tmp_path / "b" / "log_growth_rows.csv").read_bytes()
    assert fa == fb
    header = fa.decode().splitlines()[0]
    assert header == "kind,N,value,extra"


# -- command-line interface ------------------------------------------------------

def test_cli_experiment_list(capsys):
    assert main(["experiment", "list"]) == 0
    out = capsys.readouterr().out.split()
    assert list(EXPERIMENT_NAMES) == out


def test_cli_symbol_pipeline(tmp_path, capsys):
    sym = str(tmp_path / "b.json")
    assert main(["gen-symbol", "--alpha", "0.5", "--max-block", "3",
                 "--seed", "5", "--out", sym, "--verbose"]) == 0
    err = capsys.readouterr().err
    assert "lipschitz_norm=1" in err               # normalized by design
    b = load_poly(sym)
    assert b.min_freq >= 0 and b.degree < 16       # block 3 peaks at 8

    out = str(tmp_path / "hb.json")
    assert main(["apply", "--symbol", sym, "--input", sym,
                 "--method", "projection", "--out", out]) == 0
    applied = load_poly(out)
    assert not applied.is_zero

    tr = str(tmp_path / "tr.json")
    assert main(["truncate", "--symbol", sym, "--inputs", sym, sym,
                 "--beta", "1,1", "--gamma", "0", "--out", tr]) == 0
    assert not load_poly(tr).is_zero


def test_cli_bht_with_check(tmp_path, capsys):
    sym = str(tmp_path / "b.json")
    main(["gen-symbol", "--alpha", "0.5", "--max-block", "2",
          "--seed", "9", "--out", sym])
    out = str(tmp_path / "bht.json")
    assert main(["bht", "--symbol", sym, "--input", sym, "-k", "1",
                 "-l", "2", "--mu", "1", "--check-grid", "128",
                 "--out", out]) == 0
    err = capsys.readouterr().err
    assert "quadrature_rel_sup_error=" in err
    assert float(err.split("=")[1]) <= 1e-10


def test_cli_opnorm(tmp_path):
    sym = str(tmp_path / "b.json")
    main(["gen-symbol", "--alpha", "0.5", "--max-block", "3",
          "--seed", "4", "--out", sym])
    report = str(tmp_path / "norm.json")
    assert main(["opnorm", "--symbol", sym, "--rows", "8", "--cols", "8",
                 "--witness", "--out", report]) == 0
    with open(report) as fh:
        payload = json.load(fh)
    assert payload["value"] > 0 and payload["converged"]
    assert isinstance(payload["witness"], list)


def test_cli_experiment_run_pass_and_fail(tmp_path, capsys):
    cfg = dict(TINY["identity_suite"], experiment="identity_suite")
    path = tmp_path / "ok.yaml"
    path.write_text(yaml.safe_dump(cfg))
    code = main(["experiment", "run", "--config", str(path), "--quiet",
                 "--out", str(tmp_path / "rep")])
    assert code == 0
    assert "identity_suite: PASS" in capsys.readouterr().out
    assert (tmp_path / "rep" / "identity_suite_summary.json").exists()

    # residuals are >= 0 by construction, so a negative tolerance must fail
    bad = dict(cfg, residual_tol=-1.0)
    bad_path = tmp_path / "bad.yaml"
    bad_path.write_text(yaml.safe_dump(bad))
    code = main(["experiment", "run", "--config", str(bad_path), "--quiet"])
    assert code == 2
    assert "identity_suite: FAIL" in capsys.readouterr().out


def test_cli_errors_exit_one(tmp_path, capsys):
    sym = str(tmp_path / "b.json")
    main(["gen-symbol", "--alpha", "0.5", "--max-block", "2",
          "--seed", "1", "--out", sym])
    capsys.readouterr()
    # slope-vector length does not match the number of inputs
    code = main(["truncate", "--symbol", sym, "--inputs", sym,
                 "--beta", "1,1", "--gamma", "0"])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    # an unparsable slope, a missing symbol file, malformed JSON and a
    # malformed triple: an error line naming the problem, not a traceback
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("[[0, 1.0, 0.0], ")
    bad_triple = tmp_path / "triple.json"
    bad_triple.write_text("[[0, 1.0]]")
    missing = str(tmp_path / "missing.json")
    for argv, needle in (
            (["truncate", "--symbol", sym, "--inputs", sym, sym,
              "--beta", "1,x"], "--beta"),
            (["apply", "--symbol", missing, "--input", sym], missing),
            (["apply", "--symbol", str(bad_json), "--input", sym],
             str(bad_json)),
            (["truncate", "--symbol", sym, "--inputs", str(bad_triple),
              "--beta", "1"], str(bad_triple))):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and needle in err
    # config/name mismatch
    cfg = dict(TINY["identity_suite"], experiment="identity_suite")
    path = tmp_path / "c.yaml"
    path.write_text(yaml.safe_dump(cfg))
    code = main(["experiment", "run", "log_growth", "--config", str(path)])
    assert code == 1
    capsys.readouterr()
    # a missing config, invalid YAML, a non-integer seed, an unwritable
    # output path and a negative seed for numpy: an error line naming the
    # problem, not a traceback
    bad_yaml = tmp_path / "bad.yaml"
    bad_yaml.write_text("experiment: [identity_suite\n")
    bad_seed = tmp_path / "seed.yaml"
    bad_seed.write_text(yaml.safe_dump(dict(cfg, seed="abc")))
    half_seed = tmp_path / "half.yaml"
    half_seed.write_text(yaml.safe_dump(dict(cfg, seed=1.5)))
    missing_yaml = str(tmp_path / "missing.yaml")
    unwritable = str(tmp_path / "nonexistent" / "x.json")
    for argv, needle in (
            (["experiment", "run", "--config", missing_yaml], missing_yaml),
            (["experiment", "run", "--config", str(bad_yaml)], str(bad_yaml)),
            (["experiment", "run", "--config", str(bad_seed)], "seed"),
            (["experiment", "run", "--config", str(half_seed)], "seed"),
            (["gen-symbol", "--alpha", "0.5", "--out", unwritable],
             unwritable),
            (["gen-symbol", "--alpha", "0.5", "--seed", "-1"], "--seed"),
            (["opnorm", "--symbol", sym, "--seed", "-1"], "--seed")):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and needle in err
        assert "Traceback" not in err
    # a config the validator rejects, not a traceback from the run
    for bad in ([[2, -3]], [[1]]):
        path.write_text(yaml.safe_dump(dict(cfg, kl_pairs=bad)))
        code = main(["experiment", "run", "--config", str(path),
                     "--out", str(tmp_path / "bad")])
        assert code == 1
        assert "error:" in capsys.readouterr().err
    # argparse usage errors: unknown experiment, unknown flag (including the
    # removed --threads), missing required option
    for argv in (["experiment", "run", "bogus"],
                 ["experiment", "list", "--nope"],
                 ["experiment", "run", "identity_suite", "--threads", "2"],
                 ["opnorm"]):
        assert main(argv) == 1
        assert "error:" in capsys.readouterr().err
    assert main(["--help"]) == 0
    assert "usage:" in capsys.readouterr().out


def test_cli_config_value_errors_exit_one(tmp_path, capsys):
    # values of the wrong type and empty sweeps: an error line, exit 1
    for name, bad in (("identity_suite", {"seeds": "abc"}),
                      ("lemma_lipschitz_sweep", {"N_grid": [8, "x"]}),
                      ("truncation_uniformity",
                       {"gamma_min": 3, "gamma_max": 1}),
                      ("truncation_uniformity", {"seeds": 0})):
        path = tmp_path / "c.yaml"
        path.write_text(yaml.safe_dump(dict(TINY[name], experiment=name,
                                            **bad)))
        code = main(["experiment", "run", "--config", str(path), "--quiet",
                     "--out", str(tmp_path / "out")])
        assert code == 1, bad
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
    assert not (tmp_path / "out").exists()
    # tolerances written in e-notation, as the defaults are, still run
    path.write_text(yaml.safe_dump(dict(TINY["truncation_uniformity"],
                                        experiment="truncation_uniformity"))
                    + "sweep_tol: 1e-6\nnorm_tol: 1e-9\n")
    code = main(["experiment", "run", "--config", str(path), "--quiet",
                 "--out", str(tmp_path / "out")])
    assert code in (0, 2)
    assert "error:" not in capsys.readouterr().err
    summary = (tmp_path / "out" / "truncation_uniformity_summary.json")
    assert '"sweep_tol": 1e-06' in summary.read_text()


def test_cli_seed_override(tmp_path, capsys):
    cfg = dict(TINY["lemma_lipschitz_sweep"],
               experiment="lemma_lipschitz_sweep")
    path = tmp_path / "l.yaml"
    path.write_text(yaml.safe_dump(cfg))
    a = main(["experiment", "run", "--config", str(path), "--seed", "1",
              "--out", str(tmp_path / "s1")])
    b = main(["experiment", "run", "--config", str(path), "--seed", "2",
              "--out", str(tmp_path / "s2")])
    # the tiny grid may trip the trend gates (exit 2); both runs must agree
    assert a == b and a in (0, 2)
    ra = (tmp_path / "s1" / "lemma_lipschitz_sweep_rows.csv").read_bytes()
    rb = (tmp_path / "s2" / "lemma_lipschitz_sweep_rows.csv").read_bytes()
    assert ra != rb                                # the seed reaches the rows
