"""Workload definitions shared by the benchmark entry point and its worker.

A workload is a fixed list of (experiment, params) calls.  Each call runs
``run_experiment(ExperimentConfig(experiment, seed=<workload seed>,
params=params))`` and writes its report, so the workload seed reaches the
library only as ``config.seed``.  Sizes are set through the experiments' own
config keys; the reasons for each size are in perfbench/README.md.

``full`` is what the benchmark measures, ``tiny`` is for the smoke test and
``warmup`` is the small run every worker makes before it reports ready.
"""

DEFAULT_SEED = 2026     # the seed ExperimentConfig uses when none is given

WORKLOADS = {
    "section_sweep": {
        "full": [
            ("truncation_uniformity", {
                "seeds": 40, "gamma_min": -2, "gamma_max": 2,
                "beta_zero_gammas": [-2, 0, 2]}),
            ("log_growth", {}),
        ],
        "tiny": [
            ("truncation_uniformity", {
                "seeds": 2, "section_size": 64, "gamma_min": -2,
                "gamma_max": 2, "beta_zero_gammas": [-2, 0, 2],
                "spot_points": [[1.0, 8.0]], "spot_samples": 4,
                "spot_degree": 4}),
            ("log_growth", {
                "extremal_n_max": 3, "lebesgue_powers": [4, 5, 6],
                "section_size": 64, "section_N_step": 16}),
        ],
        "warmup": [
            ("truncation_uniformity", {
                "seeds": 1, "gamma_min": 0, "gamma_max": 1,
                "beta_zero_gammas": [0], "spot_points": [[1.0, 8.0]],
                "spot_samples": 2, "spot_degree": 4}),
            ("log_growth", {
                "extremal_n_max": 2, "lebesgue_powers": [4, 5],
                "section_size": 32, "section_N_step": 16}),
        ],
    },
    "norm_sweep": {
        "full": [
            ("lemma_lipschitz_sweep", {
                "seeds": 20, "N_grid": [32, 1024], "M_factors": [4.0]}),
            ("constant_stability", {"seeds": 450}),
        ],
        "tiny": [
            ("lemma_lipschitz_sweep", {
                "seeds": 2, "N_grid": [8, 32], "M_factors": [0.5],
                "symbol_max_block": 5}),
            ("constant_stability", {
                "seeds": 2, "bands": {"A": [[1, 1], [2, 1]]},
                "exploratory": [[-9, 8]]}),
        ],
        "warmup": [
            ("lemma_lipschitz_sweep", {
                "seeds": 1, "N_grid": [8, 16], "M_factors": [0.5],
                "symbol_max_block": 4}),
            ("constant_stability", {
                "seeds": 1, "bands": {"A": [[1, 1], [2, 1]]},
                "exploratory": []}),
        ],
    },
    "bilinear_check": {
        "full": [
            ("bht_consistency", {"seeds": 6}),
            ("identity_suite", {"seeds": 2400}),
        ],
        "tiny": [
            ("bht_consistency", {
                "seeds": 1, "grid": 1 << 10, "kl_pairs": [[1, 2], [3, -1]],
                "cross_grid": 64, "cross_degree": 4}),
            ("identity_suite", {"seeds": 12}),
        ],
        # pv_quadrature runs at the full grid and the direct cross-check at
        # its full size, so the allocator has seen the large arrays before
        # timing starts
        "warmup": [
            ("bht_consistency", {
                "seeds": 1, "kl_pairs": [[1, 1]], "mu_policy": "zero",
                "max_degree": 4}),
            ("identity_suite", {"seeds": 2}),
        ],
    },
}

SIZES = ("full", "tiny")


def calls(workload, size):
    """The (experiment, params) list a workload runs at the given size."""
    return WORKLOADS[workload][size]
