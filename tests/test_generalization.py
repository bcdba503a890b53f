"""The abstract's generalization claim on a task built to decide it.

Wilson et al. 2017, "The Marginal Value of Adaptive Gradient Methods in
Machine Learning" (arXiv 1705.08292, section 3.3): n points with labels
y = +-1, P(y = 1) = p > 1/2. Each point's features are x_1 = y, x_2 = x_3 = 1,
and features of its own, from column 3 + 5i: one if y = 1, five if y = -1.
Least squares from w = 0 with full-batch gradients. A fresh point's own
features lie outside every trained coordinate, so it is predicted as
sign(w_1 y + w_2 + w_3), and the population test error has a closed form.
Gradient descent reaches the minimum-norm solution, which leans on w_1, and
errs never; Adam's sign-like steps weigh w_1, w_2 and w_3 equally, so it
always predicts the majority and errs with probability 1 - p.
"""

import numpy as np
import pytest

from kltrust import presets
from kltrust.baselines import Adam, AdamW, BaselineConfig, SGDMomentum
from kltrust.optimizer import TrustRegionConfig, TrustRegionOptimizer

N_POINTS, P, STEPS, SEEDS = 60, 0.7, 200, range(5)


def separable_task(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(X, y) of Wilson et al.'s construction with 40 + seed positive labels,
    in an order drawn from `seed`. The task is one problem up to a
    permutation of its points for each count of positives, so each seed
    has its own count, around P * N_POINTS = 42."""
    positives = round(P * N_POINTS) + seed - 2
    y = np.random.default_rng(seed).permutation(
        np.where(np.arange(N_POINTS) < positives, 1.0, -1.0))
    x = np.zeros((N_POINTS, 3 + 5 * N_POINTS))
    x[:, 0], x[:, 1:3] = y, 1.0
    for i, label in enumerate(y):
        x[i, 3 + 5 * i:3 + 5 * i + (1 if label > 0 else 5)] = 1.0
    return x, y


def population_error(w: np.ndarray) -> float:
    """The population error of a fresh point, positive with probability P."""
    return (P * (np.sign(w[0] + w[1] + w[2]) != 1)
            + (1 - P) * (np.sign(-w[0] + w[1] + w[2]) != -1))


def trust_region(**settings):
    return lambda n: TrustRegionOptimizer(n, TrustRegionConfig(**settings), np.zeros(n))


def baseline(kind, **settings):
    return lambda n: kind(n, BaselineConfig(**settings), np.zeros(n))


# cell -> (optimizer from n, its test error on every seed, a bound on the
# final train loss over the first). Measured on seeds 0-4, the ratio reads
# at most 1.6e-7 for SGD, the preset and adam-surrogate, 0.0061 at the
# defaults, 0.053 at fixed-eta 50 and 0.125-0.126 for Adam and AdamW.
# Outside these counts the cells do not all hold: at 33-38 positives
# adam-surrogate's ratio reads 2.1e-4 to 0.055, above its bound, and from 51
# positives fixed-eta 50 errs and SGD's ratio passes its bound
CELLS = {
    "sgd": (baseline(SGDMomentum, learning_rate=0.05), 0.0, 1e-5),
    "adam": (baseline(Adam, learning_rate=1e-3), 1 - P, 0.15),
    "adamw": (baseline(AdamW, learning_rate=1e-3, weight_decay=1e-2), 1 - P, 0.15),
    "trust_region": (trust_region(), 0.0, 0.02),
    "trust_region-preset": (
        trust_region(**presets.get_preset("trust_region", "fashion_mnist_cnn")), 0.0, 1e-5),
    "adam-surrogate": (trust_region(mode="adam-surrogate"), 0.0, 1e-5),
    "fixed-eta": (trust_region(mode="fixed-eta", fixed_eta=50.0), 0.0, 0.1),
}


@pytest.mark.parametrize("cell", list(CELLS))
def test_the_trust_region_generalizes_like_sgd_where_adam_does_not(cell):
    # a trust-region cell that errs here is a failed claim of the paper's,
    # to be reported as one, not a test to retune
    make, error, loss_ratio = CELLS[cell]
    for seed in SEEDS:
        x, y = separable_task(seed)
        opt = make(x.shape[1])
        first = 0.5 * np.mean(y**2)  # the loss at w = 0
        for _ in range(STEPS):
            opt.step(x.T @ (x @ opt.mean - y) / N_POINTS)
        final = 0.5 * np.mean((x @ opt.mean - y) ** 2)
        assert population_error(opt.mean) == error, (seed, opt.mean[:3])
        assert final < loss_ratio * first, (seed, final / first)
