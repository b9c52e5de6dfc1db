"""Helpers shared by several test modules."""

from nlroi import operator
from nlroi.rng import Prng
from nlroi.toytask import majority_count


def raw_scores(cache, group=0):
    """Group ``group``'s raw scores Phi Psi^T from the forward's own score
    stage, bit for bit: a canonical (images, n, n) stack, ordered as
    ``cache.attn[group]`` is. Divided by ``config.scale()``, they are the
    scores the softmax saw.
    """
    return operator._scores(cache.phi, cache.psi, *cache.groups[group])


def baseline_ceiling(n: int, k: int, trials: int, prng: Prng) -> float:
    """Monte-Carlo ceiling for a per-RoI predictor that knows its own latent
    class and its own majority membership.

    Majority members predict their own class and are always right; minority
    members know only that the answer is one of the other k-1 classes and
    guess uniformly among them. The closed form is m/n + (1 - m/n)/(k - 1)
    with m = ceil(0.6*n); the simulation below reproduces it without using
    that formula.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    m = majority_count(n)
    correct = 0
    for _ in range(trials):
        majority = prng.randint(k)
        slots = set(prng.sample_indices(n, m))
        for i in range(n):
            if i in slots:
                correct += 1
            else:
                r = prng.randint(k - 1)
                own = r if r < majority else r + 1
                # guess uniformly among the k-1 classes that are not our own
                guess = prng.randint(k - 1)
                guess = guess if guess < own else guess + 1
                if guess == majority:
                    correct += 1
    return correct / (trials * n)
