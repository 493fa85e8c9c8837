"""The scalar Metropolis kernel that the sampler's tests compare against.

run_chain's latent phase is this step applied to every latent at once;
tests/test_sampler.py checks each latent's proposal and log ratio against
it, and acceptance 1 checks it against a conjugate posterior.
"""

import math
from typing import Callable

import numpy as np


def mh_step_scalar(
    current: float,
    log_target: Callable[[float], float],
    delta: float,
    rng: np.random.Generator,
) -> tuple[float, bool, float]:
    """One uniform-window random-walk step against an arbitrary scalar log target.

    Consumes exactly two uniforms: proposal then accept test. Returns
    (new value, accepted, log acceptance ratio). The step accepts when
    log u_acc < log ratio, with log 0 = -inf: since log u_acc < 0, a log
    ratio >= 0 always accepts, and a log_target of -inf at the proposal
    always rejects.
    """
    u_prop = rng.random()
    u_acc = rng.random()
    proposal = current + delta * (2.0 * u_prop - 1.0)
    log_r = log_target(proposal) - log_target(current)
    log_u = math.log(u_acc) if u_acc else -math.inf
    if log_u < log_r:
        return proposal, True, log_r
    return current, False, log_r
