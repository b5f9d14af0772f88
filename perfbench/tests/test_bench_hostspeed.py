import math

import pytest

import hostspeed
import run


def test_factors_use_the_samples_around_each_request():
    ref = hostspeed.REFERENCE_S
    # one sample before each request and one after the last; the host halves
    # its speed between requests 2 and 3
    samples = [(i, ref) for i in range(3)] + [(i, 2 * ref) for i in range(3, 7)]
    assert hostspeed.factors(samples, 6) == pytest.approx([1, 1, 1 / 1.5, 0.5, 0.5, 0.5])


def test_one_disturbed_sample_does_not_move_a_factor():
    ref = hostspeed.REFERENCE_S
    samples = [(i, ref) for i in range(5)] + [(5, 50 * ref)] + [(i, ref) for i in range(6, 11)]
    assert hostspeed.factors(samples, 10) == pytest.approx([1.0] * 10)


def test_a_pass_samples_the_kernel_and_scales_its_latencies(tmp_path):
    import numpy as np
    import workloads

    rng = np.random.default_rng(0)
    batch = [workloads._request(rng, i, "orthopoly", 32, "m1", str(tmp_path)) for i in range(3)]
    done = run.run_pass([batch], deadline=math.inf)
    assert done.kernel[0][0] == 0 and done.kernel[-1][0] == done.attempted == 3
    assert len(done.scaled) == 3 and all(s > 0 for s in done.scaled)
