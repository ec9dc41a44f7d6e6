"""Property tests for kernel invariants: leapfrog reversibility and the random
draws each transition of each KERNELS row makes."""
import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from hessmc.linalg import factorize
from hessmc.samplers import KERNELS, PhaseState, SamplerConfig, hmap_mass, run_chain
from support import field_2x2, fuzz, round_trip

FUZZ = fuzz(60)

UNIT = st.floats(-1.0, 1.0)
VECTOR = st.lists(UNIT, min_size=4, max_size=4).map(np.array)


TARGET = field_2x2()
MAP = TARGET.map_point()


@pytest.mark.parametrize("mass", ["scaled_identity", "map_hessian"])
@FUZZ
@given(z=VECTOR, w=VECTOR, dt=st.floats(1e-3, 0.5), steps=st.integers(1, 20))
def test_leapfrog_reversible(mass, z, w, dt, steps):
    # negating the end momentum retraces the trajectory to its start; the
    # identity is scaled to the Hessian's eigenvalues (130 to 224 at the MAP)
    if mass == "scaled_identity":
        mass = factorize(200.0 * np.eye(4))
    else:
        mass = hmap_mass(TARGET, 1e-6)[0]
    start = PhaseState(MAP * np.exp(0.3 * z), mass.lower_factor @ (2.0 * w))
    end, back = round_trip(start, TARGET, mass, dt, steps)
    # an abandoned trajectory, out of the domain, has no reverse
    assume(np.isfinite(TARGET.potential(end.position)))
    scale = 1.0 + np.abs(end.momentum).max() + np.abs(start.momentum).max()
    assert np.abs(back.position - start.position).max() < 1e-9 * scale
    assert np.abs(-back.momentum - start.momentum).max() < 1e-9 * scale


@pytest.mark.parametrize("method", list(KERNELS))
@FUZZ
@given(z=VECTOR, dt=st.floats(1e-4, 0.5), seed=st.integers(0, 2**32 - 1))
def test_one_normal_draw_and_at_most_one_uniform(method, z, dt, seed):
    # a transition draws one proposal or momentum vector, then one uniform for
    # the accept test, which it skips only when it accepts outright
    spec = KERNELS[method].default(TARGET, 1e-6, 1.0)
    cfg = SamplerConfig(method=method, dt=dt, leapfrog_steps=3, n_samples=1)
    rng = np.random.default_rng(seed)
    rec = run_chain(TARGET, spec, cfg, MAP * np.exp(0.3 * z), rng)
    ref = np.random.default_rng(seed)
    ref.standard_normal(4)
    without_uniform = ref.bit_generator.state
    ref.uniform()
    assert rng.bit_generator.state in (without_uniform, ref.bit_generator.state)
    assert rng.bit_generator.state == ref.bit_generator.state or rec.accept_flags[0]
