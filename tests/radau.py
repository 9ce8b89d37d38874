"""Radau on the dense mode matrix: the independent oracle for the kinetic flow.

The library propagates a mode block by block in its sector coordinates, by
eigen-expansion or by the block exponential.  This integrator sees neither:
it runs scipy's stiff Radau on the dense complex mode matrix, real-stacked
to 2 dim unknowns, so the tests can check both paths against it.
"""

import numpy as np
import scipy.integrate

ODE_RTOL = 1e-10
ODE_ATOL = 1e-12


def ode_states(mode, f0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """The (T, dim) states of df/dt = eps^-2 B f from f0 at each time."""
    a = mode.matrix / mode.eps ** 2
    n = a.shape[0]
    big = np.block([[a.real, -a.imag], [a.imag, a.real]])
    f0 = np.asarray(f0, dtype=complex)
    times = np.asarray(times, dtype=float)
    out = np.empty((times.size, n), dtype=complex)
    base = 1 if times[0] == 0.0 else 0
    out[:base] = f0
    if times.size > base:
        sol = scipy.integrate.solve_ivp(
            lambda t, y: big @ y, (0.0, float(times[-1])), np.concatenate([f0.real, f0.imag]),
            t_eval=times[base:], method="Radau", jac=lambda t, y: big, rtol=ODE_RTOL,
            atol=ODE_ATOL)
        assert sol.success, sol.message
        out[base:] = (sol.y[:n] + 1j * sol.y[n:]).T
    return out
