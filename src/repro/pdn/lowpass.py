"""The PDN's first-order low-pass, as one in-tree recurrence.

The PDN surrogate filters load currents with the single-pole low-pass

``y[k] = (1 - p) * x[k] + p * y[k-1]``,  ``p = exp(-dt / tau)``,

i.e. the transfer function ``b = [1 - p]``, ``a = [1, -p]``.  Both the
reference filter (:meth:`repro.pdn.coupling.CouplingModel.filter_currents`)
and the fused kernel's step-response basis
(:func:`repro.kernels.basis.step_response_basis`) run it through
:func:`lowpass`.

The recurrence is written exactly as the direct-form-II-transposed
loop of ``scipy.signal.lfilter`` evaluates it for these coefficients —
``y = z + b0 * x``, then ``z = x * 0.0 - y * a1`` with ``a1 = -p`` (the
zero is the padded ``b[1]``) — so the outputs are bit-identical to
``lfilter``'s, signed zeros included, without importing ``scipy.signal``
(which costs most of a second of process start).  ``tests/test_lowpass.py``
checks the bits against scipy.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def steady_state(pole: float) -> float:
    """The unit-input steady-state filter state: the filter started in
    state ``steady_state(pole) * x0`` passes a constant ``x0`` through
    unchanged.

    This is the closed form of ``scipy.signal.lfilter_zi([1 - p], [1,
    -p])[0]`` — it solves ``(1 - p) * z = 0.0 - (-p) * (1 - p)`` — and
    evaluates the same operations in the same order.
    """
    b0 = 1.0 - pole
    return (0.0 - (-pole) * b0) / b0


def lowpass(
    x: np.ndarray, pole: float, zi: Optional[np.ndarray] = None
) -> np.ndarray:
    """Filter ``x`` along its last axis with the pole-``p`` low-pass.

    Parameters
    ----------
    x:
        Input samples, any shape ``(..., n)``; cast to float64.
    pole:
        The filter pole ``p`` in ``[0, 1)``.
    zi:
        Initial filter state, broadcastable to ``x.shape[:-1] + (1,)``
        (``lfilter``'s ``zi`` layout); zero state when omitted.

    Returns
    -------
    numpy.ndarray
        A new C-contiguous float64 array of ``x``'s shape.
    """
    x = np.asarray(x, dtype=np.float64)
    b0 = 1.0 - pole
    a1 = -pole
    # Walk the sample axis with every row filtered at once.
    xt = np.ascontiguousarray(np.moveaxis(x, -1, 0))
    yt = np.empty_like(xt)
    if zi is None:
        z = np.zeros(xt.shape[1:])
    else:
        z = np.broadcast_to(np.asarray(zi, dtype=np.float64), x.shape[:-1] + (1,))
        z = z[..., 0]
    for k in range(xt.shape[0]):
        xk = xt[k]
        yk = z + b0 * xk
        yt[k] = yk
        z = xk * 0.0 - yk * a1
    return np.ascontiguousarray(np.moveaxis(yt, 0, -1))
