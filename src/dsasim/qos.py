"""SINR, the QoS predicate and minimal powers of one co-channel group, given
as the per-link arrays of :func:`link_arrays`.

The per-link quality measure is the effective bit-energy-to-noise ratio

    mu_i = (W_i / R) * g_ss[i][i] * P_i / (sum_{j != i} g_ss[i][j] * P_j + N_i)

where ``W_i / R`` is the processing gain: the link bandwidth over the data
rate every session requests (exactly 1 for an access scheme without
spreading, whose link bandwidth equals the requested rate).  A link's QoS
holds when ``mu_i >= gamma_i``; each primary receiving point ``j``
additionally requires ``sum_i g_ps[j][i] * P_i <= T_j``.

With ``F[i][j] = gamma_i * g_ss[i][j] / ((W_i / R) * g_ss[i][i])`` for
``j != i`` (zero on the diagonal) and ``u_i = gamma_i * N_i / ((W_i / R) *
g_ss[i][i])``, the targets hold with equality exactly when ``(I - F) P = u``.
Since ``F >= 0`` and ``u > 0``, that system has a positive solution exactly
when the spectral radius of ``F`` is below one, and that solution is then the
component-wise minimal power vector meeting every target (Foschini and
Miljanic 1993; Zander 1992).  So one linear solve decides feasibility.

A solve that meets the targets with equality lands on either side of them by
rounding, so every target is first raised by the relative margin
``QOS_MARGIN`` (:func:`coupling_scale`).  The solved powers then pass the
exact comparison of :func:`qos_met` and sit just above the minimal ones.

Each admission makes that solve for its grown group, in pure Python, by
Gaussian elimination without pivoting; :func:`group_powers` makes it alone.
``I - F`` is a Z-matrix (off-diagonal entries <= 0), and a Z-matrix is a
nonsingular M-matrix, so ``rho(F) < 1``, exactly when every pivot of that elimination
is positive (Berman and Plemmons, *Nonnegative Matrices in the Mathematical
Sciences*).  The off-diagonal, right-hand-side and back-substitution
updates all add terms of one sign, so only the pivots can lose accuracy.
The elimination of an ``n``-link group is straight-line code generated
from ``n`` alone (:func:`elimination_lines`): every entry of ``[I - F |
u]`` is a local name, with no list or loop, so a solve costs its
arithmetic.  :func:`_kernel` wraps those lines into the function that
:func:`group_powers` calls, and ``dsasim.engine`` into the whole admission
of a grown group.  Their float operations, and their order, are fixed:
they are those of the loop over rows that ``tests/oracles.py`` keeps as
``loop_group_powers``, so the powers are bit for bit that loop's.  Each
size is compiled once per process and cached for its life;
:func:`group_powers` gives the compile cost.

A BER target is another unit of the SINR target, converted once, when the
config is parsed.  A BPSK link's bit error rate at SINR ``gamma`` is
``Q(sqrt(2 * gamma))``, a QPSK link's ``Q(sqrt(gamma))``, with ``Q(x) =
erfc(x / sqrt(2)) / 2``.  So a BER target ``b`` needs ``x = -Phi^-1(b)``,
``Phi`` the standard normal CDF: BPSK ``gamma = x**2 / 2`` and QPSK twice
that, both raised by ``QOS_MARGIN`` so that the BER at the returned SINR is
at most ``b``, not above by rounding.
"""
from __future__ import annotations

import functools
from collections.abc import Callable, Sequence
from enum import Enum
from statistics import NormalDist

import numpy as np

from .topology import SecondaryLink

# Relative margin on the SINR targets, so that solved powers pass qos_met.
# Over 29,822 admissions (8 x 10 channels, 32 links, reuse, 32 seeds) the
# check failed 23,380 times at 0, 8 times at 1e-15 and never at 1e-14..1e-12.
# BER-derived targets carry it too: at 0, 30,526 of 40,000 BERs in
# [1e-300, 0.4] read above their target at the returned SINR; at 1e-14, none.
QOS_MARGIN = 1e-12


class Modulation(Enum):
    """The modulations whose BER curve :func:`sinr_target_from_ber` inverts."""

    BPSK = "BPSK"
    QPSK = "QPSK"


def link_arrays(
    links: Sequence[SecondaryLink], requested_rate: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-link noise, processing gain, SINR target and power cap arrays.
    The processing gain is each link's bandwidth over ``requested_rate``,
    every session's data rate.
    """
    noise = np.array([link.noise for link in links])
    gain = np.array([link.bandwidth for link in links]) / requested_rate
    sinr_target = np.array([link.sinr_target for link in links])
    power_max = np.array([link.power_max for link in links])
    return noise, gain, sinr_target, power_max


def link_sinr(
    g_ss: np.ndarray, noise: np.ndarray, processing_gain: np.ndarray, powers: np.ndarray
) -> np.ndarray:
    """Per-link SINR (the ``mu_i`` above) of one co-channel group."""
    # off-diagonal interference: sum_j!=i g_ss[i][j] * P_j
    interference = g_ss @ powers - np.diag(g_ss) * powers
    denominator = interference + noise
    if np.any(denominator == 0.0):
        bad = int(np.argmin(denominator))
        raise ZeroDivisionError(f"zero noise-plus-interference at link {bad}")
    return processing_gain * np.diag(g_ss) * powers / denominator


def qos_met(sinr: np.ndarray, sinr_target: np.ndarray) -> np.ndarray:
    """Per-link boolean: mu_i >= gamma_i, exact comparison (boundary passes)."""
    return sinr >= sinr_target


def coupling_scale(
    g_ss: np.ndarray, processing_gain: np.ndarray, sinr_target: np.ndarray
) -> np.ndarray:
    """Per-link ``gamma_i * (1 + QOS_MARGIN) / ((W_i / R) * g_ss[i][i])``: the
    factor that turns row ``i`` of ``g_ss`` into row ``i`` of ``F`` (off the
    diagonal) and the noise ``N_i`` into ``u_i``, targets raised by
    :data:`QOS_MARGIN`.
    """
    return sinr_target * (1.0 + QOS_MARGIN) / (processing_gain * np.diag(g_ss))


def group_powers(
    ids: Sequence[int], scale: Sequence[float], u: Sequence[float], g_ss: Sequence[float]
) -> list[float] | None:
    """Minimal powers of the co-channel group of links ``ids``, in that
    order, or None at the first pivot that is not positive when ``[I - F |
    u]`` is eliminated without pivoting (module docstring).  ``scale`` and
    ``u`` are every link's :func:`coupling_scale` and ``scale * noise``, and
    ``g_ss`` the whole gain matrix, flat and row-major, so ``F[i][j] =
    scale[i] * g_ss[i * len(scale) + j]``.

    The solve is the straight-line kernel for ``len(ids)`` links
    (:func:`_kernel`), compiled on a process's first group of that size and
    cached for the process's life; the engine compiles its admission of a
    grown group (``dsasim.engine._admission``) around the same lines.  Their
    cost (2-vCPU host, Python 3.11; CPU time, and ``tracemalloc`` peak and
    retained memory of the compile):

    ===================  =======  =======  =======  ==========
    links                8        16       32       64
    kernel compile       5 ms     32 ms    0.17 s   0.9-1.2 s
    admission compile    8 ms     38 ms    0.18 s   0.9-1.5 s
    kernel peak          0.9 MiB  5.0 MiB  35 MiB   261 MiB
    admission peak       1.1 MiB  6.1 MiB  35 MiB   262 MiB
    kernel kept          19 KiB   92 KiB   0.6 MiB  4.8 MiB
    admission kept       22 KiB   100 KiB  0.6 MiB  4.8 MiB
    ===================  =======  =======  =======  ==========

    An 8-link solve then takes about 10 us, where the loop over rows took
    94 us; an 8-link admission, solve included, about 12 us.  A group has
    at most one link per provider under channel reuse, and one link
    without it, so a process compiles at most the sizes from 1 to its
    largest provider count.
    """
    return _kernel(len(ids))(ids, scale, u, g_ss)


@functools.cache
def _kernel(n: int) -> Callable[..., list[float] | None]:
    """The elimination of :func:`group_powers` for ``n`` links as one
    straight-line function, generated from ``n`` alone
    (:func:`elimination_lines`), that unpacks ``ids`` first and returns the
    powers as a list."""
    lines = ["def kernel(ids, scale, u, g):"]
    if n:
        lines.append("    " + "".join(f"i{r}, " for r in range(n)) + "= ids")
    lines += elimination_lines(n, "None")
    lines.append("    return [" + ", ".join(f"x{k}" for k in range(n)) + "]")
    namespace: dict = {}
    exec(compile("\n".join(lines), f"<qos._kernel({n})>", "exec"), namespace)
    return namespace["kernel"]


def elimination_lines(n: int, blocked: str) -> list[str]:
    """The body lines that solve ``[I - F | u]`` for ``n`` links whose ids
    are the locals ``i0 .. i{n-1}``, reading ``scale``, ``u`` and the flat
    gains ``g``: entry ``(r, c)`` is the local ``a{r}_{c}`` (column ``n`` is
    ``u``), row ``k`` past its pivot, divided by it, is ``t{k}_{c}`` and
    power ``k`` is ``x{k}``.  They return the expression ``blocked`` at the
    first pivot that is not positive.

    The float operations are the loop's, in its order (module docstring).
    Row ``r`` is ``f * g[b + j]`` for ``f = -scale[i]`` and ``b = i *
    len(scale)``, ``1.0`` on the diagonal and ``u[i]`` last.  Step ``k``
    returns if ``not a{k}_{k} > 0.0``, divides the rest of the pivot row by
    the pivot and updates every later entry to ``a - lead * t``.  Back
    substitution subtracts each ``t * x`` from the right-hand side, left to
    right.
    """
    lines = ["    s = len(scale)"]
    for r in range(n):
        lines.append(f"    f = -scale[i{r}]; b = i{r} * s")
        lines += [f"    a{r}_{c} = f * g[b + i{c}]" if c != r else f"    a{r}_{c} = 1.0"
                  for c in range(n)]
        lines.append(f"    a{r}_{n} = u[i{r}]")
    for k in range(n):
        lines.append(f"    if not a{k}_{k} > 0.0: return {blocked}")
        lines += [f"    t{k}_{c} = a{k}_{c} / a{k}_{k}" for c in range(k + 1, n + 1)]
        lines += [f"    a{r}_{c} = a{r}_{c} - a{r}_{k} * t{k}_{c}"
                  for r in range(k + 1, n) for c in range(k + 1, n + 1)]
    for k in reversed(range(n)):
        terms = "".join(f" - t{k}_{c} * x{c}" for c in range(k + 1, n))
        lines.append(f"    x{k} = t{k}_{n}{terms}")
    return lines


def sinr_target_from_ber(modulation: Modulation, target_ber: float) -> float:
    """Invert the BER curve: the SINR, raised by :data:`QOS_MARGIN`, at which
    the BER is at most the target.  BPSK needs ``Phi^-1(ber) ** 2 / 2`` and
    QPSK twice that; see the module docstring.
    """
    if not (0.0 < target_ber < 0.5):
        raise ValueError(f"target_ber must be in (0, 0.5), got {target_ber}")
    gamma = NormalDist().inv_cdf(target_ber) ** 2 / 2.0 * (1.0 + QOS_MARGIN)
    return gamma if modulation is Modulation.BPSK else 2.0 * gamma  # QPSK
