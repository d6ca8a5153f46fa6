"""Correctness checks applied to every execution's records.

Every record must keep its trace within 1e-10 of 1 and its probabilities at
or above -1e-12. Records must also match a reference within an absolute
1e-9 on every distribution and summary scalar: an independent pure-state
oracle for unmeasured workloads, stored records for measured ones.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

ATOL = 1e-9
TRACE_TOL = 1e-10
PROB_FLOOR = -1e-12
FIELDS = (
    "time_display",
    "position_dist",
    "momentum_dist",
    "purity",
    "expected_momentum_signed",
    "momentum_variance",
    "negative_momentum_fraction",
    "region_masses",
)
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def stack_records(records) -> dict[str, np.ndarray]:
    """One array per record field, the record index first."""
    return {f: np.array([np.asarray(getattr(r, f), dtype=float) for r in records]) for f in FIELDS}


def _invariant_errors(got: dict[str, np.ndarray]) -> list[str]:
    errors = []
    for field in ("position_dist", "momentum_dist"):
        dist = got[field]
        drift = float(np.max(np.abs(dist.sum(axis=1) - 1.0)))
        if drift > TRACE_TOL:
            errors.append(f"{field} trace drifts by {drift:.3e}")
        if float(dist.min()) < PROB_FLOOR:
            errors.append(f"{field} has probability {dist.min():.3e}")
    if got["region_masses"].size and float(got["region_masses"].min()) < PROB_FLOOR:
        errors.append(f"region mass {got['region_masses'].min():.3e}")
    return errors


def _deviation_errors(got: dict[str, np.ndarray], want: dict[str, np.ndarray]) -> list[str]:
    errors = []
    for field in FIELDS:
        if got[field].shape != want[field].shape:
            errors.append(f"{field} has shape {got[field].shape}, expected {want[field].shape}")
            continue
        if got[field].size == 0:
            continue
        worst = float(np.max(np.abs(got[field] - want[field])))
        if not worst <= ATOL:
            errors.append(f"{field} deviates by {worst:.3e}")
    return errors


def oracle_records(params: dict) -> dict[str, np.ndarray]:
    """Pure-state records of an unmeasured Gaussian packet.

    psi(t) = ifft(exp(-i E(k) t) * fft(psi0)) with E(k) = min(k, N-k)^2 / 2;
    display times are natural times times 1000.
    """
    n = params["n_sites"]
    state = params["state"]
    sites = np.arange(n)
    d = np.abs(sites - state["center"])
    d = np.minimum(d, n - d)
    psi0 = np.exp(-(d**2) / state["width"] ** 2 + 2j * np.pi * state["momentum_index"] * sites / n)
    psi0 /= np.linalg.norm(psi0)
    k = np.arange(n)
    energy = np.minimum(k, n - k) ** 2 / 2.0
    signed = np.where(k <= n // 2, k, k - n)
    amp0 = np.fft.fft(psi0)
    p_k = np.abs(amp0) ** 2 / n
    mean = float(signed @ p_k)
    times = np.asarray(params["record_times"], dtype=float)
    positions = np.array([np.abs(np.fft.ifft(np.exp(-1j * energy * t / 1000.0) * amp0)) ** 2 for t in times])
    count = times.size
    return {
        "time_display": times,
        "position_dist": positions,
        "momentum_dist": np.tile(p_k, (count, 1)),
        "purity": np.ones(count),
        "expected_momentum_signed": np.full(count, mean),
        "momentum_variance": np.full(count, float(((signed - mean) ** 2) @ p_k)),
        "negative_momentum_fraction": np.full(count, float(p_k[signed < 0].sum())),
        "region_masses": np.zeros((count, 0)),
    }


def reference_path(name: str) -> Path:
    return REFERENCE_DIR / f"{name}.npz"


def expected_records(name: str, params: dict) -> dict[str, np.ndarray]:
    if params["measurement"]["kind"] == "none":
        return oracle_records(params)
    with np.load(reference_path(name), allow_pickle=False) as stored:
        return {field: stored[field] for field in FIELDS}


def check_records(name: str, params: dict, records) -> list[str]:
    """Every way the records break an invariant or miss the reference."""
    got = stack_records(records)
    return _invariant_errors(got) + _deviation_errors(got, expected_records(name, params))
