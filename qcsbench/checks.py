"""Output checks for the benchmark, computed apart from the package.

Each check raises :class:`CheckError` on an output the method could not
have produced.  Sensing is recomputed by a direct DFT sum over the
target support (never the package's FFT path), quantization by the
mid-rise definition ``delta*floor(x/delta) + delta/2``, and captures are
parsed from their files with ``json`` and ``numpy`` alone.  Statistical
checks use the levels pinned by the acceptance suite.
"""

from __future__ import annotations

import json
import math

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0

RESULTS_HEADER = "K,b,log2_bitrate,M,dithered,algorithm,trials,mean_tpr_pct,stderr_pct,mean_l2_error"

# Acceptance levels (tests/test_acceptance.py), in TPR percent.
PBP_K2_TOP_LEVEL = (98.9, 2.0)  # dithered 1-bit PBP, K=2, B=2^13
QIHT_K10_LEVEL = (85.35, 3.0)  # dithered 1-bit QIHT, K=10, B=2^9
PBP_K10_LEVEL = (55.29, 3.0)  # dithered 1-bit PBP, K=10, B=2^9
CAPTURE_REPLAY_MIN_TPR = 95.0  # criterion 10, dithered captures

# Relative distance (in steps) from a cell boundary within which FFT and
# direct-sum rounding may disagree on the cell.
BOUNDARY_TOL = 1e-9


class CheckError(AssertionError):
    """An output failed a benchmark check."""


def require(condition, message):
    if not condition:
        raise CheckError(message)


# --- sweeps ---------------------------------------------------------------


def parse_results_csv(text):
    """Parse a results CSV into dicts; the header must be the documented one."""
    lines = text.splitlines()
    require(lines and lines[0] == RESULTS_HEADER, f"results header is {lines[:1]!r}")
    rows = []
    for line in lines[1:]:
        k, b, log2_rate, m, dithered, algorithm, trials, tpr, stderr, l2 = line.split(",")
        rows.append(
            {
                "K": int(k),
                "b": b,
                "bitrate": 2 ** int(log2_rate),
                "M": int(m),
                "dithered": dithered,
                "algorithm": algorithm,
                "trials": int(trials),
                "tpr": float(tpr),
                "stderr": float(stderr),
                "l2": float(l2),
            }
        )
    return rows


def check_sweep_rows(rows, *, sparsity, bit_depth, bitrates, dithered, algorithm, trials):
    """Every configured point appears once, in order, with its trials and M = B/b."""
    require(
        [r["bitrate"] for r in rows] == sorted(bitrates),
        f"rows cover bitrates {[r['bitrate'] for r in rows]}, expected {sorted(bitrates)}",
    )
    for r in rows:
        where = f"row B={r['bitrate']}"
        require(r["K"] == sparsity, f"{where}: K={r['K']}, expected {sparsity}")
        require(r["b"] == str(bit_depth), f"{where}: b={r['b']}, expected {bit_depth}")
        require(r["M"] * bit_depth == r["bitrate"], f"{where}: M={r['M']} is not B/b")
        require(r["dithered"] == ("true" if dithered else "false"), f"{where}: dithered={r['dithered']}")
        require(r["algorithm"] == algorithm, f"{where}: algorithm={r['algorithm']}")
        require(r["trials"] == trials, f"{where}: trials={r['trials']}, expected {trials}")
        require(0.0 <= r["tpr"] <= 100.0, f"{where}: TPR {r['tpr']} outside [0, 100]")
        require(r["stderr"] >= 0.0 and r["l2"] >= 0.0, f"{where}: negative stderr or l2 error")


def pooled_tpr(row_lists, bitrate):
    """Trial-weighted mean TPR at one bitrate over several sweeps."""
    total = trials = 0
    for rows in row_lists:
        for r in rows:
            if r["bitrate"] == bitrate:
                total += r["tpr"] * r["trials"]
                trials += r["trials"]
    require(trials > 0, f"no trials at bitrate {bitrate}")
    return total / trials


def in_band(value, level, what):
    centre, tol = level
    require(abs(value - centre) <= tol, f"{what}: TPR {value:.2f} outside {centre} +- {tol}")


def check_pbp_curve(tpr_top, tpr_mid):
    """Dithered 1-bit PBP: pinned level at 2^13 and no saturation after 2^9."""
    in_band(tpr_top, PBP_K2_TOP_LEVEL, "dithered PBP K=2 at 2^13")
    require(tpr_top > tpr_mid, f"TPR at 2^13 ({tpr_top:.2f}) does not exceed TPR at 2^9 ({tpr_mid:.2f})")


def check_qiht_point(tpr_qiht, tpr_pbp):
    """Dithered 1-bit QIHT at K=10, B=2^9: pinned level, above PBP at the same point."""
    in_band(tpr_qiht, QIHT_K10_LEVEL, "dithered QIHT K=10 at 2^9")
    in_band(tpr_pbp, PBP_K10_LEVEL, "dithered PBP K=10 at 2^9")
    require(tpr_qiht > tpr_pbp, f"QIHT TPR {tpr_qiht:.2f} not above PBP TPR {tpr_pbp:.2f}")


# --- captures -------------------------------------------------------------


def direct_forward(omega, support, amplitudes, n_bins):
    """r[j] = sum_k a_k exp(-2 pi i omega_j n_k / N), summed over the support only."""
    omega = np.asarray(omega, dtype=np.int64)
    out = np.zeros(omega.size, dtype=np.complex128)
    for n, a in zip(support, amplitudes):
        phase = (omega * int(n)) % n_bins  # exact integer phase index
        out += complex(a[0], a[1]) * np.exp(-2j * np.pi * phase / n_bins)
    return out


def read_capture_files(path):
    """Parse a capture's sidecar and float32 I/Q payload without the package."""
    with open(f"{path}.json", "r", encoding="utf-8") as fh:
        sidecar = json.load(fh)
    payload = np.fromfile(path, dtype="<c8")
    return sidecar, payload


def quantizer_step(sidecar):
    bits = sidecar["bit_depth"]
    if bits == "unquantized":
        return None
    return 2.0 ** (1 - int(bits)) * float(sidecar["dynamic_range"])


def cell_bounds(values, step):
    """Mid-rise cell of each real and imaginary part, as (low, high) pairs.

    A value within rounding distance of a cell boundary may land in either
    neighbouring cell (an undithered estimate can put a measurement exactly
    on the boundary at 0), so both candidates are kept.
    """
    tol = BOUNDARY_TOL * step
    return (
        (np.floor((values.real - tol) / step), np.floor((values.real + tol) / step)),
        (np.floor((values.imag - tol) / step), np.floor((values.imag + tol) / step)),
    )


def held_cells(payload, step):
    """Cell index of each stored real and imaginary part."""
    stored = payload.astype(np.complex128)
    return np.round((stored.real - step / 2) / step), np.round((stored.imag - step / 2) / step)


def matches(values, step, held):
    """Measurements whose cells ``values`` surely / possibly reproduce."""
    sure = possible = True
    for (low, high), cell in zip(cell_bounds(values, step), held):
        sure = sure & (low == cell) & (high == cell)
        possible = possible & ((low == cell) | (high == cell))
    return sure, possible


def grid_values(held, step):
    return (held[0] * step + step / 2) + 1j * (held[1] * step + step / 2)


def check_generated(truth, sidecar, payload, read_samples, dither_values):
    """The capture holds the programmed scene's measurements, exactly on the grid.

    ``truth`` is the gen-capture report, ``read_samples`` what the package's
    reader returns, ``dither_values`` the dither as stored or regenerated.
    """
    n_bins, n_meas = sidecar["n_bins"], sidecar["n_meas"]
    require(len(sidecar["omega"]) == n_meas and payload.size == n_meas, "capture length mismatch")
    support = truth["support_indices"]
    require(support == sorted(set(support)), f"support {support} is not sorted and distinct")
    require(
        truth["support_bins"] == [i if i else n_bins for i in support],
        f"support bins {truth['support_bins']} do not match indices {support}",
    )
    peak = max(math.hypot(re, im) for re, im in truth["amplitudes"])
    require(abs(peak - 1.0) <= 1e-12, f"largest programmed amplitude is {peak}, expected 1")

    raw = direct_forward(sidecar["omega"], support, truth["amplitudes"], n_bins)
    step = quantizer_step(sidecar)
    if step is None:
        scale = float(np.max(np.abs(raw)))
        require(
            np.max(np.abs(payload - raw)) <= 1e-6 * scale,
            "unquantized payload differs from the direct DFT of the programmed scene",
        )
        require(np.array_equal(read_samples, payload.astype(np.complex128)), "reader altered an unquantized payload")
        return
    if dither_values is not None:
        require(
            np.all(np.abs(dither_values.real) <= step / 2) and np.all(np.abs(dither_values.imag) <= step / 2),
            "dither exceeds half a quantization step",
        )
        raw = raw + dither_values
    held = held_cells(payload, step)
    expected = grid_values(held, step)
    require(np.array_equal(payload, expected.astype(np.complex64)), "payload is not on the quantization grid")
    _, possible = matches(raw, step, held)
    require(
        bool(np.all(possible)),
        f"{np.count_nonzero(~possible)} payload cells differ from the quantized direct DFT of the programmed scene",
    )
    require(np.array_equal(read_samples, expected), "samples read back are not exactly on the quantization grid")


def check_recovered(report, sidecar, payload, dither_values, *, algorithm, sparsity):
    """The recover report is self-consistent with the capture it replayed."""
    n_bins = sidecar["n_bins"]
    support = report["support_indices"]
    require(support == sorted(set(support)), f"support {support} is not sorted and distinct")
    require(len(support) <= sparsity and len(report["amplitudes"]) == len(support), "support size mismatch")
    require(all(0 <= i < n_bins for i in support), f"support {support} outside [0, {n_bins})")
    bins = [i if i else n_bins for i in support]
    require(report["support_bins"] == bins, f"support bins {report['support_bins']} do not match {support}")
    resolution = SPEED_OF_LIGHT / (2.0 * float(sidecar["radar"]["bandwidth"]))
    require(
        len(report["ranges_m"]) == len(bins)
        and all(math.isclose(r, b * resolution, rel_tol=1e-12) for r, b in zip(report["ranges_m"], bins)),
        f"ranges {report['ranges_m']} are not bin * c/(2B) for bins {bins}",
    )
    if algorithm == "pbp":
        require(report["iterations"] == 0 and report["stop_reason"] is None, "PBP reports iterations")
    else:
        require(report["stop_reason"] in ("budget", "consistency_target", "consistency_drop"), "bad stop reason")

    step = quantizer_step(sidecar)
    if step is None:
        require(
            report["final_consistency"] is None if algorithm == "pbp" else 0.0 <= report["final_consistency"] <= 1.0,
            f"unquantized final consistency {report['final_consistency']!r}",
        )
        return
    estimate = direct_forward(sidecar["omega"], support, report["amplitudes"], n_bins)
    if dither_values is not None:
        estimate = estimate + dither_values
    sure, possible = matches(estimate, step, held_cells(payload, step))
    reproduced = report["final_consistency"] * payload.size
    require(
        reproduced == round(reproduced) and np.count_nonzero(sure) <= reproduced <= np.count_nonzero(possible),
        f"final consistency {report['final_consistency']!r} is not what a direct re-acquisition gives "
        f"({np.count_nonzero(sure)} to {np.count_nonzero(possible)} of {payload.size})",
    )


def support_hits(truth, report):
    return len(set(truth["support_indices"]) & set(report["support_indices"]))


def check_capture_tpr(hits, targets):
    tpr = 100.0 * hits / targets
    require(
        tpr >= CAPTURE_REPLAY_MIN_TPR,
        f"dithered captures recover {tpr:.2f}% of programmed targets, below {CAPTURE_REPLAY_MIN_TPR}%",
    )


# --- ambiguity ------------------------------------------------------------


def unit_target_margin(n_bins, n_meas, bin_base, phase_base):
    """Quadrant margin of a unit target when every ramp is sampled in full.

    With M a multiple of N the plan observes each frequency index, so the
    margin is min over w of min(|cos|, |sin|) of -psi0 - 2 pi w n0 / N.
    """
    require(n_meas % n_bins == 0, "margin oracle needs whole ramps")
    w = np.arange(n_bins)
    r = np.exp(-1j * phase_base) * np.exp(-2j * np.pi * ((w * bin_base) % n_bins) / n_bins)
    return float(np.min(np.minimum(np.abs(r.real), np.abs(r.imag))))


def check_ambiguity(report, *, n_bins, n_meas, bin_base, phase_base, gamma, n_seeds):
    margin = unit_target_margin(n_bins, n_meas, bin_base, phase_base)
    require(abs(report["margin"] - margin) <= 1e-9, f"margin {report['margin']} but direct value {margin}")
    require(report["condition_holds"] == (margin > gamma), "condition_holds disagrees with margin > gamma")
    if margin > gamma:
        require(report["undithered_AC"] is True, "margin exceeds gamma but undithered_AC is not true")
    require(report["n_seeds"] == n_seeds, f"n_seeds {report['n_seeds']}, expected {n_seeds}")
    require(0.0 <= report["dithered_AC_rate"] <= 1.0, f"dithered_AC_rate {report['dithered_AC_rate']}")


# --- faults ---------------------------------------------------------------


def rejected_cleanly(code, stderr_text, exc):
    """The CLI contract for bad input: nonzero exit, one ``error: capture:`` line."""
    lines = stderr_text.strip().splitlines()
    return (
        exc is None
        and code not in (0, None)
        and len(lines) == 1
        and lines[0].startswith("error: capture: ")
    )
