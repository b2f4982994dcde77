"""Configuration files, results CSV, and baseband IQ capture files.

A capture is a pair of files: ``<path>`` holds interleaved I/Q samples as
32-bit little-endian IEEE-754 floats, and ``<path>.json`` is a sidecar with
everything needed to replay the measurements through the recovery pipeline
(sampling plan, quantizer, dither as a seed or explicit values, radar ramp
parameters).  Quantized payloads are snapped back onto the exact float64
quantization grid on read, so consistency checks against re-quantized
estimates remain exact after the float32 round trip.

The sidecar is encoded by one ``json.dumps`` call (the C encoder) and
written in one call; explicit dither values go in and out of it as
interleaved float64 arrays viewed as complex128, with no per-element Python
loop, so every bit of each value, the sign of a zero included, survives the
round trip.

:func:`parse_config` checks a config file's JSON shape and types only; the
values are checked where the evaluation types are built, which is the one
config validation boundary (see :mod:`qcsradar.evaluation`).
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import logging
import math
import os
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .evaluation import AggregateResult, ExperimentConfig, sort_key
from .quantization import Dither, QuantizerConfig, draw_dither
from .signal_model import RadarParams, SamplingPlan, make_sampling_plan

__all__ = [
    "CAPTURE_SCHEMA_VERSION",
    "CAPTURE_MAX_BITS",
    "Capture",
    "check_capture_bit_depth",
    "check_output_path",
    "parse_config",
    "config_to_json",
    "write_results",
    "write_capture",
    "read_capture",
]

logger = logging.getLogger(__name__)

CAPTURE_SCHEMA_VERSION = 1

# Max deviation (in steps) from the grid, beyond a part's float32 rounding
# (up to 2**-24 of its magnitude), that reading still snaps; anything larger
# is genuinely off-grid data from a foreign/scaled ADC.
_GRID_SNAP_TOL = 1e-3

# A float32 part keeps 24 significant bits: b for the cell of a b-bit value,
# one for its half step and one to keep the rounding (at most 2**(b-25)
# steps) within a quarter step, so every part snaps back to its own cell.
CAPTURE_MAX_BITS = 22

# The JSON spellings of an unquantized bit depth.
_UNQUANTIZED = (None, "unquantized")

RESULTS_HEADER = (
    "K,b,log2_bitrate,M,dithered,algorithm,trials,mean_tpr_pct,stderr_pct,mean_l2_error"
)


def _config_error(message: str) -> ValueError:
    return ValueError(f"config: {message}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def parse_config(path) -> ExperimentConfig:
    """Load and validate an experiment configuration, filling defaults."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise _config_error(f"no such file: {path}") from None
    except json.JSONDecodeError as exc:
        raise _config_error(f"invalid JSON in {path}: {exc}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise _config_error(f"cannot read {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise _config_error("top level must be a JSON object")
    unknown = set(raw) - {field.name for field in dataclasses.fields(ExperimentConfig)}
    if unknown:
        raise _config_error(f"unknown field(s): {', '.join(sorted(unknown))}")

    # JSON shapes and types only: ExperimentConfig checks the values.
    fields = dict(raw)
    if "bit_depths" in fields:
        depths = fields["bit_depths"]
        if not isinstance(depths, list) or not all(_is_int(b) or b in _UNQUANTIZED for b in depths):
            raise _config_error(f'bit_depths entries must be integers or "unquantized", got {depths!r}')
        fields["bit_depths"] = tuple(None if b in _UNQUANTIZED else b for b in depths)
    for key in ("sparsities", "bitrates"):
        if key in fields and not (isinstance(fields[key], list) and all(map(_is_int, fields[key]))):
            raise _config_error(f"{key} must be a list of integers")
    for key in ("n_bins", "trials", "master_seed"):
        if key in fields and not _is_int(fields[key]):
            raise _config_error(f"{key} must be an integer")
    for key in ("mu", "consistency_target"):
        if key in fields and (isinstance(fields[key], bool) or not isinstance(fields[key], (int, float))):
            raise _config_error(f"{key} must be a number")
    if fields.get("max_iters") is not None and not _is_int(fields["max_iters"]):
        raise _config_error("max_iters must be an integer or null")
    if "dithered" in fields and not isinstance(fields["dithered"], bool):
        raise _config_error(f"dithered must be a boolean, got {fields['dithered']!r}")
    try:
        return ExperimentConfig(**fields)
    except (ValueError, TypeError, OverflowError) as exc:
        raise _config_error(str(exc)) from None


def config_to_json(config: ExperimentConfig) -> dict:
    """Dump a configuration to its JSON form (round-trips through parse)."""
    fields = {key: list(v) if isinstance(v, tuple) else v for key, v in dataclasses.asdict(config).items()}
    fields["bit_depths"] = ["unquantized" if b is None else b for b in config.bit_depths]
    return fields


def _format_result_row(result: AggregateResult) -> str:
    point = result.point
    return ",".join(
        [
            str(point.sparsity),
            point.depth_label,
            f"{math.log2(point.bitrate):g}",
            str(point.n_meas),
            "true" if point.effective_dithered else "false",
            point.algorithm,
            str(result.trials),
            f"{result.mean_tpr_pct:.6f}",
            f"{result.stderr_pct:.6f}",
            f"{result.mean_l2_error:.9e}",
        ]
    )


def check_output_path(path, what: str) -> None:
    """Reject, before any work, an output path that is a directory or whose directory is missing or read-only.

    The error has the form of the writer's own ``io:`` error, which stays
    for a directory that goes away in between.
    """
    directory = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        reason = "it is a directory"
    elif not os.path.isdir(directory):
        reason = f"no such directory: {directory!r}"
    elif not os.access(directory, os.W_OK | os.X_OK) or (os.path.exists(path) and not os.access(path, os.W_OK)):
        reason = "permission denied"
    else:
        return
    raise OSError(f"io: cannot write {what} to {path}: {reason}")


def write_results(results, path) -> None:
    """Write aggregates as CSV, sorted into the mandated deterministic order."""
    results = list(results)
    if not results:
        raise ValueError("io: refusing to write an empty results file")
    rows = sorted(results, key=lambda r: sort_key(r.point))
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(RESULTS_HEADER + "\n")
            for result in rows:
                fh.write(_format_result_row(result) + "\n")
    except OSError as exc:
        raise OSError(f"io: cannot write results to {path}: {exc}") from None


@dataclass(frozen=True, eq=False)
class Capture:
    """A replayable acquisition: plan, quantizer, dither, samples, radar."""

    plan: SamplingPlan
    quantizer: QuantizerConfig
    dither: Optional[Dither]
    samples: np.ndarray
    radar: RadarParams


def check_capture_bit_depth(bit_depth: Optional[int]) -> None:
    """Reject a bit depth whose grid a float32 payload cannot hold; None passes."""
    if bit_depth is not None and bit_depth > CAPTURE_MAX_BITS:
        raise ValueError(f"bit depth {bit_depth} is finer than a float32 capture holds (at most {CAPTURE_MAX_BITS})")


def _sidecar_path(path) -> str:
    return f"{path}.json"


def write_capture(path, capture: Capture, *, store_dither_values: bool = False) -> str:
    """Write payload and sidecar; returns the sidecar path.

    The dither is stored as its seed plus step by default (regenerable);
    ``store_dither_values`` embeds the explicit values instead, for rigs
    where the physical dither was recorded rather than synthesized.
    """
    plan = capture.plan
    samples = np.asarray(capture.samples, dtype=np.complex128)
    if samples.shape != (plan.n_meas,):
        raise ValueError(f"capture: sample count {samples.shape} does not match n_meas={plan.n_meas}")
    try:
        check_capture_bit_depth(capture.quantizer.bit_depth)
    except ValueError as exc:
        raise _capture_error(str(exc)) from None

    dither_field = None
    if capture.dither is not None:
        if store_dither_values or capture.dither.seed is None:
            dither_field = {"values": capture.dither.values.view(np.float64).reshape(-1, 2).tolist()}
        else:
            dither_field = {
                "seed": capture.dither.seed,
                "delta": capture.quantizer.step,
            }

    sidecar = {
        "schema_version": CAPTURE_SCHEMA_VERSION,
        "n_bins": plan.n_bins,
        "n_meas": plan.n_meas,
        "plan_seed": plan.seed,
        "omega": plan.omega.tolist(),
        "bit_depth": "unquantized" if capture.quantizer.bit_depth is None else capture.quantizer.bit_depth,
        "dynamic_range": capture.quantizer.dynamic_range,
        "dither": dither_field,
        "radar": {
            "f0": capture.radar.f0,
            "bandwidth": capture.radar.bandwidth,
            "ramp_duration": capture.radar.ramp_duration,
            "n_bins": capture.radar.n_bins,
        },
    }
    # json.dump would stream through the pure-Python encoder, one write per token.
    text = json.dumps(sidecar, sort_keys=True) + "\n"
    try:
        with open(path, "wb") as fh:
            fh.write(samples.astype("<c8").tobytes())
        with open(_sidecar_path(path), "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"capture: cannot write {path}: {exc}") from None
    return _sidecar_path(path)


def _capture_error(message: str) -> ValueError:
    return ValueError(f"capture: {message}")


def _snap_to_grid(samples: np.ndarray, step: float, path) -> np.ndarray:
    half = 0.5 * step
    re_cells = (samples.real - half) / step
    im_cells = (samples.imag - half) / step
    deviation = max(
        float(np.max(np.abs(cells - np.round(cells)) - np.abs(part) * 2.0**-24 / step))
        for part, cells in ((samples.real, re_cells), (samples.imag, im_cells))
    )
    if deviation > _GRID_SNAP_TOL:
        logger.warning(
            "capture %s: samples are off the quantization grid "
            "(max deviation %.3g steps beyond float32 rounding); leaving them as stored",
            path,
            deviation,
        )
        return samples
    return (np.round(re_cells) * step + half) + 1j * (np.round(im_cells) * step + half)


def _field(mapping: dict, key: str, kind: type, where: str = "sidecar"):
    """A required JSON integer (``kind=int``) or finite number, as a float (``kind=float``)."""
    if key not in mapping:
        raise _capture_error(f"{where} is missing field {key!r}")
    value = mapping[key]
    ok = isinstance(value, (int, kind)) and not isinstance(value, bool)
    if ok and kind is float:
        # Comparing first keeps a huge JSON integer from overflowing float().
        value = float(value) if abs(value) <= sys.float_info.max else math.inf
        ok = math.isfinite(value)
    if not ok:
        expected = "an integer" if kind is int else "a finite number"
        raise _capture_error(f"{where} field {key!r} must be {expected}, got {value!r}")
    return value


def _dither_values(pairs, n_meas: int) -> np.ndarray:
    """Stored ``[[re, im], ...]`` dither values as complex128, bit for bit.

    The pairs are flattened in C and converted in one call, which is faster
    than numpy's own discovery of a nested list.  A JSON null decodes to
    NaN, which the finite check rejects; strings and ragged or misshapen
    lists are rejected here.  Viewing the interleaved values as complex
    keeps the sign of every zero, which ``re + 1j*im`` would not.
    """
    try:
        paired = isinstance(pairs, list) and len(pairs) == n_meas and set(map(len, pairs)) == {2}
    except TypeError:  # an entry without a length
        paired = False
    flat = np.asarray(list(itertools.chain.from_iterable(pairs))) if paired else None
    if flat is None or flat.dtype.kind not in "iufO":
        raise ValueError(f"dither values must be {n_meas} [re, im] number pairs")
    return np.ascontiguousarray(flat, dtype=np.float64).view(np.complex128)


def read_capture(path) -> Capture:
    """Load a capture; regenerates the dither when stored as a seed.

    The capture validation boundary: an unreadable or malformed sidecar or
    payload, or a bit depth finer than a float32 payload holds, raises
    ``ValueError("capture: ...")`` here, before any recovery can run.
    """
    sidecar_path = _sidecar_path(path)
    try:
        with open(sidecar_path, "r", encoding="utf-8") as fh:
            sidecar = json.load(fh)
    except FileNotFoundError:
        raise _capture_error(f"missing sidecar {sidecar_path}") from None
    except json.JSONDecodeError as exc:
        raise _capture_error(f"invalid sidecar JSON in {sidecar_path}: {exc}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise _capture_error(f"cannot read sidecar {sidecar_path}: {exc}") from None
    try:
        with open(path, "rb") as fh:
            payload = fh.read()
    except FileNotFoundError:
        raise _capture_error(f"missing payload {path}") from None
    except OSError as exc:
        raise _capture_error(f"cannot read payload {path}: {exc}") from None

    if not isinstance(sidecar, dict):
        raise _capture_error("sidecar must be a JSON object")
    version = sidecar.get("schema_version")
    if version != CAPTURE_SCHEMA_VERSION:
        raise _capture_error(f"unknown schema version {version!r}")
    n_bins = _field(sidecar, "n_bins", int)
    n_meas = _field(sidecar, "n_meas", int)
    if "bit_depth" in sidecar and sidecar["bit_depth"] in _UNQUANTIZED:
        bit_depth = None
    else:
        bit_depth = _field(sidecar, "bit_depth", int)
    dynamic_range = _field(sidecar, "dynamic_range", float)
    radar_raw = sidecar.get("radar")
    if not isinstance(radar_raw, dict):
        raise _capture_error(f"sidecar field 'radar' must be an object, got {radar_raw!r}")
    radar_fields = {key: _field(radar_raw, key, float, "radar") for key in ("f0", "bandwidth", "ramp_duration")}
    radar_fields["n_bins"] = _field(radar_raw, "n_bins", int, "radar")
    if "omega" not in sidecar and "plan_seed" not in sidecar:
        raise _capture_error("sidecar must carry either omega or plan_seed")
    plan_seed = _field(sidecar, "plan_seed", int) if "plan_seed" in sidecar else 0
    dither_field = sidecar.get("dither")
    dither_seed = delta = None
    if dither_field is not None:
        if bit_depth is None:
            raise _capture_error("unquantized capture cannot carry a dither")
        if not isinstance(dither_field, dict) or not ("values" in dither_field or "seed" in dither_field):
            raise _capture_error("dither field must carry either seed or values")
        if "values" not in dither_field:
            dither_seed = _field(dither_field, "seed", int, "dither")
            delta = _field(dither_field, "delta", float, "dither") if "delta" in dither_field else None

    # The fields are type-checked; the constructors check their ranges.
    try:
        check_capture_bit_depth(bit_depth)
        if "omega" in sidecar:
            omega = np.asarray(sidecar["omega"], dtype=np.int64)
            plan = SamplingPlan(n_bins=n_bins, n_meas=n_meas, omega=omega, seed=plan_seed)
        else:
            plan = make_sampling_plan(n_bins, n_meas, plan_seed)
        quantizer = QuantizerConfig(bit_depth=bit_depth, dynamic_range=dynamic_range)
        radar = RadarParams(**radar_fields)
        dither = None
        if dither_seed is not None:
            dither = draw_dither(quantizer, n_meas, dither_seed)
        elif dither_field is not None:
            dither = Dither(values=_dither_values(dither_field["values"], n_meas), seed=None)
    except (TypeError, ValueError, OverflowError) as exc:
        raise _capture_error(str(exc)) from None

    if delta is not None and not math.isclose(delta, quantizer.step, rel_tol=1e-9):
        raise _capture_error(f"dither delta {delta!r} inconsistent with quantizer step {quantizer.step!r}")
    if radar.n_bins != plan.n_bins:
        raise _capture_error(f"radar n_bins={radar.n_bins} differs from the plan's n_bins={plan.n_bins}")
    if len(payload) != 8 * n_meas:
        raise _capture_error(
            f"payload holds {len(payload) // 8} samples "
            f"({len(payload)} bytes), sidecar says n_meas={n_meas}"
        )
    samples = np.frombuffer(payload, dtype="<c8").astype(np.complex128)
    if not np.all(np.isfinite(samples)):
        raise _capture_error("payload holds non-finite samples")
    if dither is not None and (dither.n_meas != n_meas or not np.all(np.isfinite(dither.values))):
        raise _capture_error(f"dither must hold {n_meas} finite values")
    if quantizer.quantized:
        samples = _snap_to_grid(samples, quantizer.step, path)
    return Capture(plan=plan, quantizer=quantizer, dither=dither, samples=samples, radar=radar)
