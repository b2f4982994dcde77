"""Configuration files, results CSV, and baseband IQ capture files.

A capture is a pair of files: ``<path>`` holds interleaved I/Q samples as
32-bit little-endian IEEE-754 floats, and ``<path>.json`` is a sidecar with
everything needed to replay the measurements through the recovery pipeline
(sampling plan, quantizer, dither as a seed or explicit values, radar ramp
parameters).  Quantized payloads are snapped back onto the exact float64
quantization grid on read, so consistency checks against re-quantized
estimates remain exact after the float32 round trip.

The sidecar is encoded by one ``json.dumps`` call and written in one call;
explicit dither values survive its round trip bit for bit, signed zeros
included (:func:`_dither_values`).

:func:`parse_config` only reads a config file, a JSON object of known
fields; each field's type and value are checked by the one config validation
boundary, where the evaluation types are built (see :mod:`qcsradar.evaluation`).
Captures have one validation boundary too: :class:`Capture` checks how its
fields fit together whenever one is built, :func:`read_capture` only decodes
the two files into one, and :func:`write_capture` only encodes one.
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
from .quantization import Dither, QuantizerConfig, decode_bit_depth, draw_dither, encode_bit_depth
from .signal_model import RadarParams, SamplingPlan, _readonly, make_sampling_plan

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

RESULTS_HEADER = (
    "K,b,log2_bitrate,M,dithered,algorithm,trials,mean_tpr_pct,stderr_pct,mean_l2_error"
)


def _config_error(message: str) -> ValueError:
    return ValueError(f"config: {message}")


def parse_config(path) -> ExperimentConfig:
    """Load an experiment configuration, filling defaults; ExperimentConfig checks each field."""
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
    try:
        return ExperimentConfig(**raw)
    except (ValueError, TypeError, OverflowError) as exc:
        raise _config_error(str(exc)) from None


def config_to_json(config: ExperimentConfig) -> dict:
    """Dump a configuration to its JSON form (round-trips through parse)."""
    fields = {key: list(v) if isinstance(v, tuple) else v for key, v in dataclasses.asdict(config).items()}
    fields["bit_depths"] = list(map(encode_bit_depth, config.bit_depths))
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
    """A replayable acquisition: plan, quantizer, dither, samples, radar.

    The capture validation boundary: one plan (1-D ``omega``), one finite
    sample per measurement, a bit depth a float32 payload holds, a dither
    only on a quantized capture with one finite value per measurement (what
    its seed draws, if seeded), and the radar's ``n_bins`` equal to the
    plan's.  A capture built in Python and one read from files meet the same
    checks with the same messages, so no capture that cannot be read back is
    ever written.  The samples are stored as a read-only complex128 copy, so
    they stay as checked.
    """

    plan: SamplingPlan
    quantizer: QuantizerConfig
    dither: Optional[Dither]
    samples: np.ndarray
    radar: RadarParams

    def __post_init__(self):
        samples, dither = _readonly(self.samples, np.complex128), self.dither
        if self.plan.omega.ndim != 1:
            raise ValueError("a capture holds one sampling plan, not a stack")
        if samples.shape != (self.plan.n_meas,):
            raise ValueError(f"sample count {samples.shape} does not match n_meas={self.plan.n_meas}")
        check_capture_bit_depth(self.quantizer.bit_depth)
        if dither is not None and not self.quantizer.quantized:
            raise ValueError("unquantized capture cannot carry a dither")
        if self.radar.n_bins != self.plan.n_bins:
            raise ValueError(f"radar n_bins={self.radar.n_bins} differs from the plan's n_bins={self.plan.n_bins}")
        if not np.isfinite(samples).all():
            raise ValueError("payload holds non-finite samples")
        if dither is not None and (dither.values.shape != samples.shape or not np.isfinite(dither.values).all()):
            raise ValueError(f"dither must hold {self.plan.n_meas} finite values")
        if dither is not None and dither.seed is not None:
            # A seeded dither is written as its seed, so its values must be what the seed draws.
            if draw_dither(self.quantizer, self.plan.n_meas, dither.seed).values.tobytes() != dither.values.tobytes():
                raise ValueError(f"dither values are not those its seed {dither.seed} draws on this quantizer")
        object.__setattr__(self, "samples", samples)


def check_capture_bit_depth(bit_depth: Optional[int]) -> None:
    """Reject a bit depth whose grid a float32 payload cannot hold; None passes."""
    if bit_depth is not None and bit_depth > CAPTURE_MAX_BITS:
        raise ValueError(f"bit depth {bit_depth} is finer than a float32 capture holds (at most {CAPTURE_MAX_BITS})")


def _sidecar_path(path) -> str:
    return f"{path}.json"


def write_capture(path, capture: Capture, *, store_dither_values: bool = False) -> str:
    """Write payload and sidecar; returns the sidecar path.

    Only encodes: the capture passed its checks when it was built.  The
    dither is stored as its seed plus step by default (regenerable);
    ``store_dither_values`` embeds the explicit values instead, for rigs
    where the physical dither was recorded rather than synthesized.
    """
    plan = capture.plan
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
        "omega": plan.omega.tolist(),
        "bit_depth": encode_bit_depth(capture.quantizer.bit_depth),
        "dynamic_range": capture.quantizer.dynamic_range,
        "dither": dither_field,
        "radar": {
            "f0": capture.radar.f0,
            "bandwidth": capture.radar.bandwidth,
            "ramp_duration": capture.radar.ramp_duration,
            "n_bins": capture.radar.n_bins,
        },
    }
    if plan.seed is not None:  # a plan drawn from no seed records none
        sidecar["plan_seed"] = plan.seed
    # json.dump would stream through the pure-Python encoder, one write per token.
    text = json.dumps(sidecar, sort_keys=True) + "\n"
    try:
        with open(path, "wb") as fh:
            fh.write(capture.samples.astype("<c8").tobytes())
        with open(_sidecar_path(path), "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"capture: cannot write {path}: {exc}") from None
    return _sidecar_path(path)


def _capture_error(message: str) -> ValueError:
    return ValueError(f"capture: {message}")


def _snap_to_grid(samples: np.ndarray, step: float) -> tuple:
    """Finite float32 samples back on the grid of ``step`` (as stored if off it), and their deviation in steps."""
    half = 0.5 * step
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below, as one error
        re_cells = (samples.real - half) / step
        im_cells = (samples.imag - half) / step
        deviation = max(
            float(np.max(np.abs(cells - np.round(cells)) - np.abs(part) * 2.0**-24 / step))
            for part, cells in ((samples.real, re_cells), (samples.imag, im_cells))
        )
    if not math.isfinite(deviation):  # finite samples, so their cell indices overflowed
        raise ValueError(f"samples overflow the quantization grid of step {step!r}")
    if deviation > _GRID_SNAP_TOL:
        return samples, deviation
    return (np.round(re_cells) * step + half) + 1j * (np.round(im_cells) * step + half), deviation


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

    Only decodes: the files, the sidecar's schema and field types, the
    payload length, the dither and the grid snap.  :class:`Capture` checks
    the rest.  Every fault raises ``ValueError("capture: ...")`` here,
    before any recovery can run.
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
    if "bit_depth" not in sidecar:
        raise _capture_error("sidecar is missing field 'bit_depth'")
    try:
        bit_depth = decode_bit_depth(sidecar["bit_depth"])
    except ValueError as exc:
        raise _capture_error(f"sidecar field 'bit_depth': {exc}") from None
    dynamic_range = _field(sidecar, "dynamic_range", float)
    radar_raw = sidecar.get("radar")
    if not isinstance(radar_raw, dict):
        raise _capture_error(f"sidecar field 'radar' must be an object, got {radar_raw!r}")
    radar_fields = {key: _field(radar_raw, key, float, "radar") for key in ("f0", "bandwidth", "ramp_duration")}
    radar_fields["n_bins"] = _field(radar_raw, "n_bins", int, "radar")
    if "omega" not in sidecar and "plan_seed" not in sidecar:
        raise _capture_error("sidecar must carry either omega or plan_seed")
    plan_seed = _field(sidecar, "plan_seed", int) if "plan_seed" in sidecar else None
    dither_field = sidecar.get("dither")
    dither_seed = delta = None
    if dither_field is not None:
        if not isinstance(dither_field, dict) or not ("values" in dither_field or "seed" in dither_field):
            raise _capture_error("dither field must carry either seed or values")
        if "values" not in dither_field:
            dither_seed = _field(dither_field, "seed", int, "dither")
            delta = _field(dither_field, "delta", float, "dither") if "delta" in dither_field else None
    # A JSON integer's type is int, a bool's is bool; set(map(type)) runs in C, 5x faster than a call per entry.
    if isinstance(sidecar.get("omega"), list) and not set(map(type, sidecar["omega"])) <= {int}:
        raise _capture_error("sidecar field 'omega' entries must be integers")

    # The fields are type-checked; the constructors check their values.
    try:
        if "omega" in sidecar:
            omega = np.asarray(sidecar["omega"], dtype=np.int64)
            plan = SamplingPlan(n_bins=n_bins, n_meas=n_meas, omega=omega, seed=plan_seed)
        else:
            plan = make_sampling_plan(n_bins, n_meas, plan_seed)
        quantizer = QuantizerConfig(bit_depth=bit_depth, dynamic_range=dynamic_range)
        radar = RadarParams(**radar_fields)
        dither = None
        if dither_seed is not None:
            # A seed draws on a quantizer's grid; without one, Capture rejects the undrawn dither.
            dither = draw_dither(quantizer, n_meas, dither_seed) if quantizer.quantized else Dither((), dither_seed)
        elif dither_field is not None:
            dither = Dither(values=_dither_values(dither_field["values"], n_meas), seed=None)
        if len(payload) != 8 * n_meas:
            raise ValueError(
                f"payload holds {len(payload) // 8} samples ({len(payload)} bytes), sidecar says n_meas={n_meas}"
            )
        with np.errstate(invalid="ignore"):  # a signaling NaN is reported by Capture, as one error
            samples = np.frombuffer(payload, dtype="<c8").astype(np.complex128)
        deviation = 0.0
        # Capture rejects non-finite samples, which have no cell; it is built once, as it redraws a seeded dither.
        if quantizer.quantized and np.isfinite(samples).all():
            samples, deviation = _snap_to_grid(samples, quantizer.step)
        capture = Capture(plan=plan, quantizer=quantizer, dither=dither, samples=samples, radar=radar)
    except (TypeError, ValueError, OverflowError) as exc:
        raise _capture_error(str(exc)) from None

    if delta is not None and not math.isclose(delta, quantizer.step, rel_tol=1e-9):
        raise _capture_error(f"dither delta {delta!r} inconsistent with quantizer step {quantizer.step!r}")
    if deviation > _GRID_SNAP_TOL:  # warned only for a capture that is not rejected
        logger.warning("capture %s: samples are off the quantization grid (max deviation %.3g steps beyond "
                       "float32 rounding); leaving them as stored", path, deviation)
    return capture
