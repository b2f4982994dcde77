"""Property test of the CLI error contract over drawn argv and configs.

Every call of ``gen-capture``, ``recover`` or ``ambiguity`` must end one of
two ways: exit 0 with one JSON object on stdout, or exit 1 with exactly one
``error: <kind>: <reason>`` line on stderr, with no exception escaping
``cli.main``.  Values mix valid ones with zero, negative, out-of-range,
non-finite and huge ones, and with strings their argparse types cannot
parse; required options are sometimes left out.  Valid sizes stay small (M
and N at most 512, at most 8 dither seeds) so that the test runs in seconds.
Bad sizes include 2^40 and 2^70, which parse but which no array can hold;
no size is drawn that the machine could actually allocate.

``simulate`` is fuzzed through its config file instead: one or two fields
of a small valid config are swapped for values of the wrong JSON type or
range, and every run must either write a CSV or print one error line.
``recover`` is also fuzzed through its capture: fields of the sidecar are
swapped or dropped, the measurement count or the ``omega`` entries changed
consistently across sidecar and payload, and the payload bytes overwritten
or spliced, and every run must either print one report, with no NaN or
infinity in it, or one error line.
"""

import contextlib
import copy
import io
import json
import math
import re
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcsradar.cli import main
from qcsradar.io import RESULTS_HEADER

ERROR_LINE = re.compile(r"error: [a-z]+: [^\n]+\n")
HUGE = 2**70
# Sizes that parse but that no array can hold.
UNALLOCATABLE = [2**40, HUGE]
BAD_FLOATS = [0.0, -1.0, math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324]
# Strings that neither int() nor float() parses.
UNPARSEABLE = ["abc", "", "0x10", "1,5", "--"]

FUZZ = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def ints(low, high, bad):
    """A valid integer drawn from [low, high] and a bad one drawn from ``bad`` or unparseable."""
    return st.tuples(st.integers(low, high), st.sampled_from(bad + UNPARSEABLE + ["1e3", "1.5"]))


def floats(low, high, bad=()):
    return st.tuples(st.floats(low, high), st.sampled_from(BAD_FLOATS + list(bad) + UNPARSEABLE))


def omitted(*required):
    """None, or one or more, of the required options to leave out of argv."""
    return st.one_of(st.just(set()), st.sets(st.sampled_from(required), min_size=1))


def argv_options(**pairs):
    """Options with valid values, none or one or two of them swapped for edge or bad ones."""
    broken = st.one_of(st.just(set()), st.sets(st.sampled_from(sorted(pairs)), min_size=1, max_size=2))
    return st.tuples(st.fixed_dictionaries(pairs), broken).map(
        lambda drawn: {name: pair[name in drawn[1]] for name, pair in drawn[0].items()}
    )


SIZES = ints(1, 512, [0, -1, -HUGE, *UNALLOCATABLE])
SPARSITY = ints(1, 8, [0, -1, 300, HUGE])
SEED = ints(0, 2**64, [-1, -HUGE, HUGE])
BITS = st.tuples(
    st.sampled_from(["1", "2", "3", "32", "unquantized"]),
    st.sampled_from(["0", "-1", "33", "40", str(HUGE), "1.5", "none", "nan"]),
)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def check_contract(command, options, *flags, omit=()):
    # --name=value keeps argparse from reading "-inf" or "-1e+308" as an option.
    pairs = [(name, value) for name, value in options.items() if name not in omit]
    argv = [command, *(f"--{name.replace('_', '-')}={value}" for name, value in pairs), *flags]
    code, out, err = run(argv)
    if code == 0:
        assert out.count("\n") == 1 and isinstance(json.loads(out, parse_constant=reject_constant), dict), argv
    else:
        assert code == 1 and out == "", argv
        assert ERROR_LINE.fullmatch(err), (argv, err)


def reject_constant(name):
    raise AssertionError(f"the report holds {name}, which is not JSON")


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def capture(work_dir):
    path = work_dir / "scene.iq"
    assert run(["gen-capture", "--out", str(path), "--n", "64", "--meas", "256", "--seed", "5"])[0] == 0
    return str(path)


def test_gen_capture(work_dir):
    @FUZZ
    @given(
        options=argv_options(
            n=ints(8, 512, [0, -1, -HUGE, *UNALLOCATABLE]), meas=SIZES, bits=BITS, sparsity=SPARSITY, seed=SEED,
            f0=floats(1.0, 1e11), bandwidth=floats(1.0, 1e9), ramp_duration=floats(1e-6, 1.0),
        ),
        dithered=st.sampled_from(["--dithered", "--no-dithered"]),
        store=st.booleans(),
        omit=omitted("out"),
    )
    def check(options, dithered, store, omit):
        flags = [dithered] + (["--store-dither-values"] if store else [])
        check_contract("gen-capture", dict(options, out=work_dir / "gen.iq"), *flags, omit=omit)

    check()


def test_recover(capture):
    @FUZZ
    @given(
        options=argv_options(
            sparsity=ints(1, 8, [0, -1, 65, HUGE]), mu=floats(1e-3, 4.0),
            target=floats(0.01, 1.0, [7.0]), max_iters=ints(1, 200, [0, -1, -HUGE]),
        ),
        algo=st.sampled_from(["pbp", "qiht"]),
        omit=omitted("capture", "sparsity"),
    )
    def check(options, algo, omit):
        check_contract("recover", dict(options, capture=capture, algo=algo), omit=omit)

    check()


def test_ambiguity():
    @FUZZ
    @given(
        options=argv_options(
            n=ints(64, 512, [0, 1, -1, -HUGE, *UNALLOCATABLE]), n0=ints(1, 64, [0, -1, HUGE]), n1=ints(1, 64, [0, -1, HUGE]),
            psi0=floats(-3.14, 3.14, [math.pi]), psi1=floats(-3.14, 3.14, [math.pi]),
            gamma=floats(0.01, 0.99, [1.0, 2.0]), meas=SIZES, seeds=ints(1, 8, [0, -1, -HUGE]),
            bits=ints(1, 3, [0, -1, 33, HUGE]), seed=SEED,
        )
    )
    def check(options):
        check_contract("ambiguity", options)

    check()


# Bit-rates stay at most 2^9 so that every valid config runs in milliseconds.
CONFIG = {
    "n_bins": 64, "sparsities": [2], "bit_depths": [1, 3], "bitrates": [96, 192], "dithered": True,
    "algorithm": "pbp", "trials": 2, "master_seed": 7, "mu": 1.0, "consistency_target": 0.95, "max_iters": 30,
}
BAD_JSON = [True, False, None, "x", "unquantized", {}, math.nan, math.inf, -math.inf, 0, -1, 1.5, 2**40, HUGE]
FIELD_VALUES = st.one_of(
    st.sampled_from(BAD_JSON),
    st.sampled_from(BAD_JSON).map(lambda value: [value]),
    st.sampled_from(BAD_JSON).map(lambda value: [2, value]),
    st.just([]),
)


def configs():
    """CONFIG, with one or two fields swapped, an unknown field added, or a non-object top level."""
    # QIHT never stops early on overflowing iterates, so its budget is not swapped.
    mutable = {"pbp": sorted(CONFIG), "qiht": sorted(set(CONFIG) - {"max_iters"})}
    swapped = st.sampled_from(["pbp", "qiht"]).flatmap(
        lambda algorithm: st.dictionaries(
            st.sampled_from(mutable[algorithm]), FIELD_VALUES, min_size=1, max_size=2
        ).map(lambda fields: {**CONFIG, "algorithm": algorithm, **fields})
    )
    unknown = st.sampled_from(["sparsity", "bit_depth", "seed", ""]).map(lambda key: {**CONFIG, key: 1})
    return st.one_of(swapped, unknown, st.sampled_from(BAD_JSON + [[CONFIG]]))


def test_simulate_config(work_dir):
    config_path, out = work_dir / "config.json", work_dir / "results.csv"

    # Each run takes milliseconds, so more examples reach the rarer mutations.
    @settings(FUZZ, max_examples=300)
    @given(config=configs())
    def check(config):
        config_path.write_text(json.dumps(config))
        out.unlink(missing_ok=True)
        argv = ["simulate", "--config", str(config_path), "--out", str(out), "--trials", "1", "--workers", "1"]
        code, stdout, err = run(argv)
        if code == 0:
            assert out.read_text().startswith(RESULTS_HEADER + "\n"), config
        else:
            assert code == 1 and stdout == "" and not out.exists(), config
            assert ERROR_LINE.fullmatch(err), (config, err)

    check()


# Sidecar fields, nested ones dotted; DROP removes a field instead of swapping it.
SIDECAR_FIELDS = [
    "schema_version", "n_bins", "n_meas", "plan_seed", "omega", "bit_depth", "dynamic_range", "dither", "radar",
    "dither.seed", "dither.delta", "dither.values", "radar.f0", "radar.bandwidth", "radar.ramp_duration", "radar.n_bins",
]
DROP = object()
NEAR_VALID = [1, 2, 22, 23, 32, 63, 64, 65, 255, 256, 2**64 - 1, 2**64, 1e-320, 1e300, 0.5, [[0.0, 0.0]]]
SIDECAR_VALUES = st.one_of(FIELD_VALUES, st.sampled_from(NEAR_VALID + [DROP]))
# Little-endian float32 parts: NaN, infinities, the largest finite value, the smallest subnormal, -0.
SPECIAL_PARTS = [struct.pack("<f", v) for v in (math.nan, math.inf, -math.inf, 3.4028235e38, 1e-45, -0.0)]
PAYLOAD_EDITS = st.tuples(
    st.sampled_from(["overwrite", "splice"]),
    st.integers(0, 8 * 256),
    st.one_of(st.binary(max_size=16), st.sampled_from(SPECIAL_PARTS)),
)


# Mutations one field swap cannot make: the measurement count changed in n_meas,
# omega, stored dither values and payload together (0 included), or omega
# entries (all, or the one at an index) turned into floats or bools.
RESIZE = st.tuples(st.just("resize"), st.sampled_from([0, 1, 63, 64, 65, 255, 257, 300]))
OMEGA_ENTRY = {"half": lambda x: x + 0.5, "float": float, "odd": lambda x: x % 2 == 1, "true": lambda x: True}
OMEGA_EDITS = st.tuples(st.sampled_from(sorted(OMEGA_ENTRY)), st.one_of(st.none(), st.integers(0, 255)))
COORDINATED = st.one_of(st.none(), RESIZE, OMEGA_EDITS)


def coordinate(sidecar: dict, payload: bytes, mutation) -> bytes:
    """Apply a COORDINATED mutation to a valid sidecar, in place, and return the payload to go with it."""
    if mutation is None:
        return payload
    kind, arg = mutation
    if kind == "resize":

        def cycled(seq):
            return [seq[i % len(seq)] for i in range(arg)]

        sidecar["n_meas"] = arg
        sidecar["omega"] = cycled(sidecar["omega"])
        if "values" in sidecar["dither"]:
            sidecar["dither"]["values"] = cycled(sidecar["dither"]["values"])
        return b"".join(cycled([payload[i : i + 8] for i in range(0, len(payload), 8)]))
    omega = sidecar["omega"]
    for i in range(len(omega)) if arg is None else [arg % len(omega)]:
        omega[i] = OMEGA_ENTRY[kind](omega[i])
    return payload


def mutate_sidecar(sidecar: dict, field: str, value) -> None:
    *parents, key = field.split(".")
    for parent in parents:
        sidecar = sidecar.get(parent) if isinstance(sidecar, dict) else None
    if isinstance(sidecar, dict):
        if value is DROP:
            sidecar.pop(key, None)
        else:
            # A copy: the drawn values are shared between examples, and a swap into one would change them.
            sidecar[key] = copy.deepcopy(value)


def edit_payload(payload: bytes, edit) -> bytes:
    mode, start, data = edit
    return payload[:start] + data + payload[start + (len(data) if mode == "overwrite" else 0) :]


@pytest.fixture(scope="module")
def stored_capture(work_dir):
    path = work_dir / "stored.iq"
    argv = ["gen-capture", "--out", str(path), "--n", "64", "--meas", "256", "--seed", "6", "--store-dither-values"]
    assert run(argv)[0] == 0
    return str(path)


@pytest.mark.filterwarnings("error::RuntimeWarning")  # a warning would print a second line
def test_recover_mutated_capture(work_dir, capture, stored_capture):
    sources = {name: (Path(name).read_bytes(), Path(f"{name}.json").read_text()) for name in (capture, stored_capture)}
    path = work_dir / "mutated.iq"

    @settings(FUZZ, max_examples=240)
    @given(
        source=st.sampled_from(sorted(sources)),
        coordinated=COORDINATED,
        fields=st.dictionaries(st.sampled_from(SIDECAR_FIELDS), SIDECAR_VALUES, max_size=2),
        edit=st.one_of(st.none(), PAYLOAD_EDITS),
        algo=st.sampled_from(["pbp", "qiht"]),
    )
    def check(source, coordinated, fields, edit, algo):
        payload, text = sources[source]
        sidecar = json.loads(text)
        payload = coordinate(sidecar, payload, coordinated)
        for field, value in fields.items():
            mutate_sidecar(sidecar, field, value)
        path.write_bytes(payload if edit is None else edit_payload(payload, edit))
        (work_dir / "mutated.iq.json").write_text(json.dumps(sidecar))
        check_contract("recover", {"capture": path, "sparsity": 2, "algo": algo})

    check()
