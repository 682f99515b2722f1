"""Artifact codec: the CSV tables round-trip generated rows and footers, and
every loader turns damaged input into ValidationError, never into another
exception.

The damage is drawn by hypothesis: a few bytes (or characters) overwritten
and an optional truncation, applied to a small but real artifact of each
kind.  Runs are derandomized and bounded so the file stays fast.
"""

import io
import json
import re

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from carleman_lab.artifacts import load_archive, save_archive, write_table_csv
from carleman_lab.cli import (
    CARLEMAN_CSV_HEADER,
    load_config,
    load_reconstruction,
    load_table_csv,
    main,
)
from carleman_lab.errors import ValidationError
from carleman_lab.geometry import CylinderGeometry, GammaSide
from carleman_lab.problems import load_instance, make_instance, save_instance
from carleman_lab.reconstruct import SweepReport, SweepRow, load_sweep_csv, write_sweep_csv
from carleman_lab.weight import load_plan_record, plan_parameters, plan_report

# no shrink phase: a failing damage example is short already, and shrinking
# one through the zip layer takes minutes
FUZZ = settings(
    max_examples=60, deadline=None, derandomize=True, database=None,
    phases=(Phase.explicit, Phase.generate),
)
# no shrink phase either: a failing round trip took minutes to report
ROUND_TRIP = settings(
    max_examples=40, deadline=None, derandomize=True, database=None,
    phases=(Phase.explicit, Phase.generate),
)

TINY = CylinderGeometry(
    d_lo=0.0, d_hi=1.0, ell=1.0, delta=1.0,
    gamma_side=GammaSide.HI, nx_prime=9, nx_n=7, nt=9,
)

finite = st.floats(allow_nan=False, allow_infinity=False)
footer_keys = st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=12)
footer_values = st.text("abcdefghijklmnopqrstuvwxyz0123456789._-:=", max_size=20)


def corruption(size: int, alphabet):
    """Overwrite one to three positions of a ``size``-long input, maybe truncate it."""
    edits = st.lists(
        st.tuples(st.integers(0, size - 1), alphabet), min_size=1, max_size=3
    )
    return st.tuples(edits, st.none() | st.integers(0, size))


def damage(data, edits, cut):
    for pos, item in edits:
        data = data[:pos] + item + data[pos + 1 :]
    return data if cut is None else data[:cut]


def loads_or_rejects(load, *args):
    """The property: a loader returns or raises ValidationError, nothing else."""
    try:
        load(*args)
    except ValidationError:
        pass


byte = st.binary(min_size=1, max_size=1)
CHARS = list("0123456789.,=-+e \nx\x00é")
char = st.sampled_from(CHARS)


# ---- table and sweep CSV ------------------------------------------------------------


@ROUND_TRIP
@given(
    # numpy 2 reprs a numpy float as np.float64(...), which no loader reads
    rows=st.lists(st.tuples(*[finite | finite.map(np.float64)] * 6), max_size=5),
    footer=st.dictionaries(footer_keys, footer_values, max_size=4),
)
def test_table_csv_round_trips(rows, footer):
    buf = io.StringIO()
    write_table_csv(buf, CARLEMAN_CSV_HEADER, rows, footer)
    buf.seek(0)
    assert load_table_csv(buf, CARLEMAN_CSV_HEADER) == (rows, footer)


@ROUND_TRIP
@given(
    rows=st.lists(st.builds(SweepRow, finite, finite, finite, finite), max_size=6),
    theta=finite,
    footer=st.dictionaries(footer_keys.filter(lambda k: k != "theta_emp"), footer_values),
)
def test_sweep_csv_round_trips(rows, theta, footer):
    buf = io.StringIO()
    write_sweep_csv(SweepReport(tuple(rows), theta, None, None), buf, footer=footer)
    buf.seek(0)
    back, back_footer = load_sweep_csv(buf)
    assert back == rows
    assert back_footer == {"theta_emp": theta, **footer}


TABLE = (
    CARLEMAN_CSV_HEADER + "\n0,2.0,0.125,3.5e-07,11.0,-0.0\n1,5.0,1e+300,2.0,4.0,0.5\n"
    "c_emp=0.5\nconfig_hash=abc\n"
)
SWEEP = (
    "noise,D_u,err_region,err_global\n0.1,2.0,0.125,0.25\n0.0,1e-09,3.5e-07,4e-07\n"
    "theta_emp=0.75\nseed=0\n"
)


@FUZZ
@given(corruption(len(TABLE.encode()), byte))
def test_damaged_table_csv_loads_or_is_rejected(spec):
    data = damage(TABLE.encode(), *spec)
    stream = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    loads_or_rejects(load_table_csv, stream, CARLEMAN_CSV_HEADER)


@FUZZ
@given(corruption(len(SWEEP), char))
def test_damaged_sweep_csv_loads_or_is_rejected(spec):
    loads_or_rejects(load_sweep_csv, io.StringIO(damage(SWEEP, *spec)))


@pytest.mark.parametrize(
    "footer",
    [{"note": "x,y"}, {"note": "x\ny"}, {"note": "x\ry"}, {"a,b": "1"}, {"a=b": "1"}],
)
def test_footer_that_would_not_read_back_is_refused(footer):
    buf = io.StringIO()
    with pytest.raises(ValidationError, match="would not read back"):
        write_table_csv(buf, CARLEMAN_CSV_HEADER, [(0, 2.0, 0.5, 0.25, 1.0, 0.5)], footer)
    assert buf.getvalue() == ""


def test_bad_cells_and_bad_theta_are_rejected():
    with pytest.raises(ValidationError, match="not a number"):
        load_table_csv(io.StringIO(TABLE.replace("0.125", "0.1x5")), CARLEMAN_CSV_HEADER)
    with pytest.raises(ValidationError, match="theta_emp"):
        load_sweep_csv(io.StringIO(SWEEP.replace("theta_emp=0.75", "theta_emp=oops")))


@pytest.mark.parametrize(
    "text, message",
    [
        # each of these loaded: the last c_emp won, '=x' became the key '',
        # and the late row joined the table
        (TABLE + "c_emp=9.0\n", "line 'c_emp=9.0' repeats the key 'c_emp'"),
        (TABLE + "=x\n", "line '=x' has no key"),
        (TABLE + "2,3.0,0.5,0.25,1.0,0.5\n", "row '2,3.0,0.5,0.25,1.0,0.5' comes after the footer"),
    ],
    ids=["repeated_key", "empty_key", "row_after_footer"],
)
def test_table_csv_refuses_a_bad_footer(text, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        load_table_csv(io.StringIO(text), CARLEMAN_CSV_HEADER)


# ---- archives -----------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_instance(quartic_recipe):
    return make_instance(TINY, quartic_recipe)


@pytest.fixture(scope="module")
def archive_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("archives")


@pytest.fixture(scope="module")
def instance_bytes(tiny_instance, archive_dir):
    path = archive_dir / "instance.npz"
    save_instance(tiny_instance, path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def reconstruction_bytes(archive_dir):
    path = archive_dir / "reconstruction.npz"
    rng = np.random.default_rng(3)
    arrays = {"f_hat": rng.standard_normal((9, 9)), "u_hat": rng.standard_normal((9, 7, 9))}
    save_archive(path, arrays, {"err_region": 0.5, "iterations": 2})
    return path.read_bytes()


def damaged_archive(data, draw, path):
    path.write_bytes(damage(data, *draw(corruption(len(data), byte))))
    return path


@FUZZ
@given(data=st.data())
def test_damaged_instance_archive_loads_or_is_rejected(instance_bytes, archive_dir, data):
    path = damaged_archive(instance_bytes, data.draw, archive_dir / "damaged_instance.npz")
    loads_or_rejects(load_instance, path)


@FUZZ
@given(data=st.data())
def test_damaged_reconstruction_archive_loads_or_is_rejected(
    reconstruction_bytes, archive_dir, data
):
    path = damaged_archive(reconstruction_bytes, data.draw, archive_dir / "damaged_rec.npz")
    loads_or_rejects(load_reconstruction, path)


def test_archive_loaders_reject_a_file_that_is_not_a_zip(tmp_path):
    path = tmp_path / "text.npz"
    path.write_text("plain text, not an archive\n")
    with pytest.raises(ValidationError, match="not an instance archive"):
        load_instance(path)
    with pytest.raises(ValidationError, match="not a reconstruction archive"):
        load_reconstruction(path)


def test_instance_meta_without_geometry_is_rejected(tiny_instance, tmp_path):
    path = tmp_path / "nogeo.npz"
    save_archive(path, {"u": tiny_instance.u.values}, {"provenance": {}})
    with pytest.raises(ValidationError, match="not an instance archive"):
        load_instance(path)


def test_archive_is_written_at_exactly_the_given_path(tmp_path):
    path = tmp_path / "x.bin"
    save_archive(path, {"f_hat": np.arange(3.0)}, {"iterations": 1})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.bin"]
    arrays, meta = load_archive(path, "an archive", lambda arrays, meta: (arrays, meta))
    assert np.array_equal(arrays["f_hat"], np.arange(3.0))
    assert meta == {"iterations": 1}


def test_a_missing_archive_stays_an_os_error(tmp_path):
    with pytest.raises(OSError):
        load_archive(tmp_path / "absent.npz", "an archive", lambda arrays, meta: meta)


# ---- plan record and config ---------------------------------------------------------


@pytest.fixture(scope="module")
def plan_text():
    return plan_report(plan_parameters(TINY, (0.5, 1.0), delta0=0.5, lam=1.0, margin=1.1))


@settings(FUZZ, max_examples=150)  # enough to hit the three integer lines
@given(data=st.data())
def test_damaged_plan_record_loads_or_is_rejected(plan_text, data):
    # one value replaced by junk, then a few characters overwritten
    lines = plan_text.splitlines()
    i = data.draw(st.integers(0, len(lines) - 1))
    key, sep, _ = lines[i].partition(" = ")
    lines[i] = key + sep + data.draw(st.text("".join(CHARS), max_size=6))
    text = "\n".join(lines)
    loads_or_rejects(load_plan_record, damage(text, *data.draw(corruption(len(text), char))))


@pytest.mark.parametrize(
    "line, junk",
    [("nx_prime = 9", "nx_prime = x"), ("include_far_face = True", "include_far_face = Ture")],
)
def test_plan_record_rejects_a_malformed_count_or_flag(plan_text, line, junk):
    with pytest.raises(ValidationError, match="malformed plan report line"):
        load_plan_record(plan_text.replace(line, junk))


def test_plan_record_refuses_a_report_cut_short(plan_text):
    # a report cut before alpha loaded as 17 keys
    cut = plan_text[: plan_text.index("alpha = ")]
    with pytest.raises(ValidationError, match="plan report lacks the key 'alpha'"):
        load_plan_record(cut)


def test_plan_record_refuses_a_repeated_key(plan_text):
    # the second line won
    with pytest.raises(ValidationError, match="plan report repeats the key 'beta'"):
        load_plan_record(plan_text + "beta = 2.0\n")


@pytest.mark.parametrize("key, junk", [("beta", "x{}"), ("lam", "1.0.0")])
def test_plan_record_rejects_a_malformed_float(plan_text, key, junk):
    # these loaded as the strings 'x1.0004...' and '1.0.0'
    lines = plan_text.splitlines()
    i = next(i for i, ln in enumerate(lines) if ln.startswith(f"{key} = "))
    lines[i] = f"{key} = {junk.format(lines[i].partition(' = ')[2])}"
    with pytest.raises(ValidationError, match=f"plan report value {key} is not a number"):
        load_plan_record("\n".join(lines))


CONFIG = {
    "output_dir": "out",
    "geometry": {
        "d_lo": 0.0, "d_hi": 1.0, "ell": 1.0, "delta": 1.0,
        "gamma_side": "HI", "nx_prime": 9, "nx_n": 7, "nt": 9,
    },
    "weight": {"D0": [0.5, 1.0], "delta0": 0.5},
    "solver": {"mu": 1e-6},
}


@pytest.fixture(scope="module")
def config_path(archive_dir):
    path = archive_dir / "config.json"
    path.write_text(json.dumps(CONFIG))
    return path


@FUZZ
@given(data=st.data())
def test_damaged_config_loads_or_is_rejected(config_path, archive_dir, data):
    text = config_path.read_bytes()
    spec = data.draw(corruption(len(text), byte))
    path = archive_dir / "damaged_config.json"
    path.write_bytes(damage(text, *spec))
    loads_or_rejects(load_config, path)


def test_a_config_that_is_not_utf8_exits_1_with_an_error_line(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(json.dumps(CONFIG).replace('"out"', '"été"').encode("latin-1"))
    assert main(["--config", str(path), "--command", "plan", "--quiet"]) == 1
    assert capsys.readouterr().err.startswith("error: config is not UTF-8 text")
