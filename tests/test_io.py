"""File formats: PGM, raw tensors, sphere CSVs, summary grids."""

import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uhwt.errors import (
    BadMagicError,
    DimensionMismatchError,
    InvalidDatasetError,
    NonFiniteDataError,
    TruncatedPayloadError,
    UhwtError,
    UnknownSignalError,
)
from uhwt.io import (
    load_grid,
    load_lonlat_csv,
    load_pgm,
    load_sphere_csv,
    load_summary_grid,
    load_tensor,
    save_pgm,
    save_sphere_csv,
    save_summary_grid,
    save_tensor,
)


class TestPgm:
    def test_ascii_example(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_text("P2\n2 2\n255\n0 255\n255 0\n")
        img = load_pgm(path)
        np.testing.assert_allclose(img, [[0.0, 1.0], [1.0, 0.0]])
        ds = load_grid(path)
        np.testing.assert_allclose(np.sort(ds.responses), [0.0, 0.0, 1.0, 1.0])

    def test_binary_round_trip_values(self, tmp_path):
        path = tmp_path / "img5.pgm"
        payload = b"P5\n3 2\n255\n" + bytes([0, 128, 255, 10, 20, 30])
        path.write_bytes(payload)
        img = load_pgm(path)
        assert img.shape == (2, 3)
        assert img[0, 2] == pytest.approx(1.0)

    def test_sixteen_bit(self, tmp_path):
        path = tmp_path / "img16.pgm"
        path.write_bytes(b"P5\n1 2\n65535\n" + (1000).to_bytes(2, "big") + (65535).to_bytes(2, "big"))
        img = load_pgm(path)
        np.testing.assert_allclose(img.ravel(), [1000 / 65535, 1.0])

    def test_comment_and_save_round_trip(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_text("P2\n# a comment\n2 1\n10\n3 7\n")
        img = load_pgm(path)
        out = tmp_path / "copy.pgm"
        save_pgm(out, img, maxval=10)
        np.testing.assert_allclose(load_pgm(out), img)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_text("P7\n1 1\n255\n0\n")
        with pytest.raises(BadMagicError):
            load_pgm(path)

    @pytest.mark.parametrize("data", [b"P2x 2 1 255\n\x00\x01", b"P5#c\n1 1\n255\n\x00", b"P2"])
    def test_magic_is_the_whole_first_token(self, tmp_path, data):
        path = tmp_path / "bad.pgm"
        path.write_bytes(data)
        with pytest.raises(BadMagicError):
            load_pgm(path)
        with pytest.raises(BadMagicError):
            load_grid(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_text("P2\n4 4\n255\n0 1 2\n")
        with pytest.raises(TruncatedPayloadError):
            load_pgm(path)

    def test_maxval_cap(self, tmp_path):
        path = tmp_path / "big.pgm"
        path.write_text("P2\n1 1\n70000\n0\n")
        with pytest.raises(DimensionMismatchError):
            load_pgm(path)

    def test_non_numeric_header(self, tmp_path):
        path = tmp_path / "word.pgm"
        path.write_text("P2\nabc 2\n255\n1 2")
        with pytest.raises(DimensionMismatchError):
            load_pgm(path)

    @pytest.mark.parametrize("text", ["P2\n-2 2\n255\n1 2 3 4", "P2\n0 2\n255\n", "P5\n2 0\n255\n"])
    def test_non_positive_dimensions(self, tmp_path, text):
        path = tmp_path / "flat.pgm"
        path.write_text(text)
        with pytest.raises(DimensionMismatchError):
            load_pgm(path)

    def test_non_numeric_pixel(self, tmp_path):
        path = tmp_path / "pixel.pgm"
        path.write_text("P2\n2 1\n255\n1 x\n")
        with pytest.raises(DimensionMismatchError):
            load_pgm(path)


class TestTensor:
    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        arr = rng.normal(size=(4, 4, 4))
        path = tmp_path / "t.uhwt"
        save_tensor(path, arr)
        again = load_tensor(path)
        np.testing.assert_array_equal(arr, again)
        save_tensor(tmp_path / "t2.uhwt", again)
        assert (tmp_path / "t.uhwt").read_bytes() == (tmp_path / "t2.uhwt").read_bytes()

    def test_lattice_dataset(self, tmp_path):
        arr = np.arange(64.0).reshape(4, 4, 4)
        path = tmp_path / "t.uhwt"
        save_tensor(path, arr)
        ds = load_grid(path)
        assert ds.n == 64
        assert ds.ndim == 3
        assert ds.axis_sizes == (4, 4, 4)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(BadMagicError):
            load_tensor(path)
        with pytest.raises(BadMagicError):
            load_grid(path)

    def test_truncated_payload(self, tmp_path):
        arr = np.zeros((8, 8))
        path = tmp_path / "t.uhwt"
        save_tensor(path, arr)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(TruncatedPayloadError):
            load_tensor(path)

    def test_zero_axis(self, tmp_path):
        import struct

        path = tmp_path / "z.uhwt"
        path.write_bytes(b"UHWT" + struct.pack("<I", 2) + struct.pack("<II", 4, 0))
        with pytest.raises(DimensionMismatchError):
            load_tensor(path)


class TestSphereCsv:
    def test_round_trip_and_normalization(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("x,y,z,value\n2.0,0.0,0.0,1.5\n0.0,3.0,0.0,-0.5\n")
        ds = load_sphere_csv(path)
        np.testing.assert_allclose(np.linalg.norm(ds.locations, axis=1), 1.0)
        np.testing.assert_allclose(ds.responses, [1.5, -0.5])

    def test_single_row(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("x,y,z,value\n1,0,0,1\n")
        ds = load_sphere_csv(path)
        np.testing.assert_array_equal(ds.locations, [[1.0, 0.0, 0.0]])
        np.testing.assert_array_equal(ds.responses, [1.0])

    def test_tiny_rows_dropped(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("x,y,z,value\n1.0,0.0,0.0,1.0\n1e-9,0.0,0.0,2.0\n0.0,1.0,0.0,3.0\n")
        ds = load_sphere_csv(path)
        assert ds.n == 2

    @pytest.mark.parametrize("row", ["nan,0,1,1", "1,inf,0,1", "-inf,0,0,1"])
    def test_non_finite_coordinate_raises(self, tmp_path, row):
        path = tmp_path / "pts.csv"
        path.write_text(f"x,y,z,value\n{row}\n1,0,0,2\n")
        with pytest.raises(NonFiniteDataError):
            load_sphere_csv(path)

    def test_large_coordinates_load_as_their_direction(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("x,y,z,value\n0,6e241,0,1\n1,0,0,2\n-1e308,-1e308,0,3\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ds = load_sphere_csv(path)
        h = np.sqrt(0.5)
        np.testing.assert_array_equal(ds.locations[:2], [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        np.testing.assert_allclose(ds.locations[2], [-h, -h, 0.0], rtol=0, atol=1e-15)
        np.testing.assert_array_equal(ds.responses, [1.0, 2.0, 3.0])

    def test_save_parses_back(self, tmp_path):
        rng = np.random.default_rng(1)
        pts = rng.standard_normal((5, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        vals = rng.normal(size=5)
        path = tmp_path / "out.csv"
        save_sphere_csv(path, pts, vals)
        ds = load_sphere_csv(path)
        # the loader re-normalizes rows, which can move the last bit
        np.testing.assert_allclose(ds.locations, pts, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(ds.responses, vals)

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "xy.csv"
        path.write_text("x,y\n1,2\n")
        with pytest.raises(DimensionMismatchError, match="z, value"):
            load_sphere_csv(path)

    @pytest.mark.filterwarnings("ignore:genfromtxt. Empty input file")
    @pytest.mark.parametrize("text", ["", "x,y,z,value\n1,0,0\n0,1,0,2,5\n"])
    def test_malformed_file(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(DimensionMismatchError):
            load_sphere_csv(path)

    @pytest.mark.parametrize("text", ["x,y,z,value\n", "x,y,z,value\n1,0,0,1\n2,0,0,3\n"])
    def test_no_rows_or_duplicate_points(self, tmp_path, text):
        path = tmp_path / "dup.csv"
        path.write_text(text)
        with pytest.raises(InvalidDatasetError):
            load_sphere_csv(path)

    def test_lonlat_conversion(self, tmp_path):
        path = tmp_path / "ll.csv"
        path.write_text("lon,lat,value\n0.0,0.0,1.0\n90.0,0.0,2.0\n0.0,90.0,3.0\n")
        ds = load_lonlat_csv(path)
        np.testing.assert_allclose(ds.locations[0], [1.0, 0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(ds.locations[1], [0.0, 1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(ds.locations[2], [0.0, 0.0, 1.0], atol=1e-15)

    @pytest.mark.parametrize("lat", ["95", "-90.5", "1e300"])
    def test_lonlat_rejects_latitudes_beyond_the_poles(self, tmp_path, lat):
        path = tmp_path / "ll.csv"
        path.write_text(f"lon,lat,value\n0,{lat},1\n")
        with pytest.raises(InvalidDatasetError, match="latitude"):
            load_lonlat_csv(path)

    def test_lonlat_accepts_any_finite_longitude(self, tmp_path):
        path = tmp_path / "ll.csv"
        path.write_text("lon,lat,value\n720,-90,1\n-450,45,2\n")
        ds = load_lonlat_csv(path)
        np.testing.assert_allclose(ds.locations[0], [0.0, 0.0, -1.0], atol=1e-15)
        np.testing.assert_allclose(ds.locations[1], [0.0, -np.sqrt(0.5), np.sqrt(0.5)], atol=1e-15)


class TestSummaryGrid:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        mean, sd, width = rng.normal(size=(3, 6, 5))
        path = tmp_path / "summary.uhws"
        save_summary_grid(path, mean, sd, width, (6, 5))
        got_mean, got_sd, got_width = load_summary_grid(path)
        np.testing.assert_array_equal(got_mean, mean)
        np.testing.assert_array_equal(got_sd, sd)
        np.testing.assert_array_equal(got_width, width)

    def test_size_mismatch(self, tmp_path):
        with pytest.raises(DimensionMismatchError):
            save_summary_grid(tmp_path / "x.uhws", np.zeros(4), np.zeros(4), np.zeros(3), (2, 2))

    @pytest.mark.parametrize("cut", [6, 14], ids=["in_rank", "in_dims"])
    def test_truncated_header(self, tmp_path, cut):
        path = tmp_path / "s.uhws"
        save_summary_grid(path, np.zeros(6), np.zeros(6), np.zeros(6), (2, 3))
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(TruncatedPayloadError):
            load_summary_grid(path)

    @pytest.mark.parametrize("header", [(0,), (17,), (2, 4, 0)], ids=["rank_0", "rank_17", "zero_axis"])
    def test_bad_dims(self, tmp_path, header):
        import struct

        path = tmp_path / "s.uhws"
        path.write_bytes(b"UHWS" + struct.pack(f"<{len(header)}I", *header))
        with pytest.raises(DimensionMismatchError):
            load_summary_grid(path)


class TestSignals:
    def test_fig5_pole_values(self):
        from uhwt.signals import fig5_signal

        assert fig5_signal(np.array([[0.0, 0.0, 1.0]]))[0] == pytest.approx(3.0)
        assert fig5_signal(np.array([[0.0, 0.0, -1.0]]))[0] == pytest.approx(-1.0)

    def test_noise_fraction_calibration(self):
        from uhwt.signals import generate_sphere_synthetic, get_signal, signal_sd

        ds = generate_sphere_synthetic("fig5", 10_000, 0.1, seed=3)
        clean = get_signal("fig5")(ds.locations)
        noise_sd = float((ds.responses - clean).std())
        target = 0.1 * signal_sd("fig5")
        assert abs(noise_sd - target) / target < 0.1

    def test_unknown_signal(self):
        from uhwt.signals import generate_sphere_synthetic

        with pytest.raises(UnknownSignalError):
            generate_sphere_synthetic("nope", 10, 0.1, seed=0)

    def test_irregular_posts_pointer(self):
        from uhwt.signals import generate_sphere_synthetic

        with pytest.raises(UnknownSignalError, match="closed form"):
            generate_sphere_synthetic("irregular", 10, 0.1, seed=0)

    def test_planes_signal_matches_formula(self):
        import math

        from uhwt.signals import planes_signal

        p = np.array([[0.0, 0.0, 1.0]])
        tilt = (math.sin(math.radians(35.0))) ** 2
        want = (math.exp(-16.0) + 1.5 * math.exp(-16.0 / 9.0)) + (1.0 + 1.5) \
            + (math.exp(-16.0 * tilt) + 1.5 * math.exp(-16.0 * tilt / 9.0))
        assert planes_signal(p)[0] == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# loader fuzzing: a malformed file raises a UhwtError and nothing else
# ---------------------------------------------------------------------------

def _load_or_typed_error(loader, directory, data):
    path = directory / "fuzz.bin"
    path.write_bytes(data)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # genfromtxt warns on empty input
            loader(path)
    except UhwtError:
        pass


_HEADER_TOKEN = st.one_of(
    st.integers(-3, 300).map(str),
    st.integers(0, 10 ** 12).map(str),
    st.text(alphabet="0123456789-+.eabx# \n", max_size=6),
)
_PIXELS = st.lists(
    st.one_of(st.integers(-5, 70000).map(str), st.sampled_from(["nan", "inf", "x", "1e400", "-"])),
    max_size=20,
).map(lambda tokens: " ".join(tokens).encode())
_CSV_CELL = st.one_of(
    st.floats().map(repr),
    st.integers(-2, 2).map(str),
    st.sampled_from(["", "x", "nan", " 1", "1e400", '"1"', "1,2"]),
)
_CSV_NAMES = st.one_of(
    st.just(["x", "y", "z", "value"]),
    st.lists(st.sampled_from(["x", "y", "z", "value", "lon", "v", "", "x y", "#x"]), max_size=6),
)


@given(magic=st.sampled_from(["P2", "P5", "P2x", "P"]), width=_HEADER_TOKEN,
       height=_HEADER_TOKEN, maxval=_HEADER_TOKEN, sep=st.sampled_from([" ", "\n", "#c\n", ""]),
       body=st.one_of(st.binary(max_size=40), _PIXELS), cut=st.integers(0, 100))
@settings(max_examples=150, deadline=None)
def test_pgm_fuzz_raises_only_typed_errors(tmp_path_factory, magic, width, height, maxval,
                                           sep, body, cut):
    data = f"{magic}{sep}{width} {height}{sep}{maxval}\n".encode() + body
    _load_or_typed_error(load_pgm, tmp_path_factory.getbasetemp(), data[:cut])


@given(names=_CSV_NAMES, rows=st.lists(st.lists(_CSV_CELL, max_size=6), max_size=6),
       repeat_last=st.booleans(), cut=st.integers(0, 200))
@settings(max_examples=150, deadline=None)
def test_sphere_csv_fuzz_raises_only_typed_errors(tmp_path_factory, names, rows, repeat_last, cut):
    lines = [",".join(names)] + [",".join(row) for row in rows]
    if repeat_last and len(lines) > 1:
        lines.append(lines[-1])
    data = ("\n".join(lines) + "\n").encode()
    _load_or_typed_error(load_sphere_csv, tmp_path_factory.getbasetemp(), data[:cut])


_U32 = st.one_of(st.integers(0, 6), st.sampled_from([16, 17, 2 ** 31, 2 ** 32 - 1]))
_PAYLOAD = st.one_of(st.binary(max_size=120), st.integers(0, 40).map(lambda k: bytes(8 * k)))


@pytest.mark.parametrize("loader", [load_tensor, load_summary_grid])
@given(magic=st.sampled_from([b"UHWT", b"UHWS", b"UHW", b"P5 1"]), ndim=_U32,
       dims=st.lists(_U32, max_size=5), payload=_PAYLOAD, cut=st.integers(0, 400))
@settings(max_examples=150, deadline=None)
def test_container_fuzz_raises_only_typed_errors(tmp_path_factory, loader, magic, ndim, dims,
                                                 payload, cut):
    data = magic + struct.pack(f"<I{len(dims)}I", ndim, *dims) + payload
    _load_or_typed_error(loader, tmp_path_factory.getbasetemp(), data[:cut])


_LONLAT_CELL = st.one_of(
    _CSV_CELL,
    st.floats(-400, 400).map(repr),
    st.sampled_from(["90", "-90", "90.0000001", "-inf", "1e308"]),
)


@given(names=st.one_of(st.just(["lon", "lat", "value"]),
                       st.lists(st.sampled_from(["lon", "lat", "value", "x", ""]), max_size=4)),
       rows=st.lists(st.lists(_LONLAT_CELL, max_size=4), max_size=6),
       repeat_last=st.booleans(), cut=st.integers(0, 200))
@settings(max_examples=150, deadline=None)
def test_lonlat_csv_fuzz_raises_only_typed_errors(tmp_path_factory, names, rows, repeat_last, cut):
    lines = [",".join(names)] + [",".join(row) for row in rows]
    if repeat_last and len(lines) > 1:
        lines.append(lines[-1])
    data = ("\n".join(lines) + "\n").encode()
    _load_or_typed_error(load_lonlat_csv, tmp_path_factory.getbasetemp(), data[:cut])
