"""File formats: PGM images, raw tensors, sphere CSVs, summary grids."""

import math
import struct

import numpy as np

from .core import sphere_dataset
from .errors import (
    BadMagicError,
    DimensionMismatchError,
    NonFiniteDataError,
    TruncatedPayloadError,
)
from .signals import image_dataset

TENSOR_MAGIC = b"UHWT"
SUMMARY_MAGIC = b"UHWS"


# ---------------------------------------------------------------------------
# PGM (P2 ascii / P5 binary), values rescaled to [0, 1]
# ---------------------------------------------------------------------------

def _pgm_tokens(data):
    """Header tokens, skipping '#' comments; returns (tokens, body offset)."""
    tokens = []
    pos = 0
    while len(tokens) < 4:
        if pos >= len(data):
            raise TruncatedPayloadError("incomplete PGM header")
        ch = data[pos:pos + 1]
        if ch == b"#":
            while pos < len(data) and data[pos:pos + 1] != b"\n":
                pos += 1
            pos += 1
        elif ch.isspace():
            pos += 1
        else:
            start = pos
            while pos < len(data) and not data[pos:pos + 1].isspace():
                pos += 1
            tokens.append(data[start:pos])
    return tokens, pos + 1  # single whitespace after maxval


def _is_pgm(head):
    """The file starts with the whole header token P2 or P5."""
    return head[:2] in (b"P2", b"P5") and head[2:3].isspace()


def load_pgm(path):
    with open(path, "rb") as fh:
        data = fh.read()
    if not _is_pgm(data):
        raise BadMagicError("not a P2/P5 PGM file")
    tokens, offset = _pgm_tokens(data)
    try:
        width, height, maxval = (int(tok) for tok in tokens[1:])
    except ValueError:
        raise DimensionMismatchError("PGM width, height and maxval must be integers") from None
    if width < 1 or height < 1:
        raise DimensionMismatchError("PGM width and height must be at least 1")
    if maxval <= 0 or maxval > 65535:
        raise DimensionMismatchError("PGM maxval must lie in [1, 65535]")
    count = width * height
    if tokens[0] == b"P2":
        try:
            values = np.array(data[offset - 1:].split(), dtype=np.float64)
        except ValueError:
            raise DimensionMismatchError("PGM pixel values must be numbers") from None
        if values.size < count:
            raise TruncatedPayloadError("PGM pixel data ends early")
        values = values[:count]
    else:
        dtype = ">u2" if maxval > 255 else np.uint8
        body = data[offset:]
        needed = count * np.dtype(dtype).itemsize
        if len(body) < needed:
            raise TruncatedPayloadError("PGM pixel data ends early")
        values = np.frombuffer(body[:needed], dtype=dtype).astype(np.float64)
    return (values / maxval).reshape(height, width)


def save_pgm(path, img, maxval=255):
    img = np.asarray(img, dtype=np.float64)
    pixels = np.clip(np.rint(img * maxval), 0, maxval).astype(int)
    lines = [f"P2\n{img.shape[1]} {img.shape[0]}\n{maxval}\n"]
    lines.extend(" ".join(str(v) for v in row) + "\n" for row in pixels)
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(lines)


# ---------------------------------------------------------------------------
# raw tensor container: magic, u32 D, u32 dims[D], little-endian f64 payload
# ---------------------------------------------------------------------------

def _container_header(magic, dims):
    return magic + struct.pack(f"<I{len(dims)}I", len(dims), *dims)


def _load_container(path, magic, what, n_payloads):
    """Payload arrays of a file: magic, u32 D, u32 dims[D], n_payloads f64 blocks."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != magic:
        raise BadMagicError(f"missing {what} magic")
    if len(data) < 8:
        raise TruncatedPayloadError(f"{what} header ends early")
    ndim = struct.unpack("<I", data[4:8])[0]
    if ndim == 0 or ndim > 16:
        raise DimensionMismatchError(f"unreasonable {what} rank {ndim}")
    header_end = 8 + 4 * ndim
    if len(data) < header_end:
        raise TruncatedPayloadError(f"{what} dims end early")
    dims = struct.unpack(f"<{ndim}I", data[8:header_end])
    if any(d == 0 for d in dims):
        raise DimensionMismatchError(f"zero-length {what} axis")
    size = 8 * math.prod(dims)
    if len(data) < header_end + n_payloads * size:
        raise TruncatedPayloadError(f"{what} payload ends early")
    starts = range(header_end, header_end + n_payloads * size, size)
    return [np.frombuffer(data[a:a + size], dtype="<f8").reshape(dims).copy() for a in starts]


def load_tensor(path):
    return _load_container(path, TENSOR_MAGIC, "tensor", 1)[0]


def save_tensor(path, array):
    array = np.asarray(array, dtype=np.float64)
    with open(path, "wb") as fh:
        fh.write(_container_header(TENSOR_MAGIC, array.shape))
        fh.write(array.astype("<f8").tobytes(order="C"))


def load_grid(path):
    """Dataset from a PGM (2-D) or raw tensor (d-D) file, by magic bytes."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic[:4] == TENSOR_MAGIC:
        return image_dataset(load_tensor(path))
    if _is_pgm(magic):
        return image_dataset(load_pgm(path))
    raise BadMagicError("unrecognized grid file (need PGM or tensor magic)")


# ---------------------------------------------------------------------------
# sphere CSVs
# ---------------------------------------------------------------------------

def _csv_columns(path, names):
    """The named float columns of a headed CSV, each as a 1-D array."""
    try:
        raw = np.genfromtxt(path, delimiter=",", names=True, dtype=np.float64)
    except (ValueError, IndexError):  # ragged rows, bad names; IndexError: empty file
        raise DimensionMismatchError("malformed CSV: no header, or rows unlike the header") from None
    missing = [name for name in names if name not in (raw.dtype.names or ())]
    if missing:
        raise DimensionMismatchError(f"CSV header lacks column(s) {', '.join(missing)}")
    return [np.atleast_1d(raw[name]) for name in names]


def load_sphere_csv(path):
    """Scattered sphere data: header x,y,z,value; rows normalized to unit norm.

    Rows with norm below 1e-6 are dropped; a row whose norm overflows is
    first divided by its largest |coordinate|.  A NaN or infinite
    coordinate raises NonFiniteDataError.
    """
    x, y, z, values = _csv_columns(path, ("x", "y", "z", "value"))
    points = np.stack([x, y, z], axis=1)
    if not np.isfinite(points).all():
        raise NonFiniteDataError("sphere CSV coordinates must be finite (no NaN or inf)")
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(points, axis=1)
    huge = np.isinf(norms)
    if huge.any():
        points[huge] /= np.abs(points[huge]).max(axis=1, keepdims=True)
        norms[huge] = np.linalg.norm(points[huge], axis=1)
    keep = norms >= 1e-6
    points = points[keep] / norms[keep, None]
    return sphere_dataset(points, values[keep])


def save_sphere_csv(path, points, values, value_name="value"):
    points = np.atleast_2d(points)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"x,y,z,{value_name}\n")
        for row, v in zip(points, np.atleast_1d(values)):
            cells = ",".join(repr(float(x)) for x in (*row, v))
            fh.write(cells + "\n")


def load_lonlat_csv(path):
    """lon,lat,value in degrees, converted to unit vectors.

    x = cos(lat) cos(lon), y = cos(lat) sin(lon), z = sin(lat).
    """
    lon, lat, values = _csv_columns(path, ("lon", "lat", "value"))
    lon, lat = np.radians(lon), np.radians(lat)
    points = np.stack(
        [np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon), np.sin(lat)], axis=1,
    )
    return sphere_dataset(points, values)


# ---------------------------------------------------------------------------
# posterior summary grids: magic, u32 D, u32 dims[D], three f64 payloads
# ---------------------------------------------------------------------------

def save_summary_grid(path, mean, sd, width, dims):
    dims = tuple(int(d) for d in dims)
    count = int(np.prod(dims))
    with open(path, "wb") as fh:
        fh.write(_container_header(SUMMARY_MAGIC, dims))
        for payload in (mean, sd, width):
            payload = np.asarray(payload, dtype=np.float64).ravel()
            if payload.size != count:
                raise DimensionMismatchError("summary payload size mismatch")
            fh.write(payload.astype("<f8").tobytes())


def load_summary_grid(path):
    """(mean, sd, width) arrays of a posterior summary grid."""
    return tuple(_load_container(path, SUMMARY_MAGIC, "summary", 3))
