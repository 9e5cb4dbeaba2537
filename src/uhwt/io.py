"""File formats: PGM images, raw tensors, sphere CSVs, summary grids."""

import struct

import numpy as np

from .core import grid_dataset, sphere_dataset
from .errors import (
    BadMagicError,
    DimensionMismatchError,
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


def load_pgm(path):
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] not in (b"P2", b"P5"):
        raise BadMagicError("not a P2/P5 PGM file")
    tokens, offset = _pgm_tokens(data)
    width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    if maxval <= 0 or maxval > 65535:
        raise DimensionMismatchError("PGM maxval must lie in [1, 65535]")
    count = width * height
    if tokens[0] == b"P2":
        values = np.array(data[offset - 1:].split(), dtype=np.float64)
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

def load_tensor(path):
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != TENSOR_MAGIC:
        raise BadMagicError("missing tensor magic")
    if len(data) < 8:
        raise TruncatedPayloadError("tensor header ends early")
    ndim = struct.unpack("<I", data[4:8])[0]
    if ndim == 0 or ndim > 16:
        raise DimensionMismatchError(f"unreasonable tensor rank {ndim}")
    header_end = 8 + 4 * ndim
    if len(data) < header_end:
        raise TruncatedPayloadError("tensor dims end early")
    dims = struct.unpack(f"<{ndim}I", data[8:header_end])
    if any(d == 0 for d in dims):
        raise DimensionMismatchError("zero-length tensor axis")
    count = int(np.prod(dims))
    if len(data) < header_end + 8 * count:
        raise TruncatedPayloadError("tensor payload ends early")
    payload = np.frombuffer(data[header_end:header_end + 8 * count], dtype="<f8")
    return payload.reshape(dims).copy()


def save_tensor(path, array):
    array = np.asarray(array, dtype=np.float64)
    with open(path, "wb") as fh:
        fh.write(TENSOR_MAGIC)
        fh.write(struct.pack("<I", array.ndim))
        fh.write(struct.pack(f"<{array.ndim}I", *array.shape))
        fh.write(array.astype("<f8").tobytes(order="C"))


def load_grid(path):
    """Dataset from a PGM (2-D) or raw tensor (d-D) file, by magic bytes."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic[:4] == TENSOR_MAGIC:
        return image_dataset(load_tensor(path))
    if magic[:2] in (b"P2", b"P5"):
        return image_dataset(load_pgm(path))
    raise BadMagicError("unrecognized grid file (need PGM or tensor magic)")


# ---------------------------------------------------------------------------
# sphere CSVs
# ---------------------------------------------------------------------------

def load_sphere_csv(path):
    """Scattered sphere data: header x,y,z,value; rows normalized to unit norm.

    Rows with norm below 1e-6 are dropped.
    """
    raw = np.genfromtxt(path, delimiter=",", names=True, dtype=np.float64)
    points = np.stack([raw["x"], raw["y"], raw["z"]], axis=1).reshape(-1, 3)
    values = np.atleast_1d(raw["value"])
    norms = np.linalg.norm(points, axis=1)
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
    raw = np.genfromtxt(path, delimiter=",", names=True, dtype=np.float64)
    lon = np.radians(np.atleast_1d(raw["lon"]))
    lat = np.radians(np.atleast_1d(raw["lat"]))
    points = np.stack(
        [np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon), np.sin(lat)], axis=1,
    )
    return sphere_dataset(points, np.atleast_1d(raw["value"]))


# ---------------------------------------------------------------------------
# posterior summary grids: magic, u32 D, u32 dims[D], three f64 payloads
# ---------------------------------------------------------------------------

def save_summary_grid(path, mean, sd, width, dims):
    dims = tuple(int(d) for d in dims)
    count = int(np.prod(dims))
    with open(path, "wb") as fh:
        fh.write(SUMMARY_MAGIC)
        fh.write(struct.pack("<I", len(dims)))
        fh.write(struct.pack(f"<{len(dims)}I", *dims))
        for payload in (mean, sd, width):
            payload = np.asarray(payload, dtype=np.float64).ravel()
            if payload.size != count:
                raise DimensionMismatchError("summary payload size mismatch")
            fh.write(payload.astype("<f8").tobytes())


def load_summary_grid(path):
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != SUMMARY_MAGIC:
        raise BadMagicError("missing summary magic")
    if len(data) < 8:
        raise TruncatedPayloadError("summary header ends early")
    ndim = struct.unpack("<I", data[4:8])[0]
    if ndim == 0 or ndim > 16:
        raise DimensionMismatchError(f"unreasonable summary rank {ndim}")
    header_end = 8 + 4 * ndim
    if len(data) < header_end:
        raise TruncatedPayloadError("summary dims end early")
    dims = struct.unpack(f"<{ndim}I", data[8:header_end])
    if any(d == 0 for d in dims):
        raise DimensionMismatchError("zero-length summary axis")
    count = int(np.prod(dims))
    if len(data) < header_end + 3 * 8 * count:
        raise TruncatedPayloadError("summary payload ends early")
    out = []
    for k in range(3):
        start = header_end + k * 8 * count
        out.append(np.frombuffer(data[start:start + 8 * count], dtype="<f8").reshape(dims).copy())
    return tuple(out)
