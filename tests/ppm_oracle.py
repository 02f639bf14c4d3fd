"""The byte-at-a-time reference for ``dinoclip.data.read_ppm``'s header: a
hand-written tokenizer, as the library read PPM headers before it took
their fields with one pattern.  The tests require the library to accept
exactly the files this accepts, with equal arrays."""

from pathlib import Path

import numpy as np

from dinoclip.errors import ValidationError


def read_ppm_oracle(path) -> np.ndarray:
    """Binary PPM (P6, 8-bit) to [3, H, W] float32 in [0, 1]."""
    raw = Path(path).read_bytes()
    pos = 0

    def next_token():
        nonlocal pos
        while pos < len(raw):
            ch = raw[pos:pos + 1]
            if ch == b"#":
                while pos < len(raw) and raw[pos:pos + 1] != b"\n":
                    pos += 1
            elif ch.isspace():
                pos += 1
            else:
                break
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ValidationError(f"{path}: truncated PPM header")
        return raw[start:pos]

    def next_int(field_name):
        token = next_token()
        try:
            if token.isdigit():
                return int(token)
        except ValueError:   # more digits than int() converts
            pass
        raise ValidationError(f"{path}: PPM {field_name} {token[:20]!r} is not an integer")

    magic = next_token()
    if magic != b"P6":
        raise ValidationError(f"{path}: not a binary PPM (magic {magic!r})")
    width, height, maxval = (next_int(name) for name in ("width", "height", "maxval"))
    if width < 1 or height < 1:
        raise ValidationError(f"{path}: empty PPM ({width}x{height})")
    if maxval != 255:
        raise ValidationError(f"{path}: only 8-bit PPM supported, maxval {maxval}")
    pos += 1  # single whitespace byte after maxval
    count = width * height * 3
    if len(raw) - pos < count:
        raise ValidationError(f"{path}: pixel payload truncated")
    pixels = np.frombuffer(raw, dtype=np.uint8, count=count, offset=pos)
    img = pixels.reshape(height, width, 3).transpose(2, 0, 1)
    return (img.astype(np.float32) / 255.0)
