"""Byte-level reader/writer for RFC 8446 presentation-language encodings."""

from __future__ import annotations

from .record import DecodeError


class Reader:
    """Malformed input raises DecodeError naming the byte offset."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def remaining(self) -> int:
        return len(self.data) - self.pos

    def take(self, n: int) -> bytes:
        if n < 0 or self.remaining() < n:
            raise DecodeError(f"need {n} bytes, have {self.remaining()} (at byte {self.pos})")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return int.from_bytes(self.take(2), "big")

    def vector(self, length_bytes: int, min_len: int = 0) -> bytes:
        """Length-prefixed opaque vector; enforces the declared floor."""
        n = int.from_bytes(self.take(length_bytes), "big")
        if n < min_len:
            raise DecodeError(f"vector shorter than minimum {min_len} (at byte {self.pos})")
        return self.take(n)

    def expect_end(self) -> None:
        if self.remaining():
            raise DecodeError(f"{self.remaining()} trailing bytes (at byte {self.pos})")


class Writer:
    def __init__(self):
        self.parts: list[bytes] = []

    def raw(self, data: bytes) -> "Writer":
        self.parts.append(bytes(data))
        return self

    def u8(self, v: int) -> "Writer":
        return self.raw(v.to_bytes(1, "big"))

    def u16(self, v: int) -> "Writer":
        return self.raw(v.to_bytes(2, "big"))

    def u24(self, v: int) -> "Writer":
        return self.raw(v.to_bytes(3, "big"))

    def vector(self, length_bytes: int, data: bytes) -> "Writer":
        limit = 1 << (8 * length_bytes)
        if len(data) >= limit:
            raise ValueError(f"vector too long for {length_bytes}-byte length")
        return self.raw(len(data).to_bytes(length_bytes, "big")).raw(data)

    def getvalue(self) -> bytes:
        return b"".join(self.parts)
