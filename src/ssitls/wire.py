"""Byte-level reader/writer for RFC 8446 presentation-language encodings."""

from __future__ import annotations


class WireError(Exception):
    """Malformed wire data. `position` is the offset the error was detected at."""

    def __init__(self, message: str, position: int = 0):
        super().__init__(f"{message} (at byte {position})")
        self.position = position


class Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def remaining(self) -> int:
        return len(self.data) - self.pos

    def take(self, n: int) -> bytes:
        if n < 0 or self.remaining() < n:
            raise WireError(f"need {n} bytes, have {self.remaining()}", self.pos)
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return int.from_bytes(self.take(2), "big")

    def u24(self) -> int:
        return int.from_bytes(self.take(3), "big")

    def vector(self, length_bytes: int, min_len: int = 0) -> bytes:
        """Length-prefixed opaque vector; enforces the declared floor."""
        n = int.from_bytes(self.take(length_bytes), "big")
        if n < min_len:
            raise WireError(f"vector shorter than minimum {min_len}", self.pos)
        return self.take(n)

    def expect_end(self) -> None:
        if self.remaining():
            raise WireError(f"{self.remaining()} trailing bytes", self.pos)


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
            raise WireError(f"vector too long for {length_bytes}-byte length")
        return self.raw(len(data).to_bytes(length_bytes, "big")).raw(data)

    def getvalue(self) -> bytes:
        return b"".join(self.parts)
