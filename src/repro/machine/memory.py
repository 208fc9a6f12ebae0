"""Flat 24-bit physical memory for the functional simulator.

The paper's proposed implementation uses a 24-bit physical address space
(Section 3.1), i.e. 16 MiB.  A flat ``bytearray`` of that size is small
enough to allocate per machine and keeps loads/stores simple and fast.
All multi-byte accesses are big-endian, matching the DECstation-era MIPS
byte order assumed throughout the library.
"""

from __future__ import annotations

from repro.errors import ExecutionError

#: Size of the 24-bit physical address space.
MEMORY_BYTES = 1 << 24

_ADDRESS_MASK = MEMORY_BYTES - 1


class Memory:
    """Byte-addressable big-endian memory.

    The executor's compiled loads and stores index :attr:`data` directly
    (and check word/halfword alignment there, because the R2000 raises
    address-error exceptions for unaligned accesses and silently wrong
    simulation results are worse than an error).  Addresses are masked to
    24 bits rather than bounds-checked: the paper's embedded system has
    exactly this physical space and no MMU faults.
    """

    __slots__ = ("data",)

    def __init__(self) -> None:
        self.data = bytearray(MEMORY_BYTES)

    def load_segment(self, base: int, payload: bytes) -> None:
        """Copy ``payload`` into memory starting at ``base``."""
        base &= _ADDRESS_MASK
        if base + len(payload) > MEMORY_BYTES:
            raise ExecutionError(
                f"segment [{base:#x}, {base + len(payload):#x}) exceeds 24-bit memory"
            )
        self.data[base : base + len(payload)] = payload

    def read_string(self, address: int, limit: int = 4096) -> str:
        """Read a NUL-terminated latin-1 string (for the print syscall)."""
        address &= _ADDRESS_MASK
        end = self.data.find(b"\0", address, address + limit)
        if end < 0:
            raise ExecutionError(f"unterminated string at {address:#x}")
        return self.data[address:end].decode("latin-1")
