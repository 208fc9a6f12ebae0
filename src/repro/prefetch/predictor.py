"""Fetch-line predictors for the prefetching refill engine.

Two predictors drive the speculative refill policies:

* **next-line** — the fall-through cache line (``line + 1``), implicit in
  the policy itself (no state to train);
* **branch-target buffer** (:class:`StaticBTB`) — a small direct-mapped
  table mapping a cache line to the line a control transfer inside it
  redirects fetch to.  It is trained *statically* from the program's
  control-flow-graph edges (:func:`repro.isa.cfg.static_transfer_targets`)
  rather than online from retired branches: the CCRP's compressed image
  is read-only firmware, so the full edge set is known at image-build
  time and a deterministic static fill keeps the vectorized timeline and
  the tests' per-access reference walk trivially in agreement.  Hardware cost is still
  honest — the table is capacity-bounded and direct-mapped, so two hot
  lines that collide in the same slot evict each other exactly as a real
  BTB would (the *later* static line wins, deterministically).

A line can hold several transfers; the BTB keeps the **last** one with a
statically-known target, the transfer that redirects fetch *out* of the
line when the earlier ones fall through.  Targets inside the same line
or in the fall-through line predict nothing the next-line probe does not
already cover, so they are not installed.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.isa.cfg import static_transfer_targets
from repro.isa.instruction import Instruction

#: Default BTB capacity (lines); small like the CLB, per Section 3.3's
#: "modest additional hardware" budget.
DEFAULT_BTB_ENTRIES = 64


class StaticBTB:
    """Capacity-bounded, direct-mapped line-to-target-line predictor.

    Args:
        entries: Table capacity (power of two recommended; any positive
            count works — slots are ``line % entries``).

    Use :meth:`train` per edge or :func:`build_btb` to fill one from a
    decoded program.
    """

    def __init__(self, entries: int = DEFAULT_BTB_ENTRIES) -> None:
        if entries < 1:
            raise ConfigurationError(f"BTB needs at least one entry, got {entries}")
        self.entries = entries
        self._tags: dict[int, int] = {}
        self._targets: dict[int, int] = {}

    def train(self, line: int, target_line: int) -> None:
        """Install ``line -> target_line`` (evicting any slot conflict)."""
        slot = line % self.entries
        self._tags[slot] = line
        self._targets[slot] = target_line

    def predict(self, line: int) -> int | None:
        """Predicted target line for ``line``, or ``None`` on a tag miss."""
        slot = line % self.entries
        if self._tags.get(slot) != line:
            return None
        return self._targets[slot]

    @property
    def occupancy(self) -> int:
        """Number of valid slots currently held."""
        return len(self._tags)


def build_btb(
    instructions: tuple[Instruction, ...],
    text_base: int = 0,
    line_size: int = 32,
    entries: int = DEFAULT_BTB_ENTRIES,
) -> StaticBTB:
    """Train a :class:`StaticBTB` from a program's static CFG edges.

    Edges are installed in static program order, so within one line the
    last transfer wins its slot, and across colliding lines the later
    static line wins — both deterministic.  Edges whose target lands in
    the same line or the next line are skipped (covered by the demand
    fetch and the next-line probe respectively).
    """
    shift = line_size.bit_length() - 1
    btb = StaticBTB(entries)
    for address, target in static_transfer_targets(instructions, text_base):
        line = address >> shift
        target_line = target >> shift
        if target_line in (line, line + 1):
            continue
        btb.train(line, target_line)
    return btb
