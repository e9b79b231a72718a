"""The benchmark's answer key, written down by hand.

Nothing here is computed by the code under test.  Verdicts follow from
the paper ("MCU-Wide Timing Side Channels and Their Detection",
Sec. 4) and from the threat models of the formal SoC:

* Every variant with a shared, contention-arbitrated interconnect and a
  DMA keeps the DMA contention channel: the victim's private-memory
  accesses delay the attacker-visible DMA transfer.  Algorithm 1 proves
  such a design ``vulnerable`` — the baseline (Sec. 4.1), the variant
  without a timer (E5: another IP's progress is the attacker's clock) and the
  variant without the HWPE (E9: the DMA alone suffices).
* The secured variant (Sec. 4.2 countermeasure) is ``secure``.
* The non-relational IFT baseline reports a ``flow`` on every variant,
  the secured one included: its documented false positive (Sec. 5).
* The spy-response invariant of the formal SoC cannot break before
  cycle 3 after reset (request, arbitration, delayed response), so BMC
  ``holds`` through depth 2 and is ``violated`` at depth 3 on every
  contention-arbitrated interconnect (round-robin or fixed priority).
  Time-division arbitration (``tdm``) removes contention, so BMC
  ``holds`` at every depth there.
* The invariant is not 2-inductive on any variant (the induction step
  starts from unreachable arbiter states), so k-induction at k = 2 is
  ``unproved`` everywhere — on ``tdm`` too, where it holds but needs a
  deeper proof.
* Edits to the DMA-only variant change none of the above: they keep the
  DMA contention channel, so edited designs stay ``vulnerable`` /
  ``violated`` / ``unproved``.

Delta partitions follow from what an edit touches.  A simulation-only
ROM size (``rom_words``; the formal builds have no CPU) and the HWPE
counter width on a variant without an HWPE change no gate of the formal
circuit, so every obligation of the edited grid is served from the
baseline.  Memory latency, DMA counter width, arbitration and adding a
peripheral (a new crossbar slave) change the interconnect the DMA
channel runs through, so every obligation of the edited variant
re-runs while the untouched variant is served.
"""

from __future__ import annotations

#: paper-grid: (variant, method, depth) -> verdict.
PAPER = {
    ("baseline", "alg1", 1): "vulnerable",
    ("no_timer", "alg1", 1): "vulnerable",
    ("no_hwpe", "alg1", 1): "vulnerable",
    ("secured", "alg1", 1): "secure",
    ("baseline", "ift-baseline", 2): "flow",
    ("no_timer", "ift-baseline", 2): "flow",
    ("no_hwpe", "ift-baseline", 2): "flow",
    ("secured", "ift-baseline", 2): "flow",
}

#: delta-series: method@depth -> verdict, for the baseline variant and
#: for the DMA-only variant before and after every edit.
DELTA = {
    ("alg1", 1): "vulnerable",
    ("bmc", 3): "violated",
    ("k-induction", 2): "unproved",
}

#: fabric-stream: (arbitration, method, depth) -> verdict; the memory
#: latency and the HWPE do not change it.
FABRIC = {
    ("rr", "bmc", 2): "holds",
    ("rr", "bmc", 3): "violated",
    ("rr", "k-induction", 2): "unproved",
    ("fixed", "bmc", 2): "holds",
    ("fixed", "bmc", 3): "violated",
    ("fixed", "k-induction", 2): "unproved",
    ("tdm", "bmc", 2): "holds",
    ("tdm", "bmc", 3): "holds",
    ("tdm", "k-induction", 2): "unproved",
}

#: delta-series edits to the DMA-only variant, by class.  Values are
#: the candidates a seed picks from; every one is a real design change
#: (none equals the FORMAL_TINY default).
OUT_OF_CONE = {
    "rom_words": (64, 128, 512, 1024),
    "hwpe_counter_bits": (3, 5, 6, 8),
}
IN_CONE = {
    "priv_mem_latency": (1, 3),
    "dma_counter_bits": (3, 5),
    "arbitration": ("fixed",),
    "include_uart": (True,),
    "include_gpio": (True,),
}

#: The variant the delta series edits, and the one it leaves alone.
EDITED, UNTOUCHED = "no_hwpe", "baseline"


def expected_partition(field: str) -> tuple[set[str], set[str]]:
    """(variants that must be served, variants that must re-run)."""
    if field in OUT_OF_CONE:
        return {EDITED, UNTOUCHED}, set()
    if field in IN_CONE:
        return {UNTOUCHED}, {EDITED}
    raise KeyError(f"edit field {field!r} is not in the answer key")
