"""Recurring-spatial-footprint workload generator.

Models the SPEC-style behaviour the paper builds its motivation around
(Fig. 2, ``fotonik3d_s``): program phases repeatedly produce the same small
set of spatial footprints in freshly activated regions, and the *order* of
the first accesses inside a footprint is reproduced whenever the footprint
recurs.

The generator creates ``num_classes`` footprint classes.  Classes are
deliberately constructed so that several classes share the same *trigger*
offset while differing in their *second* offset -- the exact ambiguity the
paper uses to show why trigger-offset-only characterization (PMP/Offset)
mispredicts while Gaze's two-access characterization does not.  Each class
is also associated with a small set of PCs so fine-grained PC-based schemes
(SMS/Bingo) can characterise it too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence

from repro.workloads.generators.base import Access, WorkloadGenerator


@dataclass
class FootprintClass:
    """One recurring footprint: an ordered list of block offsets and a PC."""

    offsets: List[int]
    pc: int

    @property
    def trigger_offset(self) -> int:
        """Offset of the first access of the pattern."""
        return self.offsets[0]

    @property
    def second_offset(self) -> int:
        """Offset of the second access of the pattern."""
        return self.offsets[1]


class SpatialRecurrenceWorkload(WorkloadGenerator):
    """Regions drawn from a fixed set of recurring footprint classes.

    Parameters:
        num_classes: number of distinct footprint classes.
        classes_per_trigger: how many classes share each trigger offset
            (>= 2 creates the ambiguity that defeats offset-only schemes).
        footprint_blocks: number of blocks per footprint.
        concurrency: number of regions whose accesses are interleaved at any
            time (models out-of-order/loop interleaving and exercises the
            accumulation table).
        noise_fraction: fraction of regions that get a random, unpredictable
            footprint instead of a class footprint.
    """

    kind = "spatial"

    def __init__(
        self,
        seed: int = 0,
        length: int = 50_000,
        num_classes: int = 12,
        classes_per_trigger: int = 3,
        footprint_blocks: int = 16,
        concurrency: int = 4,
        noise_fraction: float = 0.10,
        accesses_per_block: int = 1,
        mean_instr_gap: float = 5.0,
        region_size: int = 4096,
    ) -> None:
        super().__init__(
            seed=seed,
            length=length,
            mean_instr_gap=mean_instr_gap,
            region_size=region_size,
        )
        if num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        if footprint_blocks < 2:
            raise ValueError("footprint_blocks must be >= 2")
        if classes_per_trigger < 1:
            raise ValueError("classes_per_trigger must be >= 1")
        self.num_classes = num_classes
        self.classes_per_trigger = classes_per_trigger
        self.footprint_blocks = min(footprint_blocks, self.blocks_per_region)
        self.concurrency = max(1, concurrency)
        self.noise_fraction = noise_fraction
        self.accesses_per_block = accesses_per_block
        self.classes = self._build_classes()
        self._next_region = 0x4000 + (seed % 83) * 0x1000

    # ------------------------------------------------------------------ #
    def _build_classes(self) -> List[FootprintClass]:
        """Construct footprint classes with shared trigger offsets."""
        classes: List[FootprintClass] = []
        num_triggers = max(1, self.num_classes // self.classes_per_trigger)
        trigger_offsets = self.rng.sample(
            range(2, self.blocks_per_region // 2), k=min(num_triggers, 20)
        )
        for index in range(self.num_classes):
            trigger = trigger_offsets[index % len(trigger_offsets)]
            # Second offsets differ per class sharing the trigger.
            second = (trigger + 1 + (index // len(trigger_offsets)) * 3) % (
                self.blocks_per_region
            )
            if second == trigger:
                second = (second + 1) % self.blocks_per_region
            remaining_pool = [
                o
                for o in range(self.blocks_per_region)
                if o not in (trigger, second)
            ]
            body = self.rng.sample(
                remaining_pool, k=min(self.footprint_blocks - 2, len(remaining_pool))
            )
            body.sort()
            offsets = [trigger, second] + body
            classes.append(FootprintClass(offsets=offsets, pc=self.new_pc()))
        return classes

    def _new_region_number(self) -> int:
        self._next_region += 1 + self.rng.randrange(3)
        return self._next_region

    def _region_instance(self) -> List[Access]:
        """Materialise one region instance as an ordered access list."""
        region = self._new_region_number()
        base = self.region_base(region)
        if self.rng.random() < self.noise_fraction:
            count = self.rng.randint(2, self.footprint_blocks)
            offsets = self.rng.sample(range(self.blocks_per_region), k=count)
            pc = self.new_pc()
        else:
            cls = self.rng.choice(self.classes)
            offsets = cls.offsets
            pc = cls.pc
        accesses: List[Access] = []
        for offset in offsets:
            for element in range(self.accesses_per_block):
                accesses.append(self.access(pc, base + offset * 64 + element * 8))
        return accesses

    def _generate(self) -> Iterable[Access]:
        # Maintain ``concurrency`` in-flight regions and interleave their
        # accesses round-robin, mimicking overlapping loop iterations.
        active: List[List[Access]] = [
            self._region_instance() for _ in range(self.concurrency)
        ]
        cursors = [0] * self.concurrency
        while True:
            for slot in range(self.concurrency):
                if cursors[slot] >= len(active[slot]):
                    active[slot] = self._region_instance()
                    cursors[slot] = 0
                yield active[slot][cursors[slot]]
                cursors[slot] += 1
