package coherence

import "vbmo/internal/prog"

// IOBase is the base address of the coherent memory-mapped I/O buffer
// region written by the DMA agent and occasionally read by workloads.
const IOBase = uint64(1) << 44

// DMA is a coherent DMA agent standing in for the paper's I/O devices
// (disk, console, network adapter). Every Interval cycles it writes a
// burst of blocks into a ring of I/O buffers, invalidating any cached
// copies — the only source of snoop traffic a uniprocessor observes
// (paper §5.1: "no snoop requests ... other than coherent I/O
// operations issued by the DMA controller").
type DMA struct {
	// Bus is the interconnect the agent writes through.
	Bus *Bus
	// Image is the memory image DMA data lands in.
	Image *prog.Image
	// Blocks is the ring size in cache blocks.
	Blocks int
	// Interval is the cycle spacing of bursts (0 disables the agent).
	Interval int64
	// Burst is the number of blocks written per interval.
	Burst int

	// ShadowWrite, if set, is invoked for every word the agent writes
	// (consistency tracking).
	ShadowWrite func(addr, value uint64)

	cursor int
	nextAt int64
}

// NextAt returns the cycle at which the next burst is scheduled: Tick
// is a no-op strictly before it. Zero until the first Tick (the agent
// fires on the first Tick it observes). The system's quiescence
// fast-forward uses it as a wake event: skipped windows never cross a
// scheduled burst.
func (d *DMA) NextAt() int64 { return d.nextAt }

// Tick advances the agent to the given cycle, performing any due burst.
func (d *DMA) Tick(cycle int64) {
	if d.Interval <= 0 || cycle < d.nextAt {
		return
	}
	d.nextAt = cycle + d.Interval
	for i := 0; i < d.Burst; i++ {
		block := IOBase + uint64(d.cursor)*64
		d.cursor = (d.cursor + 1) % d.Blocks
		// Write fresh data into every word of the block, then push the
		// invalidation through the bus.
		for w := uint64(0); w < 64; w += 8 {
			v := uint64(cycle) ^ (block + w) ^ 0xd1b54a32d192ed03
			d.Image.Write(block+w, v)
			if d.ShadowWrite != nil {
				d.ShadowWrite(block+w, v)
			}
		}
		d.Bus.DMAWrite(block)
	}
}
