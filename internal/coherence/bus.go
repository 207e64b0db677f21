// Package coherence implements the multiprocessor memory-system
// substrate: an invalidation-based MESI-style protocol over a
// Gigaplane-XB-like interconnect (the paper's 16-way SMP configuration:
// +32 cycle address latency, +20 cycle data latency), plus a coherent
// DMA agent standing in for the paper's cache-coherent memory-mapped
// I/O devices.
//
// The protocol is tracked with an exact-owner / over-approximate-sharer
// directory, which is behaviorally equivalent to a snoopy broadcast bus
// whose probes are filtered by each core's inclusive L3: probes of cores
// that no longer hold a copy return silently, and only probes that hit
// deliver an "invalidation observed" signal to the core (the input of
// snooping load queues and of the no-recent-snoop filter).
package coherence

import (
	"math/bits"

	"vbmo/internal/trace"
)

// Interconnect latency adders (paper §4).
const (
	// AddrLatency is the extra latency of an address message.
	AddrLatency = 32
	// DataLatency is the extra latency of a data message.
	DataLatency = 20
)

// Peer is one core's cache hierarchy as seen by the bus.
// *cache.Hierarchy implements it.
type Peer interface {
	// SnoopInvalidate purges the block locally; reports presence.
	SnoopInvalidate(block uint64) bool
	// SnoopSharedProbe reports local presence without state change.
	SnoopSharedProbe(block uint64) bool
}

// Agent ids beyond the cores: ownerNone marks a block without an owner
// or a last writer, and dmaWriterID the DMA agent as a last writer.
const (
	ownerNone   = -1
	dmaWriterID = -2
)

// entry is one block's directory record.
type entry struct {
	owner   int // core holding the block M/E, or ownerNone
	sharers uint32
	// lastWriter is the last agent that gained write ownership of the
	// block (dmaWriterID for the DMA agent), or ownerNone. A fill is
	// "externally sourced" whenever the block was last written by a
	// different agent — even if the data physically arrives from memory
	// after a castout. This is what makes the no-recent-miss filter
	// sound: any fill that can carry another agent's data is flagged.
	lastWriter int
	// dma marks a block last written by the DMA agent and not fetched
	// since.
	dma bool
}

// newEntry is the record of a block the directory has not seen.
var newEntry = entry{owner: ownerNone, lastWriter: ownerNone}

// foreignWriter reports whether an agent other than core last wrote
// the block.
func (e entry) foreignWriter(core int) bool {
	return e.lastWriter != ownerNone && e.lastWriter != core
}

// Stats counts bus-level events.
type Stats struct {
	Reads, ReadsRemote uint64
	Invalidations      uint64 // invalidation probes delivered (hit a peer)
	FilteredProbes     uint64 // probes absorbed by inclusive hierarchies
	DMAWrites          uint64
}

// Bus is the shared interconnect + directory. It implements the cache
// package's Backend interface.
type Bus struct {
	peers []Peer
	onInv []func(block uint64)
	dir   map[uint64]entry // one record per block ever fetched or written
	// active marks cores that have issued any fetch or upgrade since
	// they were (re)attached. A directory sharer/owner bit can only be
	// set by that core's own traffic, so masking probe walks with
	// active is exact: a quiet core — attached but yet to touch memory
	// — provably holds no copy and is skipped without a directory
	// lookup. Re-attaching a core clears its bit until it re-arms with
	// new traffic.
	active uint32
	memLat int
	// RemoteLat is the cache-to-cache transfer latency.
	remoteLat int
	Stats     Stats
	// Trace, when non-nil, receives bus-agent events (currently coherent
	// DMA writes, as KDMAWrite with Core -1); per-core snoop arrivals
	// are emitted by the receiving core, which knows its cycle. Now
	// supplies the current cycle (the bus has no clock of its own).
	Trace *trace.Tracer
	// Now returns the current system cycle for traced bus events; nil
	// stamps them with cycle 0.
	Now func() int64
}

// NewBus creates a bus for n cores with the given memory latency.
func NewBus(n, memLatency int) *Bus {
	return &Bus{
		peers:     make([]Peer, n),
		onInv:     make([]func(uint64), n),
		dir:       make(map[uint64]entry),
		memLat:    memLatency,
		remoteLat: AddrLatency + DataLatency + 15,
	}
}

// AttachPeer registers core's cache hierarchy. The core starts quiet:
// it is masked out of probe walks until its first fetch or upgrade.
func (b *Bus) AttachPeer(core int, p Peer) {
	b.peers[core] = p
	b.active &^= 1 << uint(core)
}

// probeMask returns the cores to probe for a directory entry: every
// sharer plus the owner, restricted to cores that have issued traffic.
// The restriction is exact, not heuristic — see the active field.
func (b *Bus) probeMask(e entry) uint32 {
	m := e.sharers
	if e.owner != ownerNone {
		m |= 1 << uint(e.owner)
	}
	return m & b.active
}

// OnInvalidation registers the callback invoked when core observes an
// external invalidation that hits its hierarchy (snooping load queues
// and the no-recent-snoop filter consume this).
func (b *Bus) OnInvalidation(core int, fn func(block uint64)) { b.onInv[core] = fn }

// FetchRead implements cache.Backend: core obtains a readable copy.
func (b *Bus) FetchRead(core int, block uint64) (int, bool) {
	b.Stats.Reads++
	b.active |= 1 << uint(core)
	e, existed := b.dir[block]
	if !existed {
		e = newEntry
	}
	external := false
	lat := b.memLat + AddrLatency + DataLatency
	if len(b.peers) == 1 {
		lat = b.memLat
	}
	if e.owner != ownerNone && e.owner != core {
		// Cache-to-cache transfer from the modified owner.
		if b.peers[e.owner] == nil || b.peers[e.owner].SnoopSharedProbe(block) {
			external = true
			lat = b.remoteLat
			b.Stats.ReadsRemote++
		}
		e.sharers |= 1 << uint(e.owner)
		e.owner = ownerNone
	}
	if e.dma {
		// Block most recently produced by the DMA agent: the fill is
		// externally sourced.
		external = true
		lat = b.remoteLat
		e.dma = false
	}
	if e.foreignWriter(core) {
		// The block's last writer was another agent; even a memory
		// fill (post-castout) carries foreign data.
		external = true
	}
	e.sharers |= 1 << uint(core)
	b.dir[block] = e
	return lat, external
}

// FetchExclusive implements cache.Backend: core gains write ownership,
// invalidating all other holders. Each peer whose hierarchy still held
// the block receives an invalidation-observed signal.
func (b *Bus) FetchExclusive(core int, block uint64) (int, bool) {
	b.active |= 1 << uint(core)
	e, existed := b.dir[block]
	if !existed {
		e = newEntry
	}
	external := false
	mask := b.probeMask(e) &^ (1 << uint(core))
	hadRemoteCopy := mask != 0
	for m := mask; m != 0; m &= m - 1 {
		c := bits.TrailingZeros32(m)
		if c == e.owner {
			external = true
		}
		b.probeInvalidate(c, block)
	}
	if e.dma || e.foreignWriter(core) {
		external = true
	}
	var lat int
	switch {
	case e.owner == core:
		lat = 0
	case external:
		lat = b.remoteLat
	case hadRemoteCopy || e.sharers&(1<<uint(core)) != 0:
		// Upgrade of a shared copy: address message only.
		lat = AddrLatency
		if len(b.peers) == 1 {
			lat = 0
		}
	default:
		lat = b.memLat + AddrLatency + DataLatency
		if len(b.peers) == 1 {
			lat = b.memLat
		}
	}
	b.dir[block] = entry{owner: core, sharers: 1 << uint(core), lastWriter: core}
	return lat, external
}

func (b *Bus) probeInvalidate(core int, block uint64) {
	p := b.peers[core]
	hit := false
	if p != nil {
		hit = p.SnoopInvalidate(block)
	}
	if hit {
		b.Stats.Invalidations++
		if fn := b.onInv[core]; fn != nil {
			fn(block)
		}
	} else {
		b.Stats.FilteredProbes++
	}
}

// Probe invalidates every cached copy of block without changing the
// block's data, ownership history, or external-source marking: pure
// coherence contention. Litmus sweeps use it as a timing perturbation —
// each delivered probe reaches the snooping load queues and the
// no-recent-snoop filter exactly like a real remote write's
// invalidation, while the memory image is untouched.
func (b *Bus) Probe(block uint64) {
	e, ok := b.dir[block]
	if !ok {
		return
	}
	for m := b.probeMask(e); m != 0; m &= m - 1 {
		b.probeInvalidate(bits.TrailingZeros32(m), block)
	}
	e.owner, e.sharers = ownerNone, 0
	b.dir[block] = e
}

// StillExclusive implements cache.Backend.
func (b *Bus) StillExclusive(core int, block uint64) bool {
	e, ok := b.dir[block]
	return ok && e.owner == core
}

// DMAWrite records a coherent DMA write to block: all cached copies are
// invalidated and the block is marked externally produced, so the next
// processor fill is an external-source fill.
func (b *Bus) DMAWrite(block uint64) {
	b.Stats.DMAWrites++
	if b.Trace != nil {
		var cyc int64
		if b.Now != nil {
			cyc = b.Now()
		}
		b.Trace.Emit(trace.Event{Cycle: cyc, Core: -1, Kind: trace.KDMAWrite, Addr: block})
	}
	if e, ok := b.dir[block]; ok {
		for m := b.probeMask(e); m != 0; m &= m - 1 {
			b.probeInvalidate(bits.TrailingZeros32(m), block)
		}
	}
	b.dir[block] = entry{owner: ownerNone, lastWriter: dmaWriterID, dma: true}
}
