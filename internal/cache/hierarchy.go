package cache

import "vbmo/internal/reuse"

// Source identifies where an access was satisfied.
type Source int

const (
	// SrcL1 .. SrcMemory name the level that supplied the data.
	SrcL1 Source = iota
	SrcL2
	SrcL3
	SrcMemory
	// SrcRemote marks a fill sourced from another processor's cache
	// (or a coherent DMA agent) — the "external source" of the paper's
	// no-recent-miss filter.
	SrcRemote
	// SrcMSHR marks an access merged into an outstanding miss.
	SrcMSHR
)

// String names the source.
func (s Source) String() string {
	switch s {
	case SrcL1:
		return "L1"
	case SrcL2:
		return "L2"
	case SrcL3:
		return "L3"
	case SrcMemory:
		return "memory"
	case SrcRemote:
		return "remote"
	case SrcMSHR:
		return "mshr"
	}
	return "?"
}

// AccessResult reports the timing of one cache access.
type AccessResult struct {
	// Latency is the cycles until data is available.
	Latency int
	// Source is where the data came from.
	Source Source
	// External is true when the block entered the local hierarchy from
	// another processor's cache or a DMA agent.
	External bool
}

// Backend resolves accesses that miss the private hierarchy. The
// multiprocessor bus implements it; uniprocessors use MemoryBackend.
type Backend interface {
	// FetchRead obtains a readable copy of block for core.
	FetchRead(core int, block uint64) (latency int, external bool)
	// FetchExclusive obtains an exclusive (writable) copy of block for
	// core, invalidating remote copies.
	FetchExclusive(core int, block uint64) (latency int, external bool)
	// StillExclusive reports whether core already holds block
	// exclusively (no upgrade needed to write).
	StillExclusive(core int, block uint64) bool
}

// MemoryBackend is the uniprocessor backend: a flat memory with a fixed
// latency and no other agents.
type MemoryBackend struct {
	// Latency is the memory access latency (Table 3: 400 cycles).
	Latency int
}

// FetchRead implements Backend.
func (m MemoryBackend) FetchRead(int, uint64) (int, bool) { return m.Latency, false }

// FetchExclusive implements Backend.
func (m MemoryBackend) FetchExclusive(int, uint64) (int, bool) { return m.Latency, false }

// StillExclusive implements Backend: a uniprocessor always owns its
// cached blocks.
func (m MemoryBackend) StillExclusive(int, uint64) bool { return true }

// HierConfig sizes the private hierarchy.
type HierConfig struct {
	L1I, L1D, L2, L3 Config
	// PrefetchEntries sizes the stride prefetcher table (0 disables).
	PrefetchEntries int
	// TLBEntries/TLBWays size the data TLB (0 disables translation
	// modeling); TLBWalkLatency is the hardware page-walk penalty.
	TLBEntries, TLBWays, TLBWalkLatency int
}

// DefaultHierConfig returns the Table 3 hierarchy: 32k direct-mapped
// L1I/L1D (1 cycle), 256k 8-way L2 (7), 8M 8-way unified L3 (15).
func DefaultHierConfig() HierConfig {
	return HierConfig{
		L1I:             Config{Size: 32 << 10, Ways: 1, Latency: 1},
		L1D:             Config{Size: 32 << 10, Ways: 1, Latency: 1},
		L2:              Config{Size: 256 << 10, Ways: 8, Latency: 7},
		L3:              Config{Size: 8 << 20, Ways: 8, Latency: 15},
		PrefetchEntries: 256,
		TLBEntries:      128,
		TLBWays:         4,
		TLBWalkLatency:  30,
	}
}

// Stats are the hierarchy's event counters.
type Stats struct {
	Reads, Writes       uint64
	L1DHits             uint64
	L2Hits, L3Hits      uint64
	MemFills            uint64
	RemoteFills         uint64
	MSHRMerges          uint64
	Prefetches          uint64
	SnoopInvalidations  uint64 // external invalidations that hit locally
	SnoopMisses         uint64 // external invalidations filtered out
	InstrFetches        uint64
	InstrMisses         uint64
	WriteUpgrades       uint64
	ExternalFillSignals uint64
}

// Hierarchy is one core's private, inclusive, three-level cache
// hierarchy plus MSHRs and the stride prefetcher.
type Hierarchy struct {
	Core    int
	cfg     HierConfig
	l1i     *Array
	l1d     *Array
	l2      *Array
	l3      *Array
	pf      *StridePrefetcher
	tlb     *TLB
	backend Backend
	mshr    map[uint64]int64 // block -> fill-ready cycle
	// OnFill, if set, is called when a block enters the local hierarchy
	// (demand misses and store write-allocates) or re-enters it in a
	// new coherence state (a bus exclusivity upgrade). This is the
	// paper's no-recent-miss signal ("each time a new cache block
	// enters a processor's local cache, the cache unit asserts a
	// signal", §3.1), asserted for every demand fill regardless of
	// source: a fill from memory can race a remote store to the same
	// block — the data crosses the bus before the store performs, the
	// later invalidation is not a fill, and a premature load bound to
	// the fill's value would commit stale with no event in between (the
	// SB litmus test exposes exactly this with cold caches). Upgrades
	// are the write side of the same argument: a dependence cycle
	// through this processor must enter through some bus transaction
	// program-ordered before the vulnerable load, and with warm caches
	// a store's upgrade can be the only one (SB again, prewarmed).
	// External prefetch fills also assert it.
	OnFill func(block uint64)
	// OnExternalFill, if set, is called for the subset of fills sourced
	// from another processor's cache or a DMA agent.
	OnExternalFill func(block uint64)
	// OnL3Evict, if set, is called when a block leaves the inclusive
	// hierarchy. Load-queue snooping and the no-recent-snoop filter
	// subscribe so that external-invalidate visibility is not lost to
	// castouts (paper §3.1).
	OnL3Evict func(block uint64)
	Stats     Stats
}

// NewHierarchy builds one core's hierarchy over the given backend.
func NewHierarchy(core int, cfg HierConfig, backend Backend) *Hierarchy {
	h := new(Hierarchy)
	h.Reset(core, cfg, backend)
	return h
}

// Reset rebuilds h in place as NewHierarchy would build it — every
// level empty, no outstanding misses, no callbacks — keeping the tag
// arrays', TLB's and prefetcher's storage for reuse.
func (h *Hierarchy) Reset(core int, cfg HierConfig, backend Backend) {
	pf, tlb := h.pf, h.tlb
	*h = Hierarchy{
		Core:    core,
		cfg:     cfg,
		l1i:     reuse.Ptr(h.l1i),
		l1d:     reuse.Ptr(h.l1d),
		l2:      reuse.Ptr(h.l2),
		l3:      reuse.Ptr(h.l3),
		backend: backend,
		mshr:    h.mshr,
	}
	h.l1i.Reset(cfg.L1I)
	h.l1d.Reset(cfg.L1D)
	h.l2.Reset(cfg.L2)
	h.l3.Reset(cfg.L3)
	if h.mshr == nil {
		h.mshr = make(map[uint64]int64)
	} else {
		clear(h.mshr)
	}
	if cfg.PrefetchEntries > 0 {
		h.pf = reuse.Ptr(pf)
		h.pf.Reset(cfg.PrefetchEntries)
	}
	if cfg.TLBEntries > 0 {
		h.tlb = reuse.Ptr(tlb)
		h.tlb.Reset(cfg.TLBEntries, cfg.TLBWays, cfg.TLBWalkLatency)
	}
}

// ResetStats zeroes the hierarchy's counters — Stats and the per-level,
// TLB and prefetcher counts — leaving cache contents untouched.
func (h *Hierarchy) ResetStats() {
	h.Stats = Stats{}
	for _, a := range [...]*Array{h.l1i, h.l1d, h.l2, h.l3} {
		a.Accesses, a.Hits = 0, 0
	}
	if h.tlb != nil {
		h.tlb.Accesses, h.tlb.Misses = 0, 0
	}
	if h.pf != nil {
		h.pf.Issued = 0
	}
}

// DataTLB returns the data TLB (nil when translation modeling is off).
func (h *Hierarchy) DataTLB() *TLB { return h.tlb }

// fill inserts block into every level, enforcing inclusion on evictions
// (an L3 victim is purged from L2 and L1; an L2 victim from L1).
func (h *Hierarchy) fill(block uint64) {
	if v, ev := h.l3.Insert(block); ev {
		h.l2.Invalidate(v)
		h.l1d.Invalidate(v)
		h.l1i.Invalidate(v)
		if h.OnL3Evict != nil {
			h.OnL3Evict(v)
		}
	}
	if v, ev := h.l2.Insert(block); ev {
		h.l1d.Invalidate(v)
		h.l1i.Invalidate(v)
	}
	h.l1d.Insert(block)
}

// Read performs a demand data read for the load at pc, returning its
// timing. cycle is the current simulation cycle (for MSHR merging).
func (h *Hierarchy) Read(pc, addr uint64, cycle int64) AccessResult {
	h.Stats.Reads++
	block := BlockAddr(addr)
	res := h.lookupData(block, cycle)
	if h.tlb != nil {
		// Demand accesses translate; replay accesses (ReadReplay) reuse
		// the premature translation (paper §3).
		res.Latency += h.tlb.Translate(addr)
	}
	h.observePrefetch(pc, addr)
	return res
}

func (h *Hierarchy) lookupData(block uint64, cycle int64) AccessResult {
	if h.l1d.Lookup(block) {
		h.Stats.L1DHits++
		return AccessResult{Latency: h.cfg.L1D.Latency, Source: SrcL1}
	}
	if ready, ok := h.mshr[block]; ok {
		if ready > cycle {
			h.Stats.MSHRMerges++
			return AccessResult{Latency: int(ready - cycle), Source: SrcMSHR}
		}
		delete(h.mshr, block)
	}
	if h.l2.Lookup(block) {
		h.fill(block)
		h.Stats.L2Hits++
		return AccessResult{Latency: h.cfg.L2.Latency, Source: SrcL2}
	}
	if h.l3.Lookup(block) {
		h.fill(block)
		h.Stats.L3Hits++
		return AccessResult{Latency: h.cfg.L3.Latency, Source: SrcL3}
	}
	lat, external := h.backend.FetchRead(h.Core, block)
	lat += h.cfg.L3.Latency // miss traverses the hierarchy
	h.fill(block)
	h.mshr[block] = cycle + int64(lat)
	if h.OnFill != nil {
		h.OnFill(block)
	}
	src := SrcMemory
	if external {
		src = SrcRemote
		h.Stats.RemoteFills++
		h.signalExternalFill(block)
	} else {
		h.Stats.MemFills++
	}
	return AccessResult{Latency: lat, Source: src, External: external}
}

func (h *Hierarchy) signalExternalFill(block uint64) {
	h.Stats.ExternalFillSignals++
	if h.OnExternalFill != nil {
		h.OnExternalFill(block)
	}
}

func (h *Hierarchy) observePrefetch(pc, addr uint64) {
	if h.pf == nil {
		return
	}
	if next, ok := h.pf.Observe(pc, addr); ok {
		if !h.l1d.Contains(next) {
			// Prefetch fills are modeled as free background traffic;
			// in a multiprocessor they still acquire a read copy so
			// the coherence directory stays exact.
			if !h.l2.Contains(next) && !h.l3.Contains(next) {
				_, external := h.backend.FetchRead(h.Core, next)
				if external && h.OnFill != nil {
					// Prefetched externally-written blocks also "enter
					// the hierarchy" and must assert the signal.
					h.OnFill(next)
				}
			}
			h.fill(next)
			h.Stats.Prefetches++
		}
	}
}

// Prewarm establishes a read copy of addr's block through the normal
// fill path — the backend (bus directory) registers this core as a
// sharer, so later invalidations are still delivered — without charging
// an MSHR into the future and without asserting the no-recent-miss
// fill signal (prewarming models pre-run state, not a mid-run event).
func (h *Hierarchy) Prewarm(addr uint64) {
	block := BlockAddr(addr)
	if h.l1d.Lookup(block) {
		return
	}
	if !h.l2.Contains(block) && !h.l3.Contains(block) {
		h.backend.FetchRead(h.Core, block)
	}
	h.fill(block)
	delete(h.mshr, block)
}

// ReadReplay performs the replay stage's second cache access for a
// load: identical timing to Read, but it does not train the stride
// prefetcher (replays revisit old addresses and would destroy stride
// confidence).
func (h *Hierarchy) ReadReplay(addr uint64, cycle int64) AccessResult {
	h.Stats.Reads++
	return h.lookupData(BlockAddr(addr), cycle)
}

// Write performs a store's cache access at commit. The store's data is
// written to the shared memory image by the pipeline; this models the
// tag/coherence side: write-allocate and exclusivity upgrade.
func (h *Hierarchy) Write(addr uint64, cycle int64) AccessResult {
	h.Stats.Writes++
	if h.tlb != nil {
		// Store agens translated earlier in the pipe; commit-time
		// writes reuse that translation. Charge the lookup without a
		// stall (the agen hid the walk) but keep the statistics exact.
		h.tlb.Translate(addr)
	}
	block := BlockAddr(addr)
	present := h.l1d.Lookup(block) || h.l2.Contains(block) || h.l3.Contains(block)
	if present && h.backend.StillExclusive(h.Core, block) {
		return AccessResult{Latency: h.cfg.L1D.Latency, Source: SrcL1}
	}
	lat, external := h.backend.FetchExclusive(h.Core, block)
	h.Stats.WriteUpgrades++
	h.fill(block)
	if h.OnFill != nil {
		// A store's write-allocate brings a block into the hierarchy,
		// and an exclusivity upgrade re-acquires one over the bus; both
		// assert the no-recent-miss signal (see the OnFill doc — the
		// upgrade case is what catches warm-cache SB).
		h.OnFill(block)
	}
	if external {
		h.Stats.RemoteFills++
		h.signalExternalFill(block)
	}
	if present {
		// Upgrade of an already-present shared copy.
		lat = h.cfg.L1D.Latency
	}
	return AccessResult{Latency: lat, Source: SrcL1, External: external}
}

// InstrFetch models an instruction-cache access for the fetch stage.
func (h *Hierarchy) InstrFetch(pc uint64) AccessResult {
	h.Stats.InstrFetches++
	block := BlockAddr(pc)
	if h.l1i.Lookup(block) {
		return AccessResult{Latency: h.cfg.L1I.Latency, Source: SrcL1}
	}
	h.Stats.InstrMisses++
	lat := h.cfg.L2.Latency
	if !h.l2.Lookup(block) {
		if h.l3.Lookup(block) {
			lat = h.cfg.L3.Latency
		} else {
			mlat, _ := h.backend.FetchRead(h.Core, block)
			lat = h.cfg.L3.Latency + mlat
		}
		h.l3.Insert(block)
		h.l2.Insert(block)
	}
	h.l1i.Insert(block)
	return AccessResult{Latency: lat, Source: SrcL2}
}

// SnoopInvalidate implements the coherence peer interface: it purges the
// block from the whole private hierarchy and reports whether any copy
// was present (an inclusive hierarchy filters snoops that miss the L3).
func (h *Hierarchy) SnoopInvalidate(block uint64) bool {
	hit := h.l3.Invalidate(block)
	h.l2.Invalidate(block)
	h.l1d.Invalidate(block)
	delete(h.mshr, BlockAddr(block)) // kill any outstanding fill

	if hit {
		h.Stats.SnoopInvalidations++
	} else {
		h.Stats.SnoopMisses++
	}
	return hit
}

// SnoopSharedProbe reports whether the block is present locally (used
// for cache-to-cache transfer decisions); tag-only modeling needs no
// state change on a downgrade.
func (h *Hierarchy) SnoopSharedProbe(block uint64) bool {
	return h.l3.Contains(block) || h.l2.Contains(block) || h.l1d.Contains(block)
}

// L1DContains reports L1 data-cache presence (used by tests and the
// replay stage's hit assumption checks).
func (h *Hierarchy) L1DContains(addr uint64) bool { return h.l1d.Contains(BlockAddr(addr)) }

// MissRates returns the L1D/L2/L3 demand miss rates.
func (h *Hierarchy) MissRates() (l1, l2, l3 float64) {
	return h.l1d.MissRate(), h.l2.MissRate(), h.l3.MissRate()
}
