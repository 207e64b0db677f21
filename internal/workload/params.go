// Package workload generates the synthetic benchmark programs that stand
// in for the paper's SPEC CPU2000, SPLASH-2 and commercial workloads
// (DESIGN.md §2). Each named workload is a parameterised program whose
// dynamic properties — instruction mix, working-set size, branch
// predictability, pointer chasing, store value locality, late-resolving
// store addresses, and (for multiprocessor workloads) sharing and
// contention patterns — are the properties the value-based replay
// mechanism and its filters actually respond to.
package workload

// Params describes one synthetic workload. Fractions are of dynamic
// instructions unless stated otherwise; the generator self-balances its
// emission so the realized mix tracks these targets.
type Params struct {
	// Name identifies the workload ("gzip", "ocean", ...).
	Name string
	// Suite is "specint", "specfp", "commercial" or "splash2".
	Suite string
	// Multi marks workloads intended for the multiprocessor system.
	Multi bool
	// BenchOnly marks workloads used only to measure the simulator's
	// own speed (cmd/vbrbench and the speed-layer tests); they are
	// excluded from the figure and litmus sweeps so the paper-facing
	// outputs are unchanged by their presence.
	BenchOnly bool

	// Instruction mix targets. The remainder after loads, stores and
	// branches is ALU work, split by the FP/Mul/Div fractions below.
	LoadFrac   float64 // paper: loads ~30% of dynamic instructions
	StoreFrac  float64 // paper: stores ~14%
	BranchFrac float64

	// FPFrac is the fraction of ALU work executed on FP units; MulFrac
	// and DivFrac the fraction on integer multiplier/divider.
	FPFrac  float64
	MulFrac float64
	DivFrac float64

	// WorkingSet is the private data footprint in bytes (power of two).
	WorkingSet int
	// Locality is the number of memory accesses performed per computed
	// block base: higher values mean more spatial locality.
	Locality int
	// Stream is the probability a base-address update is a cheap
	// next-block stream (sequential access) rather than a random jump
	// within the working set.
	Stream float64
	// PointerChase is the probability a base-address computation is a
	// pointer dereference (load feeding the next load's address).
	PointerChase float64

	// SilentStores is the probability a store rewrites the value
	// already in memory (store value locality; Lepak & Lipasti).
	SilentStores float64
	// StoreAddrLate is the probability a store's address depends on a
	// long-latency (divide) chain, leaving it unresolved while younger
	// loads issue.
	StoreAddrLate float64
	// RAWHazard is the probability that a late-address store is
	// immediately followed by a load to the same address — the Figure
	// 1(a) premature-load scenario.
	RAWHazard float64
	// ForwardFrac is the probability a store is followed by a load to
	// the same address with a resolved store address (exercises
	// store→load forwarding).
	ForwardFrac float64

	// BranchBias is the taken-probability of data-dependent branches.
	BranchBias float64
	// RandomBranches is the fraction of conditional branches whose
	// outcome is data-dependent (hard to predict); the rest are
	// loop-closing countdown branches.
	RandomBranches float64
	// LoopTrip is the trip count of inner countdown loops.
	LoopTrip int

	// Multiprocessor knobs (ignored when Multi is false).

	// SharedFrac is the fraction of memory accesses to the shared
	// segment.
	SharedFrac float64
	// HotFrac is the fraction of shared accesses that target the small
	// hot set (contended blocks).
	HotFrac float64
	// FalseSharing is the probability a hot access uses a per-core
	// word within the shared block (coherence traffic without value
	// conflicts) rather than the same word (true races).
	FalseSharing float64
	// Barriers is the probability of emitting a membar after a shared
	// store.
	Barriers float64

	// CodeSize is the static program length in instructions. Large
	// commercial codes exceed the 32k L1 instruction cache, as their
	// real counterparts do.
	CodeSize int

	// IOFrac is the probability a base-address computation targets the
	// coherent memory-mapped I/O buffer region written by the DMA
	// agent. This applies to uniprocessor workloads too: coherent I/O
	// is the only snoop traffic a uniprocessor observes (paper §5.1).
	IOFrac float64
}

// sane fills defaults for fields a catalog entry leaves zero.
func (p Params) sane() Params {
	if p.LoadFrac == 0 {
		p.LoadFrac = 0.30
	}
	if p.StoreFrac == 0 {
		p.StoreFrac = 0.14
	}
	if p.BranchFrac == 0 {
		p.BranchFrac = 0.12
	}
	if p.WorkingSet == 0 {
		p.WorkingSet = 256 << 10
	}
	if p.Locality == 0 {
		p.Locality = 4
	}
	if p.Stream == 0 {
		p.Stream = 0.5
	}
	if p.BranchBias == 0 {
		p.BranchBias = 0.5
	}
	if p.LoopTrip == 0 {
		p.LoopTrip = 8
	}
	if p.IOFrac == 0 {
		p.IOFrac = 0.002
	}
	if p.CodeSize == 0 {
		p.CodeSize = 1600
	}
	return p
}

// Catalog returns every named workload, uniprocessor suites first.
// Parameter choices follow the published characteristics of each
// benchmark at the fidelity the experiments need; see DESIGN.md §2.
func Catalog() []Params {
	list := []Params{
		// SPECint2000-like uniprocessor workloads.
		{Name: "gzip", Suite: "specint", WorkingSet: 64 << 10, Locality: 10, Stream: 0.8,
			RandomBranches: 0.20, BranchBias: 0.6, SilentStores: 0.35,
			StoreAddrLate: 0.016, ForwardFrac: 0.15, RAWHazard: 0.02},
		{Name: "gcc", Suite: "specint", CodeSize: 6000, WorkingSet: 128 << 10, Locality: 18, Stream: 0.75,
			BranchFrac: 0.16, RandomBranches: 0.34, BranchBias: 0.55,
			SilentStores: 0.45, StoreAddrLate: 0.032, ForwardFrac: 0.20, RAWHazard: 0.03},
		{Name: "mcf", Suite: "specint", WorkingSet: 1 << 20, Locality: 6, Stream: 0.15,
			PointerChase: 0.65, RandomBranches: 0.30, BranchBias: 0.45,
			SilentStores: 0.30, StoreAddrLate: 0.020, RAWHazard: 0.02},
		{Name: "parser", Suite: "specint", WorkingSet: 64 << 10, Locality: 9, Stream: 0.6,
			PointerChase: 0.35, RandomBranches: 0.30, BranchBias: 0.5,
			SilentStores: 0.40, StoreAddrLate: 0.024, ForwardFrac: 0.18, RAWHazard: 0.03},
		{Name: "vortex", Suite: "specint", CodeSize: 5000, WorkingSet: 128 << 10, Locality: 16, Stream: 0.8,
			StoreFrac: 0.20, LoadFrac: 0.28, RandomBranches: 0.14, BranchBias: 0.7,
			SilentStores: 0.55, StoreAddrLate: 0.048, ForwardFrac: 0.25, RAWHazard: 0.04},
		{Name: "bzip2", Suite: "specint", WorkingSet: 128 << 10, Locality: 8, Stream: 0.7,
			RandomBranches: 0.34, BranchBias: 0.6, SilentStores: 0.30,
			StoreAddrLate: 0.016, ForwardFrac: 0.12, RAWHazard: 0.02},
		{Name: "twolf", Suite: "specint", WorkingSet: 32 << 10, Locality: 12, Stream: 0.7,
			PointerChase: 0.25, RandomBranches: 0.40, BranchBias: 0.5,
			SilentStores: 0.35, StoreAddrLate: 0.024, RAWHazard: 0.03},
		{Name: "gap", Suite: "specint", WorkingSet: 64 << 10, Locality: 12,
			MulFrac: 0.10, PointerChase: 0.20, RandomBranches: 0.20, BranchBias: 0.6,
			SilentStores: 0.40, StoreAddrLate: 0.020, ForwardFrac: 0.15, RAWHazard: 0.02},
		{Name: "perlbmk", Suite: "specint", CodeSize: 5000, WorkingSet: 64 << 10, Locality: 12, Stream: 0.7,
			BranchFrac: 0.18, PointerChase: 0.25, RandomBranches: 0.30, BranchBias: 0.55,
			SilentStores: 0.45, StoreAddrLate: 0.028, ForwardFrac: 0.22, RAWHazard: 0.03},
		{Name: "crafty", Suite: "specint", WorkingSet: 32 << 10, Locality: 10, Stream: 0.6,
			MulFrac: 0.05, PointerChase: 0.20, RandomBranches: 0.18, BranchBias: 0.6,
			SilentStores: 0.30, StoreAddrLate: 0.020, ForwardFrac: 0.10, RAWHazard: 0.02},
		{Name: "eon", Suite: "specint", WorkingSet: 16 << 10, Locality: 10, Stream: 0.6,
			FPFrac: 0.30, PointerChase: 0.15, RandomBranches: 0.14, BranchBias: 0.65,
			SilentStores: 0.25, StoreAddrLate: 0.020, ForwardFrac: 0.15, RAWHazard: 0.02},

		// SPECfp2000 workloads chosen by the paper for high reorder
		// buffer utilization.
		{Name: "apsi", Suite: "specfp", WorkingSet: 1 << 20, Locality: 12, Stream: 0.80,
			FPFrac: 0.65, DivFrac: 0.06, LoadFrac: 0.32, StoreFrac: 0.12,
			BranchFrac: 0.06, RandomBranches: 0.10, BranchBias: 0.7, LoopTrip: 16,
			SilentStores: 0.20, StoreAddrLate: 0.060, ForwardFrac: 0.10, RAWHazard: 0.05},
		{Name: "art", Suite: "specfp", WorkingSet: 2 << 20, Locality: 5, Stream: 0.6,
			FPFrac: 0.55, LoadFrac: 0.35, StoreFrac: 0.08, BranchFrac: 0.08,
			RandomBranches: 0.12, BranchBias: 0.6, LoopTrip: 32,
			SilentStores: 0.20, StoreAddrLate: 0.040, ForwardFrac: 0.05, RAWHazard: 0.04},
		{Name: "wupwise", Suite: "specfp", WorkingSet: 512 << 10, Locality: 10, Stream: 0.8,
			FPFrac: 0.60, MulFrac: 0.10, LoadFrac: 0.30, StoreFrac: 0.10,
			BranchFrac: 0.05, RandomBranches: 0.10, BranchBias: 0.8, LoopTrip: 24,
			SilentStores: 0.15, StoreAddrLate: 0.024, ForwardFrac: 0.08, RAWHazard: 0.02},

		// Commercial uniprocessor workloads.
		{Name: "tpcb", Suite: "commercial", CodeSize: 12000, WorkingSet: 512 << 10, Locality: 14, Stream: 0.75,
			BranchFrac: 0.16, RandomBranches: 0.34, BranchBias: 0.55,
			SilentStores: 0.50, StoreAddrLate: 0.040, ForwardFrac: 0.25, RAWHazard: 0.04},
		{Name: "tpch", Suite: "commercial", CodeSize: 10000, WorkingSet: 512 << 10, Locality: 10, Stream: 0.7,
			BranchFrac: 0.14, RandomBranches: 0.24, BranchBias: 0.6,
			SilentStores: 0.45, StoreAddrLate: 0.032, ForwardFrac: 0.20, RAWHazard: 0.03},
		{Name: "jbb", Suite: "commercial", CodeSize: 12000, WorkingSet: 512 << 10, Locality: 12, Stream: 0.7,
			PointerChase: 0.30, BranchFrac: 0.16, RandomBranches: 0.30,
			BranchBias: 0.55, SilentStores: 0.50, StoreAddrLate: 0.036,
			ForwardFrac: 0.22, RAWHazard: 0.04},

		// SPLASH-2 and commercial multiprocessor workloads.
		{Name: "barnes", Suite: "splash2", Multi: true, WorkingSet: 512 << 10,
			Locality: 9, FPFrac: 0.40, PointerChase: 0.25,
			RandomBranches: 0.20, BranchBias: 0.6, SilentStores: 0.30,
			StoreAddrLate: 0.024, RAWHazard: 0.02,
			SharedFrac: 0.10, HotFrac: 0.07, FalseSharing: 0.60},
		{Name: "ocean", Suite: "splash2", Multi: true, WorkingSet: 4 << 20,
			Locality: 18, Stream: 0.95, FPFrac: 0.50, LoadFrac: 0.33,
			RandomBranches: 0.10, BranchBias: 0.75, LoopTrip: 32,
			SilentStores: 0.20, StoreAddrLate: 0.020, RAWHazard: 0.02,
			SharedFrac: 0.17, HotFrac: 0.05, FalseSharing: 0.80},
		{Name: "radiosity", Suite: "splash2", Multi: true, WorkingSet: 512 << 10,
			Locality: 9, FPFrac: 0.35, PointerChase: 0.30,
			RandomBranches: 0.24, BranchBias: 0.55, SilentStores: 0.35,
			StoreAddrLate: 0.028, RAWHazard: 0.03,
			SharedFrac: 0.12, HotFrac: 0.17, FalseSharing: 0.40},
		{Name: "raytrace", Suite: "splash2", Multi: true, WorkingSet: 1 << 20,
			Locality: 9, FPFrac: 0.40, PointerChase: 0.40,
			RandomBranches: 0.24, BranchBias: 0.55, SilentStores: 0.30,
			StoreAddrLate: 0.024, RAWHazard: 0.02,
			SharedFrac: 0.10, HotFrac: 0.21, FalseSharing: 0.35},
		{Name: "specweb", Suite: "commercial", Multi: true, CodeSize: 12000, WorkingSet: 2 << 20,
			Locality: 9, BranchFrac: 0.16, RandomBranches: 0.34,
			BranchBias: 0.55, SilentStores: 0.50, StoreAddrLate: 0.036,
			ForwardFrac: 0.20, RAWHazard: 0.04,
			SharedFrac: 0.07, HotFrac: 0.14, FalseSharing: 0.50, Barriers: 0.05},
		{Name: "jbb-mp", Suite: "commercial", Multi: true, CodeSize: 12000, WorkingSet: 2 << 20,
			Locality: 9, PointerChase: 0.25, BranchFrac: 0.16,
			RandomBranches: 0.30, BranchBias: 0.55, SilentStores: 0.50,
			StoreAddrLate: 0.036, ForwardFrac: 0.20, RAWHazard: 0.04,
			SharedFrac: 0.12, HotFrac: 0.24, FalseSharing: 0.30, Barriers: 0.05},
		{Name: "tpch-mp", Suite: "commercial", Multi: true, CodeSize: 10000, WorkingSet: 4 << 20,
			Locality: 9, BranchFrac: 0.14, PointerChase: 0.25, RandomBranches: 0.24,
			BranchBias: 0.6, SilentStores: 0.45, StoreAddrLate: 0.032,
			ForwardFrac: 0.18, RAWHazard: 0.03,
			SharedFrac: 0.07, HotFrac: 0.10, FalseSharing: 0.55, Barriers: 0.03},

		// Benchmark-only workloads (excluded from figure/litmus sweeps).
		// spin is a latency-bound pointer chase: nearly every access
		// computes its base from the previous load's value over a
		// footprint far beyond the caches, so the core spends hundreds
		// of cycles per miss with an empty schedule — the stall-heavy
		// shape the quiescence fast-forward (DESIGN.md §12) exists for.
		{Name: "spin", Suite: "bench", BenchOnly: true, WorkingSet: 16 << 20,
			Locality: 1, Stream: 0.001, PointerChase: 0.95,
			LoadFrac: 0.42, StoreFrac: 0.04, BranchFrac: 0.05,
			RandomBranches: 0.02, BranchBias: 0.9, LoopTrip: 64,
			SilentStores: 0.20, StoreAddrLate: 0.004, RAWHazard: 0.01},
		// spin-mp is the 16-way variant: the same chase per core plus a
		// small shared hot set and barriers, so fast-forward windows are
		// bounded by cross-core coherence traffic as well as misses.
		{Name: "spin-mp", Suite: "bench", Multi: true, BenchOnly: true, WorkingSet: 16 << 20,
			Locality: 1, Stream: 0.001, PointerChase: 0.95,
			LoadFrac: 0.42, StoreFrac: 0.04, BranchFrac: 0.05,
			RandomBranches: 0.02, BranchBias: 0.9, LoopTrip: 64,
			SilentStores: 0.20, StoreAddrLate: 0.004, RAWHazard: 0.01,
			SharedFrac: 0.02, HotFrac: 0.10, FalseSharing: 0.50, Barriers: 0.01},
	}
	for i := range list {
		list[i] = list[i].sane()
	}
	return list
}

// ByName returns the catalog entry with the given name; ok is false when
// no workload has that name.
func ByName(name string) (Params, bool) {
	for _, p := range Catalog() {
		if p.Name == name {
			return p, true
		}
	}
	return Params{}, false
}

// Uniprocessor returns the catalog's uniprocessor sweep workloads
// (benchmark-only entries excluded).
func Uniprocessor() []Params {
	var out []Params
	for _, p := range Catalog() {
		if !p.Multi && !p.BenchOnly {
			out = append(out, p)
		}
	}
	return out
}

// Multiprocessor returns the catalog's multiprocessor sweep workloads
// (benchmark-only entries excluded).
func Multiprocessor() []Params {
	var out []Params
	for _, p := range Catalog() {
		if p.Multi && !p.BenchOnly {
			out = append(out, p)
		}
	}
	return out
}
