// Package fault is the simulator's deterministic fault injector: a
// seed-derived stream of adversarial events threaded through the
// pipeline, cache, and coherence layers so the verification machinery
// (value-based replay, the constraint-graph checker, the SC oracle) can
// be tested under active attack rather than by waiting for bugs.
//
// Cain & Lipasti observe that re-executing loads and comparing values is
// a general dynamic-verification net: besides ordering violations it
// catches transient value corruption. The injector makes that claim
// testable — it flips bits in premature load values and cache-sourced
// data, drops or delays the snoop/fill messages the NRS/NRM filters
// consume, and suppresses the NUS/window/rule-3 signals — and tracks
// every injection to an outcome (detected, missed, vacated, benign)
// with a fault→detection latency histogram.
//
// Determinism contract: all decisions come from one splitmix64 stream
// seeded by Config.Seed, consumed in simulation order. A system is
// stepped single-threaded, so a given (machine, workload, seed,
// fault-seed) tuple always injects the same faults at the same sites.
// Every hook is nil-guarded at the call site: with no injector attached
// the hot paths are bit-identical to an uninstrumented run.
package fault

import (
	"fmt"
	"sort"
	"strings"

	"vbmo/internal/trace"
)

// Kind is one fault class of the taxonomy (DESIGN.md §10).
type Kind uint8

const (
	// LoadValue flips one bit in a load's premature value, wherever it
	// came from (cache read or store-queue forward) — a transient error
	// in the load's datapath. Replay must detect it by value mismatch.
	LoadValue Kind = iota
	// CacheData flips one bit in a value delivered by the cache data
	// array (demand reads only, not forwards) — a transient error in the
	// array itself.
	CacheData
	// DropSnoop discards an external invalidation message before the
	// core's ordering machinery observes it (the cache still loses the
	// block). Starves snooping load queues and the no-recent-snoop
	// filter; the checker/oracle must flag the resulting executions.
	DropSnoop
	// DelaySnoop delivers an external invalidation late, with a
	// seed-derived jitter so back-to-back messages can also reorder.
	DelaySnoop
	// DropFill discards an external-fill signal (the no-recent-miss
	// filter's input).
	DropFill
	// DelayFill delivers an external-fill signal late (jittered, so
	// fills can reorder).
	DelayFill
	// SuppressNUS clears a load's no-unresolved-store flag, blinding the
	// RAW half of the composed replay filters.
	SuppressNUS
	// SuppressWindow discards the NoteExternalEvent signal that opens
	// the NRM/NRS replay window, blinding the consistency half.
	SuppressWindow
	// SuppressRule3 prevents the forward-progress rule-3 mark, so a
	// replay-squashed load may replay (and squash) again — the lever the
	// watchdog livelock tests pull.
	SuppressRule3

	numKinds
)

var kindNames = [numKinds]string{
	LoadValue:      "load-value",
	CacheData:      "cache-data",
	DropSnoop:      "drop-snoop",
	DelaySnoop:     "delay-snoop",
	DropFill:       "drop-fill",
	DelayFill:      "delay-fill",
	SuppressNUS:    "suppress-nus",
	SuppressWindow: "suppress-window",
	SuppressRule3:  "suppress-rule3",
}

// String returns the kind's stable name (the -fault flag vocabulary).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Class is what a kind attacks, which decides how a run under it is
// judged (Config.Judge).
type Class uint8

const (
	// Corruption kinds flip a load's value; commit-time replay must
	// detect the flip, and a missed one is vbrsim's exit 5.
	Corruption Class = iota
	// Delay kinds deliver a filter's notification late. They model
	// broken notification timing, not a broken filter rule, so a
	// battery run under them is informational.
	Delay
	// Sabotage kinds drop or suppress a filter input. A sabotaged
	// filter is an unsound filter, so the checker must flag its runs.
	Sabotage

	numClasses
)

var kindClasses = [numKinds]Class{
	LoadValue:      Corruption,
	CacheData:      Corruption,
	DropSnoop:      Sabotage,
	DelaySnoop:     Delay,
	DropFill:       Sabotage,
	DelayFill:      Delay,
	SuppressNUS:    Sabotage,
	SuppressWindow: Sabotage,
	SuppressRule3:  Sabotage,
}

// Class returns the kind's class.
func (k Kind) Class() Class { return kindClasses[k] }

// reason maps a kind to its trace reason.
func (k Kind) reason() trace.Reason {
	return trace.RFaultLoadValue + trace.Reason(k)
}

// Kinds returns every kind name, for usage strings.
func Kinds() []string {
	out := make([]string, numKinds)
	for i := range out {
		out[i] = Kind(i).String()
	}
	return out
}

// ParseKinds parses a comma-separated kind list ("load-value,drop-snoop").
// The pseudo-kind "all" selects everything except suppress-rule3 (which
// exists to provoke livelock and is only useful deliberately).
func ParseKinds(s string) ([]Kind, error) {
	var out []Kind
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if name == "all" {
			for k := Kind(0); k < numKinds; k++ {
				if k != SuppressRule3 {
					out = append(out, k)
				}
			}
			continue
		}
		found := false
		for k := Kind(0); k < numKinds; k++ {
			if k.String() == name {
				out = append(out, k)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("fault: unknown kind %q (valid: %s)",
				name, strings.Join(Kinds(), ", "))
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("fault: no kinds selected (valid: %s, or \"all\")",
			strings.Join(Kinds(), ", "))
	}
	return out, nil
}

// Config selects what to inject.
type Config struct {
	// Kinds is the enabled fault set.
	Kinds []Kind
	// Rate is the per-opportunity injection probability in [0, 1].
	Rate float64
	// Seed drives the injector's private decision stream.
	Seed uint64
	// Delay is the base latency (cycles) for Delay* kinds; each delayed
	// message gets a seed-derived jitter in [0, Delay) on top, so
	// messages can reorder. 0 selects the default (64).
	Delay int64
	// Max bounds total injections (0 = unlimited).
	Max uint64
}

// Enabled reports whether the configuration injects anything.
func (c *Config) Enabled() bool {
	return c != nil && len(c.Kinds) > 0 && c.Rate > 0
}

// FromFlags turns the CLIs' -fault, -fault-rate, -fault-seed and
// -fault-delay values into a plan; an empty kind list is nil, no plan.
func FromFlags(kinds string, rate float64, seed uint64, delay int64) (*Config, error) {
	if kinds == "" {
		return nil, nil
	}
	ks, err := ParseKinds(kinds)
	if err != nil {
		return nil, err
	}
	return &Config{Kinds: ks, Rate: rate, Seed: seed, Delay: delay}, nil
}

// ForRun returns the plan of the run at the given seed: c with the
// run's seed mixed into its own, so the runs of a sweep draw
// independent streams, and a run's stream depends only on the two
// seeds. It returns nil when c injects nothing.
func (c *Config) ForRun(seed uint64) *Config {
	if !c.Enabled() {
		return nil
	}
	d := *c
	d.Seed = c.Seed ^ (seed * 0x2545f4914f6cdd1d)
	return &d
}

// Verdict judges a litmus battery swept under a plan (Config.Judge).
type Verdict uint8

const (
	// Unsabotaged: no plan, or filter sabotage that never dropped or
	// suppressed an input. The battery ran as a plain one and answers
	// to the plain battery's contract.
	Unsabotaged Verdict = iota
	// Corrupted: the plan corrupts values and sabotages nothing that
	// took. Informational; replay's detection is asserted elsewhere.
	Corrupted
	// Delayed: the plan only delays notifications. Informational.
	Delayed
	// Caught: the sabotage took filter inputs away and the checker
	// flagged a run of a sound configuration.
	Caught
	// Escaped: the sabotage took filter inputs away and no run of a
	// sound configuration was flagged: the checker missed it.
	Escaped
)

var verdictNames = [...]string{
	Unsabotaged: "informational (no interference)",
	Corrupted:   "informational (value corruption)",
	Delayed:     "informational (timing only)",
	Caught:      "CAUGHT",
	Escaped:     "ESCAPED",
}

// String returns the verdict as the faults experiment prints it.
func (v Verdict) String() string { return verdictNames[v] }

// Judge returns the verdict on a litmus battery swept under plan c: st
// is the plan's accounting summed over the battery, and flagged counts
// the runs of sound configurations whose outcome the SC oracle forbade
// or whose constraint graph was cyclic. Filter sabotage is judged by
// what it did: one that dropped or suppressed an input must be flagged,
// and one that never did leaves a plain battery.
func (c *Config) Judge(st Stats, flagged int) Verdict {
	var has [numClasses]bool
	if c.Enabled() {
		for _, k := range c.Kinds {
			has[k.Class()] = true
		}
	}
	interfered := st.Dropped+st.Suppressed > 0
	switch {
	case has[Sabotage] && interfered && flagged > 0:
		return Caught
	case has[Sabotage] && interfered:
		return Escaped
	case has[Corruption]:
		return Corrupted
	case has[Delay]:
		return Delayed
	}
	return Unsabotaged
}

// Outcome classifies what became of one injection.
type Outcome uint8

const (
	// Pending: the corrupted load has not yet been verified or committed.
	Pending Outcome = iota
	// Detected: replay compared values, mismatched, and squashed.
	Detected
	// Missed: the corrupted value committed without a mismatch (the load
	// was filtered, or the machine has no replay stage).
	Missed
	// Vacated: the corrupted load was squashed for an unrelated reason
	// before verification (the corruption left the machine with it).
	Vacated
	// Benign: replay compared and the values matched — the flipped value
	// coincided with the commit-time memory value, so the committed
	// result is architecturally correct.
	Benign
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Pending:
		return "pending"
	case Detected:
		return "detected"
	case Missed:
		return "missed"
	case Vacated:
		return "vacated"
	case Benign:
		return "benign"
	}
	return fmt.Sprintf("outcome(%d)", int(o))
}

// Injection records one value corruption and its fate.
type Injection struct {
	ID     uint64  `json:"id"`
	Kind   Kind    `json:"-"`
	KindS  string  `json:"kind"`
	Core   int     `json:"core"`
	Tag    int64   `json:"tag"`
	PC     uint64  `json:"pc"`
	Addr   uint64  `json:"addr"`
	Before uint64  `json:"before"`
	After  uint64  `json:"after"`
	Cycle  int64   `json:"cycle"`
	Detect int64   `json:"detect_cycle"` // -1 until resolved
	Fate   Outcome `json:"-"`
	FateS  string  `json:"outcome"`
}

// Stats aggregates the injector's activity.
type Stats struct {
	// Injected counts value corruptions planted (LoadValue + CacheData).
	Injected uint64 `json:"injected"`
	// Detected/Missed/Vacated/Benign partition resolved injections.
	Detected uint64 `json:"detected"`
	Missed   uint64 `json:"missed"`
	Vacated  uint64 `json:"vacated"`
	Benign   uint64 `json:"benign"`
	// Dropped and Delayed count snoop/fill messages interfered with.
	Dropped uint64 `json:"dropped"`
	Delayed uint64 `json:"delayed"`
	// Suppressed counts NUS/window/rule-3 signals discarded.
	Suppressed uint64 `json:"suppressed"`
}

// latBuckets is the latency histogram's bucket count: bucket i holds
// detections with latency in [2^(i-1), 2^i) cycles (bucket 0 is latency
// 0), the last bucket is open-ended.
const latBuckets = 20

// Hist is a log2-bucketed fault→detection latency histogram.
type Hist struct {
	Buckets [latBuckets]uint64 `json:"buckets"`
	Count   uint64             `json:"count"`
	Sum     uint64             `json:"sum"`
	MaxLat  int64              `json:"max"`
}

// Add records one detection latency.
func (h *Hist) Add(lat int64) {
	if lat < 0 {
		lat = 0
	}
	b := 0
	for v := lat; v > 0; v >>= 1 {
		b++
	}
	if b >= latBuckets {
		b = latBuckets - 1
	}
	h.Buckets[b]++
	h.Count++
	h.Sum += uint64(lat)
	if lat > h.MaxLat {
		h.MaxLat = lat
	}
}

// Merge folds another histogram into this one.
func (h *Hist) Merge(o Hist) {
	for i := range h.Buckets {
		h.Buckets[i] += o.Buckets[i]
	}
	h.Count += o.Count
	h.Sum += o.Sum
	if o.MaxLat > h.MaxLat {
		h.MaxLat = o.MaxLat
	}
}

// Mean returns the mean detection latency in cycles.
func (h *Hist) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// String renders the non-empty buckets ("[4,8)=12 ..." style).
func (h *Hist) String() string {
	if h.Count == 0 {
		return "(empty)"
	}
	var b strings.Builder
	for i, n := range h.Buckets {
		if n == 0 {
			continue
		}
		lo, hi := int64(0), int64(1)
		if i > 0 {
			lo, hi = int64(1)<<(i-1), int64(1)<<i
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		if i == latBuckets-1 {
			fmt.Fprintf(&b, "[%d,∞)=%d", lo, n)
		} else {
			fmt.Fprintf(&b, "[%d,%d)=%d", lo, hi, n)
		}
	}
	fmt.Fprintf(&b, " mean=%.1f max=%d", h.Mean(), h.MaxLat)
	return b.String()
}

// liveKey identifies an unresolved injection: tags are per-core unique.
type liveKey struct {
	core int
	tag  int64
}

// delivery is one deferred message.
type delivery struct {
	seq uint64 // tiebreak so equal-due deliveries stay deterministic
	due int64
	fn  func()
}

// Injector is one system's fault source. It is not safe for concurrent
// use; a system steps its cores on one goroutine, and each sweep cell
// builds its own injector.
type Injector struct {
	cfg       Config
	enabled   [numKinds]bool
	threshold uint64 // next() < threshold ⇒ inject
	rng       uint64
	nextID    uint64
	delaySeq  uint64

	live    map[liveKey]int // index into Log
	Log     []Injection
	pending []delivery

	tr *trace.Tracer

	Stats Stats
	// Lat is the fault→detection latency histogram (Detected only).
	Lat Hist
}

// maxLog bounds the retained injection log; stats and the histogram
// keep counting past it (a rate-1.0 run would otherwise hold millions
// of records).
const maxLog = 65536

// NewInjector builds an injector. tr may be nil (no event emission).
func NewInjector(cfg Config, tr *trace.Tracer) *Injector {
	if cfg.Delay <= 0 {
		cfg.Delay = 64
	}
	in := &Injector{
		cfg:  cfg,
		rng:  cfg.Seed*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019,
		live: make(map[liveKey]int),
		tr:   tr,
	}
	for _, k := range cfg.Kinds {
		if k < numKinds {
			in.enabled[k] = true
		}
	}
	switch {
	case cfg.Rate >= 1:
		in.threshold = ^uint64(0)
	case cfg.Rate <= 0:
		in.threshold = 0
	default:
		in.threshold = uint64(cfg.Rate * float64(1<<63) * 2)
	}
	return in
}

func (in *Injector) next() uint64 {
	in.rng += 0x9e3779b97f4a7c15
	z := in.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// decide draws one decision for an enabled kind.
func (in *Injector) decide(k Kind) bool {
	if !in.enabled[k] {
		return false
	}
	if in.cfg.Max > 0 && in.totalInterference() >= in.cfg.Max {
		return false
	}
	if in.threshold == ^uint64(0) {
		in.next() // keep the stream advancing identically at rate 1
		return true
	}
	return in.next() < in.threshold
}

func (in *Injector) totalInterference() uint64 {
	return in.Stats.Injected + in.Stats.Dropped + in.Stats.Delayed + in.Stats.Suppressed
}

// MessageFaults reports whether any snoop/fill message kind is enabled
// (the system only wraps the delivery callbacks when it is).
func (in *Injector) MessageFaults() bool {
	return in.enabled[DropSnoop] || in.enabled[DelaySnoop] ||
		in.enabled[DropFill] || in.enabled[DelayFill]
}

// ---------------------------------------------------------------------
// Value corruption (pipeline load path).

// CorruptLoadValue is called at a load's premature execution with the
// value it is about to bind. fromCache distinguishes demand reads
// (CacheData eligible) from store-queue forwards. It returns the
// possibly-corrupted value and whether an injection happened.
func (in *Injector) CorruptLoadValue(core int, tag int64, pc, addr, v uint64, fromCache bool, cycle int64) (uint64, bool) {
	kind := numKinds
	switch {
	case in.decide(LoadValue):
		kind = LoadValue
	case fromCache && in.decide(CacheData):
		kind = CacheData
	default:
		return v, false
	}
	bit := in.next() & 63
	after := v ^ (1 << bit)
	in.Stats.Injected++
	rec := Injection{
		ID: in.nextID, Kind: kind, KindS: kind.String(), Core: core, Tag: tag,
		PC: pc, Addr: addr, Before: v, After: after, Cycle: cycle,
		Detect: -1, Fate: Pending, FateS: Pending.String(),
	}
	in.nextID++
	key := liveKey{core, tag}
	if len(in.Log) < maxLog {
		in.Log = append(in.Log, rec)
		in.live[key] = len(in.Log) - 1
	} else {
		in.live[key] = -1
	}
	if in.tr != nil {
		in.tr.Emit(trace.Event{Cycle: cycle, Core: int32(core),
			Kind: trace.KFaultInject, Reason: kind.reason(),
			Tag: tag, PC: pc, Addr: addr, Value: after, Aux: v})
	}
	return after, true
}

// resolve finalizes a live injection with the given outcome.
func (in *Injector) resolve(core int, tag int64, cycle int64, o Outcome) bool {
	key := liveKey{core, tag}
	idx, ok := in.live[key]
	if !ok {
		return false
	}
	delete(in.live, key)
	var rec *Injection
	if idx >= 0 {
		rec = &in.Log[idx]
		rec.Detect = cycle
		rec.Fate = o
		rec.FateS = o.String()
	}
	switch o {
	case Detected:
		in.Stats.Detected++
		var lat int64
		if rec != nil {
			lat = cycle - rec.Cycle
		}
		in.Lat.Add(lat)
		if in.tr != nil {
			ev := trace.Event{Cycle: cycle, Core: int32(core),
				Kind: trace.KFaultDetect, Tag: tag, Value: uint64(lat)}
			if rec != nil {
				ev.PC, ev.Addr = rec.PC, rec.Addr
			}
			in.tr.Emit(ev)
		}
	case Missed:
		in.Stats.Missed++
		if in.tr != nil {
			ev := trace.Event{Cycle: cycle, Core: int32(core),
				Kind: trace.KFaultMiss, Tag: tag}
			if rec != nil {
				ev.PC, ev.Addr, ev.Value = rec.PC, rec.Addr, rec.After
			}
			in.tr.Emit(ev)
		}
	case Vacated:
		in.Stats.Vacated++
	case Benign:
		in.Stats.Benign++
	}
	return true
}

// OnReplayVerdict is called when the replay stage finished comparing a
// load's premature value against its replayed value.
func (in *Injector) OnReplayVerdict(core int, tag int64, mismatch bool, cycle int64) {
	if mismatch {
		in.resolve(core, tag, cycle, Detected)
	} else {
		in.resolve(core, tag, cycle, Benign)
	}
}

// OnLoadCommit is called when a load commits. An injection still live at
// commit escaped verification: the corrupted value is architectural.
func (in *Injector) OnLoadCommit(core int, tag int64, cycle int64) {
	in.resolve(core, tag, cycle, Missed)
}

// OnSquash vacates pending injections on killed loads (tag >= fromTag):
// the corruption left the machine with the squashed instruction.
func (in *Injector) OnSquash(core int, fromTag int64, cycle int64) {
	// resolve emits trace events and mutates in.live, so the vacated
	// set must be collected and ordered before resolving: map order
	// here would shuffle the traced event stream between runs.
	var hits []liveKey
	for key := range in.live {
		if key.core == core && key.tag >= fromTag {
			hits = append(hits, key)
		}
	}
	sort.Slice(hits, func(i, j int) bool { return hits[i].tag < hits[j].tag })
	for _, key := range hits {
		in.resolve(key.core, key.tag, cycle, Vacated)
	}
}

// ---------------------------------------------------------------------
// Signal suppression (pipeline filter inputs).

func (in *Injector) suppress(k Kind, core int, cycle int64) bool {
	if !in.decide(k) {
		return false
	}
	in.Stats.Suppressed++
	if in.tr != nil {
		in.tr.Emit(trace.Event{Cycle: cycle, Core: int32(core),
			Kind: trace.KFaultInject, Reason: k.reason()})
	}
	return true
}

// SuppressNUS reports whether to clear this load's NUS flag.
func (in *Injector) SuppressNUS(core int, cycle int64) bool {
	return in.suppress(SuppressNUS, core, cycle)
}

// SuppressWindow reports whether to discard a NoteExternalEvent signal.
func (in *Injector) SuppressWindow(core int, cycle int64) bool {
	return in.suppress(SuppressWindow, core, cycle)
}

// SuppressRule3 reports whether to withhold the rule-3 no-replay mark.
func (in *Injector) SuppressRule3(core int, cycle int64) bool {
	return in.suppress(SuppressRule3, core, cycle)
}

// ---------------------------------------------------------------------
// Message interference (system snoop/fill wiring).

// fate decides a message's fate for a (drop, delay) kind pair: dropped,
// or delayed by extra cycles (0 = deliver now).
func (in *Injector) fate(drop, delay Kind, core int, cycle int64) (dropped bool, extra int64) {
	if in.decide(drop) {
		in.Stats.Dropped++
		if in.tr != nil {
			in.tr.Emit(trace.Event{Cycle: cycle, Core: int32(core),
				Kind: trace.KFaultInject, Reason: drop.reason()})
		}
		return true, 0
	}
	if in.decide(delay) {
		in.Stats.Delayed++
		extra = in.cfg.Delay + int64(in.next()%uint64(in.cfg.Delay))
		if in.tr != nil {
			in.tr.Emit(trace.Event{Cycle: cycle, Core: int32(core),
				Kind: trace.KFaultInject, Reason: delay.reason(),
				Value: uint64(extra)})
		}
		return false, extra
	}
	return false, 0
}

// SnoopFate decides an invalidation message's fate.
func (in *Injector) SnoopFate(core int, cycle int64) (dropped bool, extra int64) {
	return in.fate(DropSnoop, DelaySnoop, core, cycle)
}

// FillFate decides an external-fill signal's fate.
func (in *Injector) FillFate(core int, cycle int64) (dropped bool, extra int64) {
	return in.fate(DropFill, DelayFill, core, cycle)
}

// Defer schedules fn for the given cycle (delayed message delivery).
func (in *Injector) Defer(due int64, fn func()) {
	in.pending = append(in.pending, delivery{seq: in.delaySeq, due: due, fn: fn})
	in.delaySeq++
}

// DeliverDue runs every deferred delivery whose cycle has arrived, in
// (due, insertion) order — the jittered due cycles are what reorder
// messages relative to their send order.
func (in *Injector) DeliverDue(now int64) {
	if len(in.pending) == 0 {
		return
	}
	var due []delivery
	rest := in.pending[:0]
	for _, d := range in.pending {
		if d.due <= now {
			due = append(due, d)
		} else {
			rest = append(rest, d)
		}
	}
	in.pending = rest
	sort.Slice(due, func(i, j int) bool {
		if due[i].due != due[j].due {
			return due[i].due < due[j].due
		}
		return due[i].seq < due[j].seq
	})
	for _, d := range due {
		d.fn()
	}
}

// NextDue returns the earliest due cycle among undelivered deferred
// messages; ok is false when none are pending. The system's quiescence
// fast-forward uses it as a wake event: a skipped window never crosses
// (or lands on) a deferred delivery, so quiescence is never declared
// with a message due.
func (in *Injector) NextDue() (due int64, ok bool) {
	if len(in.pending) == 0 {
		return 0, false
	}
	due = in.pending[0].due
	for _, d := range in.pending[1:] {
		if d.due < due {
			due = d.due
		}
	}
	return due, true
}

// PendingMessages returns the count of undelivered deferred messages.
func (in *Injector) PendingMessages() int { return len(in.pending) }

// PendingInjections returns the count of unresolved value corruptions
// (loads still in flight at the end of a run).
func (in *Injector) PendingInjections() int { return len(in.live) }

// Summary renders the injector's end-of-run accounting in one line.
func (in *Injector) Summary() string {
	s := in.Stats
	return fmt.Sprintf(
		"faults: injected=%d detected=%d missed=%d vacated=%d benign=%d pending=%d dropped=%d delayed=%d suppressed=%d",
		s.Injected, s.Detected, s.Missed, s.Vacated, s.Benign,
		in.PendingInjections(), s.Dropped, s.Delayed, s.Suppressed)
}
