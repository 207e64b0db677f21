// Package trace is the simulator's observability layer: a low-overhead,
// pluggable event stream for the value-based-replay lifecycle (load
// issue, replay, value mismatch, filter decision, squash, snoop and fill
// arrival, constraint-graph edge insertion), plus interval-sampled
// metrics snapshots and occupancy histograms.
//
// Design contract (DESIGN.md §6): tracing is off by default and the
// disabled path costs a single nil check per potential event — hot loops
// guard every emission with `if tr != nil`, events are fixed-size value
// structs (no allocation to construct), and no trace code runs otherwise.
// Sinks serialize internally, so one Tracer may receive events from
// concurrently stepping cores.
package trace

import (
	"encoding/json"
	"fmt"
	"sync"
)

// Kind identifies the type of a traced event. Each kind corresponds
// one-to-one with a mechanism of the paper (see DESIGN.md §6 for the
// event taxonomy and the counter each kind must agree with).
type Kind uint8

const (
	// KLoadIssue is a load's premature (out-of-order) execution: the
	// instant it leaves the issue queue and samples memory or the store
	// queue. Value carries the premature value; Aux carries the
	// FlagForwarded/FlagNUS/FlagReordered/FlagVPred bits. One event per
	// DemandLoadAccesses + ForwardedLoads.
	KLoadIssue Kind = iota
	// KFilterDecision is the replay stage deciding whether a load must
	// replay (paper §3). Reason records which filter fired or why the
	// replay was skipped. One event per replay-engine LoadsSeen.
	KFilterDecision
	// KReplay is a replay cache access at the commit-stage port (paper
	// §3.1). Value carries the replayed (commit-time) value. One event
	// per ReplayAccesses.
	KReplay
	// KValueMismatch is a replay compare failing: the premature value
	// (Aux) differs from the replayed value (Value). One event per
	// replay-engine Mismatches.
	KValueMismatch
	// KSquash is a pipeline squash; Reason records the cause. Tag is the
	// first killed tag and PC the fetch redirect target. The per-run sum
	// over reasons equals the sum of the pipeline's Squashes* counters.
	KSquash
	// KSnoopInval is an external invalidation (or inclusion-victim
	// castout) arriving at a core — the input of snooping load queues
	// and the no-recent-snoop filter. Addr is the block address.
	KSnoopInval
	// KExtFill is an externally-sourced block entering a core's local
	// hierarchy — the input of the no-recent-miss filter. Addr is the
	// block address.
	KExtFill
	// KLQMark is a hybrid (Power4-style) load queue marking a conflicting
	// load on a snoop instead of squashing (paper §2.1).
	KLQMark
	// KGraphEdge is a constraint-graph edge insertion by the back-end
	// consistency checker (paper §3.1/Figure 4). Tag and Aux are the
	// endpoint node indices; Reason is the edge order (REdgePO, REdgeRAW,
	// REdgeWAW, REdgeWAR).
	KGraphEdge
	// KROBOcc, KLQOcc and KSQOcc are interval-sampled occupancy counters
	// (Value = entries in use) rendered as counter tracks by the Chrome
	// exporter; Figure 7 is the time-average of the KROBOcc track.
	KROBOcc
	KLQOcc
	KSQOcc
	// KDMAWrite is a coherent DMA agent write invalidating cached copies
	// (the paper's memory-mapped I/O traffic). Addr is the block address.
	KDMAWrite
	// KLitmusOutcome is one observed value of a litmus-test run: Core is
	// the observing thread, Tag the load's index within that thread,
	// Addr the tested location, and Value the observed value. A summary
	// event with Core -1 closes each run: Value is 1 when the outcome is
	// SC-forbidden, Aux the run's seed.
	KLitmusOutcome
	// KFaultInject is one act of the fault injector (internal/fault):
	// Reason records the fault kind (RFault*). For value corruptions,
	// Value is the corrupted value and Aux the original; for delayed
	// messages, Value is the extra delay in cycles.
	KFaultInject
	// KFaultDetect is an injected value corruption caught by the replay
	// compare (mismatch ⇒ squash). Value is the fault→detection latency
	// in cycles — the event stream behind the detection-latency
	// histogram.
	KFaultDetect
	// KFaultMiss is an injected value corruption that committed without
	// verification — the corrupted value became architectural. Value is
	// the corrupted value.
	KFaultMiss
	// KWatchdog is a forward-progress watchdog action: Reason is
	// RWatchdogDeadlock (no commit for the configured window; the run
	// stops with a structured report) or RWatchdogStorm (replay-squash
	// storm; Value is the throttle backoff applied to Core).
	KWatchdog
	// KFarmJob is a farm-service job lifecycle event: Reason is
	// RFarmJobAccepted (Aux the job's cell count) or RFarmJobDone (Value
	// cells executed, Aux cells served from the result cache).
	KFarmJob
	// KFarmCell is one farm sweep cell reaching a terminal state: Reason
	// is RFarmCellExecuted (simulated by a local or remote executor),
	// RFarmCellCached (served from the content-addressed result cache),
	// or RFarmCellRemote (completed by a remote worker process).
	KFarmCell
	// KFarmLease is a distributed-worker lease event: Reason is
	// RFarmLeaseGranted (Aux the cells checked out), RFarmLeaseRenewed
	// (heartbeat; Aux the leases extended), or RFarmLeaseExpired (Aux
	// the cells re-queued after a missed heartbeat window).
	KFarmLease

	numKinds
)

var kindNames = [numKinds]string{
	KLoadIssue:      "load-issue",
	KFilterDecision: "filter-decision",
	KReplay:         "replay",
	KValueMismatch:  "value-mismatch",
	KSquash:         "squash",
	KSnoopInval:     "snoop-inval",
	KExtFill:        "ext-fill",
	KLQMark:         "lq-mark",
	KGraphEdge:      "graph-edge",
	KROBOcc:         "rob-occ",
	KLQOcc:          "lq-occ",
	KSQOcc:          "sq-occ",
	KDMAWrite:       "dma-write",
	KLitmusOutcome:  "litmus-outcome",
	KFaultInject:    "fault-inject",
	KFaultDetect:    "fault-detect",
	KFaultMiss:      "fault-miss",
	KWatchdog:       "watchdog",
	KFarmJob:        "farm-job",
	KFarmCell:       "farm-cell",
	KFarmLease:      "farm-lease",
}

// String returns the kind's stable wire name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// MarshalJSON encodes the kind as its wire name.
func (k Kind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON decodes a kind from its wire name.
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for i, n := range kindNames {
		if n == s {
			*k = Kind(i)
			return nil
		}
	}
	return fmt.Errorf("trace: unknown kind %q", s)
}

// Reason qualifies a KFilterDecision (which paper §3 filter fired, or
// why the replay was skipped), a KSquash (its cause), or a KGraphEdge
// (its dependence order).
type Reason uint8

const (
	// RNone is the zero reason (events that need no qualifier).
	RNone Reason = iota

	// RReplayAll: the replay-all configuration replays unconditionally.
	RReplayAll
	// RNUS: the no-unresolved-store filter fired — the load issued past
	// an older store with an unresolved address (uniprocessor RAW
	// safety, paper §3.3).
	RNUS
	// RWindow: the no-recent-snoop / no-recent-miss external-event
	// window was open when the load reached the replay stage
	// (consistency safety, paper §3.1).
	RWindow
	// RReordered: the no-reorder filter fired — the load issued while a
	// prior memory operation was incomplete (paper §3.3).
	RReordered
	// RVPredVerify: the load's value was predicted and the compare stage
	// must verify the prediction; no filter may skip it.
	RVPredVerify
	// RFiltered: every active filter passed — the replay cache access is
	// skipped (the paper's 98% case).
	RFiltered
	// RRule3: forward-progress rule 3 suppressed the replay — the
	// refetched instance of a load that already caused a replay squash
	// is never replayed again (paper §3.2).
	RRule3

	// RSquashMispredict: branch misprediction recovery.
	RSquashMispredict
	// RSquashRAW: a baseline load queue's store-agen search found a
	// premature load that bypassed a conflicting store (Figure 1(a)).
	RSquashRAW
	// RSquashInval: a snooping load queue's invalidation search found a
	// possible consistency violation (Figure 1(b)).
	RSquashInval
	// RSquashLoadIssue: an insulated/hybrid load-issue search found a
	// younger issued load to the same address (Figure 1(c)).
	RSquashLoadIssue
	// RSquashReplayRAW: a replay compare mismatched on a NUS-flagged
	// load — a uniprocessor RAW violation caught by value.
	RSquashReplayRAW
	// RSquashReplayCons: a replay compare mismatched on a load kept by a
	// consistency filter — a cross-processor ordering violation caught
	// by value.
	RSquashReplayCons
	// RSquashVPred: a replay compare rejected a predicted load value.
	RSquashVPred

	// REdgePO is a program-order constraint-graph edge.
	REdgePO
	// REdgeRAW is a reads-from (value transition → load) edge.
	REdgeRAW
	// REdgeWAW is a store version-order edge.
	REdgeWAW
	// REdgeWAR is a load → next value transition edge.
	REdgeWAR

	// RFault* qualify KFaultInject events with the injected fault kind.
	// They are contiguous and ordered exactly like internal/fault's Kind
	// enum (fault maps a kind k to RFaultLoadValue + k).
	RFaultLoadValue
	RFaultCacheData
	RFaultDropSnoop
	RFaultDelaySnoop
	RFaultDropFill
	RFaultDelayFill
	RFaultSuppressNUS
	RFaultSuppressWindow
	RFaultSuppressRule3

	// RWatchdogDeadlock: no instruction committed machine-wide for the
	// configured watchdog window; the run stops with a deadlock report.
	RWatchdogDeadlock
	// RWatchdogStorm: a core's replay-squash rate crossed the storm
	// threshold and fetch was throttled with exponential backoff.
	RWatchdogStorm

	// RFarmJobAccepted / RFarmJobDone bracket a farm job's lifetime on
	// KFarmJob events.
	RFarmJobAccepted
	RFarmJobDone
	// RFarmCellExecuted / RFarmCellCached / RFarmCellRemote qualify
	// KFarmCell events: the cell was simulated by an executor,
	// served from the content-addressed cache without running the
	// simulator, or completed by a remote worker process.
	RFarmCellExecuted
	RFarmCellCached
	RFarmCellRemote
	// RFarmLeaseGranted / RFarmLeaseRenewed / RFarmLeaseExpired qualify
	// KFarmLease events over a checked-out cell batch's lifetime: the
	// checkout itself, a heartbeat extending its TTL, and the sweeper
	// re-queueing cells whose worker stopped heartbeating.
	RFarmLeaseGranted
	RFarmLeaseRenewed
	RFarmLeaseExpired

	numReasons
)

var reasonNames = [numReasons]string{
	RNone:             "",
	RReplayAll:        "replay-all",
	RNUS:              "nus",
	RWindow:           "window",
	RReordered:        "reordered",
	RVPredVerify:      "vpred-verify",
	RFiltered:         "filtered",
	RRule3:            "rule3",
	RSquashMispredict: "mispredict",
	RSquashRAW:        "raw",
	RSquashInval:      "inval",
	RSquashLoadIssue:  "load-issue",
	RSquashReplayRAW:  "replay-raw",
	RSquashReplayCons: "replay-cons",
	RSquashVPred:      "replay-vpred",
	REdgePO:           "po",
	REdgeRAW:          "raw-edge",
	REdgeWAW:          "waw-edge",
	REdgeWAR:          "war-edge",

	RFaultLoadValue:      "fault-load-value",
	RFaultCacheData:      "fault-cache-data",
	RFaultDropSnoop:      "fault-drop-snoop",
	RFaultDelaySnoop:     "fault-delay-snoop",
	RFaultDropFill:       "fault-drop-fill",
	RFaultDelayFill:      "fault-delay-fill",
	RFaultSuppressNUS:    "fault-suppress-nus",
	RFaultSuppressWindow: "fault-suppress-window",
	RFaultSuppressRule3:  "fault-suppress-rule3",

	RWatchdogDeadlock: "wd-deadlock",
	RWatchdogStorm:    "wd-storm",

	RFarmJobAccepted:  "farm-job-accepted",
	RFarmJobDone:      "farm-job-done",
	RFarmCellExecuted: "farm-cell-exec",
	RFarmCellCached:   "farm-cell-hit",
	RFarmCellRemote:   "farm-cell-remote",
	RFarmLeaseGranted: "farm-lease-grant",
	RFarmLeaseRenewed: "farm-lease-renew",
	RFarmLeaseExpired: "farm-lease-expire",
}

// String returns the reason's stable wire name ("" for RNone).
func (r Reason) String() string {
	if int(r) < len(reasonNames) {
		return reasonNames[r]
	}
	return fmt.Sprintf("reason(%d)", int(r))
}

// MarshalJSON encodes the reason as its wire name.
func (r Reason) MarshalJSON() ([]byte, error) { return json.Marshal(r.String()) }

// UnmarshalJSON decodes a reason from its wire name.
func (r *Reason) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for i, n := range reasonNames {
		if n == s {
			*r = Reason(i)
			return nil
		}
	}
	return fmt.Errorf("trace: unknown reason %q", s)
}

// Aux bit flags carried by KLoadIssue events.
const (
	// FlagForwarded: the premature value came from the store queue, not
	// the cache.
	FlagForwarded uint64 = 1 << iota
	// FlagNUS: the load issued past an unresolved-address store.
	FlagNUS
	// FlagReordered: a prior memory operation was incomplete at issue.
	FlagReordered
	// FlagVPred: the premature value is a value prediction.
	FlagVPred
)

// Event is one traced occurrence. It is a fixed-size value type so hot
// paths construct it on the stack with no allocation; field meaning
// varies by Kind (see the Kind constants).
type Event struct {
	// Cycle is the core-local cycle of the event (0 for post-run events
	// such as constraint-graph edges).
	Cycle int64 `json:"cycle"`
	// Core is the originating processor (-1 for agents outside any core,
	// e.g. the DMA engine).
	Core int32 `json:"core"`
	// Kind is the event type.
	Kind Kind `json:"kind"`
	// Reason qualifies filter decisions, squashes, and graph edges.
	Reason Reason `json:"reason,omitempty"`
	// Tag is the ROB sequence number of the instruction involved.
	Tag int64 `json:"tag,omitempty"`
	// PC is the instruction's program counter.
	PC uint64 `json:"pc,omitempty"`
	// Addr is the effective or block address involved.
	Addr uint64 `json:"addr,omitempty"`
	// Value is the data value involved (premature value for KLoadIssue,
	// replayed value for KReplay/KValueMismatch, occupancy for K*Occ).
	Value uint64 `json:"value,omitempty"`
	// Aux is kind-specific extra data (flag bits for KLoadIssue, the
	// premature value for KValueMismatch, edge target for KGraphEdge).
	Aux uint64 `json:"aux,omitempty"`
}

// Sink consumes traced events. Implementations must be safe for
// concurrent Emit calls (cores in parallel experiment goroutines may
// share one sink) and must not retain references into the event beyond
// the call (Event is a value type, so this is automatic).
type Sink interface {
	// Emit records one event.
	Emit(ev Event)
	// Flush finalizes any buffered output (close trailers, buffered
	// writers). It must be called once, after the last Emit.
	Flush() error
}

// Tracer is the handle hot paths hold. A nil *Tracer means tracing is
// disabled; instrumentation sites guard with a single `if tr != nil`
// check and construct no Event otherwise.
type Tracer struct {
	sink Sink
}

// New creates a tracer feeding the given sink; it returns nil (tracing
// disabled) when sink is nil, so callers can pass an optional sink
// straight through.
func New(sink Sink) *Tracer {
	if sink == nil {
		return nil
	}
	return &Tracer{sink: sink}
}

// Emit forwards one event to the sink. Call only on a non-nil Tracer
// (the disabled path is the caller's nil check, not a branch here).
func (t *Tracer) Emit(ev Event) { t.sink.Emit(ev) }

// Flush flushes the underlying sink; safe on a nil Tracer.
func (t *Tracer) Flush() error {
	if t == nil {
		return nil
	}
	return t.sink.Flush()
}

// CountSink tallies events per kind and per reason without retaining
// them — the cheapest way to assert trace/counter agreement (the
// system package's trace tests and the vbrsim -trace summary use it).
type CountSink struct {
	mu      sync.Mutex
	kinds   [numKinds]uint64
	reasons [numReasons]uint64
	total   uint64
}

// Emit implements Sink.
func (c *CountSink) Emit(ev Event) {
	c.mu.Lock()
	if int(ev.Kind) < len(c.kinds) {
		c.kinds[ev.Kind]++
	}
	if int(ev.Reason) < len(c.reasons) {
		c.reasons[ev.Reason]++
	}
	c.total++
	c.mu.Unlock()
}

// Flush implements Sink; it is a no-op.
func (c *CountSink) Flush() error { return nil }

// Count returns the number of events of the given kind.
func (c *CountSink) Count(k Kind) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.kinds[k]
}

// CountReason returns the number of events with the given reason.
func (c *CountSink) CountReason(r Reason) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reasons[r]
}

// Total returns the total number of events emitted.
func (c *CountSink) Total() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

// TeeSink fans one event stream out to several sinks (e.g. a ring
// post-mortem buffer alongside a JSONL file).
type TeeSink struct {
	// Sinks receive every event in order.
	Sinks []Sink
}

// Emit implements Sink.
func (t *TeeSink) Emit(ev Event) {
	for _, s := range t.Sinks {
		s.Emit(ev)
	}
}

// Flush implements Sink: it flushes every sub-sink, returning the first
// error.
func (t *TeeSink) Flush() error {
	var first error
	for _, s := range t.Sinks {
		if err := s.Flush(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
