package pipeline

import (
	"fmt"
	"strings"

	"vbmo/internal/fault"
)

// SetFaults attaches a fault injector to the core. Nil (the default)
// disables every injection hook at the cost of one nil check per site.
func (c *Core) SetFaults(f *fault.Injector) { c.flt = f }

// Throttle stalls fetch until the given cycle if that is later than any
// stall already in effect — the watchdog's replay-squash-storm backoff
// lever. It never shortens an existing stall, so it composes with
// i-cache-miss and redirect stalls.
func (c *Core) Throttle(until int64) {
	if until > c.fetchStallUntil {
		c.fetchStallUntil = until
	}
}

// ReplaySquashes returns the core's cumulative replay-triggered squash
// count (RAW + consistency + value-prediction mismatches) — the signal
// the watchdog's storm detector integrates.
func (c *Core) ReplaySquashes() uint64 {
	return c.Stats.SquashesReplayRAW + c.Stats.SquashesReplayCons + c.Stats.SquashesVPred
}

// EntryDump is one reorder-buffer entry's externally visible state, for
// deadlock reports.
type EntryDump struct {
	Tag       int64  `json:"tag"`
	PC        uint64 `json:"pc"`
	Class     string `json:"class"`
	Issued    bool   `json:"issued"`
	Done      bool   `json:"done"`
	Load      bool   `json:"load,omitempty"`
	Store     bool   `json:"store,omitempty"`
	Addr      uint64 `json:"addr,omitempty"`
	AddrValid bool   `json:"addr_valid,omitempty"`
	// Issue-queue state: whether the entry holds a queue slot, how many
	// unfinished producers of its issue operands it still waits on, and
	// whether it is a load parked on a store. An entry in the queue,
	// waiting on a producer whose own line reads done, is a lost wake-up;
	// so is a parked load whose blocking store's line reads done.
	InIQ    bool `json:"in_iq,omitempty"`
	Waiting int  `json:"waiting,omitempty"`
	Parked  bool `json:"parked,omitempty"`
	// Replay progress (value-replay machines).
	ReplayDecided bool `json:"replay_decided,omitempty"`
	NeedReplay    bool `json:"need_replay,omitempty"`
	ReplayIssued  bool `json:"replay_issued,omitempty"`
	ReplayedOK    bool `json:"replayed_ok,omitempty"`
	NoReplay      bool `json:"no_replay,omitempty"`
}

// StateDump is a structured snapshot of a core's commit-relevant state,
// taken by the forward-progress watchdog when the machine stops
// committing.
type StateDump struct {
	Core            int         `json:"core"`
	Cycle           int64       `json:"cycle"`
	Committed       uint64      `json:"committed"`
	FetchPC         uint64      `json:"fetch_pc"`
	FetchStallUntil int64       `json:"fetch_stall_until"`
	DispatchBarrier int64       `json:"dispatch_barrier"`
	ROBLen          int         `json:"rob_len"`
	IQLen           int         `json:"iq_len"`
	LQLen           int         `json:"lq_len"`
	SQLen           int         `json:"sq_len"`
	FetchQLen       int         `json:"fetchq_len"`
	ReplaySquashes  uint64      `json:"replay_squashes"`
	ROB             []EntryDump `json:"rob"`
}

// Dump snapshots the core's state, including up to maxROB entries from
// the head (commit end) of the reorder buffer.
func (c *Core) Dump(maxROB int) StateDump {
	d := StateDump{
		Core:            c.ID,
		Cycle:           c.cycle,
		Committed:       c.Stats.Committed,
		FetchPC:         c.fetchPC,
		FetchStallUntil: c.fetchStallUntil,
		DispatchBarrier: c.dispatchBarrier,
		ROBLen:          c.rob.Len(),
		IQLen:           c.IQLen(),
		LQLen:           c.LQLen(),
		SQLen:           c.sq.Len(),
		FetchQLen:       c.fetchQ.Len(),
		ReplaySquashes:  c.ReplaySquashes(),
	}
	n := c.rob.Len()
	if maxROB > 0 && n > maxROB {
		n = maxROB
	}
	for i := 0; i < n; i++ {
		e := c.robAt(i)
		inIQ := c.iq[e.slot] == e.self
		d.ROB = append(d.ROB, EntryDump{
			Tag: e.tag, PC: e.pc, Class: e.cls.String(),
			Issued: e.issued, Done: e.done,
			Load: e.isLoad, Store: e.isStore,
			Addr: e.addr, AddrValid: e.addrValid,
			InIQ: inIQ, Waiting: int(e.waiting), Parked: inIQ && c.iqParked&(1<<e.slot) != 0,
			ReplayDecided: e.replayDecided, NeedReplay: e.needReplay,
			ReplayIssued: e.replayIssued, ReplayedOK: e.replayedOK,
			NoReplay: e.noReplay,
		})
	}
	return d
}

// String renders the dump for a human-readable deadlock report.
func (d StateDump) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "core %d @cycle %d: committed=%d fetchPC=%#x stallUntil=%d barrier=%d rob=%d iq=%d lq=%d sq=%d fetchq=%d replaySquashes=%d",
		d.Core, d.Cycle, d.Committed, d.FetchPC, d.FetchStallUntil,
		d.DispatchBarrier, d.ROBLen, d.IQLen, d.LQLen, d.SQLen,
		d.FetchQLen, d.ReplaySquashes)
	for _, e := range d.ROB {
		fmt.Fprintf(&b, "\n    tag=%d pc=%#x %s", e.Tag, e.PC, e.Class)
		if e.Issued {
			b.WriteString(" issued")
		}
		if e.Done {
			b.WriteString(" done")
		}
		if e.AddrValid {
			fmt.Fprintf(&b, " addr=%#x", e.Addr)
		}
		switch {
		case e.Parked:
			b.WriteString(" iq[parked]")
		case e.InIQ:
			fmt.Fprintf(&b, " iq[waiting=%d]", e.Waiting)
		}
		if e.Load {
			fmt.Fprintf(&b, " replay[decided=%v need=%v issued=%v ok=%v norepl=%v]",
				e.ReplayDecided, e.NeedReplay, e.ReplayIssued, e.ReplayedOK, e.NoReplay)
		}
	}
	return b.String()
}
