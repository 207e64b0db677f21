// The farm's cell queue and its executors. Every cache-missed cell
// joins one FIFO, and leaves it only through nextQueuedLocked: taken
// by an in-process executor, or checked out in a batch by a remote
// worker over HTTP, renewed with heartbeats, and posted back through
// the cache-before-acknowledge path. A pending cell is owned by exactly
// one executor at a time, but ownership is only an optimization: every
// completion funnels through the content-addressed cache, where equal
// keys imply equal results, so a worker finishing after its lease
// expired resolves as a benign duplicate rather than a conflict. A
// completion for a key no job is waiting on, and that is not cached,
// is refused. A lease that outlives its TTL without a heartbeat is
// swept back into the queue, so a SIGKILLed or wedged worker strands
// nothing.

package farm

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"time"

	"vbmo/internal/farm/cachekey"
	"vbmo/internal/trace"
)

// LeaseRequest is the body of POST /v1/cells/lease: one worker asking
// to check out up to Max cells in a single round trip.
type LeaseRequest struct {
	// Worker is the caller's stable identity; leases, heartbeats, and
	// the registry key off it.
	Worker string `json:"worker"`
	// Max bounds the batch size (<=0 means 1; the server caps it).
	Max int `json:"max"`
}

// LeasedCell is one checked-out cell: the opaque lease token, the
// cell's content-addressed cache key, and the cell itself — everything
// a worker needs to execute and complete it.
type LeasedCell struct {
	Lease uint64 `json:"lease"`
	Key   string `json:"key"`
	Cell  Cell   `json:"cell"`
}

// LeaseResponse answers a lease request. Version is the server's
// code-version fingerprint: a worker built from different code MUST
// refuse the batch, because its results would be filed under this
// build's cache keys. TTLMillis tells the worker how often to
// heartbeat (any interval comfortably under the TTL works).
type LeaseResponse struct {
	Version   string       `json:"version"`
	TTLMillis int64        `json:"ttl_ms"`
	Cells     []LeasedCell `json:"cells"`
}

// HeartbeatRequest renews every lease the named worker holds.
type HeartbeatRequest struct {
	Worker string `json:"worker"`
}

// HeartbeatResponse reports how many leases the heartbeat extended.
// Renewed == 0 with work in flight means the server no longer knows
// these leases (restart, or expiry already swept them); the worker
// should finish and complete its batch anyway — completions are
// idempotent — and lease afresh.
type HeartbeatResponse struct {
	Renewed   int   `json:"renewed"`
	TTLMillis int64 `json:"ttl_ms"`
}

// CompleteRequest is the body of POST /v1/cells/complete: one finished
// cell. Exactly one of Result and Error is set. The key, not the lease
// token, is the real coordinate: a completion for an expired or unknown
// lease is still accepted while some job waits on its key, and answered
// as a duplicate once the key is cached; any other key is refused.
type CompleteRequest struct {
	Worker string          `json:"worker"`
	Lease  uint64          `json:"lease,omitempty"`
	Key    string          `json:"key"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// CompleteResponse acknowledges a completion after the result is
// durably cached. Duplicate means the cell had already been resolved by
// another executor — benign by construction — and the completion's
// result was not stored.
type CompleteResponse struct {
	Accepted  bool `json:"accepted"`
	Duplicate bool `json:"duplicate"`
}

// cellState is a pending cell's executor-ownership state.
type cellState int

const (
	// cellQueued: waiting in the queue for an executor or a lease.
	cellQueued cellState = iota
	// cellLocal: a local executor is running it.
	cellLocal
	// cellLeased: a remote worker holds it under a live (or expired but
	// not yet swept) lease.
	cellLeased
	// cellDone: resolved; kept only transiently before removal.
	cellDone
)

// waiter is one (job, cell index) awaiting a pending cell's result.
// Several jobs sharing a cache key wait on the same pending cell.
type waiter struct {
	j     *job
	index int
}

// pendingCell is one not-yet-resolved unit of work, shared between the
// queue, the by-key index, and the executor that took it.
type pendingCell struct {
	key     string
	cell    Cell
	state   cellState
	waiters []waiter

	// Lease fields, meaningful while state == cellLeased.
	worker   string
	lease    uint64
	deadline time.Time
}

// workerInfo is the registry entry for one remote worker identity.
type workerInfo struct {
	active    int    // leases currently held
	leased    uint64 // cells ever checked out
	completed uint64 // completions accepted (including duplicates)
	lastSeen  time.Time
}

// now returns the server's lease clock (real time unless the test seam
// overrides it).
func (s *Server) now() time.Time {
	if s.opt.Clock != nil {
		return s.opt.Clock()
	}
	return time.Now()
}

// dispatch routes one cache-missed cell: join an existing pending cell
// with the same key, or queue a new one and wake an idle executor. A
// cell dispatched after Stop closed the queue is dropped like a queued
// one, and its job ends interrupted.
func (s *Server) dispatch(j *job, i int, c Cell, key string) {
	s.leaseMu.Lock()
	if s.closed {
		s.leaseMu.Unlock()
		s.mu.Lock()
		j.interrupted = true
		s.cond.Broadcast()
		s.mu.Unlock()
		return
	}
	if pc, ok := s.pending[key]; ok {
		pc.waiters = append(pc.waiters, waiter{j, i})
		s.leaseMu.Unlock()
		return
	}
	pc := &pendingCell{key: key, cell: c, state: cellQueued,
		waiters: []waiter{{j, i}}}
	s.pending[key] = pc
	s.queue = append(s.queue, pc)
	s.queued.Signal()
	s.leaseMu.Unlock()
}

// nextQueuedLocked pops the oldest queued cell, dropping entries that a
// completion resolved while they waited, and returns nil when none is
// left. It is the only way a cell leaves the queue. Caller holds
// s.leaseMu.
func (s *Server) nextQueuedLocked() *pendingCell {
	for len(s.queue) > 0 {
		pc := s.queue[0]
		s.queue[0] = nil
		s.queue = s.queue[1:]
		if pc.state == cellQueued {
			return pc
		}
	}
	return nil
}

// executor is one local executor: it takes the oldest queued cell,
// runs it, caches the result before acknowledging, and resolves it,
// until Stop closes the queue.
func (s *Server) executor() {
	defer s.executors.Done()
	for {
		s.leaseMu.Lock()
		var pc *pendingCell
		for !s.closed {
			if pc = s.nextQueuedLocked(); pc != nil {
				break
			}
			s.queued.Wait()
		}
		if pc == nil {
			s.leaseMu.Unlock()
			return
		}
		pc.state = cellLocal
		s.leaseMu.Unlock()

		res, err := s.execute(pc.cell)
		if err == nil {
			// Cache before acknowledging: once a result is visible it
			// must be durable, or a crash between the two could serve a
			// cell cheaply now and expensively later.
			if cerr := s.cache.Put(pc.key, res); cerr != nil {
				err = cerr
			}
		}
		s.resolve(pc.key, res, err, false)
	}
}

// resolve marks the pending cell for key done and fans its result out
// to every waiting (job, index). Reports duplicate=true when the key is
// no longer pending — somebody else resolved it first, which the
// content-addressed cache makes benign.
func (s *Server) resolve(key string, raw json.RawMessage, execErr error, remote bool) (duplicate bool) {
	s.leaseMu.Lock()
	pc, ok := s.pending[key]
	if !ok {
		s.leaseMu.Unlock()
		s.metrics.duplicateCompletion()
		return true
	}
	delete(s.pending, key)
	pc.state = cellDone
	if pc.worker != "" {
		if w := s.workers[pc.worker]; w != nil && w.active > 0 {
			w.active--
		}
		pc.worker = ""
	}
	waiters := pc.waiters
	s.leaseMu.Unlock()

	if remote {
		s.metrics.remoteCompletion()
		if s.tr != nil {
			s.tr.Emit(trace.Event{Kind: trace.KFarmCell, Reason: trace.RFarmCellRemote, Core: -1})
		}
	}
	for wi, w := range waiters {
		// The first waiter accounts the execution; further jobs sharing
		// the key were served without a run of their own.
		s.finishCell(w.j, w.index, raw, wi > 0 && execErr == nil, execErr)
	}
	return false
}

// grantLeases checks out up to max queued cells to worker, stamping
// each with a fresh lease and the TTL deadline.
func (s *Server) grantLeases(worker string, max int) []LeasedCell {
	if max <= 0 {
		max = 1
	}
	if max > s.opt.MaxLeaseBatch {
		max = s.opt.MaxLeaseBatch
	}
	now := s.now()
	s.leaseMu.Lock()
	w := s.workerLocked(worker, now)
	var out []LeasedCell
	for len(out) < max {
		pc := s.nextQueuedLocked()
		if pc == nil {
			break
		}
		s.leaseSeq++
		pc.state = cellLeased
		pc.worker = worker
		pc.lease = s.leaseSeq
		pc.deadline = now.Add(s.opt.LeaseTTL)
		w.active++
		w.leased++
		out = append(out, LeasedCell{Lease: pc.lease, Key: pc.key, Cell: pc.cell})
	}
	s.leaseMu.Unlock()

	if len(out) > 0 {
		s.metrics.leasesGranted(uint64(len(out)))
		if s.tr != nil {
			s.tr.Emit(trace.Event{Kind: trace.KFarmLease, Reason: trace.RFarmLeaseGranted,
				Core: -1, Aux: uint64(len(out))})
		}
	}
	return out
}

// renewLeases extends every live lease the worker holds to a fresh TTL
// deadline — and only that worker's: a heartbeat is a claim of
// liveness, not a proxy for anyone else's.
func (s *Server) renewLeases(worker string) int {
	now := s.now()
	s.leaseMu.Lock()
	s.workerLocked(worker, now)
	renewed := 0
	keys := make([]string, 0, len(s.pending))
	for k := range s.pending {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		pc := s.pending[k]
		if pc.state == cellLeased && pc.worker == worker {
			pc.deadline = now.Add(s.opt.LeaseTTL)
			renewed++
		}
	}
	s.leaseMu.Unlock()

	if renewed > 0 {
		s.metrics.leasesRenewed(uint64(renewed))
		if s.tr != nil {
			s.tr.Emit(trace.Event{Kind: trace.KFarmLease, Reason: trace.RFarmLeaseRenewed,
				Core: -1, Aux: uint64(renewed)})
		}
	}
	return renewed
}

// expireLeases is the sweeper body: every leased cell past its deadline
// goes back to the queue, where an idle executor or the next lease
// takes it, so a dead worker's checkout strands nothing beyond one TTL.
func (s *Server) expireLeases() {
	now := s.now()
	s.leaseMu.Lock()
	expired := 0
	keys := make([]string, 0, len(s.pending))
	for k := range s.pending {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		pc := s.pending[k]
		if pc.state == cellLeased && now.After(pc.deadline) {
			if w := s.workers[pc.worker]; w != nil && w.active > 0 {
				w.active--
			}
			pc.state = cellQueued
			pc.worker = ""
			s.queue = append(s.queue, pc)
			expired++
		}
	}
	if expired > 0 {
		s.queued.Broadcast()
	}
	s.leaseMu.Unlock()

	if expired == 0 {
		return
	}
	s.metrics.leasesExpired(uint64(expired))
	if s.tr != nil {
		s.tr.Emit(trace.Event{Kind: trace.KFarmLease, Reason: trace.RFarmLeaseExpired,
			Core: -1, Aux: uint64(expired)})
	}
}

// scheduleSweep arms the next sweeper tick. A self-rescheduling
// time.AfterFunc stands in for a ticker loop so the farm package stays
// free of multi-way selects (the determinism analyzer's rule).
func (s *Server) scheduleSweep() {
	s.leaseMu.Lock()
	defer s.leaseMu.Unlock()
	if s.closed {
		return
	}
	s.sweeper = time.AfterFunc(s.opt.SweepInterval, func() {
		s.expireLeases()
		s.scheduleSweep()
	})
}

// closeQueue is Stop's first step: it drops every queued cell, wakes
// the idle executors so they exit, halts lease expiry, and returns how
// many cells it dropped.
func (s *Server) closeQueue() (dropped int) {
	s.leaseMu.Lock()
	s.closed = true
	for s.nextQueuedLocked() != nil {
		dropped++
	}
	s.queued.Broadcast()
	t := s.sweeper
	s.leaseMu.Unlock()
	if t != nil {
		t.Stop()
	}
	return dropped
}

// workerLocked finds or registers the worker's registry entry and
// stamps it seen. Caller holds s.leaseMu.
func (s *Server) workerLocked(id string, now time.Time) *workerInfo {
	w := s.workers[id]
	if w == nil {
		w = &workerInfo{}
		s.workers[id] = w
	}
	w.lastSeen = now
	return w
}

// workerSnapshots renders the registry for /v1/metrics, sorted by ID.
func (s *Server) workerSnapshots() []WorkerSnapshot {
	now := s.now()
	s.leaseMu.Lock()
	defer s.leaseMu.Unlock()
	ids := make([]string, 0, len(s.workers))
	for id := range s.workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]WorkerSnapshot, 0, len(ids))
	for _, id := range ids {
		w := s.workers[id]
		out = append(out, WorkerSnapshot{
			ID: id, ActiveLeases: w.active, CellsLeased: w.leased,
			Completions: w.completed, LastSeenMillis: now.Sub(w.lastSeen).Milliseconds(),
		})
	}
	return out
}

// queueDepth counts genuinely queued cells (entries a completion
// resolved while they waited are skipped) and total pending cells for
// the metrics snapshot.
func (s *Server) queueDepth() (queued, pending int) {
	s.leaseMu.Lock()
	defer s.leaseMu.Unlock()
	for _, pc := range s.queue {
		if pc.state == cellQueued {
			queued++
		}
	}
	return queued, len(s.pending)
}

func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !decodeRequest(w, r, &req, "bad lease request") {
		return
	}
	if req.Worker == "" {
		http.Error(w, "farm: bad lease request (worker required)", http.StatusBadRequest)
		return
	}
	cells := s.grantLeases(req.Worker, req.Max)
	writeJSON(w, http.StatusOK, LeaseResponse{
		Version:   cachekey.Version(),
		TTLMillis: s.opt.LeaseTTL.Milliseconds(),
		Cells:     cells,
	})
}

func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !decodeRequest(w, r, &req, "bad heartbeat") {
		return
	}
	if req.Worker == "" {
		http.Error(w, "farm: bad heartbeat (worker required)", http.StatusBadRequest)
		return
	}
	renewed := s.renewLeases(req.Worker)
	writeJSON(w, http.StatusOK, HeartbeatResponse{
		Renewed: renewed, TTLMillis: s.opt.LeaseTTL.Milliseconds(),
	})
}

func (s *Server) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if !decodeRequest(w, r, &req, "bad completion") {
		return
	}
	if req.Key == "" {
		http.Error(w, "farm: bad completion (key required)", http.StatusBadRequest)
		return
	}
	if req.Error == "" && len(req.Result) == 0 {
		http.Error(w, "farm: completion carries neither result nor error", http.StatusBadRequest)
		return
	}

	s.leaseMu.Lock()
	_, pending := s.pending[req.Key]
	s.leaseMu.Unlock()
	dup := true
	switch {
	case pending:
		var execErr error
		var res json.RawMessage
		if req.Error != "" {
			execErr = errors.New(req.Error)
		} else {
			// Canonicalize at ingress: however the worker formatted its
			// bytes, the cache stores and the waiting jobs hold one
			// canonical form, json.Marshal's, so a job digest streamed
			// over them equals cachekey.Hash's.
			var err error
			if res, err = json.Marshal(req.Result); err != nil {
				http.Error(w, "farm: bad completion: "+err.Error(), http.StatusBadRequest)
				return
			}
			if err := s.cache.Put(req.Key, res); err != nil {
				// Cache before acknowledging. A put failure is the one
				// non-acknowledgeable outcome: answer 500 and leave the
				// lease standing — the worker retries, or expiry
				// re-queues the cell.
				http.Error(w, fmt.Sprintf("farm: caching result: %v", err), http.StatusInternalServerError)
				return
			}
		}
		dup = s.resolve(req.Key, res, execErr, true)
	case s.cache.Get(req.Key, new(json.RawMessage)):
		// A late completion for a cell already resolved and cached:
		// the benign duplicate. Its bytes are not stored.
		s.metrics.duplicateCompletion()
	default:
		// No job is waiting on this key: caching the bytes would serve
		// them later as that cell's result.
		http.Error(w, "farm: completion for "+req.Key+": no job is waiting on that key", http.StatusConflict)
		return
	}

	now := s.now()
	s.leaseMu.Lock()
	s.workerLocked(req.Worker, now).completed++
	s.leaseMu.Unlock()
	writeJSON(w, http.StatusOK, CompleteResponse{Accepted: true, Duplicate: dup})
}
