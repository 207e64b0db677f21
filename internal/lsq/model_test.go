package lsq

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"vbmo/internal/cache"
	"vbmo/internal/trace"
)

// The naive references below keep one tag-ordered slice per queue, find
// entries by tag and shift on removal: the queue design before handles.
// TestQueuesMatchNaive drives each handle-addressed queue and its
// reference through the same stream and compares every answer and every
// counter after every operation.

// refStore is one store of the naive store-queue reference.
type refStore struct {
	tag            int64
	addr, data     uint64
	addrOK, dataOK bool
}

// refSQ is the naive store queue, flat or two-level. committed counts
// the stores committed so far: a store's commit ordinal is committed
// plus its position in s, which the reference reports as MatchHandle.
type refSQ struct {
	s                                []refStore
	committed                        Handle
	l1Size, l2Latency                int
	filter                           *BloomFilter
	unresolved                       int
	searches, l2Searches, l2Filtered uint64
}

func (r *refSQ) find(tag int64) int {
	for i := range r.s {
		if r.s[i].tag == tag {
			return i
		}
	}
	return -1
}

func (r *refSQ) insert(tag int64) {
	r.s = append(r.s, refStore{tag: tag})
	r.unresolved++
}

func (r *refSQ) setAddr(tag int64, addr uint64) {
	e := &r.s[r.find(tag)]
	if !e.addrOK {
		r.unresolved--
		if r.filter != nil {
			r.filter.Insert(addr &^ 7)
		}
	}
	e.addr, e.addrOK = addr, true
}

func (r *refSQ) setData(tag int64, data uint64) {
	e := &r.s[r.find(tag)]
	e.data, e.dataOK = data, true
}

func (r *refSQ) peek(addr uint64, loadTag int64) SearchResult {
	addr &^= 7
	var res SearchResult
	n := len(r.s)
	crossed := false
	for i := n - 1; i >= 0; i-- {
		if r.l1Size > 0 && i < n-r.l1Size && !crossed {
			crossed = true
			if r.unresolved == 0 && !r.filter.MayContain(addr) {
				res.Filtered = true
				return res
			}
			res.Level2 = true
		}
		e := r.s[i]
		if e.tag >= loadTag {
			continue
		}
		if !e.addrOK {
			res.UnresolvedOlder = true
			continue
		}
		if e.addr&^7 == addr {
			res.Match, res.MatchTag = true, e.tag
			res.MatchHandle = r.committed + Handle(i)
			res.Data, res.DataReady = e.data, e.dataOK
			if r.l1Size > 0 && i < n-r.l1Size {
				res.Latency = r.l2Latency
			}
			break
		}
	}
	return res
}

func (r *refSQ) search(addr uint64, loadTag int64) SearchResult {
	res := r.peek(addr, loadTag)
	r.searches++
	if res.Level2 {
		r.l2Searches++
	}
	if res.Filtered {
		r.l2Filtered++
	}
	return res
}

func (r *refSQ) unresolvedBefore(tag int64) bool {
	for _, e := range r.s {
		if e.tag < tag && !e.addrOK {
			return true
		}
	}
	return false
}

func (r *refSQ) awaitsAddr(tag int64) bool {
	i := r.find(tag)
	return i >= 0 && !r.s[i].addrOK
}

// commit removes the oldest store.
func (r *refSQ) commit() {
	r.drop(r.s[0])
	r.s = r.s[1:]
	r.committed++
}

func (r *refSQ) squash(fromTag int64) {
	for i := len(r.s) - 1; i >= 0 && r.s[i].tag >= fromTag; i-- {
		r.drop(r.s[i])
		r.s = r.s[:i]
	}
}

func (r *refSQ) drop(e refStore) {
	if !e.addrOK {
		r.unresolved--
	} else if r.filter != nil {
		r.filter.Remove(e.addr &^ 7)
	}
}

// refLoad is one load of the naive associative load-queue reference.
type refLoad struct {
	tag            int64
	pc, addr       uint64
	issued, marked bool
	fwd            int64
}

// refLQ is the naive associative load queue.
type refLQ struct {
	mode                      Mode
	s                         []refLoad
	bloom                     *BloomFilter
	searches, searchedEntries uint64
	bloomFiltered             uint64
	marks                     []any
}

func (r *refLQ) find(tag int64) int {
	for i := range r.s {
		if r.s[i].tag == tag {
			return i
		}
	}
	return -1
}

func (r *refLQ) count() {
	r.searches++
	r.searchedEntries += uint64(len(r.s))
}

func (r *refLQ) onIssue(tag int64, addr uint64, fwd int64) (Squash, bool) {
	e := &r.s[r.find(tag)]
	e.addr, e.issued, e.fwd = addr&^7, true, fwd
	if r.bloom != nil {
		r.bloom.Insert(cache.BlockAddr(addr))
	}
	if r.mode == Snooping {
		return Squash{}, false
	}
	r.count()
	for _, le := range r.s {
		if le.tag <= tag || !le.issued || le.addr != e.addr || (r.mode == Hybrid && !le.marked) {
			continue
		}
		return Squash{Tag: le.tag, PC: le.pc}, true
	}
	return Squash{}, false
}

func (r *refLQ) onStoreAgen(addr uint64, storeTag int64) (Squash, bool) {
	if r.bloom != nil && !r.bloom.MayContain(cache.BlockAddr(addr)) {
		r.bloomFiltered++
		return Squash{}, false
	}
	r.count()
	for _, le := range r.s {
		if le.tag <= storeTag || !le.issued || le.addr != addr&^7 || le.fwd >= storeTag {
			continue
		}
		return Squash{Tag: le.tag, PC: le.pc}, true
	}
	return Squash{}, false
}

func (r *refLQ) onInvalidation(block uint64, commitTag int64) (Squash, bool) {
	if r.mode == Insulated {
		return Squash{}, false
	}
	if r.bloom != nil && !r.bloom.MayContain(cache.BlockAddr(block)) {
		r.bloomFiltered++
		return Squash{}, false
	}
	r.count()
	for i := range r.s {
		le := &r.s[i]
		if !le.issued || cache.BlockAddr(le.addr) != cache.BlockAddr(block) || le.tag == commitTag {
			continue
		}
		if r.mode == Hybrid {
			le.marked = true
			r.marks = append(r.marks, trace.KLQMark, le.tag, le.pc, block)
			continue
		}
		return Squash{Tag: le.tag, PC: le.pc}, true
	}
	return Squash{}, false
}

func (r *refLQ) remove(tag int64) {
	i := r.find(tag)
	r.unfilter(r.s[i])
	r.s = append(r.s[:i], r.s[i+1:]...)
}

func (r *refLQ) squash(fromTag int64) {
	for i := len(r.s) - 1; i >= 0 && r.s[i].tag >= fromTag; i-- {
		r.unfilter(r.s[i])
		r.s = r.s[:i]
	}
}

func (r *refLQ) unfilter(e refLoad) {
	if r.bloom != nil && e.issued {
		r.bloom.Remove(cache.BlockAddr(e.addr))
	}
}

// inflight is one dispatched, uncommitted memory instruction of the
// driver's program.
type inflight struct {
	tag             int64
	store           bool
	h               Handle
	agen, data, iss bool
}

// queueModel drives a store queue and a load queue with its associative
// queue, and their naive references, as a pipeline would.
type queueModel struct {
	t    *testing.T
	rng  *rand.Rand
	sq   *StoreQueue
	lq   *loadQueue
	rsq  refSQ
	rlq  refLQ
	rob  []inflight
	next int64
	// marks collects the load queue's Emit events.
	marks []any
	// violations counts the squashes the load-queue searches reported.
	violations int
}

func newQueueModel(t *testing.T, seed int64, sqSize, lqSize int, mode Mode, bloom, twoLevel bool) *queueModel {
	m := &queueModel{t: t, rng: rand.New(rand.NewSource(seed)),
		sq: NewStoreQueue(sqSize), lq: newLoadQueue(mode, lqSize)}
	m.rlq.mode = mode
	if twoLevel {
		m.sq.EnableTwoLevel(4, 3, 64)
		m.rsq.l1Size, m.rsq.l2Latency, m.rsq.filter = 4, 3, NewBloomFilter(64, 2)
	}
	if bloom {
		m.lq.EnableBloom(64, 2)
		m.rlq.bloom = NewBloomFilter(64, 2)
	}
	m.lq.Emit = func(kind trace.Kind, tag int64, pc, addr uint64) {
		m.marks = append(m.marks, kind, tag, pc, addr)
	}
	return m
}

// addr draws an address from a small range, so stores and loads
// collide on words and blocks, with byte offsets inside the word.
func (m *queueModel) addr() uint64 { return uint64(m.rng.Intn(48))*8 + uint64(m.rng.Intn(8)) }

// pick returns the index of a random in-flight instruction that ok
// accepts, or -1.
func (m *queueModel) pick(ok func(*inflight) bool) int {
	var idx []int
	for i := range m.rob {
		if ok(&m.rob[i]) {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		return -1
	}
	return idx[m.rng.Intn(len(idx))]
}

func (m *queueModel) equal(what string, got, want any) {
	m.t.Helper()
	if !reflect.DeepEqual(got, want) {
		m.t.Fatalf("%s: queue %+v, naive reference %+v", what, got, want)
	}
}

// squash kills every in-flight instruction with tag >= from.
func (m *queueModel) squash(from int64) {
	m.sq.Squash(from)
	m.rsq.squash(from)
	m.lq.squash(from)
	m.rlq.squash(from)
	for len(m.rob) > 0 && m.rob[len(m.rob)-1].tag >= from {
		m.rob = m.rob[:len(m.rob)-1]
	}
}

// violation applies a violation a load-queue search reported, as the
// pipeline does.
func (m *queueModel) violation(what string, got Squash, found bool, want Squash, wantFound bool) {
	m.t.Helper()
	m.equal(what, []any{got, found}, []any{want, wantFound})
	if found {
		m.violations++
		m.squash(got.Tag)
	}
}

func (m *queueModel) step() {
	switch op := m.rng.Intn(16); {
	case op < 3: // dispatch a store
		if m.sq.Full() {
			return
		}
		m.next += 1 + int64(m.rng.Intn(3)) // squashes and non-memory instructions leave gaps
		h := m.sq.Insert(m.next)
		m.rsq.insert(m.next)
		m.rob = append(m.rob, inflight{tag: m.next, store: true, h: h})
	case op < 6: // dispatch a load
		if m.lq.win.Full() {
			return
		}
		m.next += 1 + int64(m.rng.Intn(3))
		pc := uint64(m.rng.Intn(1 << 12))
		h := m.lq.insert(m.next, pc)
		m.rlq.s = append(m.rlq.s, refLoad{tag: m.next, pc: pc, fwd: -1})
		m.rob = append(m.rob, inflight{tag: m.next, h: h})
	case op < 8: // store agen, then the load queue's RAW search
		i := m.pick(func(e *inflight) bool { return e.store && !e.agen })
		if i < 0 {
			return
		}
		e := &m.rob[i]
		e.agen = true
		a := m.addr()
		m.sq.SetAddr(e.h, a)
		m.rsq.setAddr(e.tag, a)
		sqz, found := m.lq.OnStoreAgen(a, e.tag)
		want, wantFound := m.rlq.onStoreAgen(a, e.tag)
		m.violation("OnStoreAgen", sqz, found, want, wantFound)
	case op < 9: // store data capture
		i := m.pick(func(e *inflight) bool { return e.store && !e.data })
		if i < 0 {
			return
		}
		e := &m.rob[i]
		e.data = true
		v := m.rng.Uint64()
		m.sq.SetData(e.h, v)
		m.rsq.setData(e.tag, v)
	case op < 12: // load issue: the store-queue probes, then the load-queue search
		i := m.pick(func(e *inflight) bool { return !e.store && !e.iss })
		if i < 0 {
			return
		}
		e := &m.rob[i]
		e.iss = true
		a := m.addr()
		m.equal("UnresolvedBefore", m.sq.UnresolvedBefore(e.tag), m.rsq.unresolvedBefore(e.tag))
		m.equal("Peek", m.sq.Peek(a, e.tag), m.rsq.peek(a, e.tag))
		r := m.sq.Search(a, e.tag)
		m.equal("Search", r, m.rsq.search(a, e.tag))
		fwd := int64(-1)
		if r.Match {
			fwd = r.MatchTag
		}
		if m.rng.Intn(4) == 0 && !r.Filtered { // a parked load charged instead of searching
			var l2 uint64
			if r.Level2 {
				l2 = 1
			}
			m.sq.Charge(1, l2)
			m.rsq.searches++
			m.rsq.l2Searches += l2
		}
		sqz, found := m.lq.OnIssue(e.h, a, fwd)
		want, wantFound := m.rlq.onIssue(e.tag, a, fwd)
		m.violation("OnIssue", sqz, found, want, wantFound)
	case op < 13: // external invalidation, the oldest in-flight instruction at the commit point
		commit := int64(-1)
		if len(m.rob) > 0 {
			commit = m.rob[0].tag
		}
		a := m.addr()
		sqz, found := m.lq.OnInvalidation(a, commit)
		want, wantFound := m.rlq.onInvalidation(a, commit)
		m.violation("OnInvalidation", sqz, found, want, wantFound)
	case op < 15: // commit the oldest instruction
		if len(m.rob) == 0 {
			return
		}
		e := m.rob[0]
		m.rob = m.rob[1:]
		if e.store {
			m.sq.Pop()
			m.rsq.commit()
		} else {
			m.lq.pop()
			m.rlq.remove(e.tag)
		}
	default: // squash from a random point, possibly inside a tag gap
		if len(m.rob) == 0 {
			return
		}
		m.squash(m.rob[m.rng.Intn(len(m.rob))].tag - int64(m.rng.Intn(2)))
	}
}

// compare checks every observable the step could have changed.
func (m *queueModel) compare() {
	m.t.Helper()
	sq, rsq := m.sq, &m.rsq
	m.equal("store queue length", sq.Len(), len(rsq.s))
	m.equal("store counters", []uint64{sq.Stats.Searches, sq.Stats.L2Searches, sq.Stats.L2Filtered},
		[]uint64{rsq.searches, rsq.l2Searches, rsq.l2Filtered})
	if rsq.filter != nil {
		m.equal("store filter", sq.filter.counters, rsq.filter.counters)
	}
	oldest := int64(-1)
	if len(rsq.s) > 0 {
		oldest = rsq.s[0].tag
	}
	m.equal("OldestTag", sq.OldestTag(), oldest)
	probe := m.next - int64(m.rng.Intn(8))
	m.equal("HasOlderThan", sq.HasOlderThan(probe), oldest >= 0 && oldest < probe)
	m.equal("AwaitsAddr", sq.AwaitsAddr(probe), rsq.awaitsAddr(probe))

	lq, rlq := m.lq, &m.rlq
	m.equal("load queue length", lq.win.Len(), len(rlq.s))
	m.equal("load counters",
		[]uint64{lq.Stats.Searches, lq.Stats.SearchedEntries, lq.Stats.BloomFiltered},
		[]uint64{rlq.searches, rlq.searchedEntries, rlq.bloomFiltered})
	if rlq.bloom != nil {
		m.equal("load filter", lq.Bloom().counters, rlq.bloom.counters)
	}
	m.equal("hybrid marks", m.marks, rlq.marks)
	m.marks, rlq.marks = m.marks[:0], rlq.marks[:0]
	for _, e := range m.rob {
		if e.store {
			m.equal(fmt.Sprintf("store tag at handle %d", e.h), sq.w.Tag(e.h), e.tag)
			continue
		}
		m.equal(fmt.Sprintf("load tag at handle %d", e.h), lq.win.Tag(e.h), e.tag)
		m.equal(fmt.Sprintf("load PC at handle %d", e.h), lq.Entry(e.h).PC, rlq.s[rlq.find(e.tag)].pc)
	}
}

// TestQueuesMatchNaive drives the store queue, flat and two-level, and
// the associative load queue in every mode, with and without a Bloom
// filter, through a seeded stream of dispatch, agen, data capture,
// issue, invalidation, commit and squash with gaps in the tag sequence.
// Every SearchResult, every reported Squash, the hybrid marks and every
// counter must equal the naive reference's after every operation. The
// reference reports a forwarding store's MatchHandle as its commit
// ordinal, so every mode also pins that a store's handle is the number
// of stores committed before it. The queues are small, so their rings
// wrap often. At the first sizes each ring has spare slots; at the
// second each ring is as long as its queue's capacity, so a push into a
// queue that a pop just took out of full writes the slot the pop freed.
func TestQueuesMatchNaive(t *testing.T) {
	seed := int64(0)
	for _, size := range []struct {
		sq, lq int
		suffix string
	}{{12, 10, ""}, {8, 8, "/sq=8,lq=8"}} {
		for _, mode := range []Mode{Snooping, Insulated, Hybrid} {
			for _, bloom := range []bool{false, true} {
				for _, twoLevel := range []bool{false, true} {
					seed++
					name := fmt.Sprintf("%s/bloom=%t/twolevel=%t%s", mode, bloom, twoLevel, size.suffix)
					t.Run(name, func(t *testing.T) {
						m := newQueueModel(t, seed, size.sq, size.lq, mode, bloom, twoLevel)
						for i := 0; i < 6000; i++ {
							m.step()
							m.compare()
						}
						if m.lq.Stats.Searches == 0 || m.sq.Stats.Searches == 0 || m.violations == 0 {
							t.Fatalf("stream too tame: %d load searches, %d store searches, no violations",
								m.lq.Stats.Searches, m.sq.Stats.Searches)
						}
					})
				}
			}
		}
	}
}
