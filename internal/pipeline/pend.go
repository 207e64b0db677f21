// pendList is the issued-awaiting-completion list in struct-of-arrays
// form (DESIGN.md §12): the completion cycles that writeback scans
// every cycle it runs live in their own dense int64 array, so the
// common no-completion cycle touches one cache line per handful of
// in-flight instructions instead of chasing one entry pointer each.
// The entry pointers are parallel cold payload, dereferenced only for
// due completions. Both slices are preallocated to ROB capacity; the
// hot loop never grows them.

package pipeline

import "vbmo/internal/reuse"

// pendList holds issued instructions awaiting writeback.
type pendList struct {
	// due mirrors each entry's doneCycle (immutable after issue).
	due     []int64
	entries []*entry
}

// init empties the list with room for n entries, reusing its arrays
// when they fit; only the occupied pointer slots are cleared (swapRemove
// and filterOlder nil what they drop).
func (p *pendList) init(n int) {
	clearTail(p.entries)
	p.due = reuse.Empty(p.due, n)
	p.entries = reuse.Empty(p.entries, n)
}

func (p *pendList) len() int { return len(p.entries) }

//vbr:hotpath
func (p *pendList) push(e *entry) {
	// Both slices are preallocated to ROB capacity in init and the ROB
	// bounds in-flight instructions, so these appends never grow.
	p.due = append(p.due, e.doneCycle) //vbr:allow hotalloc capacity preallocated to ROB size in init
	p.entries = append(p.entries, e)   //vbr:allow hotalloc capacity preallocated to ROB size in init
}

// swapRemove drops index i, moving the last element into its place
// (writeback's compaction order, preserved exactly from the AoS form).
func (p *pendList) swapRemove(i int) {
	last := len(p.entries) - 1
	p.due[i] = p.due[last]
	p.entries[i] = p.entries[last]
	p.entries[last] = nil // do not pin recycled entries
	p.due = p.due[:last]
	p.entries = p.entries[:last]
}

// filterOlder keeps only entries with tag < fromTag, in order (squash).
func (p *pendList) filterOlder(fromTag int64) {
	out := 0
	for i, e := range p.entries {
		if e.tag < fromTag {
			p.due[out] = p.due[i]
			p.entries[out] = e
			out++
		}
	}
	clearTail(p.entries[out:])
	p.due = p.due[:out]
	p.entries = p.entries[:out]
}
