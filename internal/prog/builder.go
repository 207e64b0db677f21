package prog

import (
	"fmt"

	"vbmo/internal/isa"
)

// Builder assembles a Program, resolving branch displacements from
// labels so workload generators can write structured control flow.
type Builder struct {
	entry   uint64
	code    []isa.Inst
	patches []patch
	// labels holds each label's bound instruction index, or -1 while it
	// is unbound: label l is labels[l-1], since NewLabel hands labels
	// out densely from 1.
	labels []int
}

// Label names a position in the program under construction.
type Label int

type patch struct {
	at    int // index of branch instruction
	label Label
}

// NewBuilder creates a builder whose program starts at entry.
func NewBuilder(entry uint64) *Builder {
	return &Builder{entry: entry}
}

// Grow reserves room for n more instructions, so a generator that
// knows its program's length emits it without regrowing the code. It
// is one make, not slices.Grow, whose append of a made slice allocates
// the slice too under the race detector (TestGenerateAllocs).
func (b *Builder) Grow(n int) {
	b.code = append(make([]isa.Inst, 0, len(b.code)+n), b.code...)
}

// Pos returns the index the next emitted instruction will occupy.
func (b *Builder) Pos() int { return len(b.code) }

// Emit appends one instruction and returns its index.
func (b *Builder) Emit(in isa.Inst) int {
	b.code = append(b.code, in)
	return len(b.code) - 1
}

// NewLabel allocates an unbound label.
func (b *Builder) NewLabel() Label {
	b.labels = append(b.labels, -1)
	return Label(len(b.labels))
}

// Bind binds a label to the current position.
func (b *Builder) Bind(l Label) {
	b.labels[l-1] = len(b.code)
}

// Here allocates a label bound to the current position.
func (b *Builder) Here() Label {
	l := b.NewLabel()
	b.Bind(l)
	return l
}

// Branch emits a branch whose displacement will be resolved to l.
func (b *Builder) Branch(op isa.Opcode, src isa.Reg, l Label) int {
	idx := b.Emit(isa.Inst{Op: op, Src1: src})
	b.patches = append(b.patches, patch{at: idx, label: l})
	return idx
}

// Build resolves all branches and returns the program. It panics on an
// unbound label — that is a generator bug, not a runtime condition.
func (b *Builder) Build() *Program {
	for _, p := range b.patches {
		tgt := b.labels[p.label-1]
		if tgt < 0 {
			panic(fmt.Sprintf("prog: unbound label %d", p.label))
		}
		b.code[p.at].Imm = int64(tgt - p.at)
	}
	return &Program{Entry: b.entry, Code: b.code}
}
