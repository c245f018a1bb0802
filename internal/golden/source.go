package golden

import (
	"specasan/internal/asm"
	"specasan/internal/isa"
	"specasan/internal/mem"
)

// Source is the instruction-stream seam of the functional interpreter: the
// basic-block decode cache and the naive reference loop both pull decoded
// instructions from it, and construction asks it to initialise the static
// memory image. It is structurally identical to internal/cpu's Frontend
// interface (this package cannot import cpu — cpu's transplant seam imports
// golden), so a cpu.Frontend drives the interpreter and the cycle-accurate
// machine alike.
//
// Returned *isa.Inst values are aliases into the source's storage and must
// not be mutated; InstsFrom must return the same subslices a Program would,
// because the block cache decodes straight-line regions from them.
type Source interface {
	// EntryPC is the architectural start address.
	EntryPC() uint64
	// InstAt returns the instruction at pc, or nil when pc is not code.
	InstAt(pc uint64) *isa.Inst
	// InstsFrom returns the contiguous instruction run starting at pc
	// through the end of its code region, or nil when pc is not code.
	InstsFrom(pc uint64) []isa.Inst
	// InitImage installs the source's static data into a fresh memory image.
	InitImage(img *mem.Image)
}

// progSource adapts an assembled program to Source — the live-decode path
// New wraps. (asm.Program cannot implement Source itself: Entry is a field.)
type progSource struct{ p *asm.Program }

func (s progSource) EntryPC() uint64                { return s.p.Entry }
func (s progSource) InstAt(pc uint64) *isa.Inst     { return s.p.InstAt(pc) }
func (s progSource) InstsFrom(pc uint64) []isa.Inst { return s.p.InstsFrom(pc) }
func (s progSource) InitImage(img *mem.Image)       { img.LoadProgram(s.p) }
