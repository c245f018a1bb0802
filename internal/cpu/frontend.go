package cpu

import (
	"specasan/internal/asm"
	"specasan/internal/isa"
	"specasan/internal/mem"
)

// Frontend is the instruction-stream source a machine executes: the fetch
// stage pulls decoded instructions from it, and machine construction asks it
// to initialise the static memory image (data blocks, tag seeds). The one
// implementation is an assembled program (AssembledFrontend); the seam
// stays because the repository benchmark (perfbench/) recomposes cells
// through it.
//
// The contract mirrors *asm.Program exactly so the live-decode path stays
// bit-identical: InstAt returns nil for non-code addresses (the fetch stage
// treats that as falling off the text), InstsFrom returns the straight-line
// run to the end of the enclosing code region, and EntryPC is where core 0
// starts. Implementations must be safe for concurrent readers: sweep cells
// running on separate goroutines may share one frontend. Returned *isa.Inst
// values are aliases into the frontend's storage and must not be mutated.
//
// internal/golden declares a structurally identical Source interface; any
// concrete frontend satisfies both, so one program drives the
// cycle-accurate machine and the functional interpreter alike.
type Frontend interface {
	// EntryPC is the architectural start address.
	EntryPC() uint64
	// InstAt returns the instruction at pc, or nil when pc is not code.
	InstAt(pc uint64) *isa.Inst
	// InstsFrom returns the contiguous instruction run starting at pc
	// through the end of its code region, or nil when pc is not code.
	InstsFrom(pc uint64) []isa.Inst
	// InitImage installs the frontend's static data (data blocks; code
	// stays in the frontend) into a fresh memory image.
	InitImage(img *mem.Image)
}

// AssembledFrontend is the live-decode frontend: instructions come straight
// from an assembled program, exactly as every machine fetched before the
// seam existed.
type AssembledFrontend struct {
	Prog *asm.Program
}

// EntryPC implements Frontend.
func (f AssembledFrontend) EntryPC() uint64 { return f.Prog.Entry }

// InstAt implements Frontend.
func (f AssembledFrontend) InstAt(pc uint64) *isa.Inst { return f.Prog.InstAt(pc) }

// InstsFrom implements Frontend.
func (f AssembledFrontend) InstsFrom(pc uint64) []isa.Inst { return f.Prog.InstsFrom(pc) }

// InitImage implements Frontend: data blocks load into the image; code is
// fetched from the program structure directly.
func (f AssembledFrontend) InitImage(img *mem.Image) { img.LoadProgram(f.Prog) }
