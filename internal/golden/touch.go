package golden

import "encoding/binary"

// Touch flag bits, carried in the two low bits of a ring entry. Recorded
// addresses are aligned down to 4 bytes first, so the bits are free: no
// access is smaller than a byte and no cache line smaller than a word.
const (
	touchWrite  = 1 << 0
	touchIfetch = 1 << 1
)

// TouchRing remembers the most recent memory touches of a functional run:
// the key-stripped addresses of loads, stores and basic-block fetches, with
// newer touches overwriting the oldest once the ring is full. Sampled
// simulation attaches one to the interpreter during a fast-forward and
// replays it into the detailed machine's cache hierarchy after the state
// transplant (cpu.Machine.WarmCaches), so a detailed measurement window
// starts with the cache contents the skipped instructions would have left
// behind instead of stone-cold caches.
//
// Frozen returns a read-only copy packed as zigzag-varint deltas between
// consecutive entries: a window snapshot can be kept (and replayed by
// several detailed machines) at a fraction of the live ring's 8 bytes per
// entry, because successive touches mostly land near each other.
type TouchRing struct {
	buf  []uint64
	pos  int
	full bool

	// A frozen ring has no buf: n entries, oldest first, packed as deltas.
	packed []byte
	n      int
}

// NewTouchRing returns a ring remembering the last n touches.
func NewTouchRing(n int) *TouchRing {
	if n <= 0 {
		n = 1
	}
	return &TouchRing{buf: make([]uint64, n)}
}

// add records one encoded touch (aligned address | flag bits).
func (t *TouchRing) add(v uint64) {
	t.buf[t.pos] = v
	t.pos++
	if t.pos == len(t.buf) {
		t.pos = 0
		t.full = true
	}
}

// Len returns the number of touches currently held.
func (t *TouchRing) Len() int {
	switch {
	case t.buf == nil:
		return t.n
	case t.full:
		return len(t.buf)
	}
	return t.pos
}

// Each visits the recorded touches oldest to newest. write marks stores,
// ifetch marks basic-block entry fetches; both false is a load.
func (t *TouchRing) Each(fn func(addr uint64, write, ifetch bool)) {
	t.each(func(v uint64) {
		fn(v&^3, v&touchWrite != 0, v&touchIfetch != 0)
	})
}

// each visits the encoded entries oldest to newest.
func (t *TouchRing) each(fn func(v uint64)) {
	if t.buf == nil {
		var prev uint64
		for p := t.packed; len(p) > 0; {
			u, w := binary.Uvarint(p)
			p = p[w:]
			prev += uint64(int64(u>>1) ^ -int64(u&1))
			fn(prev)
		}
		return
	}
	if t.full {
		for _, v := range t.buf[t.pos:] {
			fn(v)
		}
	}
	for _, v := range t.buf[:t.pos] {
		fn(v)
	}
}

// Frozen returns a read-only copy of the ring's current contents that Len
// and Each read exactly as they read t. The copy shares nothing with t, so
// the walk that fills t can go on; adding to the copy panics.
func (t *TouchRing) Frozen() *TouchRing {
	buf := make([]byte, 0, 4*t.Len())
	var prev uint64
	t.each(func(v uint64) {
		d := int64(v - prev)
		buf = binary.AppendUvarint(buf, uint64(d<<1)^uint64(d>>63))
		prev = v
	})
	// Kept copies outlive the walk, so trim the slack off the estimate.
	return &TouchRing{n: t.Len(), packed: append([]byte(nil), buf...)}
}
