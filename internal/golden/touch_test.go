package golden

import (
	"reflect"
	"testing"
)

type touch struct {
	addr          uint64
	write, ifetch bool
}

func touches(t *TouchRing) []touch {
	var out []touch
	t.Each(func(addr uint64, write, ifetch bool) {
		out = append(out, touch{addr, write, ifetch})
	})
	return out
}

// TestTouchRingFrozen: the packed copy replays the live ring's exact
// sequence (address, write flag, ifetch flag) and length, whether the ring
// is empty, partly filled or wrapped, and across deltas that wrap the
// 64-bit address space in either direction.
func TestTouchRingFrozen(t *testing.T) {
	seq := func(n int) []uint64 {
		var vs []uint64
		for i := 0; i < n; i++ {
			vs = append(vs, uint64(0x10000+64*i)|uint64(i%4))
		}
		return vs
	}
	for _, tc := range []struct {
		name string
		size int
		adds []uint64
	}{
		{"empty", 8, nil},
		{"partial", 8, seq(5)},
		{"wrapped", 8, seq(21)},
		{"extreme-deltas", 16, []uint64{
			0xffff_ffff_ffff_fffc | touchWrite, 0, 0x8000_0000_0000_0000 | touchIfetch,
			4, 0xffff_ffff_ffff_fffc | touchIfetch | touchWrite, 0x7fff_ffff_ffff_fffc,
			0x8000_0000_0000_0000, 0x10000 | touchWrite, 0xffff_0000_0000_0000,
		}},
	} {
		live := NewTouchRing(tc.size)
		for _, v := range tc.adds {
			live.add(v)
		}
		frozen := live.Frozen()
		want := touches(live)
		if got := touches(frozen); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: frozen ring replays\n%v\nwant\n%v", tc.name, got, want)
		}
		if frozen.Len() != live.Len() {
			t.Errorf("%s: frozen Len %d, live %d", tc.name, frozen.Len(), live.Len())
		}
		if n := min(len(tc.adds), tc.size); live.Len() != n {
			t.Errorf("%s: live Len %d, want %d", tc.name, live.Len(), n)
		}
		// The copy shares nothing with the ring the walk goes on filling.
		live.add(0x4000)
		if !reflect.DeepEqual(touches(frozen), want) {
			t.Errorf("%s: frozen ring changed when the live ring moved on", tc.name)
		}
	}
}
