package san

import (
	"reflect"
	"testing"
)

// kasanView is the restorable part of a KASAN engine: the chunk table by
// value and the quarantine order.
type kasanView struct {
	chunks     map[uint32]Chunk
	quarantine []uint32
}

func viewOf(k *KASAN) kasanView {
	v := kasanView{chunks: make(map[uint32]Chunk, len(k.chunks)), quarantine: append([]uint32{}, k.quarantine...)}
	for a, c := range k.chunks {
		v.chunks[a] = *c
	}
	return v
}

// applyHeapOps drives the allocator events one fuzz input encodes, two
// bytes per event over 16 chunk bases: allocations (including re-allocating
// a live or freed base), frees of any base (double and invalid frees
// included) and frees of a non-base address. The cycle number skews the
// sizes so consecutive cycles do different work.
func applyHeapOps(k *KASAN, ops []byte, cycle int) {
	for i := 0; i+1 < len(ops); i += 2 {
		base := 0x2000 + uint32(ops[i]&0x0F)*0x40
		arg := uint32(ops[i+1])
		switch ops[i] >> 4 & 3 {
		case 0, 1:
			k.OnAlloc(base, 1+(arg+uint32(cycle))%56, arg)
		case 2:
			k.OnFree(base, arg, 0)
		case 3:
			k.OnFree(base+8, arg, 1)
		}
	}
}

// FuzzKASANRestore runs random allocator event sequences after a snapshot
// and requires every restore to reproduce the snapshot's chunk table and
// quarantine exactly, over several cycles per input. The quarantine holds
// four chunks, so five frees already force eviction. One cycle restores to
// an older state than the latest snapshot, taking the full-rebuild path;
// the cycles after it run on the dirty log again.
func FuzzKASANRestore(f *testing.F) {
	f.Add([]byte{0x00, 16, 0x20, 1, 0x20, 2, 0x30, 3})                 // alloc, free, double free, invalid free
	f.Add([]byte{0x21, 7, 0x01, 24, 0x22, 9, 0x11, 40})                // free a snapshot chunk, re-allocate its base
	f.Add([]byte{0x05, 8, 0x06, 8, 0x07, 8, 0x08, 8, 0x09, 8, 0x25, 1, // six allocs, six frees:
		0x26, 1, 0x27, 1, 0x28, 1, 0x29, 1, 0x20, 1, 0x0A, 8, 0x2A, 1}) // evicts snapshot entries
	f.Fuzz(func(t *testing.T, ops []byte) {
		k := NewKASAN(NewShadow(1<<16), 4)
		k.NoteHeapRegion(0x2000, 0x2400)
		// Snapshot-time state has live and quarantined chunks, so restores
		// must rewrite and re-insert entries as well as delete them.
		k.OnAlloc(0x2000, 16, 1)
		k.OnAlloc(0x2040, 24, 2)
		k.OnAlloc(0x2080, 8, 3)
		k.OnFree(0x2040, 4, 0)
		st := k.Snapshot()
		want := viewOf(k)
		for cycle := 0; cycle < 4; cycle++ {
			applyHeapOps(k, ops, cycle)
			if cycle == 1 {
				k.Snapshot() // a newer state: restoring st below rebuilds fully
				applyHeapOps(k, ops, cycle+1)
			}
			k.RestoreState(st)
			if got := viewOf(k); !reflect.DeepEqual(got, want) {
				t.Fatalf("cycle %d: restored state differs from the snapshot\ngot  %+v\nwant %+v", cycle, got, want)
			}
		}
	})
}

// TestKASANRestoreAfterLogOverflow: a run that changes more chunk entries
// than the dirty log holds drops the log, and the restore falls back to a
// full rebuild that still reproduces the snapshot.
func TestKASANRestoreAfterLogOverflow(t *testing.T) {
	k := NewKASAN(NewShadow(1<<16), 8)
	k.NoteHeapRegion(0x2000, 0x4000)
	k.OnAlloc(0x2000, 16, 1)
	st := k.Snapshot()
	want := viewOf(k)
	for i := 0; i < maxTouched; i++ {
		a := 0x2100 + uint32(i%64)*0x40
		k.OnAlloc(a, 32, 2)
		k.OnFree(a, 3, 0)
	}
	k.OnFree(0x2000, 4, 0)
	if k.snap != nil {
		t.Fatal("dirty log kept past its bound")
	}
	k.RestoreState(st)
	if got := viewOf(k); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored state differs from the snapshot\ngot  %+v\nwant %+v", got, want)
	}
}
