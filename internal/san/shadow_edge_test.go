package san

import (
	"bytes"
	"math/rand"
	"testing"
)

// Table-driven edge cases for the unified shadow: zero-size accesses,
// accesses straddling a redzone boundary, the last addressable byte of RAM,
// and snapshot round-trips of poisoned state.
func TestShadowEdgeCases(t *testing.T) {
	const ram = 1 << 16
	tests := []struct {
		name    string
		prep    func(s *Shadow)
		addr    uint32
		size    uint32
		wantOK  bool
		wantBad uint32 // checked only when !wantOK
	}{
		{
			name:   "zero-size access on poisoned memory is ok",
			prep:   func(s *Shadow) { s.Poison(0x100, 64, CodeHeapRedzone) },
			addr:   0x100,
			size:   0,
			wantOK: true,
		},
		{
			name:   "zero-size poison is a no-op",
			prep:   func(s *Shadow) { s.Poison(0x100, 0, CodeHeapRedzone) },
			addr:   0x100,
			size:   8,
			wantOK: true,
		},
		{
			name:   "zero-size unpoison is a no-op",
			prep:   func(s *Shadow) { s.Poison(0x100, 8, CodeHeapFree); s.Unpoison(0x100, 0) },
			addr:   0x100,
			size:   1,
			wantOK: false, wantBad: 0x100,
		},
		{
			name: "read up to the redzone boundary is ok",
			prep: func(s *Shadow) {
				s.Unpoison(0x200, 48)
				s.Poison(0x200+48, 16, CodeHeapRedzone)
			},
			addr:   0x200,
			size:   48,
			wantOK: true,
		},
		{
			name: "read straddling the redzone boundary reports the first redzone byte",
			prep: func(s *Shadow) {
				s.Unpoison(0x200, 48)
				s.Poison(0x200+48, 16, CodeHeapRedzone)
			},
			addr:   0x200 + 44,
			size:   8,
			wantOK: false, wantBad: 0x200 + 48,
		},
		{
			name: "straddle out of a sub-granule valid prefix",
			prep: func(s *Shadow) {
				// 13 valid bytes: granule 1 of the object keeps a validity
				// prefix of 5; byte 13 onward is an implicit redzone tail.
				s.Poison(0x300, 32, CodeHeapRedzone)
				s.Unpoison(0x300, 13)
			},
			addr:   0x300 + 10,
			size:   8,
			wantOK: false, wantBad: 0x300 + 13,
		},
		{
			name:   "last addressable byte of RAM is ok",
			prep:   func(s *Shadow) { s.Unpoison(ram-Granularity, Granularity) },
			addr:   ram - 1,
			size:   1,
			wantOK: true,
		},
		{
			name:   "poison covering the final granule flags the last byte",
			prep:   func(s *Shadow) { s.Poison(ram-Granularity, Granularity, CodeGlobalRedzone) },
			addr:   ram - 1,
			size:   1,
			wantOK: false, wantBad: ram - 1,
		},
		{
			// A hostile range-interceptor length: addr+size wraps past 2^32,
			// which must not shrink the range to nothing.
			name:   "length wrapping the address space still reports",
			prep:   func(s *Shadow) { s.Poison(0x200, Granularity, CodeHeapFree) },
			addr:   0x1F0,
			size:   0xFFFFFFF0,
			wantOK: false, wantBad: 0x200,
		},
		{
			name:   "access beyond shadow coverage is not judged",
			prep:   func(s *Shadow) {},
			addr:   ram + 64,
			size:   4,
			wantOK: true,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			s := NewShadow(ram)
			tc.prep(s)
			bad, code, ok := s.Check(tc.addr, tc.size)
			if ok != tc.wantOK {
				t.Fatalf("Check(%#x, %d): ok=%v code=%s, want ok=%v", tc.addr, tc.size, ok, CodeName(code), tc.wantOK)
			}
			if !ok && bad != tc.wantBad {
				t.Errorf("Check(%#x, %d): badAddr=%#x, want %#x", tc.addr, tc.size, bad, tc.wantBad)
			}
		})
	}
}

// TestShadowSnapshotRoundTripPoisoned: cloning a shadow with poisoned and
// partially valid granules and restoring through CopyFrom reproduces every
// verdict, including after the live shadow diverges.
func TestShadowSnapshotRoundTripPoisoned(t *testing.T) {
	const ram = 1 << 14
	s := NewShadow(ram)
	s.Poison(0x400, 128, CodeHeapRedzone)
	s.Unpoison(0x400, 29) // partial granule prefix
	s.Poison(ram-Granularity, Granularity, CodeStackRedzone)

	snap := s.Clone()

	verdict := func(sh *Shadow) [4]byte {
		var out [4]byte
		probes := []struct{ addr, size uint32 }{
			{0x400, 29}, {0x400 + 28, 4}, {ram - 1, 1}, {0x400 + 64, 8},
		}
		for i, p := range probes {
			_, code, ok := sh.Check(p.addr, p.size)
			if ok {
				out[i] = 0
			} else if code == 0 {
				out[i] = 1
			} else {
				out[i] = code
			}
		}
		return out
	}
	want := verdict(s)

	// Diverge the live shadow, then restore.
	s.Unpoison(0, ram)
	if got := verdict(s); got == want {
		t.Fatal("divergence probe did not change any verdict; test is vacuous")
	}
	s.CopyFrom(snap)
	if got := verdict(s); got != want {
		t.Errorf("verdicts after restore = %v, want %v", got, want)
	}

	// The snapshot itself must be unaffected by mutations to the original.
	s.Poison(0x400, 64, CodeHeapFree)
	if got := verdict(snap); got != want {
		t.Errorf("snapshot mutated through the original: %v, want %v", got, want)
	}
}

// firstBad is the byte-level reference for Check: the first byte of
// [addr, addr+size), clamped to the top of the address space and to shadow
// coverage, whose granule does not make it addressable.
func firstBad(s *Shadow, addr, size uint32) (uint32, bool) {
	end := uint64(addr) + uint64(size)
	if end > 1<<32 {
		end = 1 << 32
	}
	if cov := uint64(len(s.bytes)) * Granularity; end > cov {
		end = cov
	}
	for a := uint64(addr); a < end; a++ {
		sb := s.bytes[a/Granularity]
		if sb != 0 && (sb >= Granularity || a%Granularity >= uint64(sb)) {
			return uint32(a), false
		}
	}
	return 0, true
}

// TestShadowTopOfAddressSpace is a property test of range arithmetic at the
// top of the 32-bit space: ranges ending at or past 0xFFFFFFF8, exactly at
// 2^32, or wrapping past it (a hostile length handed to a range
// interceptor). Check must agree with the byte-level reference, and Poison
// and Unpoison of such a range must equal the same call with the length
// clamped to the end of coverage — none of them may wrap into a tiny range.
func TestShadowTopOfAddressSpace(t *testing.T) {
	const ram = 1 << 16
	rng := rand.New(rand.NewSource(1))
	tops := []uint64{0xFFFFFFF8, 0xFFFFFFFC, 0xFFFFFFFF, 1 << 32, 1<<32 + 1, 1<<32 + ram/2, 1<<33 - 2}
	for i := 0; i < 4000; i++ {
		s := NewShadow(ram)
		for j := rng.Intn(4); j >= 0; j-- {
			a := uint32(rng.Intn(ram))
			n := uint32(1 + rng.Intn(256))
			if rng.Intn(2) == 0 {
				s.Poison(a, n, CodeHeapFree)
			} else {
				s.Unpoison(a, n)
			}
		}
		// Start inside coverage (where verdicts matter) or anywhere up top.
		addr := uint32(rng.Intn(ram))
		if rng.Intn(4) == 0 {
			addr = 0xFFFFFFF0 + uint32(rng.Intn(16))
		}
		end := tops[rng.Intn(len(tops))]
		// A 32-bit size reaches at most addr+0xFFFFFFFF.
		end = min(max(end, uint64(addr)), uint64(addr)+0xFFFFFFFF)
		size := uint32(end - uint64(addr))
		if rng.Intn(8) == 0 {
			size = 0
		}

		wantBad, wantOK := firstBad(s, addr, size)
		bad, _, ok := s.Check(addr, size)
		if ok != wantOK || (!ok && bad != wantBad) {
			t.Fatalf("Check(%#x, %#x) = (%#x, %v), want (%#x, %v)", addr, size, bad, ok, wantBad, wantOK)
		}

		clamped := uint32(0)
		if size != 0 && addr < ram {
			clamped = ram - addr
		}
		for _, op := range []struct {
			name string
			do   func(*Shadow, uint32)
		}{
			{"Poison", func(sh *Shadow, n uint32) { sh.Poison(addr, n, CodeGlobalRedzone) }},
			{"Unpoison", func(sh *Shadow, n uint32) { sh.Unpoison(addr, n) }},
		} {
			got, want := s.Clone(), s.Clone()
			op.do(got, size)
			op.do(want, clamped)
			if !bytes.Equal(got.bytes, want.bytes) {
				t.Fatalf("%s(%#x, %#x) differs from the range clamped to coverage", op.name, addr, size)
			}
		}
	}
}
