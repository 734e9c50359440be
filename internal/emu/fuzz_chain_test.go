package emu

import (
	"bytes"
	"testing"

	"embsan/internal/isa"
	"embsan/internal/kasm"
)

// fuzzImage wraps raw fuzzer bytes into a loadable image: word-aligned text
// at a base past the null guard, capped so a run stays cheap. Returns nil
// when the input cannot form even one instruction word.
func fuzzImage(code []byte) *kasm.Image {
	const maxText = 1024
	if len(code) > maxText {
		code = code[:maxText]
	}
	code = code[:len(code)&^3]
	if len(code) == 0 {
		return nil
	}
	return &kasm.Image{
		Name:  "fuzz",
		Arch:  isa.ArchARM32E,
		Base:  NullGuardSize,
		Entry: NullGuardSize,
		Text:  code,
	}
}

// encodeProgram assembles a builder program and returns its text bytes — the
// seed-corpus path from structured programs into the fuzzer's byte domain.
func encodeProgram(f *testing.F, build func(b *kasm.Builder)) []byte {
	b := kasm.NewBuilder(kasm.Target{Arch: isa.ArchARM32E})
	build(b)
	img, err := b.Link("seed")
	if err != nil {
		f.Fatal(err)
	}
	return img.Text
}

// FuzzChainedExecution runs arbitrary short programs on the chained and the
// unchained engine in lockstep and requires identical outcomes: stop reason,
// fault, retired-instruction count, every register of every hart, the
// final RAM contents and the set of PCs the coverage hook reported. Random words decode into branch sprays, self-loops,
// overlapping blocks and mid-block jump targets — exactly the block-graph
// shapes where a bad successor computation or a stale chain link would
// diverge first.
func FuzzChainedExecution(f *testing.F) {
	f.Add(uint8(0), encodeProgram(f, func(b *kasm.Builder) {
		b.Func("_start") // counted self-loop: the canonical chain
		b.Li(rT0, 40)
		b.Label("loop")
		b.ADDI(rA0, rA0, 1)
		b.ADDI(rT0, rT0, -1)
		b.BNEZ(rT0, "loop")
		b.HCALL(isa.HcallExit)
	}))
	f.Add(uint8(3), encodeProgram(f, func(b *kasm.Builder) {
		b.Func("_start") // call/return: JAL chain in, JALR (unchained) out
		b.Li(rT0, 10)
		b.Label("loop")
		b.Call("leaf")
		b.ADDI(rT0, rT0, -1)
		b.BNEZ(rT0, "loop")
		b.HCALL(isa.HcallExit)
		b.Func("leaf")
		b.ADDI(rA0, rA0, 3)
		b.Ret()
	}))
	f.Add(uint8(7), encodeProgram(f, func(b *kasm.Builder) {
		b.Func("_start") // branch ladder: both exits of each block exercised
		b.Li(rT0, 6)
		b.Label("a")
		b.ADDI(rT0, rT0, -1)
		b.BEQZ(rT0, "done")
		b.ANDI(rT1, rT0, 1)
		b.BNEZ(rT1, "a")
		b.ADDI(rA0, rA0, 1)
		b.J("a")
		b.Label("done")
		b.HCALL(isa.HcallExit)
	}))
	f.Add(uint8(1), []byte{0xFF, 0xFF, 0xFF, 0xFF, 0x00, 0x00, 0x00, 0x00})

	f.Fuzz(func(t *testing.T, seed uint8, code []byte) {
		img := fuzzImage(code)
		if img == nil {
			t.Skip()
		}
		const budget = 4096
		run := func(noChain bool) (*Machine, map[uint32]int) {
			m, err := New(img, Config{
				RAMSize: 1 << 20, MaxHarts: 2, Seed: uint64(seed),
				NoChain: noChain,
			})
			if err != nil {
				t.Skip() // image rejected (e.g. doesn't fit): nothing to compare
			}
			pcs := map[uint32]int{}
			m.SetCoverageHook(func(pc uint32) { pcs[pc]++ })
			m.Run(budget)
			return m, pcs
		}
		chained, chainedCov := run(false)
		plain, plainCov := run(true)

		if chained.StopReason() != plain.StopReason() {
			t.Fatalf("stop diverged: chained %v, plain %v", chained.StopReason(), plain.StopReason())
		}
		if chained.ExitCode() != plain.ExitCode() {
			t.Fatalf("exit diverged: chained %d, plain %d", chained.ExitCode(), plain.ExitCode())
		}
		if chained.ICount() != plain.ICount() {
			t.Fatalf("icnt diverged: chained %d, plain %d", chained.ICount(), plain.ICount())
		}
		cf, pf := chained.Fault(), plain.Fault()
		if (cf == nil) != (pf == nil) {
			t.Fatalf("fault diverged: chained %+v, plain %+v", cf, pf)
		}
		if cf != nil && *cf != *pf {
			t.Fatalf("fault diverged: chained %+v, plain %+v", cf, pf)
		}
		for i := 0; i < chained.NumHarts(); i++ {
			ch, ph := chained.Hart(i), plain.Hart(i)
			if ch.PC != ph.PC || ch.Regs != ph.Regs || ch.Active != ph.Active || ch.Halted != ph.Halted {
				t.Fatalf("hart %d diverged:\nchained pc=%#x regs=%v\nplain   pc=%#x regs=%v",
					i, ch.PC, ch.Regs, ph.PC, ph.Regs)
			}
		}
		cram, err1 := chained.ReadBytes(NullGuardSize, chained.RAMSize()-NullGuardSize)
		pram, err2 := plain.ReadBytes(NullGuardSize, plain.RAMSize()-NullGuardSize)
		if err1 != nil || err2 != nil {
			t.Fatalf("ram read: %v / %v", err1, err2)
		}
		if !bytes.Equal(cram, pram) {
			t.Fatal("final RAM diverged between chained and unchained execution")
		}
		if !samePCs(chainedCov, plainCov) {
			t.Fatalf("covered PCs diverged: chained %d, plain %d", len(chainedCov), len(plainCov))
		}
		if plain.Counters().ChainHits != 0 {
			t.Fatalf("NoChain engine followed %d exit links", plain.Counters().ChainHits)
		}
	})
}
