package san

import (
	"testing"

	"embsan/internal/dsl"
	"embsan/internal/emu"
	"embsan/internal/isa"
	"embsan/internal/kasm"
)

const (
	rZ  = isa.RegZero
	rRA = isa.RegRA
	rSP = isa.RegSP
	rA0 = isa.RegA0
	rA1 = isa.RegA1
	rA2 = isa.RegA2
	rT0 = isa.RegT0
	rT1 = isa.RegT1
)

// buildScenario constructs a miniature firmware with a bump allocator and
// one triggered bug, in the given sanitize mode.
func buildScenario(t *testing.T, mode kasm.SanitizeMode, scenario string) *kasm.Image {
	t.Helper()
	b := kasm.NewBuilder(kasm.Target{Arch: isa.ArchARM32E, Sanitize: mode})
	// The pad keeps every written global off the text page, so a restore
	// rewinds data without retranslating code.
	b.GlobalRaw("pad", 4096)
	b.GlobalRaw("stack", 4096)
	b.GlobalRaw("heap", 4096)
	b.GlobalRaw("heap_next", 4)
	b.Global("gbuf", 24) // redzoned in EMBSAN-C builds

	b.Func("_start")
	b.La(rSP, "stack")
	b.ADDI(rSP, rSP, 2044)
	// Initialise the bump pointer.
	b.NoSan(func() {
		b.La(rT0, "heap_next")
		b.La(rT1, "heap")
		b.SW(rT1, rT0, 0)
	})
	b.Ready()
	b.Call("scenario")
	b.Li(rA0, 0)
	b.HCALL(isa.HcallExit)

	// kmalloc: a0 = size -> a0 = ptr (16-byte aligned bump).
	b.Func("kmalloc")
	b.NoSan(func() {
		b.MV(rA1, rA0) // keep size for the hook
		b.La(rT0, "heap_next")
		b.LW(rT1, rT0, 0)
		b.ADDI(rA0, rA1, 15)
		b.SRLI(rA0, rA0, 4)
		b.SLLI(rA0, rA0, 4)
		b.ADD(rA0, rA0, rT1)
		b.SW(rA0, rT0, 0)
		b.MV(rA0, rT1)
	})
	b.SanAllocHook() // a0 = ptr, a1 = size (EMBSAN-C / native builds)
	b.Ret()
	b.MarkAlloc("kmalloc")

	// kfree: a0 = ptr (bump allocators never reuse; good enough here).
	b.Func("kfree")
	b.SanFreeHook()
	b.Ret()
	b.MarkFree("kfree")

	b.Func("scenario")
	b.Prologue(16)
	switch scenario {
	case "heap_oob":
		b.Li(rA0, 24)
		b.Call("kmalloc")
		b.Li(rT0, 0x5A)
		b.SB(rT0, rA0, 24) // one past the object
	case "uaf":
		b.Li(rA0, 16)
		b.Call("kmalloc")
		b.SW(rA0, rSP, 0)
		b.Call("kfree")
		b.LW(rA0, rSP, 0)
		b.LW(rT0, rA0, 0) // read after free
	case "double_free":
		b.Li(rA0, 16)
		b.Call("kmalloc")
		b.SW(rA0, rSP, 0)
		b.Call("kfree")
		b.LW(rA0, rSP, 0)
		b.Call("kfree")
	case "null":
		b.Li(rT0, 0x10)
		b.LW(rT1, rT0, 0)
	case "global_oob":
		b.La(rT0, "gbuf")
		b.Li(rT1, 0x77)
		b.SB(rT1, rT0, 24) // one past the global
	case "stack_oob":
		// A guarded on-stack buffer, overflowed by one byte. Only
		// compile-time-instrumented builds lay down stack redzones.
		b.ADDI(rSP, rSP, -64)
		b.GuardedBuffer(16, 24, rA1)
		b.Li(rT1, 0x21)
		b.SB(rT1, rA1, 23) // in bounds
		b.SB(rT1, rA1, 24) // one past
		b.UnguardBuffer(16, 24)
		b.ADDI(rSP, rSP, 64)
	case "invalid_free":
		b.La(rA0, "gbuf") // not a heap pointer
		b.Call("kfree")
	case "churn":
		// Clean heap traffic: two objects allocated and freed, so a
		// restore has chunks to delete and none to report.
		b.Li(rA0, 32)
		b.Call("kmalloc")
		b.SW(rA0, rSP, 0)
		b.Li(rA0, 16)
		b.Call("kmalloc")
		b.Call("kfree")
		b.LW(rA0, rSP, 0)
		b.Call("kfree")
	case "clean":
		b.Li(rA0, 32)
		b.Call("kmalloc")
		b.Li(rT0, 1)
		b.SW(rT0, rA0, 0)
		b.LW(rT1, rA0, 28)
	default:
		t.Fatalf("unknown scenario %q", scenario)
	}
	b.Epilogue(16)

	img, err := b.Link("scenario-" + scenario)
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	return img
}

// findExits locates the return instructions of a function (what the Prober
// does with its static pass).
func findExits(t *testing.T, img *kasm.Image, fn string) []uint32 {
	t.Helper()
	s, ok := img.Lookup(fn)
	if !ok {
		t.Fatalf("no symbol %s", fn)
	}
	var exits []uint32
	for pc := s.Addr; pc < s.Addr+s.Size; pc += 4 {
		w := img.Arch.Word(img.Text[pc-img.Base:])
		in, err := isa.Decode(w, img.Arch)
		if err == nil && in.Op == isa.OpJALR && in.Rd == rZ && in.Rs1 == rRA {
			exits = append(exits, pc)
		}
	}
	return exits
}

func kasanSpec(t *testing.T) *dsl.Sanitizer {
	t.Helper()
	f, err := dsl.Parse(`
sanitizer kasan {
  intercept load(addr: ptr, size: u32) -> check;
  intercept store(addr: ptr, size: u32) -> check;
  intercept atomic(addr: ptr, size: u32) -> check;
  intercept func kmalloc(size: u32) ret ptr -> alloc;
  intercept func kfree(ptr: ptr) -> free;
  resource shadow { granularity = 8; }
}`)
	if err != nil {
		t.Fatal(err)
	}
	return f.Sanitizers[0]
}

// platformFor builds the D-mode platform config the Prober would emit.
func platformFor(t *testing.T, img *kasm.Image) *dsl.Platform {
	t.Helper()
	heap, _ := img.Lookup("heap")
	km, _ := img.Lookup("kmalloc")
	kf, _ := img.Lookup("kfree")
	return &dsl.Platform{
		Name:  img.Name,
		Arch:  img.Arch.String(),
		RAM:   emu.DefaultRAMSize,
		Heaps: []dsl.Region{{Start: heap.Addr, End: heap.Addr + heap.Size}},
		Allocs: []dsl.AllocFn{{
			Name: "kmalloc", Entry: km.Addr, Exits: findExits(t, img, "kmalloc"),
			SizeArg: "a0", RetArg: "a0",
		}},
		Frees: []dsl.FreeFn{{Name: "kfree", Entry: kf.Addr, PtrArg: "a0"}},
		Suppress: []dsl.Region{
			{Start: km.Addr, End: km.Addr + km.Size},
			{Start: kf.Addr, End: kf.Addr + kf.Size},
		},
	}
}

// runScenario runs one scenario in the given mode and returns the reports.
func runScenario(t *testing.T, mode kasm.SanitizeMode, scenario string) []*Report {
	t.Helper()
	img := buildScenario(t, mode, scenario)
	m, err := emu.New(img, emu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Spec: kasanSpec(t), Quarantine: 16}
	if mode == kasm.SanEmbsanC {
		opts.Hypercalls = true
		opts.Globals = img.Meta.Globals
		heap, _ := img.Lookup("heap")
		opts.Platform = &dsl.Platform{
			Name: img.Name, Arch: img.Arch.String(),
			Heaps: []dsl.Region{{Start: heap.Addr, End: heap.Addr + heap.Size}},
		}
	} else {
		opts.Platform = platformFor(t, img)
	}
	rt, err := Attach(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r := m.Run(1_000_000); r != emu.StopExit {
		// Null scenario faults after the report unless stopped; that is fine
		// as long as the report exists.
		if r != emu.StopFault && r != emu.StopRequest {
			t.Fatalf("%s/%s: stop = %v fault=%v", mode, scenario, r, m.Fault())
		}
	}
	return rt.Reports()
}

func TestRuntimeDetectionMatrix(t *testing.T) {
	// scenario -> expected bug under each mode; "" means no report expected.
	type want struct{ d, c BugType }
	none := BugType(255)
	cases := map[string]want{
		"heap_oob":    {BugOOB, BugOOB},
		"uaf":         {BugUAF, BugUAF},
		"double_free": {BugDoubleFree, BugDoubleFree},
		"null":        {BugNullDeref, BugNullDeref},
		// The capability split of Table 2: global and stack OOB need
		// compile-time redzones, so EMBSAN-D misses them and EMBSAN-C
		// catches them.
		"global_oob":   {none, BugGlobalOOB},
		"stack_oob":    {none, BugStackOOB},
		"invalid_free": {BugInvalidFree, BugInvalidFree},
		"clean":        {none, none},
	}
	for scenario, w := range cases {
		dRep := runScenario(t, kasm.SanNone, scenario)
		cRep := runScenario(t, kasm.SanEmbsanC, scenario)
		check := func(mode string, reps []*Report, wantBug BugType) {
			if wantBug == none {
				if len(reps) != 0 {
					t.Errorf("%s/%s: unexpected reports: %v", scenario, mode, reps[0].Title())
				}
				return
			}
			if len(reps) == 0 {
				t.Errorf("%s/%s: no report", scenario, mode)
				return
			}
			if reps[0].Bug != wantBug {
				t.Errorf("%s/%s: bug = %v, want %v", scenario, mode, reps[0].Bug, wantBug)
			}
			if reps[0].Location == "" {
				t.Errorf("%s/%s: no symbolized location", scenario, mode)
			}
		}
		check("EMBSAN-D", dRep, w.d)
		check("EMBSAN-C", cRep, w.c)
	}
}

func TestRuntimeReportContext(t *testing.T) {
	reps := runScenario(t, kasm.SanNone, "uaf")
	if len(reps) == 0 {
		t.Fatal("no UAF report")
	}
	r := reps[0]
	if r.ChunkSize != 16 || r.AllocPC == 0 || r.FreePC == 0 {
		t.Errorf("UAF report lacks object context: %+v", r)
	}
	if r.Location[:8] != "scenario" {
		t.Errorf("UAF location = %q, want inside scenario", r.Location)
	}
}

func TestRuntimeDisabledBeforeReady(t *testing.T) {
	// A bug triggered before the ready point must not be reported: the
	// sanitizer initialises at ready, like the paper's boot-phase split.
	b := kasm.NewBuilder(kasm.Target{Arch: isa.ArchARM32E})
	b.Func("_start")
	b.Li(rT0, 0x10)
	b.LW(rT1, rT0, 0) // pre-ready null read
	b.Ready()
	b.Li(rA0, 0)
	b.HCALL(isa.HcallExit)
	img, err := b.Link("preready")
	if err != nil {
		t.Fatal(err)
	}
	m, _ := emu.New(img, emu.Config{})
	rt, err := Attach(m, Options{Spec: kasanSpec(t)})
	if err != nil {
		t.Fatal(err)
	}
	m.Run(0) // will fault on the null guard, which is expected
	if len(rt.Reports()) != 0 {
		t.Errorf("pre-ready access reported: %v", rt.Reports()[0].Title())
	}
}

func TestRuntimeStopOnReport(t *testing.T) {
	img := buildScenario(t, kasm.SanNone, "heap_oob")
	m, _ := emu.New(img, emu.Config{})
	opts := Options{Spec: kasanSpec(t), Platform: platformFor(t, img), StopOnReport: true}
	rt, err := Attach(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r := m.Run(0); r != emu.StopRequest {
		t.Fatalf("stop = %v, want request", r)
	}
	if len(rt.Reports()) != 1 {
		t.Fatalf("reports = %d", len(rt.Reports()))
	}
}

func TestRuntimeSnapshotRestore(t *testing.T) {
	img := buildScenario(t, kasm.SanNone, "uaf")
	m, _ := emu.New(img, emu.Config{})
	rt, err := Attach(m, Options{Spec: kasanSpec(t), Platform: platformFor(t, img)})
	if err != nil {
		t.Fatal(err)
	}
	m.ReadyHook = chainReady(m.ReadyHook, func(mm *emu.Machine) {
		mm.Snapshot()
		rt.Snapshot()
	})
	for i := 0; i < 3; i++ {
		if i > 0 {
			m.Restore()
			rt.Restore()
		}
		m.Run(1_000_000)
		if len(rt.Reports()) != 1 || rt.Reports()[0].Bug != BugUAF {
			t.Fatalf("run %d: reports = %v", i, rt.Reports())
		}
	}
}

// TestRuntimeRestoreZeroAlloc: Restore runs once per campaign execution,
// so after an execution that allocated and freed heap it must rewind the
// chunk table, shadow, report state and allocator bookkeeping without a
// single heap allocation. Each measured call replays that execution first,
// so every Restore has real work to undo.
func TestRuntimeRestoreZeroAlloc(t *testing.T) {
	img := buildScenario(t, kasm.SanNone, "churn")
	m, _ := emu.New(img, emu.Config{})
	rt, err := Attach(m, Options{Spec: kasanSpec(t), Platform: platformFor(t, img)})
	if err != nil {
		t.Fatal(err)
	}
	m.ReadyHook = chainReady(m.ReadyHook, func(mm *emu.Machine) {
		mm.Snapshot()
		rt.Snapshot()
	})
	exec := func() {
		if r := m.Run(1_000_000); r != emu.StopExit {
			t.Fatalf("stop = %v, fault = %v", r, m.Fault())
		}
	}
	exec()
	if len(rt.Reports()) != 0 {
		t.Fatalf("clean heap traffic reported: %v", rt.Reports()[0].Title())
	}
	if n := len(rt.kasan.touched); n < 4 {
		t.Fatalf("execution logged %d chunk changes, want two allocs and two frees", n)
	}
	allocs := testing.AllocsPerRun(20, func() {
		m.Restore()
		rt.Restore()
		exec()
	})
	if allocs != 0 {
		t.Errorf("Restore+exec allocated %.1f times per execution, want 0", allocs)
	}
}

func chainReady(prev func(*emu.Machine), next func(*emu.Machine)) func(*emu.Machine) {
	return func(m *emu.Machine) {
		if prev != nil {
			prev(m)
		}
		next(m)
	}
}

func TestRuntimeRaceDetection(t *testing.T) {
	// Two harts pound the same word without synchronisation; the merged
	// KASAN+KCSAN spec must produce a data-race report.
	b := kasm.NewBuilder(kasm.Target{Arch: isa.ArchARM32E})
	b.GlobalRaw("shared", 4)
	b.GlobalRaw("stk1", 1024)
	b.Func("_start")
	b.Ready()
	b.Li(rA0, 1)
	b.La(rA1, "pound")
	b.La(rA2, "stk1")
	b.ADDI(rA2, rA2, 1020)
	b.HCALL(isa.HcallSpawn)
	b.Call("pound")
	b.Li(rA0, 0)
	b.HCALL(isa.HcallExit)
	b.Func("pound")
	b.La(rT0, "shared")
	b.Li(rT1, 2000)
	b.Label("l")
	b.LW(rA0, rT0, 0)
	b.ADDI(rA0, rA0, 1)
	b.SW(rA0, rT0, 0)
	b.ADDI(rT1, rT1, -1)
	b.BNEZ(rT1, "l")
	b.Ret()
	img, err := b.Link("race")
	if err != nil {
		t.Fatal(err)
	}

	f, err := dsl.Parse(`
sanitizer kcsan {
  intercept load(addr: ptr, size: u32) -> check [kcsan];
  intercept store(addr: ptr, size: u32) -> check [kcsan];
}`)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := emu.New(img, emu.Config{Seed: 42})
	rt, err := Attach(m, Options{
		Spec:  f.Sanitizers[0],
		KCSAN: KCSANConfig{Slots: 4, SampleInterval: 7, Delay: 300},
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Run(10_000_000)
	var races int
	for _, r := range rt.Reports() {
		if r.Bug == BugRace {
			races++
		}
	}
	if races == 0 {
		t.Error("no data race detected")
	}
}

// TestRuntimeUBSANAdaptability exercises the paper's §5 adaptability claim:
// a third sanitizer (an alignment checker) plugs into the same pipeline —
// distilled spec, merged with KASAN, runtime logic in the host — without
// touching the guest.
func TestRuntimeUBSANAdaptability(t *testing.T) {
	b := kasm.NewBuilder(kasm.Target{Arch: isa.ArchARM32E})
	b.GlobalRaw("data", 16)
	b.Func("_start")
	b.Ready()
	b.La(rA1, "data")
	b.LW(rT0, rA1, 0) // aligned: fine
	b.LW(rT0, rA1, 2) // misaligned word load
	b.LH(rT0, rA1, 5) // misaligned halfword load
	b.Li(rA0, 0)
	b.HCALL(isa.HcallExit)
	img, err := b.Link("align")
	if err != nil {
		t.Fatal(err)
	}

	run := func(sanitizers []*dsl.Sanitizer) []*Report {
		spec := sanitizers[0]
		if len(sanitizers) > 1 {
			spec = dsl.MergeSanitizers("merged", sanitizers)
		}
		m, _ := emu.New(img, emu.Config{})
		rt, err := Attach(m, Options{Spec: spec})
		if err != nil {
			t.Fatal(err)
		}
		m.Run(1_000_000)
		return rt.Reports()
	}

	ubsanFile, err := dsl.Parse(`
sanitizer ubsan {
  intercept load(addr: ptr, size: u32, type: u32) -> check [ubsan];
  intercept store(addr: ptr, size: u32, type: u32) -> check [ubsan];
}`)
	if err != nil {
		t.Fatal(err)
	}
	kasanFile, err := dsl.Parse(`
sanitizer kasan {
  intercept load(addr: ptr, size: u32) -> check [kasan];
  intercept store(addr: ptr, size: u32) -> check [kasan];
}`)
	if err != nil {
		t.Fatal(err)
	}

	// KASAN alone is silent on misalignment.
	if reps := run(kasanFile.Sanitizers); len(reps) != 0 {
		t.Errorf("kasan-only reported misalignment: %v", reps[0].Title())
	}
	// The merged kasan+ubsan spec reports the misalignment (both sites sit
	// in the same function, so report-once dedup folds them into one).
	reps := run([]*dsl.Sanitizer{kasanFile.Sanitizers[0], ubsanFile.Sanitizers[0]})
	var misaligned int
	for _, r := range reps {
		if r.Bug == BugMisaligned && r.Tool == ToolUBSAN {
			misaligned++
		}
	}
	if misaligned != 1 {
		t.Errorf("misaligned reports = %d, want 1 (got %d total)", misaligned, len(reps))
	}
}

func TestConvertNative(t *testing.T) {
	img := buildScenario(t, kasm.SanNone, "clean")
	reps := ConvertNative(img, []emu.NativeReport{
		{Addr: 0x2000, Info: uint32(CodeHeapFree), PC: img.Entry, Kind: NativeKindKASAN},
		{Addr: 0x3000, Info: 0x1234, PC: img.Entry + 4, Kind: NativeKindKCSAN},
	})
	if len(reps) != 2 {
		t.Fatal("conversion count")
	}
	if reps[0].Bug != BugUAF || reps[0].Tool != ToolKASAN {
		t.Errorf("native kasan report: %+v", reps[0])
	}
	if reps[1].Bug != BugRace || reps[1].Tool != ToolKCSAN || reps[1].OtherPC != 0x1234 {
		t.Errorf("native kcsan report: %+v", reps[1])
	}
	if reps[0].Location == "" {
		t.Error("native report not symbolized")
	}
}
