package exps

import (
	"fmt"
	"strings"
	"testing"

	"embsan/internal/guest/elinux"
	"embsan/internal/guest/firmware"
)

// TestTable2KnownBugMatrix is the paper's Table 2: all 25 bugs detected by
// EMBSAN-C and native KASAN; EMBSAN-D detects everything except the two
// global out-of-bounds bugs.
func TestTable2KnownBugMatrix(t *testing.T) {
	rows, err := RunTable2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 25 {
		t.Fatalf("rows = %d, want 25", len(rows))
	}
	for _, r := range rows {
		wantD := !r.Def.NeedsCompileTime()
		if !r.EmbsanC {
			t.Errorf("%s: EMBSAN-C missed it", r.Def.Fn)
		}
		if !r.NativeKASAN {
			t.Errorf("%s: native KASAN missed it", r.Def.Fn)
		}
		if r.EmbsanD != wantD {
			t.Errorf("%s: EMBSAN-D detected=%v, want %v", r.Def.Fn, r.EmbsanD, wantD)
		}
	}
	text := FormatTable2(rows)
	for _, want := range []string{"fbcon_get_font", "5.7-rc5", "ringbuf_map_alloc", "Use-after-free"} {
		if !strings.Contains(text, want) {
			t.Errorf("formatted table missing %q", want)
		}
	}
}

// TestTable3And4Campaigns runs the fuzzing campaigns on every Table 1
// firmware and checks the 41 seeded bugs are found and classified like the
// paper's Tables 3 and 4.
func TestTable3And4Campaigns(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaigns are long; run without -short")
	}
	cs, err := RunAllCampaigns(CampaignOptions{Execs: 30000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range cs {
		total += len(c.Found)
		for _, missed := range c.Missed {
			t.Errorf("%s: seeded bug %s not found by the campaign", c.Firmware.Name, missed)
		}
		// Classification must match the seeded ground truth.
		for _, f := range c.Found {
			for _, seed := range c.Firmware.Bugs {
				if seed.Fn == f.Fn && seed.Type.Short() != f.Class {
					t.Errorf("%s: %s classified %s, want %s", c.Firmware.Name, f.Fn, f.Class, seed.Type.Short())
				}
			}
		}
	}
	if total != 41 {
		t.Errorf("total bugs found = %d, want 41\n%s", total, FormatCampaignStats(cs))
	}
	t3 := FormatTable3(cs)
	if !strings.Contains(t3, "Total: 41 bugs") {
		t.Errorf("Table 3 total mismatch:\n%s", t3)
	}
	t4 := FormatTable4(cs)
	for _, want := range []string{"pppoed", "dhcpsd", "src/libs/littlefs/", "fs/vfs", "fs/btrfs"} {
		if !strings.Contains(t4, want) {
			t.Errorf("Table 4 missing %q", want)
		}
	}
}

// TestFigure2OverheadShape measures the overhead series on a representative
// firmware subset and checks the paper's qualitative shape: every sanitizer
// configuration slows execution down, and KCSAN costs more than KASAN.
func TestFigure2OverheadShape(t *testing.T) {
	if testing.Short() {
		t.Skip("overhead measurement is long; run without -short")
	}
	// Wall-clock measurement on a shared machine can eat a scheduler
	// preemption; allow one re-measurement before declaring the shape wrong.
	var problems []string
	for attempt := 0; attempt < 2; attempt++ {
		rows, err := RunOverhead([]string{"OpenWRT-x86_64", "OpenWRT-bcm63xx", "InfiniTime"},
			OverheadOptions{Programs: 8, Repeats: 3, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		problems = checkFigure2Shape(rows)
		if len(problems) == 0 {
			out := FormatFigure2(rows)
			if !strings.Contains(out, "Grouped slowdown ranges") {
				t.Error("figure text missing groupings")
			}
			return
		}
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// TestFigure2WorkloadBenign: on every registry firmware the Figure 2
// workload replays on a live EMBSAN-KASAN deployment — the way measure
// replays it, with no restore between inputs — and every input completes
// without a report. A workload that reaches a seeded bug would make the
// figure time the report path instead of the checks.
func TestFigure2WorkloadBenign(t *testing.T) {
	for _, name := range firmware.Names {
		fw, err := firmware.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		workload, err := buildWorkload(fw, OverheadOptions{Programs: 16})
		if err != nil {
			t.Fatal(err)
		}
		inst, err := deployOverhead(fw, []string{"kasan"})
		if err != nil {
			t.Fatal(err)
		}
		for i, in := range workload {
			res := inst.Exec(in, 100_000_000)
			if !res.Done || len(res.Reports) > 0 {
				t.Errorf("%s: workload input %d not benign: done=%v reports=%d fault=%v",
					name, i, res.Done, len(res.Reports), res.Fault)
			}
		}
	}
}

// checkFigure2Shape asserts the paper's qualitative claims: every EMBSAN
// configuration costs something, KCSAN costs more than KASAN, and the
// Embedded Linux native baselines show measurable overhead (Figure 2 has
// native baselines only for Linux; RTOS native builds are informational —
// their background tasks dominate short workloads).
func checkFigure2Shape(rows []OverheadRow) []string {
	var out []string
	for _, r := range rows {
		if v := r.Slowdown[CfgEmbsanKASAN]; v < 1.05 {
			out = append(out, fmt.Sprintf("%s: EMBSAN KASAN slowdown %.2fx — expected measurable overhead", r.Firmware, v))
		}
		if kcsan, ok := r.Slowdown[CfgEmbsanKCSAN]; ok {
			if kcsan <= r.Slowdown[CfgEmbsanKASAN] {
				out = append(out, fmt.Sprintf("%s: KCSAN (%.2fx) should cost more than KASAN (%.2fx)",
					r.Firmware, kcsan, r.Slowdown[CfgEmbsanKASAN]))
			}
		}
		if r.BaseOS == "Embedded Linux" {
			if nk, ok := r.Slowdown[CfgNativeKASAN]; ok && nk < 1.05 {
				out = append(out, fmt.Sprintf("%s: native KASAN slowdown %.2fx — expected measurable overhead", r.Firmware, nk))
			}
		}
	}
	return out
}

func TestTable1Format(t *testing.T) {
	fws, err := firmware.BuildAll()
	if err != nil {
		t.Fatal(err)
	}
	text := FormatTable1(fws)
	for _, want := range []string{"OpenWRT-armvirt", "VxWorks", "Closed", "Tardis", "MIPS"} {
		if !strings.Contains(text, want) {
			t.Errorf("Table 1 missing %q", want)
		}
	}
}

func TestTable2TypeNames(t *testing.T) {
	if table2TypeName(elinux.BugDef{Kind: elinux.KindNullDeref}) != "Null-pointer-deref" {
		t.Error("null deref name")
	}
	if table2TypeName(elinux.BugDef{Kind: elinux.KindUAFRead}) != "Use-after-free" {
		t.Error("uaf name")
	}
	if table2TypeName(elinux.BugDef{Kind: elinux.KindGlobalOOBRead}) != "Out-of-bounds" {
		t.Error("oob name")
	}
}
