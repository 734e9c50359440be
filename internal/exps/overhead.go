package exps

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"embsan/internal/core"
	"embsan/internal/emu"
	"embsan/internal/guest/elinux"
	"embsan/internal/guest/firmware"
	"embsan/internal/guest/gabi"
	"embsan/internal/kasm"
	"embsan/internal/san"
)

// OverheadOptions tunes the Figure 2 measurement.
type OverheadOptions struct {
	Programs int // workload programs per firmware (default 16)
	// Repeats is the number of timing rounds (default 3). A round
	// interleaves single workload passes over every configuration and
	// takes each configuration's median pass; a slowdown is the median of
	// its per-round ratios to bare.
	Repeats int
	Seed    int64
}

// Overhead configuration labels (the Figure 2 series).
const (
	CfgBare        = "bare"
	CfgEmbsanKASAN = "embsan-kasan"
	CfgNativeKASAN = "native-kasan"
	CfgEmbsanKCSAN = "embsan-kcsan"
	CfgNativeKCSAN = "native-kcsan"
)

// OverheadRow is the measurement for one firmware.
type OverheadRow struct {
	Firmware string
	BaseOS   string
	Arch     string
	InstMode string
	Bare     time.Duration
	Slowdown map[string]float64 // config -> time(config)/time(bare)
}

// RunOverhead measures the runtime overhead of every sanitizer
// configuration on the named firmware (Figure 2). The workload is a fixed
// benign corpus replayed under each configuration; the natively-sanitized
// baselines run the same corpus on rebuilt images.
func RunOverhead(names []string, opts OverheadOptions) ([]OverheadRow, error) {
	if opts.Programs == 0 {
		opts.Programs = 16
	}
	if opts.Repeats == 0 {
		opts.Repeats = 3
	}
	var rows []OverheadRow
	for _, name := range names {
		row, err := overheadFor(name, opts)
		if err != nil {
			return nil, err
		}
		rows = append(rows, *row)
	}
	return rows, nil
}

func overheadFor(name string, opts OverheadOptions) (*OverheadRow, error) {
	table1, err := firmware.Build(name)
	if err != nil {
		return nil, err
	}
	workload, err := buildWorkload(table1, opts)
	if err != nil {
		return nil, err
	}

	row := &OverheadRow{
		Firmware: name, BaseOS: table1.BaseOS, Arch: table1.Arch.String(),
		InstMode: table1.InstMode, Slowdown: map[string]float64{},
	}

	// Bare: uninstrumented build, no sanitizer attached.
	bare, err := buildVariantOrSame(name, table1, kasm.SanNone)
	if err != nil {
		return nil, err
	}
	cfgs := []overheadCfg{
		{label: CfgBare, fw: bare},
		// EMBSAN KASAN on the firmware's Table 1 instrumentation mode.
		{label: CfgEmbsanKASAN, fw: table1, sans: []string{"kasan"}},
	}
	// EMBSAN KCSAN (Embedded Linux firmware, as in the paper).
	if table1.BaseOS == "Embedded Linux" {
		cfgs = append(cfgs, overheadCfg{label: CfgEmbsanKCSAN, fw: table1, sans: []string{"kcsan"}})
	}
	// Native baselines need source: rebuild with in-guest sanitizers.
	if table1.SourceOpen {
		nk, err := firmware.BuildVariant(name, kasm.SanNativeKASAN)
		if err != nil {
			return nil, err
		}
		cfgs = append(cfgs, overheadCfg{label: CfgNativeKASAN, fw: nk})
		if table1.BaseOS == "Embedded Linux" {
			nc, err := firmware.BuildVariant(name, kasm.SanNativeKCSAN)
			if err != nil {
				return nil, err
			}
			cfgs = append(cfgs, overheadCfg{label: CfgNativeKCSAN, fw: nc})
		}
	}

	times, err := measure(cfgs, workload, opts.Repeats)
	if err != nil {
		return nil, fmt.Errorf("exps: overhead %s %w", name, err)
	}
	row.Bare = time.Duration(median(times[0]))
	for c := 1; c < len(cfgs); c++ {
		ratios := make([]float64, len(times[c]))
		for r := range ratios {
			ratios[r] = times[c][r] / times[0][r]
		}
		row.Slowdown[cfgs[c].label] = median(ratios)
	}
	return row, nil
}

// overheadCfg is one Figure 2 configuration: a build of the firmware and
// the sanitizers attached to it (none for bare and the native baselines).
type overheadCfg struct {
	label string
	fw    *firmware.Firmware
	sans  []string
}

func buildVariantOrSame(name string, table1 *firmware.Firmware, mode kasm.SanitizeMode) (*firmware.Firmware, error) {
	if table1.Image.Meta.Sanitize == mode {
		return table1, nil
	}
	return firmware.BuildVariant(name, mode)
}

// buildWorkload produces the deterministic benign corpus the paper calls
// "the merged corpus acquired after completing the previous experiment".
// Every candidate is replayed once on a restored EMBSAN-KASAN deployment of
// fw and kept only if it completes without a report or fault: an input that
// reaches a seeded bug would time the report path, not the checks.
func buildWorkload(fw *firmware.Firmware, opts OverheadOptions) ([][]byte, error) {
	inst, err := deployOverhead(fw, []string{"kasan"})
	if err != nil {
		return nil, fmt.Errorf("exps: overhead %s workload: %w", fw.Name, err)
	}
	var out [][]byte
	for _, in := range workloadCandidates(fw, opts) {
		inst.Restore()
		if res := inst.Exec(in, 100_000_000); res.Done && !res.Crashed() {
			out = append(out, in)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("exps: overhead %s: no benign workload input", fw.Name)
	}
	return out, nil
}

// workloadCandidates generates the Figure 2 inputs before the benign filter.
func workloadCandidates(fw *firmware.Firmware, opts OverheadOptions) [][]byte {
	var out [][]byte
	if fw.Frontend == firmware.FrontendSyscall {
		benign := uint32(len(elinux.BenignSyscalls))
		for i := 0; i < opts.Programs; i++ {
			var p gabi.Prog
			for j := 0; j < 6; j++ {
				k := uint32(i*6 + j)
				p = append(p, gabi.Record{
					NR:    k % benign,
					NArgs: 4,
					Args:  [4]uint32{k * 13 % 200, k % 7, k % 11, k % 5},
				})
			}
			out = append(out, p.Encode())
		}
		return out
	}
	// Byte frontends: pad the seed requests into heavier service loads so
	// the measurement is not dominated by executor polling.
	for i := 0; i < opts.Programs; i++ {
		seed := fw.Seeds[i%len(fw.Seeds)]
		in := append([]byte(nil), seed...)
		for len(in) < 96 {
			in = append(in, byte(7*len(in)))
		}
		out = append(out, in)
	}
	return out
}

// deployOverhead boots fw in one Figure 2 configuration — the named
// sanitizers attached, or none when sans is empty — and snapshots it.
func deployOverhead(fw *firmware.Firmware, sans []string) (*core.Instance, error) {
	inst, err := core.New(core.Config{
		Image:       fw.Image,
		Sanitizers:  sans,
		NoSanitizer: len(sans) == 0,
		Machine:     emu.Config{MaxHarts: 2},
		KCSAN:       san.KCSANConfig{SampleInterval: 20, Delay: 2000},
	})
	if err != nil {
		return nil, err
	}
	if err := inst.Boot(500_000_000); err != nil {
		return nil, err
	}
	inst.Snapshot()
	return inst, nil
}

// measure deploys every configuration, then times the workload replay on
// all of them in rounds. It returns the per-round times (ns per workload
// pass) indexed [configuration][round]; callers divide within a round so
// host noise cancels in the ratio. An input that does not complete, or that
// raises a report, fails the measurement.
func measure(cfgs []overheadCfg, workload [][]byte, rounds int) ([][]float64, error) {
	insts := make([]*core.Instance, len(cfgs))
	for i, c := range cfgs {
		inst, err := deployOverhead(c.fw, c.sans)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.label, err)
		}
		insts[i] = inst
	}

	// The corpus replays on the live system (as in the paper) — no snapshot
	// restore between inputs, so the measurement reflects execution cost,
	// not reset cost. The workload is benign and state-neutral.
	replay := func(inst *core.Instance) error {
		for _, input := range workload {
			res := inst.Exec(input, 100_000_000)
			if !res.Done {
				return fmt.Errorf("workload input did not complete (stop=%v fault=%v)", res.Stop, res.Fault)
			}
			if len(res.Reports) > 0 {
				return fmt.Errorf("workload input raised a report: %s", res.Reports[0].Signature())
			}
		}
		return nil
	}
	// Warm the translation caches once before timing.
	for i, inst := range insts {
		if err := replay(inst); err != nil {
			return nil, fmt.Errorf("%s: %w", cfgs[i].label, err)
		}
	}
	// A round replays the workload on every configuration in turn, the
	// order reversing from one pass to the next, until each configuration
	// has run for about minSample; the configuration's round time is its
	// median pass. Interleaving single passes puts host drift on every
	// configuration alike, and the median drops passes a preemption hit.
	const minSample = 25 * time.Millisecond
	times := make([][]float64, len(cfgs))
	passes := make([][]float64, len(cfgs))
	for r := 0; r < rounds; r++ {
		for i := range passes {
			passes[i] = passes[i][:0]
		}
		start := time.Now()
		for n := 0; n == 0 || time.Since(start) < minSample*time.Duration(len(cfgs)); n++ {
			for k := range cfgs {
				i := k
				if n%2 == 1 {
					i = len(cfgs) - 1 - k
				}
				t0 := time.Now()
				if err := replay(insts[i]); err != nil {
					return nil, fmt.Errorf("%s: %w", cfgs[i].label, err)
				}
				passes[i] = append(passes[i], float64(time.Since(t0)))
			}
		}
		for i := range cfgs {
			times[i] = append(times[i], median(passes[i]))
		}
	}
	return times, nil
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), leaving xs unchanged.
func median(xs []float64) float64 {
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// FormatFigure2 renders the overhead series with the paper's groupings.
func FormatFigure2(rows []OverheadRow) string {
	var b strings.Builder
	b.WriteString("Figure 2: runtime overhead (slowdown vs. uninstrumented emulation)\n")
	fmt.Fprintf(&b, "%-24s %-15s %-8s %-9s %12s %12s %12s %12s\n",
		"Firmware", "Base OS", "Arch", "Mode", CfgEmbsanKASAN, CfgNativeKASAN, CfgEmbsanKCSAN, CfgNativeKCSAN)
	cell := func(r OverheadRow, cfg string) string {
		if v, ok := r.Slowdown[cfg]; ok {
			return fmt.Sprintf("%.2fx", v)
		}
		return "-"
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "%-24s %-15s %-8s %-9s %12s %12s %12s %12s\n",
			r.Firmware, r.BaseOS, r.Arch, r.InstMode,
			cell(r, CfgEmbsanKASAN), cell(r, CfgNativeKASAN),
			cell(r, CfgEmbsanKCSAN), cell(r, CfgNativeKCSAN))
	}

	// Grouped ranges, as the paper reports them.
	b.WriteString("\nGrouped slowdown ranges:\n")
	groups := []struct {
		label  string
		filter func(OverheadRow) bool
		cfg    string
	}{
		{"EMBSAN-C KASAN (Embedded Linux)", func(r OverheadRow) bool {
			return r.BaseOS == "Embedded Linux" && r.InstMode == "EmbSan-C"
		}, CfgEmbsanKASAN},
		{"EMBSAN-D KASAN (Embedded Linux)", func(r OverheadRow) bool {
			return r.BaseOS == "Embedded Linux" && r.InstMode == "EmbSan-D"
		}, CfgEmbsanKASAN},
		{"native KASAN  (Embedded Linux)", func(r OverheadRow) bool {
			return r.BaseOS == "Embedded Linux"
		}, CfgNativeKASAN},
		{"EMBSAN KCSAN  (Embedded Linux)", func(r OverheadRow) bool {
			return r.BaseOS == "Embedded Linux"
		}, CfgEmbsanKCSAN},
		{"native KCSAN  (Embedded Linux)", func(r OverheadRow) bool {
			return r.BaseOS == "Embedded Linux"
		}, CfgNativeKCSAN},
		{"EMBSAN KASAN  (LiteOS/FreeRTOS/VxWorks)", func(r OverheadRow) bool {
			return r.BaseOS != "Embedded Linux"
		}, CfgEmbsanKASAN},
	}
	for _, g := range groups {
		lo, hi := 0.0, 0.0
		for _, r := range rows {
			if !g.filter(r) {
				continue
			}
			v, ok := r.Slowdown[g.cfg]
			if !ok {
				continue
			}
			if lo == 0 || v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if lo > 0 {
			fmt.Fprintf(&b, "  %-42s %.1fx - %.1fx\n", g.label, lo, hi)
		}
	}
	return b.String()
}
