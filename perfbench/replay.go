package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"embsan/internal/core"
	"embsan/internal/emu"
	"embsan/internal/guest/elinux"
	"embsan/internal/guest/firmware"
	"embsan/internal/guest/gabi"
	"embsan/internal/kasm"
	"embsan/internal/san"
)

// The Figure 2 configurations: the uninstrumented build on the bare
// emulator, and the Table 1 build under EMBSAN's KASAN or KCSAN delegate.
const (
	cfgBare  = "bare"
	cfgKASAN = "kasan"
	cfgKCSAN = "kcsan"
)

const (
	corpusSize   = 256
	replayBudget = 100_000_000 // guest instructions per replayed input
	// sampleInsts is the guest work of one timed bare sample, about 6 ms on
	// the reference host: each firmware's corpus is replayed that many
	// instructions' worth of times per sample, so timer resolution and
	// per-call jitter stay negligible. It is counted in instructions, not
	// time, so a sample is the same work in every run of a seed.
	sampleInsts = 600_000
)

// deployment is one booted, snapshotted configuration of one firmware.
type deployment struct {
	cfg  string
	inst *core.Instance
}

// replayTarget is one firmware of the Figure 2 replay: its validated benign
// corpus and a live deployment per configuration.
type replayTarget struct {
	fw      *firmware.Firmware
	corpus  [][]byte
	dropped int
	deps    []*deployment // bare first
	reps    int           // corpus passes per timed sample
	// passInsts is the guest instruction count of the first corpus pass per
	// configuration: part of the guest-visible digest.
	passInsts map[string]uint64
}

// genCorpus makes the seeded benign replay corpus of one firmware: syscall
// programs over elinux.BenignSyscalls for the syscall frontend, and padded
// seed requests for the byte frontend. The inputs are a pure function of
// (seed, firmware name).
func genCorpus(fw *firmware.Firmware, seed int64) [][]byte {
	h := fnv.New64a()
	h.Write([]byte(fw.Name))
	rng := rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
	out := make([][]byte, 0, corpusSize)
	for i := 0; i < corpusSize; i++ {
		if fw.Frontend == firmware.FrontendSyscall {
			var p gabi.Prog
			for j, n := 0, 4+rng.Intn(5); j < n; j++ {
				p = append(p, gabi.Record{
					NR:    uint32(rng.Intn(len(elinux.BenignSyscalls))),
					NArgs: 4,
					Args: [4]uint32{uint32(rng.Intn(200)), uint32(rng.Intn(7)),
						uint32(rng.Intn(11)), uint32(rng.Intn(5))},
				})
			}
			out = append(out, p.Encode())
			continue
		}
		in := append([]byte(nil), fw.Seeds[rng.Intn(len(fw.Seeds))]...)
		for n := 64 + rng.Intn(33); len(in) < n; {
			in = append(in, byte(rng.Intn(256)))
		}
		out = append(out, in)
	}
	return out
}

// buildReplayFirmware builds the Table 1 firmware and its uninstrumented
// twin (the same image when the Table 1 build is already uninstrumented).
func buildReplayFirmware(tr *tracer, parent int, name string) (table1, bare *firmware.Firmware, err error) {
	sp := tr.begin("firmware.Build", parent)
	table1, err = firmware.Build(name)
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	if table1.Image.Meta.Sanitize == kasm.SanNone {
		return table1, table1, nil
	}
	sp = tr.begin("firmware.BuildVariant", parent)
	bare, err = firmware.BuildVariant(name, kasm.SanNone)
	tr.end(sp)
	return table1, bare, err
}

// deploy boots one configuration the way the Figure 2 measurement does.
func deploy(tr *tracer, parent int, fw *firmware.Firmware, cfg string) (*deployment, error) {
	c := core.Config{
		Image:   fw.Image,
		Machine: fw.Machine,
		KCSAN:   san.KCSANConfig{SampleInterval: 20, Delay: 2000},
	}
	c.Machine.MaxHarts = 2
	switch cfg {
	case cfgBare:
		c.NoSanitizer = true
	case cfgKASAN:
		c.Sanitizers = []string{"kasan"}
	case cfgKCSAN:
		c.Sanitizers = []string{"kcsan"}
	}
	sp := tr.begin("core.New", parent)
	inst, err := core.New(c)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", fw.Name, cfg, err)
	}
	sp = tr.begin("core.Instance.Boot", parent)
	err = inst.Boot(500_000_000)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", fw.Name, cfg, err)
	}
	sp = tr.begin("core.Instance.Snapshot", parent)
	inst.Snapshot()
	tr.end(sp)
	return &deployment{cfg: cfg, inst: inst}, nil
}

// setupReplay builds, deploys and validates the replay targets. An input
// that does not complete cleanly on the restored EMBSAN-KASAN deployment is
// dropped from the corpus and counted. KCSAN is deployed on the Embedded
// Linux firmware, as in the paper, or on every target when none of them
// runs Embedded Linux.
func setupReplay(tr *tracer, parent int, names []string, seed int64) ([]*replayTarget, error) {
	var table1s, bares []*firmware.Firmware
	kcsanAll := true
	for _, name := range names {
		table1, bare, err := buildReplayFirmware(tr, parent, name)
		if err != nil {
			return nil, err
		}
		table1s, bares = append(table1s, table1), append(bares, bare)
		kcsanAll = kcsanAll && table1.BaseOS != "Embedded Linux"
	}
	var out []*replayTarget
	for i, table1 := range table1s {
		name := table1.Name
		t := &replayTarget{fw: table1, passInsts: map[string]uint64{}}
		cfgs := []string{cfgBare, cfgKASAN}
		if kcsanAll || table1.BaseOS == "Embedded Linux" {
			cfgs = append(cfgs, cfgKCSAN)
		}
		for _, cfg := range cfgs {
			fw := table1
			if cfg == cfgBare {
				fw = bares[i]
			}
			d, err := deploy(tr, parent, fw, cfg)
			if err != nil {
				return nil, err
			}
			t.deps = append(t.deps, d)
		}
		kasan := t.dep(cfgKASAN)
		sp := tr.begin("validate", parent)
		for _, in := range genCorpus(table1, seed) {
			kasan.inst.Restore()
			r := kasan.inst.Exec(in, replayBudget)
			if !r.Done || r.Crashed() {
				t.dropped++
				continue
			}
			t.corpus = append(t.corpus, in)
		}
		kasan.inst.Restore()
		tr.end(sp)
		if len(t.corpus) == 0 {
			return nil, fmt.Errorf("%s: every replay input was dropped", name)
		}
		// One untimed pass per configuration warms the translation caches
		// and records the guest-visible instruction count; the bare count
		// also sizes the timed sample.
		for _, d := range t.deps {
			p := t.pass(nil, 0, d, 1, 0)
			if p.fails > 0 {
				return nil, fmt.Errorf("%s %s: warm-up pass failed on %d inputs", name, d.cfg, p.fails)
			}
			t.passInsts[d.cfg] = p.insts
		}
		t.reps = int(sampleInsts/t.passInsts[cfgBare]) + 1
		out = append(out, t)
	}
	return out, nil
}

func (t *replayTarget) dep(cfg string) *deployment {
	for _, d := range t.deps {
		if d.cfg == cfg {
			return d
		}
	}
	return nil
}

// passResult is one timed replay sample.
type passResult struct {
	elapsed time.Duration
	insts   uint64
	inputs  int
	fails   int
}

// pass replays the corpus reps times on the live deployment. Each
// repetition starts from the boot snapshot (the untimed Restore keeps every
// repetition the same guest work); inside it the inputs run back to back
// without restore, as in the paper's measurement. An input that does not
// complete or that raises a report is a failed operation. plant > 0 adds
// the bounds self-test's calibrated spin after every EMBSAN-KASAN Exec.
// With a tracer every Exec of the first repetition gets a span.
func (t *replayTarget) pass(tr *tracer, parent int, d *deployment, reps int, plant float64) passResult {
	var p passResult
	for r := 0; r < reps; r++ {
		d.inst.Restore()
		start := time.Now()
		for _, in := range t.corpus {
			var t0 time.Time
			if plant > 0 && d.cfg == cfgKASAN {
				t0 = time.Now()
			}
			var sp int
			if r == 0 {
				sp = tr.begin("core.Instance.Exec", parent)
			}
			res := d.inst.Exec(in, replayBudget)
			tr.end(sp)
			if !t0.IsZero() {
				spin(time.Duration(plant * float64(time.Since(t0))))
			}
			p.inputs++
			p.insts += res.Insts
			if !res.Done || res.Crashed() {
				p.fails++
			}
		}
		p.elapsed += time.Since(start)
	}
	return p
}

// replayRun accumulates the paired rounds of one replay phase.
type replayRun struct {
	targets []*replayTarget
	// samples[i][cfg] lists target i's timed samples, one per round.
	samples []map[string][]passResult
	// slowness is each round's host slowness (see calibrator).
	slowness []float64
	// Engine counters accumulated per configuration.
	ctr               map[string]emu.Counters
	attempted, failed int
}

// runReplay alternates the configurations in paired rounds until budget is
// spent (and at least minRounds ran): round r visits every target, running
// its configurations in forward order on even rounds and reverse order on
// odd ones, so slow drift in machine speed cancels out of the ratios.
//
// The calibration kernel runs before the first round and after every round;
// a round's host slowness is the mean of the two calibrations around it.
func runReplay(tr *tracer, parent int, targets []*replayTarget, budget time.Duration, minRounds int, plant float64, cal *calibrator) *replayRun {
	rr := &replayRun{
		targets: targets,
		samples: make([]map[string][]passResult, len(targets)),
		ctr:     map[string]emu.Counters{},
	}
	before := map[*deployment]emu.Counters{}
	for i, t := range targets {
		rr.samples[i] = map[string][]passResult{}
		for _, d := range t.deps {
			before[d] = d.inst.Machine.Counters()
		}
	}
	start := time.Now()
	prevSlow := cal.slowness(3)
	for round := 0; round < minRounds || time.Since(start) < budget; round++ {
		for i, t := range targets {
			for k := range t.deps {
				d := t.deps[k]
				if round%2 == 1 {
					d = t.deps[len(t.deps)-1-k]
				}
				sp := tr.begin("replay."+d.cfg, parent)
				p := t.pass(tr, sp, d, t.reps, plant)
				tr.end(sp)
				rr.samples[i][d.cfg] = append(rr.samples[i][d.cfg], p)
				rr.attempted += p.inputs
				rr.failed += p.fails
			}
		}
		slow := cal.slowness(3)
		rr.slowness = append(rr.slowness, (prevSlow+slow)/2)
		prevSlow = slow
	}
	for d, b := range before {
		rr.ctr[d.cfg] = sumCounters(rr.ctr[d.cfg], d.inst.Machine.Counters().Sub(b))
	}
	return rr
}

// slowdown is the geometric mean, over the targets that ran cfg, of each
// target's median paired-round ratio t(cfg)/t(bare).
func (rr *replayRun) slowdown(cfg string) float64 {
	var ratios []float64
	for i := range rr.targets {
		s, b := rr.samples[i][cfg], rr.samples[i][cfgBare]
		if len(s) == 0 {
			continue
		}
		per := make([]float64, len(s))
		for r := range s {
			per[r] = s[r].elapsed.Seconds() / b[r].elapsed.Seconds()
		}
		ratios = append(ratios, median(per))
	}
	return geomean(ratios)
}

// rate is the geometric mean over targets of each target's median
// per-round rate work(sample)/t(sample) under cfg. With ref set, each
// round's rate is scaled by its host slowness: the rate in reference-host
// seconds. Taking each target's own rate first keeps the figure
// independent of how much work the samples of different firmware hold.
func (rr *replayRun) rate(cfg string, work func(passResult) float64, ref bool) float64 {
	var rates []float64
	for i := range rr.targets {
		s := rr.samples[i][cfg]
		if len(s) == 0 {
			continue
		}
		per := make([]float64, len(s))
		for r, p := range s {
			per[r] = work(p) / p.elapsed.Seconds()
			if ref {
				per[r] *= rr.slowness[r]
			}
		}
		rates = append(rates, median(per))
	}
	return geomean(rates)
}

func inputsOf(p passResult) float64 { return float64(p.inputs) }
func instsOf(p passResult) float64  { return float64(p.insts) }

// total sums a field of every sample taken under cfg.
func (rr *replayRun) total(cfg string, work func(passResult) float64) float64 {
	sum := 0.0
	for i := range rr.targets {
		for _, p := range rr.samples[i][cfg] {
			sum += work(p)
		}
	}
	return sum
}

// kasanRefSeconds returns each round's EMBSAN-KASAN time in reference-host
// seconds.
func (rr *replayRun) kasanRefSeconds() []float64 {
	out := make([]float64, len(rr.slowness))
	for i := range rr.targets {
		for r, p := range rr.samples[i][cfgKASAN] {
			out[r] += p.elapsed.Seconds() / rr.slowness[r]
		}
	}
	return out
}

// sumCounters adds the engine counters the per-layer metrics read.
func sumCounters(a, b emu.Counters) emu.Counters {
	a.TransInsts += b.TransInsts
	a.Restores += b.Restores
	a.RestorePages += b.RestorePages
	a.SanckTraps += b.SanckTraps
	a.SanckElided += b.SanckElided
	a.MemProbes += b.MemProbes
	a.MemElided += b.MemElided
	a.Dispatches += b.Dispatches
	a.ChainHits += b.ChainHits
	a.InlineFast += b.InlineFast
	a.InlineSlow += b.InlineSlow
	return a
}

// detectTriggers replays every seeded non-race trigger once on each
// target's restored EMBSAN-KASAN deployment and counts those that raise a
// report. The benign corpus finds no bugs by construction; this is the
// replay workload's check that the delegate still detects what it must.
// It returns the detected count and the triggers that went unreported.
func detectTriggers(targets []*replayTarget) (found int, missed []string) {
	for _, t := range targets {
		d := t.dep(cfgKASAN)
		for _, b := range t.fw.Bugs {
			if b.NeedsKCSAN || b.CompileTimeOnly {
				continue
			}
			d.inst.Restore()
			r := d.inst.Exec(b.Trigger, replayBudget)
			if len(r.Reports) > 0 {
				found++
			} else {
				missed = append(missed, t.fw.Name+":"+b.Fn)
			}
		}
		d.inst.Restore()
	}
	return found, missed
}
