package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"embsan/internal/core"
	"embsan/internal/emu"
	"embsan/internal/exps"
	"embsan/internal/fuzz"
	"embsan/internal/guest/firmware"
	"embsan/internal/obs"
	"embsan/internal/san"
	"embsan/internal/sched"
	"embsan/internal/static"
	"embsan/internal/static/absint"
)

// inlineHotDispatches mirrors the campaign warm-up's threshold for arming
// the inline shadow fast path (exps.warmUp).
const inlineHotDispatches = 4

// libCampaign is one campaign driven through the documented library path,
// followed by a replay of its corpus through separate restore and exec calls.
type libCampaign struct {
	stats  fuzz.Stats
	runDur time.Duration
	ctr    emu.Counters // engine counters accumulated by fuzz.Run
	// The corpus replay's mean Machine.Restore + Runtime.Restore time per
	// execution, and its Exec time per retired guest instruction.
	restore     time.Duration
	execPerInst float64 // ns
}

// runLibraryCampaign drives core.New → Boot → Snapshot → static.Analyze →
// fuzz.New/Run for one firmware with the campaign deployment's
// configuration and the derived seed of campaign index idx of the measured
// set. It differs from exps.warmUp only in where the calls are timed: the
// trigger labelling and inline fast-path arming are reproduced, and bugs
// are not attributed (the measured set's digest covers findings).
func runLibraryCampaign(tr *tracer, parent int, fw *firmware.Firmware, seed int64, idx int) (*libCampaign, error) {
	sans := []string{"kasan"}
	for _, b := range fw.Bugs {
		if b.NeedsKCSAN {
			sans = []string{"kasan", "kcsan"}
			break
		}
	}
	mcfg := fw.Machine
	mcfg.MaxHarts = 2
	mcfg.Seed = uint64(seed) + 1
	sp := tr.begin("core.New", parent)
	inst, err := core.New(core.Config{
		Image: fw.Image, Sanitizers: sans, StopOnReport: true, Machine: mcfg,
		KCSAN: san.KCSANConfig{SampleInterval: 13, Delay: 600},
	})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	prof := obs.NewProfile()
	inst.Machine.SetProfile(prof)
	sp = tr.begin("core.Instance.Boot", parent)
	err = inst.Boot(200_000_000)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("core.Instance.Snapshot", parent)
	inst.Snapshot()
	tr.end(sp)

	sp = tr.begin("static.Analyze", parent)
	an, err := static.Analyze(fw.Image)
	var leaders []uint32
	var proof absint.Stats
	if err == nil {
		leaders = an.ReachableLeaders()
		proof = absint.Analyze(an, absint.Options{}).Stats
	}
	tr.end(sp)

	sp = tr.begin("label", parent)
	for _, b := range fw.Bugs {
		if !b.NeedsKCSAN {
			inst.Restore()
			inst.Exec(b.Trigger, 100_000_000)
		}
	}
	tr.end(sp)
	inst.Machine.SetProfile(nil)
	var hot []uint32
	for _, site := range prof.DispatchSites(nil) {
		if site.Count >= inlineHotDispatches {
			hot = append(hot, site.PC)
		}
	}
	if len(hot) > 0 {
		inst.EnableInlineFastPath(hot)
	}

	cseed := sched.Split(seed, idx)
	inst.Restore()
	inst.Machine.Reseed(uint64(cseed))
	fcfg := fuzz.Config{
		Instance: inst, Seeds: fw.Seeds, Seed: cseed, MaxExecs: campaignBudget(fw),
		ReachableLeaders: leaders, ProvenAccesses: proof.ReachableProven,
		ReachableAccesses: proof.ReachableAccesses,
	}
	if fw.Frontend == firmware.FrontendSyscall {
		fcfg.Frontend = fuzz.FrontendSyscall
		fcfg.Syscalls = len(fw.Syscalls)
	} else {
		fcfg.Frontend = fuzz.FrontendBytes
	}
	before := inst.Machine.Counters()
	sp = tr.begin("fuzz.Run", parent)
	f, err := fuzz.New(fcfg)
	if err != nil {
		tr.end(sp)
		return nil, err
	}
	fres := f.Run()
	lc := &libCampaign{stats: fres.Stats, runDur: tr.end(sp), ctr: inst.Machine.Counters().Sub(before)}

	// Replay the corpus twice through the calls a campaign execution is
	// made of, each under its own span.
	var restore, exec time.Duration
	var insts uint64
	n := 0
	rp := tr.begin("corpus.replay", parent)
	for pass := 0; pass < 2; pass++ {
		for _, in := range fres.Corpus {
			s := tr.begin("emu.Machine.Restore", rp)
			inst.Machine.Restore()
			restore += tr.end(s)
			s = tr.begin("san.Runtime.Restore", rp)
			inst.Runtime.Restore()
			restore += tr.end(s)
			s = tr.begin("core.Instance.Exec", rp)
			insts += inst.Exec(in, 2_000_000).Insts
			exec += tr.end(s)
			n++
		}
	}
	tr.end(rp)
	if n > 0 && insts > 0 {
		lc.restore = restore / time.Duration(n)
		lc.execPerInst = float64(exec) / float64(insts)
	}
	return lc, nil
}

// tracedRun measures the per-layer metrics. Every number comes from spans
// around calls into the layers' public functions, or from the counters the
// layers already keep; nothing inside the program is instrumented.
func tracedRun(w *workload, seed int64, budget time.Duration, dir string) (*result, error) {
	run := fmt.Sprintf("%s-seed%d-%d", w.name, seed, time.Now().UnixNano())
	tr := newTracer(run)
	res := &result{Correct: true, Metrics: map[string]metric{}}
	set := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	root := tr.begin("run", 0)

	// Every per-layer metric is reported on every workload; a layer the
	// workload does not exercise reads 0.
	for _, m := range [][2]string{{"exps.warmup_s", "s"}, {"static.analyze_s", "s"}, {"fuzz.run_s", "s"},
		{"fuzz.self_frac_est", "fraction"}, {"fuzz.insts_per_exec", "count"}, {"fuzz.corpus", "count"},
		{"fuzz.cover_blocks", "count"}, {"sched.imbalance_frac", "fraction"}, {"sched.jobs", "count"},
		{"obs.timeline_overhead_frac", "fraction"}, {"emu.restore_pages_per_exec", "count"}} {
		set(m[0], 0, m[1])
	}

	var lib emu.Counters
	var libInsts uint64
	if w.repeats > 0 {
		sp := tr.begin("setup", root)
		fws, err := buildFirmware(tr, sp, w.fws)
		if err != nil {
			return nil, err
		}
		ws := tr.begin("exps.RunCampaignSet(execs=1)", sp)
		err = warmupSet(fws, seed)
		set("exps.warmup_s", tr.end(ws).Seconds(), "s")
		tr.end(sp)
		if err != nil {
			return nil, err
		}

		// The measured campaign set with the timeline off and on, in
		// alternation, compared in reference-host seconds; the first
		// timeline-off set also yields the scheduler's worker statistics.
		var offs, ons []float64
		var measured *exps.CampaignRun
		var wall time.Duration
		calW := newCalibrator(workers)
		runtime.GC()
		before := calW.slowness(5)
		for i := 0; i < 4; i++ {
			opts := campaignOptions(seed, campaignExecs, w.repeats)
			opts.Timeline = i%2 == 1
			s := tr.begin(fmt.Sprintf("exps.RunCampaignSet(timeline=%v)", opts.Timeline), root)
			cr, err := exps.RunCampaignSet(fws, opts)
			d := tr.end(s)
			if err != nil {
				return nil, err
			}
			runtime.GC()
			after := calW.slowness(5)
			ref := d.Seconds() / ((before + after) / 2)
			before = after
			res.Attempted += len(cr.Campaigns)
			if opts.Timeline {
				ons = append(ons, ref)
				continue
			}
			offs = append(offs, ref)
			if measured == nil {
				measured, wall = cr, d
			}
		}
		set("obs.timeline_overhead_frac", median(ons)/median(offs)-1, "fraction")
		var lo, hi time.Duration
		jobs := 0
		for i, ws := range measured.Workers {
			if i == 0 || ws.Elapsed < lo {
				lo = ws.Elapsed
			}
			if ws.Elapsed > hi {
				hi = ws.Elapsed
			}
			jobs += ws.Jobs
		}
		set("sched.imbalance_frac", (hi-lo).Seconds()/wall.Seconds(), "fraction")
		set("sched.jobs", float64(jobs), "count")

		// The library path, one campaign per firmware with the seed of its
		// first campaign in the measured set.
		var runDur, est time.Duration
		var execs, corpus, cover int
		for i, fw := range fws {
			fp := tr.begin("campaign "+fw.Name, root)
			lc, err := runLibraryCampaign(tr, fp, fw, seed, i*w.repeats)
			tr.end(fp)
			if err != nil {
				return nil, err
			}
			res.Attempted++
			want := measured.Campaigns[i*w.repeats].Stats
			if lc.stats.Execs != want.Execs || lc.stats.Insts != want.Insts || lc.stats.CorpusSize != want.CorpusSize {
				res.Failed++
				fmt.Printf("library path differs from exps for %s: execs %d/%d insts %d/%d corpus %d/%d\n",
					fw.Name, lc.stats.Execs, want.Execs, lc.stats.Insts, want.Insts, lc.stats.CorpusSize, want.CorpusSize)
			}
			runDur += lc.runDur
			est += time.Duration(lc.stats.Execs)*lc.restore + time.Duration(float64(lc.stats.Insts)*lc.execPerInst)
			execs += lc.stats.Execs
			corpus += lc.stats.CorpusSize
			cover += lc.stats.CoverBlocks
			libInsts += lc.stats.Insts
			lib = sumCounters(lib, lc.ctr)
		}
		set("fuzz.run_s", runDur.Seconds(), "s")
		set("fuzz.self_frac_est", 1-est.Seconds()/runDur.Seconds(), "fraction")
		set("fuzz.insts_per_exec", float64(libInsts)/float64(execs), "count")
		set("fuzz.corpus", float64(corpus), "count")
		set("fuzz.cover_blocks", float64(cover), "count")
		set("emu.restore_pages_per_exec", float64(lib.RestorePages)/float64(execs), "count")
		set("static.analyze_s", tr.total("static.Analyze").Seconds(), "s")
	}

	// The replay phase: traced rounds, then untraced rounds of the same
	// passes for the tracing overhead.
	sp := tr.begin("setup", root)
	targets, err := setupReplay(tr, sp, w.fws, seed)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	cal := newCalibrator(1)
	rp := tr.begin("replay", root)
	traced := runReplay(tr, rp, targets, budget/6, 4, 0, cal)
	tr.end(rp)
	rp = tr.begin("replay.untraced", root)
	plain := runReplay(nil, 0, targets, budget/6, 4, 0, cal)
	tr.end(rp)
	res.Attempted += traced.attempted + plain.attempted
	res.Failed += traced.failed + plain.failed
	set("trace.overhead_frac", median(traced.kasanRefSeconds())/median(plain.kasanRefSeconds())-1, "fraction")

	set("firmware.build_s", (tr.total("firmware.Build") + tr.total("firmware.BuildVariant")).Seconds(), "s")
	set("core.new_s", tr.total("core.New").Seconds(), "s")
	set("core.boot_s", tr.total("core.Instance.Boot").Seconds(), "s")
	set("core.snapshot_s", tr.total("core.Instance.Snapshot").Seconds(), "s")
	perCall := func(prefix, parent, name string) {
		d := tr.childDurations(parent, name)
		set(prefix+"_us_p50", d.quantileUS(0.5), "us")
		set(prefix+"_us_p99", d.quantileUS(0.99), "us")
		set(prefix+"_calls", float64(len(d)), "count")
	}
	perCall("emu.restore", "corpus.replay", "emu.Machine.Restore")
	perCall("san.restore", "corpus.replay", "san.Runtime.Restore")
	if w.repeats > 0 {
		perCall("core.exec", "corpus.replay", "core.Instance.Exec")
	} else {
		perCall("core.exec", "replay."+cfgKASAN, "core.Instance.Exec")
	}

	// Engine and delegate counts: the library-path campaigns on the campaign
	// workloads, the EMBSAN-KASAN replay on the replay workload.
	ctr, insts := lib, libInsts
	if w.repeats == 0 {
		ctr, insts = traced.ctr[cfgKASAN], uint64(traced.total(cfgKASAN, instsOf))
	}
	checks := ctr.SanckTraps + ctr.MemProbes
	set("emu.chain_hit_ratio", ratio(ctr.ChainHits, ctr.ChainHits+ctr.Dispatches), "fraction")
	set("emu.dispatches", float64(ctr.Dispatches), "count")
	set("emu.trans_insts", float64(ctr.TransInsts), "count")
	set("san.checks_per_kinst", 1000*ratio(checks, insts), "count")
	set("san.checks_elided_frac", ratio(ctr.SanckElided+ctr.MemElided, checks+ctr.SanckElided+ctr.MemElided), "fraction")
	set("san.inline_fast_frac", ratio(ctr.InlineFast, ctr.InlineFast+ctr.InlineSlow), "fraction")

	set("emu.bare_minst_per_s", traced.rate(cfgBare, instsOf, false)/1e6, "Minst/s")
	set("san.delegate_ns_per_check", traced.nsPerCheck(cfgKASAN), "ns")
	set("san.kcsan_ns_per_check", traced.nsPerCheck(cfgKCSAN), "ns")

	inputs, dropped := 0, 0
	for _, t := range targets {
		inputs += len(t.corpus)
		dropped += t.dropped
	}
	set("replay.inputs", float64(inputs), "count")
	set("replay.inputs_dropped", float64(dropped), "count")
	for _, name := range firmware.Names {
		key := metricKey(name)
		set("replay.inputs."+key, 0, "count")
		set("replay.inputs_dropped."+key, 0, "count")
		for _, t := range targets {
			if t.fw.Name == name {
				set("replay.inputs."+key, float64(len(t.corpus)), "count")
				set("replay.inputs_dropped."+key, float64(t.dropped), "count")
			}
		}
	}
	tr.end(root)

	res.Correct = res.Failed == 0
	if res.Failed > res.Attempted {
		res.Failed = res.Attempted
	}
	path := filepath.Join(dir, "spans-"+w.name+fmt.Sprintf("-seed%d.jsonl", seed))
	if err := tr.writeJSONL(path); err != nil {
		return nil, err
	}
	fmt.Printf("run %s: %d spans written to %s\n", run, len(tr.spans), path)
	tr.writeSelfTimes(os.Stdout)
	printMetrics(res.Metrics)
	return res, nil
}

// nsPerCheck is the delegate's cost per dispatched check under cfg: the
// time the cfg samples took over the bare samples of the same targets,
// divided by the checks dispatched.
func (rr *replayRun) nsPerCheck(cfg string) float64 {
	var extra float64
	for i := range rr.targets {
		for r, p := range rr.samples[i][cfg] {
			extra += (p.elapsed - rr.samples[i][cfgBare][r].elapsed).Seconds()
		}
	}
	c := rr.ctr[cfg]
	checks := c.SanckTraps + c.MemProbes
	if checks == 0 {
		return 0
	}
	return extra * 1e9 / float64(checks)
}

// childDurations returns the durations of the spans named name whose
// parent span is named parent.
func (t *tracer) childDurations(parent, name string) durations {
	var out durations
	for _, s := range t.spans {
		if s.Name == name && s.Parent > 0 && t.spans[s.Parent-1].Name == parent {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// metricKey turns a firmware name into a metric-name component.
func metricKey(name string) string {
	return strings.NewReplacer(" ", "_", "+", "_").Replace(name)
}
