// Command perfbench is the EMBSAN benchmark: campaign throughput (Tables
// 3/4) and the Figure 2 slowdown of a sanitized deployment over the bare
// emulator, measured end to end untraced and layer by layer in a separate
// traced run. See README.md for the workloads and metrics.
//
//	perfbench --workload campaign-syscall --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is the JSON result. Two helper modes
// check runs against the bounds in BENCHMARK.json:
//
//	perfbench spread <results.jsonl>...
//	perfbench gate BENCHMARK.json <base.jsonl> <head.jsonl>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"embsan/internal/guest/firmware"
)

// workload is one closed loop driven from this process.
type workload struct {
	name string
	fws  []string
	// repeats is the number of campaigns per firmware in one measured
	// campaign set; 0 runs no campaigns, only the replay.
	repeats int
}

var workloads = []workload{
	{name: "campaign-syscall", fws: firmware.Names[:7], repeats: 1},
	{name: "campaign-bytes", fws: firmware.Names[7:], repeats: 2},
	{name: "replay-overhead", fws: firmware.Names},
}

// campaignShare is the fraction of --seconds a campaign workload spends on
// campaign sets; the rest replays the benign corpus.
const campaignShare = 0.8

// setupRuns is how many times a run sets up; setup_s is their median.
const setupRuns = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "spread":
			os.Exit(spreadMain(os.Args[2:]))
		case "gate":
			os.Exit(gateMain(os.Args[2:]))
		}
	}
	name := flag.String("workload", "", "campaign-syscall, campaign-bytes or replay-overhead")
	seed := flag.Int64("seed", 1, "workload seed: campaign base seed and replay corpus seed")
	seconds := flag.Int("seconds", 10, "measurement length in seconds")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	plant := flag.Float64("plant", 0, "bounds self-test: spin this fraction of every EMBSAN-KASAN replay Exec")
	spans := flag.String("spans", filepath.Join(".bench_build", "spans"), "directory for the traced run's span file")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	budget := time.Duration(*seconds) * time.Second
	var res *result
	var err error
	if *trace == 1 {
		res, err = tracedRun(w, *seed, budget, *spans)
	} else {
		res, err = untracedRun(w, *seed, budget, *plant)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func workloadNames() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

// untracedRun measures the end-to-end metrics.
func untracedRun(w *workload, seed int64, budget time.Duration, plant float64) (*result, error) {
	res := &result{Correct: true, Metrics: map[string]metric{}}
	cal1 := newCalibrator(1)

	// Set-up: builds, the campaign warm-up set and the replay deployments
	// with their validated corpora, repeated so setup_s is a median. A user
	// sets up once, so each repetition starts from a collected heap.
	var fws []*firmware.Firmware
	var targets []*replayTarget
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		fws, targets = nil, nil
		debug.FreeOSMemory()
		start := time.Now()
		var err error
		if w.repeats > 0 {
			if fws, err = buildFirmware(nil, 0, w.fws); err != nil {
				return nil, err
			}
			if err = warmupSet(fws, seed); err != nil {
				return nil, err
			}
		}
		if targets, err = setupReplay(nil, 0, w.fws, seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	fmt.Printf("setup: %.3f s\n", setups)

	replayTime := budget
	if w.repeats > 0 {
		// The replay deployments are not needed while the campaigns run;
		// they are rebuilt, identically, for the replay phase.
		targets = nil
		debug.FreeOSMemory()
		calW := newCalibrator(workers)
		var raw, norm, slows []float64
		var first *round
		start := time.Now()
		cBudget := time.Duration(float64(budget) * campaignShare)
		// Each set starts from a collected heap, and the calibrations run
		// with no garbage collection in flight.
		runtime.GC()
		before := calW.slowness(5)
		for n := 0; n < 2 || time.Since(start)+time.Since(start)/time.Duration(n) <= cBudget; n++ {
			r := runRound(fws, seed, w.repeats)
			runtime.GC()
			after := calW.slowness(5)
			slow := (before + after) / 2
			before = after
			res.Attempted += len(fws) * w.repeats
			res.Failed += r.failed
			for _, p := range r.problem {
				fmt.Printf("campaign failure: %s\n", p)
			}
			if first == nil {
				first = r
				printDigest(os.Stdout, w.name+"/campaigns", r.digest)
				if len(r.missed) > 0 {
					fmt.Printf("missed seeded bugs: %s\n", strings.Join(r.missed, " "))
				}
			} else if r.digest != first.digest {
				fmt.Printf("round %d: campaign digest %s differs from round 0 (%s)\n",
					n, digestSum(r.digest), digestSum(first.digest))
				res.Failed += len(fws) * w.repeats
			}
			rate := float64(r.execs) / r.wall.Seconds()
			raw = append(raw, rate)
			norm = append(norm, rate*slow)
			slows = append(slows, slow)
		}
		res.Metrics["execs_per_s"] = metric{median(norm), "1/ref-s"}
		res.Metrics["bugs_found"] = metric{float64(first.found), "count"}
		fmt.Printf("campaign sets: %d, execs/s %.0f, host slowness %.2f\n", len(raw), raw, slows)
		replayTime = budget - time.Since(start)
		fws = nil
		debug.FreeOSMemory()
		var err error
		if targets, err = setupReplay(nil, 0, w.fws, seed); err != nil {
			return nil, err
		}
	}

	rr := runReplay(nil, 0, targets, replayTime, 3, plant, cal1)
	res.Attempted += rr.attempted
	res.Failed += rr.failed
	printDigest(os.Stdout, w.name+"/replay", replayDigest(targets))
	fmt.Printf("replay rounds: %d, EMBSAN-KASAN Minst/s %.1f raw, %.1f reference, host slowness median %.2f\n",
		len(rr.slowness), rr.rate(cfgKASAN, instsOf, false)/1e6, rr.rate(cfgKASAN, instsOf, true)/1e6, median(rr.slowness))
	res.Metrics["slowdown_kasan"] = metric{rr.slowdown(cfgKASAN), "x"}
	res.Metrics["slowdown_kcsan"] = metric{rr.slowdown(cfgKCSAN), "x"}
	res.Metrics["guest_minst_per_s"] = metric{rr.rate(cfgKASAN, instsOf, true) / 1e6, "Minst/ref-s"}
	if w.repeats == 0 {
		res.Metrics["execs_per_s"] = metric{rr.rate(cfgKASAN, inputsOf, true), "1/ref-s"}
		found, missed := detectTriggers(targets)
		res.Attempted += found + len(missed)
		if len(missed) > 0 {
			res.Failed += len(missed)
			fmt.Printf("seeded triggers not reported: %s\n", strings.Join(missed, " "))
		}
		res.Metrics["bugs_found"] = metric{float64(found), "count"}
	}

	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	res.Metrics["peak_rss_mb"] = metric{rss, "MiB"}
	if res.Failed > res.Attempted {
		res.Failed = res.Attempted
	}
	res.Metrics["ok_frac"] = metric{1 - float64(res.Failed)/float64(res.Attempted), "fraction"}
	res.Correct = res.Failed == 0
	fmt.Printf("fail_frac: %g (%d of %d operations)\n", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	printMetrics(res.Metrics)
	return res, nil
}

// replayDigest renders the guest-visible outcome of the replay set-up: per
// target the kept and dropped inputs and the guest instructions one corpus
// pass retires under each configuration.
func replayDigest(targets []*replayTarget) string {
	var b strings.Builder
	for _, t := range targets {
		fmt.Fprintf(&b, "replay %s inputs=%d dropped=%d", t.fw.Name, len(t.corpus), t.dropped)
		for _, d := range t.deps {
			fmt.Fprintf(&b, " %s=%d", d.cfg, t.passInsts[d.cfg])
		}
		b.WriteString("\n")
	}
	return b.String()
}

func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %16.6f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}
