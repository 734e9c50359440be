package exps

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"embsan/internal/guest/firmware"
	"embsan/internal/sched"
)

// campaignFingerprint canonically serialises everything a campaign
// produced: stats, the attributed findings, the deduplicated crash set and
// a digest of the corpus. Two runs merge identically iff their
// fingerprints are byte-identical.
func campaignFingerprint(cs []*Campaign) string {
	h := sha256.New()
	out := ""
	for i, c := range cs {
		fmt.Fprintf(h, "campaign %d %s\n", i, c.Firmware.Name)
		fmt.Fprintf(h, "stats %+v\n", c.Stats)
		for _, f := range c.Found {
			fmt.Fprintf(h, "found %+v\n", f)
		}
		for _, m := range c.Missed {
			fmt.Fprintf(h, "missed %s\n", m)
		}
		sigs := make([]string, 0, len(c.Raw.Crashes))
		for _, cr := range c.Raw.Crashes {
			sigs = append(sigs, fmt.Sprintf("%s execs=%d min=%x", cr.Signature, cr.Execs, cr.Minimized))
		}
		sort.Strings(sigs)
		for _, s := range sigs {
			fmt.Fprintf(h, "crash %s\n", s)
		}
		for _, in := range c.Corpus {
			h.Write(in)
			h.Write([]byte{0})
		}
		out += fmt.Sprintf("%s: execs=%d corpus=%d blocks=%d found=%d\n",
			c.Firmware.Name, c.Stats.Execs, c.Stats.CorpusSize, c.Stats.CoverBlocks, len(c.Found))
	}
	return fmt.Sprintf("%s%x", out, h.Sum(nil))
}

// TestCampaignDeterminismAcrossWorkers: the scheduler's merged stats and
// report sets are byte-identical at workers=1, workers=4 and
// workers=GOMAXPROCS — the bit-reproducibility contract of the seed
// splitting plus pooled snapshot/restore design.
func TestCampaignDeterminismAcrossWorkers(t *testing.T) {
	fws := buildSubset(t, "InfiniTime", "OpenWRT-bcm63xx")
	opts := CampaignOptions{Execs: 350, Seed: 3, Repeats: 2}

	counts := []int{1, 4, runtime.GOMAXPROCS(0)}
	prints := make([]string, len(counts))
	for i, workers := range counts {
		opts.Workers = workers
		run, err := RunCampaignSet(fws, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(run.Campaigns) != len(fws)*opts.Repeats {
			t.Fatalf("workers=%d: %d campaigns, want %d", workers, len(run.Campaigns), len(fws)*opts.Repeats)
		}
		prints[i] = campaignFingerprint(run.Campaigns)
	}
	for i := 1; i < len(counts); i++ {
		if prints[i] != prints[0] {
			t.Errorf("workers=%d diverged from workers=%d:\n--- workers=%d ---\n%s\n--- workers=%d ---\n%s",
				counts[i], counts[0], counts[0], prints[0], counts[i], prints[i])
		}
	}
}

// TestPooledMachineRearmsCoverage: back-to-back campaigns on one warmed
// deployment report the same coverage as on fresh deployments. Coverage is
// a per-block first-hit stamp, so the second campaign sees blocks the first
// one already stamped only because installing its hook re-arms them; a
// missing re-arm would under-report its coverage and starve its corpus.
func TestPooledMachineRearmsCoverage(t *testing.T) {
	opts := CampaignOptions{Execs: 500, Seed: 3}
	for _, fw := range buildSubset(t, "InfiniTime", "OpenWRT-bcm63xx") {
		pooled, err := warmUp(fw, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			seed := sched.Split(opts.Seed, i)
			got, err := pooled.run(fw, seed, opts.Execs, runExtras{})
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := warmUp(fw, opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.run(fw, seed, opts.Execs, runExtras{})
			if err != nil {
				t.Fatal(err)
			}
			g, w := got.Stats, want.Stats
			if g.CoverBlocks != w.CoverBlocks || g.CoverLeaders != w.CoverLeaders ||
				g.CorpusSize != w.CorpusSize || g.Insts != w.Insts {
				t.Errorf("%s campaign %d on the pooled machine: blocks=%d leaders=%d corpus=%d insts=%d; fresh: blocks=%d leaders=%d corpus=%d insts=%d",
					fw.Name, i, g.CoverBlocks, g.CoverLeaders, g.CorpusSize, g.Insts,
					w.CoverBlocks, w.CoverLeaders, w.CorpusSize, w.Insts)
			}
		}
	}
}

// TestCampaignRepeatsUseIndependentSeeds: repeated campaigns on one
// firmware get distinct derived seeds, so they explore differently (the
// whole point of seed splitting) while each remaining reproducible.
func TestCampaignRepeatsUseIndependentSeeds(t *testing.T) {
	fws := buildSubset(t, "InfiniTime")
	run, err := RunCampaignSet(fws, CampaignOptions{Execs: 350, Seed: 3, Repeats: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, b := run.Campaigns[0], run.Campaigns[1]
	if campaignFingerprint([]*Campaign{a}) == campaignFingerprint([]*Campaign{b}) {
		t.Error("repeat campaigns produced identical outcomes; derived seeds look shared")
	}
}

// TestWorkerStatsAccounted: the pool surfaces non-trivial per-worker
// counters that add up to the merged campaign stats.
func TestWorkerStatsAccounted(t *testing.T) {
	fws := buildSubset(t, "InfiniTime")
	run, err := RunCampaignSet(fws, CampaignOptions{Execs: 350, Seed: 3, Repeats: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var wantExecs uint64
	for _, c := range run.Campaigns {
		wantExecs += uint64(c.Stats.Execs)
	}
	var total uint64
	for _, w := range run.Workers {
		total += w.Execs
		if w.Jobs > 0 && w.Resets == 0 {
			t.Errorf("worker %d ran %d jobs with zero machine resets", w.Worker, w.Jobs)
		}
	}
	if total != wantExecs {
		t.Errorf("per-worker execs sum to %d, campaigns report %d", total, wantExecs)
	}
	if run.Workers[0].Jobs+run.Workers[1].Jobs != 3 {
		t.Errorf("jobs split %d/%d, want 3 total", run.Workers[0].Jobs, run.Workers[1].Jobs)
	}
	stats := FormatCampaignStats(run.Campaigns, run.Workers...)
	for _, want := range []string{"Worker pool (2 workers)", "tb-hits", "total"} {
		if !strings.Contains(stats, want) {
			t.Errorf("FormatCampaignStats missing %q:\n%s", want, stats)
		}
	}
}

func buildSubset(t *testing.T, names ...string) []*firmware.Firmware {
	t.Helper()
	var fws []*firmware.Firmware
	for _, n := range names {
		fw, err := firmware.Build(n)
		if err != nil {
			t.Fatal(err)
		}
		fws = append(fws, fw)
	}
	return fws
}
