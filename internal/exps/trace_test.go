package exps

import (
	"bytes"
	"strings"
	"testing"

	"embsan/internal/obs"
)

// TestCampaignTraceDeterministicAcrossWorkers: with tracing on, the
// per-campaign event streams — merged by campaign index — are identical at
// workers=1 and workers=4, and so is the Chrome export built from them. The
// campaign outcomes themselves also still fingerprint identically, i.e.
// tracing does not perturb the determinism contract it observes.
func TestCampaignTraceDeterministicAcrossWorkers(t *testing.T) {
	fws := buildSubset(t, "InfiniTime", "OpenWRT-bcm63xx")
	opts := CampaignOptions{Execs: 200, Seed: 3, Repeats: 2, Trace: true}

	type run struct {
		fp     string
		jobs   []obs.JobTrace
		chrome []byte
	}
	runs := make([]run, 0, 2)
	for _, workers := range []int{1, 4} {
		opts.Workers = workers
		cr, err := RunCampaignSet(fws, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		jobs := JobTraces(cr.Campaigns)
		if len(jobs) != len(cr.Campaigns) {
			t.Fatalf("workers=%d: %d traces for %d campaigns", workers, len(jobs), len(cr.Campaigns))
		}
		runs = append(runs, run{
			fp:     campaignFingerprint(cr.Campaigns),
			jobs:   jobs,
			chrome: obs.ChromeTrace(jobs),
		})
	}

	if runs[0].fp != runs[1].fp {
		t.Error("campaign outcomes diverged between worker counts with tracing on")
	}
	for ji := range runs[0].jobs {
		a, b := runs[0].jobs[ji], runs[1].jobs[ji]
		if a.ID != b.ID || a.Dropped != b.Dropped || len(a.Events) != len(b.Events) {
			t.Fatalf("job %d: stream shape diverged (id %d/%d, dropped %d/%d, len %d/%d)",
				ji, a.ID, b.ID, a.Dropped, b.Dropped, len(a.Events), len(b.Events))
		}
		for ei := range a.Events {
			if a.Events[ei] != b.Events[ei] {
				t.Fatalf("job %d event %d diverged: %+v vs %+v", ji, ei, a.Events[ei], b.Events[ei])
			}
		}
	}
	if !bytes.Equal(runs[0].chrome, runs[1].chrome) {
		t.Error("Chrome export bytes diverged between worker counts")
	}
	if err := obs.ValidateChrome(runs[0].chrome); err != nil {
		t.Errorf("merged campaign trace fails Chrome validation: %v", err)
	}
}

// TestCampaignTraceWraparound: a deliberately tiny ring overflows, drops the
// oldest events, and the exported stream still validates — wraparound
// degrades coverage of the timeline, never its integrity.
func TestCampaignTraceWraparound(t *testing.T) {
	fws := buildSubset(t, "InfiniTime")
	cr, err := RunCampaignSet(fws, CampaignOptions{
		Execs: 200, Seed: 3, Workers: 1, Trace: true, TraceEvents: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := cr.Campaigns[0]
	if c.TraceDropped == 0 {
		t.Fatal("64-event ring did not overflow on a full campaign")
	}
	if len(c.Trace) != 64 {
		t.Fatalf("retained %d events, want the full ring (64)", len(c.Trace))
	}
	if err := obs.ValidateChrome(obs.ChromeTrace(JobTraces(cr.Campaigns))); err != nil {
		t.Fatalf("wrapped trace fails Chrome validation: %v", err)
	}
	if _, _, err := obs.DecodeEvents(obs.EncodeEvents(c.Trace, c.TraceDropped)); err != nil {
		t.Fatalf("wrapped trace fails binary round trip: %v", err)
	}
}

// TestTraceOffIsNoop: enabling then disabling observability leaves campaign
// outcomes fingerprints-identical to a never-traced run, and a traced run
// reports phase work while an untraced one reports none. This is the
// paired check `make obs-check` drives.
func TestTraceOffIsNoop(t *testing.T) {
	fws := buildSubset(t, "InfiniTime")
	base := CampaignOptions{Execs: 200, Seed: 3, Workers: 1}

	off, err := RunCampaignSet(fws, base)
	if err != nil {
		t.Fatal(err)
	}
	traced := base
	traced.Trace = true
	traced.Metrics = true
	on, err := RunCampaignSet(fws, traced)
	if err != nil {
		t.Fatal(err)
	}

	if campaignFingerprint(off.Campaigns) != campaignFingerprint(on.Campaigns) {
		t.Error("tracing changed campaign outcomes")
	}
	if off.Campaigns[0].Phases.Any() {
		t.Error("untraced campaign carries a phase breakdown")
	}
	p := on.Campaigns[0].Phases
	if !p.Any() || p.Execute == 0 || p.Sanitize == 0 {
		t.Errorf("traced campaign phase breakdown is empty or partial: %+v", p)
	}

	// The stat table gains phase columns only when phases were recorded.
	offStats := FormatCampaignStats(off.Campaigns, off.Workers...)
	onStats := FormatCampaignStats(on.Campaigns, on.Workers...)
	for _, col := range []string{"execute", "sanitize", "snapshot"} {
		if strings.Contains(offStats, col) {
			t.Errorf("metrics-off stats leak the %q column:\n%s", col, offStats)
		}
		if !strings.Contains(onStats, col) {
			t.Errorf("metrics-on stats missing the %q column:\n%s", col, onStats)
		}
	}

	// Reports captured under tracing carry their virtual timestamp and the
	// reporting worker.
	for _, c := range on.Campaigns {
		for _, cr := range c.Raw.Crashes {
			if cr.Report == nil {
				continue
			}
			if cr.Report.ICnt == 0 {
				t.Errorf("report %s has no virtual timestamp", cr.Signature)
			}
		}
	}
}

// TestCampaignStatsMetricsAcrossWorkers: with the phase breakdown on, the
// campaign stats table is identical at workers=1 and workers=4 once its
// wall-clock throughput is masked. Two repeats per firmware make the second
// campaign of each firmware run on a pooled machine an earlier job already
// warmed and dirtied at workers=1, and on a fresh one at workers=4, so a
// phase column that reads pooled-machine history shows up as a diff.
func TestCampaignStatsMetricsAcrossWorkers(t *testing.T) {
	fws := buildSubset(t, "InfiniTime", "OpenWRT-bcm63xx")
	opts := CampaignOptions{Execs: 200, Seed: 3, Repeats: 2, Metrics: true}

	counts := []int{1, 4}
	tables := make([]string, 0, len(counts))
	for _, workers := range counts {
		opts.Workers = workers
		run, err := RunCampaignSet(fws, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		tables = append(tables, MaskWallClock(FormatCampaignStats(run.Campaigns)))
	}
	if tables[1] != tables[0] {
		t.Errorf("stats table diverged between workers=%d and workers=%d:\n%s\n%s",
			counts[0], counts[1], tables[0], tables[1])
	}
}
