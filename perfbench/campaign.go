package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"strings"
	"time"

	"embsan/internal/exps"
	"embsan/internal/guest/firmware"
)

const (
	campaignExecs = 30_000 // the paper's per-campaign budget
	workers       = 2
)

// campaignBudget is the executions a campaign must consume: exps gives the
// byte frontend twice the configured budget.
func campaignBudget(fw *firmware.Firmware) int {
	if fw.Frontend == firmware.FrontendBytes {
		return 2 * campaignExecs
	}
	return campaignExecs
}

func campaignOptions(seed int64, execs, repeats int) exps.CampaignOptions {
	return exps.CampaignOptions{Execs: execs, Seed: seed, Workers: workers, Repeats: repeats}
}

// round is one measured RunCampaignSet.
type round struct {
	wall    time.Duration
	execs   int
	digest  string
	failed  int
	found   int // distinct seeded bugs found by the set
	missed  []string
	problem []string // why campaigns failed
}

// runRound runs one campaign set and checks it: a campaign that errors or
// does not consume its budget fails, and so does each firmware whose
// campaigns jointly miss one of its seeded bugs.
func runRound(fws []*firmware.Firmware, seed int64, repeats int) *round {
	start := time.Now()
	run, err := exps.RunCampaignSet(fws, campaignOptions(seed, campaignExecs, repeats))
	r := &round{wall: time.Since(start)}
	if err != nil {
		r.failed = len(fws) * repeats
		r.problem = append(r.problem, err.Error())
		return r
	}
	found := map[string]map[string]bool{}
	for _, c := range run.Campaigns {
		r.execs += c.Stats.Execs
		if c.Stats.Execs < campaignBudget(c.Firmware) {
			r.failed++
			r.problem = append(r.problem, fmt.Sprintf("%s: %d of %d execs",
				c.Firmware.Name, c.Stats.Execs, campaignBudget(c.Firmware)))
		}
		if found[c.Firmware.Name] == nil {
			found[c.Firmware.Name] = map[string]bool{}
		}
		for _, f := range c.Found {
			found[c.Firmware.Name][f.Fn] = true
		}
	}
	for _, fw := range fws {
		miss := false
		for _, b := range fw.Bugs {
			if found[fw.Name][b.Fn] {
				r.found++
			} else {
				miss = true
				r.missed = append(r.missed, fw.Name+":"+b.Fn)
			}
		}
		if miss {
			r.failed++
		}
	}
	if r.failed > len(run.Campaigns) {
		r.failed = len(run.Campaigns)
	}
	r.digest = campaignDigest(run)
	return r
}

// campaignDigest renders the guest-visible outcome of a campaign set: per
// campaign the found set, execs, corpus size, cover blocks and retired
// guest instructions. It is identical for every worker count and host.
func campaignDigest(run *exps.CampaignRun) string {
	var b strings.Builder
	for i, c := range run.Campaigns {
		var fns []string
		for _, f := range c.Found {
			fns = append(fns, f.Fn)
		}
		fmt.Fprintf(&b, "campaign %d %s execs=%d corpus=%d cover=%d insts=%d found=[%s]\n",
			i, c.Firmware.Name, c.Stats.Execs, c.Stats.CorpusSize, c.Stats.CoverBlocks,
			c.Stats.Insts, strings.Join(fns, ","))
	}
	return b.String()
}

// buildFirmware builds the named registry firmware.
func buildFirmware(tr *tracer, parent int, names []string) ([]*firmware.Firmware, error) {
	out := make([]*firmware.Firmware, 0, len(names))
	for _, n := range names {
		sp := tr.begin("firmware.Build", parent)
		fw, err := firmware.Build(n)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		out = append(out, fw)
	}
	return out, nil
}

// warmupSet is the campaign set-up a user pays before the first execution:
// a 1-exec RunCampaignSet boots, probes, statically analyses and labels
// every firmware of the set.
func warmupSet(fws []*firmware.Firmware, seed int64) error {
	_, err := exps.RunCampaignSet(fws, campaignOptions(seed, 1, 1))
	return err
}

func digestSum(s string) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(s)))[:16]
}

func printDigest(w io.Writer, title, body string) {
	fmt.Fprintf(w, "digest %s %s\n", title, digestSum(body))
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		fmt.Fprintf(w, "  %s\n", line)
	}
}
