package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the checks read.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// readResults reads the JSON result lines of one set of runs: every line
// of the files that parses as a result object.
func readResults(paths []string) ([]result, error) {
	var out []result
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			var r result
			if !strings.HasPrefix(line, "{") || json.Unmarshal([]byte(line), &r) != nil || r.Metrics == nil {
				continue
			}
			out = append(out, r)
		}
		f.Close()
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
	}
	return out, nil
}

// quartiles returns the three cut points of Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method), so the
// spreads printed here are the ones the acceptance rule computes.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var q [3]float64
	n, m := len(s), len(s)+1
	switch n {
	case 0:
		return q
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

func metricValues(rs []result, name string) []float64 {
	var xs []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

func metricNames(rs []result) []string {
	seen := map[string]bool{}
	var names []string
	for _, r := range rs {
		for n := range r.Metrics {
			if !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
	}
	sort.Strings(names)
	return names
}

// spreadMain prints, per metric, the median and the distance between the
// first and third quartiles as a share of the median.
func spreadMain(args []string) int {
	rs, err := readResults(args)
	if err != nil || len(rs) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench spread: no results (%v)\n", err)
		return 1
	}
	failed := 0
	for _, r := range rs {
		if !r.Correct || r.Failed > 0 {
			failed++
		}
	}
	fmt.Printf("%d runs, %d incorrect or with failures\n", len(rs), failed)
	fmt.Printf("%-34s %4s %16s %10s\n", "metric", "n", "median", "iqr/median")
	for _, n := range metricNames(rs) {
		xs := metricValues(rs, n)
		q := quartiles(xs)
		spread := 0.0
		if q[1] != 0 {
			spread = (q[2] - q[0]) / q[1]
		}
		fmt.Printf("%-34s %4d %16.6f %10.4f\n", n, len(xs), q[1], spread)
	}
	return 0
}

// gateMain compares two sets of runs of one workload: it fails when a head
// median is worse than the base median by more than the metric's bound, or
// when any head run is incorrect.
func gateMain(args []string) int {
	if len(args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: perfbench gate BENCHMARK.json base.jsonl head.jsonl")
		return 2
	}
	raw, err := os.ReadFile(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench gate:", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench gate:", err)
		return 2
	}
	base, err1 := readResults(args[1:2])
	head, err2 := readResults(args[2:3])
	if err1 != nil || err2 != nil || len(base) == 0 || len(head) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench gate: missing results (%v, %v)\n", err1, err2)
		return 2
	}
	ok := true
	for _, r := range head {
		if !r.Correct || r.Failed > 0 {
			ok = false
			fmt.Println("FAIL head run incorrect or with failed operations")
		}
	}
	fmt.Printf("%-20s %14s %14s %9s %7s\n", "metric", "base", "head", "change", "bound")
	for _, m := range spec.EndToEnd {
		b := quartiles(metricValues(base, m.Name))[1]
		h := quartiles(metricValues(head, m.Name))[1]
		worse := (h - b) / b
		if m.Better == "higher" {
			worse = (b - h) / b
		}
		verdict := "ok"
		if worse > m.Bound {
			verdict = "REGRESSION"
			ok = false
		}
		fmt.Printf("%-20s %14.6f %14.6f %+8.2f%% %6.0f%% %s\n", m.Name, b, h, 100*worse, 100*m.Bound, verdict)
	}
	if !ok {
		return 1
	}
	return 0
}
