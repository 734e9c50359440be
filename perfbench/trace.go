package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Parent is the id of the enclosing span (0 for a root); every
// span of one traced run shares Run.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Run    string `json:"run"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps a traced run's spans in memory until the run ends. A nil
// tracer records nothing, so untraced code paths pay one nil check.
type tracer struct {
	run   string
	t0    time.Time
	spans []span
}

func newTracer(run string) *tracer { return &tracer{run: run, t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Run: t.run, Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.t0))
	return time.Duration(s.End - s.Start)
}

// total returns the summed duration of every span named name.
func (t *tracer) total(name string) time.Duration {
	var sum time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			sum += time.Duration(s.End - s.Start)
		}
	}
	return sum
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeSelfTimes prints, per span name, the call count, the total time and
// the self time: the span's duration minus the part its child spans cover.
func (t *tracer) writeSelfTimes(w io.Writer) {
	type agg struct {
		calls       int
		total, self time.Duration
	}
	child := make([]time.Duration, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += time.Duration(s.End - s.Start)
		}
	}
	by := map[string]*agg{}
	var names []string
	for _, s := range t.spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
			names = append(names, s.Name)
		}
		d := time.Duration(s.End - s.Start)
		a.calls++
		a.total += d
		a.self += d - child[s.ID]
	}
	sort.Slice(names, func(i, j int) bool { return by[names[i]].self > by[names[j]].self })
	fmt.Fprintf(w, "%-34s %9s %12s %12s\n", "span", "calls", "total_s", "self_s")
	for _, n := range names {
		a := by[n]
		fmt.Fprintf(w, "%-34s %9d %12.4f %12.4f\n", n, a.calls, a.total.Seconds(), a.self.Seconds())
	}
}
