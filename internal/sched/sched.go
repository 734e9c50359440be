// Package sched is EMBSAN's deterministic parallel campaign executor. It
// runs independent, index-addressed jobs (fuzzing campaigns, replay sweeps,
// overhead probes) across a pool of workers, where each worker owns warmed
// emulated machines that are reset between jobs via snapshot/restore
// instead of full re-construction.
//
// Determinism contract: a job must be a pure function of its index — seeds
// are derived per index with Split, and pooled machines are fully rewound
// (Machine.Restore + Machine.Reseed, Runtime.Restore) before reuse — so
// merged results are bit-identical regardless of worker count or which
// worker happens to claim which job.
//
// Race invariant: one Machine per goroutine, merge by index. Each worker
// exclusively owns its pooled machines and its counters; a job writes its
// result only at its own index; the caller reads merged results in index
// order only after Run returns. The only cross-goroutine traffic is the
// atomic job cursor and the per-index result/error slots, each touched by
// exactly one job.
package sched

import (
	"container/list"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"embsan/internal/obs"
	"embsan/internal/obs/timeline"
)

// Options tunes the executor.
type Options struct {
	// Workers is the pool size. <= 0 means GOMAXPROCS; 1 runs every job
	// inline on the calling goroutine (the serial path).
	Workers int
	// PoolCap bounds how many warmed values each worker keeps (default 4).
	// Eviction is least-recently-used and only affects warm-up cost, never
	// results.
	PoolCap int
}

const defaultPoolCap = 4

// Counters is a snapshot of one worker's accounting, surfaced by the
// campaign stat formatters. Jobs bump the live instruments (Worker.Inst)
// instead; the snapshot is taken once per worker when Run returns.
type Counters struct {
	Jobs    int    // jobs completed
	Execs   uint64 // fuzzer executions driven
	Resets  uint64 // snapshot restores (machine resets)
	TBHits  uint64 // translation-block cache hits
	Reports uint64 // sanitizer/fault findings recorded
	Frames  uint64 // backtrace frames attached to findings (forensics)
	// Elapsed is the worker's wall-clock lifetime. It is view-side only —
	// throughput columns divide Execs by it — and must never feed any
	// byte-identity oracle (see exps.MaskWallClock).
	Elapsed time.Duration
}

// WorkerStats is one worker's final accounting.
type WorkerStats struct {
	Worker int
	Counters
}

// Instruments is the worker's live accounting, backed by the worker's
// obs.Registry. Each counter is owned by exactly one worker goroutine, so
// bumping it is race-free without atomics.
type Instruments struct {
	Jobs    *obs.Counter
	Execs   *obs.Counter
	Resets  *obs.Counter
	TBHits  *obs.Counter
	Reports *obs.Counter
	Frames  *obs.Counter
}

// Worker is the per-goroutine context handed to every job it runs.
type Worker struct {
	id      int
	metrics *obs.Registry
	inst    Instruments
	ring    *obs.Ring
	sampler *timeline.Sampler
	start   time.Time
	poolCap int
	pool    map[string]*list.Element
	order   *list.List // front = most recently used
}

type poolEntry struct {
	key   string
	value any
}

func newWorker(id, poolCap int) *Worker {
	if poolCap <= 0 {
		poolCap = defaultPoolCap
	}
	w := &Worker{id: id, metrics: obs.NewRegistry(), start: time.Now(),
		poolCap: poolCap,
		pool:    make(map[string]*list.Element), order: list.New()}
	w.inst = Instruments{
		Jobs:    w.metrics.Counter("sched.worker.jobs"),
		Execs:   w.metrics.Counter("sched.worker.execs"),
		Resets:  w.metrics.Counter("sched.worker.resets"),
		TBHits:  w.metrics.Counter("sched.worker.tb_hits"),
		Reports: w.metrics.Counter("sched.worker.reports"),
		Frames:  w.metrics.Counter("sched.worker.frames"),
	}
	return w
}

// ID returns the worker's pool index (0-based).
func (w *Worker) ID() int { return w.id }

// Inst exposes the worker's live accounting instruments for jobs to bump.
func (w *Worker) Inst() Instruments { return w.inst }

// Metrics is the worker-private registry behind Inst. Callers may register
// additional worker-scoped instruments in it and merge registries across
// workers after Run returns.
func (w *Worker) Metrics() *obs.Registry { return w.metrics }

// TraceRing returns the worker's event ring, lazily allocated at the given
// capacity (events). The ring is worker-private; jobs that capture traces
// Reset it at job start and copy events out at job end, so the buffer is
// reused across jobs without its contents leaking between them.
func (w *Worker) TraceRing(capacity int) *obs.Ring {
	if w.ring == nil || w.ring.Cap() != capacity {
		w.ring = obs.NewRing(capacity)
	}
	return w.ring
}

// TimelineSampler returns the worker's timeline sampler, lazily allocated
// with the given interval (0 means timeline.DefaultInterval) and
// timeline.DefaultMaxSamples of capacity. Like TraceRing it is
// worker-private and reused across jobs: the job Resets it at start and
// copies samples out at end, so the preallocated buffers never leak
// between jobs and a steady-state campaign set allocates nothing per job.
func (w *Worker) TimelineSampler(interval uint64) *timeline.Sampler {
	if interval == 0 {
		interval = timeline.DefaultInterval
	}
	if w.sampler == nil || w.sampler.BaseInterval() != interval {
		w.sampler = timeline.NewSampler(interval, 0)
	}
	return w.sampler
}

// stats snapshots the live instruments into the stable Counters form.
func (w *Worker) stats() Counters {
	return Counters{
		Jobs:    int(w.inst.Jobs.Value()),
		Execs:   w.inst.Execs.Value(),
		Resets:  w.inst.Resets.Value(),
		TBHits:  w.inst.TBHits.Value(),
		Reports: w.inst.Reports.Value(),
		Frames:  w.inst.Frames.Value(),
		Elapsed: time.Since(w.start),
	}
}

// Pooled returns the worker-local value for key, constructing it with
// build on first use. Values are private to one worker — this is what
// upholds the one-Machine-per-goroutine invariant — and the least
// recently used value is dropped once the worker holds more than PoolCap.
func Pooled[T any](w *Worker, key string, build func() (T, error)) (T, error) {
	if el, ok := w.pool[key]; ok {
		w.order.MoveToFront(el)
		return el.Value.(*poolEntry).value.(T), nil
	}
	v, err := build()
	if err != nil {
		var zero T
		return zero, err
	}
	w.pool[key] = w.order.PushFront(&poolEntry{key: key, value: v})
	for w.order.Len() > w.poolCap {
		oldest := w.order.Back()
		w.order.Remove(oldest)
		delete(w.pool, oldest.Value.(*poolEntry).key)
	}
	return v, nil
}

// Run executes jobs 0..n-1 across the worker pool and returns per-worker
// stats. fn must uphold the determinism contract above. When any job
// fails, workers stop claiming new jobs, in-flight jobs finish, and the
// error of the lowest failing index is returned (deterministic across
// schedules).
func Run(opts Options, n int, fn func(w *Worker, index int) error) ([]WorkerStats, error) {
	if n < 0 {
		return nil, fmt.Errorf("sched: negative job count %d", n)
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if n == 0 {
		return nil, nil
	}

	errs := make([]error, n)
	if workers <= 1 {
		// Serial path: same pooling and seed derivation, no goroutines.
		w := newWorker(0, opts.PoolCap)
		for i := 0; i < n; i++ {
			if err := fn(w, i); err != nil {
				return []WorkerStats{{Worker: 0, Counters: w.stats()}}, err
			}
		}
		return []WorkerStats{{Worker: 0, Counters: w.stats()}}, nil
	}

	var (
		cursor  atomic.Int64
		aborted atomic.Bool
		wg      sync.WaitGroup
	)
	stats := make([]WorkerStats, workers)
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			w := newWorker(wi, opts.PoolCap)
			for !aborted.Load() {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					break
				}
				if err := fn(w, i); err != nil {
					errs[i] = err
					aborted.Store(true)
				}
			}
			stats[wi] = WorkerStats{Worker: wi, Counters: w.stats()}
		}(wi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return stats, err
		}
	}
	return stats, nil
}

// MergeStats sums per-worker counters into one total. Elapsed is the
// maximum across workers — the pool's wall-clock makespan — because the
// workers ran concurrently and summing their lifetimes would overstate
// the denominator of any aggregate throughput figure.
func MergeStats(ws []WorkerStats) Counters {
	var total Counters
	for _, w := range ws {
		total.Jobs += w.Jobs
		total.Execs += w.Execs
		total.Resets += w.Resets
		total.TBHits += w.TBHits
		total.Reports += w.Reports
		total.Frames += w.Frames
		if w.Elapsed > total.Elapsed {
			total.Elapsed = w.Elapsed
		}
	}
	return total
}
