// Package obs is EMBSAN's deterministic observability layer: virtual-time
// event tracing, a metrics registry, and a guest PC profiler shared by the
// emulator, the sanitizer runtime, the campaign scheduler and the
// experiment drivers.
//
// The design constraint everything else follows from is the determinism
// contract of the parallel executor (internal/sched): a campaign's
// observable output must be a pure function of its index, regardless of
// worker count. Wall-clock time would break that instantly, so the trace
// clock is the guest instruction counter — the same virtual clock that
// already drives KCSAN watchpoint stalls and CSRCycles reads. Two runs of
// the same campaign produce bit-identical event streams, and a per-job
// stream is independent of which pooled machine happened to execute it.
//
// The second constraint is that tracing is zero-alloc and near-zero-cost
// when off: every emit site in the hot interpreter loop is guarded by a
// single nil pointer check, and an emit into a live ring is a struct store
// into a preallocated buffer. Instruments (counters, gauges, histograms)
// are plain structs bumped through a pointer — the same machine code the
// ad-hoc counter fields they replaced compiled to.
package obs

// Kind identifies one trace event class.
type Kind uint8

const (
	// EvTBEnter marks entry into a translation block (PC = block leader).
	EvTBEnter Kind = iota + 1
	// EvTBExit marks leaving a translation block (PC = block leader,
	// Arg = exit cause: done/yield/stall/stop/halt as a small ordinal).
	EvTBExit
	// EvSanck is one SANCK trap dispatched to the sanitizer runtime
	// (EMBSAN-C path). Arg packs size | write<<8 | atomic<<9.
	EvSanck
	// EvMemProbe is one load/store/atomic dispatched to the Mem probe
	// (EMBSAN-D path). Arg packs size | write<<8 | atomic<<9.
	EvMemProbe
	// EvAllocEnter marks an intercepted allocator entry (Arg = request size).
	EvAllocEnter
	// EvAllocExit marks an intercepted allocator return
	// (Addr = returned pointer, Arg = request size).
	EvAllocExit
	// EvFree marks an intercepted free (Addr = freed pointer).
	EvFree
	// EvPoison is a shadow poison (Addr/Arg = range, PC = poison code).
	EvPoison
	// EvUnpoison is a shadow unpoison (Addr/Arg = range).
	EvUnpoison
	// EvSnapshot marks a machine snapshot capture.
	EvSnapshot
	// EvRestore marks a machine snapshot restore; its ICnt is the restored
	// (rewound) instruction counter, so it is deterministic per job even on
	// a pooled machine.
	EvRestore
	// EvReport is a new (deduplicated) sanitizer report
	// (Arg = bug type ordinal).
	EvReport
	// EvQuarantine marks a freed chunk entering the sanitizer quarantine
	// (Addr = chunk base, Arg = chunk size, PC = freeing call site).
	EvQuarantine
	// EvFrame attaches one shadow-call-stack frame to the immediately
	// preceding event in the same stream: Addr = the frame's call-site PC,
	// Arg = frame index (0 = innermost), PC = the parent event's PC so a
	// windowed cut without the parent still attributes. Emitted only under
	// forensic tracing (san.Runtime.ArmForensics).
	EvFrame
	// EvStall flags a coverage plateau detected by the timeline sampler:
	// N consecutive samples without a new cover block. ICnt is the
	// campaign-cumulative virtual clock of the flagging sample (not the
	// machine's rewinding icnt), Addr the plateaued block count.
	EvStall
	// EvNovelty flags a timeline novelty event: Arg 0 = a new cover
	// block (the re-arm signal after a stall), Arg 1 = corpus growth.
	// ICnt/Addr as for EvStall.
	EvNovelty

	evMax = EvNovelty
)

var kindNames = [...]string{
	EvTBEnter:    "tb",
	EvTBExit:     "tb",
	EvSanck:      "sanck",
	EvMemProbe:   "mem-probe",
	EvAllocEnter: "alloc-enter",
	EvAllocExit:  "alloc-exit",
	EvFree:       "free",
	EvPoison:     "poison",
	EvUnpoison:   "unpoison",
	EvSnapshot:   "snapshot",
	EvRestore:    "restore",
	EvReport:     "report",
	EvQuarantine: "quarantine",
	EvFrame:      "frame",
	EvStall:      "stall",
	EvNovelty:    "novelty",
}

// String returns the stable exporter name of the kind.
func (k Kind) String() string {
	if k >= 1 && k <= evMax {
		return kindNames[k]
	}
	return "unknown"
}

// Valid reports whether k is a defined event kind.
func (k Kind) Valid() bool { return k >= 1 && k <= evMax }

// PackAccess encodes a memory-access shape into an Event.Arg.
func PackAccess(size uint32, write, atomic bool) uint32 {
	v := size & 0xFF
	if write {
		v |= 1 << 8
	}
	if atomic {
		v |= 1 << 9
	}
	return v
}

// Event is one fixed-size trace record. ICnt is the virtual timestamp: the
// machine's retired-guest-instruction counter at emit time.
type Event struct {
	ICnt uint64
	PC   uint32
	Addr uint32
	Arg  uint32
	Kind Kind
	Hart uint8
}

// Ring is a bounded event buffer owned by exactly one goroutine — in the
// campaign executor, by one scheduler worker. There is no locking anywhere:
// "lock-free" here is by ownership, the same invariant that makes one
// Machine private to one worker. When the ring is full the oldest events
// are overwritten; Dropped counts them.
type Ring struct {
	buf  []Event
	head uint64 // total events ever retained
	// filter, when set, decides at emit time whether an event is retained.
	// Focused forensic tracing uses it to keep a bounded ring from wrapping
	// past the window of interest; the hot path pays one nil check. It takes
	// the event by value — a pointer would escape the parameter to the heap
	// and cost an allocation per emit even with no filter installed.
	filter func(Event) bool
}

// DefaultRingEvents is the default per-job ring capacity.
const DefaultRingEvents = 1 << 16

// NewRing creates a ring holding up to capacity events (minimum 1).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{buf: make([]Event, capacity)}
}

// Emit appends e, overwriting the oldest event when full, and reports
// whether the event was retained (an installed filter may reject it).
// Emitters of dependent events — EvFrame records attached to an allocator
// or report event — must consult the result so a filtered-out parent never
// leaves orphaned children in the stream. It never allocates.
func (r *Ring) Emit(e Event) bool {
	if r.filter != nil && !r.filter(e) {
		return false
	}
	r.buf[r.head%uint64(len(r.buf))] = e
	r.head++
	return true
}

// SetFilter installs (or, with nil, removes) an emit-time retention
// predicate. The filter must be a pure function of the event for traces to
// stay deterministic. Reset does not clear it.
func (r *Ring) SetFilter(f func(Event) bool) { r.filter = f }

// Len returns the number of retained events.
func (r *Ring) Len() int {
	if r.head < uint64(len(r.buf)) {
		return int(r.head)
	}
	return len(r.buf)
}

// Dropped returns how many events were overwritten by wraparound.
func (r *Ring) Dropped() uint64 {
	if r.head <= uint64(len(r.buf)) {
		return 0
	}
	return r.head - uint64(len(r.buf))
}

// Cap returns the ring capacity.
func (r *Ring) Cap() int { return len(r.buf) }

// Reset discards all events, keeping the buffer.
func (r *Ring) Reset() { r.head = 0 }

// Events returns the retained events oldest-first as a fresh slice.
func (r *Ring) Events() []Event {
	n := r.Len()
	out := make([]Event, n)
	if r.head <= uint64(len(r.buf)) {
		copy(out, r.buf[:n])
		return out
	}
	start := r.head % uint64(len(r.buf))
	copy(out, r.buf[start:])
	copy(out[len(r.buf)-int(start):], r.buf[:start])
	return out
}

// JobTrace is one job's captured event stream, addressed by the job index
// the scheduler merges results on. Concatenating JobTraces in index order
// is the canonical merged trace: it is identical for every worker count
// because each job's stream is.
type JobTrace struct {
	ID      int
	Events  []Event
	Dropped uint64
}

// Phases is a virtual-time cost breakdown of one campaign, in deterministic
// work units per phase: guest instructions retired (execute), sanitizer
// dispatches — SANCK traps plus Mem-probe invocations — (sanitize), and
// snapshot pages copied back (snapshot).
type Phases struct {
	Execute  uint64
	Sanitize uint64
	Snapshot uint64
}

// Any reports whether any phase recorded work.
func (p Phases) Any() bool {
	return p.Execute != 0 || p.Sanitize != 0 || p.Snapshot != 0
}
