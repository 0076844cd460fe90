package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"densim/internal/geometry"
	"densim/internal/job"
	"densim/internal/sched"
)

// span is one timed interval of the traced run. Spans of one run share the
// trace file; Parent links a span to the one that caused it (-1 for a root).
// An aggregate span folds Count calls of one child layer into a single
// record: its duration is their summed time, laid from the parent's start.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Count   int64  `json:"count,omitempty"`
}

// tracer keeps spans in memory and writes them out once, at exit. A nil
// tracer records nothing, so untraced passes pay one pointer test per span.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartNs: time.Since(t.origin).Nanoseconds()})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].EndNs = time.Since(t.origin).Nanoseconds()
}

// aggregate records count calls of one child layer, totalling total, under
// parent.
func (t *tracer) aggregate(name string, parent int, total time.Duration, count int64) {
	if t == nil || parent < 0 {
		return
	}
	start := t.spans[parent].StartNs
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, StartNs: start, EndNs: start + total.Nanoseconds(), Count: count})
}

// write stores the spans as one JSON document.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// pickCounter wraps the configured scheduler, counting placements and, when
// it has a histogram, clocking every Pick into it and a running total. It
// passes the simulator's state through untouched, so the run is
// bit-identical with or without it; the simulator calls Pick from its own
// goroutine only.
type pickCounter struct {
	inner sched.Scheduler
	picks int64
	total time.Duration
	hist  *durationHist
}

func (p *pickCounter) Name() string { return p.inner.Name() }

func (p *pickCounter) Pick(s sched.State, j *job.Job, idle []geometry.SocketID) geometry.SocketID {
	p.picks++
	if p.hist == nil {
		return p.inner.Pick(s, j, idle)
	}
	start := time.Now()
	id := p.inner.Pick(s, j, idle)
	d := time.Since(start)
	p.total += d
	p.hist.add(d)
	return id
}

// Go runtime metrics the benchmark reads around its timed steps.
const (
	rmLiveHeap = "/gc/heap/live:bytes"
	rmGCCycles = "/gc/cycles/total:gc-cycles"
	rmGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
	rmTotalCPU = "/cpu/classes/total:cpu-seconds"
)

// runtimeSampler reads the Go runtime's heap and GC figures into
// preallocated storage, so a read between steps allocates nothing.
type runtimeSampler struct {
	samples []metrics.Sample
	mem     runtime.MemStats
}

func newRuntimeSampler() *runtimeSampler {
	names := []string{rmLiveHeap, rmGCCycles, rmGCCPU, rmTotalCPU}
	r := &runtimeSampler{samples: make([]metrics.Sample, len(names))}
	for i, n := range names {
		r.samples[i].Name = n
	}
	return r
}

// runtimeReading is one read of the sampler's metrics.
type runtimeReading struct {
	liveHeap, gcCycles uint64
	gcCPU, totalCPU    float64
}

func (r *runtimeSampler) read() runtimeReading {
	metrics.Read(r.samples)
	return runtimeReading{
		liveHeap: r.samples[0].Value.Uint64(),
		gcCycles: r.samples[1].Value.Uint64(),
		gcCPU:    r.samples[2].Value.Float64(),
		totalCPU: r.samples[3].Value.Float64(),
	}
}

// allocated returns the bytes allocated on the heap so far. It reads
// runtime.MemStats, which flushes every per-P cache and so counts each
// allocation exactly; runtime/metrics counts small objects a span at a time.
// The read stops the world briefly, so it belongs outside timed intervals.
func (r *runtimeSampler) allocated() uint64 {
	runtime.ReadMemStats(&r.mem)
	return r.mem.TotalAlloc
}
