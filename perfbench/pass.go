package main

import (
	"hash/fnv"
	"math"
	"time"

	"densim/internal/sim"
	"densim/internal/telemetry"
)

// stepper is one workload instance, set up at one GOMAXPROCS, whose timed
// steps the caller runs one by one (possibly interleaved with another
// stepper's) and then finishes.
type stepper interface {
	step(k int) // timed step k, 1-based
	finish()
	result() *passResult
}

// setupTiming is one set-up's wall time and its phases.
type setupTiming struct {
	total, config, newSim, warmup time.Duration
}

// passResult is what one pass over a workload's timed steps measured and
// produced. A pass runs at one GOMAXPROCS, traced or not.
type passResult struct {
	setups []setupTiming
	stepMs []float64 // host ms per timed step
	pickMs []float64 // scheduler time inside each step (traced passes)
	selfMs []float64 // step minus its pick time (traced passes)

	simSec    float64 // simulated seconds covered by the timed steps
	socketSec float64 // simulated socket-seconds covered by the timed steps
	picks     int64   // placements during the timed steps

	allocBytes uint64    // heap bytes allocated by the measured run
	liveMB     []float64 // live heap at the latest GC, read after each step
	gcCycles   uint64    // GC cycles completed during the timed steps
	gcCPU      float64   // GC CPU seconds during the timed steps
	totalCPU   float64   // CPU seconds available during the timed steps

	prints        []uint64 // per-step fingerprint of the simulated state
	final         uint64   // fingerprint of the final simulated result
	expansion     float64
	energyPerWork float64
	finishTime    time.Duration

	failed map[int]string // operation (step 1..n, finish n+1) -> first failure seen on it

	// Traced passes only.
	pickHist *durationHist // chassis: every pick, exact
	counters layerCounts

	// Fleet passes only.
	newMs, runMs []float64
	fleetPicks   fleetPickStats
	dispatched   int64
	epochs       int64
	observations int64
	estErr       int64

	rs        *runtimeSampler
	window    runtimeReading
	stepStart time.Time
	allocMark uint64
}

func newPass() *passResult { return &passResult{rs: newRuntimeSampler()} }

// layerCounts sums the simulator's telemetry counters over a traced pass.
type layerCounts struct {
	ticks, shards, settled, strided, event, laneSkips float64
	laneTicks                                         float64 // ticks x airflow lanes
	throttleDown, throttleUp                          float64
	simSec                                            float64 // simulated seconds the counters cover
}

// fail records a failed operation: step k, or the finish (finishOp).
func (p *passResult) fail(k int, msg string) {
	if p.failed == nil {
		p.failed = map[int]string{}
	}
	if _, ok := p.failed[k]; !ok {
		p.failed[k] = msg
	}
}

// finishOp is the operation number of the pass's finish, counted after
// its steps.
func (p *passResult) finishOp() int { return len(p.stepMs) + 1 }

// beginSegment and endSegment bracket a run of consecutive steps of this
// pass, accumulating the garbage collector's work over them.
func (p *passResult) beginSegment() { p.window = p.rs.read() }

func (p *passResult) endSegment() {
	r := p.rs.read()
	p.gcCycles += r.gcCycles - p.window.gcCycles
	p.gcCPU += r.gcCPU - p.window.gcCPU
	p.totalCPU += r.totalCPU - p.window.totalCPU
}

// beginAlloc and endAlloc bracket work whose heap allocation counts
// towards the pass.
func (p *passResult) beginAlloc() { p.allocMark = p.rs.allocated() }

func (p *passResult) endAlloc() { p.allocBytes += p.rs.allocated() - p.allocMark }

func (p *passResult) beginStep() {
	p.beginAlloc()
	p.stepStart = time.Now()
}

// endStep closes a step, recording its time, allocation and live heap.
func (p *passResult) endStep() time.Duration {
	dt := time.Since(p.stepStart)
	p.endAlloc()
	p.liveMB = append(p.liveMB, float64(p.rs.read().liveHeap)/1e6)
	p.stepMs = append(p.stepMs, ms(dt))
	return dt
}

// layerCounters adds one run's telemetry counters.
func (p *passResult) layerCounters(tel *telemetry.Telemetry, lanes int, simSec float64) {
	c := &p.counters
	ticks := float64(tel.Counter(telemetry.CTicks))
	c.ticks += ticks
	c.shards += float64(tel.Counter(telemetry.CWorkerShards))
	c.settled += float64(tel.Counter(telemetry.CSettledTicks))
	c.strided += float64(tel.Counter(telemetry.CStrideTicks))
	c.event += float64(tel.Counter(telemetry.CEventTicks))
	c.laneSkips += float64(tel.Counter(telemetry.CLaneSkips))
	c.laneTicks += ticks * float64(lanes)
	c.throttleDown += float64(tel.Counter(telemetry.CThrottleDown))
	c.throttleUp += float64(tel.Counter(telemetry.CThrottleUp))
	c.simSec += simSec
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// hashString fingerprints a rendering of a simulated result. fmt prints
// floats in their shortest round-trip form and maps in key order, so equal
// renderings mean bit-identical results.
func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// observationPrint fingerprints a chassis's observable state at a step
// boundary, bit for bit.
func observationPrint(o *sim.Observation) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(math.Float64bits(float64(o.Now)))
	for _, v := range []int{o.Arrived, o.Completed, o.QueueDepth, o.BusySockets, o.IdleSockets, o.DeadSockets, o.Requeues} {
		put(uint64(v))
	}
	for _, v := range []float64{o.MeanAmbientC, o.MaxAmbientC, o.HeadroomC, o.InletC, o.FlowFactor} {
		put(math.Float64bits(v))
	}
	return h.Sum64()
}
