package main

import (
	"fmt"
	"hash/fnv"
	"strings"
	"time"

	"densim/internal/fleet"
	"densim/internal/scenario"
	"densim/internal/telemetry"
)

// fleetSpec is the fleet-2x2 hardware run as many short independent cells,
// each a fleet.New and Run on the next seed.
type fleetSpec struct {
	dispatcher, sched, class string
	load                     float64
	horizonS                 float64 // arrival horizon of one cell
	epochS                   float64 // closed-loop epoch period; 0 = open loop
}

// scenario resolves the fleet scenario: the shipped fleet-2x2 preset with
// this spec's dispatcher, scheduler, workload and loop mode.
func (f fleetSpec) scenario() (*scenario.Scenario, error) {
	sc, err := scenario.Preset("fleet-2x2")
	if err != nil {
		return nil, err
	}
	sc.Workload.Class = f.class
	sc.Workload.Load = f.load
	sc.Scheduler.Name = f.sched
	sc.Fleet.Dispatcher = f.dispatcher
	sc.Run.TickPeriodS = tickS
	sc.Run.DurationS = f.horizonS
	if f.epochS > 0 {
		sc.Fleet.Epoch = &scenario.FleetEpoch{PeriodS: f.epochS}
	}
	return sc, sc.Validate()
}

// cellSeed derives the seed of cell k from the run seed (splitmix64), so
// cells are independent and the run seed decides them all. Cell 0 is the
// set-up's warm-up cell; timed cells are 1..n.
func cellSeed(seed uint64, k int) uint64 {
	z := seed + uint64(k+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// setup resolves the scenario and runs the untimed warm-up cell.
func (f fleetSpec) setup(seed uint64, tr *tracer, parent int) (*scenario.Scenario, setupTiming, error) {
	var st setupTiming
	start := time.Now()
	id := tr.begin("setup", parent)
	defer tr.end(id)
	cid := tr.begin("scenario.config", id)
	sc, err := f.scenario()
	tr.end(cid)
	st.config = time.Since(start)
	if err != nil {
		return nil, st, err
	}
	wid := tr.begin("warmup.cell", id)
	t := time.Now()
	fl, err := fleet.New(sc, cellSeed(seed, 0))
	if err == nil {
		_, err = fl.Run()
	}
	st.warmup = time.Since(t)
	tr.end(wid)
	st.total = time.Since(start)
	return sc, st, err
}

// fleetPickStats merges the fleet telemetry's pick-latency histograms. The
// simulator times one pick in 16 into fixed buckets, so these percentiles
// are bucket bounds, coarser than the chassis workload's exact histogram.
type fleetPickStats struct {
	uppers  []float64 // bucket upper bounds, seconds
	counts  []int64   // per bucket; the last slot is the overflow bucket
	sampled int64     // timed picks
	sumSec  float64   // their total time
	picks   int64     // all picks
}

func (s *fleetPickStats) add(t *telemetry.Telemetry) {
	h := t.PickLatency
	if s.uppers == nil {
		s.uppers = h.Uppers()
		s.counts = make([]int64, len(s.uppers)+1)
	}
	for i := range s.counts {
		s.counts[i] += h.BucketCount(i)
	}
	s.sampled += h.Count()
	s.sumSec += h.Sum()
	s.picks += t.Counter(telemetry.CPicks)
}

// estimatedSec scales the sampled pick time up to every pick.
func (s *fleetPickStats) estimatedSec() float64 {
	if s.sampled == 0 {
		return 0
	}
	return s.sumSec * float64(s.picks) / float64(s.sampled)
}

// percentileUs returns the upper bound, in microseconds, of the bucket that
// holds the q-th percentile, under percentile's samples-beyond rule.
func (s *fleetPickStats) percentileUs(q int) (float64, error) {
	n := int(s.sampled)
	rank := (q*n + 99) / 100
	if n-rank < minBeyond {
		return 0, fmt.Errorf("percentile: p%d of %d sampled picks leaves %d beyond it, need %d", q, n, n-rank, minBeyond)
	}
	seen := 0
	for i, c := range s.counts {
		seen += int(c)
		if seen >= rank {
			if i == len(s.uppers) {
				return 0, fmt.Errorf("percentile: p%d falls in the overflow bucket", q)
			}
			return s.uppers[i] * 1e6, nil
		}
	}
	return 0, fmt.Errorf("percentile: bucket counts sum below %d", rank)
}

// fleetPass times one cell per step.
type fleetPass struct {
	*passResult
	sc       *scenario.Scenario
	seed     uint64
	warmup   float64 // each chassis's untimed warm-up, simulated s
	tr       *tracer
	root     int
	exp, epw float64
	finals   strings.Builder
}

// start sets the fleet up `setups` times; each set-up resolves the scenario
// and runs the warm-up cell.
func (f fleetSpec) start(seed uint64, n, setups int, tr *tracer) (stepper, error) {
	p := &fleetPass{passResult: newPass(), seed: seed, tr: tr, root: tr.begin("pass", -1)}
	for i := 0; i < setups; i++ {
		sc, st, err := f.setup(seed, tr, p.root)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		p.setups = append(p.setups, st)
		p.sc = sc
	}
	cfg, err := p.sc.Config(seed)
	if err != nil {
		return nil, err
	}
	p.warmup = float64(cfg.Warmup)
	return p, nil
}

func (p *fleetPass) result() *passResult { return p.passResult }

// step runs timed cell k: fleet.New and Run on the cell's seed.
func (p *fleetPass) step(k int) {
	var set *telemetry.Set
	if p.tr != nil {
		set = telemetry.NewSet()
	}
	id := p.tr.begin("cell", p.root)
	p.beginStep()
	nid := p.tr.begin("fleet.new", id)
	t := time.Now()
	fl, err := fleet.New(p.sc, cellSeed(p.seed, k))
	newDur := time.Since(t)
	p.tr.end(nid)
	var res *fleet.Result
	var runDur time.Duration
	if err == nil {
		fl.Telemetry = set
		rid := p.tr.begin("fleet.run", id)
		t = time.Now()
		res, err = fl.Run()
		runDur = time.Since(t)
		p.tr.end(rid)
	}
	dt := p.endStep()
	p.tr.end(id)
	p.newMs = append(p.newMs, ms(newDur))
	p.runMs = append(p.runMs, ms(runDur))
	if err != nil {
		p.fail(k, fmt.Sprintf("cell %d: %v", k, err))
		p.prints = append(p.prints, 0)
		return
	}
	p.exp += res.Aggregate.MeanExpansion
	p.epw += res.Aggregate.EnergyPerWork()
	p.epochs += int64(res.Epochs)
	p.prints = append(p.prints, fleetPrint(res))
	fmt.Fprintf(&p.finals, "%x,", p.prints[k-1])
	p.checkCell(k, res, set, p.warmup)
	if set != nil {
		before := p.fleetPicks.estimatedSec()
		for _, t := range set.Telemetries() {
			p.fleetPicks.add(t)
			p.layerCounters(t, len(t.LaneRiseMax()), 0)
		}
		pick := p.fleetPicks.estimatedSec() - before
		// Chassis pick in parallel, so their summed pick time
		// overlaps the cell's wall clock by the worker count.
		perWall := time.Duration(pick / float64(res.Workers) * 1e9)
		p.tr.aggregate("sched.pick", id, perWall, 0)
		p.pickMs = append(p.pickMs, ms(perWall))
		p.selfMs = append(p.selfMs, ms(dt-perWall))
	}
}

// finish averages the simulated outputs over the cells.
func (p *fleetPass) finish() {
	defer p.tr.end(p.root)
	n := float64(len(p.stepMs))
	p.counters.simSec = p.simSec
	p.expansion = p.exp / n
	p.energyPerWork = p.epw / n
	p.final = hashString(p.finals.String())
}

// checkCell audits one cell's job accounting and adds its simulated span.
func (p *passResult) checkCell(k int, res *fleet.Result, set *telemetry.Set, warmup float64) {
	dispatched := 0
	completed := 0
	for i := range res.Chassis {
		ch := &res.Chassis[i]
		dispatched += ch.Dispatched
		completed += ch.Result.Completed
		if ch.Dispatched != ch.Arrived {
			p.fail(k, fmt.Sprintf("cell %d chassis %s: dispatched %d != arrived %d", k, ch.Name(), ch.Dispatched, ch.Arrived))
		}
		span := warmup + float64(ch.Result.Span)
		p.simSec += span
		p.socketSec += float64(ch.Sockets) * span
		p.estErr += int64(ch.EstErr)
		if set == nil {
			continue
		}
		tel := set.For(ch.Name())
		arr, done := tel.Counter(telemetry.CArrivals), tel.Counter(telemetry.CCompletions)
		if arr != int64(ch.Arrived) || done+int64(ch.Unfinished) != arr || tel.Counter(telemetry.CDispatched) != int64(ch.Dispatched) {
			p.fail(k, fmt.Sprintf("cell %d chassis %s: telemetry arrived %d, completed %d + unfinished %d, dispatched %d vs %d",
				k, ch.Name(), arr, done, ch.Unfinished, tel.Counter(telemetry.CDispatched), ch.Dispatched))
		}
		p.observations += tel.Counter(telemetry.CObservations)
	}
	p.dispatched += int64(dispatched)
	if dispatched != len(res.Picks) {
		p.fail(k, fmt.Sprintf("cell %d: chassis received %d jobs, dispatcher routed %d", k, dispatched, len(res.Picks)))
	}
	if completed > dispatched {
		p.fail(k, fmt.Sprintf("cell %d: %d completions from %d jobs", k, completed, dispatched))
	}
}

// fleetPrint fingerprints a cell's simulated outcome: the fleet aggregate,
// every chassis's result and the dispatcher's routing sequence.
func fleetPrint(res *fleet.Result) uint64 {
	h := fnv.New64a()
	for _, c := range res.Picks {
		h.Write([]byte{byte(c), byte(c >> 8)})
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%+v|%d|%d|%x|", res.Aggregate, res.Epochs, len(res.Picks), h.Sum64())
	for i := range res.Chassis {
		ch := &res.Chassis[i]
		fmt.Fprintf(&b, "%d,%d,%d,%d,%+v|", ch.Dispatched, ch.Arrived, ch.Unfinished, ch.EstErr, ch.Result)
	}
	return hashString(b.String())
}
