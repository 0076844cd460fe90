package main

import (
	"fmt"
	"math"
	"time"

	"densim/internal/scenario"
	"densim/internal/sim"
	"densim/internal/telemetry"
	"densim/internal/units"
)

// tickS is the power-manager tick every workload runs at (Table III). Step
// boundaries are whole tick counts, so steps tile the timed window exactly.
const tickS = 0.001

// chassisSpec is one chassis under one scheduler, stepped in equal
// simulated windows after an untimed warm-up.
type chassisSpec struct {
	preset, class, sched string
	load                 float64
	warmupTicks          int // simulated during set-up, untimed
	windowTicks          int // one timed step
}

// stepBoundaries returns the n+1 simulated instants that delimit n timed
// steps: the end of warm-up, then one boundary per window. Boundaries are
// computed from whole tick counts, so every step spans exactly windowTicks
// ticks and the last boundary is the run's arrival horizon.
func stepBoundaries(warmupTicks, windowTicks, n int) []float64 {
	b := make([]float64, n+1)
	for k := range b {
		b[k] = float64(warmupTicks+k*windowTicks) * tickS
	}
	return b
}

// scenario builds the run specification for n timed steps.
func (c chassisSpec) scenario(n int) (*scenario.Scenario, error) {
	sc, err := scenario.Preset(c.preset)
	if err != nil {
		return nil, err
	}
	b := stepBoundaries(c.warmupTicks, c.windowTicks, n)
	sc.Workload.Class = c.class
	sc.Workload.Load = c.load
	sc.Scheduler.Name = c.sched
	sc.Run.TickPeriodS = tickS
	sc.Run.WarmupS = b[0]
	sc.Run.DurationS = b[n]
	return sc, sc.Validate()
}

// runTo advances s to boundary t. The target sits half a tick early so the
// simulator stops on the tick boundary nearest t whatever rounding its
// accumulated clock carries.
func runTo(s *sim.Simulator, t float64) {
	s.RunTo(units.Seconds(t - tickS/2))
}

// chassisRun is one set-up chassis ready for its timed steps.
type chassisRun struct {
	s   *sim.Simulator
	pc  *pickCounter
	tel *telemetry.Telemetry
}

// setup performs the set-up a user pays before the first timed step:
// resolve the scenario into a sim.Config, build the simulator, and simulate
// the warm-up. It returns the phase times.
func (c chassisSpec) setup(seed uint64, n int, tr *tracer, parent int) (*chassisRun, setupTiming, error) {
	var st setupTiming
	start := time.Now()
	id := tr.begin("setup", parent)
	defer tr.end(id)

	cid := tr.begin("scenario.config", id)
	sc, err := c.scenario(n)
	if err != nil {
		return nil, st, err
	}
	cfg, err := sc.Config(seed)
	if err != nil {
		return nil, st, err
	}
	pc := &pickCounter{inner: cfg.Scheduler}
	cfg.Scheduler = pc
	var tel *telemetry.Telemetry
	if tr != nil {
		pc.hist = newDurationHist()
		tel = telemetry.New(c.sched)
		cfg.Telemetry = tel
	}
	tr.end(cid)
	st.config = time.Since(start)

	nid := tr.begin("sim.new", id)
	t := time.Now()
	s, err := sim.New(cfg)
	if err != nil {
		return nil, st, err
	}
	st.newSim = time.Since(t)
	tr.end(nid)

	wid := tr.begin("sim.warmup", id)
	t = time.Now()
	runTo(s, float64(cfg.Warmup))
	st.warmup = time.Since(t)
	tr.end(wid)
	st.total = time.Since(start)
	return &chassisRun{s: s, pc: pc, tel: tel}, st, nil
}

// chassisPass steps one set-up chassis through its timed windows.
type chassisPass struct {
	*passResult
	chassisRun
	tr       *tracer
	root     int
	b        []float64
	obs      sim.Observation
	simStart float64
	picks0   int64
}

// start sets the chassis up `setups` times and keeps the last for n timed
// steps. Earlier set-ups build a one-step run with the same set-up work and
// finish it untimed, which stops its workers. The chassis allocates next to
// nothing per step, so the pass's allocation count covers the kept set-up
// and the finish as well as the steps.
func (c chassisSpec) start(seed uint64, n, setups int, tr *tracer) (stepper, error) {
	p := &chassisPass{passResult: newPass(), tr: tr, root: tr.begin("pass", -1)}
	for i := 0; i < setups; i++ {
		last := i == setups-1
		steps := 1
		if last {
			steps = n
			p.beginAlloc()
		}
		r, st, err := c.setup(seed, steps, tr, p.root)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		p.setups = append(p.setups, st)
		if !last {
			r.s.Finish()
			continue
		}
		p.endAlloc()
		p.chassisRun = *r
	}
	p.b = stepBoundaries(c.warmupTicks, c.windowTicks, n)
	p.s.Observe(&p.obs)
	p.simStart = float64(p.obs.Now)
	p.picks0 = p.pc.picks
	return p, nil
}

func (p *chassisPass) result() *passResult { return p.passResult }

// step runs timed step k: the simulated window (b[k-1], b[k]].
func (p *chassisPass) step(k int) {
	pickBefore, picksBefore := p.pc.total, p.pc.picks
	id := p.tr.begin("step", p.root)
	p.beginStep()
	runTo(p.s, p.b[k])
	dt := p.endStep()
	p.tr.end(id)
	pick := p.pc.total - pickBefore
	p.tr.aggregate("sched.pick", id, pick, p.pc.picks-picksBefore)
	p.pickMs = append(p.pickMs, ms(pick))
	p.selfMs = append(p.selfMs, ms(dt-pick))

	p.s.Observe(&p.obs)
	if math.Abs(float64(p.obs.Now)-p.b[k]) > tickS/2 {
		p.fail(k, fmt.Sprintf("step %d ended at %vs, want %vs", k, p.obs.Now, p.b[k]))
	}
	p.prints = append(p.prints, observationPrint(&p.obs))
}

// finish completes the run, records its result and audits job accounting:
// every arrival was placed by the scheduler or is still queued, and every
// placed job finished or is still running.
func (p *chassisPass) finish() {
	defer p.tr.end(p.root)
	s, pc, op := p.s, p.pc, p.finishOp()
	p.simSec = float64(p.obs.Now) - p.simStart
	p.socketSec = float64(s.Server().NumSockets()) * p.simSec
	p.picks = pc.picks - p.picks0

	fid := p.tr.begin("metrics.finish", p.root)
	p.beginAlloc()
	t := time.Now()
	res := s.Finish()
	p.finishTime = time.Since(t)
	p.endAlloc()
	p.tr.end(fid)
	p.expansion = res.MeanExpansion
	p.energyPerWork = res.EnergyPerWork()
	p.final = hashString(fmt.Sprintf("%+v|%d|%d", res, s.Arrived(), s.Unfinished()))

	var obs sim.Observation
	s.Observe(&obs)
	if got := obs.QueueDepth + obs.BusySockets; got != s.Unfinished() {
		p.fail(op, fmt.Sprintf("unfinished %d != queued %d + running %d", s.Unfinished(), obs.QueueDepth, obs.BusySockets))
	}
	if int64(s.Arrived()) != pc.picks+int64(obs.QueueDepth) {
		p.fail(op, fmt.Sprintf("arrived %d != placed %d + queued %d", s.Arrived(), pc.picks, obs.QueueDepth))
	}
	if res.Completed > obs.Completed {
		p.fail(op, fmt.Sprintf("result counts %d completions, run saw %d", res.Completed, obs.Completed))
	}
	if tel := p.tel; tel != nil {
		arr, done := tel.Counter(telemetry.CArrivals), tel.Counter(telemetry.CCompletions)
		if arr != int64(s.Arrived()) || done+int64(s.Unfinished()) != arr {
			p.fail(op, fmt.Sprintf("telemetry: arrived %d, completed %d + unfinished %d", arr, done, s.Unfinished()))
		}
		p.layerCounters(tel, s.Airflow().NumChannels(), float64(obs.Now))
		p.pickHist = pc.hist
	}
}
