// Command perfbench is densim's benchmark. It runs one named workload for a
// seed, times it in many equal steps, checks the simulated outputs, and
// prints every metric by name and unit; the last line of standard output is
// one JSON object:
//
//	{"correct": true, "attempted": 600, "failed": 0, "metrics": {"setup_s": {"value": 0.31, "unit": "s"}, ...}}
//
// Run it through run.sh from the repository root (see README.md):
//
//	bash perfbench/run.sh --workload dd360-cp70 --seed 1 --seconds 25 --trace 0
//
// It drives the simulator only through public calls with the defaults users
// get: the auto engine, the default fleet worker count and the default GC.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// startFunc sets a workload up for n timed steps: `setups` times, keeping
// the last. A non-nil tracer makes it the traced pass.
type startFunc func(seed uint64, n, setups int, tr *tracer) (stepper, error)

// workload is one benchmark input: what runs, how many host ms one timed
// step nominally takes in the nproc pass plus one in the 1-CPU pass on the
// reference machine (a 2-vCPU Xeon), which sizes the step count to
// --seconds, and how many consecutive steps one pass runs before the next
// pass takes its turn.
type workload struct {
	name, why  string
	fleet      bool
	stepPairMs float64
	chunk      int
	start      startFunc
}

// The workloads' simulator inputs.
var (
	dd360CP70   = chassisSpec{preset: "double-density-360", class: "Computation", load: 0.7, sched: "CP", warmupTicks: 1000, windowTicks: 100}
	fleetOpen   = fleetSpec{dispatcher: "least-loaded", sched: "CF", class: "GP", load: 0.5, horizonS: 0.4}
	fleetClosed = fleetSpec{dispatcher: "least-loaded", sched: "CF", class: "GP", load: 0.5, horizonS: 0.75, epochS: 0.25}
)

var workloads = []workload{
	{
		name:       "dd360-cp70",
		why:        "one 360-socket DoC-12 chassis under CP at 70% Computation load, the highest unsaturated load; CP Pick and the auto tick pool dominate",
		stepPairMs: 70,
		chunk:      10,
		start:      dd360CP70.start,
	},
	{
		name:       "fleet-open",
		why:        "fleet-2x2 behind least-loaded open-loop dispatch, CF in each chassis at GP 50%: stream, dispatch and parallel chassis runs",
		fleet:      true,
		stepPairMs: 240,
		chunk:      2,
		start:      fleetOpen.start,
	},
	{
		name:       "fleet-closed",
		why:        "the same fleet closed-loop in 0.75 s cells of three 0.25 s epochs: the epoch executor's observe/dispatch fences instead of the materialized stream",
		fleet:      true,
		stepPairMs: 500,
		chunk:      2,
		start:      fleetClosed.start,
	},
}

// minSteps is the fewest timed steps a pass takes: enough for a p90 with
// ten samples beyond it.
const minSteps = 100

// nprocSetups is how many times an nproc pass sets up; setup_s is their
// median. A 1-CPU pass sets up once.
const nprocSetups = 5

// stepCount sizes the passes so the timed steps of the nproc and the 1-CPU
// pass together nominally take `seconds`.
func stepCount(w workload, seconds int) int {
	n := int(math.Round(float64(seconds) * 1000 / w.stepPairMs))
	if n < minSteps {
		n = minSteps
	}
	return n
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings of one run.
type options struct {
	w       workload
	seed    uint64
	seconds int
	trace   bool
	pass    string
	spans   string
}

func parseArgs(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: dd360-cp70, fleet-open or fleet-closed")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 25, "nominal host seconds of the timed steps of the nproc and 1-CPU passes together")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: add a traced pass and print per-layer metrics")
	pass := fs.String("pass", "all", "all, nproc (GOMAXPROCS=nproc only) or 1cpu (GOMAXPROCS=1 only); a single pass skips the cross-pass check")
	spans := fs.String("spans", filepath.Join(".bench_build", "perfbench-spans"), "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if fs.NArg() > 0 {
		return options{}, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	w, err := findWorkload(*name)
	if err != nil {
		return options{}, err
	}
	if *seconds < 1 {
		return options{}, fmt.Errorf("--seconds %d: need at least 1", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return options{}, fmt.Errorf("--trace %d: want 0 or 1", *trace)
	}
	switch *pass {
	case "all", "nproc", "1cpu":
	default:
		return options{}, fmt.Errorf("--pass %q: want all, nproc or 1cpu", *pass)
	}
	if *trace == 1 && *pass != "all" {
		return options{}, errors.New("--trace 1 needs --pass all: per-layer metrics compare the passes")
	}
	return options{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, pass: *pass, spans: *spans}, nil
}

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	opt, err := parseArgs(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	rep, err := measure(opt, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// measure runs the passes opt asks for and assembles the report.
func measure(opt options, stdout, stderr io.Writer) (*report, error) {
	w := opt.w
	n := stepCount(w, opt.seconds)
	nproc := runtime.NumCPU()
	rec := machineRecord()
	rec.Workload, rec.Seed, rec.Steps = w.name, opt.seed, n
	recLine, err := json.Marshal(map[string]any{"machine": rec})
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(stdout, string(recLine))
	// The first collection starts the runtime's background mark workers;
	// running it now keeps their allocation out of the measured run.
	runtime.GC()

	// Each requested pass is set up at its own GOMAXPROCS, then the passes
	// take turns, chunk steps at a time, so all of them sample the same
	// stretch of the machine's varying speed.
	var lanes []lane
	var full, one, traced *passResult
	var tr *tracer
	add := func(procs, setups int, t *tracer) (*passResult, error) {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		st, err := w.start(opt.seed, n, setups, t)
		if err != nil {
			return nil, err
		}
		lanes = append(lanes, lane{procs: procs, st: st})
		return st.result(), nil
	}
	if opt.pass != "1cpu" {
		if full, err = add(nproc, nprocSetups, nil); err != nil {
			return nil, fmt.Errorf("%s nproc pass: %w", w.name, err)
		}
	}
	if opt.pass != "nproc" {
		if one, err = add(1, 1, nil); err != nil {
			return nil, fmt.Errorf("%s 1-CPU pass: %w", w.name, err)
		}
	}
	if opt.trace {
		tr = newTracer()
		if traced, err = add(nproc, nprocSetups, tr); err != nil {
			return nil, fmt.Errorf("%s traced pass: %w", w.name, err)
		}
	}
	runLanes(lanes, n, w.chunk)
	if tr != nil {
		path := filepath.Join(opt.spans, fmt.Sprintf("%s-seed%d.json", w.name, opt.seed))
		if err := tr.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(stderr, "perfbench: %d spans written to %s\n", len(tr.spans), path)
	}
	passes := make([]*passResult, len(lanes))
	for i, l := range lanes {
		passes[i] = l.st.result()
	}
	rep := &report{Metrics: map[string]metric{}}
	var problems []string
	rep.Attempted, rep.Failed, problems = tally(passes)
	rep.Correct = len(problems) == 0
	for _, msg := range problems {
		fmt.Fprintln(stderr, "perfbench: check failed:", msg)
	}

	if opt.trace {
		err = perLayerMetrics(rep.Metrics, w, full, one, traced)
	} else {
		err = endToEndMetrics(rep.Metrics, full, one)
	}
	if err != nil {
		return nil, err
	}
	summarize(stderr, w, passes, rep)
	return rep, nil
}

// lane is one pass and the GOMAXPROCS it runs at.
type lane struct {
	procs int
	st    stepper
}

// runLanes runs steps 1..n of every lane, the lanes taking turns chunk
// steps at a time, then finishes each lane at its own GOMAXPROCS.
func runLanes(lanes []lane, n, chunk int) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	runtime.GC()
	for k := 1; k <= n; k += chunk {
		for _, l := range lanes {
			runtime.GOMAXPROCS(l.procs)
			p := l.st.result()
			p.beginSegment()
			for j := k; j < k+chunk && j <= n; j++ {
				l.st.step(j)
			}
			p.endSegment()
		}
	}
	for _, l := range lanes {
		runtime.GOMAXPROCS(l.procs)
		l.st.finish()
	}
}

// comparePasses checks that pass b simulated exactly what pass a did: the
// same state at every step boundary and the same final result. Each
// mismatch is a failed operation of b: the step, or b's finish.
func comparePasses(a, b *passResult) {
	if len(a.prints) != len(b.prints) {
		b.fail(b.finishOp(), fmt.Sprintf("ran %d steps, pass 0 ran %d", len(b.prints), len(a.prints)))
		return
	}
	for k := range a.prints {
		if a.prints[k] != b.prints[k] {
			b.fail(k+1, fmt.Sprintf("step %d: simulated state differs from pass 0", k+1))
		}
	}
	if a.final != b.final || math.Float64bits(a.expansion) != math.Float64bits(b.expansion) ||
		math.Float64bits(a.energyPerWork) != math.Float64bits(b.energyPerWork) {
		b.fail(b.finishOp(), "final result differs from pass 0")
	}
}

// tally compares every pass with the first and counts operations: each
// pass attempts its steps and its finish, and each of them fails at most
// once, however many checks it fails.
func tally(passes []*passResult) (attempted, failed int, problems []string) {
	for i, p := range passes {
		if i > 0 {
			comparePasses(passes[0], p)
		}
		attempted += p.finishOp()
		failed += len(p.failed)
		keys := make([]int, 0, len(p.failed))
		for k := range p.failed {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		for _, k := range keys {
			problems = append(problems, fmt.Sprintf("pass %d: %s", i, p.failed[k]))
		}
	}
	return attempted, failed, problems
}

// throughput is simulated socket-seconds per host second over the timed
// steps, with the steps' host time taken at their interquartile-mean pace:
// on a shared runner, the few steps other tenants slow down would otherwise
// set the figure.
func throughput(p *passResult) float64 {
	return p.socketSec / (float64(len(p.stepMs)) * interquartileMean(p.stepMs) / 1000)
}

func setupMedian(p *passResult, phase func(setupTiming) float64) float64 {
	xs := make([]float64, len(p.setups))
	for i, st := range p.setups {
		xs[i] = phase(st)
	}
	return median(xs)
}

func endToEndMetrics(m map[string]metric, full, one *passResult) error {
	unit := map[string]string{}
	for _, d := range endToEnd {
		unit[d.Name] = d.Unit
	}
	set := func(name string, v float64) { m[name] = metric{Value: v, Unit: unit[name]} }
	if one != nil {
		set("socket_simsec_per_s_1cpu", throughput(one))
		set("sim_expansion", one.expansion)
		set("sim_energy_per_work", one.energyPerWork)
	}
	if full == nil {
		return nil
	}
	p50, err := percentile(full.stepMs, 50)
	if err != nil {
		return err
	}
	set("setup_s", setupMedian(full, func(st setupTiming) float64 { return st.total.Seconds() }))
	set("socket_simsec_per_s", throughput(full))
	set("step_ms_p50", p50)
	set("alloc_mb", float64(full.allocBytes)/1e6)
	peak, err := percentile(full.liveMB, 90)
	if err != nil {
		return err
	}
	set("peak_live_heap_mb", peak)
	set("sim_expansion", full.expansion)
	set("sim_energy_per_work", full.energyPerWork)
	return nil
}

// perLayerMetrics reads the traced pass t, with the untraced nproc pass
// full and the 1-CPU pass one as references for speed-up and overhead.
func perLayerMetrics(m map[string]metric, w workload, full, one, t *passResult) error {
	unit := map[string]string{}
	for _, d := range perLayer {
		unit[d.Name] = d.Unit
		m[d.Name] = metric{Value: 0, Unit: d.Unit}
	}
	set := func(name string, v float64) { m[name] = metric{Value: v, Unit: unit[name]} }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	n := float64(len(t.stepMs))

	var p50, p99 float64
	var err error
	if w.fleet {
		if p50, err = t.fleetPicks.percentileUs(50); err == nil {
			p99, err = t.fleetPicks.percentileUs(99)
		}
		set("sched.picks_per_simsec", ratio(float64(t.fleetPicks.picks), t.simSec))
	} else {
		if p50, err = t.pickHist.percentileNs(50); err == nil {
			p99, err = t.pickHist.percentileNs(99)
		}
		p50, p99 = p50/1000, p99/1000
		set("sched.picks_per_simsec", ratio(float64(t.picks), t.simSec))
	}
	if err != nil {
		return err
	}
	set("sched.pick_us_p50", p50)
	set("sched.pick_us_p99", p99)
	set("sched.pick_share", ratio(sum(t.pickMs), sum(t.stepMs)))
	p90, err := percentile(full.stepMs, 90)
	if err != nil {
		return err
	}
	set("sim.step_ms_p90", p90)
	self, err := percentile(t.selfMs, 50)
	if err != nil {
		return err
	}
	set("sim.step_self_ms_p50", self)

	c := t.counters
	set("sim.worker_shards_per_tick", ratio(c.shards, c.ticks))
	set("sim.settled_tick_frac", ratio(c.settled, c.ticks))
	set("sim.strided_tick_frac", ratio(c.strided, c.ticks))
	set("sim.event_tick_frac", ratio(c.event, c.ticks))
	set("sim.lane_skip_frac", ratio(c.laneSkips, c.laneTicks))
	set("chipmodel.throttle_down_per_simsec", ratio(c.throttleDown, c.simSec))
	set("chipmodel.throttle_up_per_simsec", ratio(c.throttleUp, c.simSec))

	set("scenario.config_ms", setupMedian(t, func(st setupTiming) float64 { return ms(st.config) }))
	set("sim.new_ms", setupMedian(t, func(st setupTiming) float64 { return ms(st.newSim) }))
	set("sim.warmup_s", setupMedian(t, func(st setupTiming) float64 { return st.warmup.Seconds() }))
	set("metrics.finish_ms", ms(t.finishTime))

	if w.fleet {
		set("fleet.new_ms", median(t.newMs))
		run50, err := percentile(t.runMs, 50)
		if err != nil {
			return err
		}
		set("fleet.run_ms_p50", run50)
		set("fleet.alloc_mb_per_cell", float64(full.allocBytes)/1e6/n)
		full50, err := percentile(full.stepMs, 50)
		if err != nil {
			return err
		}
		one50, err := percentile(one.stepMs, 50)
		if err != nil {
			return err
		}
		set("fleet.parallel_speedup", one50/full50)
		set("fleet.dispatched_per_cell", float64(t.dispatched)/n)
		set("fleet.epochs_per_cell", float64(t.epochs)/n)
		set("fleet.observations_per_cell", float64(t.observations)/n)
		set("fleet.dispatch_est_err_per_epoch", ratio(float64(t.estErr), float64(t.epochs)))
	}

	set("runtime.gc_cpu_frac", ratio(t.gcCPU, t.totalCPU))
	set("runtime.gc_cycles", float64(t.gcCycles))
	set("telemetry.trace_overhead_frac", 1-throughput(t)/throughput(full))
	return nil
}

// summarize prints a human-readable account of the run to stderr.
func summarize(stderr io.Writer, w workload, passes []*passResult, rep *report) {
	for i, p := range passes {
		fmt.Fprintf(stderr, "perfbench: %s pass %d: %d steps, %d set-ups\n", w.name, i, len(p.stepMs), len(p.setups))
	}
	names := make([]string, 0, len(rep.Metrics))
	for k := range rep.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(stderr, "  %-36s %14.6g %s\n", k, rep.Metrics[k].Value, rep.Metrics[k].Unit)
	}
	fmt.Fprintf(stderr, "perfbench: correct=%v attempted=%d failed=%d\n", rep.Correct, rep.Attempted, rep.Failed)
}
