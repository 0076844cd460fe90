package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"runtime"
	"testing"
	"time"
)

// runPass sets up and runs a single pass at the current GOMAXPROCS.
func runPass(start startFunc, seed uint64, n, setups int, tr *tracer) (*passResult, error) {
	st, err := start(seed, n, setups, tr)
	if err != nil {
		return nil, err
	}
	runLanes([]lane{{procs: runtime.GOMAXPROCS(0), st: st}}, n, n)
	return st.result(), nil
}

func TestPercentileRefusesThinTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending, so sorting matters
		}
		return xs
	}
	cases := []struct {
		q, n int
		ok   bool
		want float64
	}{
		{q: 90, n: 99, ok: false},
		{q: 90, n: 100, ok: true, want: 90},
		{q: 50, n: 19, ok: false},
		{q: 50, n: 20, ok: true, want: 10},
		{q: 99, n: 999, ok: false},
		{q: 99, n: 1000, ok: true, want: 990},
	}
	for _, c := range cases {
		got, err := percentile(seq(c.n), c.q)
		if (err == nil) != c.ok {
			t.Errorf("p%d of %d samples: err=%v, want ok=%v", c.q, c.n, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("p%d of %d samples = %v, want %v", c.q, c.n, got, c.want)
		}
	}
	if _, err := percentile(seq(200), 100); err == nil {
		t.Error("p100 accepted")
	}
}

func TestDurationHistPercentiles(t *testing.T) {
	h := newDurationHist()
	for i := 1; i <= 1000; i++ {
		h.add(time.Duration(i) * time.Microsecond)
	}
	for _, q := range []int{50, 90, 99} {
		got, err := h.percentileNs(q)
		if err != nil {
			t.Fatalf("p%d: %v", q, err)
		}
		want := float64(q*10) * 1000
		if math.Abs(got-want)/want > 1.0/histSub {
			t.Errorf("p%d = %v ns, want %v within 1/%d", q, got, want, histSub)
		}
	}
	thin := newDurationHist()
	for i := 0; i < 999; i++ {
		thin.add(time.Microsecond)
	}
	if _, err := thin.percentileNs(99); err == nil {
		t.Error("p99 of 999 samples accepted")
	}
}

func TestInterquartileMean(t *testing.T) {
	// The slowest and fastest quarter do not count: one interference spike
	// leaves the figure alone.
	xs := []float64{10, 10, 10, 10, 10, 11, 11, 11, 500, 1}
	if got, want := interquartileMean(xs), (10.0*4+11*2)/6; got != want {
		t.Errorf("interquartileMean = %v, want %v", got, want)
	}
}

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !metricName.MatchString(name) {
			t.Errorf("%s name %q does not match %s", kind, name, metricName)
		}
		if seen[name] {
			t.Errorf("%s name %q used twice", kind, name)
		}
		seen[name] = true
	}
	for _, d := range endToEnd {
		check("end-to-end metric", d.Name)
	}
	for _, d := range perLayer {
		check("per-layer metric", d.Name)
	}
	for _, w := range workloads {
		check("workload", w.name)
	}
}

// TestCatalogMatchesBenchmark keeps BENCHMARK.json and the metrics this
// program prints in step.
func TestCatalogMatchesBenchmark(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program %q %q", i, b.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

func TestStepsTileWindow(t *testing.T) {
	spec := dd360CP70
	const n = 300
	b := stepBoundaries(spec.warmupTicks, spec.windowTicks, n)
	if len(b) != n+1 {
		t.Fatalf("%d boundaries for %d steps", len(b), n)
	}
	for k, at := range b {
		if ticks := math.Round(at / tickS); ticks != float64(spec.warmupTicks+k*spec.windowTicks) {
			t.Errorf("boundary %d at %v s is tick %v, want %d", k, at, ticks, spec.warmupTicks+k*spec.windowTicks)
		}
	}
	sc, err := spec.scenario(n)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Run.WarmupS != b[0] || sc.Run.DurationS != b[n] {
		t.Errorf("timed window [%v, %v], steps cover [%v, %v]", sc.Run.WarmupS, sc.Run.DurationS, b[0], b[n])
	}

	// The simulator stops exactly on every boundary.
	p, err := runPass(spec.start, 1, 3, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.failed) > 0 {
		t.Errorf("steps failed: %v", p.failed)
	}
	if want := 3 * float64(spec.windowTicks) * tickS; math.Abs(p.simSec-want) > tickS/2 {
		t.Errorf("3 steps covered %v simulated s, want %v", p.simSec, want)
	}
}

func TestSeedChangesInputs(t *testing.T) {
	// Shortened copies of the real workloads keep the test quick.
	chassis := dd360CP70
	chassis.warmupTicks = 200
	fl := fleetClosed
	fl.horizonS = 0.3
	for _, tc := range []struct {
		name  string
		start startFunc
	}{
		{"chassis", chassis.start},
		{"fleet", fl.start},
	} {
		a, err := runPass(tc.start, 1, 2, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		again, err := runPass(tc.start, 1, 2, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := runPass(tc.start, 2, 2, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if a.final != again.final {
			t.Errorf("%s: seed 1 gave two different results", tc.name)
		}
		if a.final == b.final || a.prints[0] == b.prints[0] {
			t.Errorf("%s: seeds 1 and 2 gave the same run", tc.name)
		}
	}
	if cellSeed(1, 1) == cellSeed(2, 1) || cellSeed(1, 1) == cellSeed(1, 2) {
		t.Error("cell seeds collide across run seeds or cells")
	}
}

// TestTracedPassMatchesUntraced checks that the pick wrapper and telemetry
// of the traced pass leave the simulation bit-identical.
func TestTracedPassMatchesUntraced(t *testing.T) {
	spec := dd360CP70
	spec.warmupTicks = 200
	plain, err := runPass(spec.start, 3, 3, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	traced, err := runPass(spec.start, 3, 3, 1, tr)
	if err != nil {
		t.Fatal(err)
	}
	if _, failed, problems := tally([]*passResult{plain, traced}); failed > 0 {
		t.Errorf("traced pass differs: %v", problems)
	}
	if traced.pickHist == nil || traced.pickHist.n == 0 {
		t.Error("traced pass timed no picks")
	}
	steps := 0
	for _, s := range tr.spans {
		if s.Name == "step" {
			steps++
		}
	}
	if steps != 3 {
		t.Errorf("%d step spans, want 3", steps)
	}
}

// TestTallyCountsPerPass checks that failures are counted in the units of
// attempted: per pass and operation, with the finish an operation of its
// own.
func TestTallyCountsPerPass(t *testing.T) {
	pass := func(prints ...uint64) *passResult {
		return &passResult{stepMs: make([]float64, len(prints)), prints: prints}
	}
	a, b, c := pass(1, 2, 3), pass(1, 9, 3), pass(1, 9, 3)
	a.fail(2, "cell 2 errored")
	b.fail(2, "cell 2 errored")
	c.fail(2, "cell 2 errored")
	a.fail(a.finishOp(), "accounting does not close")
	c.final = 7
	attempted, failed, problems := tally([]*passResult{a, b, c})
	if attempted != 12 {
		t.Errorf("attempted = %d, want 3 passes x (3 steps + finish) = 12", attempted)
	}
	// Step 2 of each pass (its own error and the mismatch count once),
	// pass 0's finish and pass 2's differing final result.
	if failed != 5 {
		t.Errorf("failed = %d, want 5; problems: %q", failed, problems)
	}
	if len(problems) != failed {
		t.Errorf("%d problems reported for %d failed operations", len(problems), failed)
	}
}

func TestStepCount(t *testing.T) {
	for _, w := range workloads {
		if n := stepCount(w, 1); n < minSteps {
			t.Errorf("%s: %d steps at 1 s, want at least %d", w.name, n, minSteps)
		}
	}
}

func TestParseArgsRejectsBadInput(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "nope"},
		{"--workload", "dd360-cp70", "--trace", "2"},
		{"--workload", "dd360-cp70", "--seconds", "0"},
		{"--workload", "dd360-cp70", "--pass", "4cpu"},
		{"--workload", "dd360-cp70", "--pass", "nproc", "--trace", "1"},
	} {
		if _, err := parseArgs(args, io.Discard); err == nil {
			t.Errorf("parseArgs(%q) accepted", args)
		}
	}
}
