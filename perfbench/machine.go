package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

// machine records where a run was measured. It is informational: nothing is
// gated on it, but it gives runs on different runners a common yardstick.
type machine struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	CPUModel   string `json:"cpu_model"`
	// CalibrationMs is the median time of a fixed single-threaded kernel
	// (calibrationKernel); a runner twice as fast reads about half.
	CalibrationMs float64 `json:"calibration_ms"`

	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Steps    int    `json:"steps_per_pass"`
}

func machineRecord() machine {
	return machine{
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
		OS:            runtime.GOOS,
		Arch:          runtime.GOARCH,
		CPUModel:      cpuModel(),
		CalibrationMs: calibrate(),
	}
}

// cpuModel reads the processor name the kernel reports, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// calibrationSink keeps the kernel's result live.
var calibrationSink float64

// calibrationKernel is a fixed mix of the arithmetic the simulator spends
// its time in: an exponential (the leakage model) and a dependent chain of
// multiply-adds. Its work never changes, so its time tracks the runner.
func calibrationKernel() float64 {
	x := 0.0
	for i := 0; i < 1<<20; i++ {
		x = x*0.999999 + math.Exp(-float64(i&1023)*1e-3)
	}
	return x
}

// calibrate times calibrationKernel five times and returns the median, ms.
func calibrate() float64 {
	ts := make([]float64, 5)
	for i := range ts {
		t := time.Now()
		calibrationSink += calibrationKernel()
		ts[i] = ms(time.Since(t))
	}
	return median(ts)
}
