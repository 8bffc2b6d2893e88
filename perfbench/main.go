// Command perfbench is the repository benchmark. One run generates a
// workload's input from a seed, drives the program through its public entry
// points (core.Materialize, core.MaterializeSerial, serve.Build, serve.New
// and Server.Handler), checks every output against an oracle and prints one
// JSON result line: the end-to-end metrics, or with -trace 1 the per-layer
// metrics of a separate traced run. See README.md.
//
//	python3 perfbench/run.py --workload mdc-hash-k4-tcp --seed 1 --seconds 45 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run accumulates one benchmark run: its operation tally, failures and
// metrics.
type run struct {
	w       *workload
	seed    int64
	seconds time.Duration
	trace   bool

	attempted, failed int
	metrics           map[string]float64
	info              map[string]any
	last              *traced // the last traced materialization
}

// op tallies one attempted operation and counts err as a failure.
func (r *run) op(err error) bool {
	r.attempted++
	if err != nil {
		r.fail(err)
		return false
	}
	return true
}

// fail counts a failure without a new attempt (a check on an operation
// already tallied, or a whole-run condition).
func (r *run) fail(err error) {
	r.failed++
	if r.failed <= 10 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.w.name, err)
	}
}

func (r *run) set(name string, v float64) { r.metrics[name] = v }

func main() {
	var (
		name    = flag.String("workload", "", "workload name (see README.md)")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 45, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
		knee    = flag.Bool("knee", false, "calibration: climb the read-rate ladder, -seconds per step")
	)
	flag.Parse()
	w, err := workloadByName(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q: %v)\n", *name, err)
		os.Exit(2)
	}
	r := &run{w: w, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		metrics: map[string]float64{}, info: map[string]any{}}
	if *knee {
		err = r.calibrate()
	} else {
		err = r.execute()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if !*knee {
		r.print()
	}
}

// calibrate runs set-up and then the knee ladder.
func (r *run) calibrate() error {
	nt, err := r.w.input(r.seed)
	if err != nil {
		return err
	}
	in, err := r.setup(nt)
	if err != nil {
		return err
	}
	return r.knee(in)
}

// execute runs set-up, then phase A (materialization) in two halves
// around phase B (serving).
func (r *run) execute() error {
	nt, err := r.w.input(r.seed)
	if err != nil {
		return err
	}
	in, err := r.setup(nt)
	if err != nil {
		return err
	}
	r.checkPins(in)
	a := &phaseA{}
	half := time.Duration(float64(r.seconds) * (1 - r.w.serveShare) / 2)
	r.materializeFor(in, a, half)
	if a.closure == nil {
		return fmt.Errorf("no materialization succeeded")
	}
	if err := r.servePhase(in, a.closure); err != nil {
		return err
	}
	r.materializeFor(in, a, half)
	return r.reportMaterialize(in, a)
}

func (r *run) print() {
	want := endToEnd
	if r.trace {
		want = perLayer
		r.set("bench.error_rate", float64(r.failed)/float64(max(r.attempted, 1)))
	}
	out := map[string]metric{}
	for _, m := range want {
		v, ok := r.metrics[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			r.fail(fmt.Errorf("metric %s not measured", m.name))
			v = 0
		}
		out[m.name] = metric{Value: v, Unit: m.unit}
	}
	for n := range r.metrics {
		if !hasMetric(endToEnd, n) && !hasMetric(perLayer, n) {
			panic("metric " + n + " has no declaration") // a bug in this package
		}
	}

	r.info["workload"] = r.w.name
	r.info["seed"] = r.seed
	r.info["trace"] = r.trace
	r.info["nproc"] = runtime.NumCPU()
	r.info["gomaxprocs"] = runtime.GOMAXPROCS(0)
	r.info["go"] = runtime.Version()
	r.info["commit"] = os.Getenv("PERFBENCH_COMMIT")
	r.info["source_sha256"] = os.Getenv("PERFBENCH_SOURCE_SHA256")
	r.info["attempted"] = r.attempted
	r.info["failed"] = r.failed
	infoLine, err := json.Marshal(map[string]any{"info": r.info})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding info: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(infoLine))

	res, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, out})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(res))
}
