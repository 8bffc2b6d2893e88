package main

import (
	"fmt"
	"runtime"
	"time"

	"powl/internal/core"
	"powl/internal/obs"
	"powl/internal/rdf"
)

// materialize runs the workload's materialization once: core.Materialize
// on a batch workload (with run as its observer when traced), serve.Build
// on the serving workload. It returns the closure and, for batch
// workloads, core's result.
func (r *run) materialize(in *input, run *obs.Run) (*rdf.Graph, *core.Result, error) {
	if r.w.batch == nil {
		return buildKB(in.ds.Dict, in.ds.Graph).Graph, nil, nil
	}
	cfg := *r.w.batch
	cfg.Seed = r.seed
	cfg.Obs = run
	res, err := core.Materialize(in.ds, cfg)
	if err != nil {
		return nil, nil, err
	}
	return res.Graph, res, nil
}

// phaseA is the observations of phase A, which runs in two halves: one
// before phase B and one after it. Each metric's samples then span the
// whole run rather than one end of it, so a neighbour on a shared host
// that is busy for part of the run weighs on every metric alike.
type phaseA struct {
	mat, serial, alloc, heap, traced samples
	// closure is the last closure, which phase B serves on batch workloads.
	closure *rdf.Graph
}

// materializeFor is one half of phase A: it alternates the workload's
// materialization with the serial baseline for d (at least once each),
// checking every closure against the oracle. A traced run also
// interleaves traced materializations.
func (r *run) materializeFor(in *input, a *phaseA, d time.Duration) {
	deadline := now() + d
	for i := 0; i == 0 || now() < deadline; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		t0 := now()
		g, _, err := r.materialize(in, nil)
		d := now() - t0
		runtime.ReadMemStats(&after)
		if !r.op(err) {
			continue
		}
		a.mat.addDur(d, time.Second)
		a.alloc.add(float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20))
		if err := checkClosure(g.Triples(), in.oracle); err != nil {
			r.fail(fmt.Errorf("materialize: %w", err))
		}
		a.closure = g
		runtime.GC()
		runtime.ReadMemStats(&after)
		a.heap.add(float64(after.HeapAlloc) / (1 << 20))
		runtime.KeepAlive(g)

		runtime.GC()
		t0 = now()
		_, err = core.MaterializeSerial(in.ds, core.ForwardEngine)
		d = now() - t0
		if r.op(err) {
			a.serial.addDur(d, time.Second)
		}

		if r.trace {
			runtime.GC()
			d, err := r.tracedMaterialize(in)
			if r.op(err) {
				a.traced.addDur(d, time.Second)
			}
		}
	}
}

// reportMaterialize sets phase A's metrics once both halves have run; a
// traced run ends with the stage mirrors.
func (r *run) reportMaterialize(in *input, a *phaseA) error {
	r.set("materialize_s", a.mat.median())
	r.set("serial_s", a.serial.median())
	r.set("alloc_mb", a.alloc.median())
	r.set("live_heap_mb", a.heap.median())
	r.set("bench.samples.materialize", float64(len(a.mat)))
	r.set("bench.samples.serial", float64(len(a.serial)))
	r.set("bench.k_speedup", a.serial.median()/a.mat.median())
	if r.trace {
		r.set("trace.overhead_pct", 100*(a.traced.median()/a.mat.median()-1))
		return r.mirrorStages(in)
	}
	return nil
}
