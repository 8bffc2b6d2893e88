package main

import (
	"bytes"
	"fmt"
	"time"

	"powl/internal/core"
	"powl/internal/datagen"
	"powl/internal/ntriples"
	"powl/internal/obs"
	"powl/internal/rdf"
	"powl/internal/serve"
)

// workload is one benchmark input and configuration. Every workload runs
// the same two phases so that every end-to-end metric exists on every
// workload: phase A times the workload's materialization against the
// serial baseline, phase B serves the resulting knowledge base over
// loopback HTTP to an open-loop read/write mix.
type workload struct {
	name string
	// gen builds the input at scale (universities or fields); the program
	// only ever sees its N-Triples bytes.
	gen   func(scale int, seed int64) *datagen.Dataset
	scale int
	shape *shape
	// batch is the core.Materialize configuration; nil means the workload's
	// materialization is serve.Build (the serving path's load-time closure).
	batch *core.Config
	// serveShare is the fraction of the measured seconds spent in phase B.
	serveShare float64
	// readQPS and writeQPS are the open-loop arrival rates of phase B.
	readQPS, writeQPS float64
	// compactMinDead and compactRatio make the serving workload cross the
	// compaction threshold several times per run; the batch workloads never
	// compact, so their phase B measures reads and writes alone.
	compactMinDead int
	compactRatio   float64
}

var workloads = []*workload{
	{
		// Partition-bound: the cost model plus gpart dominate core.Materialize
		// while few triples cross partitions. Not in BENCHMARK.json: its
		// partitioning time swings several-fold from one input seed to the
		// next, so no bound holds across seeds (README.md). It stays runnable
		// for the partition layer's traced numbers.
		name: "lubm-graph-k4",
		gen:  lubm, scale: 50,
		shape: lubmPointShape,
		batch: &core.Config{Workers: 4, Strategy: core.DataPartitioning, Policy: core.GraphPolicy,
			Engine: core.ForwardEngine, Transport: core.MemTransport},
		serveShare: 0.5, readQPS: 100, writeQPS: 80, compactRatio: -1,
	},
	{
		// Exchange- and reasoning-bound: hash partitioning costs little, the
		// chain-heavy data needs several rounds and ships much of the closure
		// over TCP. Bypasses gpart entirely.
		name: "mdc-hash-k4-tcp",
		gen:  mdc, scale: 200,
		shape: mdcShape,
		batch: &core.Config{Workers: 4, Strategy: core.DataPartitioning, Policy: core.HashPolicy,
			Engine: core.ForwardEngine, Transport: core.TCPTransport},
		serveShare: 0.4, readQPS: 100, writeQPS: 80, compactRatio: -1,
	},
	{
		// Serving-bound: reads beside an insert/DRed-delete stream with
		// repeated compactions, on a provenance-enabled LUBM-20 KB. The read
		// rate is well under the knee -knee measures, so a host slowed by
		// other work does not push the reads into queueing (README.md).
		name: "lubm-serve-mixed",
		gen:  lubm, scale: 20,
		shape:      lubmShape,
		serveShare: 0.6, readQPS: 25, writeQPS: 40,
		compactMinDead: 1000, compactRatio: 0.01,
	},
}

// lubm and mdc fix the per-university department and per-field well
// counts, which the generators otherwise draw from the seed: the seed then
// varies which entities and links exist but not the input's size, so runs
// with different seeds measure the same amount of work.
func lubm(univs int, seed int64) *datagen.Dataset {
	return datagen.LUBM(datagen.LUBMConfig{Universities: univs, Seed: seed, DeptsPerUniv: 15})
}

func mdc(fields int, seed int64) *datagen.Dataset {
	return datagen.MDC(datagen.MDCConfig{Fields: fields, Seed: seed, WellsPerField: 5})
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// serveConfig is the server configuration of phase B; run is the traced
// run's observer (nil when untraced).
func (w *workload) serveConfig(run *obs.Run) serve.Config {
	c := serve.Config{CompactMinDead: w.compactMinDead, CompactRatio: w.compactRatio, Run: run}
	if run != nil {
		c.Reg = run.Registry
	}
	return c
}

// input generates the workload's N-Triples bytes for seed.
func (w *workload) input(seed int64) ([]byte, error) {
	ds := w.gen(w.scale, seed)
	var buf bytes.Buffer
	if err := ntriples.WriteGraph(&buf, ds.Dict, ds.Graph); err != nil {
		return nil, fmt.Errorf("serializing %s input: %w", w.name, err)
	}
	return buf.Bytes(), nil
}

// parse is the set-up every workload pays: N-Triples bytes into a fresh
// dictionary and graph.
func parseNT(name string, nt []byte) (*datagen.Dataset, time.Duration, error) {
	ds := &datagen.Dataset{Name: name}
	t0 := now()
	ds.Dict, ds.Graph = rdf.NewDict(), rdf.NewGraph()
	if _, err := ntriples.ReadGraph(bytes.NewReader(nt), ds.Dict, ds.Graph); err != nil {
		return nil, 0, fmt.Errorf("parsing %s input: %w", name, err)
	}
	return ds, now() - t0, nil
}
