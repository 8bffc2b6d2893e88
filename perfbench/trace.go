package main

import (
	"context"
	"fmt"
	"time"

	"powl/internal/core"
	"powl/internal/gpart"
	"powl/internal/obs"
	"powl/internal/owlhorst"
	"powl/internal/partition"
	"powl/internal/rdf"
	"powl/internal/reason"
)

// Reconciliation tolerances of the traced run.
const (
	// overAttribution: the stage spans may exceed the traced call's wall
	// clock by at most this share plus overAttributionAbs; anything left
	// over is printed as unattributed time, never dropped.
	overAttribution    = 0.02
	overAttributionAbs = 5 * time.Millisecond
	// partitionDrift: the mirrored cost model plus gpart must land within
	// this share (plus partitionDriftAbs) of core's PartitionTime. They run
	// separately, so timing noise needs room; the exact IR and balance
	// comparison is the sharp check.
	partitionDrift    = 0.2
	partitionDriftAbs = 20 * time.Millisecond
)

// traced is the last traced core.Materialize of a batch workload.
type traced struct {
	wall time.Duration
	res  *core.Result
	// slowest is the largest per-worker sum of reason, send, recv and sync
	// phase spans from the journal; aggregate the master's merge span.
	slowest, aggregate time.Duration
}

// tracedMaterialize runs the workload's materialization with the
// program's telemetry on (core.Config.Obs journaling into an obs.MemSink)
// and records the cluster and transport layers from it.
func (r *run) tracedMaterialize(in *input) (time.Duration, error) {
	sink := &obs.MemSink{}
	run := obs.NewRun(sink, obs.NewRegistry())
	t0 := now()
	g, res, err := r.materialize(in, run)
	wall := now() - t0
	if err != nil {
		return 0, err
	}
	if err := checkClosure(g.Triples(), in.oracle); err != nil {
		r.fail(fmt.Errorf("traced materialize: %w", err))
	}
	if res == nil {
		return wall, nil
	}
	tr := &traced{wall: wall, res: res}
	spans := map[int]time.Duration{}
	for _, e := range sink.Events() {
		if e.Type != obs.EvPhase {
			continue
		}
		if e.Phase == obs.PhaseAggregate {
			tr.aggregate += e.Duration()
		} else {
			spans[e.Worker] += e.Duration()
		}
	}
	var reasonMax, reasonSum, ioMax, ioSum, syncMax time.Duration
	for i, t := range res.PerWorker {
		reasonMax, ioMax, syncMax = max(reasonMax, t.Reason), max(ioMax, t.IO), max(syncMax, t.Sync)
		reasonSum += t.Reason
		ioSum += t.IO
		tr.slowest = max(tr.slowest, spans[i])
		if d := spans[i] - (t.Reason + t.IO + t.Sync); d.Abs() > time.Millisecond {
			r.fail(fmt.Errorf("worker %d: journal phase spans %v disagree with its timings %v", i, spans[i], t.Reason+t.IO+t.Sync))
		}
	}
	var msgs, sent, bytes int64
	for _, p := range run.Transport().Pairs() {
		msgs += p.Msgs
		sent += p.Triples
		bytes += p.Bytes
	}
	r.set("cluster.rounds", float64(res.Rounds))
	r.set("cluster.reason_max_s", reasonMax.Seconds())
	r.set("cluster.reason_sum_s", reasonSum.Seconds())
	r.set("cluster.io_max_s", ioMax.Seconds())
	r.set("cluster.sync_max_s", syncMax.Seconds())
	r.set("cluster.aggregate_s", tr.aggregate.Seconds())
	r.set("cluster.unattributed_s", (res.Elapsed - tr.slowest - tr.aggregate).Seconds())
	r.set("cluster.or", res.OR)
	r.set("partition.total_s", res.PartitionTime.Seconds())
	r.set("partition.ir", res.Metrics.IR)
	r.set("partition.bal", res.Metrics.Bal)
	r.set("transport.msgs", float64(msgs))
	r.set("transport.sent_triples", float64(sent))
	r.set("transport.bytes", float64(bytes))
	r.set("transport.io_s", ioSum.Seconds())
	r.last = tr
	return wall, nil
}

// mirrorStages times, from the benchmark's side, the module calls
// core.Materialize and serve.Build are made of, and reconciles them with the
// last traced call.
func (r *run) mirrorStages(in *input) error {
	ds := in.ds
	t0 := now()
	compiled := owlhorst.Compile(ds.Dict, ds.Graph)
	instance := owlhorst.SplitInstance(ds.Dict, ds.Graph)
	compile := now() - t0
	r.set("owlhorst.compile_s", compile.Seconds())
	r.set("owlhorst.instance_rules", float64(len(compiled.InstanceRules)))

	base := func() *rdf.Graph {
		g := rdf.NewGraphCap(2 * (len(instance) + compiled.Schema.Len()))
		g.AddAll(instance)
		g.Union(compiled.Schema)
		return g
	}
	g := base()
	t0 = now()
	derived := reason.Forward{}.Materialize(g, compiled.InstanceRules)
	forward := now() - t0
	r.set("reason.forward_s", forward.Seconds())
	r.set("reason.derived", float64(derived))

	g = base()
	t0 = now()
	reason.Forward{Threads: 2}.Materialize(g, compiled.InstanceRules)
	r.set("reason.threads2_speedup", forward.Seconds()/(now()-t0).Seconds())

	rc := &obs.RuleCollector{}
	if _, err := (reason.Forward{}).MaterializeCtx(obs.ContextWithRules(context.Background(), rc), base(), compiled.InstanceRules); err != nil {
		return fmt.Errorf("profiled forward closure: %w", err)
	}
	top := obs.TopRules(rc.Snapshot(), 3)
	var topNames []string
	for i := 0; i < 3; i++ {
		v := 0.0
		if i < len(top) {
			v = top[i].Time.Seconds()
			topNames = append(topNames, top[i].Name)
		}
		r.set(fmt.Sprintf("reason.top%d_rule_s", i+1), v)
	}
	r.info["top_rules"] = topNames

	closure := g.Triples()
	t0 = now()
	rdf.NewGraphCap(len(closure)).AddAll(closure)
	r.set("rdf.bulk_add_s", (now() - t0).Seconds())
	r.set("rdf.triples", float64(len(closure)))

	if r.w.batch == nil {
		for _, n := range []string{"partition.cost_model_s", "partition.gpart_s", "partition.total_s",
			"partition.ir", "partition.bal", "cluster.rounds", "cluster.reason_max_s", "cluster.reason_sum_s",
			"cluster.io_max_s", "cluster.sync_max_s", "cluster.aggregate_s", "cluster.unattributed_s",
			"cluster.or", "core.unattributed_s", "transport.sent_triples", "transport.msgs",
			"transport.bytes", "transport.io_s"} {
			r.set(n, 0)
		}
		return nil
	}
	return r.mirrorPartition(in, compiled, instance, compile)
}

// mirrorPartition repeats core's partitioning step with the options core
// uses and checks it against the traced call: the same IR and balance
// exactly, and cost model plus gpart within partitionDrift of
// PartitionTime. It then closes the traced call's wall-clock account.
func (r *run) mirrorPartition(in *input, compiled *owlhorst.Compiled, instance []rdf.Triple, compile time.Duration) error {
	tr := r.last
	if tr == nil {
		return fmt.Errorf("no traced materialization to reconcile")
	}
	pin := &partition.Input{Dict: in.ds.Dict, Instance: instance,
		Skip: owlhorst.SchemaElements(in.ds.Dict, compiled.Schema)}
	var pol partition.Policy
	var costModel time.Duration
	switch r.w.batch.Policy {
	case core.GraphPolicy:
		t0 := now()
		weights := costWeights(instance, compiled)
		costModel = now() - t0
		pol = partition.GraphPolicy{CostWeights: weights,
			Opts: gpart.Options{Seed: r.seed, Imbalance: 0.02, RefinePasses: 12}}
	case core.HashPolicy:
		pol = partition.HashPolicy{}
	default:
		return fmt.Errorf("no mirror for policy %q", r.w.batch.Policy)
	}
	t0 := now()
	pres, err := partition.Partition(pin, r.w.batch.Workers, pol)
	part := now() - t0
	if err != nil {
		return fmt.Errorf("mirrored partition: %w", err)
	}
	r.set("partition.cost_model_s", costModel.Seconds())
	r.set("partition.gpart_s", part.Seconds())

	m := partition.ComputeMetrics(pin, pres)
	if m.IR != tr.res.Metrics.IR || m.Bal != tr.res.Metrics.Bal {
		r.fail(fmt.Errorf("mirrored partition (IR %.6f, bal %.3f) differs from core's (IR %.6f, bal %.3f): the mirrored options drifted",
			m.IR, m.Bal, tr.res.Metrics.IR, tr.res.Metrics.Bal))
	}
	if d := (costModel + part - tr.res.PartitionTime).Abs(); d > partitionDriftAbs+time.Duration(partitionDrift*float64(tr.res.PartitionTime)) {
		r.fail(fmt.Errorf("cost model %v + partition %v does not reconcile with core's PartitionTime %v",
			costModel, part, tr.res.PartitionTime))
	}

	attributed := compile + tr.res.PartitionTime + tr.slowest + tr.aggregate
	rest := tr.wall - compile - tr.res.PartitionTime - tr.res.Elapsed
	r.set("core.unattributed_s", rest.Seconds())
	if over := attributed - tr.wall; over > overAttributionAbs+time.Duration(overAttribution*float64(tr.wall)) {
		r.fail(fmt.Errorf("stage spans sum to %v, %v more than the traced call's %v", attributed, over, tr.wall))
	}
	r.info["reconcile"] = map[string]float64{
		"wall_s":       tr.wall.Seconds(),
		"attributed_s": attributed.Seconds(),
		"remainder_s":  (tr.wall - attributed).Seconds(),
	}
	return nil
}

// costWeights mirrors core's cost model for the graph policy: each node
// weighs 2 plus its degree in the forward closure of the instance data.
func costWeights(instance []rdf.Triple, compiled *owlhorst.Compiled) map[rdf.ID]int64 {
	g := rdf.NewGraphCap(2 * len(instance))
	g.AddAll(instance)
	g.Union(compiled.Schema)
	reason.Forward{}.Materialize(g, compiled.InstanceRules)
	w := map[rdf.ID]int64{}
	for _, t := range g.TriplesSince(0) {
		w[t.S]++
		w[t.O]++
	}
	for id := range w {
		w[id] += 2
	}
	return w
}
