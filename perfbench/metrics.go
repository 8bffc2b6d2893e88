package main

// decl declares one reported metric and its unit.
type decl struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, printed by untraced
// runs. Every workload reports every one of them (see README.md for what
// each means on a batch and on the serving workload).
var endToEnd = []decl{
	{"setup_s", "s"},
	{"materialize_s", "s"},
	{"serial_s", "s"},
	{"alloc_mb", "MB"},
	{"live_heap_mb", "MB"},
	{"query_p50_ms", "ms"},
	{"write_ack_p50_ms", "ms"},
	{"write_visible_p50_ms", "ms"},
}

// perLayer are the traced run's metrics, prefixed by the module that does
// the work. A layer a workload does not exercise reports 0.
var perLayer = []decl{
	{"ntriples.parse_s", "s"},
	{"ntriples.triples_per_s", "1/s"},
	{"owlhorst.compile_s", "s"},
	{"owlhorst.instance_rules", "count"},
	{"partition.cost_model_s", "s"},
	{"partition.gpart_s", "s"},
	{"partition.total_s", "s"},
	{"partition.ir", "ratio"},
	{"partition.bal", "nodes"},
	{"cluster.rounds", "count"},
	{"cluster.reason_max_s", "s"},
	{"cluster.reason_sum_s", "s"},
	{"cluster.io_max_s", "s"},
	{"cluster.sync_max_s", "s"},
	{"cluster.aggregate_s", "s"},
	{"cluster.unattributed_s", "s"},
	{"cluster.or", "ratio"},
	{"core.unattributed_s", "s"},
	{"transport.sent_triples", "count"},
	{"transport.msgs", "count"},
	{"transport.bytes", "B"},
	{"transport.io_s", "s"},
	{"reason.forward_s", "s"},
	{"reason.derived", "count"},
	{"reason.top1_rule_s", "s"},
	{"reason.top2_rule_s", "s"},
	{"reason.top3_rule_s", "s"},
	{"reason.threads2_speedup", "ratio"},
	{"rdf.bulk_add_s", "s"},
	{"rdf.triples", "count"},
	{"query.solve_ms.professors", "ms"},
	{"query.solve_ms.members", "ms"},
	{"query.solve_ms.profDepts", "ms"},
	{"query.solve_ms.classes", "ms"},
	{"query.solve_ms.deptStaff", "ms"},
	{"query.solve_ms.profTypes", "ms"},
	{"query.solve_ms.deptMembers", "ms"},
	{"query.solve_ms.subOrgs", "ms"},
	{"query.solve_ms.wellParts", "ms"},
	{"query.solve_ms.sensorTypes", "ms"},
	{"query.solve_ms.upstream", "ms"},
	{"query.solve_ms.devSensors", "ms"},
	{"serve.build_s", "s"},
	{"serve.server_p50_ms", "ms"},
	{"serve.server_p99_ms", "ms"},
	{"serve.admit_wait_ms", "ms"},
	{"serve.http_ms", "ms"},
	{"serve.shed", "count"},
	{"serve.queue_timeout", "count"},
	{"serve.retract_ns_per_triple", "ns"},
	{"serve.rederive_fraction", "ratio"},
	{"serve.compactions", "count"},
	{"serve.compact_pause_ms", "ms"},
	{"loadgen.query_p95_ms", "ms"},
	{"loadgen.query_p99_ms", "ms"},
	{"loadgen.write_ack_p95_ms", "ms"},
	{"loadgen.write_ack_p99_ms", "ms"},
	{"loadgen.write_visible_p95_ms", "ms"},
	{"loadgen.write_visible_p99_ms", "ms"},
	{"loadgen.max_lag_ms", "ms"},
	{"bench.samples.materialize", "count"},
	{"bench.samples.serial", "count"},
	{"bench.samples.query", "count"},
	{"bench.samples.write", "count"},
	{"bench.error_rate", "ratio"},
	{"bench.k_speedup", "ratio"},
	{"trace.overhead_pct", "%"},
}

func hasMetric(ds []decl, name string) bool {
	for _, d := range ds {
		if d.name == name {
			return true
		}
	}
	return false
}
