package main

import (
	"fmt"
	"time"
)

// kneeLimit is the read p99 the knee ladder holds each rate to.
const kneeLimit = 100 * time.Millisecond

// knee is the calibration mode (-knee): it serves the workload's KB and
// climbs a fixed ladder of read rates, each 10% above the last, beside the
// workload's write stream, for the run's seconds per step. It prints every
// step and the highest rate whose read p99 stays under kneeLimit with the
// generator on schedule. The workloads' fixed read rates are set from it;
// it is not part of a measured run.
func (r *run) knee(in *input) error {
	srv, err := startServer(buildKB(in.ds.Dict, in.ds.Graph), r.w.serveConfig(nil))
	if err != nil {
		return err
	}
	best := 0.0
	for step, rate := 0, 20.0; rate < 5000; step, rate = step+1, rate*1.1 {
		d := newDrill(r, in, srv, (step+1)*1_000_000)
		d.run(d.plan(r.seconds, rate, r.w.writeQPS))
		d.close()
		p99 := time.Duration(d.read.quantile(0.99) * float64(time.Millisecond))
		ok := len(d.failures) == 0 && d.maxLag <= maxLag && p99 < kneeLimit
		fmt.Printf("knee %s: %.1f reads/s: p50 %.2f ms, p99 %v, max lag %v, failures %d, ok %v\n",
			r.w.name, rate, d.read.median(), p99.Round(time.Microsecond), d.maxLag.Round(time.Microsecond), len(d.failures), ok)
		if !ok {
			if len(d.failures) > 0 {
				fmt.Printf("knee %s: first failure: %v\n", r.w.name, d.failures[0])
			}
			break
		}
		best = rate
	}
	fmt.Printf("knee %s: query_max_qps %.1f\n", r.w.name, best)
	return srv.stop()
}
