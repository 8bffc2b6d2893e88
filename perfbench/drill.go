package main

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"powl/internal/core"
	"powl/internal/datagen"
	"powl/internal/ntriples"
	"powl/internal/obs"
	"powl/internal/query"
	"powl/internal/rdf"
	"powl/internal/serve"
	"powl/internal/serve/loadgen"
)

const (
	// writeWindow is how many insert batches stay live before the stream
	// starts deleting the oldest one with each new insert. A batch's delete
	// is due 2*writeWindow-1 writes after its insert, seconds at the
	// workloads' write rates: the watcher must see the insert published
	// before the delete removes it again, so a writer stall longer than
	// that shows up as a failed run.
	writeWindow = 128
	// maxLag is how late the generator may start an operation before the
	// run counts as fallen behind: the offered load was not delivered.
	maxLag = 200 * time.Millisecond
	// settle bounds the wait for outstanding writes to become visible after
	// the schedule ends.
	settle = 10 * time.Second
	// pollEvery is how often the visibility watcher reads the published
	// snapshot; it bounds the resolution of write_visible_*.
	pollEvery = 200 * time.Microsecond
)

// op is one scheduled request: a read of query q, or write number w.
type op struct {
	due  time.Duration // on the run clock
	q, w int
}

// write is one write of the stream: inserting or deleting batch.
type write struct {
	batch int
	del   bool
}

// writeAt returns the stream's write number j: writeWindow inserts, then
// alternating deletes of the oldest live batch and inserts of a new one.
func writeAt(j int) write {
	if j < writeWindow {
		return write{batch: j}
	}
	m := j - writeWindow
	if m%2 == 0 {
		return write{batch: m / 2, del: true}
	}
	return write{batch: writeWindow + m/2}
}

// schedule lays out the open-loop arrivals: reads at readQPS cycling
// through the canonical queries, writes at writeQPS, merged by due time.
func schedule(start, d time.Duration, readQPS, writeQPS float64, nq int) []op {
	var ops []op
	ri, wi := 0, 0
	at := func(i float64, qps float64) time.Duration { return time.Duration(i * float64(time.Second) / qps) }
	for {
		rDue, wDue := at(float64(ri), readQPS), at(float64(wi)+0.5, writeQPS)
		if rDue >= d && wDue >= d {
			return ops
		}
		if rDue <= wDue {
			ops = append(ops, op{due: start + rDue, q: ri % nq, w: -1})
			ri++
		} else {
			ops = append(ops, op{due: start + wDue, q: -1, w: wi})
			wi++
		}
	}
}

// drill is phase B's shared state.
type drill struct {
	r          *run
	in         *input
	srv        *server
	client     loadgen.HTTP
	nproc      int
	firstBatch int

	batches []string     // N-Triples text per batch
	markers []rdf.Triple // per batch: derived triple present while live

	mu       sync.Mutex
	failures []error
	read     samples
	readBy   []samples // per canonical query
	ack      samples
	visible  samples
	reads    int
	writes   int
	acked    map[int]chan struct{} // insert batch -> closed once acknowledged
	pending  []pendingWrite
	seen     map[int]bool // insert batches observed visible
	liveEnd  map[int]bool // batches inserted and not deleted
	maxLag   time.Duration
}

type pendingWrite struct {
	due time.Duration
	write
}

// servePhase is phase B: serve the workload's KB over loopback HTTP and
// drive it with the open-loop read/write mix, then check the final served
// snapshot against a from-scratch closure.
func (r *run) servePhase(in *input, closure *rdf.Graph) error {
	g := in.ds.Graph
	if closure != nil {
		g = closure
	}
	var run *obs.Run
	if r.trace {
		run = obs.NewRun(&obs.MemSink{}, obs.NewRegistry())
	}
	runtime.GC()
	t0 := now()
	kb := buildKB(in.ds.Dict, g)
	r.set("serve.build_s", (now() - t0).Seconds())
	srv, err := startServer(kb, r.w.serveConfig(run))
	if err != nil {
		return err
	}
	d := newDrill(r, in, srv, 0)
	defer d.close()
	d.run(d.plan(time.Duration(float64(r.seconds)*r.w.serveShare), r.w.readQPS, r.w.writeQPS))
	if err := srv.stop(); err != nil {
		d.failures = append(d.failures, fmt.Errorf("server shutdown: %w", err))
	}
	d.report()
	if r.trace {
		d.traceLayers(srv.Stats())
	}
	return d.finalCheck()
}

// newDrill prepares a drill against srv with at most nproc client
// connections. Write batch i of the drill uses the shape's batch
// firstBatch+i, so successive drills on one server write distinct triples.
func newDrill(r *run, in *input, srv *server, firstBatch int) *drill {
	nproc := runtime.GOMAXPROCS(0)
	return &drill{r: r, in: in, srv: srv, nproc: nproc, firstBatch: firstBatch,
		client: loadgen.HTTP{Base: srv.base, Client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc}}},
		readBy: make([]samples, len(r.w.shape.queries)),
		acked:  map[int]chan struct{}{}, seen: map[int]bool{}, liveEnd: map[int]bool{}}
}

func (d *drill) close() { d.client.Client.CloseIdleConnections() }

// plan schedules dur of arrivals starting shortly from now and prepares
// every insert batch the schedule writes.
func (d *drill) plan(dur time.Duration, readQPS, writeQPS float64) []op {
	ops := schedule(now()+50*time.Millisecond, dur, readQPS, writeQPS, len(d.r.w.shape.queries))
	for _, o := range ops {
		if o.w >= 0 {
			if w := writeAt(o.w); !w.del {
				d.addBatch(w.batch)
			}
		}
	}
	return ops
}

// addBatch prepares insert batch i's text and visibility marker.
func (d *drill) addBatch(i int) {
	nt, marker := d.r.w.shape.batch(d.r.w.scale, d.firstBatch+i)
	st, err := ntriples.NewReader(strings.NewReader(marker)).Next()
	if err != nil {
		panic(fmt.Sprintf("shape marker %q: %v", marker, err)) // a bug in shapes.go
	}
	dict := d.in.ds.Dict
	d.batches = append(d.batches, nt)
	d.markers = append(d.markers, rdf.Triple{S: dict.Intern(st.S), P: dict.Intern(st.P), O: dict.Intern(st.O)})
	d.acked[i] = make(chan struct{})
}

// run dispatches ops on schedule to nproc client goroutines and watches
// write visibility until every write is published or settle expires.
func (d *drill) run(ops []op) {
	queue := make(chan op, len(ops)) // holds every op, so the dispatcher never blocks
	var clients sync.WaitGroup
	for i := 0; i < d.nproc; i++ {
		clients.Add(1)
		go func() {
			defer clients.Done()
			for o := range queue {
				d.do(o)
			}
		}()
	}
	stopWatch := make(chan struct{})
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		d.watch(stopWatch)
	}()
	for _, o := range ops {
		time.Sleep(o.due - now())
		queue <- o
	}
	close(queue)
	clients.Wait()
	deadline := now() + settle
	for now() < deadline {
		d.mu.Lock()
		n := len(d.pending)
		d.mu.Unlock()
		if n == 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(stopWatch)
	<-watched
	d.mu.Lock()
	for _, p := range d.pending {
		d.failures = append(d.failures, fmt.Errorf("write %+v never became visible", p.write))
	}
	d.mu.Unlock()
}

// do performs one operation; latency counts from the due time, so a
// stalled server also charges the requests queued behind the stall.
func (d *drill) do(o op) {
	lag := now() - o.due
	d.mu.Lock()
	d.maxLag = max(d.maxLag, lag)
	d.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if o.q >= 0 {
		q := d.r.w.shape.queries[o.q]
		rows, err := d.client.Query(ctx, q.text)
		lat := now() - o.due
		d.mu.Lock()
		defer d.mu.Unlock()
		d.reads++
		if err == nil {
			err = checkRows(q.name, rows, d.in.want[o.q])
		}
		if err != nil {
			d.failures = append(d.failures, err)
			return
		}
		d.read.addDur(lat, time.Millisecond)
		d.readBy[o.q].addDur(lat, time.Millisecond)
		return
	}
	w := writeAt(o.w)
	submit := d.client.Insert
	if w.del {
		// A delete may only follow its insert's acknowledgement; the window
		// keeps this wait at zero unless the server stalls for seconds.
		select {
		case <-d.acked[w.batch]:
		case <-ctx.Done():
			d.mu.Lock()
			d.writes++
			d.failures = append(d.failures, fmt.Errorf("delete of batch %d: insert never acknowledged", w.batch))
			d.mu.Unlock()
			return
		}
		submit = d.client.Delete
	}
	d.mu.Lock()
	d.pending = append(d.pending, pendingWrite{due: o.due, write: w})
	d.liveEnd[w.batch] = !w.del
	d.mu.Unlock()
	err := submit(ctx, d.batches[w.batch])
	lat := now() - o.due
	d.mu.Lock()
	defer d.mu.Unlock()
	d.writes++
	if err != nil {
		d.failures = append(d.failures, fmt.Errorf("write %+v: %w", w, err))
		return
	}
	d.ack.addDur(lat, time.Millisecond)
	if !w.del {
		close(d.acked[w.batch])
	}
}

// watch polls the published snapshot and records each pending write's
// visibility: an insert once its marker is in the snapshot, a delete once
// its batch's marker has left it again.
func (d *drill) watch(stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		sn := d.srv.Snapshot()
		at := now()
		d.mu.Lock()
		kept := d.pending[:0]
		for _, p := range d.pending {
			has := sn.Has(d.markers[p.batch])
			switch {
			case !p.del && has:
				d.seen[p.batch] = true
			case p.del && d.seen[p.batch] && !has:
			default:
				kept = append(kept, p)
				continue
			}
			d.visible.addDur(at-p.due, time.Millisecond)
		}
		d.pending = kept
		d.mu.Unlock()
		time.Sleep(pollEvery)
	}
}

// report turns the drill's samples into end-to-end metrics and counts its
// operations and failures into the run.
func (d *drill) report() {
	r := d.r
	r.attempted += d.reads + d.writes
	for _, err := range d.failures {
		r.fail(err)
	}
	if d.maxLag > maxLag {
		r.fail(fmt.Errorf("generator fell behind: an operation started %v after its due time", d.maxLag))
	}
	// The reads take from a few to tens of milliseconds each and share the
	// mix equally, so the median of the mix is where the upper half of one
	// read meets the lower half of another: it is set by their tails.
	// Each read's own median is steadier; their geometric mean weighs a
	// change to any read by its relative size.
	var byQ []float64
	for _, s := range d.readBy {
		byQ = append(byQ, s.median())
	}
	r.set("query_p50_ms", geomean(byQ))
	r.info["query_p50_by_query"] = byQ
	r.set("write_ack_p50_ms", d.ack.median())
	r.set("write_visible_p50_ms", d.visible.median())
	// The tails are per-layer numbers, not gated: on a 2-core host shared
	// with other work their run-to-run spread is wider than any bound the
	// benchmark may set (README.md). A tail with fewer than ten samples
	// beyond it is not reported: it reads 0 and is named in the info line.
	var unsupported []string
	for _, t := range []struct {
		name string
		s    samples
	}{{"query", d.read}, {"write_ack", d.ack}, {"write_visible", d.visible}} {
		for _, p := range []int{95, 99} {
			name := fmt.Sprintf("loadgen.%s_p%d_ms", t.name, p)
			v, err := t.s.tail(p)
			if err != nil {
				unsupported = append(unsupported, fmt.Sprintf("%s: %v", name, err))
				v = 0
			}
			r.set(name, v)
		}
	}
	r.info["unreported_tails"] = unsupported
	r.set("loadgen.max_lag_ms", millis(d.maxLag))
	r.set("bench.samples.query", float64(len(d.read)))
	r.set("bench.samples.write", float64(len(d.ack)))
	r.info["samples"] = map[string]int{"read": len(d.read), "write_ack": len(d.ack), "write_visible": len(d.visible)}
}

// finalCheck compares the drained server's snapshot with a from-scratch
// serial closure of the base plus the write batches still live.
func (d *drill) finalCheck() error {
	dict := d.in.ds.Dict
	g := rdf.NewGraph()
	g.Union(d.in.ds.Graph)
	var live strings.Builder
	for b, batch := range d.batches {
		if d.liveEnd[b] {
			live.WriteString(batch)
		}
	}
	if _, err := ntriples.ReadGraph(strings.NewReader(live.String()), dict, g); err != nil {
		return fmt.Errorf("reading live batches: %w", err)
	}
	want, err := core.MaterializeSerial(&datagen.Dataset{Name: d.r.w.name, Dict: dict, Graph: g}, core.ForwardEngine)
	if err != nil {
		return fmt.Errorf("final oracle: %w", err)
	}
	d.r.op(checkClosure(d.srv.Snapshot().Triples(), want.Graph.Triples()))
	return nil
}

// traceLayers records the query and serve layers: per-query solve time on
// the final snapshot, and the server's own accounting.
func (d *drill) traceLayers(st serve.Stats) {
	r := d.r
	sn := d.srv.Snapshot()
	var solve samples
	for _, sh := range []*shape{lubmShape, lubmPointShape, mdcShape} {
		for _, q := range sh.queries {
			r.set("query.solve_ms."+q.name, 0)
		}
	}
	for i, q := range r.w.shape.queries {
		var s samples
		pq, err := query.Parse(q.text, d.in.ds.Dict)
		if !r.op(err) {
			continue
		}
		for k := 0; k < 20; k++ {
			t0 := now()
			res, err := pq.SolveContext(context.Background(), sn)
			dt := now() - t0
			if err == nil {
				err = checkRows(q.name, len(res.Rows), d.in.want[i])
			}
			if r.op(err) {
				s.addDur(dt, time.Millisecond)
			}
		}
		r.set("query.solve_ms."+q.name, s.median())
		solve = append(solve, s.median())
	}
	r.set("serve.server_p50_ms", st.QueryP50Ms)
	r.set("serve.server_p99_ms", st.QueryP99Ms)
	r.set("serve.admit_wait_ms", st.QueryP50Ms-solve.median())
	r.set("serve.http_ms", d.read.median()-st.QueryP50Ms)
	r.set("serve.shed", float64(st.Shed))
	r.set("serve.queue_timeout", float64(st.QueueTimeout))
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	r.set("serve.retract_ns_per_triple", ratio(st.RetractTotalMs*1e6, float64(st.RetractedTriples)))
	r.set("serve.rederive_fraction", ratio(float64(st.RederivedTriples), float64(st.RetractedTriples)))
	r.set("serve.compactions", float64(st.Compactions))
	r.set("serve.compact_pause_ms", ratio(st.CompactTotalMs, float64(st.Compactions)))
	r.info["serve_stats"] = st
}
