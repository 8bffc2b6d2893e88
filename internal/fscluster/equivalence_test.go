package fscluster

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"powl/internal/cluster"
	"powl/internal/faultinject"
	"powl/internal/gpart"
	"powl/internal/ntriples"
	"powl/internal/obs"
	"powl/internal/partition"
	"powl/internal/rdf"
	"powl/internal/reason"
	"powl/internal/rules"
	"powl/internal/transport"
	"powl/internal/vocab"
)

// chainDir prepares a work directory holding a transitive chain of n nodes
// cut across k partitions, so that closing it takes several rounds.
func chainDir(t *testing.T, n, k int) string {
	t.Helper()
	dict := rdf.NewDict()
	g := rdf.NewGraph()
	p := dict.InternIRI("http://t/p")
	g.Add(rdf.Triple{S: p, P: dict.InternIRI(vocab.RDFType), O: dict.InternIRI(vocab.OWLTransitiveProperty)})
	for i := 0; i+1 < n; i++ {
		g.Add(rdf.Triple{
			S: dict.InternIRI(fmt.Sprintf("http://t/n%02d", i)),
			P: p,
			O: dict.InternIRI(fmt.Sprintf("http://t/n%02d", i+1)),
		})
	}
	dir := t.TempDir()
	if _, err := Prepare(dir, dict, g, k, partition.GraphPolicy{Opts: gpart.Options{Seed: 42}}); err != nil {
		t.Fatal(err)
	}
	return dir
}

// runTrace is what the equivalence test compares across the two runners.
type runTrace struct {
	closure string           // sorted N-Triples of the merged closure
	adopts  []obs.Event      // adopt events, TS cleared
	phases  map[int][]string // per worker: "r<round> <phase> <n>" in order
}

func traceOf(t *testing.T, dict *rdf.Dict, g *rdf.Graph, events []obs.Event) runTrace {
	t.Helper()
	var buf bytes.Buffer
	if err := ntriples.WriteGraph(&buf, dict, g); err != nil {
		t.Fatal(err)
	}
	tr := runTrace{closure: buf.String(), phases: map[int][]string{}}
	for _, e := range events {
		switch {
		case e.Type == obs.EvAdopt:
			e.TS = 0
			tr.adopts = append(tr.adopts, e)
		case e.Type == obs.EvPhase && e.Worker != obs.MasterWorker:
			tr.phases[e.Worker] = append(tr.phases[e.Worker], fmt.Sprintf("r%d %s %d", e.Round, e.Phase, e.N))
		}
	}
	return tr
}

// TestRunnersAgree runs one chain fixture with provenance on, crashing
// worker 1 at its second round, under both drivers of the round loop: the
// in-process cluster over the File transport with directory checkpoints,
// and k fscluster nodes (goroutines on one work directory) under Supervise.
// Both must produce the same closure, the same adoption and the same
// per-(worker, round) phase-span sequence.
func TestRunnersAgree(t *testing.T) {
	const n, k, victim = 16, 3, 1
	dir := chainDir(t, n, k)
	crash := func() *faultinject.Injector { return faultinject.New(faultinject.Config{CrashRound: 2}) }

	// In-process: assignments, router and rules read back from the work
	// directory, so both runs start from identical partitions.
	l := Layout{Dir: dir}
	dict := rdf.NewDict()
	src, err := os.ReadFile(l.RulesFile())
	if err != nil {
		t.Fatal(err)
	}
	rs, err := rules.Parse(string(src), dict)
	if err != nil {
		t.Fatal(err)
	}
	owner, err := readOwnerTable(l.OwnerFile(), dict)
	if err != nil {
		t.Fatal(err)
	}
	bar := &fileBarrier{l: l, dict: dict, rules: rs}
	assigns := make([]cluster.Assignment, k)
	for i := range assigns {
		if assigns[i], err = bar.Assignment(i); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := transport.NewFile(t.TempDir(), dict)
	if err != nil {
		t.Fatal(err)
	}
	store, err := cluster.NewDirCheckpoints(t.TempDir(), dict)
	if err != nil {
		t.Fatal(err)
	}
	sink := &obs.MemSink{}
	inject := make([]*faultinject.Injector, k)
	inject[victim] = crash()
	res, err := cluster.Run(cluster.Config{
		Engine:     reason.Forward{},
		Transport:  tr,
		Router:     cluster.OwnerRouter{Owner: owner},
		Obs:        obs.NewRun(sink, nil),
		Recovery:   &cluster.RecoveryConfig{Store: store},
		Inject:     inject,
		Provenance: true,
	}, assigns)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recovered[victim] != 0 {
		t.Fatalf("in-process run: recovered = %v, want worker 0 adopting %d", res.Recovered, victim)
	}
	inProc := traceOf(t, dict, res.Graph, sink.Events())

	// Shared directory: one node per goroutine, plus the supervisor.
	sinks := make([]*obs.MemSink, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		sinks[i] = &obs.MemSink{}
		cfg := NodeConfig{ID: i, K: k, Dir: dir, Poll: time.Millisecond, Timeout: time.Minute,
			Obs: obs.NewRun(sinks[i], nil), Provenance: true}
		if i == victim {
			cfg.Inject = crash()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[cfg.ID] = RunNode(cfg)
		}()
	}
	sup, supErr := Supervise(context.Background(), SuperviseConfig{Dir: dir, K: k,
		Poll: time.Millisecond, RoundDeadline: 300 * time.Millisecond, Timeout: time.Minute})
	wg.Wait()
	if supErr != nil {
		t.Fatal(supErr)
	}
	for i, err := range errs {
		if i != victim && err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	if sup.Dead[victim] != 0 || len(sup.Dead) != 1 {
		t.Fatalf("supervisor: dead = %v, want node 0 adopting %d", sup.Dead, victim)
	}
	mdict, merged, err := MergeClosures(dir, k)
	if err != nil {
		t.Fatal(err)
	}
	var events []obs.Event
	for _, s := range sinks {
		events = append(events, s.Events()...)
	}
	nodes := traceOf(t, mdict, merged, events)

	if inProc.closure != nodes.closure {
		t.Fatalf("closures differ: in-process %d bytes, nodes %d bytes", len(inProc.closure), len(nodes.closure))
	}
	if len(inProc.adopts) != 1 || !reflect.DeepEqual(inProc.adopts, nodes.adopts) {
		t.Fatalf("adoptions differ:\nin-process %+v\nnodes      %+v", inProc.adopts, nodes.adopts)
	}
	if len(inProc.phases[0]) < 3*4 {
		t.Fatalf("run too short to exercise adoption: worker 0 phases %v", inProc.phases[0])
	}
	for w := 0; w < k; w++ {
		if !reflect.DeepEqual(inProc.phases[w], nodes.phases[w]) {
			t.Errorf("worker %d phase spans differ:\nin-process %v\nnodes      %v", w, inProc.phases[w], nodes.phases[w])
		}
	}
}
