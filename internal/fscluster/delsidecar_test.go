package fscluster

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"powl/internal/cluster"
	"powl/internal/gpart"
	"powl/internal/obs"
	"powl/internal/partition"
	"powl/internal/rdf"
	"powl/internal/vocab"
)

// delFixture writes node 0's base partition (three plain triples) and
// returns the layout, the dict used to write, and the triples.
func delFixture(t *testing.T) (Layout, *rdf.Dict, []rdf.Triple) {
	t.Helper()
	l := Layout{Dir: t.TempDir()}
	dict := rdf.NewDict()
	p := dict.InternIRI("http://t/p")
	ts := []rdf.Triple{
		{S: dict.InternIRI("http://t/a"), P: p, O: dict.InternIRI("http://t/x")},
		{S: dict.InternIRI("http://t/b"), P: p, O: dict.InternIRI("http://t/y")},
		{S: dict.InternIRI("http://t/c"), P: p, O: dict.InternIRI("http://t/z")},
	}
	g := rdf.NewGraph()
	g.AddAll(ts)
	if err := writeGraphFile(l.PartFile(0), dict, g); err != nil {
		t.Fatal(err)
	}
	return l, dict, ts
}

// nodeStore opens the work directory's checkpoint store, interning
// through dict.
func nodeStore(t *testing.T, l Layout, dict *rdf.Dict) *cluster.DirCheckpoints {
	t.Helper()
	store, err := cluster.NewDirCheckpoints(l.Dir, dict)
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// writeDelFile persists dels as node 0's round-r tombstone sidecar.
func writeDelFile(t *testing.T, l Layout, round int, dict *rdf.Dict, dels []rdf.Triple) {
	t.Helper()
	if err := nodeStore(t, l, dict).SaveTombstones(0, round, dels); err != nil {
		t.Fatal(err)
	}
}

// reconstruct replays node 0's persisted state — base, checkpoints, inbox,
// newest tombstones — into a fresh dict through the loader adopters and
// rejoining nodes use, journaling into o. The graph's tombstone count is
// the number of deletions the replay applied.
func reconstruct(t *testing.T, l Layout, o *obs.Run) (*rdf.Graph, *rdf.Dict) {
	t.Helper()
	dict := rdf.NewDict()
	base := rdf.NewGraph()
	if err := readGraphFile(l.PartFile(0), dict, base); err != nil {
		t.Fatal(err)
	}
	ccfg, err := nodeCluster(l, dict, o)
	if err != nil {
		t.Fatal(err)
	}
	g, err := cluster.Reconstruct(context.Background(), ccfg, 0, 0, base.Triples())
	if err != nil {
		t.Fatal(err)
	}
	return g, dict
}

// TestDelSidecarRoundtrip checks the write path against the read path: a
// graph with tombstones persists its dead set, and a fresh reconstruction
// through a fresh dict replays exactly those deletions — with the newest
// (cumulative) sidecar winning over older ones.
func TestDelSidecarRoundtrip(t *testing.T) {
	l, dict, ts := delFixture(t)

	// Round 0: one deletion. Round 1: cumulative two. Written through the
	// production writer, driven by real tombstones.
	g := rdf.NewGraph()
	g.AddAll(ts)
	store := nodeStore(t, l, dict)
	g.Delete(ts[:1])
	if err := store.SaveTombstones(0, 0, g.DeadTriples()); err != nil {
		t.Fatal(err)
	}
	g.Delete(ts[1:2])
	if err := store.SaveTombstones(0, 1, g.DeadTriples()); err != nil {
		t.Fatal(err)
	}

	g2, dict2 := reconstruct(t, l, nil)
	n := g2.Dead()
	if n != 2 {
		t.Fatalf("applied %d deletions, want 2 (newest cumulative sidecar)", n)
	}
	live := g2.Triples()
	if len(live) != 1 {
		t.Fatalf("survivors = %d, want 1: %v", len(live), live)
	}
	if got := dict2.Term(live[0].S).String(); got != "<http://t/c>" {
		t.Fatalf("wrong survivor subject: %s", got)
	}
}

// TestDelSidecarMissingNewest models a crash between the round-2 checkpoint
// and its tombstone sidecar: replay degrades to the round-0 set and journals
// a warning, mirroring the lineage-sidecar degradation rule.
func TestDelSidecarMissingNewest(t *testing.T) {
	l, dict, ts := delFixture(t)
	writeDelFile(t, l, 0, dict, ts[:1])
	if err := nodeStore(t, l, dict).Save(0, 2, ts[2:]); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	sink := obs.NewJSONLSink(&buf)
	run := obs.NewRun(sink, nil)
	g2, _ := reconstruct(t, l, run)
	n := g2.Dead()
	if n != 1 {
		t.Fatalf("applied %d deletions, want the 1 from the stale sidecar", n)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"warn"`) || !strings.Contains(buf.String(), "missing for round 2") {
		t.Fatalf("no degradation warning journaled: %s", buf.String())
	}
}

// TestDelSidecarCorrupt checks the other degradation leg: an unreadable
// sidecar replays as deletion-free, with a journaled warning, rather than
// failing the rejoin.
func TestDelSidecarCorrupt(t *testing.T) {
	l, dict, ts := delFixture(t)
	writeDelFile(t, l, 0, dict, ts[:1])
	tombs, err := filepath.Glob(filepath.Join(l.Dir, "tomb_w00_r*.nt"))
	if err != nil || len(tombs) != 1 {
		t.Fatalf("tombstone sidecar not found: %v, %v", tombs, err)
	}
	if err := os.WriteFile(tombs[0], []byte("<<<not ntriples\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	sink := obs.NewJSONLSink(&buf)
	run := obs.NewRun(sink, nil)
	g2, _ := reconstruct(t, l, run)
	n := g2.Dead()
	if n != 0 {
		t.Fatalf("corrupt sidecar applied %d deletions, want 0", n)
	}
	if g2.Len() != 3 {
		t.Fatalf("reconstruction lost tuples: %d live, want 3", g2.Len())
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"warn"`) || !strings.Contains(buf.String(), "unreadable") {
		t.Fatalf("no corruption warning journaled: %s", buf.String())
	}
}

// TestRejoinAppliesDeletions drives the full node path: a one-node cluster
// materializes, a tombstone sidecar lands on disk (standing in for a
// deletion-processing incarnation that died), and the restarted node's
// rejoin replay must re-kill the deleted cone — the closure it writes may
// not resurrect either the deleted assertion or its retracted inference.
func TestRejoinAppliesDeletions(t *testing.T) {
	dir := t.TempDir()
	dict := rdf.NewDict()
	base := rdf.NewGraph()
	typ := dict.InternIRI(vocab.RDFType)
	student := dict.InternIRI("http://t/Student")
	person := dict.InternIRI("http://t/Person")
	base.Add(rdf.Triple{S: student, P: dict.InternIRI(vocab.RDFSSubClassOf), O: person})
	s0 := dict.InternIRI("http://t/s0")
	s1 := dict.InternIRI("http://t/s1")
	base.Add(rdf.Triple{S: s0, P: typ, O: student})
	base.Add(rdf.Triple{S: s1, P: typ, O: student})
	if _, err := Prepare(dir, dict, base, 1, partition.GraphPolicy{Opts: gpart.Options{Seed: 42}}); err != nil {
		t.Fatal(err)
	}
	cfg := NodeConfig{ID: 0, K: 1, Dir: dir, Poll: time.Millisecond, Timeout: time.Minute}
	res, err := RunNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// res.Closure uses the node's own dict, so membership is checked via
	// the derived count here and via the re-read closure file below.
	if res.Derived == 0 {
		t.Fatal("first run derived nothing")
	}

	// The deleted cone: the assertion and the inference DRed took with it.
	l := Layout{Dir: dir}
	last := res.Rounds - 1
	writeDelFile(t, l, last, dict, []rdf.Triple{
		{S: s0, P: typ, O: student},
		{S: s0, P: typ, O: person},
	})
	// A rejoin replays persisted state only when round markers exist; the
	// closure file from the completed first run would mask the check, so
	// clear it (the node rewrites it).
	if err := os.Remove(l.ClosureFile(0)); err != nil {
		t.Fatal(err)
	}

	res2, err := RunNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Epoch != 2 || res2.StartRound != last+1 {
		t.Fatalf("not a rejoin: %+v", res2)
	}
	// Verify through the closure *file* — what MergeClosures and any
	// downstream consumer actually reads.
	cdict := rdf.NewDict()
	cg := rdf.NewGraph()
	if err := readGraphFile(l.ClosureFile(0), cdict, cg); err != nil {
		t.Fatal(err)
	}
	has := func(s, o string) bool {
		return cg.Has(rdf.Triple{
			S: cdict.InternIRI(s),
			P: cdict.InternIRI(vocab.RDFType),
			O: cdict.InternIRI(o),
		})
	}
	for _, bad := range []string{"Student", "Person"} {
		if has("http://t/s0", "http://t/"+bad) {
			t.Fatalf("rejoin resurrected deleted triple s0 a %s", bad)
		}
	}
	for _, good := range []string{"Student", "Person"} {
		if !has("http://t/s1", "http://t/"+good) {
			t.Fatalf("rejoin lost live triple s1 a %s", good)
		}
	}
}
