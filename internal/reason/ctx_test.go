package reason

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"powl/internal/rdf"
	"powl/internal/rules"
)

// bigChain builds a long transitive chain whose closure is quadratic, so
// materialization does enough work for mid-flight cancellation to land.
func bigChain(n int) (*rdf.Graph, []rules.Rule) {
	dict := rdf.NewDict()
	g := rdf.NewGraph()
	p := dict.InternIRI("http://t/p")
	prev := dict.InternIRI("http://t/n0")
	for i := 1; i < n; i++ {
		cur := dict.InternIRI(fmt.Sprintf("http://t/n%d", i))
		g.Add(rdf.Triple{S: prev, P: p, O: cur})
		prev = cur
	}
	rs := rules.MustParse(
		"@prefix t: <http://t/> .\n[tr: (?x t:p ?y) (?y t:p ?z) -> (?x t:p ?z)]", dict)
	return g, rs
}

func ctxEngines() []Engine {
	return []Engine{Forward{}, Hybrid{}, Hybrid{SharedTable: true}}
}

func TestMaterializeCtxCancelledUpFront(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, e := range ctxEngines() {
		g, rs := bigChain(64)
		n, err := e.MaterializeCtx(ctx, g, rs)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want Canceled", e.Name(), err)
		}
		// A cancelled run may have partial results but must stop early.
		if n == 63*62/2 {
			t.Errorf("%s: cancelled run completed the full closure", e.Name())
		}
	}
}

func TestMaterializeCtxBackgroundMatchesPlain(t *testing.T) {
	for _, e := range ctxEngines() {
		g1, rs := bigChain(32)
		g2 := g1.Clone()
		want := mat(e, g1, rs)
		got, err := e.MaterializeCtx(context.Background(), g2, rs)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if got != want || !g1.Equal(g2) {
			t.Errorf("%s: ctx run diverges from plain run (%d vs %d)", e.Name(), got, want)
		}
	}
}

func TestMaterializeFromCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, e := range ctxEngines() {
		g, rs := bigChain(32)
		seed := g.Triples()[:1]
		if _, err := e.MaterializeFromCtx(ctx, g, rs, seed); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want Canceled", e.Name(), err)
		}
	}
}

// TestFrontierDeltaCtx covers the FrontierDelta incremental path.
func TestFrontierDeltaCtx(t *testing.T) {
	g, rs := bigChain(24)
	Forward{}.Materialize(g, rs)
	dict := rdf.NewDict()
	_ = dict
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	h := Hybrid{FrontierDelta: true}
	if _, err := h.MaterializeFromCtx(ctx, g, rs, g.Triples()[:1]); !errors.Is(err, context.Canceled) {
		t.Fatalf("frontier delta ignored cancellation: %v", err)
	}
}
