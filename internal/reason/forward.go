package reason

import (
	"context"
	"time"

	"powl/internal/obs"
	"powl/internal/rdf"
	"powl/internal/rules"
)

// Forward is the semi-naive bottom-up datalog engine. Each round joins the
// previous round's delta against the full graph, so every derivation is
// performed once; rounds continue until no new triples appear.
type Forward struct {
	// Threads fans rule firing out over this many goroutines inside one
	// materialization (see parallel.go): the compiled rule set is stratified
	// into dependency pieces and each stratum's delta is fired across
	// per-goroutine scratches and staging shards, merged back through the
	// single-writer commit so the graph's MVCC publication invariants hold.
	// 0 or 1 selects the serial loop. The closure (and, with provenance on,
	// the derived-triple set) is identical to the serial run; only firing
	// order may differ.
	Threads int
}

// Name implements Engine.
func (Forward) Name() string { return "forward" }

// trigger marks that a delta triple with a given predicate may instantiate
// body atom atomIdx of rule.
type trigger struct {
	rule    *cRule
	atomIdx int
}

// Materialize is MaterializeCtx without cancellation, for callers that close
// a graph outside any run. The rule set must be executable (ValidateRules):
// with no error to return, an invalid set panics here — callers that accept
// rules from outside validate first.
func (f Forward) Materialize(g *rdf.Graph, rs []rules.Rule) int {
	n, err := f.materialize(context.Background(), g, rs, g.Triples())
	if err != nil {
		panic(err)
	}
	return n
}

// MaterializeCtx implements Engine: the semi-naive loop checks ctx
// between rounds and between delta triples, so cancellation lands within
// one rule firing.
func (f Forward) MaterializeCtx(ctx context.Context, g *rdf.Graph, rs []rules.Rule) (int, error) {
	return f.materialize(ctx, g, rs, g.Triples())
}

// materialize runs semi-naive evaluation with the given initial delta.
//
//powl:ignore wallclock per-rule profiling accumulates real durations into RuleStats; disabled entirely when no collector is attached.
func (f Forward) materialize(ctx context.Context, g *rdf.Graph, rs []rules.Rule, delta []rdf.Triple) (int, error) {
	if f.Threads > 1 {
		return f.materializeParallel(ctx, g, rs, delta)
	}
	crs, err := compileRules(rs)
	if err != nil {
		return 0, err
	}
	prof := newRuleProf(ctx, crs)
	defer prof.flush()

	// Index body atoms by their predicate constant so that a delta triple
	// only visits rules it can trigger. Atoms with a variable predicate go
	// into the wildcard list.
	byPred := map[rdf.ID][]trigger{}
	var anyPred []trigger
	for i := range crs {
		r := &crs[i]
		for j, a := range r.body {
			if a.p.isVar {
				anyPred = append(anyPred, trigger{r, j})
			} else {
				byPred[a.p.id] = append(byPred[a.p.id], trigger{r, j})
			}
		}
	}

	added := 0
	sc := newScratch(crs)
	// pending is the round's dedup buffer, reused (cleared, not reallocated)
	// across semi-naive rounds so the steady state allocates nothing per
	// round beyond genuine map growth.
	pending := map[rdf.Triple]struct{}{}
	emit := func(t rdf.Triple) {
		if !g.Has(t) {
			pending[t] = struct{}{}
		}
	}

	// When the graph records provenance, swap in an emit that captures the
	// firing rule and its premises (held in the scratch by fireOn/joinRest)
	// and tallies the derived/duplicate split. The disabled path above is
	// untouched: with prov == nil the join path runs exactly as before, so
	// it stays zero-alloc per delta triple.
	prov := g.Prov()
	var (
		sampler           *obs.DeriveSampler
		provIDs           []uint16
		pendProv, pendAlt map[rdf.Triple]pendDeriv
		derivedOf, dupOf  []int64
	)
	if prov != nil {
		sampler = obs.DerivesFrom(ctx)
		provIDs = make([]uint16, len(crs))
		for i := range crs {
			provIDs[i] = prov.RuleID(crs[i].name)
		}
		pendProv = map[rdf.Triple]pendDeriv{}
		pendAlt = map[rdf.Triple]pendDeriv{}
		derivedOf = make([]int64, len(crs))
		dupOf = make([]int64, len(crs))
		sc.rec = true
		emit = func(t rdf.Triple) {
			if g.Has(t) {
				dupOf[sc.cur.idx]++
				// A duplicate firing is an independent derivation of an
				// already-present triple. Record the first one observed as the
				// triple's alternate — the counting-style fast path Retract
				// consults — resolving premise offsets now, while the premises
				// are guaranteed present. Steady state this costs two map
				// lookups per duplicate; RecordAlt keeps only the first.
				if np := len(sc.cur.body); np <= len(sc.prem) {
					if off, ok := g.Offset(t); ok {
						if _, have := prov.AltAt(off); !have {
							d := rdf.Derivation{
								Rule: provIDs[sc.cur.idx],
								Prem: [3]uint32{rdf.NoPremise, rdf.NoPremise, rdf.NoPremise},
							}
							for i := 0; i < np; i++ {
								if p, ok := g.Offset(sc.prem[i]); ok {
									d.Prem[i] = p
								}
							}
							prov.RecordAlt(off, d)
						}
					}
				}
				return
			}
			if _, ok := pending[t]; ok {
				dupOf[sc.cur.idx]++
				// Same-round duplicate: the triple has no offset yet, so
				// buffer this firing's premises and record the alternate at
				// the round flush, once the primary insert assigns one.
				if _, have := pendAlt[t]; !have && len(sc.cur.body) <= len(sc.prem) {
					pd := pendDeriv{rule: sc.cur}
					np := len(sc.cur.body)
					copy(pd.prem[:np], sc.prem[:np])
					pd.np = uint8(np)
					pendAlt[t] = pd
				}
				return
			}
			pending[t] = struct{}{}
			pd := pendDeriv{rule: sc.cur}
			np := len(sc.cur.body)
			if np > len(pd.prem) {
				np = len(pd.prem)
			}
			copy(pd.prem[:np], sc.prem[:np])
			pd.np = uint8(np)
			pendProv[t] = pd
		}
	}

	round := 0
	for len(delta) > 0 {
		round++
		if err := ctx.Err(); err != nil {
			return added, err
		}
		for i, t := range delta {
			if i&1023 == 1023 {
				if err := ctx.Err(); err != nil {
					return added, err
				}
			}
			if prof == nil {
				for _, tr := range byPred[t.P] {
					fireOn(g, sc, tr, t, emit)
				}
				for _, tr := range anyPred {
					fireOn(g, sc, tr, t, emit)
				}
			} else {
				// Chained timestamps: consecutive activations share one
				// clock read, so profiling costs one time.Now per fireOn
				// instead of two.
				t0 := time.Now()
				for _, tr := range byPred[t.P] {
					m, f := fireOn(g, sc, tr, t, emit)
					t1 := time.Now()
					prof.add(tr.rule.idx, f, m, t1.Sub(t0))
					t0 = t1
				}
				for _, tr := range anyPred {
					m, f := fireOn(g, sc, tr, t, emit)
					t1 := time.Now()
					prof.add(tr.rule.idx, f, m, t1.Sub(t0))
					t0 = t1
				}
			}
		}
		delta = delta[:0]
		if prov == nil {
			for t := range pending {
				// AddDerived rather than Add: even without provenance records
				// the graph tracks which offsets are engine-derived, which is
				// what lets Retract fall back to delete-and-rematerialize.
				if g.AddDerived(t, rdf.Derivation{}) {
					delta = append(delta, t)
					added++
				}
			}
		} else {
			// Premises were graph triples at fire time, so every offset
			// resolves; the derived triple lands above them in the log,
			// which is what keeps Explain's premise walk acyclic.
			r16 := uint16(round)
			if round > int(^uint16(0)) {
				r16 = ^uint16(0)
			}
			for t := range pending {
				pd := pendProv[t]
				d := rdf.Derivation{
					Rule:  provIDs[pd.rule.idx],
					Round: r16,
					Prem:  [3]uint32{rdf.NoPremise, rdf.NoPremise, rdf.NoPremise},
				}
				for i := 0; i < int(pd.np); i++ {
					if off, ok := g.Offset(pd.prem[i]); ok {
						d.Prem[i] = off
					}
				}
				if g.AddDerived(t, d) {
					delta = append(delta, t)
					added++
					derivedOf[pd.rule.idx]++
					if sampler != nil {
						if off, ok := g.Offset(t); ok {
							sampler.Sample(pd.rule.name, round, off)
						}
					}
					if pa, ok := pendAlt[t]; ok {
						if off, ok := g.Offset(t); ok {
							ad := rdf.Derivation{
								Rule:  provIDs[pa.rule.idx],
								Round: r16,
								Prem:  [3]uint32{rdf.NoPremise, rdf.NoPremise, rdf.NoPremise},
							}
							for i := 0; i < int(pa.np); i++ {
								if p, ok := g.Offset(pa.prem[i]); ok {
									ad.Prem[i] = p
								}
							}
							prov.RecordAlt(off, ad)
						}
					}
				}
			}
			clear(pendProv)
			clear(pendAlt)
		}
		clear(pending)
	}
	if prov != nil {
		for i := range crs {
			if derivedOf[i] != 0 || dupOf[i] != 0 {
				prof.addDerived(i, derivedOf[i], dupOf[i])
			}
		}
	}
	return added, nil
}

// pendDeriv is a pending triple's provenance, buffered until the round's
// flush resolves the premise triples to their log offsets: the rule that
// first produced it plus its (body-atom-ordered, truncated-at-three)
// premises.
type pendDeriv struct {
	rule *cRule
	prem [3]rdf.Triple
	np   uint8
}

// scratch holds the reusable join buffers of one materialization: a binding
// environment sized for the widest rule and a rest-atom order buffer sized
// for the longest body. fireOn re-slices them per rule, so the steady-state
// join path performs no per-firing allocations.
//
// When rec is set (the owning graph records provenance), fireOn and
// joinRest additionally track the firing rule and the triples bound to the
// first three body atoms, so emit can read the premises of the current
// firing straight out of the scratch — still no per-firing allocation.
//
// The buffers are reused across firings with no synchronization, so a
// scratch must never be visible to two goroutines: the parallel fire loop
// creates one per worker inside the goroutine (see fireShard), and owlvet's
// sharedscratch analyzer enforces the confinement via the directive below.
//
//powl:goroutinelocal
type scratch struct {
	env  env
	rest []int
	rec  bool
	cur  *cRule
	prem [3]rdf.Triple
}

func newScratch(crs []cRule) *scratch {
	maxSlot, maxBody := 1, 1
	for i := range crs {
		if crs[i].nslot > maxSlot {
			maxSlot = crs[i].nslot
		}
		if len(crs[i].body) > maxBody {
			maxBody = len(crs[i].body)
		}
	}
	return &scratch{env: make(env, maxSlot), rest: make([]int, 0, maxBody)}
}

// fireOn seeds rule tr.rule with delta triple t at body position tr.atomIdx,
// joins the remaining body atoms against the full graph, and emits every
// resulting head instantiation. It reports the complete body matches and
// head emissions it produced, for the per-rule profile.
//
//powl:allocfree steady-state join path: all scratch comes from sc
func fireOn(g *rdf.Graph, sc *scratch, tr trigger, t rdf.Triple, emit func(rdf.Triple)) (matches, firings int64) {
	r := tr.rule
	e := sc.env[:r.nslot]
	for i := range e {
		e[i] = 0
	}
	if _, ok := e.bindTriple(r.body[tr.atomIdx], t); !ok {
		return 0, 0
	}
	if sc.rec {
		sc.cur = r
		sc.prem = [3]rdf.Triple{}
		if tr.atomIdx < len(sc.prem) {
			sc.prem[tr.atomIdx] = t
		}
	}
	rest := sc.rest[:0]
	for i := range r.body {
		if i != tr.atomIdx {
			rest = append(rest, i)
		}
	}
	joinRest(g, sc, r, rest, e, func() {
		matches++
		for _, h := range r.head {
			firings++
			emit(e.instantiate(h))
		}
	})
	return matches, firings
}

// joinRest extends e over the body atoms listed in rest (indices into
// r.body), calling yield for every complete assignment. At each step it
// picks the remaining atom with the smallest index cardinality under the
// current bindings (CountMatch is O(1) for every pattern the OWL-Horst
// bodies produce), which starts each join from its most selective extent —
// the rule-body ordering RORS and the dynamic-exchange Datalog stores
// attribute their throughput to. Selection reorders rest in place, so the
// whole join runs on the caller's scratch buffer with no per-level copies.
//
//powl:allocfree the innermost loop of every engine
func joinRest(g *rdf.Graph, sc *scratch, r *cRule, rest []int, e env, yield func()) {
	if len(rest) == 0 {
		yield()
		return
	}
	best, bestCount := 0, -1
	for i, ai := range rest {
		a := r.body[ai]
		n := g.CountMatch(e.resolve(a.s), e.resolve(a.p), e.resolve(a.o))
		if bestCount < 0 || n < bestCount {
			best, bestCount = i, n
			if n == 0 {
				// An empty extent annihilates the join; no need to rank the
				// other atoms.
				return
			}
		}
	}
	rest[0], rest[best] = rest[best], rest[0]
	ai := rest[0]
	a := r.body[ai]
	tail := rest[1:]
	g.ForEachMatch(e.resolve(a.s), e.resolve(a.p), e.resolve(a.o), func(t rdf.Triple) bool {
		if bound, ok := e.bindTriple(a, t); ok {
			if sc.rec && ai < len(sc.prem) {
				// Premises are keyed by body-atom index, not join order:
				// the selectivity reorder above shuffles rest, and the
				// round-trip verifier re-binds premises to body atoms.
				sc.prem[ai] = t
			}
			joinRest(g, sc, r, tail, e, yield)
			e.unbind(bound)
		}
		return true
	})
}

// Closure is a convenience wrapper: it clones g, materializes it under rs
// with the forward engine, and returns the closed graph, leaving g intact.
func Closure(g *rdf.Graph, rs []rules.Rule) *rdf.Graph {
	c := g.Clone()
	Forward{}.Materialize(c, rs)
	return c
}
