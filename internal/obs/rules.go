package obs

import (
	"context"
	"sort"
	"sync"
	"time"
)

// RuleStats is one rule's cumulative execution profile.
//
//   - Firings: head instantiations emitted (pre-deduplication — a firing
//     whose conclusion already existed still counts, because its join work
//     was still paid).
//   - Matches: complete body matches (successful joins reaching the head).
//   - Time: cumulative wall time attributed to the rule. Forward
//     attributes the triple-driven activation work per rule exactly; the
//     hybrid engine attributes each outermost resolution (nested SLD
//     subgoals stay within the rule that opened them), so times partition
//     the engine's rule-evaluation time in both engines.
type RuleStats struct {
	Firings int64
	Matches int64
	Time    time.Duration

	// Provenance-era split of Firings: Derived counts firings whose
	// conclusion was new to the graph, Duplicate those whose conclusion
	// already existed (wasted join work — the re-derivation signal the
	// paper's duplicate-elimination discussion cares about). Engines only
	// tally these when provenance recording is on, so Derived+Duplicate
	// may be less than Firings across a mixed run.
	Derived   int64
	Duplicate int64
}

// RuleCollector accumulates per-rule profiles across materialize calls.
// Engines flush one locally-tallied batch per call, so the mutex is taken
// once per materialization, not per firing. All methods are nil-safe.
type RuleCollector struct {
	mu sync.Mutex
	m  map[string]*RuleStats
}

// Record merges one rule's tallied batch into the collector.
func (c *RuleCollector) Record(name string, firings, matches int64, d time.Duration) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = map[string]*RuleStats{}
	}
	s := c.m[name]
	if s == nil {
		s = &RuleStats{}
		c.m[name] = s
	}
	s.Firings += firings
	s.Matches += matches
	s.Time += d
}

// RecordDerived merges one rule's derived/duplicate tallies (provenance
// attribution) into the collector.
func (c *RuleCollector) RecordDerived(name string, derived, duplicate int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = map[string]*RuleStats{}
	}
	s := c.m[name]
	if s == nil {
		s = &RuleStats{}
		c.m[name] = s
	}
	s.Derived += derived
	s.Duplicate += duplicate
}

// Snapshot returns a copy of the accumulated per-rule profiles.
func (c *RuleCollector) Snapshot() map[string]RuleStats {
	out := map[string]RuleStats{}
	if c == nil {
		return out
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for name, s := range c.m {
		out[name] = *s
	}
	return out
}

// RuleProfile is one rule's profile with its name attached, for sorting.
type RuleProfile struct {
	Name string
	RuleStats
}

// TopRules returns the rules sorted by descending cumulative time
// (firings, then name, break ties), truncated to k (k <= 0 = all).
func TopRules(m map[string]RuleStats, k int) []RuleProfile {
	out := make([]RuleProfile, 0, len(m))
	for name, s := range m {
		out = append(out, RuleProfile{Name: name, RuleStats: s})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Time != out[j].Time {
			return out[i].Time > out[j].Time
		}
		if out[i].Firings != out[j].Firings {
			return out[i].Firings > out[j].Firings
		}
		return out[i].Name < out[j].Name
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

type rulesCtxKey struct{}

// ContextWithRules attaches a rule collector to ctx; engines pick it up in
// MaterializeCtx. Attaching nil returns ctx unchanged, so callers can pass
// through a disabled observer without branching.
func ContextWithRules(ctx context.Context, c *RuleCollector) context.Context {
	if c == nil {
		return ctx
	}
	return context.WithValue(ctx, rulesCtxKey{}, c)
}

// RulesFrom returns the rule collector attached to ctx, or nil. Engines
// call this once per materialization — the disabled cost is one context
// lookup per call, not per rule firing.
func RulesFrom(ctx context.Context) *RuleCollector {
	c, _ := ctx.Value(rulesCtxKey{}).(*RuleCollector)
	return c
}
