package main

import (
	"fmt"
	"sort"

	"powl/internal/rdf"
)

// checkClosure fails unless got and want hold exactly the same set of
// triples; equal counts alone do not pass.
func checkClosure(got, want []rdf.Triple) error {
	g, w := sortedSet(got), sortedSet(want)
	missing, extra := 0, 0
	i, j := 0, 0
	for i < len(g) || j < len(w) {
		switch {
		case j == len(w) || (i < len(g) && g[i].Less(w[j])):
			extra++
			i++
		case i == len(g) || w[j].Less(g[i]):
			missing++
			j++
		default:
			i++
			j++
		}
	}
	if missing+extra > 0 {
		return fmt.Errorf("closure differs from the oracle: %d missing, %d extra (got %d, want %d triples)",
			missing, extra, len(g), len(w))
	}
	return nil
}

// sortedSet returns a sorted, duplicate-free copy of ts.
func sortedSet(ts []rdf.Triple) []rdf.Triple {
	out := append([]rdf.Triple(nil), ts...)
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	n := 0
	for i, t := range out {
		if i == 0 || t != out[n-1] {
			out[n] = t
			n++
		}
	}
	return out[:n]
}

// checkRows fails a read whose row count differs from its calibrated answer.
func checkRows(query string, got, want int) error {
	if got != want {
		return fmt.Errorf("query %s returned %d rows, want %d", query, got, want)
	}
	return nil
}
