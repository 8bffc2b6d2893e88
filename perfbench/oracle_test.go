package main

import (
	"testing"

	"powl/internal/rdf"
)

func TestCheckClosureIsSetEquality(t *testing.T) {
	want := []rdf.Triple{{S: 1, P: 2, O: 3}, {S: 1, P: 2, O: 4}, {S: 5, P: 2, O: 3}}
	same := []rdf.Triple{want[2], want[0], want[1], want[0]}
	if err := checkClosure(same, want); err != nil {
		t.Fatalf("reordered, duplicated copy rejected: %v", err)
	}
	cases := map[string][]rdf.Triple{
		"missing":          want[:2],
		"extra":            append(append([]rdf.Triple(nil), want...), rdf.Triple{S: 9, P: 9, O: 9}),
		"same count, swap": {want[0], want[1], {S: 5, P: 2, O: 4}},
		"empty":            nil,
	}
	for name, got := range cases {
		if err := checkClosure(got, want); err == nil {
			t.Errorf("%s: wrong closure accepted", name)
		}
	}
}

func TestCheckRows(t *testing.T) {
	if err := checkRows("q", 7, 7); err != nil {
		t.Fatal(err)
	}
	if err := checkRows("q", 6, 7); err == nil {
		t.Fatal("wrong row count accepted")
	}
}
