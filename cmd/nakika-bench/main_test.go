package main

import (
	"strings"
	"testing"
)

func TestSelectExperiments(t *testing.T) {
	all, err := selectExperiments("all")
	if err != nil || len(all) != len(experiments) {
		t.Fatalf("all selected %d of %d experiments (err=%v)", len(all), len(experiments), err)
	}
	seen := make(map[string]bool)
	for _, e := range experiments {
		if e.name == "all" || seen[e.name] {
			t.Errorf("experiment name %q is reserved or listed twice", e.name)
		}
		seen[e.name] = true
		one, err := selectExperiments(e.name)
		if err != nil || len(one) != 1 || one[0].name != e.name {
			t.Errorf("selecting %q gave %v (err=%v)", e.name, one, err)
		}
	}
	// A misspelt name, and one that used to exist, run nothing and say so.
	for _, name := range []string{"replicaton", "capacity", ""} {
		got, err := selectExperiments(name)
		if err == nil || got != nil {
			t.Errorf("selecting %q gave %v, want an error", name, got)
		} else if !strings.Contains(err.Error(), "replication") {
			t.Errorf("error for %q does not list the valid names: %v", name, err)
		}
	}
}
