package state

import (
	"runtime"
	"testing"
)

// raceEnabled is set by race_test.go.
var raceEnabled bool

// The binary codec's allocation count is a tier-1 ceiling: a change that
// quietly reintroduces per-field boxing or reflection fails here.

func TestRecCodecAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the ceilings are measured without the race detector")
	}
	rec := Rec{
		Site:   "match.example.org",
		Key:    "user:arthur",
		Ver:    7,
		Origin: "edge-3",
		Value:  `{"name":"Arthur","quality":"novice","region":"nyc"}`,
	}
	roundTrip := func() {
		out, err := DecodeRec(EncodeRec(rec))
		if err != nil || out != rec {
			t.Fatalf("round trip: %+v, %v", out, err)
		}
	}
	const runs = 10_000
	allocs := testing.AllocsPerRun(runs, roundTrip)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		roundTrip()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	// Measured on go1.24 amd64: 5 allocations (the encode buffer plus the
	// decoded record's four strings) and 240 B, the ceilings, in whole
	// allocations and whole bytes. Gob cost ~194 allocs on this payload.
	if allocs > 5 || bytes > 240 {
		t.Errorf("Rec round trip costs %.0f allocs and %d B per op, ceiling 5 and 240 B", allocs, bytes)
	}
}
