package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"nakika/internal/bench"
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

// TestGoldens runs every experiment bench/baseline holds a file for, at the
// flags' defaults, and requires the file it writes to equal the committed one
// byte for byte. The experiments gated are the files: a count that moves, in
// either direction, fails here until the change that moves it rewrites the
// file (nakika-bench -experiment <e> -json bench/baseline) and says why.
func TestGoldens(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "bench", "baseline", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("bench/baseline holds no BENCH_*.json")
	}
	for _, path := range paths {
		name := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "BENCH_"), ".json")
		t.Run(name, func(t *testing.T) {
			selected, err := selectExperiments(name)
			if err != nil {
				t.Fatal(err)
			}
			data, err := selected[0].run(defaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := bench.WriteBenchJSON(t.TempDir(), name, data)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(fresh)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(want, got) {
				return
			}
			diffs := jsonDiff("data", decodeData(t, want), decodeData(t, got))
			if len(diffs) == 0 {
				diffs = []string{"the fields are equal but the bytes differ"}
			}
			t.Errorf("%s differs from a fresh run:\n  %s", filepath.Base(path), strings.Join(diffs, "\n  "))
		})
	}
}

// decodeData returns a BENCH_*.json file's data, with its numbers kept as
// written.
func decodeData(t *testing.T, b []byte) interface{} {
	t.Helper()
	var report struct{ Data interface{} }
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	if err := dec.Decode(&report); err != nil {
		t.Fatal(err)
	}
	return report.Data
}

// jsonDiff lists every field at or under path whose committed value, want,
// differs from the fresh one, got.
func jsonDiff(path string, want, got interface{}) []string {
	switch w := want.(type) {
	case map[string]interface{}:
		g, ok := got.(map[string]interface{})
		if !ok {
			break
		}
		keys := make([]string, 0, len(w)+len(g))
		for k := range w {
			keys = append(keys, k)
		}
		for k := range g {
			if _, ok := w[k]; !ok {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		var diffs []string
		for _, k := range keys {
			wv, inWant := w[k]
			gv, inGot := g[k]
			switch {
			case !inGot:
				diffs = append(diffs, fmt.Sprintf("%s.%s: committed %v, no longer written", path, k, wv))
			case !inWant:
				diffs = append(diffs, fmt.Sprintf("%s.%s: written %v, not committed", path, k, gv))
			default:
				diffs = append(diffs, jsonDiff(path+"."+k, wv, gv)...)
			}
		}
		return diffs
	case []interface{}:
		g, ok := got.([]interface{})
		if !ok {
			break
		}
		var diffs []string
		if len(w) != len(g) {
			diffs = append(diffs, fmt.Sprintf("%s: committed %d entries, written %d", path, len(w), len(g)))
		}
		for i := 0; i < len(w) && i < len(g); i++ {
			diffs = append(diffs, jsonDiff(fmt.Sprintf("%s[%d]", path, i), w[i], g[i])...)
		}
		return diffs
	}
	if reflect.DeepEqual(want, got) {
		return nil
	}
	return []string{fmt.Sprintf("%s: committed %v, written %v", path, want, got)}
}
