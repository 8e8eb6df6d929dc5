// Command nakika-bench does two jobs. It reproduces the figures of the
// paper's Section 5 that no benchmark/ workload can show (Table 2, the
// Section 5.1 cost breakdown and resource controls, Figure 7's wide-area
// model, the Section 5.4 extension sizes), and it writes the deterministic
// results committed under bench/baseline. Timing, throughput and per-layer
// cost are measured by benchmark/run.sh, not here.
//
// Alongside the human-readable tables, each experiment writes a
// machine-readable BENCH_<experiment>.json file (see README.md for the
// format); -json "" disables that.
//
// Usage:
//
//	nakika-bench -experiment all
//	nakika-bench -experiment table2 -iterations 10
//	nakika-bench -experiment figure7 -duration 60s -json results/
//	nakika-bench -experiment replication -json bench/baseline
//
// -experiment takes one name from the experiments table below, or all; any
// other name exits 2.
//
// Each bench/baseline/BENCH_<e>.json is a golden: TestGoldens runs
// experiment <e> at the flags' defaults and requires the file it writes to
// equal the committed one byte for byte. The last usage line above is how a
// golden is rewritten, in the change that moves its numbers and says why.
// The throughput and metrics experiments print allocation counts only;
// their ceilings are tests in internal/state and internal/bench.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"nakika/internal/bench"
)

// options are the flags an experiment may read.
type options struct {
	iterations   int
	duration     time.Duration
	loadDuration time.Duration
	cdf          bool
}

// experiment is one entry of the table: run prints the human-readable
// tables and returns the payload for the BENCH_<name>.json report.
type experiment struct {
	name string
	run  func(o options) (interface{}, error)
}

// experiments is every experiment there is, in the order -experiment all
// runs them: the paper's figures first, then the message, allocation and
// fetch counts.
var experiments = []experiment{
	{"table2", runTable2},
	{"breakdown", runBreakdown},
	{"rescontrol", runResControl},
	{"figure7", runFigure7},
	{"extensions", runExtensions},
	{"replication", runReplication},
	{"offload", runOffload},
	{"lease", runLease},
	{"throughput", runThroughput},
	{"metrics", runMetrics},
	{"largeobject", runLargeObject},
}

// experimentNames lists the table's names, comma-separated, for the usage
// string and the unknown-name error.
func experimentNames() string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	return strings.Join(names, ", ")
}

// selectExperiments resolves the -experiment value: all is the whole table,
// a name is its one entry, anything else is an error naming the valid ones.
func selectExperiments(name string) ([]experiment, error) {
	if name == "all" {
		return experiments, nil
	}
	for _, e := range experiments {
		if e.name == name {
			return []experiment{e}, nil
		}
	}
	return nil, fmt.Errorf("unknown experiment %q (valid: %s, all)", name, experimentNames())
}

// defaultOptions are the flags' defaults, the options the goldens are
// written at.
func defaultOptions() options {
	return options{iterations: 10, duration: 30 * time.Second, loadDuration: 2 * time.Second}
}

func main() {
	o := defaultOptions()
	name := flag.String("experiment", "all", "experiment to run ("+experimentNames()+", all)")
	flag.IntVar(&o.iterations, "iterations", o.iterations, "iterations per micro-benchmark measurement")
	flag.DurationVar(&o.duration, "duration", o.duration, "virtual duration for the wide-area simulation")
	flag.DurationVar(&o.loadDuration, "load-duration", o.loadDuration, "wall-clock duration of each resource-control load test")
	flag.BoolVar(&o.cdf, "cdf", o.cdf, "print full CDF series for figure7")
	jsonDir := flag.String("json", ".", "directory for machine-readable BENCH_*.json results (empty: disabled)")
	flag.Parse()

	selected, err := selectExperiments(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	for _, e := range selected {
		fmt.Printf("=== %s ===\n", e.name)
		data, err := e.run(o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
			os.Exit(1)
		}
		if *jsonDir != "" {
			path, err := bench.WriteBenchJSON(*jsonDir, e.name, data)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: writing JSON: %v\n", e.name, err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", path)
		}
		fmt.Println()
	}
}

func runTable2(o options) (interface{}, error) {
	rows, err := bench.RunTable2(o.iterations)
	if err != nil {
		return nil, err
	}
	fmt.Print(bench.FormatTable2(rows))
	return rows, nil
}

func runBreakdown(o options) (interface{}, error) {
	b, err := bench.RunBreakdown(o.iterations * 10)
	if err != nil {
		return nil, err
	}
	fmt.Print(bench.FormatBreakdown(b))
	return b, nil
}

func runResControl(o options) (interface{}, error) {
	type row struct {
		Name     string
		Controls bool
		Hog      bool
		bench.LoadResult
	}
	var rows []row
	for _, tc := range []struct {
		clients  int
		controls bool
		hog      bool
		name     string
	}{
		{30, false, false, "30 clients, no controls"},
		{30, true, false, "30 clients, with controls"},
		{90, false, false, "90 clients, no controls"},
		{90, true, false, "90 clients, with controls"},
		{30, false, true, "30 clients + hog, no controls"},
		{30, true, true, "30 clients + hog, with controls"},
	} {
		res, err := bench.RunResourceControls(tc.clients, tc.controls, tc.hog, o.loadDuration)
		if err != nil {
			return nil, err
		}
		fmt.Print(bench.FormatLoad(tc.name, res))
		rows = append(rows, row{Name: tc.name, Controls: tc.controls, Hog: tc.hog, LoadResult: res})
	}
	return rows, nil
}

func runFigure7(o options) (interface{}, error) {
	results := bench.RunFigure7(o.duration)
	for _, r := range results {
		fmt.Print(bench.FormatSIMM(r))
	}
	if o.cdf {
		for _, r := range results {
			fmt.Print(bench.FormatSIMMCDF(r))
		}
	}
	return results, nil
}

func runExtensions(options) (interface{}, error) {
	exts := bench.Extensions()
	fmt.Print(bench.FormatExtensions(exts))
	return exts, nil
}

func runReplication(o options) (interface{}, error) {
	rows, err := bench.RunReplicationCost([]int{1, 2, 3, 5}, o.iterations*20)
	if err != nil {
		return nil, err
	}
	fmt.Print(bench.FormatReplication(rows))
	return rows, nil
}

func runOffload(options) (interface{}, error) {
	r, err := bench.RunOffload()
	if err != nil {
		return nil, err
	}
	fmt.Print(bench.FormatOffload(r))
	return r, nil
}

func runLease(options) (interface{}, error) {
	r, err := bench.RunLease()
	if err != nil {
		return nil, err
	}
	fmt.Print(bench.FormatLease(r))
	return r, nil
}

func runThroughput(options) (interface{}, error) {
	r, err := bench.RunThroughput()
	if err != nil {
		return nil, err
	}
	fmt.Print(bench.FormatThroughput(r))
	return r, nil
}

func runMetrics(options) (interface{}, error) {
	r, err := bench.RunMetricsCost()
	if err != nil {
		return nil, err
	}
	fmt.Print(bench.FormatMetricsCost(r))
	return r, nil
}

func runLargeObject(options) (interface{}, error) {
	r, err := bench.RunLargeObject()
	if err != nil {
		return nil, err
	}
	fmt.Print(bench.FormatLargeObject(r))
	return r, nil
}
