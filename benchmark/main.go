// Command benchmark is Na Kika's end-to-end benchmark: five workloads
// driven over real loopback sockets against real nakikad and
// nakika-origin processes, reporting the end-to-end metrics and a
// per-layer ledger. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	workloadName := flag.String("workload", "", "run one workload and end with the one-line JSON result; empty runs all five, untraced then per-layer")
	seed := flag.Int64("seed", 1, "seed of the generated op sequences; the only input that changes them")
	seconds := flag.Int("seconds", runSeconds, "nominal length of the measured window; the window is a fixed opsPerSecond x seconds sequence")
	traceFlag := flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
	selfcheck := flag.Int("selfcheck", 0, "run the untraced benchmark N times and print each metric's spread against its bound")
	rootFlag := flag.String("root", "", "repository checkout to build and measure (default: found from the working directory)")
	outFlag := flag.String("out", "", "directory for trace-<workload>.json (default: <root>/.bench_build/out)")
	printJSON := flag.Bool("benchmark-json", false, "print BENCHMARK.json as the workload table and metric lists define it, and exit")
	flag.Parse()
	if *printJSON {
		os.Stdout.Write(benchmarkJSON())
		return 0
	}
	if err := pinSelf(); err != nil {
		// Measuring unpinned is noisier, not wrong.
		fmt.Fprintln(os.Stderr, "benchmark: cannot pin to a CPU:", err)
		sutCPU, loadCPU = -1, -1
	}
	// The generator and the in-process passes run with the same fixed
	// runtime settings whatever the caller's environment says.
	runtime.GOMAXPROCS(loadConnections)
	debug.SetGCPercent(100)
	debug.SetMemoryLimit(math.MaxInt64)

	root, err := findRoot(*rootFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	buildDir := filepath.Join(root, ".bench_build")
	workDir, err := os.MkdirTemp(mkdirAll(buildDir), "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	cleanup := func() {
		killAllChildren()
		os.RemoveAll(workDir)
	}
	defer cleanup()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		cleanup()
		os.Exit(130)
	}()

	bins, buildTook, err := buildBinaries(root, mkdirAll(filepath.Join(buildDir, "bin")))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	cfg := runConfig{start: processStarter(bins), workDir: workDir, outDir: *outFlag, seed: *seed, seconds: *seconds}
	if cfg.outDir == "" {
		cfg.outDir = filepath.Join(buildDir, "out")
	}
	fmt.Printf("go build of cmd/nakikad and cmd/nakika-origin: %.2f s (not part of setup_s)\n", buildTook.Seconds())
	if sutCPU >= 0 {
		fmt.Printf("nakikad processes on CPU %d; generator, origin and in-process passes on CPU %d\n", sutCPU, loadCPU)
	} else {
		fmt.Println("fewer than two usable CPUs: nothing is pinned, expect run-to-run spread")
	}

	switch {
	case *selfcheck > 0:
		return runSelfcheck(cfg, *selfcheck)
	case *workloadName != "":
		w := workloadByName(*workloadName)
		if w == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workloadName)
			return 2
		}
		cfg.setups, cfg.layers = measuredSetups, *traceFlag != 0
		if cfg.layers {
			// No per-layer metric needs setup_s; the time goes to the passes.
			cfg.setups = 1
		}
		res, err := runWorkload(cfg, w)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		specs := endToEnd
		if cfg.layers {
			specs = perLayer
		}
		printReport(res, specs)
		fmt.Println(resultLine(res, specs))
		if !res.correct() {
			return 1
		}
		return 0
	default:
		cfg.setups, cfg.layers = measuredSetups, true
		status := 0
		for _, w := range workloads {
			res, err := runWorkload(cfg, w)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			printReport(res, append(append([]metricSpec(nil), endToEnd...), perLayer...))
			if !res.correct() {
				status = 1
			}
		}
		return status
	}
}

// findRoot locates the checkout: the given directory, or the nearest
// ancestor of the working directory that holds cmd/nakikad.
func findRoot(given string) (string, error) {
	if given != "" {
		return filepath.Abs(given)
	}
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if st, err := os.Stat(filepath.Join(dir, "cmd", "nakikad")); err == nil && st.IsDir() {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no checkout with cmd/nakikad at or above the working directory; pass -root")
		}
		dir = parent
	}
}

func mkdirAll(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	return dir
}

// printReport prints one workload's metrics by name with units, the
// sample count and the attempted/failed counts.
func printReport(res runResult, specs []metricSpec) {
	fmt.Printf("\n== %s: attempted %d, failed %d, correct %v ==\n", res.workload, res.attempted, res.failed, res.correct())
	for _, note := range res.notes {
		fmt.Println("  " + note)
	}
	for _, s := range specs {
		v, ok := res.metrics[s.name]
		if !ok {
			continue
		}
		bound := ""
		if s.bound > 0 {
			bound = fmt.Sprintf(" (better: %s, bound %.0f%%)", s.better, 100*s.bound)
		}
		fmt.Printf("  %-34s %14.4f %-5s%s  # %s\n", s.name, v, s.unit, bound, s.what)
	}
	for _, p := range res.problems {
		fmt.Println("  PROBLEM: " + p)
	}
}

// resultLine is the one-line JSON object the driver reads: exactly the
// keys correct, attempted, failed and metrics, the metrics being every
// one of specs.
func resultLine(res runResult, specs []metricSpec) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(specs))
	var missing []string
	for _, s := range specs {
		v, ok := res.metrics[s.name]
		if !ok {
			missing = append(missing, s.name)
		}
		metrics[s.name] = value{Value: v, Unit: s.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		panic("benchmark: metrics never measured: " + strings.Join(missing, ", "))
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct(), res.attempted, res.failed, metrics})
	if err != nil {
		panic(err)
	}
	return string(line)
}
