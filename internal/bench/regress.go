package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// The bench-regression gate. CI runs nakika-bench with -baseline pointed
// at the committed bench/baseline/ directory; every tracked metric of the
// freshly produced BENCH_*.json files is compared against the committed
// one and the run fails when any regresses by more than the threshold.
//
// Only metrics that are deterministic on the simulated transport's
// virtual clock and message counters are tracked — wall-clock throughput
// differs between a laptop and a shared CI runner, but virtual-time and
// message-count costs are bit-identical everywhere, so a >20% change is
// always a real algorithmic regression, never noise. All tracked metrics
// are lower-is-better.

// Regression is one tracked metric that got worse than the threshold
// allows.
type Regression struct {
	File     string
	Metric   string
	Baseline float64
	Fresh    float64
}

func (r Regression) String() string {
	pct := 0.0
	if r.Baseline != 0 {
		pct = (r.Fresh - r.Baseline) / r.Baseline * 100
	}
	return fmt.Sprintf("%s: %s regressed %+.1f%% (baseline %.3f, now %.3f)", r.File, r.Metric, pct, r.Baseline, r.Fresh)
}

// rawReport mirrors JSONReport with the payload left unparsed, so each
// experiment's extractor can decode its own result type.
type rawReport struct {
	Experiment string          `json:"experiment"`
	Data       json.RawMessage `json:"data"`
}

// TrackedMetrics extracts the gated metric values from one experiment's
// report payload. Experiments without deterministic metrics return nil —
// their JSON is still archived as a trajectory, just not gated.
func TrackedMetrics(experiment string, data json.RawMessage) (map[string]float64, error) {
	switch experiment {
	case "replication":
		var rows []ReplicationResult
		if err := json.Unmarshal(data, &rows); err != nil {
			return nil, err
		}
		m := make(map[string]float64)
		for _, r := range rows {
			p := fmt.Sprintf("k%d.", r.Factor)
			m[p+"write_msgs_per_op"] = r.WriteMsgsPerOp
			m[p+"write_virtual_ns_per_op"] = float64(r.WriteVirtualPerOp)
			m[p+"read_msgs_per_op"] = r.ReadMsgsPerOp
			m[p+"read_virtual_ns_per_op"] = float64(r.ReadVirtualPerOp)
			m[p+"failover_msgs_per_op"] = r.FailoverMsgsPerOp
			m[p+"failover_virtual_ns_per_op"] = float64(r.FailoverVirtualPerOp)
		}
		return m, nil
	case "offload":
		var r OffloadResult
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, err
		}
		return map[string]float64{
			"spread_max_over_mean":       r.SpreadMaxOverMean,
			"request_p99_virtual_ns":     float64(r.RequestP99Virtual),
			"hedged_read_p99_virtual_ns": float64(r.HedgedReadP99Virtual),
		}, nil
	case "lease":
		var r LeaseResult
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, err
		}
		return map[string]float64{
			"acquire_msgs_per_op":            r.AcquireMsgsPerOp,
			"acquire_virtual_ns_per_op":      float64(r.AcquireVirtualPerOp),
			"fenced_write_msgs_per_op":       r.FencedWriteMsgsPerOp,
			"fenced_write_virtual_ns_per_op": float64(r.FencedWriteVirtualPerOp),
			"crash_handover_msgs":            r.CrashHandoverMsgs,
			"crash_handover_virtual_ns":      float64(r.CrashHandoverVirtual),
			"expiry_handover_msgs":           r.ExpiryHandoverMsgs,
			"expiry_handover_virtual_ns":     float64(r.ExpiryHandoverVirtual),
		}, nil
	case "throughput":
		// Only the allocation counters are gated hard: for a fixed Go
		// toolchain they are deterministic, so a >threshold change is a
		// real hot-path regression.
		var r ThroughputResult
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, err
		}
		return map[string]float64{
			"codec_binary_allocs_per_op": r.CodecBinary.AllocsPerOp,
			"codec_binary_bytes_per_op":  r.CodecBinary.BytesPerOp,
			"proxy_allocs_per_op":        r.Proxy.AllocsPerOp,
			"proxy_bytes_per_op":         r.Proxy.BytesPerOp,
		}, nil
	case "metrics":
		// Same rule as throughput: the allocation counters are
		// deterministic per toolchain, so both sides of the
		// observability-plane comparison gate hard, and the enabled side
		// regressing past threshold means the plane's hot-path cost grew.
		var r MetricsCostResult
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, err
		}
		return map[string]float64{
			"enabled_allocs_per_op":  r.Enabled.AllocsPerOp,
			"enabled_bytes_per_op":   r.Enabled.BytesPerOp,
			"disabled_allocs_per_op": r.Disabled.AllocsPerOp,
			"disabled_bytes_per_op":  r.Disabled.BytesPerOp,
		}, nil
	case "largeobject":
		// The fetch counters are exact: the experiment replays a fixed
		// request sequence single-threaded, so these counts are properties
		// of the tier's algorithms (single-flight ingest, residency checks,
		// LRU slot reuse) and gate hard. The "warm" counters are stored as
		// count+1 because their correct value is zero origin fetches and a
		// zero baseline cannot be ratioed.
		var r LargeObjectResult
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, err
		}
		return map[string]float64{
			"cold_origin_full_fetches":        float64(r.ColdOriginFullFetches),
			"warm_origin_fetches_plus1":       float64(r.WarmOriginFetchesPlus1),
			"warm_range_origin_fetches_plus1": float64(r.WarmRangeOriginFetchesPlus1),
			"evicted_range_refetches":         float64(r.EvictedRangeRefetches),
		}, nil
	default:
		return nil, nil
	}
}

// loadMetrics reads a BENCH_*.json file and extracts its tracked metrics.
func loadMetrics(path string) (map[string]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep rawReport
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return TrackedMetrics(rep.Experiment, rep.Data)
}

// CompareBenchDirs gates freshDir against baselineDir: every tracked
// metric of every BENCH_*.json in the baseline must exist in the fresh
// results and be no more than threshold (fractional, e.g. 0.20) above it.
// It returns the regressions (a missing fresh metric counts as one) and
// human-readable notes about files skipped because no fresh run produced
// them. Baseline metrics of zero are not compared — there is no ratio to
// take.
func CompareBenchDirs(baselineDir, freshDir string, threshold float64) ([]Regression, []string, error) {
	basePaths, err := filepath.Glob(filepath.Join(baselineDir, "BENCH_*.json"))
	if err != nil {
		return nil, nil, err
	}
	sort.Strings(basePaths)
	var regs []Regression
	var notes []string
	for _, bp := range basePaths {
		name := filepath.Base(bp)
		baseMetrics, err := loadMetrics(bp)
		if err != nil {
			return nil, nil, fmt.Errorf("baseline %s: %w", name, err)
		}
		if len(baseMetrics) == 0 {
			notes = append(notes, fmt.Sprintf("%s: no tracked metrics (archived only)", name))
			continue
		}
		fp := filepath.Join(freshDir, name)
		if _, err := os.Stat(fp); os.IsNotExist(err) {
			notes = append(notes, fmt.Sprintf("%s: experiment not run this pass, gate skipped", name))
			continue
		}
		freshMetrics, err := loadMetrics(fp)
		if err != nil {
			return nil, nil, fmt.Errorf("fresh %s: %w", name, err)
		}
		keys := make([]string, 0, len(baseMetrics))
		for k := range baseMetrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			base := baseMetrics[k]
			if base == 0 {
				continue
			}
			fresh, ok := freshMetrics[k]
			if !ok {
				regs = append(regs, Regression{File: name, Metric: k + " (missing)", Baseline: base, Fresh: 0})
				continue
			}
			if fresh > base*(1+threshold) {
				regs = append(regs, Regression{File: name, Metric: k, Baseline: base, Fresh: fresh})
			}
		}
	}
	return regs, notes, nil
}

// FormatRegressions renders the gate's outcome for CI logs.
func FormatRegressions(regs []Regression, notes []string, threshold float64) string {
	var sb strings.Builder
	for _, n := range notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	if len(regs) == 0 {
		fmt.Fprintf(&sb, "bench gate: no tracked metric regressed more than %.0f%%\n", threshold*100)
		return sb.String()
	}
	fmt.Fprintf(&sb, "bench gate: %d metric(s) regressed more than %.0f%%:\n", len(regs), threshold*100)
	for _, r := range regs {
		fmt.Fprintf(&sb, "  %s\n", r)
	}
	return sb.String()
}
