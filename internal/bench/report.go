package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"nakika/internal/apps/extensions"
)

// JSONReport is the machine-readable envelope nakika-bench writes next to
// its human-readable tables: one BENCH_<experiment>.json file per
// experiment. Data holds the experiment's result structs verbatim;
// time.Duration fields serialize as integer nanoseconds (DurationUnit
// records that for consumers).
type JSONReport struct {
	Experiment   string      `json:"experiment"`
	DurationUnit string      `json:"duration_unit"`
	Data         interface{} `json:"data"`
}

// WriteBenchJSON writes BENCH_<experiment>.json into dir and returns the
// path.
func WriteBenchJSON(dir, experiment string, data interface{}) (string, error) {
	report := JSONReport{Experiment: experiment, DurationUnit: "ns", Data: data}
	b, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "BENCH_"+experiment+".json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// FormatTable2 renders Table 2 (latency in milliseconds per configuration,
// cold and warm cache) in the paper's layout.
func FormatTable2(rows []MicroResult) string {
	var sb strings.Builder
	sb.WriteString("Table 2: latency for accessing a static page (ms)\n")
	sb.WriteString(fmt.Sprintf("%-12s %12s %12s\n", "Configuration", "Cold Cache", "Warm Cache"))
	for _, r := range rows {
		sb.WriteString(fmt.Sprintf("%-12s %12.3f %12.3f\n", r.Config, ms(r.Cold), ms(r.Warm)))
	}
	return sb.String()
}

// FormatBreakdown renders the Section 5.1 cost breakdown.
func FormatBreakdown(b BreakdownResult) string {
	var sb strings.Builder
	sb.WriteString("Section 5.1 cost breakdown\n")
	rows := []struct {
		name string
		d    time.Duration
	}{
		{"page load (origin)", b.PageLoad},
		{"script load (origin)", b.ScriptLoad},
		{"scripting context creation", b.ContextCreation},
		{"scripting context reuse", b.ContextReuse},
		{"parse + execute script", b.ParseAndRun},
		{"resource cache hit", b.CacheHit},
		{"decision tree cache hit", b.TreeCacheHit},
		{"predicate evaluation (100 policies)", b.PredicateEval},
	}
	for _, r := range rows {
		sb.WriteString(fmt.Sprintf("  %-36s %12s\n", r.name, r.d))
	}
	return sb.String()
}

// FormatLoad renders one resource-control result.
func FormatLoad(name string, r LoadResult) string {
	return fmt.Sprintf("%-34s clients=%-4d tput=%8.1f rps  rejected=%5.2f%%  terminated=%5.2f%%\n",
		name, r.Clients, r.Throughput, r.RejectedPct, r.TerminatePct)
}

// FormatSIMM renders one Figure 7 configuration summary line.
func FormatSIMM(r SIMMResult) string {
	return fmt.Sprintf("%-14s clients=%-4d html-90th=%-10s html-mean=%-10s video-ok=%5.1f%%  completed=%d\n",
		r.Mode, r.Clients, r.HTML90th.Round(time.Millisecond), r.HTMLMean.Round(time.Millisecond), r.VideoOKPct, r.Completed)
}

// FormatSIMMCDF renders the CDF series for one Figure 7 curve.
func FormatSIMMCDF(r SIMMResult) string {
	var sb strings.Builder
	sb.WriteString(fmt.Sprintf("# Figure 7 CDF: %s, %d clients (latency_s fraction)\n", r.Mode, r.Clients))
	for _, p := range r.CDF {
		sb.WriteString(fmt.Sprintf("%.3f %.3f\n", p.Latency.Seconds(), p.Fraction))
	}
	return sb.String()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ---------------------------------------------------------------------------
// E8: extensions (Section 5.4)
// ---------------------------------------------------------------------------

// ExtensionInfo reports one Section 5.4 extension: its script and line
// count, compared against the paper's reported size.
type ExtensionInfo struct {
	Name     string
	Lines    int
	PaperLoC int
	Script   string
}

// Extensions returns the three Section 5.4 extensions (annotations, image
// transcoding, blacklist blocking) as deployable scripts with their line
// counts. The runnable versions live under examples/.
func Extensions() []ExtensionInfo {
	mk := func(name string, paperLoC int, src string) ExtensionInfo {
		lines := 0
		for _, l := range strings.Split(src, "\n") {
			if strings.TrimSpace(l) != "" {
				lines++
			}
		}
		return ExtensionInfo{Name: name, Lines: lines, PaperLoC: paperLoC, Script: src}
	}
	return []ExtensionInfo{
		mk("electronic-annotations", 50, extensions.AnnotationsScript),
		mk("image-transcoding", 80, extensions.TranscoderScript),
		mk("blacklist-blocking", 70, extensions.BlacklistScript),
	}
}

// FormatExtensions renders the extensions table.
func FormatExtensions(exts []ExtensionInfo) string {
	var sb strings.Builder
	sb.WriteString("Section 5.4 extensions\n")
	sb.WriteString(fmt.Sprintf("%-26s %10s %16s\n", "Extension", "LoC (ours)", "LoC (paper)"))
	for _, e := range exts {
		sb.WriteString(fmt.Sprintf("%-26s %10d %16d\n", e.Name, e.Lines, e.PaperLoC))
	}
	return sb.String()
}
