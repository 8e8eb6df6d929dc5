package bench

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"nakika/internal/core"
)

func TestStaticPageSize(t *testing.T) {
	if len(staticPage) != googlePageBytes {
		t.Fatalf("static page is %d bytes, want %d", len(staticPage), googlePageBytes)
	}
}

// TestMicroConfigsRun runs every Table 2 configuration and checks what its
// two columns measure by count, not by clock: a cold access goes to the
// origin, a warm one is a cache hit that goes nowhere.
func TestMicroConfigsRun(t *testing.T) {
	for _, cfg := range MicroConfigs {
		r, err := RunMicro(cfg, 2)
		if err != nil {
			t.Fatalf("%s: %v", cfg, err)
		}
		if r.Cold <= 0 || r.Warm <= 0 {
			t.Errorf("%s: non-positive latency %+v", cfg, r)
		}
		node, err := microNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		access := func() core.Stats {
			if err := runMicroAccess(node, cfg); err != nil {
				t.Fatalf("%s: %v", cfg, err)
			}
			return node.Stats()
		}
		// The page, plus for a scripted configuration its three scripts:
		// client wall, server wall and site script, fetched even when absent.
		want := int64(1)
		if cfg != ConfigProxy && cfg != ConfigDHT {
			want = 4
		}
		cold := access()
		if cold.OriginFetches != want || cold.CacheHits != 0 {
			t.Errorf("%s: cold access made %d origin fetches and %d cache hits, want %d and 0", cfg, cold.OriginFetches, cold.CacheHits, want)
		}
		if warm := access(); warm.OriginFetches != cold.OriginFetches || warm.CacheHits < 1 {
			t.Errorf("%s: warm access made %d more origin fetches and %d cache hits, want 0 and at least 1",
				cfg, warm.OriginFetches-cold.OriginFetches, warm.CacheHits)
		}
	}
}

// TestDHTConfigLooksUpTheOverlay pins what separates Table 2's DHT row from
// its Proxy row: a cold access asks the overlay for a peer copy before it
// goes to the origin.
func TestDHTConfigLooksUpTheOverlay(t *testing.T) {
	cold := func(cfg MicroConfig) *core.Node {
		node, err := microNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := runMicroAccess(node, cfg); err != nil {
			t.Fatal(err)
		}
		if got := node.Stats().OriginFetches; got != 1 {
			t.Errorf("%s: cold access made %d origin fetches, want 1", cfg, got)
		}
		return node
	}
	if cold(ConfigProxy).Overlay() != nil {
		t.Error("Proxy configuration joined an overlay")
	}
	dht := cold(ConfigDHT).Overlay()
	if dht == nil {
		t.Fatal("DHT configuration has no overlay: the row is Proxy measured twice")
	}
	if dht.Stats().Lookups == 0 {
		t.Error("cold DHT access performed no overlay lookup")
	}
}

func TestTable2Shape(t *testing.T) {
	rows, err := RunTable2(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(MicroConfigs) {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[MicroConfig]MicroResult{}
	for _, r := range rows {
		byName[r.Config] = r
	}
	// Shape checks from the paper: the scripting pipeline costs more than
	// the plain proxy under a cold cache, and more predicates mean more
	// cold-cache cost (script fetch + larger decision tree build).
	if byName[ConfigAdmin].Cold < byName[ConfigProxy].Cold {
		t.Errorf("Admin cold (%v) should cost at least Proxy cold (%v)", byName[ConfigAdmin].Cold, byName[ConfigProxy].Cold)
	}
	if byName[ConfigPred100].Cold < byName[ConfigPred1].Cold {
		t.Errorf("Pred-100 cold (%v) should cost at least Pred-1 cold (%v)", byName[ConfigPred100].Cold, byName[ConfigPred1].Cold)
	}
	// Warm cache flattens the differences: Pred-100 warm should be within a
	// small factor of Proxy warm (both are sub-millisecond in the paper).
	if byName[ConfigPred100].Warm > byName[ConfigProxy].Warm*50+2*time.Millisecond {
		t.Errorf("Pred-100 warm (%v) should be close to Proxy warm (%v)", byName[ConfigPred100].Warm, byName[ConfigProxy].Warm)
	}
	out := FormatTable2(rows)
	if !strings.Contains(out, "Pred-100") || !strings.Contains(out, "Cold Cache") {
		t.Errorf("formatted table missing content:\n%s", out)
	}
}

func TestBreakdown(t *testing.T) {
	b, err := RunBreakdown(5)
	if err != nil {
		t.Fatal(err)
	}
	if b.ContextReuse > b.ContextCreation {
		t.Errorf("context reuse (%v) should be cheaper than creation (%v)", b.ContextReuse, b.ContextCreation)
	}
	if b.TreeCacheHit > b.ScriptLoad {
		t.Errorf("decision tree cache hit (%v) should be cheaper than a script load (%v)", b.TreeCacheHit, b.ScriptLoad)
	}
	if b.PredicateEval <= 0 || b.CacheHit <= 0 {
		t.Errorf("breakdown has zero entries: %+v", b)
	}
	if !strings.Contains(FormatBreakdown(b), "predicate evaluation") {
		t.Error("formatted breakdown incomplete")
	}
}

func TestResourceControlsIsolateMisbehavingScript(t *testing.T) {
	// With resource controls, the regular load is isolated from a
	// misbehaving (memory hog) site: goodput with the hog present stays
	// close to goodput without it, and almost no regular requests are
	// throttled or terminated (the paper reports <0.55% and <0.08%).
	clean, err := RunResourceControls(4, true, false, 250*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	withHog, err := RunResourceControls(4, true, true, 250*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Completed == 0 || withHog.Completed == 0 {
		t.Fatalf("no completions: clean=%+v withHog=%+v", clean, withHog)
	}
	if float64(withHog.Completed) < 0.5*float64(clean.Completed) {
		t.Errorf("hog should be isolated from the regular load: with-hog=%d clean=%d",
			withHog.Completed, clean.Completed)
	}
	if withHog.RejectedPct > 10 || withHog.TerminatePct > 5 {
		t.Errorf("regular load over-penalized: rejected=%.2f%% terminated=%.2f%%",
			withHog.RejectedPct, withHog.TerminatePct)
	}
	// The comparison without controls still runs (and is reported by the
	// bench tool); the hog is contained there only by per-context limits.
	without, err := RunResourceControls(4, false, true, 150*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if without.Rejected != 0 {
		t.Error("without controls no request should be rejected as busy")
	}
}

func TestRunSIMMShape(t *testing.T) {
	params := SIMMParams{Clients: 240, Duration: 30 * time.Second}
	single := RunSIMM(SIMMSingleServer, params)
	cold := RunSIMM(SIMMColdCache, params)
	warm := RunSIMM(SIMMWarmCache, params)

	// Figure 7's ordering: single server worst, cold cache in between, warm
	// cache best for HTML latency; video bandwidth fraction reversed.
	if !(single.HTML90th > cold.HTML90th && cold.HTML90th >= warm.HTML90th) {
		t.Errorf("90th percentile ordering wrong: single=%v cold=%v warm=%v",
			single.HTML90th, cold.HTML90th, warm.HTML90th)
	}
	if !(warm.VideoOKPct >= cold.VideoOKPct && warm.VideoOKPct > single.VideoOKPct) {
		t.Errorf("video bandwidth ordering wrong: single=%.1f cold=%.1f warm=%.1f",
			single.VideoOKPct, cold.VideoOKPct, warm.VideoOKPct)
	}
	if len(warm.CDF) == 0 {
		t.Error("CDF missing")
	}
	if FormatSIMM(single) == "" || FormatSIMMCDF(warm) == "" {
		t.Error("formatting empty")
	}
}

func TestRunSIMMMoreClientsMoreLatencyForSingleServer(t *testing.T) {
	small := RunSIMM(SIMMSingleServer, SIMMParams{Clients: 120, Duration: 20 * time.Second})
	large := RunSIMM(SIMMSingleServer, SIMMParams{Clients: 240, Duration: 20 * time.Second})
	if large.HTML90th < small.HTML90th {
		t.Errorf("more clients should not reduce single-server latency: 120=%v 240=%v", small.HTML90th, large.HTML90th)
	}
}

// TestFigure7Reproducible pins what makes BENCH_figure7.json comparable
// between runs and hosts: the sweep is a function of its duration alone.
func TestFigure7Reproducible(t *testing.T) {
	a, b := RunFigure7(5*time.Second), RunFigure7(5*time.Second)
	if len(a) != 9 {
		t.Fatalf("figure 7 has %d curves, want 3 client counts x 3 modes", len(a))
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("two runs of the same sweep differ:\n%+v\nvs\n%+v", a, b)
	}
}

func TestExtensionsReport(t *testing.T) {
	exts := Extensions()
	if len(exts) != 3 {
		t.Fatalf("extensions = %d", len(exts))
	}
	for _, e := range exts {
		if e.Lines == 0 {
			t.Errorf("extension %s has zero lines", e.Name)
		}
		// Our scripts should be in the same ballpark as the paper's (well
		// under 3x the reported size).
		if e.Lines > e.PaperLoC*3 {
			t.Errorf("extension %s is %d lines, paper reports %d", e.Name, e.Lines, e.PaperLoC)
		}
	}
	if !strings.Contains(FormatExtensions(exts), "blacklist-blocking") {
		t.Error("extension report incomplete")
	}
}
