package main

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"

	"nakika/internal/apps/largefile"
	"nakika/internal/apps/simm"
	"nakika/internal/apps/specweb"
	"nakika/internal/httpmsg"
)

// op is one generated request with everything needed to check its
// response. Ops carry no host: the origin's address is only known once a
// run has reserved its ports, and is supplied when the request bytes are
// rendered.
type op struct {
	// class indexes the workload's class names (response size class,
	// html/media, read/write): latency is reported per class so the
	// modes behind p50 and p90 can be told apart.
	class uint8
	// target is the request path and query.
	target string
	// rangeFrom/rangeTo select a byte range [from, to) when rangeTo > 0.
	rangeFrom, rangeTo int64
	// wantStatus and wantLen describe the only correct response, together
	// with its body: wantBody when set (a view of the large object, whose
	// ranges are compared byte for byte), else the checksum wantCRC.
	wantStatus int
	wantLen    int
	wantCRC    uint32
	wantBody   []byte
}

// String renders the op for the byte-identical-sequence test.
func (o op) String() string {
	return fmt.Sprintf("%d %s %d-%d %d %d %08x", o.class, o.target, o.rangeFrom, o.rangeTo, o.wantStatus, o.wantLen, o.wantCRC)
}

// render returns the HTTP/1.1 request bytes of o for the origin host.
func (o op) render(host string) []byte {
	var sb strings.Builder
	sb.WriteString("GET " + o.target + " HTTP/1.1\r\nHost: " + host + "\r\n")
	if o.rangeTo > 0 {
		fmt.Fprintf(&sb, "Range: bytes=%d-%d\r\n", o.rangeFrom, o.rangeTo-1)
	}
	sb.WriteString("\r\n")
	return []byte(sb.String())
}

// check reports whether a response is the one o expects.
func (o op) check(status int, body []byte) bool {
	if status != o.wantStatus || len(body) != o.wantLen {
		return false
	}
	if o.wantBody != nil {
		return bytes.Equal(body, o.wantBody)
	}
	return crc32.ChecksumIEEE(body) == o.wantCRC
}

// workload is one traffic mix with the topology it runs against.
type workload struct {
	name string
	// why records the reason the workload exists (BENCHMARK.json repeats it).
	why string
	// app is the nakika-origin application.
	app string
	// nodes is the number of nakikad processes; dataDir gives each a
	// -data-dir (disk cache tier, WAL, segment slab).
	nodes   int
	dataDir bool
	// classes names the op classes.
	classes []string
	// keys, users and objectBytes size the population the ops draw from:
	// cache keys (static_hot, cache_churn), registered users (state_rw),
	// the large object (large_range).
	keys        int
	users       int
	objectBytes int
	// opsPerSecond sizes the measured window: the window is a fixed
	// sequence of opsPerSecond x seconds ops. It is about the median
	// whole-window rate (req_per_s) of the calibration sets at the commit
	// that added the benchmark (CALIBRATION.md), so the window takes about
	// `seconds` there, and is frozen. Work is therefore identical on every commit; a faster
	// program finishes the same ops sooner.
	opsPerSecond int
	// warmExtra is the number of steady-state requests the warm-up runs
	// after it has touched every key once, sized so set-up takes >= 2 s.
	warmExtra int
	// soloWarm is the number of leading warm-up ops run alone on one
	// connection before the rest run on all of them. large_range needs its
	// full-object GET to finish first: the node coalesces concurrent misses
	// by URL alone, so a Range request racing the cold full GET can lead
	// the flight and hand its 206 to the full GET.
	soloWarm int
	// readyProbe, when set, is an op every entry node must answer
	// correctly before the warm-up starts. state_rw needs it: a node whose
	// first RPC found a peer not yet listening backs off redialling it,
	// and until then the edge script's State.put fails and the request
	// falls through to the origin.
	readyProbe *op
	// originIdle says the origin must not be reached during the window
	// (everything is served from the node's own tiers): at most
	// originPerKreqMax upstream fetches per 1000 requests, and when that
	// is 0 not a byte written nor a tick of CPU spent by the origin.
	originIdle       bool
	originPerKreqMax float64
	// generate returns the warm-up and the window for a seed. n is the
	// window length. The same seed gives the same ops.
	generate func(w *workload, seed int64, n int) (warm, window []op)
}

// largeRangeLen is the length of every large_range request.
const largeRangeLen = 1 << 20

var workloads = []*workload{
	{
		name: "static_hot",
		why:  "The paper's capacity experiment: 1-10 KiB GETs over 512 memory-resident keys, so per-request overhead is all there is; bypass for script, disk, transport and large-object changes.",
		app:  "specweb", nodes: 1,
		classes: []string{"class0", "class1"},
		keys:    512, opsPerSecond: 10000, warmExtra: 26000, originIdle: true,
		generate: genStaticHot,
	},
	{
		name: "cache_churn",
		why:  "Zipf GETs over 8192 keys, twice the memory cache, with the disk tier on: eviction, demotion writes and disk reads beside memory hits (about 3 in 4); where a merged cache must show no worse.",
		app:  "specweb", nodes: 1, dataDir: true,
		classes: []string{"class0", "class1"},
		keys:    8192, opsPerSecond: 5200,
		// Not strictly 0: cache.Disk rewrites an entry's file in place on
		// demotion, and a disk read of the same key racing that write sees
		// a torn file, drops the entry and refetches it upstream; seen
		// about once in 50 000 requests at the commit that added this.
		originIdle: true, originPerKreqMax: 1,
		generate: genCacheChurn,
	},
	{
		name: "simm_render",
		why:  "The paper's SIMM port: 71% pages rendered from private XML by the site script at the edge, 29% cached 64 KiB media; script, vocabulary and pipeline do the work, plus one origin round trip per page.",
		app:  "simm", nodes: 1,
		classes:      []string{"html", "media"},
		opsPerSecond: 2750, warmExtra: 6500,
		generate: genSimmRender,
	},
	{
		name: "state_rw",
		why:  "The paper's SPECweb99 hard-state experiment on 3 nodes: 70% State.get, 30% State.put with WAL fsync and synchronous push to 2 successors; store, state, transport, overlay and replication do the work.",
		app:  "specweb", nodes: 3, dataDir: true,
		classes: []string{"read", "write"},
		users:   1000, opsPerSecond: 1700, warmExtra: 3000,
		readyProbe: &readyProbeOp,
		generate:   genStateRW,
	},
	{
		name: "large_range",
		why:  "1 MiB Range GETs at unaligned offsets of one slab-resident 64 MiB object: the byte-moving path, where per-request overhead is diluted; cold pull-through ingest is the warm-up, so it shows in setup_s.",
		app:  "largefile", nodes: 1, dataDir: true,
		classes:     []string{"range"},
		objectBytes: 64 << 20, opsPerSecond: 90, warmExtra: 150, soloWarm: 1, originIdle: true,
		generate: genLargeRange,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// genHost is the placeholder origin host the generators hand to the app
// packages; only paths and bodies are taken from what they return.
const genHost = "origin.invalid"

// staticKey builds the GET for one cache key of the specweb file set,
// taking the expected body from the app's own origin implementation. One
// key in five (by k) is the 10 KiB class, the rest 1 KiB, and ?v=version
// multiplies the origin's 9 files per class into as many cache keys as
// needed.
func staticKey(origin *specweb.Origin, k, version int) op {
	class := 0
	if k%5 == 2 {
		class = 1
	}
	target := fmt.Sprintf("/file_set/dir/class%d_%d?v=%d", class, k%9, version)
	resp, err := origin.Do(httpmsg.MustRequest("GET", "http://"+genHost+target))
	if err != nil || resp.Status != 200 {
		panic(fmt.Sprintf("benchmark: specweb origin refused %s: %v", target, err))
	}
	return op{class: uint8(class), target: target, wantStatus: 200, wantLen: len(resp.Body), wantCRC: crc32.ChecksumIEEE(resp.Body)}
}

// staticKeys builds n keys; key k carries version[k] when versions are
// given, else k.
func staticKeys(n int, version []int) []op {
	origin := specweb.NewOrigin(specweb.Config{Host: genHost})
	keys := make([]op, n)
	for k := range keys {
		v := k
		if version != nil {
			v = version[k]
		}
		keys[k] = staticKey(origin, k, v)
	}
	return keys
}

// genStaticHot: uniform GETs over the keys, 80% 1 KiB / 20% 10 KiB.
// Warm-up: every key once, then warmExtra steady-state requests.
func genStaticHot(w *workload, seed int64, n int) (warm, window []op) {
	keys := staticKeys(w.keys, nil)
	rnd := rand.New(rand.NewSource(seed))
	pick := func(count int) []op {
		out := make([]op, count)
		for i := range out {
			out[i] = keys[rnd.Intn(len(keys))]
		}
		return out
	}
	warm = append(append(warm, keys...), pick(w.warmExtra)...)
	return warm, pick(n)
}

// zipf samples ranks 0..n-1 with probability proportional to 1/(rank+1)^s
// by inverting the cumulative distribution (math/rand's Zipf needs s > 1).
type zipf struct{ cum []float64 }

func newZipf(n int, s float64) *zipf {
	z := &zipf{cum: make([]float64, n)}
	total := 0.0
	for i := range z.cum {
		total += 1 / math.Pow(float64(i+1), s)
		z.cum[i] = total
	}
	for i := range z.cum {
		z.cum[i] /= total
	}
	return z
}

func (z *zipf) next(rnd *rand.Rand) int {
	return min(sort.SearchFloat64s(z.cum, rnd.Float64()), len(z.cum)-1)
}

// churnSkew is the Zipf exponent of cache_churn: over 8192 keys and a
// 4096-entry memory cache it leaves about 76% of lookups to memory, so
// the median sits in the memory mode and p90 in the disk mode, each well
// clear of the boundary.
const churnSkew = 0.75

// genCacheChurn: Zipf GETs over the keys. Warm-up touches every
// key once, so every key is in memory or on disk when the window starts
// and the window does not reach the origin.
func genCacheChurn(w *workload, seed int64, n int) (warm, window []op) {
	rnd := rand.New(rand.NewSource(seed))
	// keys[r] is the key of popularity rank r. Its size class follows from
	// the rank, so the byte mix of the requests is the same for every
	// seed (the few most popular keys carry a third of the traffic); its
	// version number, and with it its URL and cache shard, is the seed's.
	keys := staticKeys(w.keys, rnd.Perm(w.keys))
	z := newZipf(len(keys), churnSkew)
	pick := func(count int) []op {
		out := make([]op, count)
		for i := range out {
			out[i] = keys[z.next(rnd)]
		}
		return out
	}
	// Cold pass from the least to the most popular key, so the popular
	// keys are the ones left in memory, then a steady-state stretch.
	for r := len(keys) - 1; r >= 0; r-- {
		warm = append(warm, keys[r])
	}
	warm = append(warm, pick(w.warmExtra)...)
	return warm, pick(n)
}

// cut returns the text of s between the first open and the following
// close, and what follows close.
func cut(s, open, close string) (inner, rest string, ok bool) {
	_, s, ok = strings.Cut(s, open)
	if !ok {
		return "", "", false
	}
	return strings.Cut(s, close)
}

// simmEdgeHTML is the page the SIMM site script renders at the edge from
// the origin's personalised XML (see simm.EdgeScript): title, paragraphs
// and a progress bar.
func simmEdgeHTML(xmlDoc string) string {
	var sb strings.Builder
	sb.WriteString("<html><head><title>SIMM</title></head><body>")
	title, rest, _ := cut(xmlDoc, "<title>", "</title>")
	sb.WriteString("<h1>" + title + "</h1>")
	for {
		// <p id="p0">text</p>; "<p " does not match <progress>.
		_, afterTag, ok := cut(rest, "<p ", ">")
		if !ok {
			break
		}
		var text string
		if text, rest, ok = strings.Cut(afterTag, "</p>"); !ok {
			break
		}
		sb.WriteString("<div class='narrative'>" + text + "</div>")
	}
	sb.WriteString("<div class='progress-bar'></div></body></html>")
	return sb.String()
}

// simmOps converts a replayed SIMM access log into ops.
func simmOps(origin *simm.Origin, log []simm.Access) []op {
	out := make([]op, 0, len(log))
	for _, a := range log {
		u, err := url.Parse(a.URL)
		if err != nil {
			panic(err) // the log generator builds its URLs with Sprintf
		}
		o := op{target: u.RequestURI(), wantStatus: 200}
		var body []byte
		switch a.Kind {
		case simm.AccessHTML:
			var module, section int
			if _, err := fmt.Sscanf(u.Path, "/module/%d/section/%d.html", &module, &section); err != nil {
				panic(fmt.Sprintf("benchmark: simm log url %q: %v", a.URL, err))
			}
			body = []byte(simmEdgeHTML(origin.SectionXML(module, section, a.Student)))
		case simm.AccessMedia:
			resp, err := origin.Do(httpmsg.MustRequest("GET", a.URL))
			if err != nil || resp.Status != 200 {
				panic(fmt.Sprintf("benchmark: simm origin refused %s: %v", a.URL, err))
			}
			o.class, body = 1, resp.Body
		}
		o.wantLen, o.wantCRC = len(body), crc32.ChecksumIEEE(body)
		out = append(out, o)
	}
	return out
}

// genSimmRender replays simm.GenerateLog. Warm-up: every media file once
// (they are the only cacheable responses), then warmExtra log entries.
func genSimmRender(w *workload, seed int64, n int) (warm, window []op) {
	cfg := simm.Config{Host: genHost}.Defaults()
	origin := simm.NewOrigin(cfg)
	var media []simm.Access
	for m := 1; m <= cfg.Modules; m++ {
		for k := 1; k <= cfg.MediaPerModule; k++ {
			media = append(media, simm.Access{Kind: simm.AccessMedia, URL: fmt.Sprintf("http://%s/module/%d/media/%d.bin", cfg.Host, m, k)})
		}
	}
	warm = simmOps(origin, media)
	// Two independent logs from one seed: the warm-up must not replay the
	// window.
	warm = append(warm, simmOps(origin, simm.GenerateLog(cfg, w.warmExtra, seed^0x5eed))...)
	return warm, simmOps(origin, simm.GenerateLog(cfg, n, seed))
}

// stateOp builds one SPECweb dynamic request answered by the edge script
// from replicated hard state (see specweb.EdgeScript for the bodies; the
// origin's own fallback pages differ, so a request that fell through to
// the origin fails the check).
func stateOp(user string, write bool) op {
	var target, body string
	if write {
		target = "/cgi-bin/register?user=" + user
		body = "<html><body><h1>SPECweb99-like</h1><p>registered</p><p>user=" + user + "</p></body></html>"
	} else {
		target = "/cgi-bin/profile?user=" + user
		body = "<html><body><h1>SPECweb99-like</h1><p>profile ads=" + strconv.Itoa(len(user)%360) + "</p><p>user=" + user + "</p></body></html>"
	}
	o := op{target: target, wantStatus: 200, wantLen: len(body), wantCRC: crc32.ChecksumIEEE([]byte(body))}
	if write {
		o.class = 1
	}
	return o
}

// readyProbeOp registers a user outside the measured population.
var readyProbeOp = stateOp("ready-probe", true)

// stateWriteShare is the State.put share of state_rw: with 30% writes the
// median sits in the read mode and p90 in the write mode, each at least
// 20 percentile points from the 70% boundary.
const stateWriteShare = 0.30

// genStateRW: 70% profile reads / 30% registrations over the users.
// Warm-up registers every user, then runs warmExtra mixed ops.
func genStateRW(w *workload, seed int64, n int) (warm, window []op) {
	rnd := rand.New(rand.NewSource(seed))
	user := func(u int) string { return "user-" + strconv.Itoa(u) }
	pick := func(count int) []op {
		out := make([]op, count)
		for i := range out {
			out[i] = stateOp(user(rnd.Intn(w.users)), rnd.Float64() < stateWriteShare)
		}
		return out
	}
	for u := 0; u < w.users; u++ {
		warm = append(warm, stateOp(user(u), true))
	}
	warm = append(warm, pick(w.warmExtra)...)
	return warm, pick(n)
}

// largeObjects keeps the expected content of the large object per size,
// filled once per process: checking a 1 MiB range against it is a memory
// compare, where regenerating the range with largefile.Fill per response
// would cost the generator more CPU than the node spends serving it.
var largeObjects struct {
	sync.Mutex
	bySize map[int][]byte
}

func largeObjectBytes(size int) []byte {
	largeObjects.Lock()
	defer largeObjects.Unlock()
	obj, ok := largeObjects.bySize[size]
	if !ok {
		obj = make([]byte, size)
		largefile.Fill(obj, 0)
		if largeObjects.bySize == nil {
			largeObjects.bySize = make(map[int][]byte)
		}
		largeObjects.bySize[size] = obj
	}
	return obj
}

// genLargeRange: 1 MiB ranges at seeded unaligned offsets. Warm-up: one
// full GET, which is the cold pull-through ingest of the whole object,
// then warmExtra ranges.
func genLargeRange(w *workload, seed int64, n int) (warm, window []op) {
	obj := largeObjectBytes(w.objectBytes)
	rnd := rand.New(rand.NewSource(seed))
	pick := func(count int) []op {
		out := make([]op, count)
		for i := range out {
			from := rnd.Intn(len(obj) - largeRangeLen)
			out[i] = op{target: "/blob", rangeFrom: int64(from), rangeTo: int64(from + largeRangeLen),
				wantStatus: 206, wantLen: largeRangeLen, wantBody: obj[from : from+largeRangeLen]}
		}
		return out
	}
	warm = append(warm, op{target: "/blob", wantStatus: 200, wantLen: len(obj), wantBody: obj})
	warm = append(warm, pick(w.warmExtra)...)
	return warm, pick(n)
}
