package main

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"nakika/internal/metrics"
)

// scrape is one reading of a node's /metrics: series (name plus label
// block, as exposed) to value.
type scrape map[string]float64

// parseScrape validates text with the repository's own exposition parser
// and extracts every sample line's value.
func parseScrape(text string) (scrape, error) {
	if _, err := metrics.ParseExposition(text); err != nil {
		return nil, err
	}
	out := make(scrape)
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the series; a label block may hold spaces only
		// inside quotes, and ends with '}'.
		cut := strings.LastIndexByte(line, '}')
		if cut < 0 {
			cut = strings.IndexByte(line, ' ') - 1
		}
		series, rest := line[:cut+1], strings.Fields(line[cut+1:])
		if len(rest) == 0 {
			return nil, fmt.Errorf("series %q has no value", series)
		}
		v, err := strconv.ParseFloat(rest[0], 64)
		if err != nil {
			return nil, fmt.Errorf("series %q: %w", series, err)
		}
		out[series] = v
	}
	return out, nil
}

var scrapeClient = &http.Client{Timeout: 5 * time.Second}

// scrapeNode reads one node's admin /metrics.
func scrapeNode(adminAddr string) (scrape, error) {
	resp, err := scrapeClient.Get("http://" + adminAddr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %d", adminAddr, resp.StatusCode)
	}
	return parseScrape(string(text))
}

// scrapeAll sums the scrapes of every node, series by series.
func scrapeAll(adminAddrs []string) (scrape, error) {
	sum := make(scrape)
	for _, addr := range adminAddrs {
		s, err := scrapeNode(addr)
		if err != nil {
			return nil, err
		}
		sum.add(s)
	}
	return sum, nil
}

// add adds other into s, series by series.
func (s scrape) add(other scrape) {
	for k, v := range other {
		s[k] += v
	}
}

// delta returns after - before for every series of after.
func (after scrape) delta(before scrape) scrape {
	d := make(scrape, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}
