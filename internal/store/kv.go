package store

import (
	"encoding/binary"
	"errors"
	"sort"

	"nakika/internal/wire"
)

// ErrQuotaExceeded is returned when a site's byte quota would be exceeded
// by a put.
var ErrQuotaExceeded = errors.New("store: site storage quota exceeded")

// table is the Log's in-memory index, with quota-checked mutation. The Log
// holds its lock.
type table struct {
	data   map[string]map[string]string
	bytes  map[string]int64
	fences map[string]map[string]fenceFloor
}

func newTable() *table {
	return &table{
		data:   make(map[string]map[string]string),
		bytes:  make(map[string]int64),
		fences: make(map[string]map[string]fenceFloor),
	}
}

func (t *table) get(site, key string) (string, bool) {
	part, ok := t.data[site]
	if !ok {
		return "", false
	}
	v, ok := part[key]
	return v, ok
}

// put applies a write. With enforce it checks the quota first and reports
// ErrQuotaExceeded; replay applies without enforcement (the write was
// already accepted before the crash).
func (t *table) put(site, key, value string, quota int64) error {
	part, ok := t.data[site]
	if !ok {
		part = make(map[string]string)
		t.data[site] = part
	}
	delta := int64(len(key) + len(value))
	if old, exists := part[key]; exists {
		delta -= int64(len(key) + len(old))
	}
	if quota > 0 && t.bytes[site]+delta > quota {
		return ErrQuotaExceeded
	}
	part[key] = value
	t.bytes[site] += delta
	return nil
}

func (t *table) del(site, key string) {
	part, ok := t.data[site]
	if !ok {
		return
	}
	if old, exists := part[key]; exists {
		t.bytes[site] -= int64(len(key) + len(old))
		delete(part, key)
	}
}

func (t *table) keys(site string) []string {
	part := t.data[site]
	out := make([]string, 0, len(part))
	for k := range part {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func (t *table) rangeAll(fn func(site, key, value string) bool) {
	sites := make([]string, 0, len(t.data))
	for s := range t.data {
		sites = append(sites, s)
	}
	sort.Strings(sites)
	for _, site := range sites {
		for _, key := range t.keys(site) {
			if !fn(site, key, t.data[site][key]) {
				return
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Record codec
// ---------------------------------------------------------------------------

// Record ops. A log record is one mutation: op byte, then uvarint-length-
// prefixed site, key, and (for puts) value; a fenced put adds guard and
// holder, a fence raise carries site, guard and holder alone, and both end
// with the uvarint token (see fence.go).
const (
	opPut       = 'P'
	opDelete    = 'D'
	opFencedPut = 'G'
	opFence     = 'F'
)

// encodeRecord lays out one record payload: the op byte, each field as a
// length-prefixed string, then the token for the fencing ops.
func encodeRecord(op byte, token uint64, fields ...string) []byte {
	n := 1 + binary.MaxVarintLen64
	for _, f := range fields {
		n += binary.MaxVarintLen32 + len(f)
	}
	b := append(make([]byte, 0, n), op)
	for _, f := range fields {
		b = wire.AppendString(b, f)
	}
	if op == opFencedPut || op == opFence {
		b = wire.AppendUvarint(b, token)
	}
	return b
}

func encodePut(site, key, value string) []byte {
	return encodeRecord(opPut, 0, site, key, value)
}

func encodeDelete(site, key string) []byte { return encodeRecord(opDelete, 0, site, key) }

func encodeFencedPut(site, key, value, guard, holder string, token uint64) []byte {
	return encodeRecord(opFencedPut, token, site, key, value, guard, holder)
}

func encodeFence(site, guard, holder string, token uint64) []byte {
	return encodeRecord(opFence, token, site, guard, holder)
}
