package state

import (
	"fmt"
	"strconv"
	"strings"
)

// Successor-list replication stores hard state as versioned records so that
// writes replicated to several nodes, re-replicated after churn, and
// streamed by handoff all converge by last-writer-wins no matter how often
// or in what order they are applied. The version layer lives here, below
// the transport: a record is (version, origin, tombstone?, value), encoded
// into the plain string value the store.Log already persists — the WAL,
// snapshots, and crash recovery carry versions for free.
//
// Ordering is (Ver, Origin): higher version wins; equal versions break the
// tie by origin node name, so two acting owners racing across a partition
// converge to one deterministic winner on heal. Deletes are versioned
// tombstones for the same reason — a delete must beat the put it follows
// on every replica, whatever order the two arrive in. Tombstones are kept
// (never compacted away); at this system's scale the leak is irrelevant
// and keeping them makes every apply idempotent.

// Rec is one versioned hard-state record as it travels between replicas:
// in rep.store pushes, handoff streams, and failover reads.
type Rec struct {
	Site   string
	Key    string
	Ver    uint64
	Origin string
	Delete bool
	Value  string
}

// Supersedes reports whether r should overwrite cur under the total
// last-writer-wins order: a higher version wins, version ties break by
// origin name, and full (ver, origin) ties — reachable only when an owner
// lost its version history in a crash and reissued a version it had
// already used, so two different payloads carry the same stamp — break
// deterministically by payload: a tombstone beats a put, equal liveness
// falls back to the value ordering. Totality is what guarantees that
// every replica converges to the same winner whatever order records
// arrive in (the LWW convergence property test found the partial order's
// divergence before this tie-break existed).
func (r Rec) Supersedes(cur Rec) bool {
	if r.Ver != cur.Ver {
		return r.Ver > cur.Ver
	}
	if r.Origin != cur.Origin {
		return r.Origin > cur.Origin
	}
	if r.Delete != cur.Delete {
		return r.Delete
	}
	return r.Value > cur.Value
}

// ReplicaKey is the string whose ring hash places a hard-state pair on the
// overlay: the owner of ReplicaKey(site, key) owns the pair, its successors
// replicate it. Sites are hostnames and cannot contain "/", so the
// encoding is unambiguous.
func ReplicaKey(site, key string) string { return site + "/" + key }

// versionedPrefix marks a value as EncodeVersioned output. It starts with
// a NUL so no plausible script-written plain value — which would otherwise
// be misparsed when it coincidentally matches the "<ver> <origin> <op>"
// shape — collides with the encoding.
const versionedPrefix = "\x00nkv1 "

// EncodeVersioned renders a versioned record into the string stored in the
// KV engine: prefix + "<ver> <origin> <P|D><value>". Origin is a node name
// (no spaces); the op byte keeps tombstones distinguishable from an empty
// put.
func EncodeVersioned(ver uint64, origin string, deleted bool, value string) string {
	op := "P"
	if deleted {
		op = "D"
	}
	return versionedPrefix + strconv.FormatUint(ver, 10) + " " + origin + " " + op + value
}

// DecodeVersioned parses an encoded versioned record. ok is false for
// strings that were not produced by EncodeVersioned (for example raw
// values written while replication was disabled).
func DecodeVersioned(s string) (ver uint64, origin string, deleted bool, value string, ok bool) {
	if !strings.HasPrefix(s, versionedPrefix) {
		return 0, "", false, "", false
	}
	parts := strings.SplitN(s[len(versionedPrefix):], " ", 3)
	if len(parts) != 3 || len(parts[2]) < 1 {
		return 0, "", false, "", false
	}
	v, err := strconv.ParseUint(parts[0], 10, 64)
	if err != nil {
		return 0, "", false, "", false
	}
	switch parts[2][0] {
	case 'P':
		return v, parts[1], false, parts[2][1:], true
	case 'D':
		return v, parts[1], true, parts[2][1:], true
	}
	return 0, "", false, "", false
}

// GetVersioned reads the versioned record for (site, key) from the local
// store. ok is false when the key is absent; tombstones are returned with
// deleted=true (the caller decides whether a tombstone reads as a miss).
// A raw value — what a single-node nakikad writes — reads as a version-0
// record with no origin. That is a supported input, not a grace path: it is
// how a data directory stays readable when -peers is added to the node that
// wrote it. Any replicated write supersedes it, and repair migrates it to
// the key's replica set.
func (s *Store) GetVersioned(site, key string) (ver uint64, origin string, deleted bool, value string, ok bool) {
	raw, found := s.Get(site, key)
	if !found {
		return 0, "", false, "", false
	}
	if ver, origin, deleted, value, ok = DecodeVersioned(raw); ok {
		return ver, origin, deleted, value, true
	}
	return 0, "", false, raw, true
}

// PutVersioned applies rec to the local store under last-writer-wins: the
// record is stored only if it supersedes what is already present. It
// returns whether the record was applied. Callers serialize their own
// read-modify-write cycles (the replication manager holds one apply lock
// per node), so two racing applies cannot interleave here.
func (s *Store) PutVersioned(rec Rec) (bool, error) {
	if curVer, curOrigin, curDel, curVal, ok := s.GetVersioned(rec.Site, rec.Key); ok {
		cur := Rec{Site: rec.Site, Key: rec.Key, Ver: curVer, Origin: curOrigin, Delete: curDel, Value: curVal}
		if !rec.Supersedes(cur) {
			return false, nil
		}
	}
	if err := s.Put(rec.Site, rec.Key, EncodeVersioned(rec.Ver, rec.Origin, rec.Delete, rec.Value)); err != nil {
		return false, err
	}
	return true, nil
}

// KeysVersioned lists site's keys whose current record is a live versioned
// put — tombstones, non-versioned values, and internal-namespace keys
// (lease records; see IsInternalKey) are filtered out. VersionedRecords
// stays unfiltered: repair and handoff must carry internal keys.
func (s *Store) KeysVersioned(site string) []string {
	var out []string
	for _, key := range s.Keys(site) {
		if IsInternalKey(key) {
			continue
		}
		if _, _, deleted, _, ok := s.GetVersioned(site, key); ok && !deleted {
			out = append(out, key)
		}
	}
	return out
}

// VersionedRecords scans the whole local store and returns every record
// (tombstones included — repair and handoff must propagate them) for
// which keep returns true. A nil keep returns everything. Raw
// single-node values travel as version-0 records (see GetVersioned), so
// repair migrates them into the replica set. Records come out in the
// engine's deterministic site-then-key order.
func (s *Store) VersionedRecords(keep func(site, key string) bool) []Rec {
	var out []Rec
	s.Backend().Range(func(site, key, raw string) bool {
		if keep != nil && !keep(site, key) {
			return true
		}
		ver, origin, deleted, value, ok := DecodeVersioned(raw)
		if !ok {
			ver, origin, deleted, value = 0, "", false, raw
		}
		out = append(out, Rec{Site: site, Key: key, Ver: ver, Origin: origin, Delete: deleted, Value: value})
		return true
	})
	return out
}

// String renders a record compactly for fingerprints and test failures.
func (r Rec) String() string {
	op := "put"
	if r.Delete {
		op = "del"
	}
	return fmt.Sprintf("%s/%s@%d(%s,%s,%dB)", r.Site, r.Key, r.Ver, r.Origin, op, len(r.Value))
}
