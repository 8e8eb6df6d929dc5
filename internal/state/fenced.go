package state

import (
	"strings"

	"nakika/internal/store"
)

// internalPrefix marks hard-state keys owned by the system itself rather
// than by site scripts: the lease records ("\x00nk:lease:<name>") and the
// deployment record ("\x00nk:deploy").
// Internal keys replicate, repair, and hand off exactly like script data
// (they are ordinary versioned records), but they are hidden from
// script-facing enumeration and core refuses script reads and writes to
// them, so a site script can neither shadow nor delete one through the
// State vocabulary.
const internalPrefix = "\x00nk:"

// IsInternalKey reports whether key is in the reserved internal namespace.
func IsInternalKey(key string) bool { return strings.HasPrefix(key, internalPrefix) }

// FencedPutVersioned applies rec like PutVersioned, gated by the store's
// fence floor for guard: a write whose (token, holder) pair is below the
// floor returns store.ErrFencedStale and changes nothing. When the write
// clears the fence but loses the last-writer-wins race, the floor still
// advances (the holdership demonstrably wrote here; older holderships must
// stay fenced) while the value is left alone — applied is false, err nil,
// and the commit is the floor's. Either way the change is durable once the
// commit's Wait returns nil. Callers serialize read-modify-write cycles
// exactly as for PutVersioned.
func (s *Store) FencedPutVersioned(rec Rec, guard, holder string, token uint64) (applied bool, c store.Commit, err error) {
	if curVer, curOrigin, curDel, curVal, ok := s.GetVersioned(rec.Site, rec.Key); ok {
		cur := Rec{Site: rec.Site, Key: rec.Key, Ver: curVer, Origin: curOrigin, Delete: curDel, Value: curVal}
		if !rec.Supersedes(cur) {
			c, err = s.Backend().EnqueueRaiseFence(rec.Site, guard, holder, token)
			return false, c, err
		}
	}
	value := EncodeVersioned(rec.Ver, rec.Origin, rec.Delete, rec.Value)
	c, err = s.Backend().EnqueueFencedPut(rec.Site, rec.Key, value, guard, holder, token)
	return err == nil, c, err
}
