package state

import "strings"

// internalPrefix marks hard-state keys owned by the system itself rather
// than by site scripts — today the lease records ("\x00nk:lease:<name>").
// Internal keys replicate, repair, and hand off exactly like script data
// (they are ordinary versioned records), but they are hidden from
// script-facing enumeration and core refuses script reads and writes to
// them, so a site script can neither shadow nor delete a lease record
// through the State vocabulary.
const internalPrefix = "\x00nk:"

// IsInternalKey reports whether key is in the reserved internal namespace.
func IsInternalKey(key string) bool { return strings.HasPrefix(key, internalPrefix) }

// FencedPutVersioned applies rec like PutVersioned, gated by the store's
// fence floor for guard: a write whose (token, holder) pair is below the
// floor returns store.ErrFencedStale and changes nothing. When the write
// clears the fence but loses the last-writer-wins race, the floor still
// advances (the holdership demonstrably wrote here; older holderships must
// stay fenced) while the value is left alone — applied is false, err nil.
// Callers serialize read-modify-write cycles exactly as for PutVersioned.
func (s *Store) FencedPutVersioned(rec Rec, guard, holder string, token uint64) (applied bool, err error) {
	if curVer, curOrigin, curDel, curVal, ok := s.GetVersioned(rec.Site, rec.Key); ok {
		cur := Rec{Site: rec.Site, Key: rec.Key, Ver: curVer, Origin: curOrigin, Delete: curDel, Value: curVal}
		if !rec.Supersedes(cur) {
			if err := s.Backend().RaiseFence(rec.Site, guard, holder, token); err != nil {
				return false, err
			}
			return false, nil
		}
	}
	value := EncodeVersioned(rec.Ver, rec.Origin, rec.Delete, rec.Value)
	if err := s.Backend().FencedPut(rec.Site, rec.Key, value, guard, holder, token); err != nil {
		return false, err
	}
	return true, nil
}
