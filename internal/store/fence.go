package store

import (
	"errors"
	"fmt"
	"sort"

	"nakika/internal/wire"
)

// ErrFencedStale is returned by EnqueueFencedPut and EnqueueRaiseFence when
// the write's (token, holder) pair is below the store's durable fence floor
// for that guard: a newer holdership has already written here, so the
// caller is deposed and its write must not land.
var ErrFencedStale = errors.New("store: write fenced off by a newer token")

// fenceFloor is the durable high-water mark for one guard at one store: the
// largest fencing token ever admitted, together with the holder it was
// issued to. Admission compares the whole pair, not just the token — under
// a split-brain double-grant two holders can carry the same token, and the
// first one to reach this store claims it; the other is fenced off, which
// keeps every per-store admission sequence free of interleavings.
type fenceFloor struct {
	token  uint64
	holder string
}

func (t *table) fence(site, guard string) fenceFloor {
	return t.fences[site][guard]
}

// fenceAdmits reports whether a write by holder under token clears the
// guard's floor: strictly above it, or exactly the holdership that set it.
// Token zero (never granted) is always fenced.
func (t *table) fenceAdmits(site, guard, holder string, token uint64) bool {
	if token == 0 {
		return false
	}
	cur := t.fences[site][guard]
	return token > cur.token || (token == cur.token && holder == cur.holder)
}

// raiseFence lifts the guard's floor to (token, holder) if that is strictly
// higher; it never lowers, so replaying records in any order converges.
func (t *table) raiseFence(site, guard, holder string, token uint64) {
	part, ok := t.fences[site]
	if !ok {
		part = make(map[string]fenceFloor)
		t.fences[site] = part
	}
	if token > part[guard].token {
		part[guard] = fenceFloor{token: token, holder: holder}
	}
}

func (t *table) rangeFences(fn func(site, guard, holder string, token uint64) bool) {
	sites := make([]string, 0, len(t.fences))
	for s := range t.fences {
		sites = append(sites, s)
	}
	sort.Strings(sites)
	for _, site := range sites {
		guards := make([]string, 0, len(t.fences[site]))
		for g := range t.fences[site] {
			guards = append(guards, g)
		}
		sort.Strings(guards)
		for _, guard := range guards {
			f := t.fences[site][guard]
			if !fn(site, guard, f.holder, f.token) {
				return
			}
		}
	}
}

// FenceToken returns the guard's durable fence floor: the largest fencing
// token ever admitted here and the holder it was issued to.
func (l *Log) FenceToken(site, guard string) (uint64, string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	f := l.t.fence(site, guard)
	return f.token, f.holder
}

// EnqueueRaiseFence lifts the guard's floor to (token, holder) without
// writing a value, for a fenced write admitted by the fence but superseded
// in the LWW order; it returns ErrFencedStale when the pair is below the
// floor. The raise is a WAL record of its own (op 'F'), so it survives a
// crash once the Commit's Wait returns nil.
func (l *Log) EnqueueRaiseFence(site, guard, holder string, token uint64) (Commit, error) {
	return l.enqueue(func() ([]byte, error) {
		if !l.t.fenceAdmits(site, guard, holder, token) {
			l.fenceRejs++
			return nil, ErrFencedStale
		}
		if l.t.fence(site, guard).token == token {
			// Same holdership re-asserting its own floor: nothing to persist.
			return nil, nil
		}
		l.t.raiseFence(site, guard, holder, token)
		return encodeFence(site, guard, holder, token), nil
	})
}

// EnqueueFencedPut writes key=value and raises the guard's floor to
// (token, holder) in one WAL record (op 'G'), so recovery can never observe
// the value without the floor that admitted it — and the log itself becomes
// an audit trail of which holdership wrote what, in admission order. It
// returns ErrFencedStale when the pair is below the floor: the write comes
// from a deposed holdership and must not land. The write is durable once
// the Commit's Wait returns nil.
func (l *Log) EnqueueFencedPut(site, key, value, guard, holder string, token uint64) (Commit, error) {
	return l.enqueue(func() ([]byte, error) {
		if !l.t.fenceAdmits(site, guard, holder, token) {
			l.fenceRejs++
			return nil, ErrFencedStale
		}
		if err := l.t.put(site, key, value, l.cfg.Quota); err != nil {
			return nil, err
		}
		l.t.raiseFence(site, guard, holder, token)
		return encodeFencedPut(site, key, value, guard, holder, token), nil
	})
}

// ---------------------------------------------------------------------------
// The exported WAL audit surface
// ---------------------------------------------------------------------------

// LogRecord is one decoded WAL/snapshot record. Op is one of 'P' (put),
// 'D' (delete), 'G' (fenced put: value write plus floor raise), or 'F'
// (floor raise alone); Guard/Holder/Token are set only for the fencing ops.
type LogRecord struct {
	Op    byte
	Site  string
	Key   string
	Value string

	Guard  string
	Holder string
	Token  uint64
}

// DecodeLogRecord parses one framed record payload. Malformed payloads
// (possible only through corruption that still passes the CRC, or fuzzed
// input) return an error; they never panic.
func DecodeLogRecord(payload []byte) (LogRecord, error) {
	var rec LogRecord
	if len(payload) < 1 {
		return rec, fmt.Errorf("store: empty record")
	}
	rec.Op = payload[0]
	r := wire.Reader{Buf: payload, Off: 1}
	var err error
	str := func() (s string) {
		if err == nil {
			s, err = r.String()
		}
		return s
	}
	switch rec.Op {
	case opPut, opDelete, opFencedPut:
		rec.Site, rec.Key = str(), str()
		if rec.Op != opDelete {
			rec.Value = str()
		}
		if rec.Op == opFencedPut {
			rec.Guard, rec.Holder = str(), str()
		}
	case opFence:
		rec.Site, rec.Guard, rec.Holder = str(), str(), str()
	default:
		return rec, fmt.Errorf("store: unknown record op %q", rec.Op)
	}
	if err == nil && (rec.Op == opFencedPut || rec.Op == opFence) {
		rec.Token, err = r.Uvarint()
	}
	if err != nil {
		return rec, fmt.Errorf("store: truncated record: %w", err)
	}
	if r.Len() != 0 {
		return rec, fmt.Errorf("store: %d trailing bytes in record", r.Len())
	}
	return rec, nil
}

// DumpWAL decodes every complete record in every surviving WAL file under
// fs, in log order (files ascending by sequence, records in append order).
// Each file's scan stops cleanly at a torn tail, exactly as recovery does.
// The e2e suite uses this to audit the fenced-write admission sequence
// recovered from a killed process's data directory.
func DumpWAL(fs FS) ([]LogRecord, error) {
	names, err := fs.List("")
	if err != nil {
		return nil, fmt.Errorf("store: list log dir: %w", err)
	}
	var out []LogRecord
	// List is sorted and the names zero-pad the sequence number, so the
	// files already come back in replay order.
	for _, name := range names {
		if _, ok := parseSeq(name, "wal-", ".log"); !ok {
			continue
		}
		data, err := ReadAll(fs, name)
		if err != nil {
			return nil, fmt.Errorf("store: read %s: %w", name, err)
		}
		ReplayFrames(data, func(payload []byte) error {
			rec, err := DecodeLogRecord(payload)
			if err != nil {
				return err
			}
			out = append(out, rec)
			return nil
		})
	}
	return out, nil
}
