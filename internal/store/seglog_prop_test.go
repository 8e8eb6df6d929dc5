package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"
)

// A seeded model check of the segment log, in the lease suite's mold: a
// table of self-contained ops applies in order against a log on a MemFS and
// against a map, a failure is shrunk greedily to a minimal table and printed
// as a Go literal that TestSegLogModelReplay runs.
//
// What the map knows per key is every body ever stored under it and which
// one is current. The log is soft state, so a read may miss at any time (the
// record's segment was reclaimed); what it may never do is serve bytes that
// were not stored under that key, and between crashes it may serve only the
// current ones. A reopen may bring back an entry that was merely forgotten
// (its record is still in the log) but never one that was tombstoned. A torn
// tail or a power failure may lose any suffix of what was written, and so
// bring back any older body of a key, which then is its current one. After
// every step the stats are what is on disk and within budget, every indexed
// entry reads back, and the log has never called Sync.

type logOp struct {
	// Kind: 'A' append, 'P' append whose write fails after Arg bytes,
	// 'F' forget, 'T' tombstone, 'R' read, 'O' reopen with budget Arg,
	// 'X' tear Arg bytes off the newest file and reopen, 'C' power failure
	// (MemFS.DropUnsynced) and reopen.
	Kind byte
	Key  int
	Size int // body bytes of an append
	Arg  int
}

const logModelKeys = 12

type logModel struct {
	fs     *cutFS
	mem    *MemFS
	log    *SegLog
	budget int64
	serial int
	// stored[k][v] is the body stored under key k at serial v; current[k] is
	// the serial a hit must return, 0 when any hit is wrong; dormant[k] marks
	// an entry the index dropped whose record a reopen may find again;
	// unsure[k] is set by a loss of tail: the next hit may be any stored body
	// and settles which is current.
	stored  [logModelKeys]map[int][]byte
	current [logModelKeys]int
	dormant [logModelKeys]bool
	unsure  [logModelKeys]bool
}

func logModelKey(k int) string { return "key-" + strconv.Itoa(k) }

func (m *logModel) reopen(budget int64) error {
	m.budget = budget
	log, err := OpenSegLog(m.fs, budget, logParse)
	m.log = log
	m.dormant = [logModelKeys]bool{} // each is back or was reclaimed: either way current stands
	return err
}

// observe checks one key against the model and folds what it saw back in.
func (m *logModel) observe(k int) string {
	key := logModelKey(k)
	_, indexed := m.log.Lookup(key)
	got, ok := logGet(m.log, key)
	if !ok {
		if indexed {
			return fmt.Sprintf("%s: indexed, and its read failed", key)
		}
		return ""
	}
	if m.dormant[k] {
		return fmt.Sprintf("%s: served %.24q though the index had dropped it", key, got)
	}
	if m.unsure[k] {
		for v, body := range m.stored[k] {
			if bytes.Equal(body, got) {
				m.current[k], m.unsure[k] = v, false
				return ""
			}
		}
		return fmt.Sprintf("%s: after a lost tail served %.24q, which was never stored under it", key, got)
	}
	if want, ok := m.stored[k][m.current[k]]; !ok || !bytes.Equal(got, want) {
		return fmt.Sprintf("%s: served %.24q, want a miss or serial %d", key, got, m.current[k])
	}
	return ""
}

func (m *logModel) apply(op logOp) string {
	k := op.Key % logModelKeys
	key := logModelKey(k)
	switch op.Kind {
	case 'A', 'P':
		m.serial++
		body := logBody(key, m.serial%250+1, 1+op.Size)
		if op.Kind == 'P' {
			m.fs.left = op.Arg
		}
		err := logPut(m.log, key, body)
		failed := m.fs.left < 0 && op.Kind == 'P'
		m.fs.left = -1
		switch {
		case failed && err == nil:
			return fmt.Sprintf("%s: a write cut at %d bytes reported success", key, op.Arg)
		case !failed && err != nil:
			return fmt.Sprintf("%s: append failed: %v", key, err)
		case !failed:
			if m.stored[k] == nil {
				m.stored[k] = make(map[int][]byte)
			}
			m.stored[k][m.serial] = body
			m.current[k], m.dormant[k], m.unsure[k] = m.serial, false, false
		}
		// A cut write leaves a torn record no replay accepts and the entry it
		// would have replaced where it was.
	case 'F':
		if ref, ok := m.log.Lookup(key); ok {
			m.log.Forget(key, ref)
			m.dormant[k] = true
		}
	case 'T':
		if _, ok := m.log.Lookup(key); ok {
			logKill(m.log, key)
			// Whichever record it buried, it is buried: until a tail is lost
			// nothing may be served.
			m.current[k], m.dormant[k], m.unsure[k] = 0, false, false
		}
	case 'R':
	case 'O':
		if err := m.reopen(int64(op.Arg)); err != nil {
			return err.Error()
		}
	case 'X', 'C':
		if op.Kind == 'C' {
			m.mem.DropUnsynced()
		} else if names, _ := m.mem.List(segPrefix); len(names) > 0 {
			name := names[len(names)-1]
			data, _ := ReadAll(m.mem, name)
			f, _ := m.mem.Create(name)
			f.Write(data[:max(len(data)-op.Arg, 0)])
		}
		for k := range m.unsure {
			m.unsure[k] = true
		}
		if err := m.reopen(m.budget); err != nil {
			return err.Error()
		}
		if op.Kind == 'C' && m.log.Stats() != (SegLogStats{}) {
			return fmt.Sprintf("after a power failure the log still holds %+v: something was fsynced", m.log.Stats())
		}
	}
	for k := 0; k < logModelKeys; k++ {
		if fail := m.observe(k); fail != "" {
			return fail
		}
	}
	files, onDisk := 0, int64(0)
	names, _ := m.mem.List(segPrefix)
	for _, name := range names {
		data, _ := ReadAll(m.mem, name)
		files++
		onDisk += int64(len(data))
	}
	if st := m.log.Stats(); st.Bytes != onDisk || st.Segments != files || st.Bytes > m.budget || st.LiveBytes > st.Bytes || st.LiveBytes < 0 || st.Entries != len(m.log.index) {
		return fmt.Sprintf("stats %+v, budget %d; on disk %d bytes in %d files", st, m.budget, onDisk, files)
	}
	if m.mem.Syncs() != 0 {
		return "the log called Sync"
	}
	return ""
}

// logModelFailure runs a table and reports the first step that fails.
func logModelFailure(ops []logOp) string {
	mem := NewMemFS()
	m := &logModel{fs: &cutFS{FS: mem, left: -1}, mem: mem}
	if err := m.reopen(4 << 10); err != nil {
		return err.Error()
	}
	for i, op := range ops {
		if fail := m.apply(op); fail != "" {
			return fmt.Sprintf("step %d (%c): %s", i, op.Kind, fail)
		}
	}
	return ""
}

func genLogOps(rnd *rand.Rand, n int) []logOp {
	ops := make([]logOp, n)
	for i := range ops {
		op := logOp{Key: rnd.Intn(logModelKeys)}
		switch k := rnd.Float64(); {
		case k < 0.45:
			op.Kind, op.Size = 'A', rnd.Intn(700)
		case k < 0.52:
			op.Kind, op.Size = 'P', rnd.Intn(700)
			op.Arg = rnd.Intn(FrameHeader + 8 + op.Size)
		case k < 0.60:
			op.Kind = 'F'
		case k < 0.68:
			op.Kind = 'T'
		case k < 0.86:
			op.Kind = 'R'
		case k < 0.93:
			op.Kind, op.Arg = 'O', 1<<10+rnd.Intn(7<<10)
		case k < 0.98:
			op.Kind, op.Arg = 'X', rnd.Intn(900)
		default:
			op.Kind = 'C'
		}
		ops[i] = op
	}
	return ops
}

// shrinkLogOps greedily removes ops while the failure reproduces.
func shrinkLogOps(ops []logOp) []logOp {
	cur := append([]logOp(nil), ops...)
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(cur); i++ {
			cand := append(append([]logOp(nil), cur[:i]...), cur[i+1:]...)
			if logModelFailure(cand) != "" {
				cur, changed = cand, true
				i--
			}
		}
	}
	return cur
}

func formatLogOps(ops []logOp) string {
	var sb strings.Builder
	sb.WriteString("[]logOp{\n")
	for _, op := range ops {
		fmt.Fprintf(&sb, "\t{Kind: '%c', Key: %d, Size: %d, Arg: %d},\n", op.Kind, op.Key, op.Size, op.Arg)
	}
	sb.WriteString("}")
	return sb.String()
}

func TestSegLogModelProperty(t *testing.T) {
	base := int64(20000)
	if s := os.Getenv("NAKIKA_SEED_OFFSET"); s != "" {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			base += v
		}
	}
	for iter := int64(0); iter < 48; iter++ {
		rnd := rand.New(rand.NewSource(base + iter))
		ops := genLogOps(rnd, 20+rnd.Intn(180))
		if f := logModelFailure(ops); f != "" {
			t.Fatalf("seed %d failed: %s\nminimal failing table (replay via TestSegLogModelReplay):\n%s",
				base+iter, f, formatLogOps(shrinkLogOps(ops)))
		}
	}
}

// TestSegLogModelReplay replays pinned tables through the same harness: the
// regression slot for any table the shrinker reports, pre-seeded with the
// orders the log's rules exist for.
func TestSegLogModelReplay(t *testing.T) {
	tables := map[string][]logOp{
		// A tombstone in a later segment outlives the record it buries.
		"tombstone-survives-reopen": {
			{Kind: 'A', Key: 1, Size: 600}, {Kind: 'A', Key: 2, Size: 600},
			{Kind: 'T', Key: 1}, {Kind: 'O', Arg: 4 << 10}, {Kind: 'R', Key: 1},
		},
		// Even when the segment that holds it has no live record: removing
		// that segment at one open would bring the entry back at the next.
		"tombstone-survives-two-reopens": {
			{Kind: 'A', Key: 1, Size: 100}, {Kind: 'A', Key: 2, Size: 100}, {Kind: 'O', Arg: 4 << 10},
			{Kind: 'T', Key: 1}, {Kind: 'O', Arg: 4 << 10}, {Kind: 'O', Arg: 4 << 10}, {Kind: 'R', Key: 1},
		},
		// A forgotten entry's record is still in the log: a reopen may serve
		// it, a live log may not.
		"forgotten-returns-only-at-reopen": {
			{Kind: 'A', Key: 3, Size: 50}, {Kind: 'F', Key: 3}, {Kind: 'R', Key: 3},
			{Kind: 'O', Arg: 4 << 10}, {Kind: 'R', Key: 3},
		},
		// Losing the tail that held the superseding record brings the older
		// body back, and only a body that was stored.
		"lost-tail-resurrects-older": {
			{Kind: 'A', Key: 4, Size: 300}, {Kind: 'A', Key: 4, Size: 200},
			{Kind: 'X', Arg: 100}, {Kind: 'R', Key: 4},
		},
		// A failed write leaves the entry it would have replaced in place,
		// and the next append starts another segment.
		"failed-write-keeps-the-old": {
			{Kind: 'A', Key: 5, Size: 100}, {Kind: 'P', Key: 5, Size: 400, Arg: 17},
			{Kind: 'R', Key: 5}, {Kind: 'A', Key: 6, Size: 10}, {Kind: 'O', Arg: 4 << 10},
		},
		// A budget lowered below what is on disk is met at the open.
		"lowered-budget": {
			{Kind: 'A', Key: 0, Size: 700}, {Kind: 'A', Key: 1, Size: 700}, {Kind: 'A', Key: 2, Size: 700},
			{Kind: 'A', Key: 3, Size: 700}, {Kind: 'O', Arg: 1 << 10}, {Kind: 'A', Key: 4, Size: 700},
		},
		// Nothing is fsynced, so a power failure empties the log and it works.
		"power-failure": {
			{Kind: 'A', Key: 7, Size: 100}, {Kind: 'C'}, {Kind: 'R', Key: 7}, {Kind: 'A', Key: 7, Size: 100},
		},
	}
	for name, ops := range tables {
		if f := logModelFailure(ops); f != "" {
			t.Errorf("%s: %s", name, f)
		}
	}
}
