// Package journal is the one durable append log beneath every CMI log:
// the enactment write-ahead log, the delivery journal of all queues,
// the federation spool and the ingest benchmark's detection sink. Each
// of those is a record codec plus in-memory state on top of a Log; the
// policy they share lives here once, so the logs cannot diverge:
//
//   - the frame scan and its single end-of-journal classification
//     (Clean, Torn, Corrupt, Legacy), used alike by Open and by the
//     offline verifier behind `cmictl fsck` (Check);
//   - opening: a stale compaction tmp file is removed, a journal in a
//     format this build refuses fails the open, a torn tail is cut
//     off, and a corrupt journal opens poisoned (read-only);
//   - two-phase group commit: Stage runs under the caller's own lock,
//     so file order equals operation order; Ticket.Wait runs after
//     that lock is released. Each group is one write, plus one fsync
//     when the log syncs;
//   - fsyncgate poisoning: the first failed write or fsync makes every
//     later append fail, since the durable suffix is then unknown and
//     a retried fsync on the same descriptor can falsely succeed;
//   - Barrier, and compaction by atomic Rewrite.
//
// On disk a journal is a sequence of wire frames (package wire), each
// followed by a newline byte.
package journal

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mcc-cmi/cmi/internal/fs"
)

// Options configure a Log. T is the type of the values a log's records
// carry to its Committed callback (struct{} when there is none).
type Options[T any] struct {
	// FS is the filesystem the journal lives on; nil means the real one.
	FS fs.FS
	// Sync fsyncs every commit group, making appends durable against
	// machine crashes rather than only process crashes.
	Sync bool
	// Committed, when set, runs once per commit group on the leader's
	// goroutine, after the group's write whatever its outcome and before
	// any of the group's writers return. Calls are serialized in commit
	// order while the next group keeps forming. items are the values
	// staged with the group's records, in staging order; the slice is
	// reused once the call returns.
	Committed func(records int, took time.Duration, items []T)
	// OnPoison, when set, is called once when a failed write, fsync or
	// reopen poisons the log (not for Poison calls). It runs with the
	// log's lock held, so it must not call back into the log.
	OnPoison func(err error)
}

// A group is one commit batch: the records of every writer that staged
// while the previous group held the file. A log recycles two of them.
type group[T any] struct {
	seq   uint64
	buf   []byte
	n     int
	items []T
}

// A Log is one open journal file.
type Log[T any] struct {
	path      string
	fsys      fs.FS
	sync      bool
	committed func(int, time.Duration, []T)
	onPoison  func(error)

	mu       sync.Mutex
	cond     sync.Cond
	file     fs.File
	open     *group[T] // accepting records; nil when none is forming
	spare    *group[T] // the group last written, recycled by the next
	writing  bool      // a leader holds the file outside mu
	seq      uint64    // newest group
	finished uint64    // newest group written (or refused)
	failFrom uint64    // first group that failed; 0 when none has
	closed   bool
	poison   error
	poisoned atomic.Bool
}

// Open opens the journal at path for appending, creating it if absent.
// It removes a stale compaction tmp file, then checks the existing
// records, calling replay (when non-nil) for each in file order (see
// Check). A journal in a refused format fails the open with an error
// wrapping ErrLegacy, and the file is left untouched. A torn tail is
// truncated away, so new records never land behind it. A corrupt
// journal opens poisoned: replay has seen the intact prefix, nothing
// can be appended, and the report says where the damage is.
func Open[T any](path string, opts Options[T], replay func(payload []byte) error) (*Log[T], Report, error) {
	fsys := fs.Or(opts.FS)
	// A crash between writing a rewrite's tmp file and renaming it
	// leaves the original journal authoritative; discard the orphan.
	fsys.Remove(path + ".tmp")
	data, err := fsys.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, Report{}, fmt.Errorf("journal: %w", err)
	}
	var visit func(int64, []byte) error
	if replay != nil {
		visit = func(_ int64, payload []byte) error { return replay(payload) }
	}
	rep := Check(data, visit)
	if rep.State == Legacy {
		return nil, rep, rep.Err(path)
	}
	f, err := fsys.OpenAppend(path)
	if err != nil {
		return nil, rep, fmt.Errorf("journal: %w", err)
	}
	l := &Log[T]{path: path, fsys: fsys, sync: opts.Sync, committed: opts.Committed,
		onPoison: opts.OnPoison, file: f}
	l.cond.L = &l.mu
	switch rep.State {
	case Torn:
		if err := l.Rewrite(data[:rep.Offset]); err != nil {
			l.Close()
			return nil, rep, err
		}
	case Corrupt:
		l.Poison(rep.Err(path))
	}
	return l, rep, nil
}

// Path returns the journal file path.
func (l *Log[T]) Path() string { return l.path }

// A Ticket is a writer's handle on the commit group its records joined.
// The zero Ticket waits for nothing.
type Ticket[T any] struct {
	l    *Log[T]
	seq  uint64
	lead bool
}

// Stage adds already-framed records (n of them, see AppendRecord) and
// the values they carry to the open commit group, starting one if none
// is forming. Call it under the lock that orders the caller's
// operations, then release that lock and Wait on the ticket.
func (l *Log[T]) Stage(records []byte, n int, items ...T) (Ticket[T], error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	g, t, err := l.groupLocked()
	if err != nil {
		return t, err
	}
	g.buf = append(g.buf, records...)
	g.n += n
	if l.committed != nil {
		g.items = append(g.items, items...)
	}
	return t, nil
}

// StageRecord frames one record payload into the open commit group —
// Stage for a single record encoded by the caller.
func (l *Log[T]) StageRecord(payload []byte, items ...T) (Ticket[T], error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	g, t, err := l.groupLocked()
	if err != nil {
		return t, err
	}
	g.buf = AppendRecord(g.buf, payload)
	g.n++
	if l.committed != nil {
		g.items = append(g.items, items...)
	}
	return t, nil
}

// groupLocked returns the open group and a ticket on it, opening a new
// group (whose ticket leads its commit) when none is forming.
func (l *Log[T]) groupLocked() (*group[T], Ticket[T], error) {
	if err := l.errLocked(); err != nil {
		return nil, Ticket[T]{}, err
	}
	if g := l.open; g != nil {
		return g, Ticket[T]{l: l, seq: g.seq}, nil
	}
	g := l.spare
	if g == nil {
		g = &group[T]{}
	}
	l.spare = nil
	l.seq++
	g.seq = l.seq
	l.open = g
	return g, Ticket[T]{l: l, seq: g.seq, lead: true}, nil
}

// Join returns one ticket whose Wait covers both t and u, for a writer
// that stages several times (under different locks of its own) before
// it waits once. Groups are written in order, so the later group's
// ticket covers the earlier group. A writer that opened a group stages
// everything after into that same group, since only a group's leader
// seals it; so the joined ticket leads whenever either ticket did.
func (t Ticket[T]) Join(u Ticket[T]) Ticket[T] {
	if u.seq > t.seq {
		return u
	}
	if u.seq == t.seq {
		t.lead = t.lead || u.lead
	}
	return t
}

// Wait blocks until the ticket's commit group is written — leading the
// commit if its Stage opened the group — and returns the group's
// outcome. Never call it with the lock held that Stage ran under.
func (t Ticket[T]) Wait() error {
	l := t.l
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if t.lead {
		l.commitLocked()
	}
	for l.finished < t.seq {
		l.cond.Wait()
	}
	if l.failFrom != 0 && t.seq >= l.failFrom {
		return l.poison
	}
	return nil
}

// commitLocked is the leader's half of group commit: wait for the
// previous group to release the file (writers keep joining the open
// group meanwhile), seal the group, write it with one write (and one
// fsync when syncing), report it, and publish the outcome.
func (l *Log[T]) commitLocked() {
	for l.writing {
		l.cond.Wait()
	}
	if l.sync {
		// Linger one scheduler yield before sealing. The writers released
		// by the previous commit were blocked for its whole fsync; without
		// the yield they always miss this group, and groups alternate
		// between 1 and N-1 records instead of holding ~N. l.open stays
		// set, so no other leader can arise meanwhile.
		l.mu.Unlock()
		runtime.Gosched()
		l.mu.Lock()
	}
	g := l.open
	l.open = nil // seal: later writers start the next group
	err := l.poison
	var took time.Duration
	l.writing = true
	l.mu.Unlock()
	if err == nil {
		t0 := time.Now()
		_, err = l.file.Write(g.buf)
		if err == nil && l.sync {
			err = l.file.Sync()
		}
		took = time.Since(t0)
	}
	if l.committed != nil {
		l.committed(g.n, took, g.items)
	}
	l.mu.Lock()
	l.writing = false
	if err != nil {
		if l.poison == nil {
			l.poisonLocked(fmt.Errorf("journal %s poisoned: %w", l.path, err), true)
		}
		if l.failFrom == 0 {
			l.failFrom = g.seq
		}
	}
	l.finished = g.seq
	clear(g.items)
	g.items, g.buf, g.n = g.items[:0], g.buf[:0], 0
	if cap(g.buf) <= maxSpare {
		l.spare = g
	}
	l.cond.Broadcast()
}

// maxSpare bounds the group buffer a log keeps for reuse.
const maxSpare = 1 << 20

// poisonLocked records the sticky error. Called with l.mu held.
func (l *Log[T]) poisonLocked(err error, failed bool) {
	l.poison = err
	l.poisoned.Store(true)
	if failed && l.onPoison != nil {
		l.onPoison(err)
	}
}

// Poison marks the log permanently unusable with err: every later Stage
// fails with it. Logs whose open found damage are poisoned this way, so
// they stay read-only and uncompacted, preserving the evidence for fsck.
func (l *Log[T]) Poison(err error) {
	if err == nil {
		return
	}
	l.mu.Lock()
	if l.poison == nil {
		l.poisonLocked(err, false)
	}
	l.mu.Unlock()
}

// Poisoned reports whether the log refuses appends. It takes no lock,
// for health checks and metric scrapes.
func (l *Log[T]) Poisoned() bool { return l.poisoned.Load() }

// Err returns the error every Stage fails with — the poison or the
// log's closing — or nil while the log accepts appends.
func (l *Log[T]) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.errLocked()
}

func (l *Log[T]) errLocked() error {
	if l.poison != nil {
		return l.poison
	}
	if l.closed {
		return fmt.Errorf("journal %s: closed", l.path)
	}
	return nil
}

// quiesceLocked waits until no group is forming or being written. The
// open group's leader is running toward Wait (Stage's caller releases
// its own lock first), so the wait always ends.
func (l *Log[T]) quiesceLocked() {
	for l.open != nil || l.writing {
		l.cond.Wait()
	}
}

// Barrier waits until every record staged so far is written.
func (l *Log[T]) Barrier() {
	l.mu.Lock()
	l.quiesceLocked()
	l.mu.Unlock()
}

// Rewrite atomically replaces the journal's contents with records —
// framed by AppendRecord, built by the caller from its in-memory state
// or from the current file — and reopens the append handle. It first
// waits for staged groups to land; the caller keeps new records from
// staging (under its own lock) from building records until Rewrite
// returns. The replacement is tmp + fsync + rename + parent-dir fsync
// (fs.ReplaceFile), crash-safe at any point. If it fails the old
// journal stays and the log keeps appending to it; if the reopen fails
// the log is poisoned, since appends would reach the unlinked old file.
func (l *Log[T]) Rewrite(records []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.quiesceLocked()
	if err := l.errLocked(); err != nil {
		return err
	}
	if err := fs.ReplaceFile(l.fsys, l.path, records, true); err != nil {
		return fmt.Errorf("journal %s: rewrite: %w", l.path, err)
	}
	f, err := l.fsys.OpenAppend(l.path)
	if err != nil {
		err = fmt.Errorf("journal %s: reopen after rewrite: %w", l.path, err)
		l.poisonLocked(err, true)
		return err
	}
	l.file.Close()
	l.file = f
	return nil
}

// Close waits for staged groups to land, then closes the file. Later
// Stages fail; Close is idempotent.
func (l *Log[T]) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.quiesceLocked()
	l.closed = true
	return l.file.Close()
}
