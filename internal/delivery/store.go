// Package delivery implements CMI awareness delivery (paper Section 6.5):
// the awareness delivery agent, which consumes the output events produced
// by the awareness engine's Output operators, resolves the awareness
// delivery role and awareness role assignment to a set of participants,
// and queues the information for each of them; and the awareness
// information viewer, the client-side component that retrieves and
// acknowledges queued information.
//
// Queues are persistent: a participant is not assumed to be logged on
// when an awareness event is detected, so the queues are journaled and
// rebuilt on restart. A store keeps one journal for all of its queues,
// STATE/delivery.journal (package journal), whose records carry their
// participant; opening the store replays it once, dispatching each
// record to its participant's in-memory queue.
//
// The journal is written with group commit: each queue has its own lock,
// under which its records are staged into the shared journal, and every
// record staged while a commit is in flight joins the next group — one
// write (+ fsync when the store is opened with StoreOptions.Sync) for
// all of them. A fan-out to N participants, like N writers racing,
// therefore pays ~one commit per group rather than one per record — the
// same amortization transactional logs use — which is what lets sharded
// awareness detection scale on the durable local-delivery path.
package delivery

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mcc-cmi/cmi/internal/core"
	"github.com/mcc-cmi/cmi/internal/fs"
	"github.com/mcc-cmi/cmi/internal/journal"
	"github.com/mcc-cmi/cmi/internal/obs"
	"github.com/mcc-cmi/cmi/internal/wire"
)

// JournalName is the file name of a store's journal inside its
// directory.
const JournalName = "delivery.journal"

// A Notification is one piece of awareness information queued for one
// participant.
type Notification struct {
	// ID is unique per participant queue and orders the queue.
	ID int64 `json:"id"`
	// Time is the detection time of the composite event.
	Time time.Time `json:"time"`
	// Schema is the awareness schema that produced the information.
	Schema string `json:"schema"`
	// Description is the user-friendly description attached by the
	// output operator.
	Description string `json:"description"`
	// Params carries the digested parameters of the composite event in
	// JSON-friendly form.
	Params map[string]any `json:"params,omitempty"`
	// Priority orders the queue in the viewer: higher first, ties by
	// arrival. Zero is the default.
	Priority int `json:"priority,omitempty"`
	// Acked records whether the participant has acknowledged it.
	Acked bool `json:"acked,omitempty"`
}

// A record is one decoded journal record: Kind is one of the record
// codes (recNotif, recAck, recKey, recNext, see codec.go).
type record struct {
	Kind byte
	// Participant owns the queue the record belongs to.
	Participant string
	Notif       Notification
	AckID       int64
	// Key is the idempotency key of a remotely pushed notification
	// (EnqueueKeyed / EnqueueFanout); replayed on load so redelivery
	// after a crash on either side cannot duplicate a notification.
	// recKey records carry a bare key preserved by compaction after its
	// notification was acknowledged and dropped.
	Key string
	// NextID (recNext records) preserves the id high-water mark across
	// compaction, which drops the acked records that would otherwise
	// carry it; ids must never be reused even for acknowledged history.
	NextID int64
}

// A CommitHook observes committed notifications: it is invoked after
// each journal commit group that carries notifications, once per
// consecutive run of one participant's notifications in the group, with
// that participant and the run in id order. Calls are serialized and
// ordered (group commit serializes the journal, and each queue stages
// its records in id order), so a subscriber sees ids strictly ascending
// per participant. The hook runs on the commit leader's goroutine while
// the next group is still free to form, but it delays the group's
// writers from returning — it must never block (the streaming hub's
// Broadcast, the intended consumer, drops to cursor replay instead of
// blocking). ns is only valid during the call.
type CommitHook func(participant string, ns []Notification)

// staged is the value a notif record carries through its commit group
// to the commit hook.
type staged struct {
	participant string
	n           Notification
}

// A queue is one participant's in-memory queue. Its records live in the
// store's journal; its lock orders them there.
type queue struct {
	mu      sync.Mutex
	notifs  []Notification  // in id order
	keys    map[string]bool // idempotency keys already enqueued
	nextID  int64
	watches []chan Notification
	pending int  // unacked notifications, maintained incrementally
	closed  bool // the store has been closed
}

func newQueue() *queue {
	return &queue{keys: make(map[string]bool), nextID: 1}
}

// after returns the index of the first notification with an id greater
// than id: notifs is in id order (each queue stages its records in id
// order, and a load replays them in file order).
func (q *queue) after(id int64) int {
	return sort.Search(len(q.notifs), func(i int) bool { return q.notifs[i].ID > id })
}

// find returns the index of the notification with the given id.
func (q *queue) find(id int64) (int, bool) {
	i := q.after(id - 1)
	return i, i < len(q.notifs) && q.notifs[i].ID == id
}

// A Store owns the persistent per-participant queues of one CMI system.
// It is safe for concurrent use; operations on distinct queues do not
// contend, and concurrent appends group-commit into the one journal.
type Store struct {
	log *journal.Log[staged]

	// metrics is atomic so the enqueue/ack hot paths read it without
	// taking any store-wide lock.
	metrics atomic.Pointer[storeMetrics]
	// pendingTotal counts unacknowledged notifications across all
	// queues, maintained incrementally so the queue-depth gauge is O(1)
	// at scrape time instead of a full scan under a lock.
	pendingTotal atomic.Int64
	// commitHook, when set, observes every committed notification batch
	// (see CommitHook). Atomic so the commit path reads it without a
	// store-wide lock.
	commitHook atomic.Pointer[CommitHook]
	// run is the committed callback's scratch for one participant's run
	// of notifications; commit callbacks are serialized.
	run []Notification
	// poisoned is set when a failed write poisoned the journal; corrupt
	// when its load found mid-journal corruption. Both feed gauges and
	// the system health report.
	poisoned atomic.Bool
	corrupt  bool

	mu     sync.Mutex // guards queues map and closed only
	queues map[string]*queue
	closed bool
}

// StoreOptions configure a Store beyond its directory.
type StoreOptions struct {
	// Sync fsyncs the journal file at the end of every commit group,
	// making appends durable against machine crashes rather than only
	// process crashes. Group commit amortizes the fsync: every record
	// staged into one group, whichever queues they belong to, pays one
	// fsync.
	Sync bool
	// FS is the filesystem the journal lives on; nil means the real
	// one. Tests and the chaos oracle inject storage faults here.
	FS fs.FS
}

// storeMetrics holds the store's hot-path instruments; nil when the
// store is not instrumented (recording on nil instruments is a no-op,
// see package obs).
type storeMetrics struct {
	enqueued      *obs.Counter
	acked         *obs.Counter
	appendLatency *obs.Histogram
	commits       *obs.Counter
	batchSize     *obs.ValueHistogram
	encode        *obs.Histogram
}

// Instrument registers the store's metric series: notifications
// enqueued and acknowledged, commit-group latency and batch size, and
// the pending queue depth (an O(1) counter read at exposition time).
// A nil registry is a no-op.
func (s *Store) Instrument(reg *obs.Registry, labels ...obs.Label) {
	if reg == nil {
		return
	}
	s.metrics.Store(&storeMetrics{
		enqueued: reg.Counter("cmi_delivery_enqueued_total",
			"Notifications appended to participant queues.", labels...),
		acked: reg.Counter("cmi_delivery_acked_total",
			"Notifications acknowledged by participants.", labels...),
		appendLatency: reg.Histogram("cmi_delivery_journal_append_seconds",
			"Latency of one durable journal commit group (write, fsync when enabled).",
			nil, labels...),
		commits: reg.Counter("cmi_delivery_commits_total",
			"Journal commit groups written (each covers one or more records).", labels...),
		batchSize: reg.ValueHistogram("cmi_delivery_commit_batch_size",
			"Records coalesced into one journal commit group.", nil, labels...),
		encode: wire.Instrument(reg),
	})
	reg.GaugeFunc("cmi_delivery_queue_depth",
		"Unacknowledged notifications across all participant queues.",
		func() float64 { return float64(s.pendingDepth()) }, labels...)
	reg.GaugeFunc("cmi_delivery_poisoned_queues",
		"1 when a failed commit write or fsync poisoned the delivery journal (every queue refuses appends), else 0.",
		func() float64 { return float64(s.PoisonedQueues()) }, labels...)
	reg.GaugeFunc("cmi_delivery_corrupt_journals",
		"1 when the delivery journal's load stopped at mid-journal (non-tail) corruption, else 0.",
		func() float64 { return float64(s.CorruptJournals()) }, labels...)
}

// PoisonedQueues reports 1 when a failed commit write or fsync has
// poisoned the store's journal since it opened, and 0 otherwise. A
// poisoned journal refuses appends to every queue.
func (s *Store) PoisonedQueues() int { return b2i(s.poisoned.Load()) }

// CorruptJournals reports 1 when the store's journal was found
// mid-journal corrupt at load, and 0 otherwise: replay stopped at the
// first bad record with committed history after it. Every queue serves
// its decoded prefix read-only, and the condition is surfaced (health
// goes unhealthy) until `cmictl fsck` repairs the file.
func (s *Store) CorruptJournals() int { return b2i(s.corrupt) }

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// pendingDepth reports unacknowledged notifications across the queues
// for the queue-depth gauge — an O(1) read of the incrementally
// maintained counter, never a scan.
func (s *Store) pendingDepth() int {
	return int(s.pendingTotal.Load())
}

// OnCommit registers the store's commit hook, the per-commit-group
// broadcast feeding live streaming sessions: fn is invoked after each
// journal commit group that carries notifications, once per consecutive
// run of one participant's notifications in it, so one commit group
// costs a hook call per run however many writers it coalesced.
// Notifications are reported in id order per participant; a group whose
// write failed is still reported, because its records were accepted in
// memory (the journal decides on restart, and the keyed dedup backstops
// replays). Passing nil removes the hook.
func (s *Store) OnCommit(fn CommitHook) {
	if fn == nil {
		s.commitHook.Store(nil)
		return
	}
	s.commitHook.Store(&fn)
}

// Open reports whether the store is usable (not yet closed).
func (s *Store) Open() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.closed
}

// NewStore opens (creating if necessary) a queue store rooted at dir
// with default options.
func NewStore(dir string) (*Store, error) {
	return NewStoreWith(dir, StoreOptions{})
}

// NewStoreWith opens (creating if necessary) a queue store rooted at
// dir with the given options. It replays the store's journal into the
// queues and compacts it when acknowledged records dominate. A
// directory holding per-participant queue files but no journal (see
// LegacyQueues) is refused with an error wrapping journal.ErrLegacy,
// and nothing in it is written.
func NewStoreWith(dir string, opts StoreOptions) (*Store, error) {
	fsys := fs.Or(opts.FS)
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("delivery: %w", err)
	}
	path := filepath.Join(dir, JournalName)
	if _, err := os.Stat(path); os.IsNotExist(err) {
		legacy, err := LegacyQueues(fsys, dir)
		if err != nil {
			return nil, fmt.Errorf("delivery: %w", err)
		}
		if len(legacy) > 0 {
			return nil, fmt.Errorf("delivery: per-participant queue file(s) %s in %s were %w; drain them with the release that wrote them, or move them aside with cmictl fsck -quarantine",
				strings.Join(legacy, ", "), dir, journal.ErrLegacy)
		}
	}
	s := &Store{queues: make(map[string]*queue)}
	log, rep, err := journal.Open(path, journal.Options[staged]{
		FS:        fsys,
		Sync:      opts.Sync,
		Committed: s.committed,
		OnPoison:  func(error) { s.poisoned.Store(true) },
	}, s.replay)
	if err != nil {
		return nil, fmt.Errorf("delivery: %w", err)
	}
	s.log = log
	for _, q := range s.queues {
		for i := range q.notifs {
			if !q.notifs[i].Acked {
				q.pending++
			}
		}
		s.pendingTotal.Add(int64(q.pending))
	}
	if rep.State == journal.Corrupt {
		// The journal opened poisoned: every queue serves its decoded
		// prefix read-only and the journal is never compacted, which
		// would destroy the evidence fsck needs.
		s.corrupt = true
	} else {
		s.maybeCompact()
	}
	return s, nil
}

// LegacyQueues lists the per-participant queue files of the layout
// before the store-wide journal: the `*.jsonl` files in dir whose first
// byte starts a binary frame. A store refuses to open beside them until
// it has a journal of its own, and `cmictl fsck` reports them. JSON-lines
// files, such as audit journals, are not delivery state, and neither is
// spool.jsonl, the federation spool's old name, which the spool's own
// open refuses.
func LegacyQueues(fsys fs.FS, dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || filepath.Ext(name) != ".jsonl" || name == "spool.jsonl" {
			continue
		}
		data, err := fsys.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		if len(data) > 0 && data[0] == wire.Format1 {
			out = append(out, name)
		}
	}
	return out, nil
}

func errClosed() error { return fmt.Errorf("delivery: store closed") }

// hook returns the registered commit hook, or nil.
func (s *Store) hook() CommitHook {
	if p := s.commitHook.Load(); p != nil {
		return *p
	}
	return nil
}

// committed is the journal's Committed callback: it observes the commit
// group in the store's metrics and broadcasts its notifications through
// the commit hook, loaded at commit time, so a group led by an ack
// writer still broadcasts the notifications other writers joined. Each
// consecutive run of one participant's notifications is one hook call.
func (s *Store) committed(records int, took time.Duration, items []staged) {
	if m := s.metrics.Load(); m != nil {
		m.appendLatency.Observe(took)
		m.commits.Inc()
		m.batchSize.Observe(float64(records))
	}
	h := s.hook()
	if h == nil {
		return
	}
	for i := 0; i < len(items); {
		p := items[i].participant
		s.run = s.run[:0]
		for ; i < len(items) && items[i].participant == p; i++ {
			s.run = append(s.run, items[i].n)
		}
		h(p, s.run)
	}
	clear(s.run)
}

// queueFor resolves (creating on first use) the participant's queue.
// The store-wide lock covers only this map lookup/creation; all queue
// state is under the queue's own lock.
func (s *Store) queueFor(participant string) (*queue, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errClosed()
	}
	q, ok := s.queues[participant]
	if !ok {
		q = newQueue()
		s.queues[participant] = q
	}
	return q, nil
}

// replay applies one journal record to its participant's loading queue:
// notifications in order, acks, bare keys and id high-water marks. A
// record that fails to decode stops the load (journal.Check's rule).
func (s *Store) replay(payload []byte) error {
	var r record
	if err := decodeRecord(payload, &r); err != nil {
		return err
	}
	q, ok := s.queues[r.Participant]
	if !ok {
		q = newQueue()
		s.queues[r.Participant] = q
	}
	switch r.Kind {
	case recNotif:
		q.notifs = append(q.notifs, r.Notif)
		if r.Key != "" {
			q.keys[r.Key] = true
		}
		if r.Notif.ID >= q.nextID {
			q.nextID = r.Notif.ID + 1
		}
	case recAck:
		if i, ok := q.find(r.AckID); ok {
			q.notifs[i].Acked = true
		}
	case recKey:
		q.keys[r.Key] = true
	case recNext:
		if r.NextID > q.nextID {
			q.nextID = r.NextID
		}
	}
	return nil
}

// compactMinAcked is the floor below which compaction never triggers,
// so small stores (and their full history) are left alone.
const compactMinAcked = 4

// maybeCompact rewrites a journal dominated by acknowledged records
// down to its live state, per participant: an id high-water mark, the
// idempotency keys (kept standalone so redelivered pushes of acked
// notifications still dedup), and the live notifications. Long-lived
// stores therefore stop paying replay cost for information participants
// acknowledged long ago. The rewrite is atomic (journal.Log.Rewrite), so
// a crash at any point leaves either the old or the new journal, never
// a mix; it is best-effort — on any error the original journal is kept.
// It runs at load, before the store is shared; a corrupt journal never
// reaches it.
func (s *Store) maybeCompact() {
	live, acked := 0, 0
	for _, q := range s.queues {
		live += q.pending
		acked += len(q.notifs) - q.pending
	}
	if acked <= live || acked < compactMinAcked {
		return
	}
	var buf, payload []byte
	writeRec := func(pay []byte) {
		payload = pay
		buf = journal.AppendRecord(buf, pay)
	}
	for _, p := range s.Participants() {
		q := s.queues[p]
		writeRec(appendRecordNext(payload[:0], p, q.nextID))
		keys := make([]string, 0, len(q.keys))
		for k := range q.keys {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			writeRec(appendRecordKey(payload[:0], p, k))
		}
		for i := range q.notifs {
			if !q.notifs[i].Acked {
				writeRec(appendRecordNotif(payload[:0], p, "", &q.notifs[i]))
			}
		}
	}
	if s.log.Rewrite(buf) != nil {
		return
	}
	// The in-memory queues mirror the compacted journal: acked
	// notifications are gone from history from here on.
	for _, q := range s.queues {
		notifs := make([]Notification, 0, q.pending)
		for i := range q.notifs {
			if !q.notifs[i].Acked {
				notifs = append(notifs, q.notifs[i])
			}
		}
		q.notifs = notifs
	}
}

// usable reports why a queue refuses writes: closed store, or a
// poisoned journal — a failed commit, or mid-journal corruption found
// at load (appending past a damaged region would reuse ids from the
// lost suffix). Called with q.mu held.
func (s *Store) usable(q *queue) error {
	if q.closed {
		return errClosed()
	}
	if s.log.Poisoned() {
		return s.log.Err()
	}
	return nil
}

// accept applies one staged notification to the queue's in-memory
// state (id high-water mark, history, dedup key, pending counters,
// watchers) at id-assignment time, before its commit group lands —
// watchers therefore see notifications in id order. If the commit later
// fails the caller reports the error but the in-memory record stays;
// the journal decides on restart. Called with q.mu held.
func (s *Store) accept(q *queue, n Notification, key string, m *storeMetrics) {
	q.nextID = n.ID + 1
	q.notifs = append(q.notifs, n)
	if key != "" {
		q.keys[key] = true
	}
	q.pending++
	s.pendingTotal.Add(1)
	if m != nil {
		m.enqueued.Inc()
	}
	for _, ch := range q.watches {
		select {
		case ch <- n:
		default: // slow watcher: drop rather than block delivery
		}
	}
}

// Enqueue appends a notification to the participant's queue and returns
// it with its assigned id.
func (s *Store) Enqueue(participant string, n Notification) (Notification, error) {
	n, _, err := s.EnqueueKeyed(participant, "", n)
	return n, err
}

// EnqueueKeyed appends a notification under an idempotency key, the
// server side of cross-domain store-and-forward delivery: a key already
// present in the participant's queue (including keys replayed from the
// journal after a restart) makes the call a no-op reporting
// duplicate=true, so a redelivered push lands exactly once. An empty key
// behaves like Enqueue.
func (s *Store) EnqueueKeyed(participant, key string, n Notification) (Notification, bool, error) {
	var out [1]Notification
	dups, err := s.enqueue([]FanoutItem{{Users: []string{participant}, Key: key, N: n}}, out[:])
	if err != nil {
		return Notification{}, false, err
	}
	return out[0], dups > 0, nil
}

// EnqueueFanout appends one notification to many participant queues —
// the delivery agent's fan-out after awareness role resolution. The
// notification is encoded once and every queue's record joins the same
// commit group, so a fan-out of any width pays ~one commit (one fsync
// when syncing). Per-queue id ordering and idempotency-key dedup match
// EnqueueKeyed exactly.
//
// It returns the enqueued notifications aligned with users (zero-valued
// where the key was a duplicate or the queue failed), the number of
// duplicates, and the first error encountered; queues after a failing
// one are still attempted.
func (s *Store) EnqueueFanout(users []string, key string, n Notification) ([]Notification, int, error) {
	out := make([]Notification, len(users))
	dups, err := s.enqueue([]FanoutItem{{Users: users, Key: key, N: n}}, out)
	return out, dups, err
}

// A FanoutItem is one notification fan-out inside EnqueueFanoutBatch.
type FanoutItem struct {
	Users []string     // participant queues to fan out to
	Key   string       // idempotency key; "" skips dedup
	N     Notification // the notification body (ID assigned per queue)
}

// EnqueueFanoutBatch fans out a batch of notifications in one pass —
// the delivery agent's path when detection shards hand over a drained
// batch. Each notification is encoded once, and the whole batch joins
// one commit group.
//
// It returns the number of queues each item landed on (aligned with
// items; duplicates and failed queues excluded), the total duplicate
// count, and the first error. As with every enqueue, records accepted
// in memory before a failing commit stay accepted — the journal decides
// on restart.
func (s *Store) EnqueueFanoutBatch(items []FanoutItem) ([]int, int, error) {
	total := 0
	for i := range items {
		total += len(items[i].Users)
	}
	out := make([]Notification, total)
	dups, err := s.enqueue(items, out)
	queued := make([]int, len(items))
	k := 0
	for i := range items {
		for range items[i].Users {
			if out[k].ID != 0 {
				queued[i]++
			}
			k++
		}
	}
	return queued, dups, err
}

// enqueue is the one staging path under every enqueue. Each item's
// record tail (its key and notification body) is encoded once. Then,
// for every recipient in turn and under that queue's lock, the
// notification takes the queue's next id, its record is staged into the
// journal and it is accepted in memory — so each queue's journal order
// is its id order. Only then does enqueue wait, once, on the joined
// ticket of everything it staged (journal.Ticket.Join), so a call of
// any width pays one commit.
//
// out receives each recipient's notification, flattened in item then
// user order, zero-valued where the key was a duplicate, the queue
// refused, or the commit failed. dups counts the duplicates; err is the
// first error, and recipients after a failing one are still attempted.
func (s *Store) enqueue(items []FanoutItem, out []Notification) (dups int, err error) {
	fail := func(e error) {
		if err == nil {
			err = e
		}
	}
	m := s.metrics.Load()
	var (
		t   journal.Ticket[staged]
		rec = wire.GetBuf(256)
		k   = 0
	)
	for i := range items {
		it := &items[i]
		n := it.N
		n.Acked = false
		tail := encodeNotifTail(it.Key, &n, m)
		for _, u := range it.Users {
			slot := &out[k]
			k++
			q, e := s.queueFor(u)
			if e != nil {
				fail(e)
				continue
			}
			q.mu.Lock()
			if e := s.usable(q); e != nil {
				q.mu.Unlock()
				fail(e)
				continue
			}
			if it.Key != "" && q.keys[it.Key] {
				q.mu.Unlock()
				dups++
				continue
			}
			n.ID = q.nextID
			rec = appendNotifRecord(rec[:0], u, n.ID, tail)
			nt, e := s.log.StageRecord(rec, staged{u, n})
			if e == nil {
				s.accept(q, n, it.Key, m)
			}
			q.mu.Unlock()
			if e != nil {
				fail(e)
				continue
			}
			t = t.Join(nt)
			*slot = n
		}
		wire.PutBuf(tail)
	}
	wire.PutBuf(rec)
	if e := t.Wait(); e != nil {
		fail(e)
		clear(out)
	}
	return dups, err
}

// encodeNotifTail encodes a notif record tail in a pooled buffer
// (release with wire.PutBuf), observing encode latency when
// instrumented.
func encodeNotifTail(key string, n *Notification, m *storeMetrics) []byte {
	var t0 time.Time
	if m != nil {
		t0 = time.Now()
	}
	tail := appendNotifTail(wire.GetBuf(notifTailSize(key, n)), key, n)
	if m != nil {
		m.encode.Observe(time.Since(t0))
	}
	return tail
}

// Pending returns the participant's unacknowledged notifications,
// ordered by priority (highest first) and then by arrival.
func (s *Store) Pending(participant string) ([]Notification, error) {
	q, err := s.queueFor(participant)
	if err != nil {
		return nil, err
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil, errClosed()
	}
	var out []Notification
	for _, n := range q.notifs {
		if !n.Acked {
			out = append(out, n)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Priority != out[j].Priority {
			return out[i].Priority > out[j].Priority
		}
		return out[i].ID < out[j].ID
	})
	return out, nil
}

// PendingAfter returns up to limit unacknowledged notifications with an
// id strictly greater than afterID, in id order — the cursor-replay
// read of the streaming delivery plane: a session resuming from cursor
// C replays PendingAfter(C) from the journal before going live, and a
// backpressured session degrades to the same read instead of buffering
// without bound. A limit <= 0 means no limit. Journal compaction only
// ever drops acknowledged notifications and preserves the id high-water
// mark, so a cursor older than the last compaction still resumes
// correctly: every live notification after it is returned, and no id is
// ever reused below the cursor.
func (s *Store) PendingAfter(participant string, afterID int64, limit int) ([]Notification, error) {
	q, err := s.queueFor(participant)
	if err != nil {
		return nil, err
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil, errClosed()
	}
	var out []Notification
	for _, n := range q.notifs[q.after(afterID):] {
		if n.Acked {
			continue
		}
		out = append(out, n)
		if limit > 0 && len(out) == limit {
			break
		}
	}
	return out, nil
}

// A Digest summarizes a participant's pending queue per awareness
// schema — the event-aggregation facility Section 6.5 leaves open. The
// json tags pin the wire shape served by the federation monitor API.
type Digest struct {
	Schema      string `json:"schema"`      // awareness schema name
	Count       int    `json:"count"`       // pending notifications of the schema
	MaxPriority int    `json:"maxPriority"` // highest priority among them
	// Latest is the most recent pending notification of the schema.
	Latest Notification `json:"latest"`
}

// PendingDigest aggregates the pending notifications by awareness
// schema, ordered by max priority (highest first) then schema name.
func (s *Store) PendingDigest(participant string) ([]Digest, error) {
	pending, err := s.Pending(participant)
	if err != nil {
		return nil, err
	}
	bygroup := map[string]*Digest{}
	for _, n := range pending {
		d, ok := bygroup[n.Schema]
		if !ok {
			d = &Digest{Schema: n.Schema, MaxPriority: n.Priority}
			bygroup[n.Schema] = d
		}
		d.Count++
		if n.Priority > d.MaxPriority {
			d.MaxPriority = n.Priority
		}
		if n.ID > d.Latest.ID {
			d.Latest = n
		}
	}
	out := make([]Digest, 0, len(bygroup))
	for _, d := range bygroup {
		out = append(out, *d)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].MaxPriority != out[j].MaxPriority {
			return out[i].MaxPriority > out[j].MaxPriority
		}
		return out[i].Schema < out[j].Schema
	})
	return out, nil
}

// History returns every notification still in the participant's journal:
// all of them, except acked notifications dropped by journal compaction
// on a past load.
func (s *Store) History(participant string) ([]Notification, error) {
	q, err := s.queueFor(participant)
	if err != nil {
		return nil, err
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil, errClosed()
	}
	return append([]Notification(nil), q.notifs...), nil
}

// Ack marks a notification acknowledged, durably. The ack record rides
// the journal's commit groups like enqueues do.
func (s *Store) Ack(participant string, id int64) error {
	q, err := s.queueFor(participant)
	if err != nil {
		return err
	}
	m := s.metrics.Load()
	q.mu.Lock()
	if err := s.usable(q); err != nil {
		q.mu.Unlock()
		return err
	}
	i, ok := q.find(id)
	if !ok {
		q.mu.Unlock()
		return fmt.Errorf("delivery: participant %q has no notification %d: %w", participant, id, core.ErrNotFound)
	}
	if q.notifs[i].Acked {
		q.mu.Unlock()
		return nil
	}
	payload := appendRecordAck(wire.GetBuf(16+len(participant)), participant, id)
	q.notifs[i].Acked = true
	q.pending--
	s.pendingTotal.Add(-1)
	if m != nil {
		m.acked.Inc()
	}
	t, err := s.log.StageRecord(payload)
	q.mu.Unlock()
	wire.PutBuf(payload)
	if err != nil {
		return err
	}
	return t.Wait()
}

// Watch returns a channel receiving notifications as they are enqueued
// for the participant. Slow receivers miss notifications rather than
// blocking delivery; Pending is the catch-up path.
func (s *Store) Watch(participant string) (<-chan Notification, error) {
	q, err := s.queueFor(participant)
	if err != nil {
		return nil, err
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil, errClosed()
	}
	ch := make(chan Notification, 64)
	q.watches = append(q.watches, ch)
	return ch, nil
}

// Participants returns, sorted, the participants the store holds a
// queue for: every participant in the journal, and every one touched
// since the store opened.
func (s *Store) Participants() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.queues))
	for p := range s.queues {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Close closes the journal, waiting for in-flight commit groups to land
// first. Watch channels are closed.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	queues := make([]*queue, 0, len(s.queues))
	for _, q := range s.queues {
		queues = append(queues, q)
	}
	s.mu.Unlock()
	for _, q := range queues {
		q.mu.Lock()
		q.closed = true
		for _, ch := range q.watches {
			close(ch)
		}
		q.watches = nil
		q.mu.Unlock()
	}
	// The journal lets groups already staged land before closing.
	return s.log.Close()
}
