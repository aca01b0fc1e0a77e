// Package stream implements the CMI streaming delivery plane: long-lived
// push sessions that ride the delivery store's group-commit journal, so
// the paper's "Client for Participants" receives awareness information
// as it is detected instead of polling the viewer API.
//
// The design has three load-bearing properties:
//
//   - Resumable cursors. Notification ids are journal-ordered per
//     participant, so a session's position is one int64 — the id of the
//     last notification it delivered. A reconnecting client presents its
//     cursor and the session replays everything after it from the
//     durable queue (delivery.Store.PendingAfter) before going live.
//     Delivery is therefore exactly-once and in-order across any number
//     of disconnects.
//
//   - Group-commit fan-out. The hub subscribes to the store's commit
//     hook (delivery.Store.OnCommit): each consecutive run of one
//     participant's notifications in a journal commit group arrives as
//     one Broadcast call carrying the whole run, and a live session
//     turns it into one frame write — N writers coalescing in a commit
//     group cost each session about one write, not N.
//
//   - Bounded memory under backpressure. Each session's live buffer is
//     bounded. A slow client that falls behind does not block the commit
//     path and does not grow the buffer: the session drops its buffer,
//     flips to replay mode, and catches up from the journal by cursor.
//     The commit path never waits on a client, and a session's memory is
//     O(buffer bound) regardless of how far behind its client is.
//
// The wire protocol (Server-Sent Events over the federation server's
// GET /api/stream/notifications) is specified in docs/STREAMING.md.
package stream

import (
	"context"
	"errors"
	"sync"

	"github.com/mcc-cmi/cmi/internal/delivery"
	"github.com/mcc-cmi/cmi/internal/obs"
)

// ErrClosed is returned by Session.Next after the session (or its hub)
// has been closed.
var ErrClosed = errors.New("stream: session closed")

// DefaultSessionBuffer is the default bound on a session's in-memory
// live buffer, in notifications. Past it the session degrades to cursor
// replay from the journal (see Options.SessionBuffer).
const DefaultSessionBuffer = 256

// DefaultReplayBatch is the default number of notifications fetched per
// cursor-replay read.
const DefaultReplayBatch = 512

// Options configure a Hub.
type Options struct {
	// SessionBuffer bounds each session's in-memory live buffer, in
	// notifications. When a broadcast would push a session past the
	// bound, the session drops the buffer and degrades to cursor replay
	// from the journal instead of growing or blocking the commit path.
	// 0 selects DefaultSessionBuffer.
	SessionBuffer int
	// ReplayBatch bounds the notifications fetched per cursor-replay
	// read, so one resuming session with a deep backlog cannot hold a
	// queue lock for an unbounded scan. 0 selects DefaultReplayBatch.
	ReplayBatch int
}

// A Hub owns every streaming session of one CMI system. It receives
// committed notification batches from the delivery store's commit hook
// and fans them out to the live sessions of the affected participant.
// It is safe for concurrent use.
type Hub struct {
	store       *delivery.Store
	sessionBuf  int
	replayBatch int

	// metrics are nil-safe (recording on nil obs instruments is a no-op).
	sessions   *obs.Gauge
	dropped    *obs.Counter
	frameWrite *obs.Histogram
	events     *obs.Counter

	mu     sync.Mutex
	byPart map[string]map[*Session]struct{}
	closed bool
}

// NewHub returns a hub reading cursor replays from store. Wire it to
// the store with store.OnCommit(h.Broadcast) to make sessions live.
func NewHub(store *delivery.Store, opts Options) *Hub {
	if opts.SessionBuffer <= 0 {
		opts.SessionBuffer = DefaultSessionBuffer
	}
	if opts.ReplayBatch <= 0 {
		opts.ReplayBatch = DefaultReplayBatch
	}
	return &Hub{
		store:       store,
		sessionBuf:  opts.SessionBuffer,
		replayBatch: opts.ReplayBatch,
		byPart:      make(map[string]map[*Session]struct{}),
	}
}

// Instrument registers the hub's metric series: the live session gauge,
// the backpressure degradations counter, frames sent, and frame-write
// latency. A nil registry is a no-op.
func (h *Hub) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	h.sessions = reg.Gauge("cmi_stream_sessions",
		"Streaming delivery sessions currently subscribed.")
	h.dropped = reg.Counter("cmi_stream_dropped_to_replay_total",
		"Times a slow session's live buffer overflowed and the session degraded to cursor replay from the journal.")
	h.frameWrite = reg.Histogram("cmi_stream_frame_write_seconds",
		"Latency of writing one batched SSE frame to a session's transport.", nil)
	h.events = reg.Counter("cmi_stream_events_total",
		"Notifications written to streaming sessions (replayed and live).")
}

// Broadcast offers one committed notification batch to the live
// sessions of a participant. It is the store's commit hook: invoked on
// the journal commit path, once per consecutive run of the participant's
// notifications in a commit group, in id order. It never blocks — a session whose buffer
// cannot take the batch is flipped to cursor replay instead.
func (h *Hub) Broadcast(participant string, ns []delivery.Notification) {
	if len(ns) == 0 {
		return
	}
	h.mu.Lock()
	set := h.byPart[participant]
	if len(set) == 0 {
		h.mu.Unlock()
		return
	}
	// Snapshot under the hub lock; session offers take per-session locks
	// only, so a stuck session cannot delay hub subscribe/close.
	sessions := make([]*Session, 0, len(set))
	for s := range set {
		sessions = append(sessions, s)
	}
	h.mu.Unlock()
	for _, s := range sessions {
		s.offer(ns)
	}
}

// Subscribe opens a streaming session for a participant, resuming after
// cursor (0 streams everything pending). The session first replays the
// durable queue past the cursor, then follows the live broadcast.
// Close the session when the client disconnects.
func (h *Hub) Subscribe(participant string, cursor int64) (*Session, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, ErrClosed
	}
	s := &Session{
		hub:         h,
		participant: participant,
		cursor:      cursor,
		replay:      true, // deliver the journal backlog before going live
		notify:      make(chan struct{}, 1),
		buf:         make([]delivery.Notification, 0, 16),
	}
	set := h.byPart[participant]
	if set == nil {
		set = make(map[*Session]struct{})
		h.byPart[participant] = set
	}
	set[s] = struct{}{}
	h.sessions.Inc()
	return s, nil
}

// Sessions returns a snapshot of every live session, for inspection
// and administrative shedding (closing a session forces its client to
// reconnect and resume by cursor).
func (h *Hub) Sessions() []*Session {
	h.mu.Lock()
	defer h.mu.Unlock()
	var all []*Session
	for _, set := range h.byPart {
		for s := range set {
			all = append(all, s)
		}
	}
	return all
}

// SessionCount reports the number of live sessions.
func (h *Hub) SessionCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for _, set := range h.byPart {
		n += len(set)
	}
	return n
}

// Close terminates every session (their Next calls return ErrClosed)
// and refuses new subscriptions. It is idempotent, and safe to call
// before the delivery store closes — sessions stop reading first.
func (h *Hub) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	var all []*Session
	for _, set := range h.byPart {
		for s := range set {
			all = append(all, s)
		}
	}
	h.byPart = make(map[string]map[*Session]struct{})
	h.mu.Unlock()
	for _, s := range all {
		s.close(false)
	}
}

// unsubscribe removes a closed session from the hub's index.
func (h *Hub) unsubscribe(s *Session) {
	h.mu.Lock()
	if set := h.byPart[s.participant]; set != nil {
		if _, ok := set[s]; ok {
			delete(set, s)
			if len(set) == 0 {
				delete(h.byPart, s.participant)
			}
			h.sessions.Dec()
		}
	}
	h.mu.Unlock()
}

// A Session is one participant's resumable push stream. One goroutine
// (the transport handler) consumes it via Next; the hub's Broadcast
// feeds it concurrently. The session guarantees exactly-once, in-order
// delivery relative to its cursor: every pending notification with an
// id above the cursor is returned exactly once, in id order, however
// the session interleaves journal replay and live broadcast.
type Session struct {
	hub         *Hub
	participant string

	mu     sync.Mutex
	cursor int64                   // id of the last notification returned by Next
	buf    []delivery.Notification // live buffer, bounded by hub.sessionBuf
	replay bool                    // journal replay owed before trusting buf
	closed bool
	notify chan struct{} // 1-buffered wake-up for Next
}

// Participant returns the participant the session streams for.
func (s *Session) Participant() string { return s.participant }

// Cursor returns the id of the last notification returned by Next —
// the value a client would present to resume after this session.
func (s *Session) Cursor() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cursor
}

// offer appends a broadcast batch to the live buffer, or — if the
// buffer cannot take it — drops the buffer and flips the session to
// cursor replay. Never blocks; called from the journal commit path.
func (s *Session) offer(ns []delivery.Notification) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	switch {
	case s.replay:
		// Already catching up from the journal; the replay read will
		// observe these notifications (they are committed by now).
	case len(s.buf)+len(ns) > s.hub.sessionBuf:
		// Slow client: bound memory by degrading to journal replay
		// rather than buffering without bound or blocking the commit.
		s.buf = s.buf[:0]
		s.replay = true
		s.hub.dropped.Inc()
	default:
		s.buf = append(s.buf, ns...)
	}
	s.mu.Unlock()
	s.wake()
}

// wake nudges a Next call blocked on the notify channel.
func (s *Session) wake() {
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// Next blocks until notifications after the session's cursor are
// available and returns the next in-order batch, advancing the cursor
// past it. A batch is either one journal replay read (bounded by the
// hub's replay batch size) or the session's drained live buffer — in
// both cases the caller should write it as a single frame. Next returns
// ErrClosed after Close, or the context's error if it is done first.
// It must be called from a single goroutine.
func (s *Session) Next(ctx context.Context) ([]delivery.Notification, error) {
	for {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return nil, ErrClosed
		}
		if s.replay {
			// Leave replay mode BEFORE reading the journal: broadcasts
			// arriving during the read buffer as live and are deduped
			// against the cursor, so nothing falls between replay and
			// live. If the read fills a whole batch there may be more
			// backlog — stay in replay until a read comes back short.
			s.replay = false
			cursor := s.cursor
			s.mu.Unlock()
			ns, err := s.hub.store.PendingAfter(s.participant, cursor, s.hub.replayBatch)
			if err != nil {
				return nil, err
			}
			if len(ns) > 0 {
				s.mu.Lock()
				if s.closed {
					s.mu.Unlock()
					return nil, ErrClosed
				}
				if len(ns) == s.hub.replayBatch {
					s.replay = true // deep backlog: more to fetch
				}
				s.cursor = ns[len(ns)-1].ID
				s.mu.Unlock()
				return ns, nil
			}
			continue // caught up; fall through to the live buffer
		}
		if len(s.buf) > 0 {
			// Drain the live buffer, skipping anything at or below the
			// cursor (already delivered by a replay read that raced the
			// broadcast). Ids are ascending, so one pass suffices.
			batch := make([]delivery.Notification, 0, len(s.buf))
			for _, n := range s.buf {
				if n.ID > s.cursor {
					batch = append(batch, n)
				}
			}
			s.buf = s.buf[:0]
			if len(batch) > 0 {
				s.cursor = batch[len(batch)-1].ID
				s.mu.Unlock()
				return batch, nil
			}
			s.mu.Unlock()
			continue
		}
		s.mu.Unlock()
		select {
		case <-s.notify:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// Close ends the session: a blocked Next returns ErrClosed and the hub
// forgets the session. Idempotent.
func (s *Session) Close() { s.close(true) }

func (s *Session) close(unsubscribe bool) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.buf = nil
	s.mu.Unlock()
	s.wake()
	if unsubscribe {
		s.hub.unsubscribe(s)
	}
}
