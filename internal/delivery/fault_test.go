package delivery

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/mcc-cmi/cmi/internal/fs"
	"github.com/mcc-cmi/cmi/internal/journal"
)

// TestFsyncFailurePoisonsQueue pins the fsyncgate policy: the first
// failed commit fsync permanently poisons the store's one journal — the
// failing writer gets the error, and every later append, to any queue,
// fails fast instead of retrying Sync on the same descriptor.
func TestFsyncFailurePoisonsQueue(t *testing.T) {
	dir := t.TempDir()
	ff := fs.NewFault(nil, fs.FaultConfig{FailSyncAt: 1})
	s, err := NewStoreWith(dir, StoreOptions{Sync: true, FS: ff})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Enqueue("alice", Notification{Schema: "S", Description: "one"}); !errors.Is(err, fs.ErrInjected) {
		t.Fatalf("first enqueue: want injected sync failure, got %v", err)
	}
	if got := s.PoisonedQueues(); got != 1 {
		t.Fatalf("PoisonedQueues = %d, want 1", got)
	}
	// The fault was one-shot: a retry would now succeed at the fd level
	// — exactly the false success poisoning must prevent.
	_, err = s.Enqueue("alice", Notification{Schema: "S", Description: "two"})
	if err == nil || !strings.Contains(err.Error(), "poisoned") {
		t.Fatalf("second enqueue: want poisoned error, got %v", err)
	}
	if err := s.Ack("alice", 1); err == nil || !strings.Contains(err.Error(), "poisoned") {
		t.Fatalf("ack on poisoned queue: got %v", err)
	}
	// The journal is shared, so bob's queue is refused too.
	if _, err := s.Enqueue("bob", Notification{Schema: "S", Description: "other"}); err == nil || !strings.Contains(err.Error(), "poisoned") {
		t.Fatalf("enqueue to another queue: want poisoned error, got %v", err)
	}
	if got := s.PoisonedQueues(); got != 1 {
		t.Fatalf("PoisonedQueues = %d after more refused appends, want 1", got)
	}
}

// TestMidJournalCorruptionStopsLoad flips one byte inside a committed
// (non-tail) frame and asserts recovery stops at the first bad record,
// reports the damage, never replays past it, and refuses appends that
// would reuse ids from the lost suffix.
func TestMidJournalCorruptionStopsLoad(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := s.Enqueue("alice", Notification{Schema: "S", Description: "n"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, JournalName)
	if _, err := fs.CorruptFrame(path, 2); err != nil {
		t.Fatal(err)
	}
	before, _ := os.ReadFile(path)

	s2, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	pending, err := s2.Pending("alice")
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 2 || pending[0].ID != 1 || pending[1].ID != 2 {
		t.Fatalf("want the 2-notification prefix before the bad frame, got %+v", pending)
	}
	if got := s2.CorruptJournals(); got != 1 {
		t.Fatalf("CorruptJournals = %d, want 1", got)
	}
	if _, err := s2.Enqueue("alice", Notification{Schema: "S"}); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("append to corrupt journal: got %v", err)
	}
	// The damaged file must be preserved byte-for-byte for fsck — no
	// silent compaction or truncation of the evidence.
	after, _ := os.ReadFile(path)
	if string(before) != string(after) {
		t.Fatal("corrupt journal was rewritten on load")
	}
}

// TestTornTailStillTolerated guards the other half of the policy: a
// partial frame at end of file — the normal artifact of a crash mid-
// append — keeps loading silently and the queue stays writable.
func TestTornTailStillTolerated(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Enqueue("alice", Notification{Schema: "S"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, JournalName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	pending, err := s2.Pending("alice")
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 2 {
		t.Fatalf("want 2 surviving notifications, got %d", len(pending))
	}
	if got := s2.CorruptJournals(); got != 0 {
		t.Fatalf("torn tail misreported as corruption: %d", got)
	}
	if _, err := s2.Enqueue("alice", Notification{Schema: "S"}); err != nil {
		t.Fatalf("append after torn tail: %v", err)
	}
}

// TestCheckJournalDetectsDamage exercises the offline verifier over a
// healthy journal, a corrupted one, and a torn tail.
func TestCheckJournalDetectsDamage(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := s.Enqueue("alice", Notification{Schema: "S"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Ack("alice", 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, JournalName)
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	c := CheckJournal(clean)
	if c.Damaged() || c.Notifs != 5 || c.Acks != 1 || c.MaxID != 5 || c.NextID != 6 || c.OrphanAcks != 0 {
		t.Fatalf("clean journal misreported: %+v", c)
	}
	// Corrupt a committed frame: damage, stop offset, prefix counts.
	corrupted := append([]byte(nil), clean...)
	tmp := filepath.Join(dir, "c")
	os.WriteFile(tmp, corrupted, 0o644)
	if _, err := fs.CorruptFrame(tmp, 2); err != nil {
		t.Fatal(err)
	}
	corrupted, _ = os.ReadFile(tmp)
	c = CheckJournal(corrupted)
	if !c.Damaged() || c.State != journal.Corrupt || c.Notifs != 2 {
		t.Fatalf("corrupt journal misreported: %+v", c)
	}
	// Torn tail: reported torn, not damaged.
	c = CheckJournal(clean[:len(clean)-3])
	if c.Damaged() || c.State != journal.Torn {
		t.Fatalf("torn tail misreported: %+v", c)
	}
}

// TestUndecodableFrameMarksQueueCorrupt is the regression test for the
// loader that skipped a checksum-valid record it could not decode and
// kept going: the record was fully committed, so it is corruption. The
// queue serves only the prefix before it, counts as corrupt, refuses
// writes, agrees with the offline check, and keeps the file as is.
func TestUndecodableFrameMarksQueueCorrupt(t *testing.T) {
	dir := t.TempDir()
	var data []byte
	data = journal.AppendRecord(data, appendRecordNotif(nil, "alice", "", &Notification{ID: 1, Schema: "S", Description: "one"}))
	data = journal.AppendRecord(data, []byte{recNotif, 1, 2}) // CRC-valid, truncated payload
	data = journal.AppendRecord(data, appendRecordNotif(nil, "alice", "", &Notification{ID: 2, Schema: "S", Description: "two"}))
	path := filepath.Join(dir, JournalName)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	pending, err := s.Pending("alice")
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 1 || pending[0].ID != 1 {
		t.Fatalf("pending = %+v, want only the record before the bad one", pending)
	}
	if got := s.CorruptJournals(); got != 1 {
		t.Fatalf("CorruptJournals = %d, want 1", got)
	}
	if _, err := s.Enqueue("alice", Notification{Schema: "S"}); !errors.Is(err, journal.ErrCorrupt) {
		t.Fatalf("enqueue = %v, want journal.ErrCorrupt", err)
	}
	if c := CheckJournal(data); c.State != journal.Corrupt || c.Records != 1 {
		t.Fatalf("CheckJournal = %+v, want corrupt after 1 record", c)
	}
	after, _ := os.ReadFile(path)
	if string(after) != string(data) {
		t.Fatal("corrupt journal was rewritten on load")
	}
}
