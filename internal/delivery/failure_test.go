package delivery

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/mcc-cmi/cmi/internal/core"
	"github.com/mcc-cmi/cmi/internal/event"
	"github.com/mcc-cmi/cmi/internal/journal"
)

// Failure-injection tests for the persistence layer (experiment E10's
// "what happens when the disk fights back" flank).

func TestNewStoreOnFilePathFails(t *testing.T) {
	dir := t.TempDir()
	blocker := filepath.Join(dir, "not-a-dir")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewStore(blocker); err == nil {
		t.Fatal("store opened on a file path")
	}
}

// TestQueueOpenFailureSurfaces: the store's journal is opened once, by
// NewStore, so a directory the journal cannot be created in fails there.
func TestQueueOpenFailureSurfaces(t *testing.T) {
	if os.Getuid() == 0 {
		t.Skip("running as root: directory permissions are not enforced")
	}
	dir := t.TempDir()
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(dir, 0o755)
	if s, err := NewStore(dir); err == nil {
		s.Close()
		t.Fatal("store opened in a read-only directory")
	}
}

// TestAgentSurvivesStoreFailure: delivery failures are counted as
// undeliverable, never panics, and later deliveries still work.
func TestAgentSurvivesStoreFailure(t *testing.T) {
	dir := core.NewDirectory()
	if err := dir.AddParticipant(core.Participant{ID: "u"}); err != nil {
		t.Fatal(err)
	}
	if err := dir.AssignRole("R", "u"); err != nil {
		t.Fatal(err)
	}
	store := newStore(t)
	agent := NewAgent(dir, nil, store)
	// Close the store out from under the agent.
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	agent.Consume(outputEvent(core.OrgRole("R"), "", "S", event.ProcessRef{SchemaID: "P", InstanceID: "p"}))
	delivered, undeliverable, lastErr := agent.Stats()
	if delivered != 0 || undeliverable == 0 || lastErr == nil {
		t.Fatalf("stats = %d, %d, %v", delivered, undeliverable, lastErr)
	}
}

// TestJournalWithForeignRecords: a committed record of a kind this
// build does not know is never skipped — it stops the load as
// corruption, the queue serves the prefix before it and refuses writes.
func TestJournalWithForeignRecords(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Enqueue("u", Notification{Schema: "S", Description: "keep"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, JournalName)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(journal.AppendRecord(nil, []byte{0x7f, 1, 2, 3})); err != nil {
		t.Fatal(err)
	}
	f.Close()
	s2, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	pending, err := s2.Pending("u")
	if err != nil || len(pending) != 1 || pending[0].Description != "keep" {
		t.Fatalf("pending = %v, %v", pending, err)
	}
	if s2.CorruptJournals() != 1 {
		t.Fatalf("CorruptJournals = %d, want 1", s2.CorruptJournals())
	}
	if _, err := s2.Enqueue("u", Notification{Schema: "S"}); !errors.Is(err, journal.ErrCorrupt) {
		t.Fatalf("enqueue after a foreign record = %v, want journal.ErrCorrupt", err)
	}
}
