package system

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"github.com/mcc-cmi/cmi/internal/delivery"
	"github.com/mcc-cmi/cmi/internal/fs"
	"github.com/mcc-cmi/cmi/internal/vclock"
)

func mustNotif() delivery.Notification {
	return delivery.Notification{Schema: "S", Description: "n"}
}

// TestCorruptWALSurfacedEndToEnd: a system rebooted on a state dir
// whose WAL has a flipped byte mid-journal serves the replayed prefix
// read-only, reports the damage in Recovery() and Health(), and
// refuses every state-changing operation — never silently truncates.
func TestCorruptWALSurfacedEndToEnd(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Clock: vclock.NewVirtual(), StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadSpec(soloSpec); err != nil {
		t.Fatal(err)
	}
	addWorker(t, s)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	runSolo(t, s)
	if _, err := s.StartProcess("Solo", "w1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := fs.CorruptFrame(filepath.Join(dir, "enact.wal"), 2); err != nil {
		t.Fatal(err)
	}
	s2, err := New(Config{Clock: vclock.NewVirtual(), StateDir: dir})
	if err != nil {
		t.Fatalf("boot on corrupt wal: %v (must serve the prefix, loudly)", err)
	}
	defer s2.Close()
	rec := s2.Recovery()
	if !rec.Corrupt || rec.CorruptOffset <= 0 {
		t.Fatalf("corruption not reported: %+v", rec)
	}
	addWorker(t, s2)
	if err := s2.Start(); err != nil {
		t.Fatal(err)
	}
	h := s2.Health()
	if h.Healthy || !h.WALCorrupt || !h.WALPoisoned {
		t.Fatalf("health hides the damage: %+v", h)
	}
	// Writes must be refused: new records would reuse the sequence
	// numbers of the unreachable suffix.
	if _, err := s2.StartProcess("Solo", "w1"); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("write on corrupt wal: got %v", err)
	}
}

// TestPoisonedQueueSurfacedInHealth: a delivery fsync failure poisons
// the delivery journal and flips Health to unhealthy with the poisoned
// count.
func TestPoisonedQueueSurfacedInHealth(t *testing.T) {
	// Fail the first delivery-journal fsync after boot. Boot itself
	// fsyncs only via ReplaceFile paths on this fresh dir (none), so
	// ordinal 1 is the first enqueue's group commit.
	ff := fs.NewFault(nil, fs.FaultConfig{FailSyncAt: 1})
	s, err := New(Config{Clock: vclock.NewVirtual(), StateDir: t.TempDir(), SyncJournal: true, FS: ff})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Store().Enqueue("w1", mustNotif()); !errors.Is(err, fs.ErrInjected) {
		t.Fatalf("enqueue: want injected fsync failure, got %v", err)
	}
	h := s.Health()
	if h.Healthy || h.PoisonedQueues != 1 {
		t.Fatalf("health hides the poisoned queue: %+v", h)
	}
}

// TestCorruptDeliveryJournalSurfacedInHealth: mid-journal corruption in
// the delivery journal is counted at load and flips Health.
func TestCorruptDeliveryJournalSurfacedInHealth(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Clock: vclock.NewVirtual(), StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := s.Store().Enqueue("w1", mustNotif()); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.CorruptFrame(filepath.Join(dir, delivery.JournalName), 2); err != nil {
		t.Fatal(err)
	}
	s2, err := New(Config{Clock: vclock.NewVirtual(), StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := s2.Start(); err != nil {
		t.Fatal(err)
	}
	h := s2.Health()
	if h.Healthy || h.CorruptJournals != 1 {
		t.Fatalf("health hides the corrupt journal: %+v", h)
	}
}

// TestFSMetricsRegistered: the cmi_fs_* series are exported and move.
func TestFSMetricsRegistered(t *testing.T) {
	s, err := New(Config{Clock: vclock.NewVirtual(), SyncJournal: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Store().Enqueue("w1", mustNotif()); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if _, err := s.Metrics().WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, name := range []string{
		"cmi_fs_syncs_total", "cmi_fs_sync_failures_total",
		"cmi_fs_dir_syncs_total", "cmi_fs_injected_faults_total",
	} {
		if !strings.Contains(out, name) {
			t.Errorf("metric %s not exported", name)
		}
	}
}
