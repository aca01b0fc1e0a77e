package system_test

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/mcc-cmi/cmi/internal/audit"
	"github.com/mcc-cmi/cmi/internal/delivery"
	"github.com/mcc-cmi/cmi/internal/fsck"
	"github.com/mcc-cmi/cmi/internal/system"
	"github.com/mcc-cmi/cmi/internal/vclock"
)

// TestAuditJournalBesideStateReboots: an audit journal written into the
// state directory (as examples/enterprise and cmibench do) is JSON lines
// named *.jsonl. It is not delivery state: a reboot beside it succeeds,
// and fsck does not report it as a damaged journal.
func TestAuditJournalBesideStateReboots(t *testing.T) {
	dir := t.TempDir()
	s, err := system.New(system.Config{Clock: vclock.NewVirtual(), StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := audit.NewRecorder(filepath.Join(dir, "audit.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	s.Coordination().Observe(rec)
	if _, err := s.Store().Enqueue("w1", delivery.Notification{Schema: "S", Description: "n"}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddHuman("w1", "Worker One"); err != nil {
		t.Fatal(err)
	}
	if err := s.AssignRole("Worker", "w1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadSpec("process Solo {\n    activity Work role org Worker\n}\n"); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.StartProcess("Solo", "w1"); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "audit.jsonl"))
	if err != nil || len(data) == 0 || data[0] != '{' {
		t.Fatalf("audit journal holds no JSON lines: %q, %v", data, err)
	}

	s2, err := system.New(system.Config{Clock: vclock.NewVirtual(), StateDir: dir})
	if err != nil {
		t.Fatalf("reboot beside an audit journal: %v", err)
	}
	pending, err := s2.Store().Pending("w1")
	s2.Close()
	if err != nil || len(pending) != 1 {
		t.Fatalf("pending after reboot = %v, %v", pending, err)
	}
	r, err := fsck.Check(dir, fsck.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Damaged != 0 {
		t.Fatalf("fsck reports damage: %+v", r.Files)
	}
	for _, f := range r.Files {
		if f.Path == "audit.jsonl" {
			t.Fatalf("fsck treats the audit journal as state: %+v", f)
		}
	}
}
