package federation

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/mcc-cmi/cmi/internal/delivery"
	"github.com/mcc-cmi/cmi/internal/fs"
	"github.com/mcc-cmi/cmi/internal/journal"
)

func seedSpool(t *testing.T, path string, n int) {
	t.Helper()
	s, err := OpenSpool(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		e := spoolEntry{
			Key:          fmt.Sprintf("k%d", i),
			Participant:  "remote",
			Notification: delivery.Notification{Schema: "S", Description: "n"},
		}
		if err := s.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSpoolMidJournalCorruptionFailsOpen: a bad record with intact
// frames after it means committed push records may be unreadable —
// the open must fail loudly, never serve the readable subset.
func TestSpoolMidJournalCorruptionFailsOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spool.journal")
	seedSpool(t, path, 5)
	if _, err := fs.CorruptFrame(path, 2); err != nil {
		t.Fatal(err)
	}
	before, _ := os.ReadFile(path)
	_, err := OpenSpool(path)
	if err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("open of corrupt spool: got %v", err)
	}
	// The damaged file must be preserved byte-for-byte for fsck.
	after, _ := os.ReadFile(path)
	if string(before) != string(after) {
		t.Fatal("corrupt spool was rewritten by the failed open")
	}
}

// TestSpoolTornTailTolerated: a partial final record — the normal
// artifact of a crash mid-append — keeps loading silently.
func TestSpoolTornTailTolerated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spool.journal")
	seedSpool(t, path, 3)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-4], 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenSpool(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.Depth(); got != 2 {
		t.Fatalf("Depth = %d, want the 2 surviving entries", got)
	}
	if err := s.Add(spoolEntry{Key: "fresh", Participant: "remote"}); err != nil {
		t.Fatalf("append after torn tail: %v", err)
	}
}

// TestSpoolCompactRenameFault: an injected rename failure during
// compaction must leave the old journal authoritative and no tmp file
// behind.
func TestSpoolCompactRenameFault(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spool.journal")
	seedSpool(t, path, 2)
	ff := fs.NewFault(nil, fs.FaultConfig{FailRenameAt: 1})
	s, err := OpenSpoolFS(path, ff)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Done("k0"); err != nil {
		t.Fatalf("done with compaction deferred: %v", err)
	}
	// Draining the spool triggers compaction; the injected rename fails it.
	err = s.Done("k1")
	if !errors.Is(err, fs.ErrInjected) {
		t.Fatalf("compacting done: want injected rename fault, got %v", err)
	}
	if _, statErr := os.Stat(path + ".tmp"); !errors.Is(statErr, os.ErrNotExist) {
		t.Fatalf("tmp file left behind after failed compaction: %v", statErr)
	}
	// The old journal still replays: both pushes and the k0 done record
	// survived, so a reopen owes exactly the k1 entry... unless its done
	// record landed before the rewrite failed. Either way the journal
	// must open cleanly.
	s.Close()
	s2, err := OpenSpool(path)
	if err != nil {
		t.Fatalf("reopen after failed compaction: %v", err)
	}
	defer s2.Close()
}

// TestCheckSpoolDetectsDamage exercises the offline verifier over a
// healthy journal, a corrupted frame and a torn tail.
func TestCheckSpoolDetectsDamage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "spool.journal")
	seedSpool(t, path, 4)
	// Mark one entry done without compacting (hook the journal directly).
	s, err := OpenSpool(path)
	if err != nil {
		t.Fatal(err)
	}
	s.compactEvery = 1 << 30
	if err := s.Done("k1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	c := CheckSpool(clean)
	if c.Damaged() || c.Pushes != 4 || c.Dones != 1 || c.Pending != 3 || c.OrphanDones != 0 {
		t.Fatalf("clean spool misreported: %+v", c)
	}
	// Corrupt a committed frame.
	tmp := filepath.Join(dir, "c")
	if err := os.WriteFile(tmp, clean, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.CorruptFrame(tmp, 1); err != nil {
		t.Fatal(err)
	}
	corrupted, _ := os.ReadFile(tmp)
	cc := CheckSpool(corrupted)
	if !cc.Damaged() || cc.State != journal.Corrupt || cc.Pushes != 1 {
		t.Fatalf("corrupt spool misreported: %+v", cc)
	}
	// Torn tail: reported torn, not damaged.
	tc := CheckSpool(clean[:len(clean)-4])
	if tc.Damaged() || tc.State != journal.Torn {
		t.Fatalf("torn tail misreported: %+v", tc)
	}
}
