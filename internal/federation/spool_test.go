package federation

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/mcc-cmi/cmi/internal/delivery"
	"github.com/mcc-cmi/cmi/internal/fs"
	"github.com/mcc-cmi/cmi/internal/journal"
	"github.com/mcc-cmi/cmi/internal/system"
	"github.com/mcc-cmi/cmi/internal/vclock"
)

func spoolTestEntry(i int) spoolEntry {
	return spoolEntry{
		Key:          fmt.Sprintf("k%d", i),
		Participant:  "mirror",
		Notification: delivery.Notification{Schema: "S", Description: fmt.Sprintf("n%d", i), Priority: i},
		Spooled:      time.Unix(1700000000+int64(i), 0).UTC(),
	}
}

func spoolFileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestSpoolCompactOnOpen: a journal holding delivered push/done pairs is
// rewritten on open with only the pending pushes; a second open of the
// already-compact file leaves it byte-identical.
func TestSpoolCompactOnOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spool.journal")
	sp, err := OpenSpool(path)
	if err != nil {
		t.Fatal(err)
	}
	// Lift the drain/threshold triggers out of the way so the done
	// records are still on disk when we reopen.
	sp.compactEvery = 1 << 30
	for i := 0; i < 6; i++ {
		if err := sp.Add(spoolTestEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range []string{"k0", "k2", "k3", "k5"} {
		if err := sp.Done(k); err != nil {
			t.Fatal(err)
		}
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	dirty := spoolFileSize(t, path)

	sp2, err := OpenSpool(path)
	if err != nil {
		t.Fatal(err)
	}
	pending := sp2.Pending()
	if len(pending) != 2 || pending[0].Key != "k1" || pending[1].Key != "k4" {
		t.Fatalf("pending after compacting open = %+v, want k1,k4", pending)
	}
	if err := sp2.Close(); err != nil {
		t.Fatal(err)
	}
	compact := spoolFileSize(t, path)
	if compact >= dirty {
		t.Fatalf("open did not shrink the journal: %d -> %d bytes", dirty, compact)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	sp3, err := OpenSpool(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := sp3.Depth(); got != 2 {
		t.Fatalf("depth after second reopen = %d, want 2", got)
	}
	if err := sp3.Close(); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatal("reopening an already-compact spool rewrote it")
	}
}

// TestSpoolBoundedAfterDrain is the unbounded-growth regression test:
// after N entries are spooled and delivered, the journal is compacted to
// empty on disk and the delivered entries are dropped from memory —
// depth, pending set, done map and file size are all independent of
// all-time history.
func TestSpoolBoundedAfterDrain(t *testing.T) {
	const n = 500
	path := filepath.Join(t.TempDir(), "spool.journal")
	sp, err := OpenSpool(path)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	for i := 0; i < n; i++ {
		if err := sp.Add(spoolTestEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	grown := spoolFileSize(t, path)
	for i := 0; i < n; i++ {
		if err := sp.Done(fmt.Sprintf("k%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := sp.Depth(); got != 0 {
		t.Fatalf("depth after drain = %d, want 0", got)
	}
	if got := spoolFileSize(t, path); got != 0 {
		t.Fatalf("journal = %d bytes after drain (was %d while full), want 0", got, grown)
	}
	sp.mu.Lock()
	pendingLen, doneLen := len(sp.pending), len(sp.done)
	sp.mu.Unlock()
	if pendingLen != 0 || doneLen != 0 {
		t.Fatalf("in-memory state after drain: pending=%d done=%d, want 0,0", pendingLen, doneLen)
	}
	// Depth stays cheap and correct through further cycles on the same
	// handle (the old implementation rescanned all-time history here).
	for i := n; i < n+10; i++ {
		if err := sp.Add(spoolTestEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := sp.Depth(); got != 10 {
		t.Fatalf("depth after refill = %d, want 10", got)
	}
}

// TestSpoolOnlineThresholdCompaction: once compactEvery done records
// accumulate, the journal is rewritten while open — without waiting for
// a drain or a reopen — and the pending backlog survives intact.
func TestSpoolOnlineThresholdCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spool.journal")
	sp, err := OpenSpool(path)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	sp.compactEvery = 8
	for i := 0; i < 24; i++ {
		if err := sp.Add(spoolTestEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	full := spoolFileSize(t, path)
	for i := 0; i < 8; i++ {
		if err := sp.Done(fmt.Sprintf("k%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	after := spoolFileSize(t, path)
	if after >= full {
		t.Fatalf("threshold compaction did not shrink the journal: %d -> %d bytes", full, after)
	}
	pending := sp.Pending()
	if len(pending) != 16 || pending[0].Key != "k8" || pending[15].Key != "k23" {
		t.Fatalf("pending after threshold compaction: len=%d first=%s, want 16 starting at k8",
			len(pending), pending[0].Key)
	}
}

// TestSpoolCrashMidCompaction: a crash between writing the compaction
// temp file and renaming it leaves the original journal authoritative;
// the stray .tmp is discarded on the next open and replay sees the
// pre-compaction state.
func TestSpoolCrashMidCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spool.journal")
	sp, err := OpenSpool(path)
	if err != nil {
		t.Fatal(err)
	}
	sp.compactEvery = 1 << 30
	for i := 0; i < 4; i++ {
		if err := sp.Add(spoolTestEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sp.Done("k1"); err != nil {
		t.Fatal(err)
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash shape: a half-written tmp (here: only k3, plus
	// trailing garbage) that never got renamed over the journal.
	tmp := path + ".tmp"
	e := spoolTestEntry(3)
	frame := journal.AppendRecord(nil, appendSpoolPush(nil, &e))
	if err := os.WriteFile(tmp, append(frame, "torn"...), 0o644); err != nil {
		t.Fatal(err)
	}

	sp2, err := OpenSpool(path)
	if err != nil {
		t.Fatal(err)
	}
	defer sp2.Close()
	pending := sp2.Pending()
	if len(pending) != 3 || pending[0].Key != "k0" || pending[1].Key != "k2" || pending[2].Key != "k3" {
		t.Fatalf("pending after crash-mid-compaction open = %+v, want k0,k2,k3", pending)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("stray compaction tmp survived open: stat err = %v", err)
	}
}

// TestForwarderDoneJournalFailureStopsSweep: when the remote accepts a
// push but the done record cannot be journaled (an injected short
// write), the spool is poisoned: the sweep stops instead of hammering
// the failing disk, the failure is counted, forwards are refused and
// counted, and /api/healthz reports 503. Reopening the spool — a
// restart — redelivers every pending entry, the one already pushed
// deduplicated by the remote's key check, none lost.
func TestForwarderDoneJournalFailureStopsSweep(t *testing.T) {
	var mu sync.Mutex
	seen := map[string]int{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var rn RemoteNotification
		if err := json.NewDecoder(r.Body).Decode(&rn); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		mu.Lock()
		seen[rn.Key]++
		dup := seen[rn.Key] > 1
		mu.Unlock()
		json.NewEncoder(w).Encode(PushResponse{Duplicate: dup})
	}))
	defer srv.Close()
	distinct := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(seen)
	}

	sys, err := system.New(system.Config{Clock: vclock.NewVirtual(), StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.Start(); err != nil {
		t.Fatal(err)
	}
	health := NewServer(sys).Handler()
	healthz := func() (int, system.Health) {
		rec := httptest.NewRecorder()
		health.ServeHTTP(rec, httptest.NewRequest("GET", "/api/healthz", nil))
		var h system.Health
		if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
			t.Fatal(err)
		}
		return rec.Code, h
	}

	path := filepath.Join(t.TempDir(), "spool.journal")
	seed, err := OpenSpool(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := seed.Add(spoolTestEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := seed.Close(); err != nil {
		t.Fatal(err)
	}

	// The forwarder's first spool write is the done record of k0.
	fwd, err := NewForwarder(ForwarderConfig{
		Client:    NewRemoteClient(srv.URL, srv.Client()),
		SpoolPath: path,
		Interval:  10 * time.Millisecond,
		FS:        fs.NewFault(nil, fs.FaultConfig{ShortWriteAt: 1}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fwd.Close()
	sys.AttachSpool(fwd.Poisoned)

	deadline := time.Now().Add(5 * time.Second)
	for fwd.DoneFailures() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for a done-journal failure")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !fwd.Poisoned() {
		t.Fatal("a failed spool write did not poison the spool")
	}
	// The sweep stopped at the first done failure: entry k1 was never
	// pushed (the periodic sweep may retry k0, but only k0).
	if n := distinct(); n != 1 {
		t.Fatalf("sweep kept going past a done-journal failure: %d distinct keys pushed", n)
	}
	if fwd.Depth() != 2 {
		t.Fatalf("depth = %d while the spool is poisoned, want 2", fwd.Depth())
	}
	if code, h := healthz(); code != http.StatusServiceUnavailable || !h.SpoolPoisoned {
		t.Fatalf("healthz with a poisoned spool = %d %+v, want 503 and spoolPoisoned", code, h)
	}
	// A poisoned spool refuses new notifications; the hook counts them.
	fwd.Hook("mirror")("S", nil, sys.NewExternalEvent("test.event", "test", nil))
	if fwd.Refused() != 1 {
		t.Fatalf("Refused = %d after a forward into a poisoned spool, want 1", fwd.Refused())
	}

	// Restart: reopen the spool on a healthy disk. The torn done record
	// is cut off, both entries are pending again, and they drain.
	if err := fwd.Close(); err != nil {
		t.Fatal(err)
	}
	fwd2, err := NewForwarder(ForwarderConfig{
		Client:    NewRemoteClient(srv.URL, srv.Client()),
		SpoolPath: path,
		Interval:  10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fwd2.Close()
	sys.AttachSpool(fwd2.Poisoned)
	for fwd2.Depth() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("spool did not drain after reopen; depth = %d", fwd2.Depth())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if n := distinct(); n != 2 {
		t.Fatalf("remote holds %d distinct keys after the drain, want both entries", n)
	}
	if _, dup, _ := fwd2.Stats(); dup == 0 {
		t.Fatal("redelivered entry was not deduplicated by the remote")
	}
	if code, h := healthz(); code != http.StatusOK || h.SpoolPoisoned {
		t.Fatalf("healthz after reopen = %d %+v, want 200", code, h)
	}
}
