package enact

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/mcc-cmi/cmi/internal/core"
	"github.com/mcc-cmi/cmi/internal/fs"
	"github.com/mcc-cmi/cmi/internal/journal"
	"github.com/mcc-cmi/cmi/internal/vclock"
)

// newFaultWALFixture wires a fixture to a journal on the given
// filesystem, for injecting storage faults under the WAL.
func newFaultWALFixture(t *testing.T, fsys fs.FS, sync bool) *walFixture {
	t.Helper()
	f := newFixture(t)
	d := t.TempDir()
	wf := &walFixture{
		fixture:  f,
		walPath:  filepath.Join(d, "enact.wal"),
		snapPath: filepath.Join(d, "enact.snap"),
	}
	w, err := OpenWAL(wf.walPath, WALOptions{Sync: sync, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	f.eng.AttachWAL(w, wf.snapPath, 0)
	t.Cleanup(func() { _ = f.eng.CloseWAL() })
	return wf
}

// TestWALFsyncFailurePoisons pins the fsyncgate policy on the enactment
// journal: the first failed commit fsync fails the operation AND
// permanently poisons the WAL — no later operation may retry the same
// descriptor and observe a false success.
func TestWALFsyncFailurePoisons(t *testing.T) {
	ff := fs.NewFault(nil, fs.FaultConfig{FailSyncAt: 1})
	wf := newFaultWALFixture(t, ff, true)
	wf.register(t, simpleProcess())

	if _, err := wf.eng.StartProcess("TaskForce", StartOptions{Initiator: "dr.reed"}); !errors.Is(err, fs.ErrInjected) {
		t.Fatalf("first operation: want injected sync failure, got %v", err)
	}
	if !wf.eng.WAL().Poisoned() {
		t.Fatal("WAL not poisoned after failed fsync")
	}
	// The fault was one-shot: a raw retry would now succeed at the fd
	// level — exactly the false success poisoning must prevent.
	_, err := wf.eng.StartProcess("TaskForce", StartOptions{Initiator: "dr.reed"})
	if err == nil || !strings.Contains(err.Error(), "poisoned") {
		t.Fatalf("second operation: want poisoned error, got %v", err)
	}
}

// TestWALWriteFailurePoisons covers the non-fsync half: an ENOSPC
// mid-commit leaves an unknown durable suffix and must poison too.
func TestWALWriteFailurePoisons(t *testing.T) {
	ff := fs.NewFault(nil, fs.FaultConfig{ENOSPCAfter: 64})
	wf := newFaultWALFixture(t, ff, false)
	wf.register(t, simpleProcess())

	var sawErr bool
	for i := 0; i < 8; i++ {
		if _, err := wf.eng.StartProcess("TaskForce", StartOptions{Initiator: "dr.reed"}); err != nil {
			sawErr = true
			break
		}
	}
	if !sawErr {
		t.Fatal("64-byte disk budget never produced a write failure")
	}
	if !wf.eng.WAL().Poisoned() {
		t.Fatal("WAL not poisoned after failed commit write")
	}
}

// TestTruncateThroughSyncFailure is the regression test for the
// truncate path that used to ignore its fsync result: a sync failure
// during the journal rewrite must surface as an error and leave the
// old journal intact.
func TestTruncateThroughSyncFailure(t *testing.T) {
	// An unsynced WAL: the first fsync is the rewrite's own.
	wf := newFaultWALFixture(t, fs.NewFault(nil, fs.FaultConfig{FailSyncAt: 1}), false)
	wf.register(t, simpleProcess())
	if _, err := wf.eng.StartProcess("TaskForce", StartOptions{Initiator: "dr.reed"}); err != nil {
		t.Fatal(err)
	}
	w := wf.eng.WAL()
	before, err := os.ReadFile(wf.walPath)
	if err != nil {
		t.Fatal(err)
	}

	if err := w.TruncateThrough(0); !errors.Is(err, fs.ErrInjected) {
		t.Fatalf("TruncateThrough: want injected sync failure, got %v", err)
	}
	after, err := os.ReadFile(wf.walPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatal("failed truncate modified the journal")
	}
	if _, err := os.Stat(wf.walPath + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("tmp file left behind: %v", err)
	}
	// The fault was one-shot; the retry must succeed and the journal
	// stays usable (truncate failures do not poison — nothing about the
	// append descriptor's durability is in doubt).
	if err := w.TruncateThrough(0); err != nil {
		t.Fatalf("retry after one-shot fault: %v", err)
	}
	if _, err := wf.eng.StartProcess("TaskForce", StartOptions{Initiator: "dr.reed"}); err != nil {
		t.Fatalf("append after recovered truncate: %v", err)
	}
}

// TestMidWALCorruptionSurfacedInRecovery flips one byte inside a
// committed (non-tail) record and asserts recovery stops at the first
// bad record, replays only the prefix, and reports Corrupt with the
// damage offset — torn-tail tolerance must not swallow bit-rot.
func TestMidWALCorruptionSurfacedInRecovery(t *testing.T) {
	wf := newWALFixture(t, -1)
	workload(t, wf.fixture)
	if err := wf.eng.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	recs, scan, err := decodeWALRecords(wf.walPath)
	if err != nil || scan.State != journal.Clean {
		t.Fatalf("pre-corruption decode: %v, err=%v", scan.State, err)
	}
	if len(recs) < 4 {
		t.Fatalf("workload journaled only %d records", len(recs))
	}
	off, err := fs.CorruptFrame(wf.walPath, 2)
	if err != nil {
		t.Fatal(err)
	}

	g := &fixture{
		clk:     vclock.NewVirtual(),
		schemas: wf.schemas,
		dir:     core.NewDirectory(),
	}
	g.contexts = core.NewRegistry(g.clk)
	g.eng = New(g.clk, g.schemas, g.dir, g.contexts)
	stats, err := g.eng.Recover(wf.snapPath, wf.walPath)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Corrupt {
		t.Fatalf("mid-journal corruption not reported: %+v", stats)
	}
	if stats.CorruptOffset <= 0 || stats.CorruptOffset > off {
		t.Fatalf("CorruptOffset = %d, corrupted byte at %d", stats.CorruptOffset, off)
	}
	if stats.Replayed != 2 {
		t.Fatalf("replayed %d records past the damage, want the 2-record prefix", stats.Replayed)
	}
}

// TestTornWALTailStillTolerated guards the other half of the policy: a
// partial record at end of file recovers silently with TornTail set and
// Corrupt clear.
func TestTornWALTailStillTolerated(t *testing.T) {
	wf := newWALFixture(t, -1)
	workload(t, wf.fixture)
	if err := wf.eng.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(wf.walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wf.walPath, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	g := &fixture{
		clk:     vclock.NewVirtual(),
		schemas: wf.schemas,
		dir:     core.NewDirectory(),
	}
	g.contexts = core.NewRegistry(g.clk)
	g.eng = New(g.clk, g.schemas, g.dir, g.contexts)
	stats, err := g.eng.Recover(wf.snapPath, wf.walPath)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.TornTail || stats.Corrupt {
		t.Fatalf("torn tail misclassified: %+v", stats)
	}
}

// TestCheckWALDetectsDamage exercises the offline WAL verifier over a
// healthy journal, a corrupted frame, and a torn tail.
func TestCheckWALDetectsDamage(t *testing.T) {
	wf := newWALFixture(t, -1)
	workload(t, wf.fixture)
	if err := wf.eng.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	clean, err := os.ReadFile(wf.walPath)
	if err != nil {
		t.Fatal(err)
	}
	c := CheckWAL(clean)
	if c.Damaged() || c.Records < 4 || c.LastSeq < 4 || c.SeqRegressions != 0 {
		t.Fatalf("clean wal misreported: %+v", c)
	}

	if _, err := fs.CorruptFrame(wf.walPath, 2); err != nil {
		t.Fatal(err)
	}
	corrupted, _ := os.ReadFile(wf.walPath)
	cc := CheckWAL(corrupted)
	if !cc.Damaged() || cc.State != journal.Corrupt || cc.Records != 2 {
		t.Fatalf("corrupt wal misreported: %+v", cc)
	}

	tc := CheckWAL(clean[:len(clean)-5])
	if tc.Damaged() || tc.State != journal.Torn {
		t.Fatalf("torn tail misreported: %+v", tc)
	}
}

// TestCheckSnapshot exercises the snapshot verifier: absent, healthy
// and damaged documents.
func TestCheckSnapshot(t *testing.T) {
	if c := CheckSnapshot(nil); c.Present || c.Damaged() {
		t.Fatalf("absent snapshot misreported: %+v", c)
	}
	wf := newWALFixture(t, -1)
	workload(t, wf.fixture)
	if err := wf.eng.Compact(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(wf.snapPath)
	if err != nil {
		t.Fatal(err)
	}
	c := CheckSnapshot(data)
	if !c.Present || c.Damaged() || c.Procs == 0 || c.LastSeq == 0 {
		t.Fatalf("healthy snapshot misreported: %+v", c)
	}
	bad := append([]byte(nil), data...)
	bad[len(bad)/2] ^= 0xFF
	if c := CheckSnapshot(bad); !c.Damaged() {
		t.Fatalf("damaged snapshot misreported: %+v", c)
	}
}
