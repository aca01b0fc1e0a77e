package fs

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

func TestReplaceFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.journal")
	if err := ReplaceFile(OS, path, []byte("one"), true); err != nil {
		t.Fatal(err)
	}
	if err := ReplaceFile(OS, path, []byte("two"), true); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "two" {
		t.Fatalf("got %q, %v", got, err)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("tmp file left behind: %v", err)
	}
}

func TestReplaceFileRenameFaultCleansTmp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.journal")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	ff := NewFault(OS, FaultConfig{FailRenameAt: 1})
	err := ReplaceFile(ff, path, []byte("new"), true)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("want injected rename fault, got %v", err)
	}
	// The old content must be intact and the tmp removed: a lost
	// rename is a no-op replacement, never a half-replacement.
	got, _ := os.ReadFile(path)
	if string(got) != "old" {
		t.Fatalf("old content damaged: %q", got)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("tmp file left behind after failed rename: %v", err)
	}
}

func TestReplaceFileSyncFault(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.journal")
	ff := NewFault(OS, FaultConfig{FailSyncAt: 1})
	err := ReplaceFile(ff, path, []byte("data"), true)
	if !errors.Is(err, ErrInjected) || !errors.Is(err, syscall.EIO) {
		t.Fatalf("want injected EIO, got %v", err)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("tmp file left behind after failed sync: %v", err)
	}
}

func TestParseFaultsRoundTrip(t *testing.T) {
	cfg, err := ParseFaults("sync-fail@3, enospc@4096,rename-fail@2,short-write@7,corrupt@5")
	if err != nil {
		t.Fatal(err)
	}
	want := FaultConfig{FailSyncAt: 3, ENOSPCAfter: 4096, FailRenameAt: 2, ShortWriteAt: 7, CorruptAtSync: 5}
	if cfg != want {
		t.Fatalf("got %+v want %+v", cfg, want)
	}
	back, err := ParseFaults(cfg.String())
	if err != nil || back != cfg {
		t.Fatalf("round trip: %+v vs %+v (%v)", back, cfg, err)
	}
	if c, err := ParseFaults(""); err != nil || !c.Zero() {
		t.Fatalf("empty spec: %+v %v", c, err)
	}
	for _, bad := range []string{"sync-fail", "sync-fail@0", "sync-fail@x", "bogus@3"} {
		if _, err := ParseFaults(bad); err == nil {
			t.Errorf("spec %q parsed", bad)
		}
	}
}

func TestFaultFailSyncAt(t *testing.T) {
	dir := t.TempDir()
	ff := NewFault(OS, FaultConfig{FailSyncAt: 2})
	f, err := ff.OpenAppend(filepath.Join(dir, "j"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Sync(); err != nil {
		t.Fatalf("sync 1: %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrInjected) || !errors.Is(err, syscall.EIO) {
		t.Fatalf("sync 2: want injected EIO, got %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("sync 3 (fault is one-shot): %v", err)
	}
}

func TestFaultENOSPC(t *testing.T) {
	dir := t.TempDir()
	ff := NewFault(OS, FaultConfig{ENOSPCAfter: 10})
	f, err := ff.Create(filepath.Join(dir, "j"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if n, err := f.Write([]byte("12345678")); n != 8 || err != nil {
		t.Fatalf("under budget: %d %v", n, err)
	}
	n, err := f.Write([]byte("abcdef"))
	if n != 2 || !errors.Is(err, syscall.ENOSPC) || !errors.Is(err, ErrInjected) {
		t.Fatalf("over budget: n=%d err=%v", n, err)
	}
	got, _ := os.ReadFile(filepath.Join(dir, "j"))
	if string(got) != "12345678ab" {
		t.Fatalf("on-disk bytes %q", got)
	}
}

func TestFaultShortWrite(t *testing.T) {
	dir := t.TempDir()
	ff := NewFault(OS, FaultConfig{ShortWriteAt: 1})
	f, err := ff.Create(filepath.Join(dir, "j"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n, err := f.Write([]byte("abcdefgh"))
	if n != 4 || !errors.Is(err, ErrInjected) {
		t.Fatalf("short write: n=%d err=%v", n, err)
	}
}

func TestStatsCounters(t *testing.T) {
	dir := t.TempDir()
	s0, f0, d0 := Syncs(), SyncFailures(), DirSyncs()
	ff := NewFault(OS, FaultConfig{FailSyncAt: 1})
	f, err := ff.OpenAppend(filepath.Join(dir, "j"))
	if err != nil {
		t.Fatal(err)
	}
	f.Sync() // injected failure
	f.Sync() // real sync
	f.Close()
	if err := OS.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	if Syncs()-s0 < 2 {
		t.Errorf("sync counter did not advance: %d", Syncs()-s0)
	}
	if SyncFailures()-f0 < 1 {
		t.Errorf("failure counter did not advance")
	}
	if DirSyncs()-d0 < 1 {
		t.Errorf("dir-sync counter did not advance")
	}
}
