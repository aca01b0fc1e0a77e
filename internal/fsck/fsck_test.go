package fsck

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/mcc-cmi/cmi/internal/delivery"
	"github.com/mcc-cmi/cmi/internal/federation"
	"github.com/mcc-cmi/cmi/internal/fs"
	"github.com/mcc-cmi/cmi/internal/journal"
	"github.com/mcc-cmi/cmi/internal/system"
	"github.com/mcc-cmi/cmi/internal/vclock"
)

const testSpec = `
process Solo {
    activity Work role org Worker
}
awareness Done on Solo {
    root = activity Work to (Completed)
    deliver org Worker
    describe "done"
}
`

// buildStateDir produces a realistic state directory holding every
// artifact kind fsck understands: a persisted spec, an enactment WAL
// with committed records, a compaction snapshot, the delivery journal,
// and a federation spool with pending entries.
func buildStateDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	s, err := system.New(system.Config{Clock: vclock.NewVirtual(), StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadSpec(testSpec); err != nil {
		t.Fatal(err)
	}
	if err := s.AddHuman("w1", "Worker One"); err != nil {
		t.Fatal(err)
	}
	if err := s.AssignRole("Worker", "w1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := s.StartProcess("Solo", "w1"); err != nil {
			t.Fatal(err)
		}
	}
	// Snapshot mid-way so both the snapshot and post-snapshot WAL
	// records exist.
	if err := s.Coordination().Compact(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := s.StartProcess("Solo", "w1"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		if _, err := s.Store().Enqueue("w1", delivery.Notification{Schema: "Done", Description: "n"}); err != nil {
			t.Fatal(err)
		}
	}
	// A spool with pending entries: the remote is unreachable, so the
	// pushes stay journaled.
	fwd, err := federation.NewForwarder(federation.ForwarderConfig{
		Client:    federation.NewRemoteClient("http://127.0.0.1:9", nil),
		SpoolPath: filepath.Join(dir, "spool.journal"),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := fwd.Forward("bob", delivery.Notification{Schema: "Done", Description: "x"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := fwd.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func findFile(t *testing.T, r *Report, path string) FileReport {
	t.Helper()
	for _, f := range r.Files {
		if f.Path == path {
			return f
		}
	}
	t.Fatalf("no report for %s in %+v", path, r.Files)
	return FileReport{}
}

// specFile returns the persisted spec's relative path.
func specFile(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(dir, "specs"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("no persisted specs: %v", err)
	}
	return filepath.Join("specs", entries[0].Name())
}

func TestCleanStateDirChecksClean(t *testing.T) {
	dir := buildStateDir(t)
	r, err := Check(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Clean() || r.Damaged != 0 {
		t.Fatalf("fresh state dir not clean: %+v", r.Files)
	}
	for _, want := range []struct{ path, kind string }{
		{"enact.wal", KindWAL},
		{"enact.snap", KindSnapshot},
		{delivery.JournalName, KindJournal},
		{"spool.journal", KindSpool},
		{specFile(t, dir), KindSpec},
	} {
		f := findFile(t, r, want.path)
		if f.Kind != want.kind || f.Damaged {
			t.Errorf("%s: kind=%s damaged=%v, want kind=%s clean", want.path, f.Kind, f.Damaged, want.kind)
		}
	}
	if r.SnapshotSeq <= 0 {
		t.Errorf("snapshot seq high-water not reported: %+v", r)
	}
}

func TestCheckMissingDirErrors(t *testing.T) {
	if _, err := Check(filepath.Join(t.TempDir(), "nope"), Options{}); err == nil {
		t.Fatal("want error for missing state dir")
	}
}

// TestDetectsEveryInjectedCorruption is the detection guarantee behind
// the chaos oracle's disk-fault invariant: each subtest injects one
// kind of damage into one artifact and fsck MUST flag exactly that
// file. Frame corruption uses the same fs.CorruptFrame primitive the
// fault filesystem's corrupt@N schedule uses.
func TestDetectsEveryInjectedCorruption(t *testing.T) {
	cases := []struct {
		name    string
		inject  func(t *testing.T, dir string) string // returns the path that must be flagged
		corrupt bool                                  // expect mid-journal classification
	}{
		{"wal-mid-journal-bitrot", func(t *testing.T, dir string) string {
			if _, err := fs.CorruptFrame(filepath.Join(dir, "enact.wal"), 1); err != nil {
				t.Fatal(err)
			}
			return "enact.wal"
		}, true},
		{"delivery-journal-bitrot", func(t *testing.T, dir string) string {
			if _, err := fs.CorruptFrame(filepath.Join(dir, delivery.JournalName), 2); err != nil {
				t.Fatal(err)
			}
			return delivery.JournalName
		}, true},
		{"spool-bitrot", func(t *testing.T, dir string) string {
			if _, err := fs.CorruptFrame(filepath.Join(dir, "spool.journal"), 0); err != nil {
				t.Fatal(err)
			}
			return "spool.journal"
		}, true},
		{"snapshot-garbage", func(t *testing.T, dir string) string {
			if err := os.WriteFile(filepath.Join(dir, "enact.snap"), []byte("{broken"), 0o644); err != nil {
				t.Fatal(err)
			}
			return "enact.snap"
		}, false},
		{"spec-garbage", func(t *testing.T, dir string) string {
			rel := specFile(t, dir)
			if err := os.WriteFile(filepath.Join(dir, rel), []byte("process {{{"), 0o644); err != nil {
				t.Fatal(err)
			}
			return rel
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := buildStateDir(t)
			flagged := tc.inject(t, dir)
			r, err := Check(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if r.Damaged != 1 {
				t.Fatalf("want exactly the injected damage flagged, got %d damaged: %+v", r.Damaged, r.Files)
			}
			f := findFile(t, r, flagged)
			if !f.Damaged {
				t.Fatalf("%s not flagged: %+v", flagged, f)
			}
			if f.Corrupt != tc.corrupt {
				t.Fatalf("%s: corrupt=%v, want %v (%s)", flagged, f.Corrupt, tc.corrupt, f.Detail)
			}
		})
	}
}

// TestStrayTmpReported: a leftover .tmp from an interrupted atomic
// replacement fails Clean and is removed under Quarantine.
func TestStrayTmpReported(t *testing.T) {
	dir := buildStateDir(t)
	stray := filepath.Join(dir, "enact.snap.tmp")
	if err := os.WriteFile(stray, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Check(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Clean() {
		t.Fatal("stray tmp not reported")
	}
	f := findFile(t, r, "enact.snap.tmp")
	if f.Kind != KindTmp || f.Damaged {
		t.Fatalf("stray tmp misclassified: %+v", f)
	}
	r, err = Check(dir, Options{Quarantine: true})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Clean() {
		t.Fatalf("quarantine left the dir unclean: %+v", r.Files)
	}
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatal("stray tmp not removed")
	}
}

// TestQuarantineRepairsJournalsAndDomainReboots is the repair
// round-trip: corrupt all three durable logs mid-journal, quarantine,
// verify the evidence files exist and a re-check is damage-free, then
// boot a real system on the repaired directory and verify it serves
// healthy (no corrupt flag, no poisoned logs).
func TestQuarantineRepairsJournalsAndDomainReboots(t *testing.T) {
	dir := buildStateDir(t)
	for _, target := range []struct {
		file string
		idx  int
	}{{"enact.wal", 1}, {delivery.JournalName, 2}, {"spool.journal", 0}} {
		if _, err := fs.CorruptFrame(filepath.Join(dir, target.file), target.idx); err != nil {
			t.Fatal(err)
		}
	}
	r, err := Check(dir, Options{Quarantine: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.Damaged != 3 {
		t.Fatalf("want 3 damaged journals, got %d: %+v", r.Damaged, r.Files)
	}
	for _, name := range []string{"enact.wal", delivery.JournalName, "spool.journal"} {
		f := findFile(t, r, name)
		if !f.Quarantined {
			t.Fatalf("%s not quarantined: %s", name, f.Detail)
		}
		if _, err := os.Stat(filepath.Join(dir, name+".quarantine")); err != nil {
			t.Fatalf("%s.quarantine evidence missing: %v", name, err)
		}
	}

	// The .quarantine siblings are not durable-log artifacts; a
	// re-check of the repaired journals finds no damage.
	r, err = Check(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Damaged != 0 {
		t.Fatalf("repaired dir still damaged: %+v", r.Files)
	}

	s, err := system.New(system.Config{Clock: vclock.NewVirtual(), StateDir: dir})
	if err != nil {
		t.Fatalf("boot on repaired dir: %v", err)
	}
	defer s.Close()
	if rec := s.Recovery(); rec.Corrupt {
		t.Fatalf("repaired WAL still reads corrupt: %+v", rec)
	}
	if err := s.AddHuman("w1", "Worker One"); err != nil {
		t.Fatal(err)
	}
	if err := s.AssignRole("Worker", "w1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if h := s.Health(); !h.Healthy {
		t.Fatalf("repaired domain unhealthy: %+v", h)
	}
	// The repaired WAL accepts fresh appends again.
	if _, err := s.StartProcess("Solo", "w1"); err != nil {
		t.Fatalf("write on repaired dir: %v", err)
	}
	// The repaired spool reopens for the forwarder.
	fwd, err := federation.NewForwarder(federation.ForwarderConfig{
		Client:    federation.NewRemoteClient("http://127.0.0.1:9", nil),
		SpoolPath: filepath.Join(dir, "spool.journal"),
	})
	if err != nil {
		t.Fatalf("reopen repaired spool: %v", err)
	}
	fwd.Close()
}

// TestLegacyStateRefused: every artifact shape an earlier CMI left
// behind — a JSON-lines WAL, delivery journal or spool, a v1 WAL record,
// a spool under its old name, per-participant delivery queue files with
// no delivery journal — is refused by its open with journal.ErrLegacy
// and reported Damaged (and Legacy) by fsck, and neither the refused
// boot nor fsck rewrites a byte of the directory. A JSON-lines `*.jsonl`
// file such as an audit journal is not delivery state: it is neither
// refused nor reported.
func TestLegacyStateRefused(t *testing.T) {
	jsonLine := []byte(`{"kind":"notif","notif":{"id":1,"schema":"Done"}}` + "\n")
	// A v1 set_field record: kind, seq, the three reserved varints, then
	// empty fields and absent options, and no id section.
	v1 := append([]byte{13, 0xE8, 0x07}, make([]byte, 18)...)
	appendTo := func(rel string, b []byte) func(t *testing.T, dir string) {
		return func(t *testing.T, dir string) {
			f, err := os.OpenFile(filepath.Join(dir, rel), os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.Write(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	bootSystem := func(dir string) error {
		s, err := system.New(system.Config{Clock: vclock.NewVirtual(), StateDir: dir})
		if err == nil {
			s.Close()
		}
		return err
	}
	openSpool := func(dir string) error {
		path, err := federation.DefaultSpoolPath(dir)
		if err != nil {
			return err
		}
		sp, err := federation.OpenSpool(path)
		if err == nil {
			sp.Close()
		}
		return err
	}
	cases := []struct {
		name   string
		file   string
		damage func(t *testing.T, dir string)
		open   func(dir string) error
	}{
		{"wal-json-line", "enact.wal", appendTo("enact.wal", jsonLine), bootSystem},
		{"wal-v1-record", "enact.wal", appendTo("enact.wal", journal.AppendRecord(nil, v1)), bootSystem},
		{"delivery-json-line", delivery.JournalName, appendTo(delivery.JournalName, jsonLine), bootSystem},
		{"delivery-per-participant-files", "w1.jsonl", func(t *testing.T, dir string) {
			// The layout before the one delivery journal: a queue file of
			// binary frames per participant.
			if err := os.Rename(filepath.Join(dir, delivery.JournalName), filepath.Join(dir, "w1.jsonl")); err != nil {
				t.Fatal(err)
			}
		}, bootSystem},
		{"spool-json-line", "spool.journal", appendTo("spool.journal", jsonLine), openSpool},
		{"spool-old-name", "spool.jsonl", func(t *testing.T, dir string) {
			if err := os.Rename(filepath.Join(dir, "spool.journal"), filepath.Join(dir, "spool.jsonl")); err != nil {
				t.Fatal(err)
			}
		}, openSpool},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := buildStateDir(t)
			c.damage(t, dir)
			before := snapshotDir(t, dir)
			if err := c.open(dir); !errors.Is(err, journal.ErrLegacy) {
				t.Fatalf("open = %v, want journal.ErrLegacy", err)
			}
			r, err := Check(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if f := findFile(t, r, c.file); !f.Damaged || !f.Legacy || r.Clean() {
				t.Fatalf("fsck report for %s = %+v", c.file, f)
			}
			if after := snapshotDir(t, dir); !reflect.DeepEqual(before, after) {
				t.Fatal("the refused open or fsck rewrote the state directory")
			}
		})
	}
	t.Run("audit-json-lines-ignored", func(t *testing.T) {
		dir := buildStateDir(t)
		path := filepath.Join(dir, "audit.jsonl")
		if err := os.WriteFile(path, jsonLine, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := bootSystem(dir); err != nil {
			t.Fatalf("boot beside an audit journal: %v", err)
		}
		r, err := Check(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !r.Clean() {
			t.Fatalf("fsck reports damage: %+v", r.Files)
		}
		for _, f := range r.Files {
			if f.Path == "audit.jsonl" {
				t.Fatalf("fsck treats the audit journal as state: %+v", f)
			}
		}
		if after, _ := os.ReadFile(path); string(after) != string(jsonLine) {
			t.Fatal("the audit journal was rewritten")
		}
	})
}

// TestLegacyQueueQuarantined: -quarantine moves a per-participant queue
// file's content aside, after which the directory boots.
func TestLegacyQueueQuarantined(t *testing.T) {
	dir := buildStateDir(t)
	if err := os.Rename(filepath.Join(dir, delivery.JournalName), filepath.Join(dir, "w1.jsonl")); err != nil {
		t.Fatal(err)
	}
	r, err := Check(dir, Options{Quarantine: true})
	if err != nil {
		t.Fatal(err)
	}
	if f := findFile(t, r, "w1.jsonl"); !f.Legacy || !f.Quarantined {
		t.Fatalf("legacy queue file not quarantined: %+v", f)
	}
	if _, err := os.Stat(filepath.Join(dir, "w1.jsonl.quarantine")); err != nil {
		t.Fatalf("quarantine evidence missing: %v", err)
	}
	s, err := system.New(system.Config{Clock: vclock.NewVirtual(), StateDir: dir})
	if err != nil {
		t.Fatalf("boot after quarantine: %v", err)
	}
	s.Close()
}

// snapshotDir maps every file under dir to its contents.
func snapshotDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		out[path] = string(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}
