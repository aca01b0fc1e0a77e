package journal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/mcc-cmi/cmi/internal/fs"
)

// decodeToy is the record codec of these tests: a record is valid when
// its payload starts with 'r'; a payload starting with 'v' is a record
// of a retired generation.
func decodeToy(p []byte) error {
	switch {
	case len(p) > 0 && p[0] == 'r':
		return nil
	case len(p) > 0 && p[0] == 'v':
		return fmt.Errorf("old record: %w", ErrLegacy)
	}
	return errors.New("undecodable record")
}

func visitToy(_ int64, p []byte) error { return decodeToy(p) }

func records(payloads ...string) []byte {
	var b []byte
	for _, p := range payloads {
		b = AppendRecord(b, []byte(p))
	}
	return b
}

func TestCheckClassification(t *testing.T) {
	clean := records("r1", "r2", "r3")
	last := records("r4-a-longer-payload")
	flipped := append([]byte(nil), clean...)
	flipped[len(records("r1"))+4] ^= 0xFF // a byte of r2's frame
	cases := []struct {
		name    string
		data    []byte
		state   State
		records int
		offset  int
	}{
		{"empty", nil, Clean, 0, 0},
		{"clean", clean, Clean, 3, len(clean)},
		{"extra separators", append(append([]byte("\n\n"), clean...), '\n'), Clean, 3, len(clean) + 3},
		{"torn tail", append(append([]byte(nil), clean...), last[:len(last)-3]...), Torn, 3, len(clean)},
		{"unknown format byte at the end", append(append([]byte(nil), clean...), 0x82, 1, 2), Torn, 3, len(clean)},
		{"flipped byte mid-journal", flipped, Corrupt, 1, len(records("r1"))},
		{"undecodable frame", append(records("r1", "x"), records("r2")...), Corrupt, 1, len(records("r1"))},
		{"undecodable last frame", records("r1", "x"), Corrupt, 1, len(records("r1"))},
		{"json line", []byte(`{"kind":"notif"}` + "\n"), Legacy, 0, 0},
		{"json after frames", append(records("r1"), `{"kind":"ack"}`...), Legacy, 1, len(records("r1"))},
		{"torn json line", []byte(`{"kind":"no`), Legacy, 0, 0},
		{"retired record", records("r1", "v1"), Legacy, 1, len(records("r1"))},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := Check(c.data, visitToy)
			if r.State != c.state || r.Records != c.records || r.Offset != int64(c.offset) {
				t.Fatalf("Check = %v after %d records at offset %d, want %v after %d at %d",
					r.State, r.Records, r.Offset, c.state, c.records, c.offset)
			}
			if r.Damaged() != (c.state == Corrupt || c.state == Legacy) {
				t.Fatalf("Damaged = %v for %v", r.Damaged(), r.State)
			}
		})
	}
}

func TestOpenPolicy(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j")
	write := func(data []byte) {
		t.Helper()
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	read := func() []byte {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	open := func() (*Log[struct{}], Report, error) {
		return Open(path, Options[struct{}]{}, decodeToy)
	}

	// A torn tail is cut off, and a stale rewrite tmp removed.
	torn := records("r-torn")
	write(append(records("r1"), torn[:len(torn)-2]...))
	if err := os.WriteFile(path+".tmp", []byte("stale"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, rep, err := open()
	if err != nil || rep.State != Torn || rep.Records != 1 {
		t.Fatalf("open torn = %+v, %v", rep, err)
	}
	if got := read(); string(got) != string(records("r1")) {
		t.Fatalf("torn tail not cut off: %q", got)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("stale tmp survived the open: %v", err)
	}
	tk, err := l.StageRecord([]byte("r2"))
	if err != nil || tk.Wait() != nil {
		t.Fatalf("append after a torn tail: %v", err)
	}
	l.Close()
	if rep := Check(read(), visitToy); rep.State != Clean || rep.Records != 2 {
		t.Fatalf("journal after the append = %+v, want 2 clean records", rep)
	}

	// A legacy journal fails the open and is left as it was.
	legacy := append(records("r1"), "{\"kind\":\"ack\"}\n"...)
	write(legacy)
	if _, _, err := open(); !errors.Is(err, ErrLegacy) {
		t.Fatalf("open legacy = %v, want ErrLegacy", err)
	}
	if string(read()) != string(legacy) {
		t.Fatal("a refused journal was rewritten")
	}

	// A corrupt journal opens poisoned, untouched.
	corrupt := append(records("r1", "x"), records("r2")...)
	write(corrupt)
	l, rep, err = open()
	if err != nil || rep.State != Corrupt || !l.Poisoned() {
		t.Fatalf("open corrupt = %+v, %v, poisoned=%v", rep, err, l != nil && l.Poisoned())
	}
	if _, err := l.StageRecord([]byte("r3")); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("stage on a corrupt journal = %v, want ErrCorrupt", err)
	}
	l.Close()
	if string(read()) != string(corrupt) {
		t.Fatal("a corrupt journal was rewritten")
	}
}

// TestGroupCommit: concurrent writers coalesce into groups; the
// Committed callback sees every group once, in order, with its items in
// staging order, before any of the group's writers returns.
func TestGroupCommit(t *testing.T) {
	const writers, each = 8, 50
	var (
		mu      sync.Mutex
		seen    []int
		groups  int
		records int
	)
	path := filepath.Join(t.TempDir(), "j")
	l, _, err := Open(path, Options[int]{
		Sync: true,
		Committed: func(n int, _ time.Duration, items []int) {
			mu.Lock()
			groups++
			records += n
			seen = append(seen, items...)
			mu.Unlock()
		},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var (
		order sync.Mutex // the callers' own lock: staging order = item order
		next  int
		wg    sync.WaitGroup
	)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				order.Lock()
				v := next
				next++
				tk, err := l.StageRecord([]byte(fmt.Sprintf("r%d", v)), v)
				order.Unlock()
				if err == nil {
					err = tk.Wait()
				}
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				committed := len(seen) > 0 && seen[len(seen)-1] >= v
				mu.Unlock()
				if !committed {
					t.Errorf("writer of %d returned before its group was reported", v)
				}
			}
		}()
	}
	wg.Wait()
	l.Barrier()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if records != writers*each || len(seen) != writers*each {
		t.Fatalf("reported %d records, %d items; want %d", records, len(seen), writers*each)
	}
	for i, v := range seen {
		if v != i {
			t.Fatalf("item %d reported as %d: groups out of order", i, v)
		}
	}
	data, _ := os.ReadFile(path)
	i := 0
	rep := Check(data, func(_ int64, p []byte) error {
		if string(p) != fmt.Sprintf("r%d", i) {
			return fmt.Errorf("record %d is %q", i, p)
		}
		i++
		return nil
	})
	if rep.State != Clean || rep.Records != writers*each {
		t.Fatalf("journal = %+v (%v)", rep, rep.Cause)
	}
	t.Logf("%d records in %d groups", records, groups)
}

// TestJoinLeadsOneCommit: a writer that stages several records before
// it waits — the first opening a group, the rest joining it — waits on
// the joined ticket and commits them all in one group and one fsync.
// Waiting on a later joiner's ticket alone would never seal the group.
func TestJoinLeadsOneCommit(t *testing.T) {
	var groups int
	l, _, err := Open(filepath.Join(t.TempDir(), "j"), Options[int]{
		Sync:      true,
		Committed: func(int, time.Duration, []int) { groups++ },
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	before := fs.Syncs()
	var tk Ticket[int]
	for i := 0; i < 8; i++ {
		next, err := l.StageRecord([]byte(fmt.Sprintf("r%d", i)), i)
		if err != nil {
			t.Fatal(err)
		}
		tk = tk.Join(next)
	}
	if err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
	if syncs := fs.Syncs() - before; groups != 1 || syncs != 1 {
		t.Fatalf("8 staged records took %d group(s) and %d fsync(s), want 1 and 1", groups, syncs)
	}
}

// TestWriteFailurePoisons pins fsyncgate: the failing group's writers
// get the error, OnPoison fires once, and every later Stage fails.
func TestWriteFailurePoisons(t *testing.T) {
	for _, cfg := range []fs.FaultConfig{{FailSyncAt: 1}, {ShortWriteAt: 1}} {
		t.Run(cfg.String(), func(t *testing.T) {
			var poisons int
			l, _, err := Open(filepath.Join(t.TempDir(), "j"), Options[struct{}]{
				FS:       fs.NewFault(nil, cfg),
				Sync:     true,
				OnPoison: func(error) { poisons++ },
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			tk, err := l.StageRecord([]byte("r1"))
			if err != nil {
				t.Fatal(err)
			}
			if err := tk.Wait(); !errors.Is(err, fs.ErrInjected) {
				t.Fatalf("Wait = %v, want the injected fault", err)
			}
			if !l.Poisoned() || poisons != 1 {
				t.Fatalf("poisoned=%v, OnPoison calls=%d", l.Poisoned(), poisons)
			}
			if _, err := l.StageRecord([]byte("r2")); !errors.Is(err, fs.ErrInjected) {
				t.Fatalf("stage after poison = %v, want the original fault", err)
			}
			if err := l.Rewrite(nil); err == nil {
				t.Fatal("rewrite of a poisoned journal succeeded")
			}
		})
	}
}

// TestRewrite replaces the contents atomically and keeps appending to
// the new file; a failed replacement leaves the old journal in use.
func TestRewrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	l, _, err := Open(path, Options[struct{}]{FS: fs.NewFault(nil, fs.FaultConfig{FailRenameAt: 1})}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	stage := func(p string) {
		t.Helper()
		tk, err := l.StageRecord([]byte(p))
		if err == nil {
			err = tk.Wait()
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	stage("r1")
	if err := l.Rewrite(records("r-new")); !errors.Is(err, fs.ErrInjected) {
		t.Fatalf("Rewrite = %v, want the injected rename fault", err)
	}
	stage("r2")
	if data, _ := os.ReadFile(path); string(data) != string(records("r1", "r2")) {
		t.Fatalf("after a failed rewrite: %q", data)
	}
	if err := l.Rewrite(records("r-new")); err != nil {
		t.Fatal(err)
	}
	stage("r3")
	if data, _ := os.ReadFile(path); string(data) != string(records("r-new", "r3")) {
		t.Fatalf("after a rewrite: %q", data)
	}
}

// FuzzScan feeds arbitrary bytes to the scan: it must never panic, must
// never call a JSON line a torn tail, and Open must classify the file
// exactly as the offline Check does (the property fsck relies on).
func FuzzScan(f *testing.F) {
	clean := records("r1", "r2", "r3")
	f.Add(clean)
	f.Add(clean[:len(clean)-3])
	flipped := append([]byte(nil), clean...)
	flipped[len(clean)/2] ^= 0xFF
	f.Add(flipped)
	f.Add([]byte(`{"kind":"notif","notif":{"id":1}}` + "\n"))
	dir := f.TempDir()
	n := 0
	f.Fuzz(func(t *testing.T, data []byte) {
		want := Check(data, visitToy)
		if want.Offset < 0 || want.Offset > int64(len(data)) {
			t.Fatalf("offset %d outside the %d-byte input", want.Offset, len(data))
		}
		if first := firstRecordByte(data); first == '{' && want.State != Legacy {
			t.Fatalf("a JSON line classified %v", want.State)
		}
		n++
		path := filepath.Join(dir, fmt.Sprintf("j%d", n))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		defer os.Remove(path)
		l, got, err := Open(path, Options[struct{}]{}, decodeToy)
		if want.State == Legacy {
			if !errors.Is(err, ErrLegacy) {
				t.Fatalf("open of a legacy journal = %v", err)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		l.Close()
		if got.State != want.State || got.Records != want.Records || got.Offset != want.Offset {
			t.Fatalf("open classified %+v, Check %+v", got, want)
		}
		if want.State == Torn {
			after, _ := os.ReadFile(path)
			if r := Check(after, visitToy); r.State != Clean || r.Records != want.Records {
				t.Fatalf("after the torn-tail cut: %+v", r)
			}
		}
	})
}

func firstRecordByte(data []byte) byte {
	for _, b := range data {
		if b != '\n' {
			return b
		}
	}
	return 0
}
