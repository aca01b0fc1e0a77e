package fs_test

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/mcc-cmi/cmi/internal/fs"
	"github.com/mcc-cmi/cmi/internal/journal"
)

// These tests live in the external test package: the frame locator
// CorruptFrame aims with is installed by package journal, which itself
// imports fs.

func records(payloads ...string) []byte {
	var buf []byte
	for _, p := range payloads {
		buf = journal.AppendRecord(buf, []byte(p))
	}
	return buf
}

func TestCorruptFrameBreaksCRC(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	if err := os.WriteFile(path, records("first", "second", "third"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.CorruptFrame(path, 1); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	r := journal.Check(data, nil)
	if r.Records != 1 || r.State != journal.Corrupt {
		t.Fatalf("scan after corruption: %d records, state %v; want 1, corrupt", r.Records, r.State)
	}
}

func TestCorruptMidJournalFalseOnTornTail(t *testing.T) {
	buf := records("whole")
	whole := records("partial-frame-payload")
	buf = append(buf, whole[:len(whole)-6]...) // crash mid-append
	if r := journal.Check(buf, nil); r.State != journal.Torn || r.Records != 1 {
		t.Fatalf("torn tail classified %v after %d records, want torn after 1", r.State, r.Records)
	}
}

func TestFrameSpans(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	buf := records("alpha", "beta")
	// CorruptFrame aims at the middle payload byte of the chosen frame:
	// 'p' of "alpha" (offset 2 of 5) and 't' of "beta" (offset 2 of 4).
	for idx, want := range []byte{'p', 't'} {
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		off, err := fs.CorruptFrame(path, idx)
		if err != nil {
			t.Fatal(err)
		}
		if buf[off] != want {
			t.Fatalf("frame %d: flipped %q at %d, want its middle payload byte %q", idx, buf[off], off, want)
		}
	}
}
