package delivery

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/mcc-cmi/cmi/internal/journal"
)

// TestQueueRefusesLegacyJournal: delivery state in a format this build
// no longer reads is refused at open with journal.ErrLegacy and never
// rewritten — not misread, and not dropped as a torn tail. That covers a
// delivery journal holding JSON lines (alone or behind binary frames),
// flagged Damaged by the offline check too, and per-participant
// `<participant>.jsonl` queue files of binary frames with no delivery
// journal beside them. JSON-lines `*.jsonl` files, such as audit
// journals, are not delivery state: the store opens beside them and
// leaves them alone.
func TestQueueRefusesLegacyJournal(t *testing.T) {
	jsonLines := []byte(`{"kind":"notif","notif":{"id":1,"time":"2026-08-01T12:00:00Z","schema":"SevereCase","description":"first"}}` + "\n" +
		`{"kind":"ack","ackId":1}` + "\n")
	frames := journal.AppendRecord(nil, appendRecordNotif(nil, "u", "", &Notification{ID: 1, Schema: "S"}))
	cases := map[string]struct {
		file    string
		data    []byte
		refused bool
	}{
		"json-lines":             {JournalName, jsonLines, true},
		"frames-then-json":       {JournalName, append(append([]byte(nil), frames...), jsonLines...), true},
		"torn-json-line":         {JournalName, jsonLines[:20], true},
		"json-then-a-frame":      {JournalName, append(append([]byte(nil), jsonLines...), frames...), true},
		"per-participant-frames": {"u.jsonl", frames, true},
		"audit-json-lines":       {"audit.jsonl", jsonLines, false},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, c.file)
			if err := os.WriteFile(path, c.data, 0o644); err != nil {
				t.Fatal(err)
			}
			before := readDir(t, dir)
			s, err := NewStore(dir)
			if !c.refused {
				if err != nil {
					t.Fatalf("NewStore beside %s = %v", c.file, err)
				}
				if _, err := s.Enqueue("u", Notification{Schema: "S"}); err != nil {
					t.Fatal(err)
				}
				s.Close()
				if after := readDir(t, dir)[c.file]; after != string(c.data) {
					t.Fatalf("%s was rewritten", c.file)
				}
				return
			}
			if !errors.Is(err, journal.ErrLegacy) {
				if err == nil {
					s.Close()
				}
				t.Fatalf("NewStore = %v, want journal.ErrLegacy", err)
			}
			if c.file == JournalName {
				if c := CheckJournal(c.data); !c.Damaged() || c.State != journal.Legacy {
					t.Fatalf("CheckJournal = %+v, want Damaged and Legacy", c)
				}
			}
			if after := readDir(t, dir); !reflect.DeepEqual(before, after) {
				t.Fatalf("a refused open changed the directory: %q -> %q", before, after)
			}
		})
	}
}

// readDir maps every file in dir to its contents.
func readDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(b)
	}
	return out
}
