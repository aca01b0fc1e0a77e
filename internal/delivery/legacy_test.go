package delivery

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/mcc-cmi/cmi/internal/journal"
)

// TestQueueRefusesLegacyJournal: a participant journal written by a
// pre-binary CMI (JSON lines, alone or behind binary frames) is refused
// at open with journal.ErrLegacy, flagged Damaged by the offline check,
// and never rewritten — not misread, and not dropped as a torn tail.
func TestQueueRefusesLegacyJournal(t *testing.T) {
	jsonLines := []byte(`{"kind":"notif","notif":{"id":1,"time":"2026-08-01T12:00:00Z","schema":"SevereCase","description":"first"}}` + "\n" +
		`{"kind":"ack","ackId":1}` + "\n")
	frames := journal.AppendRecord(nil, appendRecordNotif(nil, "", &Notification{ID: 1, Schema: "S"}))
	cases := map[string][]byte{
		"json-lines":        jsonLines,
		"frames-then-json":  append(append([]byte(nil), frames...), jsonLines...),
		"torn-json-line":    jsonLines[:20],
		"json-then-a-frame": append(append([]byte(nil), jsonLines...), frames...),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "u.jsonl")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := NewStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := s.Preload(); !errors.Is(err, journal.ErrLegacy) {
				t.Fatalf("Preload = %v, want journal.ErrLegacy", err)
			}
			if _, err := s.Enqueue("u", Notification{Schema: "S"}); !errors.Is(err, journal.ErrLegacy) {
				t.Fatalf("Enqueue = %v, want journal.ErrLegacy", err)
			}
			if c := CheckJournal(data); !c.Damaged() || c.State != journal.Legacy {
				t.Fatalf("CheckJournal = %+v, want Damaged and Legacy", c)
			}
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if string(after) != string(data) {
				t.Fatal("a refused journal was rewritten")
			}
		})
	}
}
