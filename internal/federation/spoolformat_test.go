package federation

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/mcc-cmi/cmi/internal/delivery"
	"github.com/mcc-cmi/cmi/internal/journal"
)

// TestSpoolRefusesLegacyFormats: a spool journal written by a
// pre-binary CMI (JSON lines, alone or after binary frames) is refused
// at open with journal.ErrLegacy, flagged Damaged by the offline check
// and never rewritten — a pending push is never misread or dropped.
func TestSpoolRefusesLegacyFormats(t *testing.T) {
	jsonLines := []byte(`{"kind":"push","push":{"key":"k0","participant":"mirror","notification":{"id":0,"time":"0001-01-01T00:00:00Z","schema":"S","description":"n0"},"spooled":"2023-11-14T22:13:20Z"}}` + "\n")
	e := spoolTestEntry(1)
	frames := journal.AppendRecord(nil, appendSpoolPush(nil, &e))
	cases := map[string][]byte{
		"json-lines":       jsonLines,
		"frames-then-json": append(append([]byte(nil), frames...), jsonLines...),
		"torn-json-line":   jsonLines[:30],
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "spool.journal")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := OpenSpool(path); !errors.Is(err, journal.ErrLegacy) {
				t.Fatalf("OpenSpool = %v, want journal.ErrLegacy", err)
			}
			if c := CheckSpool(data); !c.Damaged() || c.State != journal.Legacy {
				t.Fatalf("CheckSpool = %+v, want Damaged and Legacy", c)
			}
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if string(after) != string(data) {
				t.Fatal("a refused spool was rewritten")
			}
		})
	}
}

// BenchmarkSpoolPush measures journaling one remote notification into
// the spool: one binary frame encoded and appended per push.
func BenchmarkSpoolPush(b *testing.B) {
	sp, err := OpenSpool(filepath.Join(b.TempDir(), "spool.jsonl"))
	if err != nil {
		b.Fatal(err)
	}
	defer sp.Close()
	n := delivery.Notification{
		Schema:      "SevereCase",
		Description: "severe case count threshold crossed",
		Priority:    2,
		Params:      map[string]any{"count": int64(12), "region": "north"},
	}
	spooled := time.Unix(1700000000, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sp.Add(spoolEntry{
			Key:          "bench-key",
			Participant:  "mirror",
			Notification: n,
			Spooled:      spooled,
		}); err != nil {
			b.Fatal(err)
		}
	}
}
