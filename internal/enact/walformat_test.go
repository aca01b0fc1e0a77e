package enact

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/mcc-cmi/cmi/internal/core"
	"github.com/mcc-cmi/cmi/internal/journal"
	"github.com/mcc-cmi/cmi/internal/vclock"
)

// freshFixture builds an empty engine sharing wf's schema registry, the
// way reopen does, for recovering synthesized journal files.
func freshFixture(wf *walFixture) *fixture {
	g := &fixture{
		clk:     vclock.NewVirtual(),
		schemas: wf.schemas,
		dir:     core.NewDirectory(),
	}
	g.contexts = core.NewRegistry(g.clk)
	g.eng = New(g.clk, g.schemas, g.dir, g.contexts)
	return g
}

// TestWALRefusesLegacyFormats: a journal written by a pre-binary CMI
// (JSON lines, alone or behind binary frames) or holding a v1 record
// (a frame without the id section) is refused at recovery with
// journal.ErrLegacy, flagged Damaged by the offline check, and left
// byte-for-byte untouched — never misread, never replayed as a prefix.
func TestWALRefusesLegacyFormats(t *testing.T) {
	wf := newWALFixture(t, -1)
	workload(t, wf.fixture)
	if err := wf.eng.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	current, err := os.ReadFile(wf.walPath)
	if err != nil {
		t.Fatal(err)
	}
	// A v1 record: the current encoding minus the trailing id section,
	// which for a record that drew no ids is four zero-length fields.
	v1, err := appendWALRecord(nil, &walRecord{Seq: 1, Kind: walSetField, Ctx: "ctx-1", Field: "f",
		Value: &core.WireValue{T: "i", I: 3}})
	if err != nil {
		t.Fatal(err)
	}
	v1 = v1[:len(v1)-4]
	jsonLine := []byte(`{"seq":1,"kind":"set_field","ctx":"ctx-1","field":"f","value":{"t":"i","i":3}}` + "\n")

	cases := map[string][]byte{
		"json-lines":         jsonLine,
		"json-after-frames":  append(append([]byte(nil), current...), jsonLine...),
		"v1-frame":           journal.AppendRecord(nil, v1),
		"v1-frame-then-v2":   append(journal.AppendRecord(nil, v1), current...),
		"frames-then-v1-rec": journal.AppendRecord(append([]byte(nil), current...), v1),
	}
	d := t.TempDir()
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(d, name+".wal")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			g := freshFixture(wf)
			if _, err := g.eng.Recover(filepath.Join(d, "none.snap"), path); !errors.Is(err, journal.ErrLegacy) {
				t.Fatalf("Recover = %v, want journal.ErrLegacy", err)
			}
			if c := CheckWAL(data); !c.Damaged() || c.State != journal.Legacy {
				t.Fatalf("CheckWAL = %+v, want Damaged and Legacy", c)
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

// BenchmarkWALAppend measures the single-operation journal append path:
// encode one representative record into a frame and commit it through a
// group (no fsync, matching the default WALOptions the engine tests
// run under).
func BenchmarkWALAppend(b *testing.B) {
	w, err := OpenWAL(filepath.Join(b.TempDir(), "bench.wal"), WALOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	rec := walRecord{
		Kind:   walTransition,
		User:   "dr.reed",
		Proc:   "proc-17",
		Act:    "act-231",
		To:     string(core.Completed),
		Inputs: map[string]string{"tfc": "ctx-17"},
		G:      []bool{true},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := w.stage(&rec)
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Wait(); err != nil {
			b.Fatal(err)
		}
	}
}
