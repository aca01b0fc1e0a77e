package delivery

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/mcc-cmi/cmi/internal/fs"
	"github.com/mcc-cmi/cmi/internal/journal"
	"github.com/mcc-cmi/cmi/internal/obs"
)

// TestFanoutWireEquivalence: the encode-once fast path of EnqueueFanout
// must journal records that decode identically to a plain per-user
// enqueue — the guarantee that fanned-out records and per-user records
// replay through the same loader to the same state.
func TestFanoutWireEquivalence(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := Notification{
		Schema:      "AS",
		Description: "spliced",
		Params:      map[string]any{"count": int64(3), "who": "dr.reed"},
		Priority:    2,
	}
	users := []string{"u1", "u2", "u3"}
	ns, dups, err := s.EnqueueFanout(users, "key-1", n)
	if err != nil || dups != 0 {
		t.Fatalf("fanout: dups=%d err=%v", dups, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A reference store enqueues the same notification per user — the
	// journals must decode to the same records.
	refDir := t.TempDir()
	ref, err := NewStore(refDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range users {
		if _, dup, err := ref.EnqueueKeyed(u, "key-1", n); err != nil || dup {
			t.Fatalf("reference enqueue %s: dup=%v err=%v", u, dup, err)
		}
	}
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
	// Both stores keep every queue in their one journal; index its
	// records by participant.
	readRecords := func(dir string) map[string]record {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(dir, JournalName))
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]record{}
		rep := journal.Check(data, func(_ int64, p []byte) error {
			var r record
			if err := decodeRecord(p, &r); err != nil {
				return err
			}
			if _, dup := out[r.Participant]; dup {
				return fmt.Errorf("second record for %s", r.Participant)
			}
			out[r.Participant] = r
			return nil
		})
		if rep.State != journal.Clean || rep.Records != len(users) {
			t.Fatalf("journal in %s: %d records, %v (%v)", dir, rep.Records, rep.State, rep.Cause)
		}
		return out
	}
	gotRecs, wantRecs := readRecords(dir), readRecords(refDir)
	for i, u := range users {
		got, want := gotRecs[u], wantRecs[u]
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("user %s journal:\n  got  %+v / %+v\n  want %+v / %+v", u, got, got.Notif, want, want.Notif)
		}
		if got.Notif.ID != ns[i].ID {
			t.Fatalf("user %s journaled id %d, want %d", u, got.Notif.ID, ns[i].ID)
		}
		if v, ok := got.Notif.Params["count"].(int64); !ok || v != 3 {
			t.Fatalf("user %s param count = %#v, want int64(3)", u, got.Notif.Params["count"])
		}
	}
}

// TestFanoutOrderingUnderContention: many goroutines fanning out to the
// same queues concurrently must leave every queue with contiguous,
// strictly increasing ids whose order matches the journal — and a
// reopened store must replay to the same state.
func TestFanoutOrderingUnderContention(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	users := []string{"a", "b", "c"}
	const writers, perWriter = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				n := Notification{Schema: "AS", Description: fmt.Sprintf("w%d-%d", w, i)}
				if _, _, err := s.EnqueueFanout(users, "", n); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	check := func(st *Store, label string) {
		for _, u := range users {
			hist, err := st.History(u)
			if err != nil {
				t.Fatal(err)
			}
			if len(hist) != writers*perWriter {
				t.Fatalf("%s: queue %s has %d notifications, want %d", label, u, len(hist), writers*perWriter)
			}
			for i, n := range hist {
				if n.ID != int64(i+1) {
					t.Fatalf("%s: queue %s position %d has id %d, want %d", label, u, i, n.ID, i+1)
				}
			}
		}
	}
	check(s, "live")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	check(s2, "replayed")
}

// TestFanoutKeyedExactlyOnceAcrossReopen: a keyed fan-out redelivered
// after a store restart is deduplicated on every queue it reached — the
// federation spool's exactly-once guarantee, on the batch path.
func TestFanoutKeyedExactlyOnceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	users := []string{"p1", "p2"}
	n := Notification{Schema: "AS", Description: "remote"}
	if _, dups, err := s.EnqueueFanout(users, "dom-1", n); err != nil || dups != 0 {
		t.Fatalf("first fanout: dups=%d err=%v", dups, err)
	}
	// Replay against the live store.
	if _, dups, err := s.EnqueueFanout(users, "dom-1", n); err != nil || dups != len(users) {
		t.Fatalf("live replay: dups=%d err=%v, want %d dups", dups, err, len(users))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, dups, err := s2.EnqueueFanout(users, "dom-1", n); err != nil || dups != len(users) {
		t.Fatalf("replay after reopen: dups=%d err=%v, want %d dups", dups, err, len(users))
	}
	// A partially applied fan-out (key already on p1 only) fills in the
	// missing queue exactly once.
	if _, dups, err := s2.EnqueueKeyed("p3", "dom-2", n); err != nil || dups {
		t.Fatalf("seed p3: dup=%v err=%v", dups, err)
	}
	if _, dups, err := s2.EnqueueFanout([]string{"p3", "p4"}, "dom-2", n); err != nil || dups != 1 {
		t.Fatalf("partial redelivery: dups=%d err=%v, want 1", dups, err)
	}
	for u, want := range map[string]int{"p1": 1, "p2": 1, "p3": 1, "p4": 1} {
		pending, err := s2.Pending(u)
		if err != nil {
			t.Fatal(err)
		}
		if len(pending) != want {
			t.Fatalf("queue %s has %d pending, want %d", u, len(pending), want)
		}
	}
}

// TestTornCommitGroupReplay: a crash mid-commit-group leaves complete
// leading records and one torn trailing line in the journal; replay
// keeps everything before the tear and drops the tear, and the queue
// keeps accepting appends afterwards.
func TestTornCommitGroupReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Build a real multi-record journal via fan-out, then tear it the
	// way an interrupted group write would: the file ends mid-record.
	for i := 0; i < 3; i++ {
		if _, _, err := s.EnqueueFanout([]string{"p"}, "", Notification{Schema: "AS", Description: fmt.Sprintf("n%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, JournalName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	pending, err := s2.Pending("p")
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 2 {
		t.Fatalf("pending after torn group = %d, want 2", len(pending))
	}
	n, err := s2.Enqueue("p", Notification{Schema: "AS", Description: "after"})
	if err != nil {
		t.Fatal(err)
	}
	if n.ID <= pending[len(pending)-1].ID {
		t.Fatalf("post-tear id %d does not advance past %d", n.ID, pending[len(pending)-1].ID)
	}
}

// TestCompactionOnLoad: a journal that is majority-acked is rewritten on
// load to its live state; the id high-water mark and the idempotency
// keys of dropped records survive, the ack records are gone, and the
// temporary file is cleaned up.
func TestCompactionOnLoad(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	var ids []int64
	for i := 0; i < 10; i++ {
		n, dup, err := s.EnqueueKeyed("p", fmt.Sprintf("k%d", i), Notification{Schema: "AS", Description: fmt.Sprintf("n%d", i)})
		if err != nil || dup {
			t.Fatalf("enqueue %d: dup=%v err=%v", i, dup, err)
		}
		ids = append(ids, n.ID)
	}
	for _, id := range ids[:8] {
		if err := s.Ack("p", id); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	hist, err := s2.History("p") // the open loaded and compacted
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 2 || hist[0].ID != ids[8] || hist[1].ID != ids[9] {
		t.Fatalf("history after compaction = %+v, want live ids %d,%d", hist, ids[8], ids[9])
	}
	if _, err := os.Stat(filepath.Join(dir, JournalName+".tmp")); !os.IsNotExist(err) {
		t.Fatalf("compaction tmp file left behind (stat err %v)", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, JournalName))
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[byte]int{}
	rep := journal.Check(data, func(_ int64, p []byte) error {
		var r record
		if err := decodeRecord(p, &r); err != nil {
			return err
		}
		kinds[r.Kind]++
		return nil
	})
	if rep.State != journal.Clean {
		t.Fatalf("compacted journal ends %v at offset %d", rep.State, rep.Offset)
	}
	if kinds[recAck] != 0 {
		t.Fatal("compacted journal still carries ack records")
	}
	if kinds[recNext] == 0 {
		t.Fatal("compacted journal carries no id high-water record")
	}
	// Ids are never reused: the next enqueue continues past the dropped
	// records' high-water mark.
	n, err := s2.Enqueue("p", Notification{Schema: "AS"})
	if err != nil {
		t.Fatal(err)
	}
	if n.ID != ids[9]+1 {
		t.Fatalf("post-compaction id = %d, want %d", n.ID, ids[9]+1)
	}
	// Keys of compacted-away (acked) notifications still deduplicate.
	if _, dup, err := s2.EnqueueKeyed("p", "k0", Notification{Schema: "AS"}); err != nil || !dup {
		t.Fatalf("key of compacted record: dup=%v err=%v, want duplicate", dup, err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	// The compacted journal replays cleanly once more.
	s3, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	pending, err := s3.Pending("p")
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 3 {
		t.Fatalf("pending after second reopen = %d, want 3", len(pending))
	}
}

// TestConcurrentFanoutAckScrape exercises the store's whole concurrent
// surface at once — batched fan-outs, acks, the O(1) depth gauge and a
// metrics scrape loop — and then checks the incrementally maintained
// pending counter against ground truth. Run under -race (make check),
// this is the store's data-race regression test.
func TestConcurrentFanoutAckScrape(t *testing.T) {
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	reg := obs.NewRegistry()
	s.Instrument(reg)
	users := []string{"x", "y"}
	const writers, perWriter = 4, 20
	acks := make(chan Notification, writers*perWriter*len(users))
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				ns, _, err := s.EnqueueFanout(users, "", Notification{Schema: "AS", Description: fmt.Sprintf("w%d-%d", w, i)})
				if err != nil {
					t.Error(err)
					return
				}
				// Ack every other notification of the first queue.
				if i%2 == 0 {
					acks <- ns[0]
				}
			}
		}(w)
	}
	var ackWG sync.WaitGroup
	ackWG.Add(1)
	go func() {
		defer ackWG.Done()
		for n := range acks {
			if err := s.Ack("x", n.ID); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	scrapeDone := make(chan struct{})
	go func() {
		defer close(scrapeDone)
		for i := 0; i < 50; i++ {
			var b strings.Builder
			if _, err := reg.WriteTo(&b); err != nil {
				t.Error(err)
				return
			}
			if !strings.Contains(b.String(), "cmi_delivery_queue_depth") {
				t.Error("scrape missing queue depth gauge")
				return
			}
		}
	}()
	wg.Wait()
	close(acks)
	ackWG.Wait()
	<-scrapeDone

	// The incrementally maintained depth must agree with a ground-truth
	// count over Pending once the dust settles.
	want := 0
	for _, u := range users {
		pending, err := s.Pending(u)
		if err != nil {
			t.Fatal(err)
		}
		want += len(pending)
	}
	if got := s.pendingDepth(); got != want {
		t.Fatalf("pendingDepth = %d, Pending ground truth = %d", got, want)
	}
	total := writers * perWriter
	wantX := total - total/2 // half of queue x was acked
	if pending, _ := s.Pending("x"); len(pending) != wantX {
		t.Fatalf("queue x pending = %d, want %d", len(pending), wantX)
	}
}

// TestSyncedFanoutOneFsync: every recipient of a fan-out stages into
// the same commit group of the store's one journal, so a width-64
// fan-out on a syncing store costs exactly one fsync, not one per
// recipient.
func TestSyncedFanoutOneFsync(t *testing.T) {
	s, err := NewStoreWith(t.TempDir(), StoreOptions{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	users := make([]string, 64)
	for i := range users {
		users[i] = fmt.Sprintf("u%d", i)
	}
	before := fs.Syncs()
	ns, dups, err := s.EnqueueFanout(users, "", Notification{Schema: "AS", Description: "wide"})
	if err != nil || dups != 0 {
		t.Fatalf("fanout: dups=%d err=%v", dups, err)
	}
	if syncs := fs.Syncs() - before; syncs != 1 {
		t.Fatalf("width-64 fan-out issued %d fsyncs, want 1", syncs)
	}
	for i, n := range ns {
		if n.ID != 1 {
			t.Fatalf("recipient %s got id %d, want 1", users[i], n.ID)
		}
	}
}

// TestOneDeliveryFile: however many participants a store delivers to,
// its directory holds one delivery file, and every queue replays from
// it.
func TestOneDeliveryFile(t *testing.T) {
	for _, n := range []int{1, 100} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			dir := t.TempDir()
			s, err := NewStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if _, err := s.Enqueue(fmt.Sprintf("p%d", i), Notification{Schema: "AS"}); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != 1 || entries[0].Name() != JournalName {
				t.Fatalf("%d participants left %d files, want only %s", n, len(entries), JournalName)
			}
			s2, err := NewStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			if parts := s2.Participants(); len(parts) != n {
				t.Fatalf("reopened store has %d participants, want %d", len(parts), n)
			}
		})
	}
}
